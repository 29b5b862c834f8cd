"""Byte-identity guard: digests of the user-facing outputs, pinned so that a
refactor of the internals cannot change what the CLI prints or writes.

The verify n=5 digest equals the one the benchmark harness gates on
(`perfbench/run.py`, DIGESTS["verify n=5"]).  The n=12 digests pin the
export order past one-digit labels, where token-string order (p:1-10 before
p:1-3) and canonical edge order differ.  The n=20 and n=30 digests pin the
template quiver and the relations of one walk triangulation of each of the
four types, past the range where whole tables can be built.
"""

import hashlib
import random

from dncat import triangulations as tr
from dncat.cli import main

VERIFY_ALL_N5 = "763af4bbc75872bac501a55fc8a135823a429b35c1ff32442fa533154f9c3cfd"

CATALOG_N6 = {
    "triangulations.jsonl":
        "5df5de664d9d97d0fa751dd923d95e37419d8bba122be6259731f027e6f5c1f4",
    "classes.jsonl":
        "333d8a0846e326008dddb4e52a7adfb7348ccc0d34d31d621e6460811498ffdb",
    "meta.json":
        "11e3cfaeb63b4b3d1044cf586364cb47a357a12f4cb13c5e9bfb4eef8d863af6",
}

WALK_N12 = {
    ("quiver", "--json", "--relations"):
        "484cf1d00f36ba00d7fe1ebc25dd3123233e0d4133f455ba4ba73b89a9861f13",
    ("quiver", "--dot"):
        "b1ce4caf4217c03cf878267fb8c0787e161f94a1ad5adf0e73d838662a4f79cc",
    ("relations",):
        "c19c67af8d4e7fde7c3093cb8bd1524786d462f1d95f342709bda2ec2a9e7535",
}

TYPED_ARGV = (("quiver", "--json", "--relations"), ("relations",))

# (n, type) -> the output digest of each TYPED_ARGV command, for the first
# triangulation of that type met on the seeded walk of typed_walk(n)
TYPED_WALKS = {
    (20, 1): ("757f6db85e4099f1b70c0d3f842e45716aaf9e1bda4e3bc3c5dfded95326745a",
              "922bcfbd4369254a1e6e0822dcc352fd57739b719769c9da9a93c80dc357eecd"),
    (20, 2): ("00e2763fcc651c57348b52c53f69712cc94b26737d2ec4a69f38b9ef3baf69f0",
              "ab69a72804d94674f05a94333f474abfc1a1f067afa6d1a02d001f02defa51c0"),
    (20, 3): ("77f7671cf68ca6316f8537ef5fdb0d70078951b8dff8c1b688da75aa5c479e62",
              "cf8d8cffdc72308860c05e1496a508126e4298982bc23225a4d9394155f69b4b"),
    (20, 4): ("2f8499f4867cff442376ede5b7b1c1670615f18cb615e6b76a7e62929c2b805e",
              "43dd235b058cd50dc03902da1e690ee66a203491b32a45816d01c6d2106630a1"),
    (30, 1): ("d021b5d11b9ca4c840ed4053aeb0650afbefb7541a91ccbf4f74e004e54f76cc",
              "399f91726986884b9e6b42244b836063e5b176e942e203ebcf95008134295974"),
    (30, 2): ("54672fd7c0ac3e77890f05f5265991a0015373265b111e50ac389cd2f7eec0ef",
              "676f1d307f7c9ec03dd0e6048ac46647591fe0f808cf081fe35549ef5895100c"),
    (30, 3): ("96998bf9236fc616e576a4c14c933cb899687314146129ea7ddcdf026ef1ee82",
              "11e458783fce64e8765ed2047210614e4f69d490437ea600f3dcf7cbc5b67fa5"),
    (30, 4): ("3a84c913cf54721ee746dc048a992259caa02eb5bf5499c14eb2286ef503f866",
              "ea086a1498313217e74a5a04a7435f45cda7f6ce11cc6e3030f0026249775127"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_verify_all_n5_output(capsys):
    code = main(["verify", "--suite", "all", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == VERIFY_ALL_N5


def test_catalog_n6_files(capsys, tmp_path):
    assert main(["catalog", "build", "--n", "6", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    target = tmp_path / "n=6"
    digests = {name: _sha256((target / name).read_bytes()) for name in CATALOG_N6}
    assert digests == CATALOG_N6


def test_export_order_n12(capsys):
    rng = random.Random(12)
    tri = tr.fan(12)
    for _ in range(48):
        tri, _ = tr.flip(tri, tri.edges[rng.randrange(12)])
    tokens = [e.token() for e in tri.edges]
    assert tokens != sorted(tokens)  # the two orders differ on this input
    digests = {}
    for argv in WALK_N12:
        assert main([*argv, "--n", "12", "--edges", tri.token()]) == 0
        digests[argv] = _sha256(capsys.readouterr().out.encode("utf-8"))
    assert digests == WALK_N12


def typed_walk(n: int) -> dict:
    """Flip random edges from the fan (seeded by n); after a burn-in of 4n
    flips, keep the first triangulation met of each type."""
    rng = random.Random(n)
    tri = tr.fan(n)
    found = {}
    for step in range(1, 100 * n):
        tri, _ = tr.flip(tri, tri.edges[rng.randrange(n)])
        if step >= 4 * n:
            found.setdefault(tr.classify_type(tri), tri)
            if len(found) == 4:
                return found
    raise AssertionError(f"walk at n={n} did not meet all four types")


def test_typed_walks_n20_n30(capsys):
    digests = {}
    for n in (20, 30):
        for kind, tri in typed_walk(n).items():
            outputs = []
            for argv in TYPED_ARGV:
                assert main([*argv, "--n", str(n), "--edges", tri.token()]) == 0
                outputs.append(_sha256(capsys.readouterr().out.encode("utf-8")))
            digests[(n, kind)] = tuple(outputs)
    assert digests == TYPED_WALKS
