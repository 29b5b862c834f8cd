"""Byte-identity guard: digests of the user-facing outputs, pinned so that a
refactor of the internals cannot change what the CLI prints or writes.

The verify n=5 and n=7 digests and the n=5 and n=8 catalog digests equal
the ones the benchmark harness gates on (`perfbench/run.py`, DIGESTS).  The
verify digests at n=4..7 pin the suites' output while the costly checks run
once per translation/tag-swap class and reach the other members by laws.  The n=12
digests pin the export order past one-digit labels, where token-string
order (p:1-10 before p:1-3) and canonical edge order differ.  The n=20
and n=30 digests pin the template quiver and the relations of one walk
triangulation of each of the four types, past the range where whole
tables can be built.  The query-walk digest pins what one query computes
(template quiver, relations, algebra dimension, canonical key and the
vertex order of the canonical labeling) on seeded flip walks at n = 12,
16 and 20.
"""

import hashlib
import json
import random

import pytest

from dncat import quivers as qv
from dncat import relations as rl
from dncat import triangulations as tr
from dncat.cli import main

VERIFY_ALL = {
    4: "28d06bc4f5ad6460f75347fc7ea949c50dcf22d21bc1af6dd436f4dea52ef9c8",
    5: "763af4bbc75872bac501a55fc8a135823a429b35c1ff32442fa533154f9c3cfd",
    6: "0a51044e438fc2785eb0c69ad2256b42bff938a673d54b6c915901dbfd400ce8",
    7: "e6797cfe545bca94b047b8282495872df934f321edee8f26b9fc6f257ef8a650",
}

CATALOG = {
    4: {
        "triangulations.jsonl":
            "6a3fea451c95bca6a6044fa4369c37f4e2acd22af68398943b92504b5c6ceb73",
        "classes.jsonl":
            "655407a9094d98758cc2dd416b7be6d06ffffa55777cb2736c2dddace29955b3",
        "meta.json":
            "88d3aa6d7dd2afeec380bb1655d63d02db197d19239fd8e357d9db1527528be9",
    },
    5: {
        "triangulations.jsonl":
            "175f91a8b59d59fb0cdb8f0932f0a98f53f1af9422e2eb588886af5b1aeb655b",
        "classes.jsonl":
            "742ce206c385d982ce0e189f4f4a1b930fff34b0077c77d5d9d33186aca3ebc1",
        "meta.json":
            "88352836c27e35d97a0fcf3638d37eadc5449650cfd3f00ee4bae6a84edf03ff",
    },
    6: {
        "triangulations.jsonl":
            "5df5de664d9d97d0fa751dd923d95e37419d8bba122be6259731f027e6f5c1f4",
        "classes.jsonl":
            "333d8a0846e326008dddb4e52a7adfb7348ccc0d34d31d621e6460811498ffdb",
        "meta.json":
            "11e3cfaeb63b4b3d1044cf586364cb47a357a12f4cb13c5e9bfb4eef8d863af6",
    },
    7: {
        "triangulations.jsonl":
            "bc96b839f1b22b115c6075691ee5e5ac0c6d193cf71e56f848b5a60ad9af07c4",
        "classes.jsonl":
            "7d31b4e2312675ee4a396be3ac8eeff95a985c12d9d25e312561bf2c48df0211",
        "meta.json":
            "bb03809df75df231589b1a9110d7fe3807bd0e6971608e6b4cffd757925ccf18",
    },
    8: {
        "triangulations.jsonl":
            "f2c26038d610b16668c1498a333cbad850e9a05de3e4e1a70a419df5f895e5b8",
        "classes.jsonl":
            "86abcb5b5d08049b86adcf7973bbce9958c5e1708a1c26a63ccf6be43456bc50",
        "meta.json":
            "b4fd4a21ece21c6a904949afb80066e53a4446d427ad2a3c6825f4d93edfff30",
    },
}

CATALOG_SHOW = {
    4: "b5443febf9fadd7441e59b949cdf5814bfecdc3c9e40bc485b41ab4837bd3633",
    5: "b7be86f9369b387ccdf56408a3f3f49348488aa9488976d232b09aad6a0f25b3",
    6: "59fe14b44bbcf8e69fa129a438c468b419313470aec18b6b2d61c60e6c0cedc8",
    7: "f76590c8110f3a63ef8ef4b078347243bbbec60e798c43de34a57490beef6e20",
    8: "4c1505847fe22156f38482718f7aad67b5e53a4765ff607e1237e136a9d89feb",
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

QUERY_WALKS = "c9f2a2d9442da27b79c35cc6d26782a82c2abfff3ceb5a57d279f6151d00cc7f"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verify_all_digest(capsys, n: int) -> str:
    code = main(["verify", "--suite", "all", "--n", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    return _sha256(out.encode("utf-8"))


def test_verify_all_n5_output(capsys):
    assert _verify_all_digest(capsys, 5) == VERIFY_ALL[5]


@pytest.mark.parametrize("n", [4, 6, 7])
def test_verify_all_output(capsys, n):
    assert _verify_all_digest(capsys, n) == VERIFY_ALL[n]


def _catalog_digests(tmp_path, n: int) -> dict:
    target = tmp_path / f"n={n}"
    return {name: _sha256((target / name).read_bytes()) for name in CATALOG[n]}


@pytest.mark.parametrize("n", sorted(CATALOG))
def test_catalog_files_and_show(capsys, tmp_path, n):
    assert main(["catalog", "build", "--n", str(n), "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _catalog_digests(tmp_path, n) == CATALOG[n]
    assert main(["catalog", "show", "--n", str(n), "--dir", str(tmp_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == CATALOG_SHOW[n]


def test_catalog_n6_files(capsys, monkeypatch, tmp_path):
    # the catalog is read off the template: no transport table, no walk
    def no_walk(n):
        raise AssertionError(f"walked the flip graph at n={n}")

    monkeypatch.setattr(qv, "transport_table", no_walk)
    monkeypatch.setattr(tr, "class_graph", no_walk)
    assert main(["catalog", "build", "--n", "6", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _catalog_digests(tmp_path, 6) == CATALOG[6]


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


def query_walk_records(n: int) -> list:
    """After a burn-in of 4n flips from the fan (seeded by n), every second
    triangulation of the next 120 flips with its query outputs."""
    rng = random.Random(n)
    tri = tr.fan(n)
    records = []
    for step in range(1, 4 * n + 121):
        tri, _ = tr.flip(tri, tri.edges[rng.randrange(n)])
        if step > 4 * n and step % 2 == 0:
            q = qv.direct_quiver_of(tri)
            rels = rl.relations_of(tri)
            key, order = qv._canonical_labeling(q)
            records.append({"triangulation": tri.token(), "type": tr.classify_type(tri),
                            "quiver": q.to_json(), "relations": rels.to_json(),
                            "dimension": rl.path_algebra_dimension(q, rels),
                            "key": key, "order": [q.label(v) for v in order]})
    return records


def test_query_walk_outputs():
    records = [r for n in (12, 16, 20) for r in query_walk_records(n)]
    assert {r["type"] for r in records} == {1, 2, 3, 4}  # every template runs
    text = json.dumps(records, sort_keys=True)
    assert _sha256(text.encode("utf-8")) == QUERY_WALKS
