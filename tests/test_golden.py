"""Byte-identity guard: digests of the user-facing outputs, pinned so that a
refactor of the internals cannot change what the CLI prints or writes.

The verify n=5 digest equals the one the benchmark harness gates on
(`perfbench/run.py`, DIGESTS["verify n=5"]).  The n=12 digests pin the
export order past one-digit labels, where token-string order (p:1-10 before
p:1-3) and canonical edge order differ.
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
    ("quiver", "--json", "--relations", "--direct"):
        "484cf1d00f36ba00d7fe1ebc25dd3123233e0d4133f455ba4ba73b89a9861f13",
    ("quiver", "--dot", "--direct"):
        "b1ce4caf4217c03cf878267fb8c0787e161f94a1ad5adf0e73d838662a4f79cc",
    ("relations",):
        "c19c67af8d4e7fde7c3093cb8bd1524786d462f1d95f342709bda2ec2a9e7535",
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
