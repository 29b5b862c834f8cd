"""Byte-identity guard: digests of the user-facing outputs, pinned so that a
refactor of the internals cannot change what the CLI prints or writes.

The verify n=5 digest equals the one the benchmark harness gates on
(`perfbench/run.py`, DIGESTS["verify n=5"]).
"""

import hashlib

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
