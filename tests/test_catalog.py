import json
import os
import tracemalloc
import weakref
from pathlib import Path

import pytest

from dncat import catalog as cat
from dncat import quivers as qv
from dncat import triangulations as tr
from dncat.catalog import default_dir, read_catalog, write_catalog
from dncat.edges import alphabet
from dncat.triangulations import count_all, enumerate_all, equivalence_classes


def test_build_counts(tmp_path):
    _, catalog = write_catalog(5, tmp_path)
    assert catalog.count == count_all(5)
    assert catalog.counts()["classes"] == len(equivalence_classes(5))
    assert catalog.census == {"1": 15, "2": 4, "3": 2, "4": 5}


def test_build_decomposes_each_class_once(monkeypatch, tmp_path):
    # the quiver and the relations of a class are read off one decomposition,
    # counted where the cut is computed
    calls = []
    cut = qv._decompose
    monkeypatch.setattr(qv, "_decompose", lambda tri: calls.append(tri) or cut(tri))
    _, catalog = write_catalog(6, tmp_path)
    classes = equivalence_classes(6)
    assert catalog.counts()["classes"] == len(calls) == len(classes) == 80
    assert calls == [c.representative for c in classes]


def test_build_reads_the_region_arrows_once_per_class(monkeypatch, tmp_path):
    # the quiver and the relations of a class read one arrow list
    calls = []
    arrows = qv.region_arrows
    monkeypatch.setattr(qv, "region_arrows", lambda tri: calls.append(tri) or arrows(tri))
    write_catalog(6, tmp_path)
    assert len(calls) == len(equivalence_classes(6)) == 80


class _Payload(dict):
    """A class payload that can be weakly referenced."""


def test_write_keeps_one_class_payload_alive(monkeypatch, tmp_path):
    refs = []
    alive_before = []  # payloads still alive each time the next one is built
    payload = cat._class_payload

    def tracked(cls):
        alive_before.append(sum(ref() is not None for ref in refs))
        record = _Payload(payload(cls))
        refs.append(weakref.ref(record))
        return record

    monkeypatch.setattr(cat, "_class_payload", tracked)
    write_catalog(6, tmp_path)
    assert len(alive_before) == 80 and max(alive_before) == 0


def test_read_holds_no_class_records(tmp_path):
    target, written = write_catalog(8, tmp_path)
    alphabet(8)
    tracemalloc.start()
    try:
        with (target / "classes.jsonl").open(encoding="utf-8") as fh:
            fh.readline()
            records = [json.loads(line) for line in fh]
        size = tracemalloc.get_traced_memory()[0]
        del records
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert read_catalog(8, tmp_path) == written
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < size / 4


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_triangulation_lines_are_the_json_records(n):
    # one generator for writer and reader, byte-identical to the JSON dump
    assert list(cat._triangulation_lines(n)) == [
        cat._dumps({"edges": t.token()}) + "\n" for t in enumerate_all(n)]


def test_read_parses_only_the_class_lines(monkeypatch, tmp_path):
    # the triangulation lines equal the enumeration's, so none is parsed
    _, written = write_catalog(6, tmp_path)
    parsed = []
    parse = tr.parse_triangulation
    monkeypatch.setattr(tr, "parse_triangulation",
                        lambda n, text: parsed.append(text) or parse(n, text))
    assert read_catalog(6, tmp_path) == written
    assert parsed == [c.representative.token() for c in equivalence_classes(6)]


def test_round_trip_is_byte_identical(tmp_path):
    target, written = write_catalog(4, tmp_path)
    first = {p.name: p.read_bytes() for p in target.iterdir()}
    assert read_catalog(4, tmp_path) == written
    write_catalog(4, tmp_path)
    second = {p.name: p.read_bytes() for p in target.iterdir()}
    assert first == second
    assert set(first) == {"triangulations.jsonl", "classes.jsonl", "meta.json"}


def test_checksum_validation(tmp_path):
    write_catalog(4, tmp_path)
    victim = tmp_path / "n=4" / "classes.jsonl"
    victim.write_text(victim.read_text().replace("p:1-3", "p:1-4"), encoding="utf-8")
    with pytest.raises(ValueError, match="checksum"):
        read_catalog(4, tmp_path)


def test_meta_contents(tmp_path):
    write_catalog(4, tmp_path)
    meta = json.loads((tmp_path / "n=4" / "meta.json").read_text())
    assert meta["counts"]["triangulations"] == 50
    assert meta["counts"]["classes"] == len(equivalence_classes(4))
    assert meta["checksums"]["triangulations.jsonl"].startswith("sha256:")


def test_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("DNCAT_DIR", str(tmp_path / "somewhere"))
    assert default_dir() == tmp_path / "somewhere"


def test_failed_write_leaves_the_old_catalog(monkeypatch, tmp_path):
    target, _ = write_catalog(4, tmp_path)
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    staged = {}
    open_ = Path.open

    def disk_full_at_meta(path, *args, **kwargs):
        if path.name.startswith("meta"):
            staged.update((p.name, p.read_bytes()) for p in target.glob("*.tmp"))
            raise OSError("no space left on device")
        return open_(path, *args, **kwargs)

    payload = cat._class_payload
    monkeypatch.setattr(cat, "_class_payload", lambda cls: {**payload(cls), "orbitSize": 0})
    monkeypatch.setattr(Path, "open", disk_full_at_meta)
    with pytest.raises(OSError):
        write_catalog(4, tmp_path)
    monkeypatch.undo()
    # the fault came after a staged file with new bytes, which was removed
    assert staged["classes.jsonl.tmp"] != before["classes.jsonl"]
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before
    assert read_catalog(4, tmp_path).count == 50


def test_meta_is_moved_into_place_last(monkeypatch, tmp_path):
    moved = []
    replace = os.replace
    monkeypatch.setattr(cat.os, "replace",
                        lambda src, dst: moved.append(Path(dst).name) or replace(src, dst))
    write_catalog(4, tmp_path)
    assert moved == ["triangulations.jsonl", "classes.jsonl", "meta.json"]
