"""Persistent JSON catalog, a function of n: <dir>/n=<k>/triangulations.jsonl
(all of enumerate_all(n), so a Catalog holds only their count),
classes.jsonl (each class with the template quiver and relations of its
representative, what `dncat quiver` prints) and meta.json (counts and
checksums).  The directory defaults to ./dncat_catalog and can be
overridden by the DNCAT_DIR environment variable or an explicit argument.
All serialization is deterministic, so a build-write-read-rewrite round
trip is byte identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import quivers as qv
from . import relations as rl
from . import triangulations as tr
from .errors import CatalogError

VERSION = "0.1.0"


def default_dir() -> Path:
    return Path(os.environ.get("DNCAT_DIR", "dncat_catalog"))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Catalog:
    n: int
    classes: list[dict]  # class payloads with quiver and relations attached
    count: int  # triangulations: all of enumerate_all(n)

    def type_census(self) -> dict:
        return dict(Counter(str(payload["type"]) for payload in self.classes))

    def counts(self) -> dict:
        return {"triangulations": self.count, "classes": len(self.classes),
                "typeCensus": self.type_census()}


def _class_payload(cls: tr.TriangulationClass) -> dict:
    # the quiver and the relations read off one decomposition: the same
    # as direct_quiver_of and relations_of
    rep = cls.representative
    dec = qv.decompose(rep)
    return {**cls.to_json(), "quiver": qv._template_quiver(rep, dec).to_json(),
            "relations": rl._template_relations(rep, dec).to_json()}


def build_catalog(n: int) -> Catalog:
    return Catalog(n, [_class_payload(c) for c in tr.equivalence_classes(n)], tr.count_all(n))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return f"sha256:{digest}"


def write_catalog(catalog: Catalog, directory: Path | None = None) -> Path:
    """Write the three files of the catalog.  Each is staged under a
    temporary name in the target directory and then moved into place with
    os.replace, meta.json last: a write that fails before the moves leaves
    the previous catalog as it was, and a reader never sees a file half
    written (an interruption between the moves leaves checksums that do not
    match, which read_catalog refuses)."""
    base = Path(directory) if directory is not None else default_dir()
    target = base / f"n={catalog.n}"
    target.mkdir(parents=True, exist_ok=True)
    staged = []

    def stage(name: str, header: dict, records: Iterable[dict] = ()) -> Path:
        tmp = target / f"{name}.tmp"
        staged.append(tmp)
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(_dumps(header) + "\n")
            fh.writelines(_dumps(record) + "\n" for record in records)
        return tmp

    try:
        tri_path = stage("triangulations.jsonl", {"n": catalog.n, "count": catalog.count},
                         ({"edges": t.token()} for t in tr.enumerate_all(catalog.n)))
        cls_path = stage("classes.jsonl", {"n": catalog.n, "count": len(catalog.classes)},
                         catalog.classes)
        meta = {
            "version": VERSION,
            "n": catalog.n,
            "counts": catalog.counts(),
            "checksums": {
                "triangulations.jsonl": _sha256(tri_path),
                "classes.jsonl": _sha256(cls_path),
            },
        }
        stage("meta.json", meta)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp in staged:
        os.replace(tmp, tmp.with_suffix(""))
    return target


def _record(line: str, where: str, **fields: type) -> dict:
    """One JSON object of the catalog, holding the fields the reader uses."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed JSON in {where}: {exc}") from exc
    if isinstance(record, dict) and all(isinstance(record.get(f), t) for f, t in fields.items()):
        return record
    spec = ", ".join(f"{f}: {t.__name__}" for f, t in fields.items())
    raise CatalogError(f"{where} must be a JSON object with {spec}")


def _jsonl(path: Path, what: str, **fields: type) -> Iterator[dict]:
    """The records after the header line, read one line at a time; the
    header count is checked once the last record has been read."""
    with path.open(encoding="utf-8") as fh:
        header = _record(fh.readline(), f"{path.name} header", count=int)
        count = 0
        for count, line in enumerate(fh, 1):
            yield _record(line, path.name, **fields)
    if header["count"] != count:
        raise CatalogError(f"{what} count disagrees with the header")


def read_catalog(n: int, directory: Path | None = None) -> Catalog:
    base = Path(directory) if directory is not None else default_dir()
    target = base / f"n={n}"
    meta = _record((target / "meta.json").read_text(encoding="utf-8"), "meta.json",
                   checksums=dict)
    if meta.get("version") != VERSION:
        raise CatalogError(f"unknown catalog version {meta.get('version')!r} in meta.json "
                           f"(this dncat reads {VERSION})")
    if meta.get("n") != n:
        raise CatalogError(f"meta.json is for n={meta.get('n')!r}, not n={n}")
    if set(meta["checksums"]) != {"triangulations.jsonl", "classes.jsonl"}:
        raise CatalogError("meta.json checksums must name triangulations.jsonl and "
                           f"classes.jsonl, not {sorted(meta['checksums'])}")
    for name, recorded in meta["checksums"].items():
        actual = _sha256(target / name)
        if actual != recorded:
            raise CatalogError(f"checksum mismatch for {name}: {actual} != {recorded}")

    # streamed through the checks: no triangulation is kept
    records = _jsonl(target / "triangulations.jsonl", "triangulation", edges=str)
    total = _check_order("triangulation",
                         (tr.parse_triangulation(n, r["edges"]) for r in records))
    classes = list(_jsonl(target / "classes.jsonl", "class",
                          representative=str, orbitSize=int, type=int))
    reps = []
    for payload in classes:
        rep = tr.parse_triangulation(n, payload["representative"])
        canonical, orbit = tr.canonical_form(rep)
        if canonical != rep or orbit != payload["orbitSize"]:
            raise CatalogError(f"class representative {payload['representative']} not canonical")
        kind = tr.classify_type(rep)
        if payload["type"] != kind:
            raise CatalogError(f"class {payload['representative']} recorded as type "
                               f"{payload['type']}, but it is of type {kind}")
        reps.append(rep)
    _check_counts(n, total, classes)
    _check_order("class representative", reps)
    catalog = Catalog(n, classes, total)
    if meta.get("counts") != catalog.counts():
        raise CatalogError(f"meta.json counts {_dumps(meta.get('counts'))} disagree "
                           f"with the files: {_dumps(catalog.counts())}")
    return catalog


def _check_counts(n: int, total: int, classes: list[dict]) -> None:
    """The counts against the closed forms: a catalog missing lines with
    its header and checksums fixed up still fails here."""
    want = tr.cluster_count_formula(n)
    if total != want:
        raise CatalogError(f"{total} triangulations, but the cluster count is {want}")
    want = tr.class_count_formula(n)
    if len(classes) != want:
        raise CatalogError(f"{len(classes)} classes, but the class count is {want}")
    orbits = sum(payload["orbitSize"] for payload in classes)
    if orbits != total:
        raise CatalogError(f"class orbit sizes sum to {orbits}, not {total}")


def _check_order(what: str, tris: Iterable[tr.Triangulation]) -> int:
    """Strictly increasing keys, the order the writer emits: with the count
    at its closed form, the records are then the full set, each once.
    Returns the number of records."""
    count, prev = 0, None
    for tri in tris:
        if prev is not None and prev.key >= tri.key:
            raise CatalogError(f"{what}s out of canonical order: "
                               f"{prev.token()} before {tri.token()}")
        count, prev = count + 1, tri
    return count


def describe(catalog: Catalog) -> str:
    census = ", ".join(f"type {k}: {v}" for k, v in sorted(catalog.type_census().items()))
    return (
        f"n={catalog.n}: {catalog.count} triangulations, "
        f"{len(catalog.classes)} classes ({census})"
    )
