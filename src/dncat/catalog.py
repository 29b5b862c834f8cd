"""Persistent JSON catalog: triangulations, classes with quivers and
relations, and a checksummed metadata header.

Layout: <dir>/n=<k>/triangulations.jsonl, classes.jsonl, meta.json.  The
directory defaults to ./dncat_catalog and can be overridden by the
DNCAT_DIR environment variable or an explicit argument.  All serialization
is deterministic, so a build-write-read-rewrite round trip is byte
identical.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    triangulations: list[tr.Triangulation]
    classes: list[dict]  # class payloads with quiver and relations attached

    def type_census(self) -> dict:
        census: dict[str, int] = {}
        for payload in self.classes:
            key = str(payload["type"])
            census[key] = census.get(key, 0) + 1
        return census


def _class_payload(cls: tr.TriangulationClass) -> dict:
    quiver = qv.quiver_of(cls.representative)
    rels = rl.relations_of(cls.representative)
    payload = cls.to_json()
    payload["quiver"] = quiver.to_json()
    payload["relations"] = rels.to_json()
    return payload


def build_catalog(n: int, jobs: int = 1) -> Catalog:
    triangulations = list(tr.enumerate_all(n))
    qv.transport_table(n)  # built before forking so workers inherit it
    classes = list(tr.equivalence_classes(n))
    if jobs > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(jobs) as pool:
            payloads = pool.map(_class_payload, classes, chunksize=8)
    else:
        payloads = [_class_payload(c) for c in classes]
    return Catalog(n, triangulations, payloads)


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

    def stage(name: str, lines: list[str]) -> Path:
        tmp = target / f"{name}.tmp"
        staged.append(tmp)
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return tmp

    try:
        tri_path = stage("triangulations.jsonl",
                         [_dumps({"n": catalog.n, "count": len(catalog.triangulations)})]
                         + [_dumps({"edges": t.token()}) for t in catalog.triangulations])
        cls_path = stage("classes.jsonl",
                         [_dumps({"n": catalog.n, "count": len(catalog.classes)})]
                         + [_dumps(payload) for payload in catalog.classes])
        meta = {
            "version": VERSION,
            "n": catalog.n,
            "counts": {
                "triangulations": len(catalog.triangulations),
                "classes": len(catalog.classes),
                "typeCensus": catalog.type_census(),
            },
            "checksums": {
                "triangulations.jsonl": _sha256(tri_path),
                "classes.jsonl": _sha256(cls_path),
            },
        }
        stage("meta.json", [_dumps(meta)])
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


def _jsonl(path: Path, what: str, **fields: type) -> list[dict]:
    """The records after the header line, as many as the header counts."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = _record(lines[0] if lines else "", f"{path.name} header", count=int)
    if header["count"] != len(lines) - 1:
        raise CatalogError(f"{what} count disagrees with the header")
    return [_record(line, path.name, **fields) for line in lines[1:]]


def read_catalog(n: int, directory: Path | None = None) -> Catalog:
    base = Path(directory) if directory is not None else default_dir()
    target = base / f"n={n}"
    meta = _record((target / "meta.json").read_text(encoding="utf-8"), "meta.json",
                   checksums=dict)
    if meta.get("version") != VERSION:
        raise CatalogError(f"unknown catalog version {meta.get('version')!r} in meta.json "
                           f"(this dncat reads {VERSION})")
    for name, recorded in meta["checksums"].items():
        actual = _sha256(target / name)
        if actual != recorded:
            raise CatalogError(f"checksum mismatch for {name}: {actual} != {recorded}")

    records = _jsonl(target / "triangulations.jsonl", "triangulation", edges=str)
    triangulations = [tr.parse_triangulation(n, r["edges"]) for r in records]
    classes = _jsonl(target / "classes.jsonl", "class",
                     representative=str, orbitSize=int, type=int)
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
    _check_counts(n, len(triangulations), classes)
    _check_order("triangulation", triangulations)
    _check_order("class representative", reps)
    return Catalog(n, triangulations, classes)


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


def _check_order(what: str, tris: list[tr.Triangulation]) -> None:
    """Strictly increasing keys, the order the writer emits: with the count
    at its closed form, the records are then the full set, each once."""
    for prev, tri in zip(tris, tris[1:]):
        if prev.key >= tri.key:
            raise CatalogError(f"{what}s out of canonical order: "
                               f"{prev.token()} before {tri.token()}")


def describe(catalog: Catalog) -> str:
    census = ", ".join(f"type {k}: {v}" for k, v in sorted(catalog.type_census().items()))
    return (
        f"n={catalog.n}: {len(catalog.triangulations)} triangulations, "
        f"{len(catalog.classes)} classes ({census})"
    )
