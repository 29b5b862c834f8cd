"""Persistent JSON catalog, a function of n: <dir>/n=<k>/triangulations.jsonl
(all of enumerate_all(n)), classes.jsonl (each class with the template
quiver and relations of its representative, what `dncat quiver` prints) and
meta.json (counts and checksums).  The files are the only copy of the
records, each written and read in one streaming pass; a Catalog holds what
meta.json counts.  The directory defaults to ./dncat_catalog, overridden by
DNCAT_DIR or an explicit argument.  Two writes are byte identical.

The triangulation lines come from one generator, _triangulation_lines,
which the writer emits and the reader compares the file with, line for
line.  Only when the file differs (or the enumeration is refused) is it
parsed and validated line by line, which names the first fault; class
lines are always parsed and checked against their templates.
"""

from __future__ import annotations

import json
import os
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from itertools import pairwise, starmap, zip_longest
from operator import eq, lt
from pathlib import Path

from . import edges as ed
from . import quivers as qv
from . import relations as rl
from . import triangulations as tr
from .errors import CatalogError, ModelInconsistencyError

VERSION = "0.1.0"


def default_dir() -> Path:
    return Path(os.environ.get("DNCAT_DIR", "dncat_catalog"))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Catalog(namedtuple("Catalog", "n count census")):
    """count: the triangulations, all of enumerate_all(n); census: the
    classes per type, keyed by the type as a string."""

    __slots__ = ()

    def counts(self) -> dict:
        return {"triangulations": self.count, "classes": sum(self.census.values()),
                "typeCensus": self.census}


def _class_payload(cls: tr.TriangulationClass) -> dict:
    # one object for both, so decompose's memo cuts it once
    rep = cls.representative
    return {**cls.to_json(), "quiver": qv.direct_quiver_of(rep).to_json(),
            "relations": rl.relations_of(rep).to_json()}


def _triangulation_lines(n: int) -> Iterator[str]:
    """The record lines of triangulations.jsonl, one per triangulation of
    enumerate_all(n) in its order: each is _dumps({"edges": token}), as a
    token needs no JSON escaping."""
    tokens = ed.alphabet(n).tokens
    for key in tr._index_sets(n):
        yield '{"edges":"' + ",".join([tokens[i] for i in key]) + '"}\n'


def _sha256(path: Path) -> str:
    import hashlib  # here: every command imports the catalog for VERSION
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):  # no file is held whole
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def write_catalog(n: int, directory: Path | None = None) -> tuple[Path, Catalog]:
    """Write the three files of the catalog, one class payload alive at a
    time, and return their directory and counts.  Each file is staged under
    a temporary name and moved into place with os.replace, meta.json last:
    a write that fails before the moves leaves the previous catalog as it
    was, and a reader never sees a file half written (an interruption
    between the moves leaves checksums that do not match)."""
    classes = tr.equivalence_classes(n)
    catalog = Catalog(n, tr.count_all(n), dict(Counter(str(c.type) for c in classes)))
    base = Path(directory) if directory is not None else default_dir()
    target = base / f"n={n}"
    target.mkdir(parents=True, exist_ok=True)
    staged = []

    def stage(name: str, header: dict, lines: Iterable[str] = ()) -> Path:
        tmp = target / f"{name}.tmp"
        staged.append(tmp)
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(_dumps(header) + "\n")
            fh.writelines(lines)
        return tmp

    try:
        tri_path = stage("triangulations.jsonl", {"n": n, "count": catalog.count},
                         _triangulation_lines(n))
        cls_path = stage("classes.jsonl", {"n": n, "count": len(classes)},
                         (_dumps(_class_payload(c)) + "\n" for c in classes))
        meta = {
            "version": VERSION,
            "n": n,
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
    return target, catalog


def _record(line: str, where: str, **fields: type) -> dict:
    """One JSON object of the catalog, holding the fields the reader uses."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed JSON in {where}: {exc}") from exc
    # exact types: JSON true and false are bools, which isinstance takes for ints
    if type(record) is dict and all(type(record.get(f)) is t for f, t in fields.items()):
        return record
    spec = ", ".join(f"{f}: {t.__name__}" for f, t in fields.items())
    raise CatalogError(f"{where} must be a JSON object with {spec}")


def _jsonl(path: Path, n: int, what: str, **fields: type) -> Iterator[dict]:
    """The records after the header line, read one line at a time; the
    header n is checked first, the count once the last record is read."""
    with path.open(encoding="utf-8") as fh:
        header = _record(fh.readline(), f"{path.name} header", count=int)
        if type(header.get("n")) is not int or header["n"] != n:
            raise CatalogError(f"{path.name} header is for n={header.get('n')!r}, not n={n}")
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

    # both files streamed through the checks: of the records, only the class
    # representatives are kept, for the order check after the counts
    tri_path = target / "triangulations.jsonl"
    if _is_the_enumeration(tri_path, n):
        total = tr.count_all(n)
    else:  # parsed from the top, to name the fault or accept another spelling
        records = _jsonl(tri_path, n, "triangulation", edges=str)
        total = _check_order("triangulation",
                             (tr.parse_triangulation(n, r["edges"]) for r in records))
    reps, census, orbits = [], Counter(), 0
    for payload in _jsonl(target / "classes.jsonl", n, "class",
                          representative=str, orbitSize=int, type=int):
        rep = tr.parse_triangulation(n, payload["representative"])
        canonical, orbit = tr.canonical_form(rep)
        if canonical != rep or orbit != payload["orbitSize"]:
            raise CatalogError(f"class representative {payload['representative']} not canonical")
        kind = tr.classify_type(rep)
        if payload["type"] != kind:
            raise CatalogError(f"class {payload['representative']} recorded as type "
                               f"{payload['type']}, but it is of type {kind}")
        template = _class_payload(tr.TriangulationClass(rep, orbit, kind))
        for field in ("quiver", "relations"):
            if payload.get(field) != template[field]:
                raise CatalogError(f"class {payload['representative']} has a {field} "
                                   "field unlike its template's")
        reps.append(rep)
        census[str(kind)] += 1
        orbits += payload["orbitSize"]
    _check_counts(n, total, len(reps), orbits)
    _check_order("class representative", reps)
    catalog = Catalog(n, total, dict(census))
    if meta.get("counts") != catalog.counts():
        raise CatalogError(f"meta.json counts {_dumps(meta.get('counts'))} disagree "
                           f"with the files: {_dumps(catalog.counts())}")
    return catalog


def _is_the_enumeration(path: Path, n: int) -> bool:
    """Whether the file reads, line for line, as what the writer emits: the
    header and the lines of _triangulation_lines, over keys in strictly
    increasing order.  Each such line is a maximal non-crossing set of n
    edges, so it passes every check of the full parse.  False when the
    kernel's size guard refuses the enumeration."""
    try:
        keys = tr._index_sets(n)
    except ModelInconsistencyError:
        return False
    if not all(starmap(lt, pairwise(keys))):
        return False
    with path.open(encoding="utf-8") as fh:
        return (fh.readline() == _dumps({"n": n, "count": len(keys)}) + "\n"
                and all(starmap(eq, zip_longest(fh, _triangulation_lines(n)))))


def _check_counts(n: int, total: int, classes: int, orbits: int) -> None:
    """The counts against the closed forms: a catalog missing lines with
    its header and checksums fixed up still fails here."""
    want = tr.cluster_count_formula(n)
    if total != want:
        raise CatalogError(f"{total} triangulations, but the cluster count is {want}")
    want = tr.class_count_formula(n)
    if classes != want:
        raise CatalogError(f"{classes} classes, but the class count is {want}")
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
    census = ", ".join(f"type {k}: {v}" for k, v in sorted(catalog.census.items()))
    return (
        f"n={catalog.n}: {catalog.count} triangulations, "
        f"{catalog.counts()['classes']} classes ({census})"
    )
