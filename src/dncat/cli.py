"""Command-line front end.

Exit codes: 0 success, 1 verification failure or a failed internal
consistency check (a model bug, not bad input), 2 usage error, 3 invalid
input data, a malformed catalog or a file that cannot be read or written.

The size bound is a policy of this front end alone: the commands that
enumerate (enumerate, classes, verify, catalog build) refuse n above
--max-n before any work, and the library takes no bound.  A refusal exits
3, as it raises the same UnsupportedSizeError as n < 4.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from . import edges as ed
from . import quivers as qv
from . import relations as rl
from . import triangulations as tr
from .errors import DncatError, ModelInconsistencyError, UnsupportedSizeError
from ._maxcliques_py import BACKEND

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3

DEFAULT_MAX_N = 9

# the names verify.run_suite takes: the commands that do not verify import
# neither verify nor its staple oracle, nor arquiver unless they run `ar`
SUITES = ("crossing", "flip", "transport", "types", "prop45", "prop47", "d4", "all")


def _add_common(parser: argparse.ArgumentParser, bound: bool = False) -> None:
    """--n and --out; --max-n for the commands that check the size bound."""
    parser.add_argument("--n", type=int, required=True, help="polygon size")
    if bound:
        parser.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                            help="raise the enumeration bound (slow beyond 9)")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_bound(args) -> None:
    """Refuse n above --max-n, for the commands that enumerate."""
    if args.n > args.max_n:
        raise UnsupportedSizeError(
            f"n={args.n} above the bound {args.max_n}; pass --max-n to raise it"
        )
    if args.max_n > DEFAULT_MAX_N and args.n > DEFAULT_MAX_N:
        print(f"warning: enumeration at n={args.n} is exponential; "
              "this may take a long time", file=sys.stderr)


def cmd_edges(args) -> int:
    universe = ed.all_edges(args.n)
    if args.json:
        text = "\n".join(json.dumps(e.to_json(), sort_keys=True) for e in universe) + "\n"
    else:
        text = "\n".join(e.token() for e in universe) + "\n"
    _emit(args, text)
    return EXIT_OK


def cmd_classes(args) -> int:
    _check_bound(args)
    classes = tr.equivalence_classes(args.n)
    if args.type:
        classes = tuple(c for c in classes if c.type == args.type)
    if args.count:
        _emit(args, f"{len(classes)}\n")
        return EXIT_OK
    lines = []
    census: dict[int, int] = {}
    for c in classes:
        census[c.type] = census.get(c.type, 0) + 1
        if args.json:
            lines.append(json.dumps(c.to_json(), sort_keys=True))
        else:
            lines.append(f"type {c.type} orbit {c.orbit_size:3d}  {c.representative.token()}")
    if not args.json:
        summary = ", ".join(f"type {k}: {v}" for k, v in sorted(census.items()))
        lines.append(f"# {len(classes)} classes ({summary})")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    _check_bound(args)
    if args.count:
        _emit(args, f"{tr.count_all(args.n)}\n")
        return EXIT_OK
    rows = []
    for t in tr.enumerate_all(args.n):
        rows.append(json.dumps(t.to_json(), sort_keys=True) if args.json else t.token())
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def _parse_tri(args) -> tr.Triangulation:
    return tr.parse_triangulation(args.n, args.edges)


def cmd_quiver(args) -> int:
    if args.dot and args.relations:
        args.parser.error("--relations attaches to the JSON output, not to --dot")
    tri = _parse_tri(args)
    quiver = qv.direct_quiver_of(tri)
    if args.dot:
        text = quiver.to_dot()
    else:
        payload = quiver.to_json()
        if args.relations:
            payload["relations"] = rl.relations_of(tri).to_json()
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit(args, text)
    return EXIT_OK


def cmd_relations(args) -> int:
    tri = _parse_tri(args)
    _emit(args, json.dumps(rl.relations_of(tri).to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_flip(args) -> int:
    tri = _parse_tri(args)
    edge = ed.parse_edge(args.edge)
    flipped, replacement = tr.flip(tri, edge)
    if args.json:
        payload = {"replacement": replacement.token(), "triangulation": flipped.token()}
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(args, f"{edge.token()} -> {replacement.token()}\n{flipped.token()}\n")
    return EXIT_OK


def cmd_ar(args) -> int:
    if args.tau_ranks and not args.dot:
        args.parser.error("--tau-ranks groups the DOT output; pass --dot")
    from . import arquiver as ar

    quiver = ar.build_ar(args.n)
    if args.dot:
        _emit(args, quiver.to_dot(tau_ranks=args.tau_ranks))
    else:
        _emit(args, json.dumps(quiver.to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.jobs < 1:
        args.parser.error(f"--jobs must be at least 1, not {args.jobs}")
    if args.suite == "d4" and args.n != 4:
        args.parser.error(f"the d4 suite is the witness at n=4 only; pass --n 4, not {args.n}")
    _check_bound(args)
    from . import verify as vf

    reports = vf.run_suite(args.suite, args.n, jobs=args.jobs)
    lines = []
    for report in reports:
        lines.extend(report.lines())
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY


def cmd_catalog_build(args) -> int:
    _check_bound(args)
    target, built = cat.write_catalog(args.n, args.dir or None)
    _emit(args, f"{cat.describe(built)}\nwritten to {target}\n")
    return EXIT_OK


def cmd_catalog_show(args) -> int:
    loaded = cat.read_catalog(args.n, args.dir or None)
    _emit(args, cat.describe(loaded) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dncat",
        description="Tagged-edge triangulations of the punctured polygon, "
                    "their quivers and relations",
    )
    parser.add_argument("--version", action="version",
                        version=f"dncat {cat.VERSION} (kernel: {BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="list the tagged-edge alphabet")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("enumerate", help="enumerate triangulations")
    _add_common(p, bound=True)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--count", action="store_true", help="print only the count")
    style.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", help="list equivalence classes and their census")
    _add_common(p, bound=True)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--count", action="store_true", help="print only the count")
    style.add_argument("--json", action="store_true")
    p.add_argument("--type", type=int, choices=(1, 2, 3, 4),
                   help="restrict classes to one type")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("quiver", help="quiver of a triangulation (template construction)")
    _add_common(p)
    p.add_argument("--edges", required=True, metavar="SPEC",
                   help="comma-separated edge tokens, e.g. p:1-3,s:1:+")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--dot", action="store_true")
    style.add_argument("--json", action="store_true")
    p.add_argument("--relations", action="store_true",
                   help="attach the relation ideal to the JSON output")
    p.set_defaults(func=cmd_quiver, parser=p)

    p = sub.add_parser("relations", help="relation ideal of a triangulation")
    _add_common(p)
    p.add_argument("--edges", required=True, metavar="SPEC")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("flip", help="exchange one edge of a triangulation")
    _add_common(p)
    p.add_argument("--edges", required=True, metavar="SPEC")
    p.add_argument("--edge", required=True, metavar="TOKEN")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("ar", help="the translation quiver on Z_n x {1..n}")
    _add_common(p)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--dot", action="store_true")
    style.add_argument("--json", action="store_true")
    p.add_argument("--tau-ranks", action="store_true",
                   help="group translation orbits as DOT ranks")
    p.set_defaults(func=cmd_ar, parser=p)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p, bound=True)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="worker processes for bulk checks (at most one per core)")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("catalog", help="build or inspect the JSON catalog")
    actions = p.add_subparsers(dest="action", required=True)
    dir_help = "catalog directory (default: DNCAT_DIR or ./dncat_catalog)"
    p = actions.add_parser("build", help="enumerate and write the catalog")
    _add_common(p, bound=True)
    p.add_argument("--dir", help=dir_help)
    p.set_defaults(func=cmd_catalog_build)
    p = actions.add_parser("show", help="read, check and summarize the catalog")
    _add_common(p)
    p.add_argument("--dir", help=dir_help)
    p.set_defaults(func=cmd_catalog_show)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse, and parser.error in a command
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ModelInconsistencyError as exc:  # a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (DncatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
