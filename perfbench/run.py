#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of dncat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--out RESULTS.jsonl]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a source checkout: the program under test is imported
from ./src, every dncat process is a fresh interpreter started through
perfbench/child.py, and scratch files live under ./.bench_work.

Workloads (closed loop, one client, one process at a time, no --jobs):

- verify-n7   `dncat verify --suite all --n 7`: the exhaustive checks
              (transport, flips, classes, relations, canonical keys).
- catalog-n8  `dncat catalog build --n 8` into a fresh directory, then
              `dncat catalog show --n 8` on it: writes beside reads.
- query-walk  per-triangulation queries at n = 12, 16, 20 on seeded random
              flip walks from the fan; no enumeration, classes, transport or
              catalog code runs, so whole-set optimisations should not move it.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s (median over fresh interpreters of the time to import dncat and
build the per-n edge tables), wall_s (per repetition of the workload's commands; per
1000 queries on query-walk) and peak_rss_mb (over the workload's processes).
The lines before it give the environment stamp and the workload's own
figures: verify_s, catalog_build_s, catalog_show_s, query_p50_ms,
query_p99_ms, queries_per_s, cpu_s and error_rate.

With --trace 1 the run times the workload once untraced and once with every
traced public function of each dncat module wrapped in a span (spans.py), and
the last line carries the per-layer metrics.  It also times the
maximal-clique kernel of every available backend on the same masks.

Every run gates on correct outputs: exit codes, FAIL lines, exceptions,
oracle mismatches and output digests recorded in DIGESTS.  Each failed
operation is counted, and any failure makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"

DEFAULT_SEED = 0
RUN_BUDGET_S = 170.0
LAYERS = tuple(dict.fromkeys(spans.LAYERS.values()))
SUITES = ("crossing", "flip", "transport", "types", "prop45", "prop47", "d4")

# Sizes per mode.  The smoke mode exists for the benchmark's own tests.
FULL = {"verify_n": 7, "catalog_n": 8, "query_sizes": [12, 16, 20], "pool": 1000,
        "warmup": 30, "min_queries": 1000, "setup_reps": 7, "kernel_n": 8}
SMOKE = {"verify_n": 5, "catalog_n": 5, "query_sizes": [5, 6], "pool": 12,
         "warmup": 2, "min_queries": 12, "setup_reps": 2, "kernel_n": 5}

# Output digests recorded at the commit that added this benchmark.
DIGESTS = {
    "verify n=7": "sha256:e6797cfe545bca94b047b8282495872df934f321edee8f26b9fc6f257ef8a650",
    "catalog n=8 triangulations.jsonl":
        "sha256:f2c26038d610b16668c1498a333cbad850e9a05de3e4e1a70a419df5f895e5b8",
    "catalog n=8 classes.jsonl":
        "sha256:86abcb5b5d08049b86adcf7973bbce9958c5e1708a1c26a63ccf6be43456bc50",
    "catalog show n=8": "sha256:4c1505847fe22156f38482718f7aad67b5e53a4765ff607e1237e136a9d89feb",
    "query sizes=12,16,20 pool=1000 seed=0":
        "sha256:a70e9caabfcf38ff00dc3ea583b473a78ece3cbce0d1ed56cf2e87ebe10eed50",
    "verify n=5": "sha256:763af4bbc75872bac501a55fc8a135823a429b35c1ff32442fa533154f9c3cfd",
    "catalog n=5 triangulations.jsonl":
        "sha256:175f91a8b59d59fb0cdb8f0932f0a98f53f1af9422e2eb588886af5b1aeb655b",
    "catalog n=5 classes.jsonl":
        "sha256:742ce206c385d982ce0e189f4f4a1b930fff34b0077c77d5d9d33186aca3ebc1",
    "catalog show n=5": "sha256:b7be86f9369b387ccdf56408a3f3f49348488aa9488976d232b09aad6a0f25b3",
    "query sizes=5,6 pool=12 seed=0":
        "sha256:c5f1bedcdd941f397eab7fb4ca8a3f2785856685320fa3fc25a137757595b66e",
}


def sha256_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class Run:
    """One benchmark run: its settings, deadline and failure tally."""

    def __init__(self, args) -> None:
        self.cfg = SMOKE if args.smoke else FULL
        self.seed = args.seed
        self.seconds = args.seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.backend = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("DNCAT_DIR", None)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def child(self, job: dict, cwd: Path) -> tuple[float, dict, str]:
        """Start one fresh interpreter on a job; returns its wall time, its
        report (empty if it wrote none) and its stdout."""
        report_path = cwd / f"report-{time.monotonic_ns()}.json"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job), str(report_path)],
            cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\ntimed out"
        wall = time.perf_counter() - t0
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        except (OSError, ValueError):
            report = {}
        if proc.returncode != 0 or report.get("rc") != 0:
            report.setdefault("failures", []).append(
                f"{job['kind']} exited {proc.returncode}: {err.strip()[-400:]}")
        report["ok"] = proc.returncode == 0 and not report.get("failures")
        if report.get("backend"):
            self.backend = report["backend"]
        return wall, report, out


def _fail_text(report: dict) -> str:
    return "; ".join(report.get("failures", [])) or "failed"


# ---------------------------------------------------------------------------
# workloads: one repetition each, returning its figures and trace snapshots


def rep_verify(run: Run, work: Path, trace: bool) -> dict:
    n = run.cfg["verify_n"]
    argv = ["verify", "--suite", "all", "--n", str(n)]
    wall, report, out = run.child({"kind": "cli", "argv": argv, "trace": trace}, work)
    lines = out.splitlines()
    digest = sha256_text(out)
    run.check(report["ok"] and not any(line.startswith("FAIL") for line in lines)
              and digest == DIGESTS[f"verify n={n}"],
              f"verify n={n}: {_fail_text(report)}; FAIL lines "
              f"{[x for x in lines if x.startswith('FAIL')][:3]}; stdout {digest}")
    return {"wall_s": wall, "region_s": wall, "cpu_s": report.get("cpu_s", 0.0),
            "rss_kb": [report.get("maxrss_kb", 0)], "traces": [report.get("trace")],
            "figures": {"verify_s": wall}}


def rep_catalog(run: Run, work: Path, trace: bool) -> dict:
    n = run.cfg["catalog_n"]
    target = Path(tempfile.mkdtemp(prefix="catalog-", dir=work))
    try:
        argv = ["catalog", "build", "--n", str(n), "--dir", str(target)]
        build_wall, build, _ = run.child({"kind": "cli", "argv": argv, "trace": trace}, work)
        files = target / f"n={n}"
        wrong = []
        for name in ("triangulations.jsonl", "classes.jsonl"):
            path = files / name
            got = ("sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
                   if path.is_file() else "missing")
            if got != DIGESTS[f"catalog n={n} {name}"]:
                wrong.append(f"{name} {got}")
        run.check(build["ok"] and not wrong,
                  f"catalog build n={n}: {_fail_text(build)}; digests {wrong}")
        written = sum(p.stat().st_size for p in files.iterdir()) if files.is_dir() else 0

        argv = ["catalog", "show", "--n", str(n), "--dir", str(target)]
        show_wall, show, out = run.child({"kind": "cli", "argv": argv, "trace": trace}, work)
        digest = sha256_text(out)
        run.check(show["ok"] and digest == DIGESTS[f"catalog show n={n}"],
                  f"catalog show n={n}: {_fail_text(show)}; stdout {digest}")
    finally:
        shutil.rmtree(target, ignore_errors=True)
    return {"wall_s": build_wall + show_wall, "region_s": build_wall + show_wall,
            "cpu_s": build.get("cpu_s", 0.0) + show.get("cpu_s", 0.0),
            "rss_kb": [build.get("maxrss_kb", 0), show.get("maxrss_kb", 0)],
            "traces": [build.get("trace"), show.get("trace")],
            "figures": {"catalog_build_s": build_wall, "catalog_show_s": show_wall},
            "bytes_written": written}


def rep_query(run: Run, work: Path, trace: bool, fixed: bool = False) -> dict:
    """The query loop in one process.  With fixed, exactly one pass over the
    input pool (so traced and untraced passes do the same work); otherwise
    at least min_queries and at least --seconds of queries."""
    cfg = run.cfg
    job = {"kind": "query", "seed": run.seed, "sizes": cfg["query_sizes"],
           "pool": cfg["pool"], "warmup": cfg["warmup"], "trace": trace,
           "seconds": 0 if fixed else run.seconds,
           "min_queries": cfg["pool"] if fixed else cfg["min_queries"]}
    _, report, _ = run.child(job, work)
    latencies = report.get("latencies", [])
    run.attempted += len(latencies)
    run.failed += report.get("failed_queries", 0)
    run.failures.extend(report.get("query_failures", []))
    key = f"query sizes={','.join(map(str, cfg['query_sizes']))} pool={cfg['pool']} seed={run.seed}"
    pinned = DIGESTS.get(key)
    run.check(report["ok"] and bool(latencies)
              and (pinned is None or report.get("digest") == pinned),
              f"query loop: {_fail_text(report)}; digest {report.get('digest')}"
              f" expected {pinned}")
    count = max(1, len(latencies))
    loop_s = report.get("loop_s", 0.0)
    figures = {"queries_per_s": count / loop_s if loop_s else 0.0,
               "query_samples": len(latencies)}
    if len(latencies) >= 2:
        cuts = statistics.quantiles(latencies, n=100)
        figures.update(query_p50_ms=statistics.median(latencies) * 1e3,
                       query_p99_ms=cuts[98] * 1e3)
    return {"wall_s": loop_s / count * 1000,
            "region_s": report.get("tables_s", 0.0) + loop_s,
            "cpu_s": report.get("loop_cpu_s", 0.0) / count * 1000,
            "rss_kb": [report.get("maxrss_kb", 0)], "traces": [report.get("trace")],
            "figures": figures}


WORKLOADS = {
    "verify-n7": (rep_verify, lambda cfg: [cfg["verify_n"]]),
    "catalog-n8": (rep_catalog, lambda cfg: [cfg["catalog_n"]]),
    "query-walk": (rep_query, lambda cfg: cfg["query_sizes"]),
}


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(run: Run, work: Path, sizes: list[int]) -> float:
    """Median over fresh interpreters of the time from `import dncat` to
    the per-n edge tables being built, measured inside the interpreter."""
    times = []
    for _ in range(run.cfg["setup_reps"]):
        _, report, _ = run.child({"kind": "setup", "sizes": sizes}, work)
        if run.check(report["ok"], f"setup {sizes}: {_fail_text(report)}"):
            times.append(report["setup_s"])
    return statistics.median(times) if times else 0.0


def end_to_end(run: Run, workload: str, work: Path) -> tuple[dict, dict]:
    rep, sizes = WORKLOADS[workload]
    setup_s = measure_setup(run, work, sizes(run.cfg))
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(rep(run, work, False))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if workload == "query-walk" or elapsed + per_rep > run.seconds:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (max(kb for r in reps for kb in r["rss_kb"]) / 1024, "MB"),
    }
    figures: dict = {"repetitions": len(reps),
                     "cpu_s": statistics.median(r["cpu_s"] for r in reps)}
    for name in reps[0]["figures"]:
        figures[name] = statistics.median(r["figures"][name] for r in reps)
    return metrics, figures


# ---------------------------------------------------------------------------
# traced run


def merge_traces(snapshots: list) -> tuple[dict, dict]:
    """Sum the span snapshots of a workload's processes."""
    merged: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for snap in filter(None, snapshots):
        for name, s in snap["spans"].items():
            acc = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return merged, counters


# Per-function span figures reported as per-layer metrics.
SPAN_METRICS = [
    "kernels.maximal_cliques.calls", "kernels.maximal_cliques.self_s",
    "edges.compatibility_masks.calls", "edges.compatibility_masks.self_s",
    "edges.crossing_number.calls", "edges.crossing_number.self_s",
    "edges.hom_dim.calls", "edges.hom_dim.self_s",
    "staple.staple_crossing_number.calls", "staple.staple_crossing_number.self_s",
    "triangulations.parse_triangulation.calls", "triangulations.parse_triangulation.self_s",
    "triangulations.parse_triangulation.s", "triangulations.validate_triangulation.self_s",
    "triangulations.flip.calls", "triangulations.flip.self_s",
    "triangulations.canonical_form.calls", "triangulations.canonical_form.self_s",
    "triangulations.canonical_form.s", "triangulations.orbit.self_s",
    "triangulations.apply_tau.self_s", "triangulations.apply_sigma.self_s",
    "triangulations.equivalence_classes.self_s", "triangulations.equivalence_classes.s",
    "triangulations.quotient.calls", "triangulations.quotient.self_s",
    "triangulations.pairwise_hom_matrix.self_s",
    "quivers.transport_table.self_s", "quivers.transport_table.s",
    "quivers.mutate.calls", "quivers.mutate.self_s",
    "quivers.assert_cluster_quiver.self_s",
    "quivers.canonical_key.calls", "quivers.canonical_key.self_s",
    "quivers.direct_quiver_of.calls", "quivers.direct_quiver_of.self_s",
    "quivers.decompose.self_s", "quivers.mutation_class.self_s", "quivers.quiver_of.self_s",
    "relations.relations_of.calls", "relations.relations_of.self_s",
    "relations.path_algebra_dimension.calls", "relations.path_algebra_dimension.self_s",
    "catalog.write_catalog.self_s", "catalog.read_catalog.self_s",
    *(f"verify.suite_{s}.{k}" for s in SUITES for k in ("self_s", "s")),
    "cli.main.self_s",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(run: Run, workload: str, work: Path) -> tuple[dict, list[str]]:
    rep = WORKLOADS[workload][0]
    kernel_n = run.cfg["kernel_n"]
    _, kern, _ = run.child({"kind": "kernels", "n": kernel_n}, work)
    run.check(kern["ok"], f"kernel backends at n={kernel_n}: {_fail_text(kern)}")

    # the query loop runs one fixed pass here, so both passes do the same work
    extra = {"fixed": True} if workload == "query-walk" else {}
    plain = rep(run, work, False, **extra)
    spanned = rep(run, work, True, **extra)
    # region_s is the wall time the spans can cover: whole processes, or the
    # table building plus the loop of the query process
    untraced_s, traced_s = plain["region_s"], spanned["region_s"]
    totals, counters = merge_traces(spanned["traces"])

    def span(metric: str) -> float:
        name, field = metric.rsplit(".", 1)
        return totals.get(name, {}).get(field, 0)

    layer_self = {layer: sum(s["self_s"] for name, s in totals.items()
                             if name.split(".", 1)[0] == layer) for layer in LAYERS}
    # Self times are measured with the tracing overhead included, so shares
    # are taken of the traced wall time of the same work.
    accounted = _ratio(sum(layer_self.values()), traced_s)
    metrics: dict = {
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.accounted_share": (accounted, "share"),
        "trace.unaccounted_share": (1 - accounted, "share"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    for backend, seconds in kern.get("kernel_s", {}).items():
        metrics[f"kernels.{backend}.maximal_cliques_s"] = (seconds, "s")
    metrics["kernels.cliques"] = (counters.get("kernels.cliques", 0), "count")
    for metric in SPAN_METRICS:
        metrics[metric] = (span(metric), "count" if metric.endswith(".calls") else "s")
    metrics["triangulations.classes_per_canonical_form"] = (
        _ratio(counters.get("triangulations.classes", 0),
               span("triangulations.canonical_form.calls")), "ratio")
    metrics["quivers.transport_entries_per_mutate"] = (
        _ratio(counters.get("quivers.transport_entries", 0),
               span("quivers.mutate.calls")), "ratio")
    metrics["quivers.canonical_key.distinct_per_call"] = (
        _ratio(counters.get("quivers.canonical_key.distinct", 0),
               span("quivers.canonical_key.calls")), "ratio")
    metrics["catalog.bytes_written"] = (spanned.get("bytes_written", 0), "bytes")

    lines = [f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
             f"overhead {traced_s - untraced_s:+.3f} s"]
    for layer in LAYERS:
        share = _ratio(layer_self[layer], traced_s)
        lines.append(f"layer {layer:<15} self {layer_self[layer]:9.3f} s  {share:6.1%}"
                     f" of traced wall, ~{share * untraced_s:8.3f} s of untraced wall")
    lines.append(f"unaccounted remainder {1 - accounted:6.1%} of traced wall, "
                 f"~{(1 - accounted) * untraced_s:8.3f} s of untraced wall")
    for name, s in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        if s["calls"]:
            lines.append(f"span {name:<45} calls {s['calls']:>9}  self {s['self_s']:9.4f} s"
                         f"  incl {s['s']:9.4f} s")
    return metrics, lines


# ---------------------------------------------------------------------------


def environment(run: Run) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "dncat").glob("*.py*")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "backend": run.backend}


def benchmark(args) -> int:
    if not (SRC / "dncat" / "__init__.py").is_file():
        print(f"error: no dncat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            metrics, lines = traced(run, args.workload, work)
            figures: dict = {}
        else:
            metrics, figures = end_to_end(run, args.workload, work)
            lines = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    figures["error_rate"] = _ratio(run.failed, run.attempted)
    env = environment(run)
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    for line in lines:
        print(f"# {line}")
    for name, value in figures.items():
        print(f"# {name} = {value:.6g}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "env": env, "figures": figures, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


# ---------------------------------------------------------------------------
# compare mode


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    """Judge NEW against BASE.  'better' needs the median to improve by more
    than the base's own quartile spread and, where the spreads exceed the
    bound, every new run to beat every base run; 'unresolved' marks a spread
    wider than the bound; 'regressed' a median worse by more than the bound."""
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    if bm == 0:
        return "no base"
    worse_by = sign * (nm - bm) / abs(bm)
    base_spread = (b3 - b1) / abs(bm)
    spread = max(base_spread, (n3 - n1) / abs(nm) if nm else 0.0)
    steady = bound is not None and spread <= bound
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if -worse_by > base_spread and (all_better or steady):
        return "better"
    if bound is None:
        return "no bound"
    if not steady:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "within bound"


def compare(base_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _load(base_path), _load(new_path)
    backends = {side: {r["env"].get("backend") for r in recs}
                for side, recs in (("base", base), ("new", new))}
    if backends["base"] != backends["new"] or len(backends["base"]) != 1:
        print(f"error: kernel backends differ ({backends}); results are not comparable",
              file=sys.stderr)
        return 2
    groups: dict = {}
    for side, recs in (("base", base), ("new", new)):
        for r in recs:
            values = {name: m["value"] for name, m in r["result"]["metrics"].items()}
            values.update(r.get("figures", {}))
            for name, value in values.items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, {"base": [], "new": []})[side].append(value)
    print(f"{'workload':<11} {'metric':<44} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'new/base':>9}  verdict")
    regressed = False
    for (workload, trace, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        meta = declared.get(name, {})
        better = meta.get("better", "higher" if name.endswith("per_s") else "lower")
        b1, bm, b3 = _quartiles(sides["base"])
        n1, nm, n3 = _quartiles(sides["new"])
        v = verdict(sides["base"], sides["new"], better, meta.get("bound"))
        regressed |= v == "regressed"
        ratio = f"{nm / bm:9.3f}" if bm else f"{'-':>9}"
        print(f"{workload:<11} {name:<44} {bm:>12.5g} [{b1:.4g}, {b3:.4g}]".ljust(89)
              + f"{nm:>12.5g} [{n1:.4g}, {n3:.4g}]".ljust(33)
              + f"{ratio} (base {bm:.4g})  {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n = 5, a few queries) for the benchmark's tests")
    parser.add_argument("--out", metavar="FILE", help="append the result record to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files written by --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
