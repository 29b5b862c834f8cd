"""One benchmark process: a fresh interpreter that runs one job and writes a
JSON report.

    python3 child.py JOB_JSON REPORT_PATH

Jobs (JOB_JSON is an object with a "kind"):

- cli:    {"argv": [...], "trace": bool} runs `dncat.cli.main(argv)`, exactly
          what the `dncat` console script runs; stdout is the CLI's own.
- setup:  {"sizes": [...]} imports dncat and builds the per-n edge tables;
          reports the seconds from the start of the import to the tables.
- query:  {"seed", "sizes", "pool", "warmup", "seconds", "min_queries",
          "trace"} runs the per-triangulation query loop.
- kernels: {"n"} times `maximal_cliques` of every available backend on the
          same masks and checks that the clique lists agree.

The report always carries the process's peak RSS and CPU time, so the parent
can take peaks over a workload's processes.  The program under test is
imported from PYTHONPATH, which the parent points at the checkout's src/.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

IMPORT_START = time.perf_counter()
import dncat  # noqa: E402 - the import is part of every timed process
from dncat import edges as ed  # noqa: E402
from dncat import quivers as qv  # noqa: E402
from dncat import relations as rl  # noqa: E402
from dncat import triangulations as tr  # noqa: E402


def run_cli(job: dict, report: dict) -> int:
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    from dncat import cli

    rc = cli.main(job["argv"])
    sys.stdout.flush()
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    return rc


def run_setup(job: dict, report: dict) -> int:
    for n in job["sizes"]:
        if len(ed.all_edges(n)) != n * n or len(ed.compatibility_masks(n)) != n * n:
            report["failures"] = [f"edge tables of size != {n * n} at n={n}"]
            return 1
    report["setup_s"] = time.perf_counter() - IMPORT_START
    return 0


def walk_inputs(seed: int, sizes: list[int], pool: int) -> list[tuple[int, str, str]]:
    """Seeded random flip walks from the fan, one per size, sampled every
    third flip after a burn-in of 4n flips and interleaved across sizes.
    Each input is (n, triangulation tokens, token of the edge to flip)."""
    stride = 3
    per_size = []
    for n in sizes:
        rng = random.Random(seed * 1009 + n)
        tri = tr.fan(n)
        samples = []
        count = pool // len(sizes) + (1 if len(per_size) < pool % len(sizes) else 0)
        steps = 4 * n
        while len(samples) < count:
            for _ in range(steps):
                tri, _ = tr.flip(tri, tri.edges[rng.randrange(n)])
            steps = stride
            samples.append((n, tri.token(), tri.edges[rng.randrange(n)].token()))
        per_size.append(samples)
    inputs = []
    for i in range(max(map(len, per_size))):
        inputs.extend(s[i] for s in per_size if i < len(s))
    return inputs


def query(n: int, text: str, edge_token: str) -> tuple[str, list[str]]:
    """One per-triangulation query with its two oracles; returns the emitted
    JSON text and the oracle failures."""
    fails = []
    tri = tr.parse_triangulation(n, text)
    quiver = qv.direct_quiver_of(tri)
    rels = rl.relations_of(tri)
    dim = rl.path_algebra_dimension(quiver, rels)
    hom = sum(map(sum, tr.pairwise_hom_matrix(tri)))
    if dim != hom:
        fails.append(f"n={n} {text}: algebra dimension {dim} != hom total {hom}")
    key = qv.canonical_key(quiver)
    edge = ed.parse_edge(edge_token)
    flipped, replacement = tr.flip(tri, edge)
    back, again = tr.flip(flipped, replacement)
    if back != tri or again != edge:
        fails.append(f"n={n} {text}: flip at {edge_token} is not an involution")
    out = json.dumps({
        "n": n,
        "triangulation": tri.token(),
        "quiver": quiver.to_json(),
        "relations": rels.to_json(),
        "dimension": dim,
        "key": key,
        "flip": {"edge": edge.token(), "replacement": replacement.token(),
                 "triangulation": flipped.token()},
    }, sort_keys=True)
    return out, fails


def run_query(job: dict, report: dict) -> int:
    """Build the edge tables, generate the inputs, warm up, then run the
    timed loop.  When traced, spans cover the table building and the loop
    but not the input generation or the warm-up."""
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    for n in job["sizes"]:
        ed.all_edges(n)
        ed.compatibility_masks(n)
    report["tables_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    inputs = walk_inputs(job["seed"], job["sizes"], job["pool"])
    failures: list[str] = []
    for n, text, edge in inputs[:job["warmup"]]:
        query(n, text, edge)
    if tracer is not None:
        tracer.paused = False
    outputs: list[str | None] = [None] * len(inputs)
    latencies = []
    seconds = job["seconds"]
    minimum = job["min_queries"]
    cpu0 = time.process_time()
    start = time.perf_counter()
    i = failed = 0
    while i < minimum or time.perf_counter() - start < seconds:
        n, text, edge = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            out, fails = query(n, text, edge)
        except Exception as exc:  # noqa: BLE001 - every exception is a failed query
            out, fails = None, [f"n={n} {text}: {type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        slot = i % len(inputs)
        if outputs[slot] is None:
            outputs[slot] = out
        elif out != outputs[slot]:
            fails.append(f"n={n} {text}: output differs between passes")
        failures.extend(fails)
        failed += bool(fails)
        i += 1
    report["loop_s"] = time.perf_counter() - start
    report["loop_cpu_s"] = time.process_time() - cpu0
    report["latencies"] = latencies
    report["failed_queries"] = failed
    report["query_failures"] = failures[:20]
    text = "\n".join(o or "" for o in outputs) + "\n"
    report["digest"] = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    return 0


def run_kernels(job: dict, report: dict) -> int:
    masks = ed.compatibility_masks(job["n"])
    times, results = {}, {}
    for backend in ("_maxcliques_py", "_maxcliques_cy"):
        try:
            module = importlib.import_module(f"dncat.{backend}")
        except ImportError:
            continue  # the compiled kernel is optional
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            results[module.BACKEND] = module.maximal_cliques(list(masks), len(masks))
            runs.append(time.perf_counter() - t0)
        times[module.BACKEND] = sorted(runs)[1]
    report["kernel_s"] = times
    report["cliques"] = {name: len(r) for name, r in results.items()}
    agree = len({tuple(r) for r in results.values()}) == 1
    if not agree:
        report["failures"] = [f"clique lists differ between backends at n={job['n']}"]
    return 0 if agree else 1


JOBS = {"cli": run_cli, "setup": run_setup, "query": run_query, "kernels": run_kernels}


def main() -> int:
    job = json.loads(sys.argv[1])
    report: dict = {}
    try:
        rc = JOBS[job["kind"]](job, report)
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        traceback.print_exc()
        report.setdefault("failures", []).append(traceback.format_exc(limit=3))
        rc = 70
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(rc=rc, backend=dncat.BACKEND, maxrss_kb=usage.ru_maxrss,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    Path(sys.argv[2]).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
