"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The per-layer metrics the benchmark was specified with.
SPECIFIED_LAYER_METRICS = [
    "kernels.maximal_cliques.self_s", "kernels.cliques",
    "edges.compatibility_masks.self_s", "edges.crossing_number.calls", "edges.hom_dim.self_s",
    "staple.staple_crossing_number.self_s",
    "triangulations.parse_triangulation.self_s",
    "triangulations.flip.calls", "triangulations.flip.self_s",
    "triangulations.canonical_form.calls", "triangulations.canonical_form.self_s",
    "triangulations.equivalence_classes.self_s",
    "triangulations.classes_per_canonical_form", "triangulations.quotient.self_s",
    "quivers.transport_table.self_s", "quivers.mutate.calls", "quivers.mutate.self_s",
    "quivers.transport_entries_per_mutate",
    "quivers.canonical_key.calls", "quivers.canonical_key.self_s",
    "quivers.canonical_key.distinct_per_call",
    "quivers.direct_quiver_of.self_s", "quivers.mutation_class.self_s",
    "relations.relations_of.self_s", "relations.path_algebra_dimension.self_s",
    "catalog.write_catalog.self_s", "catalog.read_catalog.self_s", "catalog.bytes_written",
    *(f"verify.suite_{s}.{k}" for s in run.SUITES for k in ("self_s", "s")),
    "kernels.python.maximal_cliques_s",
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
    "trace.accounted_share", "trace.unaccounted_share",
    *(f"{layer}.self_s" for layer in run.LAYERS),
]


def smoke(capsys, workload: str, trace: int, seed: int = 0) -> tuple[int, dict, str]:
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--smoke"])
    captured = capsys.readouterr()
    return rc, json.loads(captured.out.splitlines()[-1]), captured.out + captured.err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_emitted(capsys, workload):
    rc, result, out = smoke(capsys, workload, 0)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert '"backend": "python"' in out or '"backend": "cython"' in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    rc, result, _ = smoke(capsys, workload, 1)
    assert rc == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(SPECIFIED_LAYER_METRICS) <= set(declared)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert {k: emitted.get(k) for k in declared} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < metrics["trace.accounted_share"] <= 1
    if workload == "verify-n7":
        assert metrics["triangulations.flip.calls"] > 0
        assert metrics["verify.suite_prop47.s"] > 0
    elif workload == "catalog-n8":
        assert metrics["catalog.bytes_written"] > 0
        assert metrics["triangulations.classes_per_canonical_form"] > 0
    else:
        assert metrics["triangulations.parse_triangulation.calls"] == run.SMOKE["pool"]
        assert metrics["quivers.transport_table.s"] == 0


@pytest.mark.parametrize("workload, key", [
    ("verify-n7", "verify n=5"),
    ("catalog-n8", "catalog n=5 classes.jsonl"),
    ("catalog-n8", "catalog show n=5"),
    ("query-walk", "query sizes=5,6 pool=12 seed=0"),
])
def test_corrupted_digest_is_a_failure(capsys, monkeypatch, workload, key):
    monkeypatch.setitem(run.DIGESTS, key, "sha256:" + "0" * 64)
    rc, result, text = smoke(capsys, workload, 0)
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 1
    assert f"FAILED: {key.split(' ')[0]}" in text


def test_unpinned_seed_runs_the_oracles_only(capsys, monkeypatch):
    # a corrupted seed-0 digest does not touch another seed's gate
    monkeypatch.setitem(run.DIGESTS, "query sizes=5,6 pool=12 seed=0", "sha256:" + "0" * 64)
    rc, result, _ = smoke(capsys, "query-walk", 0, seed=5)
    assert rc == 0 and result["correct"] and result["attempted"] > run.SMOKE["pool"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _record(backend: str, value: float) -> str:
    return json.dumps({"workload": "verify-n7", "trace": 0, "env": {"backend": backend},
                       "figures": {}, "result": {"metrics": {
                           "wall_s": {"value": value, "unit": "s"}}}})


def test_compare_refuses_different_backends(tmp_path, capsys):
    (tmp_path / "a").write_text(_record("python", 1.0) + "\n")
    (tmp_path / "b").write_text(_record("cython", 1.0) + "\n")
    assert run.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_compare_reports_a_regression(tmp_path, capsys):
    (tmp_path / "a").write_text("".join(_record("python", v) + "\n" for v in (1.0, 1.01, 0.99)))
    (tmp_path / "b").write_text("".join(_record("python", v) + "\n" for v in (2.0, 2.01, 1.99)))
    assert run.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "regressed" in capsys.readouterr().out


def test_verdicts():
    assert run.verdict([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "lower", 0.1) == "within bound"
    assert run.verdict([1.0, 1.5, 2.0], [1.1, 1.6, 2.1], "lower", 0.1) == "unresolved"
    assert run.verdict([1.0, 1.1, 1.2], [0.5, 0.6, 0.7], "lower", 0.1) == "better"
    assert run.verdict([100.0, 100.0], [50.0, 50.0], "higher", 0.1) == "regressed"
