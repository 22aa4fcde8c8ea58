"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/tests -q

Every per-layer metric that baseline.json predicts to be non-zero on a
workload must read non-zero there, so a refactor that stops calling a
wrapped function shows as a missing layer instead of a silent zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness

BENCH_DIR = harness.BENCH_DIR
ROOT = BENCH_DIR.parent
BASELINE = json.loads((BENCH_DIR / "baseline.json").read_text())

EXACT_COUNTS = ("fem.solve.calls", "fem.solve.cg_iters",
                "fem.solve.matvec_nnz", "lm.iterations")


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced tiny runs of every workload at seed 0."""
    runs = {}
    for name in harness.WORKLOADS:
        runs[name] = [
            harness.measure(name, 0, 0.0, True,
                            tmp_path_factory.mktemp(name), tiny=True)
            for _ in range(2)
        ]
    return runs


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER
    predicted = {p["metric"] for p in BASELINE["predictions"]}
    assert predicted == set(harness.PER_LAYER)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_is_correct(traced_runs, name):
    for run in traced_runs[name]:
        assert run["failures"] == []
        assert run["failed"] == 0
        assert run["attempted"] == 2 * run["jobs_per_pass"]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_predicted_layers_are_nonzero(traced_runs, name):
    layers = traced_runs[name][0]["per_layer"]
    missing = [p["metric"] for p in BASELINE["predictions"]
               if name in p["nonzero_on"] and not layers[p["metric"]] > 0]
    assert missing == []


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_work_counts_repeat_exactly(traced_runs, name):
    first, second = (run["per_layer"] for run in traced_runs[name])
    for metric in EXACT_COUNTS:
        assert first[metric] == second[metric], metric


def test_end_to_end_metrics_are_positive(tmp_path):
    run = harness.measure("parabolic-march", 0, 0.0, False, tmp_path,
                          tiny=True)
    assert run["failures"] == []
    assert set(run["end_to_end"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in run["end_to_end"].values())


def _good_record():
    refs = harness.load_references()
    key = harness.pass_jobs(harness.WORKLOADS["elliptic-fine"],
                            harness.WORKLOADS["elliptic-fine"].tiny, 0)[0]
    ref = refs[key]
    record = dict(ref, key=key, example=key.split("/")[0])
    return record, refs


def test_gate_accepts_solver_precision_drift():
    record, refs = _good_record()
    record["gamma"] = [g * (1.0 + 1e-9) for g in record["gamma"]]
    assert harness.check_job(record, refs) == []


@pytest.mark.parametrize("change", [
    {"gamma_scale": 1.0 + 1e-5},
    {"iterations": +1},
    {"final_error": 0.5},
    {"stop_reason": "max_iters"},
    {"key": "5.1/8x16/nt64/delta0.02/seed99999"},
])
def test_gate_rejects(change):
    record, refs = _good_record()
    if "gamma_scale" in change:
        record["gamma"] = [g * change["gamma_scale"] for g in record["gamma"]]
    if "iterations" in change:
        record["iterations"] += change["iterations"]
    for field in ("final_error", "stop_reason", "key"):
        if field in change:
            record[field] = change[field]
    assert harness.check_job(record, refs) != []


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-coarse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
