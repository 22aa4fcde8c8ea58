"""Workloads, correctness gate and metrics of the robinrecon benchmark.

Three workloads, each a fixed list of reconstruction jobs (a "pass")
repeated until the measuring time is used up:

* ``elliptic-fine``: examples 5.1 and 5.2 on a 64 x 128 mesh, delta 0.02.
  Few large CG solves; K and M are reassembled every LM iterate.
* ``parabolic-march``: examples 5.3 and 5.4 at the paper defaults
  (16 x 32, nt = 64), delta 0.02.  Hundreds of small warm-started solves
  and per-level load assembly in the implicit Euler marches.
* ``sweep-coarse``: ``robinrecon sweep`` run in-process through
  ``cli.main`` for 5.1 and 5.3 on an 8 x 16 mesh (nt = 16), delta in
  {0.01, 0.02, 0.05} times 4 seeds, ``--jobs 2``: 24 short jobs where
  per-call set-up, data generation and pool dispatch dominate.

The workload seed picks the noise seeds from a bank of SEED_BANK values
whose reference reconstructions are stored in ``reference.json``, so
every job of every run is checked against a stored profile.

All load comes from this process, except the CLI's own worker pool on
``sweep-coarse``.  A job recorder wraps ``experiments.run_experiment``
to time set-up (everything in run_experiment outside ``lm.run``) and
the reconstruction (``ExperimentResult.wall_time``, the ``lm.run`` time)
inside whichever process runs the job, and ships pool workers' records
to the parent through files.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robinrecon import cli, experiments

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

SEED_BANK = 32
DELTA = 0.02
SWEEP_DELTAS = (0.01, 0.02, 0.05)
SWEEP_SEEDS = 4
POOL_JOBS = 2

# Acceptance criteria 1-4 of the test suite, applied to every job:
# example id -> (iteration cap, relative error cap).
BANDS = {
    "5.1": (30, 0.05),
    "5.2": (35, 0.06),
    "5.3": (30, 0.06),
    "5.4": (30, 0.06),
}

# Largest allowed |gamma - gamma_ref| relative to max |gamma_ref|.  A
# direct solve moves the final iterate by about 1e-9 relative against the
# Jacobi-PCG at tol 1e-10; 1e-6 leaves a factor 1000 for such a change of
# solver while staying four orders below the 1e-2 differences that a
# different noise seed or a changed iteration count produce.
PROFILE_RTOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "recon_s": "s",
    "recons_per_s": "1/s",
    "max_rel_error": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fem.solve.calls": "count",
    "fem.solve.cg_iters": "count",
    "fem.solve.cg_iters_per_call": "count",
    "fem.solve.busy_s": "s",
    "fem.solve.failures": "count",
    "fem.solve.matvec_nnz": "count",
    "fem.assemble_matrix.calls": "count",
    "fem.assemble_matrix.busy_s": "s",
    "fem.assemble_load.calls": "count",
    "fem.assemble_load.busy_s": "s",
    "fem.boundary_inner.calls": "count",
    "fem.boundary_inner.busy_s": "s",
    "mesh.segment_nodes.calls": "count",
    "mesh.segment_nodes.busy_s": "s",
    "mesh.build.busy_s": "s",
    "experiments.make_example.busy_s": "s",
    "experiments.exact_observation.busy_s": "s",
    "experiments.exact_observation.calls": "count",
    "experiments.exact_observation.distinct_frac": "ratio",
    "elliptic.assemble_operator.busy_s": "s",
    "elliptic.forward.self_s": "s",
    "elliptic.adjoint.self_s": "s",
    "parabolic.build_operator.busy_s": "s",
    "parabolic.forward.self_s": "s",
    "parabolic.adjoint.self_s": "s",
    "parabolic.space_time_inner.busy_s": "s",
    "lm.run.busy_s": "s",
    "lm.iterations": "count",
    "lm.step.busy_s": "s",
    "lm.update.self_s": "s",
    "lm.clamped_nodes": "count",
    "cli.sweep.busy_s": "s",
    "cli.sweep.overhead_s": "s",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class Size:
    nx: int
    ny: int
    nt: int


@dataclass(frozen=True)
class Workload:
    examples: tuple
    full: Size
    tiny: Size
    sweep: bool


WORKLOADS = {
    "elliptic-fine": Workload(("5.1", "5.2"), Size(64, 128, 64),
                              Size(8, 16, 64), sweep=False),
    "parabolic-march": Workload(("5.3", "5.4"), Size(16, 32, 64),
                                Size(4, 8, 8), sweep=False),
    "sweep-coarse": Workload(("5.1", "5.3"), Size(8, 16, 16),
                             Size(4, 8, 8), sweep=True),
}


def job_key(example_id, nx, ny, nt, delta, seed) -> str:
    return f"{example_id}/{nx}x{ny}/nt{nt}/delta{delta:g}/seed{seed}"


def noise_seeds(workload: Workload, seed: int) -> list[int]:
    """Noise seeds of one pass; the workload seed picks a bank entry."""
    base = seed % SEED_BANK
    return list(range(base, base + SWEEP_SEEDS)) if workload.sweep else [base]


def pass_jobs(workload: Workload, size: Size, seed: int) -> list[str]:
    """Keys of the jobs one pass runs, in request order."""
    deltas = SWEEP_DELTAS if workload.sweep else (DELTA,)
    return [job_key(ex, size.nx, size.ny, size.nt, d, s)
            for ex in workload.examples
            for d in deltas
            for s in noise_seeds(workload, seed)]


class JobRecorder:
    """Wraps run_experiment to record each job where it runs.

    In a forked pool worker the record (and the worker's spans, when a
    tracer is active) is appended to a per-process file in ``workdir``
    after every job; pool workers exit without running exit handlers, so
    nothing may wait for the end of the worker.
    """

    def __init__(self, workdir: Path, tracer: tracing.Tracer | None = None):
        self.workdir = workdir
        self.tracer = tracer
        self.pid = os.getpid()
        self.records: list[dict] = []
        self._original = None

    def __enter__(self) -> "JobRecorder":
        self._original = experiments.run_experiment
        experiments.run_experiment = self._wrap(self._original)
        return self

    def __exit__(self, *exc) -> None:
        experiments.run_experiment = self._original

    def _wrap(self, fn):
        recorder = self

        @functools.wraps(fn)
        def run_experiment(spec):
            key = job_key(spec.example_id, spec.nx, spec.ny, spec.nt,
                          spec.delta, spec.seed)
            record = {"key": key, "example": spec.example_id}
            if recorder.tracer is not None:
                recorder.tracer.job = key
            start = time.perf_counter()
            try:
                result = fn(spec)
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            else:
                total = time.perf_counter() - start
                record.update(
                    setup_s=total - result.wall_time,
                    recon_s=result.wall_time,
                    iterations=result.iterations,
                    stop_reason=result.stop_reason,
                    final_error=result.final_error,
                    gamma=result.gamma_reconstructed.tolist(),
                )
                return result
            finally:
                recorder._store(record)

        return run_experiment

    def _store(self, record: dict) -> None:
        pid = os.getpid()
        if pid == self.pid:
            self.records.append(record)
            return
        with open(self.workdir / f"jobs-{pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        if self.tracer is not None:
            with open(self.workdir / f"spans-{pid}.jsonl", "a") as fh:
                for span in self.tracer.drain():
                    fh.write(json.dumps(span) + "\n")

    def collect(self) -> tuple[list[dict], list[list]]:
        """Take this process's records plus everything workers wrote."""
        records, self.records = self.records, []
        spans = []
        for path in sorted(self.workdir.glob("jobs-*.jsonl")):
            records += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        for path in sorted(self.workdir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return records, spans


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["jobs"]


def check_job(record: dict, references: dict) -> list[str]:
    """Reasons a finished job misses the correctness gate (empty if none)."""
    if "error" in record:
        return [record["error"]]
    problems = []
    max_iters, max_error = BANDS[record["example"]]
    if record["stop_reason"] != "rel_change":
        problems.append(f"stopped by {record['stop_reason']}")
    if record["iterations"] > max_iters:
        problems.append(f"{record['iterations']} iterations > {max_iters}")
    if not record["final_error"] <= max_error:
        problems.append(f"error {record['final_error']:.4g} > {max_error}")
    ref = references.get(record["key"])
    if ref is None:
        return problems + ["no stored reference"]
    if record["iterations"] != ref["iterations"]:
        problems.append(f"{record['iterations']} iterations, reference "
                        f"{ref['iterations']}")
    gamma = np.asarray(record["gamma"])
    gamma_ref = np.asarray(ref["gamma"])
    if gamma.shape != gamma_ref.shape:
        return problems + [f"profile has {gamma.size} nodes, reference "
                           f"{gamma_ref.size}"]
    gap = float(np.max(np.abs(gamma - gamma_ref)) / np.max(np.abs(gamma_ref)))
    if not gap <= PROFILE_RTOL:
        problems.append(f"profile differs from reference by {gap:.3e} "
                        f"(tolerance {PROFILE_RTOL:g})")
    return problems


def _sweep_argv(example_id: str, size: Size, seeds: list[int], out: Path):
    return ["sweep", "--example", example_id,
            "--nx", str(size.nx), "--ny", str(size.ny), "--nt", str(size.nt),
            "--delta", ",".join(f"{d:g}" for d in SWEEP_DELTAS),
            "--seed", ",".join(str(s) for s in seeds),
            "--jobs", str(POOL_JOBS), "--out", str(out)]


def _check_sweep_table(path: Path, example_id: str, size: Size,
                       seeds: list[int], by_key: dict) -> dict:
    """Compare sweep.csv with the recorded jobs; returns key -> problems."""
    problems = {}
    expected = [(d, s) for d in SWEEP_DELTAS for s in seeds]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [(float(r["delta"]), int(r["seed"])) for r in rows]
    if got != expected:
        for d, s in expected:
            key = job_key(example_id, size.nx, size.ny, size.nt, d, s)
            problems[key] = [f"sweep.csv rows {got} != requested {expected}"]
        return problems
    for row, (d, s) in zip(rows, expected):
        key = job_key(example_id, size.nx, size.ny, size.nt, d, s)
        rec = by_key.get(key)
        if rec is None or "error" in rec:
            continue
        if (row["stop_reason"] != rec["stop_reason"]
                or int(row["iterations"]) != rec["iterations"]
                or float(row["final_error"]) != rec["final_error"]):
            problems[key] = [f"sweep.csv row {dict(row)} disagrees with the job"]
    return problems


def run_pass(workload: Workload, size: Size, seed: int, workdir: Path,
             tracer: tracing.Tracer | None) -> dict:
    """Run every job of one pass; returns records, spans and problems."""
    problems: dict[str, list[str]] = {}
    start = time.perf_counter()
    with JobRecorder(workdir, tracer) as recorder:
        if workload.sweep:
            seeds = noise_seeds(workload, seed)
            tables = []
            for example_id in workload.examples:
                out = workdir / f"sweep-{example_id}"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = cli.main(_sweep_argv(example_id, size, seeds, out))
                if rc != 0:
                    problems[f"cli sweep {example_id}"] = [
                        f"exit code {rc}: {err.getvalue().strip()}"]
                tables.append((out / "sweep.csv", example_id))
        else:
            for s in noise_seeds(workload, seed):
                for example_id in workload.examples:
                    spec = experiments.ExperimentSpec(
                        example_id=example_id, nx=size.nx, ny=size.ny,
                        nt=size.nt, delta=DELTA, seed=s)
                    try:
                        experiments.run_experiment(spec)
                    except Exception:
                        pass  # the recorder kept the error for the gate
        wall = time.perf_counter() - start
        records, spans = recorder.collect()
    if tracer is not None:
        spans += tracer.drain()
    by_key = {r["key"]: r for r in records}
    if workload.sweep:
        for path, example_id in tables:
            if path.exists():
                for key, found in _check_sweep_table(
                        path, example_id, size, seeds, by_key).items():
                    problems.setdefault(key, []).extend(found)
    return {"wall": wall, "records": records, "spans": spans,
            "problems": problems}


def _peak_rss_mb() -> float:
    """Parent peak RSS plus POOL_JOBS times the largest worker's peak.

    ru_maxrss is in KiB on Linux.  Pool workers are forked, so pages
    shared with the parent count in both; the sum is an upper bound on
    the concurrent peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + POOL_JOBS * workers) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, tiny: bool = False) -> dict:
    """Warm up, then run passes until ``seconds`` of measuring are used.

    Untraced runs time every pass.  Traced runs alternate untraced and
    traced passes (at least one of each), so the tracing overhead is the
    ratio of their recon_s medians under the same conditions.
    """
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    references = load_references()
    workdir.mkdir(parents=True, exist_ok=True)

    warm_start = time.perf_counter()
    run_pass(workload, workload.tiny, seed, workdir, None)
    warmup_s = time.perf_counter() - warm_start

    expected = pass_jobs(workload, size, seed)
    passes = []
    all_spans = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracing.Tracer() as tracer:
                tracer.pass_index = len(passes)
                result = run_pass(workload, size, seed, workdir, tracer)
        else:
            result = run_pass(workload, size, seed, workdir, None)
        result["traced"] = traced
        passes.append(result)
        all_spans += result["spans"]
        if time.perf_counter() - start >= seconds and (
                not trace or len(passes) >= 2):
            break
    measured_s = time.perf_counter() - start

    attempted = failed = 0
    failures = []
    for p in passes:
        by_key = {r["key"]: r for r in p["records"]}
        for key in expected:
            attempted += 1
            rec = by_key.get(key)
            found = (["job did not run"] if rec is None
                     else check_job(rec, references))
            found += p["problems"].get(key, [])
            if found:
                failed += 1
                failures.append(f"{key}: {'; '.join(found)}")
        failures += [f"{k}: {'; '.join(v)}" for k, v in p["problems"].items()
                     if k not in expected]

    def pass_mean(p, field):
        """Mean over a pass's jobs; both examples weigh in every pass."""
        values = [r[field] for r in p["records"] if "error" not in r]
        return statistics.fmean(values) if values else float("nan")

    plain = [p for p in passes if not p["traced"]]
    errors = [r["final_error"] for p in passes for r in p["records"]
              if "error" not in r]
    recon_s = statistics.median(pass_mean(p, "recon_s") for p in plain)
    end_to_end = {
        "setup_s": statistics.median(pass_mean(p, "setup_s") for p in plain),
        "recon_s": recon_s,
        "recons_per_s": (attempted - failed) / measured_s,
        "max_rel_error": max(errors) if errors else float("nan"),
        "peak_rss_mb": _peak_rss_mb(),
    }
    per_layer = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        names = [n for n in PER_LAYER if n != "trace.overhead"]
        per_pass = [tracing.layer_metrics(p["spans"], names, POOL_JOBS)
                    for p in traced]
        per_layer = {n: statistics.median(m[n] for m in per_pass)
                     for n in names}
        per_layer["trace.overhead"] = statistics.median(
            pass_mean(p, "recon_s") for p in traced) / recon_s
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(passes),
        "jobs_per_pass": len(expected),
        "warmup_s": warmup_s,
        "measured_s": measured_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": all_spans,
    }
