"""Regenerate bench/reference.json, the stored reference reconstructions.

    python3 bench/make_reference.py

Runs every job any workload seed can request (each bank seed at the
full sizes, and workload seed 0 at the tiny sizes the self-tests use)
through ``experiments.run_experiment``, on two worker processes, and
stores iteration count, final error and the reconstructed profile.
Profiles keep 12 significant digits, far inside harness.PROFILE_RTOL.
Only regenerate when a change is meant to alter the reconstructions,
and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

from run import SRC, THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
from robinrecon import experiments  # noqa: E402

TINY_SEEDS = (0,)


def _all_keys() -> list[str]:
    keys = set()
    for workload in harness.WORKLOADS.values():
        for seed in range(harness.SEED_BANK):
            keys.update(harness.pass_jobs(workload, workload.full, seed))
        for seed in TINY_SEEDS:
            keys.update(harness.pass_jobs(workload, workload.tiny, seed))
    return sorted(keys)


def _spec(key: str) -> experiments.ExperimentSpec:
    example_id, mesh, nt, delta, seed = key.split("/")
    nx, ny = mesh.split("x")
    return experiments.ExperimentSpec(
        example_id=example_id, nx=int(nx), ny=int(ny), nt=int(nt[2:]),
        delta=float(delta[5:]), seed=int(seed[4:]))


def _reference(key: str) -> tuple[str, dict]:
    spec = _spec(key)
    assert harness.job_key(spec.example_id, spec.nx, spec.ny, spec.nt,
                           spec.delta, spec.seed) == key
    result = experiments.run_experiment(spec)
    return key, {
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "final_error": result.final_error,
        "gamma": [float(f"{g:.12g}") for g in result.gamma_reconstructed],
    }


def main() -> int:
    keys = _all_keys()
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        jobs = dict(pool.imap_unordered(_reference, keys))
    table = {"jobs": {key: jobs[key] for key in keys}}
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(jobs[key])}"
                       for key in keys)
    harness.REFERENCE_PATH.write_text('{"jobs": {\n' + lines + "\n}}\n")
    misses = {}
    for key, ref in jobs.items():
        record = dict(ref, key=key, example=key.split("/")[0])
        problems = harness.check_job(record, table["jobs"])
        if problems:
            misses[key] = problems
    print(f"{len(keys)} references in {harness.REFERENCE_PATH}")
    for key, problems in misses.items():
        print(f"outside the bands: {key}: {'; '.join(problems)}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
