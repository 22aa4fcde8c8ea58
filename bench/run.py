"""Benchmark entry point; run from the repository root.

    python3 bench/run.py --workload elliptic-fine --seed 0 --seconds 20 --trace 0

Runs one workload (see harness.py) for about ``--seconds`` of measuring,
after an untimed warm-up pass of the same jobs at the tiny size.  Prints
the environment, every metric by name with its unit, and as the last
line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics and writes the spans to ``bench/out/``.  The exit code
is 0 only when every job passed the correctness gate.

setup_s does not include interpreter start, imports or the warm-up pass;
those are printed as ``startup_s`` and ``warmup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# BLAS and OpenMP pools; one thread each, so the CLI's two pool workers
# do not oversubscribe the machine and the parent's level-1 BLAS calls on
# vectors of at most 8k entries run single-threaded as they would anyway.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("elliptic-fine", "parabolic-march",
                                 "sweep-coarse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "robinrecon" / "__init__.py").is_file():
        print(f"error: no robinrecon sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    env = _environment()
    print("env " + json.dumps(env), flush=True)
    startup_s = time.perf_counter() - START
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = harness.measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _report(args, env, startup_s, result, harness)


def _report(args, env, startup_s, result, harness) -> int:
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} "
          f"passes of {result['jobs_per_pass']} jobs in "
          f"{result['measured_s']:.2f} s (startup_s {startup_s:.3f}, "
          f"warmup_s {result['warmup_s']:.3f})")
    for line in result["failures"]:
        print(f"FAIL {line}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac = {fail_frac:.4g} ({result['failed']} of "
          f"{result['attempted']} jobs)")
    if args.trace:
        units = harness.PER_LAYER
        values = result["per_layer"]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env, "workload": args.workload,
                                 "seed": args.seed}) + "\n")
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
        print(f"{len(result['spans'])} spans in {path}")
    else:
        units = harness.END_TO_END
        values = result["end_to_end"]
    metrics = {}
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
