"""Rewrite the golden outputs that tests/test_golden.py compares against.

    python tests/golden/regenerate.py [OUT]

OUT defaults to this directory.  Everything runs in this one process
through robinrecon.cli.main, from the src/ of this checkout:

* run/<example>-<nx>x<ny>-seed<s>/: history.csv, profile.csv and
  summary.txt of `run` for 5.1-5.4 at 8x16 (nt 16), seeds 0-2, and for
  5.1 and 5.2 at 64x128, seed 0; summary.txt without its wall_time line,
  the one output that is not reproducible;
* sweep/<example>/sweep.csv: `sweep` of 5.1 and 5.3 at 8x16 (nt 16),
  deltas 0.01, 0.02, 0.05 x seeds 0-3, one job at a time;
* verify.txt: the lines that `verify` prints;
* environment.txt: Python, numpy, its BLAS, the CPU features numpy
  dispatches on and the BLAS thread settings the files were made with.

The outputs are byte-identical only for one numpy/BLAS build and one
BLAS thread count, so run this with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1, as the test does.  Rewriting the checked-in
files is a re-pin, like a re-pinned frozen anchor: name every changed
file, the largest change and its reason.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from robinrecon import cli  # noqa: E402

HERE = Path(__file__).resolve().parent

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# (example, nx, ny, extra flags, seeds)
RUNS = ([(example, 8, 16, ["--nt", "16"], range(3))
         for example in ("5.1", "5.2", "5.3", "5.4")]
        + [(example, 64, 128, [], range(1)) for example in ("5.1", "5.2")])

SWEEPS = ("5.1", "5.3")
SWEEP_ARGS = ["--nx", "8", "--ny", "16", "--nt", "16",
              "--delta", "0.01,0.02,0.05", "--seed", "0,1,2,3", "--jobs", "1"]


def environment() -> str:
    """The key = value lines of what the outputs' bits depend on."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    lines = [("python", platform.python_version()),
             ("numpy", np.__version__),
             ("blas", f"{blas.get('name', 'unknown')} "
                      f"{blas.get('version', 'unknown')}"),
             ("cpu features", " ".join(simd) or "unknown")]
    lines += [(name, os.environ.get(name, "unset"))
              for name in THREAD_VARIABLES]
    return "".join(f"{key} = {value}\n" for key, value in lines)


def _cli(argv) -> str:
    """stdout of one cli.main call, which must succeed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(argv)
    if status:
        raise SystemExit(f"robinrecon {' '.join(argv)} exited {status}")
    return stdout.getvalue()


def regenerate(out: Path) -> None:
    for example, nx, ny, extra, seeds in RUNS:
        for seed in seeds:
            where = out / "run" / f"{example}-{nx}x{ny}-seed{seed}"
            _cli(["run", "--example", example, "--nx", str(nx),
                  "--ny", str(ny), "--seed", str(seed), "--out", str(where),
                  *extra])
            summary = where / "summary.txt"
            summary.write_text("".join(
                line for line in summary.read_text().splitlines(True)
                if not line.startswith("wall_time = ")))
    for example in SWEEPS:
        _cli(["sweep", "--example", example, *SWEEP_ARGS,
              "--out", str(out / "sweep" / example)])
    (out / "verify.txt").write_text(_cli(["verify"]))
    (out / "environment.txt").write_text(environment())


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
