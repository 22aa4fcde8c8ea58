"""The outputs of `run`, `sweep` and `verify` against tests/golden.

tests/golden/regenerate.py writes them again, in one subprocess with the
BLAS pinned to one thread, into a temporary directory.  Where the
environment matches the one the golden files were made in (their
environment.txt), every file must match them byte for byte.  Elsewhere,
another numpy or BLAS build, CPU or thread count may round differently
in the last digits, so integers, stop reasons and every other word are
compared exactly, the other numbers at rel=1e-12, the tolerance of the
frozen L-M anchors, and of verify's lines the name and PASS or FAIL of
each check.
"""

from __future__ import annotations

import difflib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

PINNED = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

REL = 1e-12


def _outputs(root: Path) -> list:
    return sorted(path.relative_to(root) for path in root.rglob("*")
                  if path.suffix in (".csv", ".txt"))


def _agree(expected: str, actual: str) -> bool:
    """One word of an output: an integer or a word exactly, a float at
    REL."""
    if expected == actual:
        return True
    try:
        expected_value, actual_value = float(expected), float(actual)
    except ValueError:
        return False
    if re.fullmatch(r"-?\d+", expected) or re.fullmatch(r"-?\d+", actual):
        return False
    return math.isclose(expected_value, actual_value, rel_tol=REL)


def _close(name: Path, expected: str, actual: str) -> None:
    expected, actual = expected.splitlines(), actual.splitlines()
    assert len(actual) == len(expected), f"{name}: line count differs"
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        if name.name == "verify.txt":
            want, got = want.split(":", 1)[0], got.split(":", 1)[0]
        words = [re.split(r"[,\s]+", line.strip()) for line in (want, got)]
        assert (len(words[0]) == len(words[1])
                and all(map(_agree, *words))), \
            f"{name}:{number}: {got!r}, golden {want!r}"


def compare(golden: Path, actual: Path) -> None:
    """Assert that the outputs under actual match those under golden:
    bytes when the two environment.txt files match, else words as the
    module docstring says."""
    names = _outputs(golden)
    assert _outputs(actual) == names
    environment = Path("environment.txt")
    exact = ((golden / environment).read_bytes()
             == (actual / environment).read_bytes())
    for name in names:
        if name == environment:
            continue
        want, got = ((root / name).read_text() for root in (golden, actual))
        if not exact:
            _close(name, want, got)
        elif got != want:
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                        f"golden/{name}", str(name),
                                        lineterm="")
            raise AssertionError("\n".join(list(diff)[:40]))


def test_outputs_match_the_golden_files(tmp_path):
    done = subprocess.run(
        [sys.executable, str(GOLDEN / "regenerate.py"), str(tmp_path)],
        env={**os.environ, **PINNED}, cwd=tmp_path, capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    compare(GOLDEN, tmp_path)


def test_the_word_comparison_forgives_only_the_last_digits_of_floats():
    name = Path("run/history.csv")
    golden = "3,0.5,rel_change\n"
    _close(name, golden, "3,0.50000000000000011,rel_change\n")
    _close(Path("verify.txt"), "[PASS] oracle: gap 1.0e-3\n",
           "[PASS] oracle: gap 1.1e-3\n")
    for changed in ("4,0.5,rel_change\n", "3.0000000000001,0.5,rel_change\n",
                    "3,0.5000000000011,rel_change\n", "3,0.5,max_iters\n",
                    "3,0.5\n", golden * 2):
        with pytest.raises(AssertionError):
            _close(name, golden, changed)
