"""Tests for the command line front end.

Everything runs in process through cli.main except one smoke test that
starts a separate process: the installed ``robinrecon`` console script if
it is on PATH, otherwise ``python -m robinrecon``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import robinrecon
from robinrecon import cli, experiments, fem, lm
from robinrecon.elliptic import EllipticProblem

RUN_ARGS = ["run", "--example", "5.1", "--nx", "8", "--ny", "16"]

HISTORY_HEADER = "iter,residual,beta,rel_change,rel_error"
PROFILE_HEADER = "y,gamma_exact,gamma_reconstructed"
SWEEP_HEADER = "delta,seed,iterations,stop_reason,final_error"

# The settings of run and sweep, flag -> (config key, default), as they
# stood before one table declared them; a change here changes the
# command line.
_SHARED_SURFACE = {
    "--example": ("example", None), "--nx": ("nx", 16), "--ny": ("ny", 32),
    "--nt": ("nt", 64), "--eps": ("eps", None), "--gamma0": ("gamma0", 2.0),
    "--A": ("A", 1.0), "--max-iters": ("max_iters", 100),
    "--out": ("out", "results"),
}
FROZEN_SURFACE = {
    "run": {**_SHARED_SURFACE,
            "--delta": ("delta", 0.02), "--seed": ("seed", 0)},
    "sweep": {**_SHARED_SURFACE,
              "--delta": ("delta", (0.02,)), "--seed": ("seed", (0,)),
              "--jobs": ("jobs", 1)},
}


def _lines(path):
    return path.read_text().splitlines()


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "results"
    assert cli.main(RUN_ARGS + ["--out", str(out)]) == 0
    history = _lines(out / "history.csv")
    assert history[0] == HISTORY_HEADER
    assert len(history) == 1 + 12
    profile = _lines(out / "profile.csv")
    assert profile[0] == PROFILE_HEADER
    assert len(profile) == 1 + 17
    summary = (out / "summary.txt").read_text()
    assert "status = ok" in summary
    assert "stop_reason = rel_change" in summary
    assert "iterations = 12" in summary
    # the tolerance the run stopped by, the kind's default here
    assert "eps = 0.002" in summary


def test_run_numbers_round_trip_at_full_precision(tmp_path):
    out = tmp_path / "results"
    cli.main(RUN_ARGS + ["--out", str(out)])
    row = _lines(out / "history.csv")[1].split(",")
    residual, beta = float(row[1]), float(row[2])
    assert beta == residual * residual
    spec = experiments.ExperimentSpec(example_id="5.1", nx=8, ny=16)
    result = experiments.run_experiment(spec)
    assert residual == result.history[0].residual


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_settings_surface_is_frozen(tmp_path, command):
    """Each setting's flag, config key and default."""
    surface = FROZEN_SURFACE[command]
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    flags = {option: action.dest for action in sub._actions
             for option in action.option_strings
             if action.dest not in ("help", "config")}
    assert flags == {flag: key for flag, (key, _) in surface.items()}
    defaults = {key: default for key, default in surface.values()}
    args = parser.parse_args([command, "--example", "5.1"])
    assert cli._merge_settings(args) == {**defaults, "example": "5.1"}
    # every key is a config key, read by the flag's converter
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else value

    config = tmp_path / "all.cfg"
    config.write_text("example = 5.1\neps = 0.001\n" + "".join(
        f"{key} = {text(value)}\n"
        for key, value in defaults.items() if value is not None))
    args = parser.parse_args([command, "--config", str(config)])
    assert cli._merge_settings(args) == {**defaults, "example": "5.1",
                                         "eps": 0.001}


def test_run_hands_run_experiment_the_spec_defaults(tmp_path, monkeypatch):
    specs = []

    def record(spec):
        specs.append(spec)
        raise lm.LmRunError("stopped here", lm.LmState(k=0, gamma=None,
                                                       history=[]))

    monkeypatch.setattr(experiments, "run_experiment", record)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--example", "5.1"]) == 1
    assert specs == [experiments.ExperimentSpec(example_id="5.1")]
    # and the default output directory
    assert "eps = 0.002" in (tmp_path / "results" / "summary.txt").read_text()


def test_summary_lists_the_settings_the_run_used(tmp_path):
    out = tmp_path / "results"
    assert cli.main(["run", "--example", "5.1", "--nx", "4", "--ny", "8",
                     "--eps", "0.01", "--gamma0", "0.3",
                     "--out", str(out)]) == 0
    assert _lines(out / "summary.txt")[:10] == [
        "example = 5.1", "nx = 4", "ny = 8", "nt = 64", "delta = 0.02",
        "seed = 0", "eps = 0.01", "gamma0 = 0.29999999999999999", "A = 1",
        "max_iters = 100",
    ]


def test_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    cli.main(RUN_ARGS + ["--out", str(first)])
    cli.main(RUN_ARGS + ["--out", str(second)])
    for name in ("history.csv", "profile.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_unknown_example_fails_cleanly(tmp_path, capsys):
    code = cli.main(["run", "--example", "9.9", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_requires_an_example(tmp_path, capsys):
    code = cli.main(["run", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "example id is required" in capsys.readouterr().err


def test_gamma0_flag_rejects_junk():
    with pytest.raises(SystemExit):
        cli.main(["run", "--example", "5.1", "--gamma0", "closeish"])


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "job.cfg"
    config.write_text(
        "# small noise-free job\n"
        "example = 5.1\n"
        "nx = 8\n"
        "ny = 16\n"
        "delta = 0\n"
        "gamma0 = exact\n"
    )
    out_a = tmp_path / "a"
    assert cli.main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert "iterations = 1" in (out_a / "summary.txt").read_text()

    # the flag beats the config value, so noise is back on
    out_b = tmp_path / "b"
    assert cli.main(["run", "--config", str(config), "--delta", "0.02",
                     "--gamma0", "2.0", "--out", str(out_b)]) == 0
    assert "iterations = 12" in (out_b / "summary.txt").read_text()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text("example = 5.1\nmesh-size = 8\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "mesh_size" in capsys.readouterr().err


def test_run_error_exit_still_writes_history(tmp_path, monkeypatch, capsys):
    rows = [
        lm.HistoryRow(k=1, residual=0.5, beta=0.25, rel_change=0.1,
                      rel_error=None, n_clamped=0),
    ]
    state = lm.LmState(k=1, gamma=np.ones(3), history=rows)

    def boom(spec):
        raise lm.LmRunError("iteration 2 failed: solver stalled", state)

    monkeypatch.setattr(experiments, "run_experiment", boom)
    out = tmp_path / "broken"
    # an earlier run left its profile in the same directory
    out.mkdir()
    (out / "profile.csv").write_text(PROFILE_HEADER + "\n")
    code = cli.main(RUN_ARGS + ["--out", str(out)])
    assert code == 1
    assert "solver stalled" in capsys.readouterr().err
    history = _lines(out / "history.csv")
    assert history[0] == HISTORY_HEADER and len(history) == 2
    summary = (out / "summary.txt").read_text()
    assert "status = error" in summary
    assert "iterations = 1" in summary
    assert not (out / "profile.csv").exists()


def test_sweep_table_order_and_content(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--example", "5.1", "--nx", "8", "--ny", "16",
        "--delta", "0,0.02", "--seed", "0,1", "--out", str(out),
    ])
    assert code == 0
    lines = _lines(out / "sweep.csv")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 4
    table = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1]) for row in table] == [
        ("0", "0"), ("0", "1"), ("0.02", "0"), ("0.02", "1"),
    ]
    # without noise the seed cannot matter
    assert table[0][2:] == table[1][2:]
    # and noise should not help
    assert float(table[2][4]) >= float(table[0][4])


def test_sweep_parallel_matches_serial(tmp_path):
    args = ["sweep", "--example", "5.1", "--nx", "8", "--ny", "16",
            "--delta", "0.01,0.02", "--seed", "0,1"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert cli.main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_sweep_pool_never_outnumbers_its_jobs(tmp_path, monkeypatch):
    """A process pool forks all its workers at once, so --jobs caps the
    pool at the number of runs; a single run needs no pool at all."""
    pools = []

    class InlineExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    args = ["sweep", "--example", "5.1", "--nx", "4", "--ny", "8",
            "--jobs", "64", "--out", str(tmp_path)]
    assert cli.main(args + ["--seed", "0,1"]) == 0
    assert pools == [2]
    assert cli.main(args + ["--seed", "0"]) == 0
    assert pools == [2]


def test_sweep_rejects_duplicate_entries(tmp_path, capsys):
    base = ["sweep", "--example", "5.1", "--nx", "8", "--ny", "16"]
    out = tmp_path / "sweep"
    assert cli.main(base + ["--seed", "1,1", "--out", str(out)]) == 2
    assert "duplicate --seed entries: 1" in capsys.readouterr().err
    config = tmp_path / "job.cfg"
    config.write_text("delta = 0.02, 0.01, 0.020\n")
    assert cli.main(base + ["--config", str(config), "--out", str(out)]) == 2
    assert "duplicate --delta entries: 0.02" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, config, flags, named", [
    ("sweep", "seed = a,b\n", [], "'a,b'"),
    ("run", "gamma0 = junk\n", [], "gamma0"),
    ("sweep", "", ["--jobs", "-3"], "--jobs"),
    ("run", "", ["--eps", "nan"], "eps"),
    ("run", "", ["--seed", "-1"], "seed"),
    ("sweep", "seed = 0,-2\n", [], "seed"),
], ids=["sweep-config-seed", "run-config-gamma0", "sweep-jobs", "run-eps-nan",
        "run-seed-negative", "sweep-config-seed-negative"])
def test_bad_setting_exits_2_with_message(tmp_path, capsys, monkeypatch,
                                          command, config, flags, named):
    def unreachable(*args, **kwargs):
        raise AssertionError("a bad setting must fail before any set-up")

    monkeypatch.setattr(experiments, "make_example", unreachable)
    path = tmp_path / "job.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    code = cli.main([command, "--example", "5.1", "--nx", "4", "--ny", "8",
                     "--config", str(path), "--out", str(out)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out / "history.csv").exists()
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("gamma0", ["nan", "50"])
def test_gamma0_outside_the_box_fails_before_data_generation(
        tmp_path, capsys, monkeypatch, command, gamma0):
    def unreachable(*args, **kwargs):
        raise AssertionError("a bad gamma0 must fail before the data march")

    monkeypatch.setattr(experiments, "exact_observation", unreachable)
    code = cli.main([command, "--example", "5.3", "--nx", "4", "--ny", "8",
                     "--nt", "4", "--gamma0", gamma0,
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma0" in err


def test_failed_sweep_keeps_the_table_of_an_earlier_one(tmp_path, capsys):
    out = tmp_path / "sweep"
    args = ["sweep", "--example", "5.1", "--nx", "4", "--ny", "8",
            "--seed", "0,1", "--out", str(out)]
    assert cli.main(args) == 0
    table = (out / "sweep.csv").read_bytes()
    assert len(table.decode().splitlines()) == 3
    assert cli.main(args + ["--gamma0", "50"]) == 2
    assert "gamma0" in capsys.readouterr().err
    assert (out / "sweep.csv").read_bytes() == table
    # a completed sweep leaves no side file behind
    assert cli.main(args) == 0
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]


def test_linear_solve_error_exits_2_with_message(tmp_path, capsys, monkeypatch):
    def breakdown(self, gamma):
        raise fem.CurvatureBreakdown("pivot block 4 of 5 is not positive definite")

    monkeypatch.setattr(EllipticProblem, "operator", breakdown)
    out = tmp_path / "out"
    code = cli.main(["run", "--example", "5.1", "--nx", "4", "--ny", "8",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: pivot block 4 of 5 is not positive definite\n")
    assert not (out / "profile.csv").exists()


def test_verify_filter(capsys):
    assert cli.main(["verify", "--only", "adjoint"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] adjoint-elliptic:" in out
    assert "[PASS] adjoint-parabolic:" in out
    assert "fem" not in out


def test_verify_unknown_filter(capsys):
    assert cli.main(["verify", "--only", "nonsense"]) == 2
    assert "available" in capsys.readouterr().err


def _child_env() -> dict:
    """Environment of a child process that imports the package under
    test, not a stale installed copy."""
    source_root = str(Path(robinrecon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_smoke(tmp_path):
    out = tmp_path / "cli-smoke"
    script = shutil.which("robinrecon")
    command = [script] if script else [sys.executable, "-m", "robinrecon"]
    proc = subprocess.run(
        command + ["run", "--example", "5.1", "--nx", "4", "--ny", "8",
                   "--delta", "0", "--gamma0", "exact", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stopped by rel_change" in proc.stdout
    assert (out / "profile.csv").exists()


def test_library_linear_algebra_stays_numpy_only(tmp_path):
    """Running both problem kinds imports neither scipy.linalg nor
    scipy.sparse.linalg: either import would add megabytes of resident
    memory to every run."""
    child = (
        "import sys\n"
        "import robinrecon, robinrecon.cli\n"
        "from robinrecon import experiments\n"
        "for example_id in ('5.1', '5.3'):\n"
        "    experiments.run_experiment(experiments.ExperimentSpec(\n"
        "        example_id, nx=2, ny=4, nt=4, max_iters=3))\n"
        "print(sorted(name for name in ('scipy.linalg', 'scipy.sparse.linalg')\n"
        "             if name in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["robinrecon"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
