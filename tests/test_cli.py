"""Tests for the command line front end.

Everything runs in process through cli.main except one smoke test that
starts a separate process: the installed ``robinrecon`` console script if
it is on PATH, otherwise ``python -m robinrecon``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import shutil
import subprocess
import sys
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
        return experiments.ExperimentResult(
            spec=spec, y=None, gamma_exact=None,
            gamma_reconstructed=None, history=[], stop_reason="error",
            error="stopped here")

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


@pytest.mark.parametrize("lines, line, key", [
    ("nx = 4\nnx = 6\n", 3, "nx"),
    ("max-iters = 5\nmax_iters = 7\n", 3, "max_iters"),
], ids=["same-spelling", "dash-and-underscore"])
def test_repeated_config_key_is_rejected(tmp_path, capsys, lines, line, key):
    """A repeated key would silently keep its last value."""
    config = tmp_path / "job.cfg"
    config.write_text("example = 5.1\n" + lines)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert (f"{config}:{line}: repeated key '{key}'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_run_error_exit_still_writes_history(tmp_path, monkeypatch, capsys):
    rows = [
        lm.HistoryRow(k=1, residual=0.5, beta=0.25, rel_change=0.1,
                      rel_error=None, n_clamped=0),
    ]
    state = lm.LmState(k=1, gamma=np.ones(3), history=rows,
                       stop_reason="error",
                       error="iteration 2 failed: solver stalled")

    def boom(*args, **kwargs):
        return state

    monkeypatch.setattr(lm, "run", boom)
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
    assert "error = iteration 2 failed: solver stalled" in summary
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


@pytest.mark.parametrize("completed", [1, 0])
def test_failed_sweep_job_is_an_error_row(tmp_path, monkeypatch, capsys,
                                          completed):
    """A job whose L-M loop fails after `completed` iterations is a row
    with stop reason "error" and the last completed error, empty when no
    iteration completed; the other jobs keep their rows."""
    args = ["sweep", "--example", "5.1", "--nx", "4", "--ny", "8",
            "--seed", "0,1", "--jobs", "1"]
    assert cli.main(args + ["--out", str(tmp_path / "ok")]) == 0
    ok_rows = _lines(tmp_path / "ok" / "sweep.csv")
    real_run = lm.run
    states = []

    def fail_for_seed_1(prob, gamma0, z, cfg, gamma_star=None):
        if not states:  # seed 0 runs first
            states.append(real_run(prob, gamma0, z, cfg, gamma_star=gamma_star))
            return states[-1]
        state = lm.LmState(k=0, gamma=gamma0)
        if completed:
            state = real_run(prob, gamma0, z,
                             dataclasses.replace(cfg, max_iters=completed),
                             gamma_star=gamma_star)
        states.append(dataclasses.replace(
            state, stop_reason="error",
            error=f"iteration {completed + 1} failed: solver stalled"))
        return states[-1]

    monkeypatch.setattr(lm, "run", fail_for_seed_1)
    capsys.readouterr()
    out = tmp_path / "failed"
    assert cli.main(args + ["--out", str(out)]) == 1
    lines = _lines(out / "sweep.csv")
    assert lines[:2] == ok_rows[:2]
    history = states[1].history
    last_error = "%.17g" % history[-1].rel_error if history else ""
    assert lines[2] == f"0.02,1,{completed},error,{last_error}"
    assert len(lines) == 3
    err = capsys.readouterr().err
    assert (f"delta 0.02 seed 1: iteration {completed + 1} failed: "
            "solver stalled") in err


SMALL_SWEEP = ["--nx", "4", "--ny", "8", "--nt", "4",
               "--delta", "0.01,0.02", "--seed", "0,1"]


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_sweep_parallel_matches_serial(tmp_path, example_id):
    args = ["sweep", "--example", example_id] + SMALL_SWEEP
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert cli.main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_sweep_rows_are_those_of_lone_runs(tmp_path, example_id):
    """A sweep's jobs share one setup; each row is still, bit for bit,
    the row of a lone run_experiment of its spec."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--example", example_id, "--out", str(out)]
                    + SMALL_SWEEP) == 0
    lone = [cli._sweep_row(experiments.run_experiment(
                experiments.ExperimentSpec(example_id=example_id, nx=4, ny=8,
                                           nt=4, delta=delta, seed=seed)))
            for delta in (0.01, 0.02) for seed in (0, 1)]
    assert _lines(out / "sweep.csv")[1:] == [
        ",".join(map(str, row)) for row in lone]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_shared_condensation_is_an_error_row_per_job(
        tmp_path, monkeypatch, capsys, jobs):
    """A stationary problem is condensed in the first step of a job's
    L-M loop, and a failed condensation is not kept.  A solve failure
    there does not end the sweep: each job meets it again in its first
    step, so every job is an error row, reported on stderr in request
    order, and the sweep exits 1."""
    def fail(self, *args, **kwargs):
        raise fem.ConvergenceFailure("condensation missed SOLVE_TOL in Z")

    monkeypatch.setattr(fem.BlockLDLT, "condense", fail)
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert cli.main(["sweep", "--example", "5.1", "--jobs", jobs,
                     "--out", str(out)] + SMALL_SWEEP) == 1
    grid = [(delta, seed) for delta in ("0.01", "0.02") for seed in "01"]
    assert _lines(out / "sweep.csv")[1:] == [
        f"{delta},{seed},0,error," for delta, seed in grid]
    assert capsys.readouterr().err.splitlines() == [
        f"delta {delta} seed {seed}: iteration 1 failed: condensation "
        "missed SOLVE_TOL in Z" for delta, seed in grid]


def test_no_pool_worker_condenses_twice(tmp_path, monkeypatch):
    """The shared setup does not condense; each worker condenses its
    problem in the first step it runs and keeps it for its later jobs."""
    log = tmp_path / "condense.log"
    original = fem.BlockLDLT.condense

    def logged(self, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(self, *args)

    monkeypatch.setattr(fem.BlockLDLT, "condense", logged)
    assert cli.main(["sweep", "--example", "5.1", "--jobs", "2",
                     "--out", str(tmp_path / "sweep")] + SMALL_SWEEP) == 0
    pids = log.read_text().split()
    assert pids and str(os.getpid()) not in pids
    assert len(set(pids)) == len(pids)


@pytest.mark.parametrize("outcome, code", [
    ("ok", 0), ("error-row", 1), ("gamma0", 2), ("out-is-a-file", 2),
])
def test_sweep_releases_its_setup(tmp_path, monkeypatch, capsys, outcome,
                                  code):
    """The 4 jobs of a sweep build one example; whatever the sweep's
    exit, nothing stays registered after it, and a lone run_experiment
    builds its own setup."""
    out = tmp_path / "sweep"
    args = ["sweep", "--example", "5.1", "--jobs", "1"] + SMALL_SWEEP
    if outcome == "error-row":
        def fail(prob, gamma0, z, cfg, gamma_star=None):
            return lm.LmState(k=0, gamma=gamma0, stop_reason="error",
                              error="iteration 1 failed: solver stalled")

        monkeypatch.setattr(lm, "run", fail)
    elif outcome == "gamma0":
        args += ["--gamma0", "50"]
    elif outcome == "out-is-a-file":
        out.write_text("not a directory\n")
    builds = []
    original = experiments.make_example

    def counted(example_id, **sizes):
        builds.append(example_id)
        return original(example_id, **sizes)

    monkeypatch.setattr(experiments, "make_example", counted)
    assert cli.main(args + ["--out", str(out)]) == code
    assert builds == ["5.1"]
    if code < 2:
        rows = [line.split(",") for line in _lines(out / "sweep.csv")[1:]]
        assert [row[3] == "error" for row in rows] == [code == 1] * 4
    assert experiments._SHARED == {}
    experiments.run_experiment(experiments.ExperimentSpec(
        example_id="5.1", nx=4, ny=8, nt=4, delta=0.01, seed=0))
    assert builds == ["5.1", "5.1"]


def test_pooled_sweep_runs_a_stand_in_for_run_experiment(tmp_path,
                                                          monkeypatch):
    """The pool pickles run_experiment by module and name, so a wrapper
    that carries its name (as the benchmark's job recorder does) runs in
    the workers."""
    original = experiments.run_experiment

    @functools.wraps(original)
    def stand_in(spec):
        return dataclasses.replace(original(spec), stop_reason="wrapped")

    monkeypatch.setattr(experiments, "run_experiment", stand_in)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--example", "5.1", "--nx", "4", "--ny", "8",
                     "--seed", "0,1", "--jobs", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in _lines(out / "sweep.csv")[1:]]
    assert [row[3] for row in rows] == ["wrapped", "wrapped"]


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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

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
    ("sweep", "", ["--eps", "nan"], "eps"),
    ("sweep", "seed = ,\n", [], "empty list ','"),
    ("run", "nx 4\n", [], "expected 'key = value', got 'nx 4'"),
], ids=["sweep-config-seed", "run-config-gamma0", "sweep-jobs", "run-eps-nan",
        "run-seed-negative", "sweep-config-seed-negative", "sweep-eps-nan",
        "sweep-config-empty-list", "run-config-line-without-equals"])
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
    assert not out.exists()


@pytest.mark.parametrize("command, line, key", [
    ("sweep", "seed = a,b", "seed"),
    ("run", "nx = x", "nx"),
], ids=["sweep-seed", "run-nx"])
def test_bad_config_value_names_the_file_and_the_key(tmp_path, capsys,
                                                     command, line, key):
    config = tmp_path / "job.cfg"
    config.write_text(f"example = 5.1\n{line}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config) in err
    assert f"{key}:" in err
    assert not out.exists()


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
    # run creates --out once the run is done, sweep once its setup is
    assert not (tmp_path / "out").exists()


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
    """The library and both problem kinds run with scipy blocked and load
    no scipy module: importing scipy.sparse alone would add about 20 MB
    of resident memory to every process."""
    child = (
        "import sys\n"
        "sys.modules['scipy'] = None   # any import of scipy now fails\n"
        "import robinrecon, robinrecon.cli\n"
        "from robinrecon import experiments\n"
        "for example_id in ('5.1', '5.3'):\n"
        "    experiments.run_experiment(experiments.ExperimentSpec(\n"
        "        example_id, nx=2, ny=4, nt=4, max_iters=3))\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "             if name.partition('.')[0] == 'scipy' and module))\n"
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
