"""Command line front end for reconstruction runs and verification checks.

Outputs are CSV files plus a flat key=value summary, all numbers printed
with 17 significant digits so identical configurations diff byte for
byte.  Plotting is left to external tools; profile.csv holds exactly the
columns a line plot of exact versus reconstructed coefficient needs.

Flag values win over config-file values, which win over built-in
defaults.  The config file is flat "key = value" text mirroring the
flags, with '#' comments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import experiments, fem

_FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    return _FMT % value


def _parse_gamma0(text: str):
    if text == "exact":
        return "exact"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"gamma0 must be a number or 'exact', got {text!r}"
        ) from None


class _ListOf:
    """Converter of a comma-separated list of what convert takes.  A sweep
    runs one job per entry; its default is the one spec default."""

    def __init__(self, convert):
        self.convert = convert

    def __call__(self, text: str) -> tuple:
        items = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        try:
            return tuple(self.convert(piece) for piece in items)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {self.convert.__name__} list {text!r}"
            ) from None


# Every run and sweep setting, once: name -> (converter under run,
# converter under sweep, help), None where a command lacks the setting.
# The name is the config key and, '-' for '_', the flag.  The default is
# the ExperimentSpec field's (example is example_id, which has none and
# so must be given); out and jobs have the CLI's own.
_SETTINGS = {
    "example": (str, str, "registered example id (e.g. 5.1)"),
    "nx": (int, int, "cells across the short side"),
    "ny": (int, int, "cells across the long side"),
    "nt": (int, int, "time steps (parabolic only)"),
    "delta": (float, _ListOf(float),
              "relative noise level (sweep: comma-separated levels)"),
    "seed": (int, _ListOf(int),
             "noise realization seed (sweep: comma-separated seeds)"),
    "eps": (float, float, "relative-change stopping tolerance"),
    "gamma0": (_parse_gamma0, _parse_gamma0,
               "constant initial guess, or 'exact'"),
    "A": (float, float, "surrogate majorization constant"),
    "max_iters": (int, int, "iteration cap"),
    "out": (str, str, "output directory"),
    "jobs": (None, int, "concurrent runs"),
}
_CLI_DEFAULTS = {"out": "results", "jobs": 1}
_SPEC_NAME = {"example": "example_id"}


def _converters(command: str) -> dict:
    """name -> converter of every setting the command has, in table order."""
    column = ("run", "sweep").index(command)
    return {name: row[column] for name, row in _SETTINGS.items()
            if row[column] is not None}


def _read_config(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys mirror the flags."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_settings(args) -> dict:
    """Apply precedence: command line over config file over defaults."""
    converters = _converters(args.command)
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(converters)
    if unknown:
        raise ValueError(
            f"unknown config key(s): {', '.join(sorted(unknown))}"
        )
    merged = {}
    for name, convert in converters.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in config:
            try:
                merged[name] = convert(config[name])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{args.config}: {name}: {exc}") from None
        else:
            default = _CLI_DEFAULTS.get(name, getattr(
                experiments.ExperimentSpec, _SPEC_NAME.get(name, name), None))
            if isinstance(convert, _ListOf):  # a grid of the one default
                default = (default,)
            merged[name] = default
    if merged["example"] is None:
        raise ValueError("an example id is required (--example or config file)")
    return merged


def _make_spec(settings: dict, **grid) -> experiments.ExperimentSpec:
    """The spec of the settings; grid sets delta and seed of a sweep job."""
    kwargs = {_SPEC_NAME.get(name, name): value
              for name, value in settings.items() if name not in _CLI_DEFAULTS}
    return experiments.ExperimentSpec(**{**kwargs, **grid})


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(args) -> int:
    settings = _merge_settings(args)
    spec = _make_spec(settings)
    result = experiments.run_experiment(spec)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "history.csv",
               ["iter", "residual", "beta", "rel_change", "rel_error"],
               ([row.k, _fmt(row.residual), _fmt(row.beta),
                 _fmt(row.rel_change), _fmt(row.rel_error)]
                for row in result.history))
    # the spec's settings, eps the tolerance the run stops by
    values = [(name, getattr(spec, _SPEC_NAME.get(name, name)))
              for name in _SETTINGS if name not in _CLI_DEFAULTS]
    summary = [(name, _fmt(value) if isinstance(value, float) else value)
               for name, value in values]
    if result.error:
        # an earlier run's profile must not sit next to this run's error
        (out / "profile.csv").unlink(missing_ok=True)
        summary += [("status", "error"), ("error", result.error),
                    ("iterations", result.iterations)]
    else:
        _write_csv(out / "profile.csv",
                   ["y", "gamma_exact", "gamma_reconstructed"],
                   ([_fmt(y), _fmt(ge), _fmt(gr)] for y, ge, gr in zip(
                       result.y, result.gamma_exact,
                       result.gamma_reconstructed)))
        summary += [("status", "ok"), ("stop_reason", result.stop_reason),
                    ("iterations", result.iterations),
                    ("final_error", _fmt(result.final_error))]
    summary.append(("wall_time", _fmt(result.wall_time)))
    (out / "summary.txt").write_text(
        "".join(f"{key} = {value}\n" for key, value in summary))
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    print(f"{spec.example_id}: stopped by {result.stop_reason} after "
          f"{result.iterations} iterations, relative error "
          f"{result.final_error:.4g}; outputs in {out}")
    return 0


_SWEEP_HEADER = ["delta", "seed", "iterations", "stop_reason", "final_error"]


def _sweep_row(result: experiments.ExperimentResult) -> list:
    # no iterate to grade when the first iteration failed
    final_error = _fmt(result.final_error) if result.history else ""
    return [_fmt(result.spec.delta), result.spec.seed, result.iterations,
            result.stop_reason, final_error]


def cmd_sweep(args) -> int:
    """One job per (delta, seed), in that request order, and one row of
    sweep.csv per job, written as its result arrives in that order; a job
    that failed in its L-M loop is an error row and its message a line on
    stderr.  Exits 1 if any job failed."""
    settings = _merge_settings(args)
    # Rows are keyed by (delta, seed), so a repeated entry would rerun
    # the same job and repeat its row.
    for name in ("delta", "seed"):
        values = settings[name]
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(
                f"duplicate --{name} entries: {', '.join(map(str, repeated))}"
            )
    if settings["jobs"] < 1:
        raise ValueError(f"--jobs must be at least 1, got {settings['jobs']}")
    specs = [
        _make_spec(settings, delta=delta, seed=seed)
        for delta in settings["delta"]
        for seed in settings["seed"]
    ]
    out = Path(settings["out"])
    path = out / "sweep.csv"
    # Rows go to a side file, which replaces sweep.csv only once the sweep
    # completes: a sweep that fails keeps the table of an earlier one, and
    # a killed one leaves the rows before its first unfinished job.
    partial = out / "sweep.csv.partial"
    failed = 0
    # The jobs differ only in delta and seed, so they share one setup:
    # built before --out exists, inherited by forked pool workers.
    with experiments.shared_setup(specs[0]), contextlib.ExitStack() as stack:
        out.mkdir(parents=True, exist_ok=True)
        fh = stack.enter_context(open(partial, "w", newline=""))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_HEADER)
        fh.flush()
        # a pool forks all its workers at once, so no more than there are
        # runs; it pickles run_experiment by module and name, so a stand-in
        # there (the benchmark's job recorder) must carry both, as wraps
        # does
        workers = min(settings["jobs"], len(specs))
        run_all = map
        if workers > 1:
            run_all = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)).map
        for result in run_all(experiments.run_experiment, specs):
            writer.writerow(_sweep_row(result))
            fh.flush()
            if result.error:
                failed += 1
                print(f"delta {result.spec.delta:g} seed {result.spec.seed}: "
                      f"{result.error}", file=sys.stderr)
    os.replace(partial, path)
    print(f"{len(specs)} runs ({failed} failed), table in {path}")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    try:
        results = experiments.verification_battery(only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    all_passed = True
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        all_passed &= check.passed
        print(f"[{status}] {check.name}: {check.details}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robinrecon",
        description="Reconstruct a Robin boundary coefficient from noisy "
                    "boundary measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, help_text in (
            ("run", cmd_run, "one reconstruction, full artifacts"),
            ("sweep", cmd_sweep, "grid of noise levels and seeds")):
        p_command = sub.add_parser(command, help=help_text)
        p_command.add_argument("--config", help="flat key = value settings file")
        for name, convert in _converters(command).items():
            p_command.add_argument("--" + name.replace("_", "-"), dest=name,
                                   type=convert, help=_SETTINGS[name][2])
        p_command.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="fast verification battery")
    p_verify.add_argument("--only", help="substring filter on check names")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, fem.LinearSolveError) as exc:
        # a LinearSolveError comes from a solve outside the L-M loop (which
        # reports its own in the result): the data generation or the base
        # factor.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
