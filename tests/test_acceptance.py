"""Acceptance gate: eleven numbered criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -s or -rA) and
asserts the same condition, so the verbose pytest report doubles as the
acceptance checklist.  Criteria 1 to 4 share a cache of full-size runs;
criterion 7 audits the recorded histories of that same fixture set.
"""

from __future__ import annotations

import numpy as np

import surrogate
from robinrecon import cli, experiments, fem, lm
from robinrecon.mesh import SegmentTag

SEEDS = range(10)

# example id -> (iteration cap, error cap, required passes out of ten)
BANDS = {
    "5.1": (30, 0.05, 8),
    "5.2": (35, 0.06, 8),
    "5.3": (30, 0.06, 8),
    "5.4": (30, 0.06, 8),
}

_RUNS: dict = {}


def _fixture_run(example_id: str, seed: int) -> experiments.ExperimentResult:
    key = (example_id, seed)
    if key not in _RUNS:
        spec = experiments.ExperimentSpec(example_id=example_id, seed=seed)
        _RUNS[key] = experiments.run_experiment(spec)
    result = _RUNS[key]
    # a run that failed in its L-M loop fails every criterion that uses it
    assert not result.error, f"example {example_id} seed {seed}: {result.error}"
    return result


def _report(number: int, ok: bool, details: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {details}")
    assert ok, f"criterion {number}: {details}"


def _band_check(number: int, example_id: str) -> None:
    max_iters, max_error, required = BANDS[example_id]
    passes = 0
    worst_iters = 0
    worst_error = 0.0
    for seed in SEEDS:
        result = _fixture_run(example_id, seed)
        worst_iters = max(worst_iters, result.iterations)
        worst_error = max(worst_error, result.final_error)
        if result.iterations <= max_iters and result.final_error <= max_error:
            passes += 1
    details = (
        f"example {example_id}: {passes}/10 seeds within {max_iters} "
        f"iterations and error {max_error} (worst: {worst_iters} iterations, "
        f"error {worst_error:.4f})"
    )
    _report(number, passes >= required, details)


def test_criterion_01_example_51_bands():
    _band_check(1, "5.1")


def test_criterion_02_example_52_bands():
    _band_check(2, "5.2")


def test_criterion_03_example_53_bands():
    _band_check(3, "5.3")


def test_criterion_04_example_54_bands():
    _band_check(4, "5.4")


def test_criterion_05_adjoint_identities():
    worst = {}
    for kind in ("elliptic", "parabolic"):
        check = experiments.adjoint_identity_errors(kind)
        assert len(check.errors) == 20
        worst[kind] = check.worst
    ok = all(value <= experiments.ADJOINT_TOL for value in worst.values())
    _report(5, ok, f"worst relative identity gap: elliptic "
                   f"{worst['elliptic']:.3e}, parabolic {worst['parabolic']:.3e}")


def test_criterion_06_derivative_consistency():
    orders = {}
    for kind in ("elliptic", "parabolic"):
        check = experiments.derivative_fd_check(kind)
        orders[kind] = check.order
    low, high = experiments.FD_ORDER_BAND
    ok = all(low <= order <= high for order in orders.values())
    _report(6, ok, f"difference-quotient order: elliptic "
                   f"{orders['elliptic']:.3f}, parabolic {orders['parabolic']:.3f}")


def test_criterion_07_beta_matches_squared_residual():
    rows = {"elliptic": 0, "parabolic": 0}
    misses = {"elliptic": 0, "parabolic": 0}
    for example_id in BANDS:
        kind = experiments.ExperimentSpec(example_id=example_id).kind
        for seed in SEEDS:
            for row in _fixture_run(example_id, seed).history:
                rows[kind] += 1
                if row.beta != row.residual * row.residual:
                    misses[kind] += 1
    ok = sum(misses.values()) == 0
    _report(7, ok, f"{rows['elliptic']} elliptic rows bit-exact "
                   f"({misses['elliptic']} misses), {rows['parabolic']} "
                   f"parabolic rows bit-exact ({misses['parabolic']} misses)")


def _replay_with_probes(example_id: str, rng: np.random.Generator,
                        n_probes: int = 20):
    """Re-run a fixture iteration by hand, probing the surrogate each step."""
    example = experiments.make_example(example_id)
    prob = example.problem
    mesh = prob.mesh
    tag = SegmentTag.INACCESSIBLE
    seg = mesh.segment_nodes(tag)
    z = experiments.add_noise(experiments.exact_observation(example), 0.02, 0)
    gamma = np.full(seg.size, 2.0)
    eps = experiments.DEFAULT_EPS[example.kind]

    worst_margin = -np.inf
    iterations = 0
    for k in range(1, 101):
        residual, beta, grad, *_ = lm._quantities(prob, gamma, z)
        update = gamma + grad / (1.0 + beta)
        objective = surrogate.make_surrogate_objective(prob, gamma, grad,
                                                       beta)
        j_update = objective(update)
        for _ in range(n_probes):
            probe = update + rng.uniform(-0.05, 0.05, update.size)
            j_probe = objective(probe)
            worst_margin = max(worst_margin, (j_update - j_probe) / j_probe)
        new_gamma = np.clip(update, prob.gamma_min, prob.gamma_max)
        rel_change = (fem.boundary_norm(mesh, tag, new_gamma - gamma)
                      / fem.boundary_norm(mesh, tag, gamma))
        gamma = new_gamma
        iterations = k
        if rel_change <= eps:
            break
    return iterations, worst_margin


def test_criterion_08_surrogate_minimizer_beats_probes():
    rng = np.random.default_rng(99)
    total_iters = 0
    worst = -np.inf
    for example_id in BANDS:
        iterations, margin = _replay_with_probes(example_id, rng)
        total_iters += iterations
        worst = max(worst, margin)
    ok = worst <= 1e-12
    _report(8, ok, f"{total_iters} fixture iterations, 20 probes each, "
                   f"worst margin {worst:.2e} (update minus probe, relative)")


def test_criterion_09_dense_subproblem_oracle():
    worst_gap = 0.0
    for seed in range(5):
        report = experiments.run_oracle_check(seed=seed)
        assert report.j_gauss_newton <= report.j_surrogate * (1.0 + 1e-12)
        assert report.j_surrogate <= report.j_at_iterate * (1.0 + 1e-12)
        if report.residual_norm > 1e-10:
            assert report.j_gauss_newton < report.j_at_iterate
            assert report.j_surrogate < report.j_at_iterate
        worst_gap = max(worst_gap, report.opt_residual_gn)
    _report(9, True, f"5 seeds ordered J(gn) <= J(surrogate) <= J(iterate), "
                     f"worst normal-equation residual {worst_gap:.2e}")


def test_criterion_10_fem_convergence():
    elliptic = experiments.fem_convergence_check("elliptic")
    parabolic = experiments.fem_convergence_check("parabolic")
    ok = (elliptic.ratio >= experiments.ELLIPTIC_RATIO_MIN
          and parabolic.ratio >= experiments.PARABOLIC_RATIO_MIN)
    _report(10, ok, f"error ratios under refinement: elliptic "
                    f"{elliptic.ratio:.2f} (need >= 3.5), parabolic "
                    f"{parabolic.ratio:.2f} (need >= 1.8)")


def test_criterion_11_byte_identical_outputs(tmp_path):
    args = ["run", "--example", "5.1", "--delta", "0.02", "--seed", "3"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    same = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("history.csv", "profile.csv")
    )
    _report(11, same, "history.csv and profile.csv byte-identical across "
                      "repeat runs with the same config and seed")
