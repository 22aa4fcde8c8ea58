"""Tests for the Levenberg-Marquardt driver.

Regression constants were produced by the implementation under test and
frozen once verified against the analytic checks in test_experiments and
the acceptance bands; they guard against silent behavioural drift.
"""

from __future__ import annotations

import dataclasses
import re
import types

import numpy as np
import pytest

import reference_cg
import surrogate
from robinrecon import experiments, fem, lm
from robinrecon import parabolic as par
from robinrecon.elliptic import EllipticProblem
from robinrecon.mesh import SegmentTag

# Run of example 5.1 on the 8x16 mesh, delta=0.02, seed 0, gamma0 = 2,
# data and run on the Jacobi CG of reference_cg.solve_spd at tol 1e-10.
ITERS_51_8X16_SEED0 = 12
FIRST_RESIDUAL_51_8X16_SEED0 = 0.36701403131628824
FINAL_ERROR_51_8X16_SEED0 = 0.013658781119755558

# The same run on the default path, every solve one application of the
# block LDL^T factor of its operator.
FIRST_RESIDUAL_51_8X16_SEED0_FACTORED = 0.3670140313185673
FINAL_ERROR_51_8X16_SEED0_FACTORED = 0.013658781119209994

# Run of example 5.3 on the 8x16 mesh, nt = 8, delta=0.02, seed 0,
# gamma0 = 2, eps = 2e-3, on the default (factored) path.
ITERS_53_8X16_NT8_SEED0 = 8
FIRST_RESIDUAL_53_8X16_NT8_SEED0 = 0.6508328205915065
FINAL_ERROR_53_8X16_NT8_SEED0 = 0.00544630624983386


class _JacobiEllipticProblem(EllipticProblem):
    """EllipticProblem whose operator is the bare matrix, without its
    factor, so every solve runs the reference Jacobi CG, to the 1e-10
    tolerance the reference run was frozen at."""

    def operator(self, gamma):
        return self.base + fem.assemble_boundary_mass(
            self.mesh, SegmentTag.INACCESSIBLE, gamma)

    def field(self, op):
        return reference_cg.solve_spd(op, self.load, tol=1e-10)

    def forward(self, op):
        u = self.field(op)
        return (u[self.mesh.segment_nodes(SegmentTag.ACCESSIBLE)],
                u[self.mesh.segment_nodes(SegmentTag.INACCESSIBLE)])

    def adjoint(self, q, op):
        load = np.zeros(self.mesh.n_nodes)
        load[self.mesh.segment_nodes(SegmentTag.ACCESSIBLE)] = \
            self.boundary_loads(SegmentTag.ACCESSIBLE, q)
        w = reference_cg.solve_spd(op, load, tol=1e-10)
        return w[self.mesh.segment_nodes(SegmentTag.INACCESSIBLE)]


def _elliptic_setup(nx=8, ny=16, delta=0.02, seed=0, jacobi=False):
    example = experiments.make_example("5.1", nx=nx, ny=ny)
    if jacobi:
        fields = dataclasses.fields(EllipticProblem)
        problem = _JacobiEllipticProblem(
            **{f.name: getattr(example.problem, f.name) for f in fields}
        )
        example = dataclasses.replace(example, problem=problem)
    gamma_star = experiments.interpolate_gamma(example.problem.mesh, example.gamma_star)
    z = experiments.add_noise(experiments.exact_observation(example), delta, seed)
    gamma0 = np.full(gamma_star.size, 2.0)
    return example.problem, gamma_star, z, gamma0


def _parabolic_setup(nx=8, ny=16, nt=8, delta=0.02, seed=0):
    example = experiments.make_example("5.3", nx=nx, ny=ny, nt=nt)
    gamma_star = experiments.interpolate_gamma(example.problem.mesh, example.gamma_star)
    z = experiments.add_noise(experiments.exact_observation(example), delta, seed)
    gamma0 = np.full(gamma_star.size, 2.0)
    return example.problem, gamma_star, z, gamma0


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        lm.LmConfig(eps=0.0)
    with pytest.raises(ValueError):
        lm.LmConfig(eps=1e-3, A=0.0)
    with pytest.raises(ValueError):
        lm.LmConfig(eps=1e-3, max_iters=0)
    with pytest.raises(ValueError):
        lm.LmConfig(eps=1e-3, residual_floor=0.0)
    # NaN fails every comparison, so each check must be written to catch
    # it; an infinite eps or residual_floor would stop every run after its
    # first step
    nan, inf = float("nan"), float("inf")
    for bad in ({"eps": nan}, {"A": nan}, {"residual_floor": nan},
                {"eps": inf}, {"residual_floor": inf}):
        with pytest.raises(ValueError):
            lm.LmConfig(**{"eps": 1e-3, **bad})
    # a bool is a numbers.Real, but no tolerance
    with pytest.raises(ValueError, match="residual_floor must be positive"):
        lm.LmConfig(eps=1e-3, residual_floor=True)


def test_config_rejects_a_non_integral_max_iters():
    """An iteration cap that is no integer fails when the config is made,
    naming the field, not later in the loop's range()."""
    for bad in (2.5, 3.0, float("nan"), "3", True):
        with pytest.raises(ValueError, match="max_iters"):
            lm.LmConfig(eps=1e-3, max_iters=bad)
    assert lm.LmConfig(eps=1e-3, max_iters=np.int64(3)).max_iters == 3


def test_config_rejects_an_infinite_A():
    """An infinite majorization constant would make every step zero, so a
    run would stop after one iteration at its initial guess; the config
    and a spec reject it when they are made."""
    for A in (float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="A must be positive and finite"):
            lm.LmConfig(eps=1e-3, A=A)
    with pytest.raises(ValueError, match="A must be positive and finite"):
        experiments.ExperimentSpec(example_id="5.1", nx=4, ny=8,
                                   A=float("inf"))
    assert lm.LmConfig(eps=1e-3, A=1e300).A == 1e300


def test_run_validates_initial_guess():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    cfg = lm.LmConfig(eps=1e-3)
    with pytest.raises(ValueError):
        lm.run(prob, gamma0[:-1], z, cfg)
    with pytest.raises(ValueError):
        lm.run(prob, np.full(gamma0.size, 50.0), z, cfg)
    # the run uses the problem's own box, so a guess outside a narrowed
    # problem box must be rejected
    tight = dataclasses.replace(prob, gamma_min=3.0, gamma_max=4.0)
    with pytest.raises(ValueError, match="gamma0"):
        lm.run(tight, gamma0, z, cfg)
    # NaN fails both bound comparisons, so it must not pass as inside
    gamma_nan = gamma0.copy()
    gamma_nan[3] = np.nan
    with pytest.raises(ValueError, match="gamma0"):
        lm.run(prob, gamma_nan, z, cfg)


def test_run_rejects_an_unsupported_problem_type():
    """The loop steps the two problem types only; any other object, here
    one with a mesh and a box, fails before its first step."""
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    other = types.SimpleNamespace(mesh=prob.mesh, gamma_min=prob.gamma_min,
                                  gamma_max=prob.gamma_max)
    with pytest.raises(TypeError,
                       match="unsupported problem type SimpleNamespace"):
        lm.run(other, gamma0, z, lm.LmConfig(eps=1e-3))


@pytest.mark.parametrize("setup", [_elliptic_setup, _parabolic_setup])
def test_run_rejects_non_finite_data(setup):
    prob, gamma_star, z, gamma0 = setup()
    for bad in (np.nan, np.inf):
        z_bad = z.copy()
        z_bad.flat[z.size // 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lm.run(prob, gamma0, z_bad, lm.LmConfig(eps=1e-3))


@pytest.mark.parametrize("setup", [_elliptic_setup, _parabolic_setup])
def test_run_checks_its_traces_before_any_solve(setup, monkeypatch):
    """Data z of another shape, and a reference gamma_star of another
    shape or with a NaN, fail naming the argument before the first
    operator is built, instead of after a forward solve, after a whole
    step, or never (a NaN gamma_star would only turn rel_error NaN)."""
    prob, gamma_star, z, gamma0 = setup()

    def no_operator(self, gamma):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(fem.RobinProblem, "robin_operator", no_operator)
    cfg = lm.LmConfig(eps=1e-3)
    for bad in (z[..., :-1], z[None], np.ones(3)):
        with pytest.raises(ValueError, match=re.escape(
                f"data z on segment ACCESSIBLE must have shape {z.shape}, "
                f"got shape {bad.shape}")):
            lm.run(prob, gamma0, bad, cfg)
    nan_star = gamma_star.copy()
    nan_star[1] = np.nan
    for bad, message in (
            (np.ones(3), f"gamma_star on segment INACCESSIBLE must have "
                         f"shape {gamma_star.shape}, got shape (3,)"),
            (nan_star, "gamma_star holds non-finite values (NaN or inf)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            lm.run(prob, gamma0, z, cfg, gamma_star=bad)


# ---------------------------------------------------------------------------
# regularization weight and step algebra


def test_beta_is_squared_residual_elliptic():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, max_iters=4))
    assert len(state.history) == 4
    for row in state.history:
        assert row.beta == row.residual * row.residual


def test_beta_matches_space_time_residual_parabolic():
    prob, gamma_star, z, gamma0 = _parabolic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, max_iters=3))
    for row in state.history:
        assert row.beta == row.residual * row.residual


def test_quantities_return_the_operator_and_traces_of_their_step():
    """Next to residual, beta and the update direction, a step's
    quantities give the operator of gamma and the forward traces solved
    with it, from which the residual was measured."""
    prob, gamma_star, z, gamma0 = _parabolic_setup()
    residual, beta, grad, op, u_a, u_i = lm._quantities(prob, gamma0, z)
    fresh_a, fresh_i = prob.forward(op)
    np.testing.assert_array_equal(u_a, fresh_a)
    np.testing.assert_array_equal(u_i, fresh_i)
    x = np.ones(prob.mesh.n_nodes)
    np.testing.assert_array_equal(op.matvec(x),
                                  prob.operator(gamma0).matvec(x))
    r = z - u_a
    assert residual == np.sqrt(prob.inner(SegmentTag.ACCESSIBLE, r, r))


def test_step_halves_when_damping_doubles():
    # the update is gradient / (A + beta); doubling the denominator must
    # halve each nodal step exactly, since halving is exact in binary
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    residual, beta, grad, *_ = lm._quantities(prob, gamma0, z)
    denom = 1.0 + beta
    step_single = grad / denom
    step_double = grad / (2.0 * denom)
    assert np.array_equal(step_single / 2.0, step_double)
    assert beta == residual * residual


# ---------------------------------------------------------------------------
# box projection


def test_tight_box_clamps_and_reports():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    prob = dataclasses.replace(prob, gamma_min=1.95, gamma_max=2.05)
    cfg = lm.LmConfig(eps=1e-12)
    state = lm.lm_step_elliptic(prob, lm.LmState(k=0, gamma=gamma0), z, cfg)
    row = state.history[-1]
    assert row.n_clamped == 11, f"clamp count changed: {row.n_clamped}"
    assert state.gamma.min() >= 1.95 and state.gamma.max() <= 2.05


def test_wide_box_leaves_first_step_unclamped():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.lm_step_elliptic(prob, lm.LmState(k=0, gamma=gamma0), z, lm.LmConfig(eps=1e-12))
    assert state.history[-1].n_clamped == 0


# ---------------------------------------------------------------------------
# the adjoint load is the misfit itself


def test_zero_data_on_a_source_free_problem_stops_after_one_step():
    """With f = g = h = 0 the state is zero and so is the misfit against
    zero data: the adjoint load, its state and the step vanish, and the
    run stops after one iteration by rel_change with gamma0 unchanged."""
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    silent = EllipticProblem(mesh=prob.mesh, a=1.0, c=1.0, f=0.0, g=0.0, h=0.0)
    state = lm.run(silent, gamma0, np.zeros(z.size), lm.LmConfig(eps=1e-3))
    assert state.k == 1
    assert state.stop_reason == "rel_change"
    np.testing.assert_array_equal(state.gamma, gamma0)
    assert state.history[0].residual == 0.0


def test_a_vanishing_accessible_trace_gives_a_finite_step(monkeypatch):
    """The exact states vanish at points of the accessible side.  The step
    never divides by the trace, so a forward trace that is zero at nodes
    of levels 3 and 5 gives a finite update."""
    example = experiments.make_example("5.3", nx=4, ny=8, nt=6)
    prob = example.problem
    seg_a = prob.mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    z = experiments.exact_observation(example)
    forward = par.solve_forward_parabolic

    def vanishing(prob, op):
        u = forward(prob, op)
        u[3, seg_a[[2, 4]]] = 0.0
        u[5, seg_a[0]] = 0.0
        return u

    monkeypatch.setattr(par, "solve_forward_parabolic", vanishing)
    gamma0 = np.full(prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size,
                     2.0)
    state = lm.lm_step_parabolic(prob, lm.LmState(k=0, gamma=gamma0), z,
                                 lm.LmConfig(eps=1e-3))
    row = state.history[-1]
    assert np.all(np.isfinite(state.gamma))
    assert np.isfinite(row.residual) and row.residual > 0.0
    assert np.isfinite(row.rel_change) and row.rel_change > 0.0


def test_run_wraps_a_first_iteration_failure_with_state(monkeypatch):
    """A solve that misses SOLVE_TOL in the first iteration ends the run
    with the initial state: no step completed, so the history is empty."""
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    build = EllipticProblem.operator
    spd_inverse = fem._spd_inverse

    def mismatched(self, gamma):
        edge = fem.segment_mass(self.mesh, SegmentTag.INACCESSIBLE, gamma)
        with monkeypatch.context() as patch:
            patch.setattr(fem, "_spd_inverse",
                          lambda P: spd_inverse(P - 0.5 * edge))
            return build(self, gamma)

    monkeypatch.setattr(EllipticProblem, "operator", mismatched)
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-3))
    assert state.stop_reason == "error"
    assert state.k == 0
    assert state.history == []
    # the message a ConvergenceFailure writes, after the iteration
    assert state.error.startswith(
        "iteration 1 failed: block solve missed SOLVE_TOL")


def test_run_names_the_iteration_whose_solve_missed_solve_tol(monkeypatch):
    """From the second operator on, the edge pivot inverse is that of half
    the Robin edge block, so the factor no longer solves its matrix: the
    solve fails loudly instead of passing a wrong field to the update."""
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    build = EllipticProblem.operator
    spd_inverse = fem._spd_inverse
    built = []

    def mismatched(self, gamma):
        built.append(gamma)
        if len(built) == 1:
            return build(self, gamma)
        edge = fem.segment_mass(self.mesh, SegmentTag.INACCESSIBLE, gamma)
        with monkeypatch.context() as patch:
            patch.setattr(fem, "_spd_inverse",
                          lambda P: spd_inverse(P - 0.5 * edge))
            return build(self, gamma)

    monkeypatch.setattr(EllipticProblem, "operator", mismatched)
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, max_iters=5))
    assert state.stop_reason == "error"
    assert state.error.startswith(
        "iteration 2 failed: block solve missed SOLVE_TOL")
    assert state.k == 1
    assert len(state.history) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the condensation's probe solve at the first operator leaves a "
    "relative residual of 2.17e-11 against a target of 1.7e-11: SOLVE_TOL "
    "sits at the rounding floor of b - A x"))
def test_a_low_initial_guess_on_a_narrow_fine_mesh_completes():
    """5.1 on the 3 x 128 mesh from gamma0 = 0.1 is a valid run.  It fails
    in its first iteration: the probe solve that checks the condensation
    at gamma0's operator misses SOLVE_TOL, as it does for 5.2, for
    gamma0 = 0.2 and for 5.1 at 128 x 256; from gamma0 = 0.5 it runs."""
    result = experiments.run_experiment(experiments.ExperimentSpec(
        example_id="5.1", nx=3, ny=128, gamma0=0.1))
    assert result.error == "", result.error
    assert result.stop_reason == "rel_change"


def test_elliptic_run_solves_on_the_edge_alone(monkeypatch):
    """An elliptic L-M iterate makes no full-mesh solve: the run's full
    solves (fem.solve_spd, Operator.solve) are the two of building its
    condensation, its anchor and its checked probe, as many for 15
    iterations as for 5."""
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    calls = {"solve_spd": 0, "solve": 0}
    solve_spd, solve = fem.solve_spd, fem.Operator.solve

    def counted_solve_spd(*args, **kwargs):
        calls["solve_spd"] += 1
        return solve_spd(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_spd", counted_solve_spd)
    monkeypatch.setattr(fem.Operator, "solve", counted_solve)
    counts = []
    for iterations in (5, 15):
        calls.update(solve_spd=0, solve=0)
        state = lm.run(dataclasses.replace(prob), gamma0, z,
                       lm.LmConfig(eps=1e-12, max_iters=iterations))
        assert state.k == iterations
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"solve_spd": 2, "solve": 2}


# ---------------------------------------------------------------------------
# stopping rules


def test_stop_reason_rel_change():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=10.0))
    assert state.stop_reason == "rel_change"
    assert state.k == 1 and len(state.history) == 1


def test_stop_reason_max_iters():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, max_iters=3))
    assert state.stop_reason == "max_iters"
    assert state.k == 3 and len(state.history) == 3


def test_stop_reason_residual_floor():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, residual_floor=1e6))
    assert state.stop_reason == "residual_floor"
    assert state.k == 1


def test_history_iteration_indices_are_consecutive():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=1e-12, max_iters=5))
    assert [row.k for row in state.history] == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# fixed point and convergence behaviour


def test_exact_coefficient_is_a_fixed_point_parabolic():
    example = experiments.make_example("5.3", nx=8, ny=16, nt=8)
    gamma_star = experiments.interpolate_gamma(example.problem.mesh, example.gamma_star)
    z = experiments.exact_observation(example)
    state = lm.run(example.problem, gamma_star, z, lm.LmConfig(eps=5e-3), gamma_star=gamma_star)
    row = state.history[0]
    assert state.k == 1
    assert row.residual == 0.0
    assert row.beta == 0.0
    assert row.rel_change == 0.0
    assert row.rel_error == 0.0


def test_error_history_never_jumps_up():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=2e-3), gamma_star=gamma_star)
    errors = [row.rel_error for row in state.history]
    for before, after in zip(errors, errors[1:]):
        assert after <= 1.1 * before, f"error rose from {before} to {after}"


def test_reference_run_is_frozen():
    prob, gamma_star, z, gamma0 = _elliptic_setup(jacobi=True)
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=2e-3), gamma_star=gamma_star)
    assert state.stop_reason == "rel_change"
    assert state.k == ITERS_51_8X16_SEED0
    assert state.history[0].residual == pytest.approx(FIRST_RESIDUAL_51_8X16_SEED0, rel=1e-12)
    assert state.history[-1].rel_error == pytest.approx(FINAL_ERROR_51_8X16_SEED0, rel=1e-12)


def test_factored_reference_run_is_frozen_and_agrees_with_jacobi():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=2e-3), gamma_star=gamma_star)
    assert state.stop_reason == "rel_change"
    assert state.k == ITERS_51_8X16_SEED0
    first, final = state.history[0].residual, state.history[-1].rel_error
    assert first == pytest.approx(FIRST_RESIDUAL_51_8X16_SEED0_FACTORED, rel=1e-12)
    assert final == pytest.approx(FINAL_ERROR_51_8X16_SEED0_FACTORED, rel=1e-12)
    # both solver paths reach the same run, to well within solver tolerance
    assert first == pytest.approx(FIRST_RESIDUAL_51_8X16_SEED0, rel=1e-9)
    assert final == pytest.approx(FINAL_ERROR_51_8X16_SEED0, rel=1e-9)


def test_parabolic_reference_run_is_frozen():
    prob, gamma_star, z, gamma0 = _parabolic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=2e-3), gamma_star=gamma_star)
    assert state.stop_reason == "rel_change"
    assert state.k == ITERS_53_8X16_NT8_SEED0
    assert state.history[0].residual == pytest.approx(
        FIRST_RESIDUAL_53_8X16_NT8_SEED0, rel=1e-12)
    assert state.history[-1].rel_error == pytest.approx(
        FINAL_ERROR_53_8X16_NT8_SEED0, rel=1e-12)


def test_rel_error_requires_exact_coefficient():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    state = lm.run(prob, gamma0, z, lm.LmConfig(eps=10.0))
    assert state.history[0].rel_error is None


# ---------------------------------------------------------------------------
# surrogate objective


def test_surrogate_minimizer_beats_probes_elliptic():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    residual, beta, grad, *_ = lm._quantities(prob, gamma0, z)
    update = gamma0 + grad / (1.0 + beta)
    objective = surrogate.make_surrogate_objective(prob, gamma0, grad, beta)
    j_min = objective(update)
    assert j_min <= objective(gamma0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        probe = update + rng.uniform(-0.1, 0.1, size=update.size)
        assert j_min <= objective(probe) * (1.0 + 1e-12)


def test_surrogate_minimizer_beats_probes_parabolic():
    prob, gamma_star, z, gamma0 = _parabolic_setup()
    residual, beta, grad, *_ = lm._quantities(prob, gamma0, z)
    update = gamma0 + grad / (1.0 + beta)
    objective = surrogate.make_surrogate_objective(prob, gamma0, grad, beta)
    j_min = objective(update)
    rng = np.random.default_rng(11)
    for _ in range(20):
        probe = update + rng.uniform(-0.1, 0.1, size=update.size)
        assert j_min <= objective(probe) * (1.0 + 1e-12)


def test_surrogate_gradient_vanishes_at_update():
    prob, gamma_star, z, gamma0 = _elliptic_setup()
    residual, beta, grad, *_ = lm._quantities(prob, gamma0, z)
    update = gamma0 + grad / (1.0 + beta)
    objective = surrogate.make_surrogate_objective(prob, gamma0, grad, beta)
    h = 1e-6
    for j in range(update.size):
        bump = np.zeros_like(update)
        bump[j] = h
        slope = (objective(update + bump) - objective(update - bump)) / (2.0 * h)
        assert abs(slope) < 1e-6, f"nonzero slope {slope} in coordinate {j}"
