"""Tests for the example registry, data generation and checking helpers."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from robinrecon import elliptic as ell
from robinrecon import experiments, fem, lm
from robinrecon import parabolic as par
from robinrecon.mesh import SegmentTag

# integral of the example 5.1 coefficient over the segment, by hand:
# int_0^2 (3 - sin(pi y / 2)) dy = 6 - 4 / pi
INTEGRAL_51 = 6.0 - 4.0 / np.pi


# ---------------------------------------------------------------------------
# coefficient registry


def test_exact_coefficients_at_segment_endpoints():
    cases = {
        "5.1": [(0.0, 3.0), (1.0, 2.0), (2.0, 3.0)],
        "5.2": [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)],
        "5.3": [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)],
        "5.4": [(0.0, 1.0), (1.0, 2.0)],
    }
    for example_id, points in cases.items():
        example = experiments.make_example(example_id, nx=4, ny=8)
        for y, value in points:
            got = example.gamma_star(np.array([y]))[0]
            assert got == pytest.approx(value, rel=1e-12), (
                f"{example_id} at y={y}: {got}"
            )


def test_example_kinds():
    for example_id, problem_type in (("5.1", ell.EllipticProblem),
                                     ("5.2", ell.EllipticProblem),
                                     ("5.3", par.ParabolicProblem),
                                     ("5.4", par.ParabolicProblem)):
        example = experiments.make_example(example_id, nx=4, ny=8, nt=4)
        assert isinstance(example.problem, problem_type)


def test_coefficient_51_stays_in_its_analytic_range():
    example = experiments.make_example("5.1")
    gamma = experiments.interpolate_gamma(example.problem.mesh, example.gamma_star)
    assert gamma.min() >= 2.0 - 1e-12 and gamma.max() <= 3.0 + 1e-12


def test_interpolated_coefficient_integral():
    # nodal interpolation on ny=32 leaves a few times 1e-4 of relative gap
    example = experiments.make_example("5.1")
    mesh = example.problem.mesh
    gamma = experiments.interpolate_gamma(mesh, example.gamma_star)
    ones = np.ones_like(gamma)
    integral = fem.boundary_inner(mesh, SegmentTag.INACCESSIBLE, gamma, ones)
    assert integral == pytest.approx(INTEGRAL_51, rel=5e-4)


def test_make_example_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown example"):
        experiments.make_example("9.9")


def test_example_52_requires_even_cell_count():
    with pytest.raises(ValueError, match="even"):
        experiments.make_example("5.2", nx=4, ny=7)
    # and a spec, when it is made, before any run builds the example
    with pytest.raises(ValueError, match="even"):
        experiments.ExperimentSpec(example_id="5.2", ny=3)


# ---------------------------------------------------------------------------
# observations and noise


def test_observation_shapes():
    elliptic = experiments.make_example("5.1")
    z = experiments.exact_observation(elliptic)
    n_acc = elliptic.problem.mesh.segment_nodes(SegmentTag.ACCESSIBLE).size
    assert z.shape == (n_acc,) == (65,)

    parabolic = experiments.make_example("5.3", nx=4, ny=8, nt=6)
    zt = experiments.exact_observation(parabolic)
    n_acc = parabolic.problem.mesh.segment_nodes(SegmentTag.ACCESSIBLE).size
    assert zt.shape == (7, n_acc)


def test_add_noise_is_multiplicative_and_bounded():
    z = np.linspace(-2.0, 3.0, 40)
    noisy = experiments.add_noise(z, 0.05, seed=3)
    assert np.all(np.abs(noisy - z) <= 0.05 * np.abs(z) + 1e-15)
    assert not np.array_equal(noisy, z)


def test_add_noise_zero_level_is_identity():
    z = np.linspace(-2.0, 3.0, 40)
    assert np.array_equal(experiments.add_noise(z, 0.0, seed=5), z)


def test_add_noise_rejects_bad_levels():
    z = np.linspace(0.5, 1.5, 30)
    for delta in (-0.1, np.nan):
        with pytest.raises(ValueError):
            experiments.add_noise(z, delta, seed=0)
    # the spec's own checks: a bool is no noise level and no seed
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        experiments.add_noise(z, True, seed=0)
    with pytest.raises(ValueError, match="noise seed must be a non-neg"):
        experiments.add_noise(z, 0.02, seed=True)


def test_add_noise_is_seed_deterministic():
    z = np.linspace(0.5, 1.5, 30)
    a = experiments.add_noise(z, 0.02, seed=11)
    b = experiments.add_noise(z, 0.02, seed=11)
    c = experiments.add_noise(z, 0.02, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# experiment plumbing


def test_spec_validation():
    with pytest.raises(ValueError):
        experiments.ExperimentSpec(example_id="nope")
    with pytest.raises(ValueError):
        experiments.ExperimentSpec(example_id="5.1", delta=-0.1)
    with pytest.raises(ValueError):
        experiments.ExperimentSpec(example_id="5.1", delta=float("nan"))
    with pytest.raises(ValueError):
        experiments.ExperimentSpec(example_id="5.1", gamma0="best")
    for seed in (-1, 1.0, "0", True, False):
        with pytest.raises(ValueError, match="noise seed must be a non-neg"):
            experiments.ExperimentSpec(example_id="5.1", seed=seed)
    assert experiments.ExperimentSpec(example_id="5.1", seed=np.int64(3)).seed == 3
    # the iteration cap is checked before any output exists
    for max_iters in (2.5, float("nan")):
        with pytest.raises(ValueError, match="max_iters"):
            experiments.ExperimentSpec(example_id="5.1", max_iters=max_iters)
    assert experiments.ExperimentSpec(example_id="5.3").kind == "parabolic"
    # eps left unset is the kind's default tolerance
    for example_id, kind in (("5.2", "elliptic"), ("5.4", "parabolic")):
        assert (experiments.ExperimentSpec(example_id=example_id).eps
                == experiments.DEFAULT_EPS[kind])
    # the mesh and step counts and the noise level are checked when the
    # spec is made, by the checks of the mesh and the problem
    for example_id, field in (("5.1", "nx"), ("5.3", "ny"), ("5.3", "nt")):
        with pytest.raises(ValueError, match=f"{field} must be a positive"):
            experiments.ExperimentSpec(example_id=example_id,
                                       **{field: 2.5})
    for field, bad in (("ny", float("nan")), ("nt", 0), ("nx", -1),
                       ("ny", "8"), ("nx", True)):
        with pytest.raises(ValueError, match=f"{field} must be a positive"):
            experiments.ExperimentSpec(example_id="5.1", **{field: bad})
    with pytest.raises(ValueError, match="nonnegative and finite"):
        experiments.ExperimentSpec(example_id="5.1", delta=float("inf"))
    # every real setting is a finite numbers.Real other than a bool; an
    # array gamma0 is no constant guess
    inf, nan = float("inf"), float("nan")
    for field, bad in (("delta", True), ("gamma0", True), ("gamma0", inf),
                       ("gamma0", nan), ("gamma0", np.full(17, 2.0)),
                       ("eps", True), ("eps", inf), ("A", True), ("A", nan)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            experiments.ExperimentSpec(example_id="5.1", **{field: bad})


def test_run_experiment_collects_everything():
    spec = experiments.ExperimentSpec(example_id="5.1", nx=8, ny=16)
    result = experiments.run_experiment(spec)
    assert result.stop_reason == "rel_change"
    assert result.iterations == len(result.history) == 12
    assert result.y.shape == result.gamma_exact.shape == (17,)
    assert np.all(np.diff(result.y) > 0)
    assert result.gamma_reconstructed.shape == (17,)
    assert 0.0 < result.final_error < 0.05
    assert result.wall_time > 0.0


def test_run_experiment_exact_start_noise_free():
    spec = experiments.ExperimentSpec(
        example_id="5.1", nx=8, ny=16, delta=0.0, gamma0="exact"
    )
    result = experiments.run_experiment(spec)
    assert not result.error
    assert result.iterations == 1
    assert result.final_error == 0.0


@pytest.mark.parametrize("completed", [2, 0])
def test_run_experiment_returns_a_failed_loop_as_a_result(monkeypatch,
                                                          completed):
    """A solve failure in the L-M loop gives the result of the last
    completed iterate; final_error is NaN when no iteration completed."""
    quantities = lm._quantities
    calls = []

    def fail_after_completed(*args):
        calls.append(args)
        if len(calls) > completed:
            raise fem.ConvergenceFailure("solver stalled")
        return quantities(*args)

    monkeypatch.setattr(lm, "_quantities", fail_after_completed)
    spec = experiments.ExperimentSpec(example_id="5.1", nx=4, ny=8)
    result = experiments.run_experiment(spec)
    assert result.error == f"iteration {completed + 1} failed: solver stalled"
    assert result.stop_reason == "error"
    assert result.iterations == len(result.history) == completed
    assert result.gamma_reconstructed.shape == result.y.shape
    if completed:
        assert result.final_error == result.history[-1].rel_error
    else:
        assert np.isnan(result.final_error)


def test_run_experiment_raises_outside_the_loop(monkeypatch):
    def fail(*args, **kwargs):
        raise fem.LinearSolveError("data solve failed")

    monkeypatch.setattr(experiments, "exact_observation", fail)
    spec = experiments.ExperimentSpec(example_id="5.1", nx=4, ny=8)
    with pytest.raises(fem.LinearSolveError, match="data solve failed"):
        experiments.run_experiment(spec)


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_run_experiment_builds_gamma_free_pieces_once(monkeypatch, example_id):
    """K and M are assembled and the base is factored once per problem,
    and the data loads of every level in one volume load call, not once
    per level, iterate or march; each operator factors only its edge
    pivot."""
    calls = dict.fromkeys(("assemble_stiffness", "assemble_mass",
                           "assemble_load"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
    for name in ("__init__", "complete"):
        monkeypatch.setattr(fem.BlockLDLT, name,
                            counted(name, getattr(fem.BlockLDLT, name)))
    spec = experiments.ExperimentSpec(example_id=example_id, nx=4, ny=8, nt=4)
    result = experiments.run_experiment(spec)
    assert not result.error
    assert result.iterations > 1
    # one operator for the data, one per iterate
    assert calls == {"assemble_stiffness": 1, "assemble_mass": 1,
                     "assemble_load": 1, "__init__": 1,
                     "complete": 1 + result.iterations}


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_shared_setup_gives_the_results_of_lone_runs(example_id):
    """Jobs that take a shared setup, and with its problem the stationary
    condensation that the first of them built, reproduce lone runs bit
    for bit."""
    base = experiments.ExperimentSpec(example_id=example_id, nx=4, ny=8,
                                      nt=4)
    specs = [dataclasses.replace(base, delta=delta, seed=seed)
             for delta in (0.0, 0.02) for seed in (0, 1)]
    lone = [experiments.run_experiment(spec) for spec in specs]
    with experiments.shared_setup(base):
        shared = [experiments.run_experiment(spec) for spec in specs]
    for a, b in zip(lone, shared):
        assert not a.error and not b.error
        assert a.history == b.history
        assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason)
        for name in ("y", "gamma_exact", "gamma_reconstructed"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_shared_setup_serves_only_its_key_and_only_within_its_block(
        monkeypatch):
    builds = []
    original = experiments.make_example

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "make_example", counted)
    spec = experiments.ExperimentSpec(example_id="5.1", nx=4, ny=8)
    with experiments.shared_setup(spec):
        assert len(builds) == 1
        # delta, seed and the L-M settings do not touch the setup
        experiments.run_experiment(dataclasses.replace(
            spec, delta=0.05, seed=3, eps=1e-2, A=2.0, max_iters=5))
        assert len(builds) == 1
        # the mesh and the initial guess do
        experiments.run_experiment(dataclasses.replace(spec, ny=10))
        experiments.run_experiment(dataclasses.replace(spec, gamma0=3.0))
        assert len(builds) == 3
    experiments.run_experiment(spec)
    assert len(builds) == 4


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_shared_setup_arrays_are_read_only(monkeypatch, example_id):
    """No job can change the noise-free data, the exact coefficient or
    the initial guess that the next job takes."""
    seen = []
    real_run = lm.run

    def recording(prob, gamma0, z, cfg, gamma_star=None):
        seen.append((gamma0, gamma_star))
        return real_run(prob, gamma0, z, cfg, gamma_star=gamma_star)

    monkeypatch.setattr(lm, "run", recording)
    spec = experiments.ExperimentSpec(example_id=example_id, nx=4, ny=8,
                                      nt=4)
    with experiments.shared_setup(spec) as setup:
        result = experiments.run_experiment(spec)
    (gamma0, gamma_star), = seen
    assert gamma0 is setup.gamma0 and gamma_star is setup.gamma_exact
    assert result.gamma_exact is setup.gamma_exact
    for array in (setup.z_exact, setup.gamma_exact, setup.gamma0):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    # the noisy data and the iterates are the job's own
    assert result.gamma_reconstructed.flags.writeable


def test_shared_setup_condenses_a_stationary_problem_once(monkeypatch):
    condensed = []
    original = fem.BlockLDLT.condense

    def counted(self, *args):
        condensed.append(self)
        return original(self, *args)

    monkeypatch.setattr(fem.BlockLDLT, "condense", counted)
    spec = experiments.ExperimentSpec(example_id="5.1", nx=4, ny=8)
    with experiments.shared_setup(spec):
        for seed in (0, 1):
            experiments.run_experiment(dataclasses.replace(spec, seed=seed))
        assert len(condensed) == 1
    # a lone run's setup does not condense; its first step does, inside
    # the timed loop
    experiments.prepare(spec)
    assert len(condensed) == 1
    result = experiments.run_experiment(spec)
    assert len(condensed) == 2
    assert result.iterations > 1


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_exact_observation_assembles_the_data_load_before_the_factor(
        monkeypatch, example_id):
    """The data load's assembly transient comes before the base factor's
    pivots are held, not on top of them."""
    events = []

    def recorded(name, original):
        def wrapper(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fem, "assemble_load",
                        recorded("load", fem.assemble_load))
    monkeypatch.setattr(fem.BlockLDLT, "__init__",
                        recorded("factor", fem.BlockLDLT.__init__))
    example = experiments.make_example(example_id, nx=4, ny=8, nt=4)
    experiments.exact_observation(example)
    assert events[-1] == "factor" and "factor" not in events[:-1]
    assert "load" in events


# ---------------------------------------------------------------------------
# oracle comparison


def test_oracle_orders_the_three_model_values():
    report = experiments.run_oracle_check(seed=0)
    assert report.j_gauss_newton <= report.j_surrogate <= report.j_at_iterate
    assert report.j_gauss_newton < report.j_at_iterate
    assert report.opt_residual_gn < 1e-12
    assert report.gn_step_in_box
    assert report.beta == report.residual_norm * report.residual_norm


def test_oracle_reuses_the_operator_and_state_of_its_step(monkeypatch):
    """Two operators (the data's and the iterate's), three full solves
    (the data's, and the anchor and the probe of the condensation) and
    five edge solves: the two of the condensation's check, the step's
    forward and adjoint solves, and one Jacobian solve with a column per
    segment direction."""
    calls = {"operator": 0, "solve": 0, "edge": 0}
    assemble_operator = ell.assemble_operator
    solve_spd, solve_edge = fem.solve_spd, fem.solve_edge

    def operator(*args):
        calls["operator"] += 1
        return assemble_operator(*args)

    def solve(*args, **kwargs):
        calls["solve"] += 1
        return solve_spd(*args, **kwargs)

    def edge(*args):
        calls["edge"] += 1
        return solve_edge(*args)

    monkeypatch.setattr(ell, "assemble_operator", operator)
    monkeypatch.setattr(fem, "solve_spd", solve)
    monkeypatch.setattr(fem, "solve_edge", edge)
    experiments.run_oracle_check(seed=0)
    assert calls == {"operator": 2, "solve": 3, "edge": 5}


def test_probes_reject_an_unknown_kind_and_the_oracle_a_march():
    with pytest.raises(ValueError, match="unknown problem kind 'hyperbolic'"):
        experiments.adjoint_identity_errors("hyperbolic")
    example = experiments.make_example("5.3", nx=4, ny=8, nt=4)
    gamma = experiments.interpolate_gamma(example.problem.mesh,
                                          example.gamma_star)
    z = experiments.exact_observation(example)
    with pytest.raises(TypeError, match="implemented for the stationary"):
        experiments.oracle_optimality_check(example.problem, gamma, z)


def test_oracle_steps_shrink_in_the_strong_regularization_limit(monkeypatch):
    example = experiments.make_example("5.1", nx=4, ny=8)
    mesh = example.problem.mesh
    gamma_exact = experiments.interpolate_gamma(mesh, example.gamma_star)
    z = experiments.add_noise(experiments.exact_observation(example), 0.02, 0)
    rng = np.random.default_rng(1)
    gamma_k = gamma_exact + rng.uniform(-0.2, 0.2, gamma_exact.size)

    quantities = lm._quantities

    def norms(beta):
        # the step's own quantities with the regularization weight beta
        def with_beta(*args):
            residual, _, *rest = quantities(*args)
            return (residual, beta, *rest)

        monkeypatch.setattr(lm, "_quantities", with_beta)
        report = experiments.oracle_optimality_check(example.problem,
                                                     gamma_k, z)
        assert report.beta == beta
        return report.surrogate_step_norm, report.gn_step_norm

    mild = norms(1e3)
    strong = norms(1e6)
    frozen = norms(1e9)
    assert strong[0] < mild[0] and strong[1] < mild[1]
    assert frozen[0] < 1e-8 and frozen[1] < 1e-8


# ---------------------------------------------------------------------------
# field error helper and battery


def test_domain_l2_error_reproduces_linear_fields():
    example = experiments.make_example("5.1", nx=4, ny=8)
    mesh = example.problem.mesh
    nodal = mesh.nodes[:, 0] + mesh.nodes[:, 1]
    err = experiments.domain_l2_error(mesh, nodal, lambda x, y: x + y)
    assert err < 1e-13
    shifted = experiments.domain_l2_error(mesh, nodal + 1.0, lambda x, y: x + y)
    assert shifted == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_full_battery_passes_and_reports_its_numbers():
    """Every check of the battery, in its order, passes, and its details
    line gives the measured numbers next to the threshold."""
    num = r"\d\.\d+e[-+]\d+"
    fd = (rf"fd errors \[{num}, {num}, {num}\] for steps "
          rf"\(0\.01, 0\.001, 0\.0001\), fitted order \d\.\d{{3}} "
          rf"\(band \[0\.7, 1\.3\]\)")
    adjoint = (rf"worst relative identity gap {num} over 20 probe pairs "
               rf"\(tol 1e-12\)")
    details = {
        "adjoint-elliptic": adjoint,
        "adjoint-parabolic": adjoint,
        "derivative-elliptic": fd,
        "derivative-parabolic": fd,
        "oracle": (rf"J at iterate {num}, surrogate {num}, dense minimizer "
                   rf"{num}; normal-equation residual at surrogate {num}, "
                   rf"at dense minimizer {num}"),
        "fem-elliptic": (rf"errors {num} -> {num}, ratio \d+\.\d\d "
                         rf"\(minimum 3\.5\)"),
        "fem-parabolic": (rf"errors {num} -> {num}, ratio \d+\.\d\d "
                          rf"\(minimum 1\.8\)"),
    }
    results = experiments.verification_battery()
    assert [r.name for r in results] == list(details)
    for r in results:
        assert r.passed, f"{r.name}: {r.details}"
        assert re.fullmatch(details[r.name], r.details), r.details


def test_battery_filter():
    results = experiments.verification_battery(only="adjoint")
    assert [r.name for r in results] == ["adjoint-elliptic", "adjoint-parabolic"]
    assert all(r.passed for r in results)
    with pytest.raises(ValueError, match="available"):
        experiments.verification_battery(only="nonsense")
