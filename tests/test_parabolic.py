import math
import tracemalloc

import numpy as np
import pytest

from robinrecon import elliptic as ell
from robinrecon import experiments as ex
from robinrecon import fem
from robinrecon import parabolic as par
from robinrecon.mesh import SegmentTag, build_rect_mesh, classify_boundary

# frozen final-time discretization error, 8x16 mesh with 8 steps
L2_ERROR_8X16_NT8 = 0.030461971063580322


def setup(nx=8, ny=16, nt=8):
    example = ex.make_example("5.3", nx=nx, ny=ny, nt=nt)
    mesh = example.problem.mesh
    gamma = ex.interpolate_gamma(mesh, example.gamma_star)
    return example, mesh, gamma


def test_forward_matches_manufactured_solution():
    example, mesh, gamma = setup()
    op = par.build_operator(example.problem, gamma)
    u = par.solve_forward_parabolic(example.problem, op)
    assert u.shape == (example.problem.nt + 1, mesh.n_nodes)
    T = example.problem.T
    err = ex.domain_l2_error(mesh, u[-1], lambda x, y: example.u_exact(x, y, T))
    assert err == pytest.approx(L2_ERROR_8X16_NT8, rel=1e-6)


def test_convergence_check_measures_the_spatial_rate():
    """The exact state is linear in t, where implicit Euler adds almost no
    time error, so halving h and dt together cuts the error about
    fourfold, as halving h does in the stationary check: at least the
    elliptic floor, well above the first-order PARABOLIC_RATIO_MIN."""
    coarse, fine = ex.fem_convergence_check("parabolic")
    assert coarse == pytest.approx(L2_ERROR_8X16_NT8, rel=1e-6)
    assert coarse / fine >= ex.ELLIPTIC_RATIO_MIN


def test_each_march_solves_once_per_level(monkeypatch):
    """The forward, derivative and adjoint marches each call
    fem.solve_spd exactly once per level, nt solves in all; the adjoint
    runs backward, so its first solve carries the level-N load alone."""
    example, mesh, gamma = setup(nx=4, ny=8, nt=5)
    prob = example.problem
    op = prob.operator(gamma)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    loads = []
    solve = fem.solve_spd

    def counted(op, b, **kwargs):
        loads.append(b.copy())
        return solve(op, b, **kwargs)

    monkeypatch.setattr(fem, "solve_spd", counted)
    u_a, u_i = prob.forward(op)
    assert len(loads) == prob.nt
    loads.clear()
    prob.derivative(u_i, np.linspace(-1.0, 1.0, u_i.shape[1]), op)
    assert len(loads) == prob.nt
    loads.clear()
    q = np.random.default_rng(0).uniform(-1.0, 1.0, u_a.shape)
    prob.adjoint(q, op)
    assert len(loads) == prob.nt
    first = np.zeros(mesh.n_nodes)
    first[seg_a] = prob.boundary_loads(SegmentTag.ACCESSIBLE, q)[-1]
    np.testing.assert_array_equal(loads[0], first)


def test_initial_level_is_the_interpolated_start():
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    prob = par.ParabolicProblem(
        mesh=mesh, a=1.0, f=0.0, g=1.0, h=0.0,
        u0=lambda x, y: x + 2.0 * y, T=1.0, nt=2,
    )
    op = par.build_operator(prob, np.full(9, 1.0))
    u = par.solve_forward_parabolic(prob, op)
    np.testing.assert_array_equal(
        u[0], mesh.nodes[:, 0] + 2.0 * mesh.nodes[:, 1]
    )


def test_an_array_initial_value_is_rejected_by_name():
    """u0 is sampled at the nodes like every other coefficient, so it is
    a scalar or a vectorized callable, not a nodal array."""
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    prob = par.ParabolicProblem(
        mesh=mesh, a=1.0, f=0.0, g=1.0, h=0.0,
        u0=np.zeros(mesh.n_nodes), T=1.0, nt=2,
    )
    op = prob.operator(np.full(9, 1.0))
    with pytest.raises(TypeError, match=(
            r"^u0 must be a scalar or a vectorized callable")):
        prob.forward(op)


def test_steady_state_agrees_with_stationary_solve():
    """Time-constant data marched far: the march must settle on the
    stationary solution of the same operator (no reaction term)."""
    mesh = classify_boundary(build_rect_mesh(8, 16, 1.0, 2.0))
    gamma = np.full(17, 1.5)
    stationary = ell.EllipticProblem(mesh=mesh, a=1.0, c=0.0, f=1.0,
                                     g=2.0, h=0.5)
    u_inf = stationary.field(stationary.operator(gamma))
    marching = par.ParabolicProblem(mesh=mesh, a=1.0, f=1.0, g=2.0, h=0.5,
                                    u0=0.0, T=60.0, nt=60)
    u = marching.field(marching.operator(gamma))
    np.testing.assert_allclose(u[-1], u_inf, atol=1e-8)
    # and so do the traces of the protocol, the stationary ones condensed
    for trace, trace_inf in zip(marching.forward(marching.operator(gamma)),
                                stationary.forward(stationary.operator(gamma))):
        np.testing.assert_allclose(trace[-1], trace_inf, atol=1e-8)


def test_build_operator_rejects_gamma_outside_box():
    example, mesh, gamma = setup()
    with pytest.raises(ValueError):
        par.build_operator(example.problem, gamma + 100.0)
    gamma[0] = np.nan
    with pytest.raises(ValueError):
        par.build_operator(example.problem, gamma)


def test_problem_validation():
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    with pytest.raises(ValueError):
        par.ParabolicProblem(mesh=mesh, a=1.0, f=0.0, g=0.0, h=0.0,
                             u0=0.0, T=0.0, nt=4)
    with pytest.raises(ValueError):
        par.ParabolicProblem(mesh=mesh, a=1.0, f=0.0, g=0.0, h=0.0,
                             u0=0.0, T=1.0, nt=0)
    with pytest.raises(ValueError, match="nt must be a positive integer"):
        par.ParabolicProblem(mesh=mesh, a=1.0, f=0.0, g=0.0, h=0.0,
                             u0=0.0, T=1.0, nt=2.5)
    assert par.ParabolicProblem(mesh=mesh, a=1.0, f=0.0, g=0.0, h=0.0,
                                u0=0.0, T=1.0, nt=np.int64(4)).dt == 0.25
    nan, inf = float("nan"), float("inf")
    # each message names the first setting of its case
    for bad in ({"T": nan}, {"gamma_min": 0.0}, {"gamma_min": nan},
                {"gamma_max": 1.0, "gamma_min": 2.0}, {"gamma_max": nan},
                {"T": inf}, {"T": True}, {"gamma_min": inf},
                {"gamma_max": inf}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must"):
            par.ParabolicProblem(**{"mesh": mesh, "a": 1.0, "f": 0.0,
                                    "g": 0.0, "h": 0.0, "u0": 0.0, "T": 1.0,
                                    "nt": 4, **bad})


def test_derivative_starts_from_rest():
    example, mesh, gamma = setup(nt=4)
    op = par.build_operator(example.problem, gamma)
    u = par.solve_forward_parabolic(example.problem, op)
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    d = np.ones(seg_i.size)
    w = par.solve_derivative_parabolic(example.problem, u[:, seg_i], d, op)
    assert np.all(w[0] == 0.0)
    assert np.any(w[1] != 0.0)


def test_adjoint_identity_single_pair():
    example, mesh, gamma = setup(nt=6)
    prob = example.problem
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    op = par.build_operator(prob, gamma)
    u = par.solve_forward_parabolic(prob, op)
    rng = np.random.default_rng(5)
    d = rng.uniform(-1.0, 1.0, seg_i.size)
    q = rng.uniform(-1.0, 1.0, (prob.nt + 1, seg_a.size))
    w = par.solve_derivative_parabolic(prob, u[:, seg_i], d, op)
    ws = par.solve_adjoint_parabolic(prob, q, op)
    lhs = par.space_time_inner(mesh, SegmentTag.ACCESSIBLE, w[:, seg_a],
                               q, prob.dt)
    rhs = par.space_time_inner(mesh, SegmentTag.INACCESSIBLE,
                               u[:, seg_i] * d[None, :], ws[:, seg_i], prob.dt)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_adjoint_ignores_the_initial_weight_level():
    """The pairing carries no initial-level weight, so that row of q must
    have no influence: the outer loop passes its misfit whole, and the
    initial level's misfit is data noise."""
    example, mesh, gamma = setup(nt=4)
    prob = example.problem
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    op = par.build_operator(prob, gamma)
    rng = np.random.default_rng(9)
    q = rng.uniform(-1.0, 1.0, (prob.nt + 1, seg_a.size))
    ws1 = par.solve_adjoint_parabolic(prob, q, op)
    q[0] = 777.0
    ws2 = par.solve_adjoint_parabolic(prob, q, op)
    np.testing.assert_array_equal(ws1, ws2)
    # level 0 is no unknown of the transposed march, so it stays zero
    assert np.all(ws1[0] == 0.0)


def test_adjoint_rejects_wrong_level_count():
    example, mesh, gamma = setup(nt=4)
    op = par.build_operator(example.problem, gamma)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    with pytest.raises(ValueError):
        par.solve_adjoint_parabolic(example.problem,
                                    np.ones((3, seg_a.size)), op)


def test_data_loads_collect_all_data_terms_per_level():
    """Each level's row is bit for bit the sum of the three loads of the
    data frozen at its time, for both registered examples and at the
    benchmark's size as well."""
    for example_id, nx, ny, nt in (("5.3", 4, 8, 3), ("5.4", 4, 8, 3),
                                   ("5.3", 16, 32, 64), ("5.4", 16, 32, 64)):
        prob = ex.make_example(example_id, nx=nx, ny=ny, nt=nt).problem
        mesh = prob.mesh
        L = prob.load
        assert L.shape == (prob.nt + 1, mesh.n_nodes)
        assert np.all(L[0] == 0.0)
        for n in range(1, prob.nt + 1):
            t = n * prob.dt
            expected = fem.assemble_load(mesh, lambda x, y: prob.f(x, y, t))
            expected += fem.assemble_boundary_load(
                mesh, SegmentTag.INACCESSIBLE, lambda x, y: prob.g(x, y, t))
            expected += fem.assemble_boundary_load(
                mesh, SegmentTag.ACCESSIBLE, prob.h)
            np.testing.assert_array_equal(L[n], expected)
        with pytest.raises(ValueError):
            L[1, 0] = 0.0


def test_data_loads_sample_each_source_once_per_level():
    """One data_load call for all levels: every time-dependent source is
    called once, with t holding t_1..t_N along its leading axis, so each
    weighted level is sampled once and t_0 never."""
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    samples = {"f": [], "g": [], "h": []}

    def sampled(name):
        def source(x, y, t):
            samples[name].append(t)
            return x + y * t
        return source

    prob = par.ParabolicProblem(
        mesh=mesh, a=1.0, f=sampled("f"), g=sampled("g"), h=sampled("h"),
        u0=0.0, T=1.0, nt=5,
    )
    prob.load
    times = [n * prob.dt for n in range(1, prob.nt + 1)]
    for t in samples.values():
        assert len(t) == 1
        assert t[0].shape == (prob.nt, 1, 1)
        np.testing.assert_array_equal(t[0].ravel(), times)


@pytest.mark.parametrize("kind", ["elliptic", "parabolic"])
@pytest.mark.parametrize("name", ["f", "g", "h"])
def test_data_load_names_the_datum_it_rejects(kind, name):
    """A nodal array given as f, g or h is rejected under the name the
    problem knows it by, with the arguments a callable of that kind
    takes."""
    mesh = classify_boundary(build_rect_mesh(2, 4, 1.0, 2.0))
    data = {"f": 0.0, "g": 0.0, "h": 0.0, name: np.ones(3)}
    if kind == "elliptic":
        prob, args = ell.EllipticProblem(mesh, a=1.0, c=1.0, **data), "x, y"
    else:
        prob = par.ParabolicProblem(mesh, a=1.0, u0=0.0, T=1.0, nt=2,
                                    **data)
        args = "x, y, t"
    with pytest.raises(TypeError, match=(
            rf"^{name}\b.* must be a scalar or a vectorized callable of "
            rf"\({args}\), got an array of shape \(3,\)$")):
        prob.load


@pytest.mark.parametrize("name, datum", [
    ("f", lambda x, y, t: x * math.exp(t)),
    ("g", lambda x, y, t: y * t.ravel()),
    ("h", lambda x, y, t: t.ravel()),
], ids=["not-vectorized-in-t", "raises-on-broadcast", "returns-levels-only"])
def test_data_not_vectorized_in_t_fail_by_name(name, datum):
    """A time-dependent datum that fails on all levels at once, in its
    own code or in the broadcast of its sample to (levels, points), is
    rejected at the load with its name, chained from that failure."""
    mesh = classify_boundary(build_rect_mesh(2, 4, 1.0, 2.0))
    data = {"f": 0.0, "g": 0.0, "h": 0.0, name: datum}
    prob = par.ParabolicProblem(mesh, a=1.0, u0=0.0, T=1.0, nt=4, **data)
    with pytest.raises(TypeError, match=(
            rf"^{name}\b.* must be a scalar or a callable of \(x, y, t\) "
            r"vectorized in x, y and t")) as info:
        prob.load
    assert isinstance(info.value.__cause__, (TypeError, ValueError))


def test_data_load_memory_at_the_benchmark_size():
    """Sampling 5.4's data once for all 64 levels at 16 x 32 holds each
    datum's (levels, points) sample and the temporaries of its formula:
    f's two (64, 3072) float arrays, 1.5 MiB each, set the peak (3.1 MiB
    measured).  A third such array held beside them, as weighting all
    levels at once would, breaks the 4 MiB bound."""
    prob = ex.make_example("5.4", nx=16, ny=32, nt=64).problem
    tracemalloc.start()
    try:
        prob.load
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * 2**20


@pytest.mark.parametrize("f, g", [
    (1.5, lambda x, y, t: x * t),
    (lambda x, y, t: y * t, 1.5),
])
def test_data_loads_mix_scalar_and_time_dependent_data(f, g):
    """A scalar datum loads every level alike, whether the data before or
    after it depend on time."""
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    prob = par.ParabolicProblem(mesh=mesh, a=1.0, f=f, g=g, h=0.25,
                                u0=0.0, T=1.0, nt=3)
    for n in range(1, prob.nt + 1):
        t = n * prob.dt
        frozen = [data if not callable(data)
                  else lambda x, y, data=data: data(x, y, t)
                  for data in (f, g)]
        expected = fem.assemble_load(mesh, frozen[0])
        expected += fem.assemble_boundary_load(mesh, SegmentTag.INACCESSIBLE,
                                               frozen[1])
        expected += fem.assemble_boundary_load(mesh, SegmentTag.ACCESSIBLE,
                                               0.25)
        np.testing.assert_array_equal(prob.load[n], expected)


def test_time_integral_right_endpoint_rule():
    nt, T = 16, 2.0
    dt = T / nt
    t = dt * np.arange(nt + 1)
    series = np.outer(t, np.ones(5))
    integral = par.time_integral_boundary(series, dt)
    # right-endpoint rectangles on f(t) = t: dt^2 * N (N + 1) / 2
    expected = T * T / 2.0 + T * dt / 2.0
    np.testing.assert_allclose(integral, expected, rtol=1e-13)
    assert integral.shape == (5,)


def test_space_time_inner_matches_closed_form():
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    nt, T = 8, 2.0
    dt = T / nt
    t = dt * np.arange(nt + 1)
    seg = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    series = np.outer(t, np.ones(seg.size))
    value = par.space_time_inner(mesh, SegmentTag.INACCESSIBLE,
                                 series, series, dt)
    # sum of dt * t_n^2 times the segment length 2
    expected = 2.0 * dt ** 3 * sum(n * n for n in range(1, nt + 1))
    assert value == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        par.space_time_inner(mesh, SegmentTag.INACCESSIBLE,
                             series, series[:-1], dt)


def test_space_time_inner_matches_level_by_level_sum():
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    dt = 0.25
    rng = np.random.default_rng(5)
    for tag in SegmentTag:
        ns = mesh.segment_nodes(tag).size
        u, v = rng.standard_normal((2, 9, ns))
        expected = sum(dt * fem.boundary_inner(mesh, tag, u[n], v[n])
                       for n in range(1, 9))
        value = par.space_time_inner(mesh, tag, u, v, dt)
        assert value == pytest.approx(expected, rel=1e-13)
        with pytest.raises(ValueError):
            par.space_time_inner(mesh, tag, u[:, :-1], v[:, :-1], dt)
