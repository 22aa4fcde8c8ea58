import dataclasses
import math
import re

import numpy as np
import pytest

import reference_cg
import reference_quadrature
from reference_band import toarray
from robinrecon import elliptic as ell
from robinrecon import experiments, fem
from robinrecon import parabolic as par
from robinrecon.elliptic import EllipticProblem
from robinrecon.mesh import (SegmentTag, build_rect_mesh, classify_boundary,
                             signed_areas)

LX, LY = 1.0, 2.0
AREA = LX * LY

# frozen on the 8x16 reference system below for reference_cg.solve_spd;
# the CG recurrence is deterministic, so this is a regression anchor, not
# an estimate
CG_ITERATIONS_8X16 = 63


def make_mesh(nx=8, ny=16):
    return classify_boundary(build_rect_mesh(nx, ny, LX, LY))


def nodal(mesh, fn):
    return fn(mesh.nodes[:, 0], mesh.nodes[:, 1])


# ---------------------------------------------------------------------------
# assembly oracles: integrals of polynomials the quadrature must nail
# ---------------------------------------------------------------------------

def test_mass_reproduces_polynomial_integrals():
    mesh = make_mesh()
    M = fem.assemble_mass(mesh, 1.0)
    ones = np.ones(mesh.n_nodes)
    x = nodal(mesh, lambda x, y: x)
    y = nodal(mesh, lambda x, y: y)
    assert ones @ (M @ ones) == pytest.approx(AREA, rel=1e-13)
    # integral of x*y over the rectangle = (1/2) * (4/2) = 1
    assert x @ (M @ y) == pytest.approx(1.0, rel=1e-13)
    # integral of y^2 = 8/3; quadratic integrands are still exact
    assert y @ (M @ y) == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_mass_weight_scales_linearly():
    mesh = make_mesh(4, 8)
    M1 = fem.assemble_mass(mesh, 1.0)
    M3 = fem.assemble_mass(mesh, 3.0)
    np.testing.assert_allclose(toarray(M3), 3.0 * toarray(M1), rtol=1e-14)
    with pytest.raises(ValueError):
        fem.assemble_mass(mesh, -1.0)


def test_stiffness_on_linear_fields():
    mesh = make_mesh()
    K = fem.assemble_stiffness(mesh, 1.0)
    x = nodal(mesh, lambda x, y: x)
    y = nodal(mesh, lambda x, y: y)
    ones = np.ones(mesh.n_nodes)
    assert x @ (K @ x) == pytest.approx(AREA, rel=1e-13)
    assert x @ (K @ y) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(K @ ones, 0.0, atol=1e-13)
    with pytest.raises(ValueError):
        fem.assemble_stiffness(mesh, 0.0)


def test_load_vector_integrates_sources():
    mesh = make_mesh()
    b1 = fem.assemble_load(mesh, 1.0)
    bx = fem.assemble_load(mesh, lambda x, y: x)
    assert b1.sum() == pytest.approx(AREA, rel=1e-13)
    assert bx.sum() == pytest.approx(0.5 * LY, rel=1e-13)


def test_boundary_mass_is_exact_for_cubics():
    mesh = make_mesh()
    y_global = nodal(mesh, lambda x, y: y)
    ones = np.ones(mesh.n_nodes)
    y = y_global[mesh.segment_nodes(SegmentTag.INACCESSIBLE)]
    B = fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, y)
    # integral over x = 1 of y * 1 * y dy = 8/3, a cubic integrand
    assert ones @ (B @ y_global) == pytest.approx(8.0 / 3.0, rel=1e-13)
    assert ones @ (B @ ones) == pytest.approx(LY ** 2 / 2.0, rel=1e-13)


def test_boundary_mass_callable_matches_nodal_array():
    """Linear fields interpolate exactly, so the mass of a nodal linear
    weight applied to a nodal linear field is the load of their product
    as a callable, sampled by the Gauss rule of assemble_boundary_load."""
    mesh = make_mesh()
    seg = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    weight = 1.0 + 0.5 * mesh.nodes[seg, 1]
    field = np.zeros(mesh.n_nodes)
    field[seg] = 2.0 - mesh.nodes[seg, 1]
    B_arr = fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, weight)
    load_fn = fem.assemble_boundary_load(
        mesh, SegmentTag.INACCESSIBLE, lambda x, y: (1.0 + 0.5 * y) * (2.0 - y)
    )
    np.testing.assert_allclose(B_arr @ field, load_fn, atol=1e-14)


def test_boundary_mass_rejects_missized_weight():
    mesh = make_mesh()
    with pytest.raises(ValueError):
        fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, np.ones(5))


@pytest.mark.parametrize("assemble, name", [
    (fem.assemble_load, "f"),
    (fem.assemble_mass, "c"),
    (fem.assemble_stiffness, "a"),
    (lambda mesh, g: fem.assemble_boundary_load(
        mesh, SegmentTag.INACCESSIBLE, g), "g"),
], ids=["load", "mass", "stiffness", "boundary-load"])
def test_nodal_array_coefficient_is_rejected_by_name(assemble, name):
    """The volume and boundary assemblies sample their data at quadrature
    points, so they take scalars and callables, not nodal arrays.  A
    callable whose sample does not broadcast to the points is rejected
    by name too, chained from numpy's error, when the problem assembles
    it: f and g at its load, a and c at its base."""
    mesh = make_mesh(2, 2)
    with pytest.raises(TypeError, match=(
            rf"^{name}\b.* must be a scalar or a vectorized callable")):
        assemble(mesh, np.ones(mesh.n_nodes))
    data = {"a": 1.0, "c": 1.0, "f": 0.0, "g": 0.0, "h": 0.0,
            name: lambda x, y: np.ones(7)}
    prob = EllipticProblem(mesh=make_mesh(2, 4), **data)
    with pytest.raises(TypeError, match=(
            rf"^{name}\b.* must be a scalar or a vectorized callable of "
            rf"\(x, y\), got a sample of shape \(7,\)")) as info:
        prob.load if name in ("f", "g") else prob.base
    assert isinstance(info.value.__cause__, ValueError)


def _sampling(name, datum):
    """The 2 x 4 problem of each kind with datum as name, the others
    constant, and what samples it: the load, the base or the march."""
    mesh = make_mesh(2, 4)
    if name == "u0":
        prob = par.ParabolicProblem(mesh, a=1.0, f=0.0, g=0.0, h=0.0,
                                    u0=datum, T=1.0, nt=2)
        return lambda: prob.field(prob.operator(np.ones(5)))
    data = {"a": 1.0, "c": 1.0, "f": 0.0, "g": 0.0, "h": 0.0, name: datum}
    prob = EllipticProblem(mesh=mesh, **data)
    return lambda: prob.load if name == "f" else prob.base


@pytest.mark.parametrize("name, datum", [
    ("f", lambda x, y: math.sin(x)),
    ("a", lambda x, y: math.exp(x)),
    ("u0", lambda x, y: math.cos(y)),
], ids=["load", "base", "initial-value"])
def test_a_callable_not_vectorized_in_x_and_y_fails_by_name(name, datum):
    """A callable of (x, y) that takes one point at a time fails in its
    own code when sampled at all points at once; the error names the
    datum and says it must be vectorized, chained from that failure, as
    a datum of (x, y, t) not vectorized in t does."""
    sample = _sampling(name, datum)
    with pytest.raises(TypeError, match=(
            rf"^{name} must be a scalar or a vectorized callable of "
            rf"\(x, y\), it fails for points of shape")) as info:
        sample()
    assert isinstance(info.value.__cause__, TypeError)


@pytest.mark.parametrize("assemble", [
    fem.assemble_load, fem.assemble_mass, fem.assemble_stiffness,
    lambda mesh, g: fem.assemble_boundary_load(
        mesh, SegmentTag.INACCESSIBLE, g),
], ids=["load", "mass", "stiffness", "boundary-load"])
def test_a_callable_returning_a_scalar_assembles_like_the_scalar(assemble):
    """A vectorized callable may return one value for every point; it is
    broadcast to the points and assembles bit for bit like that value."""
    mesh = make_mesh(3, 5)
    by_callable = assemble(mesh, lambda x, y: 1.5)
    by_scalar = assemble(mesh, 1.5)
    if isinstance(by_scalar, fem.SymBand):
        by_callable, by_scalar = toarray(by_callable), toarray(by_scalar)
    np.testing.assert_array_equal(by_callable, by_scalar)


@pytest.mark.parametrize("coeff", [
    np.nan,
    lambda x, y: np.where(x > 0.5, np.nan, 1.0),
], ids=["constant", "nan-on-part"])
def test_a_nan_coefficient_is_rejected_when_assembled(coeff):
    """NaN fails every comparison, so the sign checks of a and c are
    written to reject it, also through the problem's operator."""
    mesh = make_mesh(2, 2)
    with pytest.raises(ValueError, match="diffusion coefficient must be"):
        fem.assemble_stiffness(mesh, coeff)
    with pytest.raises(ValueError, match="mass coefficient must be"):
        fem.assemble_mass(mesh, coeff)
    gamma = np.ones(mesh.ny + 1)
    for name in ("a", "c"):
        coefficients = {"a": 1.0, "c": 1.0, name: coeff}
        prob = EllipticProblem(mesh=mesh, f=1.0, g=0.0, h=0.0, **coefficients)
        with pytest.raises(ValueError, match="coefficient must be"):
            prob.operator(gamma)


def test_a_nan_node_fails_the_orientation_check():
    """A NaN area fails every comparison, so the orientation check is
    written to reject it rather than assemble a NaN matrix."""
    mesh = make_mesh(2, 2)
    nodes = mesh.nodes.copy()
    nodes[0, 0] = np.nan
    bad = dataclasses.replace(mesh, nodes=nodes)
    with pytest.raises(ValueError, match="non-positively oriented"):
        fem.assemble_stiffness(bad, 1.0)


def test_boundary_load_on_the_accessible_segment():
    mesh = make_mesh()
    b = fem.assemble_boundary_load(mesh, SegmentTag.ACCESSIBLE, 1.0)
    # accessible perimeter: bottom + left + top = 1 + 2 + 1
    assert b.sum() == pytest.approx(4.0, rel=1e-13)
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    interior_i = seg_i[1:-1]
    assert np.all(b[interior_i] == 0.0), "load must not leak across segments"


def test_segment_inner_product_and_norm():
    mesh = make_mesh(16, 32)
    seg = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    y = mesh.nodes[seg, 1]
    ones = np.ones(seg.size)
    assert fem.boundary_inner(mesh, SegmentTag.INACCESSIBLE, y, y) == \
        pytest.approx(8.0 / 3.0, rel=1e-12)
    assert fem.boundary_norm(mesh, SegmentTag.INACCESSIBLE, ones) == \
        pytest.approx(np.sqrt(LY), rel=1e-13)
    with pytest.raises(ValueError):
        fem.boundary_inner(mesh, SegmentTag.INACCESSIBLE, ones, ones[:-1])


def test_segment_mass_matches_inner_product():
    mesh = make_mesh()
    seg = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    M = fem.segment_mass(mesh, SegmentTag.INACCESSIBLE)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(seg.size)
    v = rng.standard_normal(seg.size)
    direct = fem.boundary_inner(mesh, SegmentTag.INACCESSIBLE, u, v)
    assert u @ (M @ v) == pytest.approx(direct, rel=1e-13)


def test_boundary_loads_match_the_per_level_quadrature():
    """The problem's boundary loads of a series of segment fields x * u,
    with x one field per level or one field for all levels (the
    derivative's d * u_i), are segment loads: those of the per-level
    Gauss quadrature of the interpolated field."""
    mesh = make_mesh()
    prob = EllipticProblem(mesh=mesh, a=1.0, c=1.0, f=0.0, g=0.0, h=0.0)
    rng = np.random.default_rng(4)
    for tag in SegmentTag:
        seg = mesh.segments[tag]
        u = rng.standard_normal((5, seg.nodes.size))
        for x in (rng.standard_normal((5, seg.nodes.size)),
                  rng.standard_normal(seg.nodes.size)):
            xs = np.broadcast_to(x, u.shape)
            expected = np.array([
                -reference_quadrature.gauss_mass(seg, xs[n] * u[n]).sum(axis=1)
                for n in range(5)
            ])
            loads = prob.boundary_loads(tag, x * u)
            assert loads.shape == u.shape
            np.testing.assert_allclose(loads, expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_boundary_loads_reject_a_field_of_another_size(example_id):
    """A direction or weight whose last axis is not the segment's node
    count fails in derivative and adjoint of both kinds instead of
    broadcasting, and so does a trace of the wrong size.  derivative takes
    the forward trace u_i only as forward gave it: a stack of traces,
    which the stationary kind would read as one trace per row, a march's
    last level alone, which would broadcast to every level, and a series
    cut short fail naming u_i and both shapes."""
    prob = experiments.make_example(example_id, nx=4, ny=8, nt=3).problem
    n_edge = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size
    op = prob.operator(np.full(n_edge, 2.0))
    u_a, u_i = prob.forward(op)
    with pytest.raises(ValueError, match=re.escape(
            "the direction d on segment INACCESSIBLE must have shape (9,), "
            "got shape (1,)")):
        prob.derivative(u_i, np.array([1.0]), op)
    q = np.ones(u_a.shape)[..., :1]
    with pytest.raises(ValueError, match=re.escape(
            f"the weight q on segment ACCESSIBLE must have shape "
            f"{u_a.shape}, got shape {q.shape}")):
        prob.adjoint(q, op)
    with pytest.raises(ValueError, match="segment INACCESSIBLE"):
        prob.derivative(u_i[..., :-1], np.ones(n_edge - 1), op)
    for bad in (np.stack([u_i, u_i]), u_i[-1], u_i[:-1]):
        with pytest.raises(ValueError, match=re.escape(
                f"forward trace u_i on segment INACCESSIBLE must have "
                f"shape {u_i.shape}, got shape {bad.shape}")):
            prob.derivative(bad, np.ones(n_edge), op)
    with pytest.raises(ValueError, match="segment ACCESSIBLE"):
        prob.boundary_loads(SegmentTag.ACCESSIBLE, 1.0)


@pytest.mark.parametrize("example_id, bad_shapes", [
    ("5.1", [(2, 17), (17, 17)]),
    ("5.3", [(17,), (2, 17, 17)]),
])
def test_adjoint_takes_one_weight_of_the_problems_levels(example_id,
                                                         bad_shapes):
    """The adjoint's weight q is one trace of the problem's shape, one
    segment field or all nt + 1 levels of one, also for a direct call of
    the module function.  A stationary stack of weights fails instead of
    being read as columns of the edge solve, a (17, 17) one included, and
    with nt + 1 = 17, the accessible node count at 4 x 8, a march's single
    field fails instead of broadcasting to every level."""
    example = experiments.make_example(example_id, nx=4, ny=8, nt=16)
    prob = example.problem
    solve_adjoint = (ell.solve_adjoint if example_id == "5.1"
                     else par.solve_adjoint_parabolic)
    op = prob.operator(np.full(9, 2.0))
    expected = prob.forward(op)[0].shape
    for shape in bad_shapes:
        with pytest.raises(ValueError, match=re.escape(
                f"the weight q on segment ACCESSIBLE must have shape "
                f"{expected}, got shape {shape}")):
            solve_adjoint(prob, np.ones(shape), op)
    solve_adjoint(prob, np.ones(expected), op)   # the problem's own shape


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
def test_a_non_finite_trace_is_rejected_by_name(example_id):
    """A NaN or an infinity in the weight q, the direction d or the
    forward trace u_i fails naming it, before any solve, instead of as a
    block solve that missed SOLVE_TOL."""
    prob = experiments.make_example(example_id, nx=4, ny=8, nt=3).problem
    op = prob.operator(np.full(9, 2.0))
    u_a, u_i = prob.forward(op)
    d = np.ones(u_i.shape[-1])
    for bad in (np.nan, np.inf):
        q, d_bad, u_bad = np.ones(u_a.shape), d.copy(), u_i.copy()
        q.flat[5] = d_bad[2] = u_bad.flat[3] = bad
        for name, call in (
                ("the weight q", lambda: prob.adjoint(q, op)),
                ("the direction d", lambda: prob.derivative(u_i, d_bad, op)),
                ("the forward trace u_i",
                 lambda: prob.derivative(u_bad, d, op))):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} holds non-finite values (NaN or inf)")):
                call()


def test_a_source_may_return_its_own_points():
    """Samples that already have the points' shape are used uncopied: a
    source that returns its own x argument changes neither those
    coordinates nor the mesh, and loads as a copy of them would, for one
    level and, sampled once, for three times."""
    mesh = make_mesh()
    nodes = mesh.nodes.copy()
    times = np.array([0.5, 1.0, 1.5])
    seen = []

    def own_x(x, y, t=None):
        seen.append((x, x.copy()))
        return x

    def copy_of_x(x, y, t=None):
        return x.copy()

    for assemble in (lambda f, *times: fem.assemble_load(mesh, f, *times),
                     lambda f, *times: fem.assemble_boundary_load(
                         mesh, SegmentTag.ACCESSIBLE, f, *times)):
        np.testing.assert_array_equal(assemble(own_x), assemble(copy_of_x))
        np.testing.assert_array_equal(assemble(own_x, times),
                                      assemble(copy_of_x, times))
    np.testing.assert_array_equal(toarray(fem.assemble_mass(mesh, own_x)),
                                  toarray(fem.assemble_mass(mesh, copy_of_x)))
    assert len(seen) == 5
    for x, before in seen:
        np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(mesh.nodes, nodes)


# ---------------------------------------------------------------------------
# band matrices
# ---------------------------------------------------------------------------

def test_p1_matrices_are_stored_by_their_upper_diagonals():
    """Numbered by column, the mass matrix has the diagonals 0, 1, ny + 1
    and ny + 2 and is the sum of the element masses (area/12) [[2, 1, 1],
    [1, 2, 1], [1, 1, 2]]; a segment mass on the Robin edge x = lx has
    the diagonals 0 and 1 and embeds segment_mass."""
    mesh = make_mesh(3, 5)
    n = mesh.n_nodes
    M = fem.assemble_mass(mesh, 1.0)
    assert M.shape == (n, n)
    K = fem.assemble_stiffness(mesh, 1.0)
    assert M.offsets == K.offsets == (0, 1, 6, 7)
    dense = np.zeros((n, n))
    tri = mesh.triangles
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    np.add.at(dense, (tri[:, :, None], tri[:, None, :]),
              signed_areas(mesh.nodes[tri])[:, None, None] * local)
    np.testing.assert_allclose(toarray(M), dense, rtol=1e-14, atol=0.0)
    tag = SegmentTag.INACCESSIBLE
    gamma = np.linspace(1.0, 2.0, mesh.ny + 1)
    B = fem.assemble_boundary_mass(mesh, tag, gamma)
    assert B.offsets == (0, 1)
    dense = np.zeros((n, n))
    nodes = mesh.segment_nodes(tag)
    dense[np.ix_(nodes, nodes)] = fem.segment_mass(mesh, tag, gamma)
    np.testing.assert_array_equal(toarray(B), dense)


def test_band_arithmetic_matches_the_dense_arithmetic():
    """Sums and quotients of band matrices, also of matrices with
    different diagonals, are those of their dense arrays; entries given
    twice are summed, and a dense array must be symmetric."""
    mesh = make_mesh(3, 5)
    K = fem.assemble_stiffness(mesh, 1.0)
    M = fem.assemble_mass(mesh, 1.0)
    B = fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, 2.0)
    k, m, b = toarray(K), toarray(M), toarray(B)
    for band, dense in ((K + M, k + m), (M / 0.1 + K, m / 0.1 + k),
                        (K + B, k + b), (B + K, b + k)):
        np.testing.assert_array_equal(toarray(band), dense)
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 4.0], [0.0, 4.0, 5.0]])
    S = dense_band(A)
    assert S.offsets == (0, 1) and S.nnz == 7
    np.testing.assert_array_equal(toarray(S), A)
    twice = fem.SymBand.from_entries(3, np.array([0, 0, 0, 1, 1, 2]),
                                     np.array([0, 1, 0, 1, 2, 2]),
                                     np.array([1.0, 1.0, 1.0, 3.0, 4.0, 5.0]))
    np.testing.assert_array_equal(toarray(twice), A)
    with pytest.raises(ValueError, match="symmetric"):
        dense_band(np.triu(A))
    # only two bands of one shape add
    with pytest.raises(TypeError):
        K + 1.0
    with pytest.raises(ValueError,
                       match=r"shapes differ: \(24, 24\) and \(9, 9\)"):
        K + fem.assemble_mass(make_mesh(2, 2), 1.0)


@pytest.mark.parametrize("nx, ny, nnz", [
    (8, 16, 969), (16, 32, 3729), (64, 128, 57921)])
def test_operator_nnz_counts_the_p1_pattern(nx, ny, nnz):
    """An operator's nnz is that of its base, the entries of the P1
    pattern: n_nodes + 2 (nx (ny + 1) + (nx + 1) ny + nx ny)."""
    assert nnz == (nx + 1) * (ny + 1) + 2 * (nx * (ny + 1) + (nx + 1) * ny
                                             + nx * ny)
    for example_id in ("5.1", "5.3"):
        prob = experiments.make_example(example_id, nx=nx, ny=ny, nt=4).problem
        assert prob.operator(np.full(ny + 1, 2.0)).nnz == prob.base.nnz == nnz


# ---------------------------------------------------------------------------
# solver behavior
# ---------------------------------------------------------------------------

def reference_system():
    mesh = make_mesh()
    K = fem.assemble_stiffness(mesh, 1.0)
    M = fem.assemble_mass(mesh, 1.0)
    B = fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, 2.0)
    A = K + M + B
    b = fem.assemble_load(mesh, lambda x, y: np.cos(np.pi * y) + x)
    return A, b


def column_widths(mesh):
    """One block per mesh column."""
    return [mesh.ny + 1] * (mesh.nx + 1)


def dense_band(A):
    """The SymBand of a dense symmetric array."""
    return fem.SymBand.from_block(len(A), np.arange(len(A)), A)


def coupled_rows(factor):
    """For each leading block k, one slice around the rows that C_{k+1}^T
    reaches."""
    return [fem._around((lo + d, hi + d) for d, lo, hi, v in coupling)
            for coupling in factor._coupling[1:]]


def reference_factor(A):
    factor = fem.BlockLDLT(A, column_widths(make_mesh()))
    return factor.complete(np.zeros_like(factor.schur))


# The test_solve_spd_* tests below cover reference_cg.solve_spd, the
# Jacobi CG that the library's block solve is checked against, and
# fem.solve_spd where both apply.

def test_solve_spd_reaches_tolerance():
    A, b = reference_system()
    stats = {}
    x = reference_cg.solve_spd(A, b, tol=1e-10, stats=stats)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert stats["iterations"] == CG_ITERATIONS_8X16


def test_solve_spd_zero_rhs_shortcut():
    A, _ = reference_system()
    zero = np.zeros(A.shape[0])
    for solve, op in ((reference_cg.solve_spd, A),
                      (fem.solve_spd, reference_factor(A))):
        stats = {}
        x = solve(op, zero, stats=stats)
        assert np.all(x == 0.0)
        assert stats["iterations"] == 0


def test_solve_spd_is_deterministic():
    A, b = reference_system()
    x1 = reference_cg.solve_spd(A, b, tol=1e-10)
    x2 = reference_cg.solve_spd(A, b, tol=1e-10)
    np.testing.assert_array_equal(x1, x2)
    factor = reference_factor(A)
    np.testing.assert_array_equal(fem.solve_spd(factor, b),
                                  fem.solve_spd(factor, b))


def test_solve_spd_rejects_bad_tolerance():
    A, b = reference_system()
    with pytest.raises(ValueError):
        reference_cg.solve_spd(A, b, tol=0.0)


def test_solve_spd_detects_indefinite_matrix():
    A = dense_band(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(fem.CurvatureBreakdown):
        reference_cg.solve_spd(A, np.ones(3))


def test_solve_spd_reports_stalled_convergence():
    A, b = reference_system()
    with pytest.raises(fem.ConvergenceFailure):
        reference_cg.solve_spd(A, b, tol=1e-12, max_iter=2)


def test_solve_spd_rejects_a_factor_that_does_not_solve_its_matrix(
        monkeypatch):
    """A factor whose edge pivot inverse is that of half the Robin edge
    block is SPD but solves another matrix: the residual check names the
    miss."""
    prob = experiments.make_example("5.1", nx=4, ny=8).problem
    tag = SegmentTag.INACCESSIBLE
    gamma = np.full(prob.mesh.segment_nodes(tag).size, 2.0)
    op = prob.operator(gamma)
    edge = fem.segment_mass(prob.mesh, tag, gamma)
    spd_inverse = fem._spd_inverse
    monkeypatch.setattr(fem, "_spd_inverse",
                        lambda P: spd_inverse(P - 0.5 * edge))
    wrong = prob.operator(gamma)
    fem.solve_spd(op, prob.load)
    with pytest.raises(fem.LinearSolveError, match="missed SOLVE_TOL") as info:
        fem.solve_spd(wrong, prob.load)
    assert isinstance(info.value, fem.ConvergenceFailure)


def test_block_factor_is_an_exact_preconditioner():
    """One factor application meets SOLVE_TOL and agrees with the
    reference CG."""
    A, b = reference_system()
    factor = reference_factor(A)
    assert factor.nnz == A.nnz
    stats = {}
    x = fem.solve_spd(factor, b, stats=stats)
    assert stats["iterations"] == 1
    assert np.linalg.norm(b - A @ x) <= fem.SOLVE_TOL * np.linalg.norm(b)
    np.testing.assert_allclose(x, reference_cg.solve_spd(A, b, tol=1e-12),
                               rtol=1e-9)


def test_solve_spd_takes_columns():
    """An (n, m) right-hand side takes one factor application: each column
    agrees with its own vector solve, and zero columns stay zero."""
    prob = experiments.make_example("5.3", nx=10, ny=32, nt=4).problem
    op = prob.operator(np.full(33, 2.0))
    rng = np.random.default_rng(0)
    B = rng.standard_normal((prob.mesh.n_nodes, 4))
    B[:, 2] = 0.0
    stats = {}
    X = fem.solve_spd(op, B, stats=stats)
    assert stats["iterations"] == 1
    assert X.shape == B.shape
    assert np.all(X[:, 2] == 0.0) and not np.any(np.signbit(X[:, 2]))
    for j in (0, 1, 3):
        x = fem.solve_spd(op, B[:, j])
        assert np.linalg.norm(X[:, j] - x) <= 1e-13 * np.linalg.norm(x)
    zero = np.zeros_like(B)
    stats = {}
    assert np.all(fem.solve_spd(op, zero, stats=stats) == 0.0)
    assert stats["iterations"] == 0


def test_solve_spd_names_the_column_that_missed_solve_tol(monkeypatch):
    prob = experiments.make_example("5.1", nx=4, ny=8).problem
    tag = SegmentTag.INACCESSIBLE
    gamma = np.full(prob.mesh.segment_nodes(tag).size, 2.0)
    prob.operator(gamma)
    edge = fem.segment_mass(prob.mesh, tag, gamma)
    spd_inverse = fem._spd_inverse
    monkeypatch.setattr(fem, "_spd_inverse",
                        lambda P: spd_inverse(P - 0.5 * edge))
    wrong = prob.operator(gamma)
    B = np.column_stack([np.zeros(prob.mesh.n_nodes), prob.load])
    with pytest.raises(fem.ConvergenceFailure,
                       match="missed SOLVE_TOL in column 1"):
        fem.solve_spd(wrong, B)


def test_block_factor_needs_its_last_pivot_before_it_solves():
    A, b = reference_system()
    leading = fem.BlockLDLT(A, column_widths(make_mesh()))
    assert not hasattr(leading, "solve")
    with pytest.raises(AttributeError):
        fem.solve_edge(leading, b[-len(leading.schur):])


def test_block_factor_rejects_an_order_that_is_not_block_tridiagonal():
    """Blocks narrower than the band couple blocks that are not
    neighbours; widths must be positive and sum to the order."""
    A, _ = reference_system()
    mesh = make_mesh()
    column = mesh.ny + 1
    with pytest.raises(ValueError, match="neighbours"):
        fem.BlockLDLT(A, [column // 2, column - column // 2]
                      + [column] * mesh.nx)
    for widths in ([column] * mesh.nx, [column] * (mesh.nx + 2),
                   [0] + [column] * (mesh.nx + 1)):
        with pytest.raises(ValueError, match="every unknown"):
            fem.BlockLDLT(A, widths)


def test_operators_of_one_problem_share_the_leading_factor():
    """The base is factored once per problem: two operators share its
    leading pivots and differ in their edge pivot only."""
    example = experiments.make_example("5.1", nx=4, ny=8)
    prob = example.problem
    n_edge = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size
    first = prob.operator(np.full(n_edge, 1.0))
    second = prob.operator(np.full(n_edge, 2.0))
    assert first.factor is second.factor is prob.base_factor
    assert not np.array_equal(first._last, second._last)
    b = prob.load
    for op, gamma in ((first, 1.0), (second, 2.0)):
        A = prob.base + fem.assemble_boundary_mass(
            prob.mesh, SegmentTag.INACCESSIBLE, np.full(n_edge, gamma))
        x = op.solve(b)
        assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)


def test_block_factor_completes_only_with_a_symmetric_last_block():
    """complete takes the last diagonal block as a finite symmetric array
    of the edge's order: a vector, which would broadcast into every row of
    Sigma, and an asymmetric block, which would be factored as some other
    matrix, are refused by shape and symmetry, and a NaN or an infinite
    entry as non-finite, before any pivot is factored."""
    prob = experiments.make_example("5.1", nx=4, ny=8).problem
    w = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size
    edge = fem.segment_mass(prob.mesh, SegmentTag.INACCESSIBLE, 2.0)
    skewed = edge.copy()
    skewed[0, 1] += 1.0
    for last, shape in ((np.diag(edge), (w,)), (edge[:-1], (w - 1, w)),
                        (skewed, (w, w))):
        with pytest.raises(ValueError, match=(
                rf"symmetric block of order {w} .* shape \({shape[0]},")):
            prob.base_factor.complete(last)
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = edge.copy()
        spoiled[1, 1] = bad
        with pytest.raises(ValueError, match=(
                rf"symmetric block of order {w} holds non-finite")):
            prob.base_factor.complete(spoiled)
    x = prob.base_factor.complete(edge).solve(prob.load)
    A = prob.base + fem.assemble_boundary_mass(
        prob.mesh, SegmentTag.INACCESSIBLE, 2.0)
    assert np.linalg.norm(prob.load - A @ x) <= \
        fem.SOLVE_TOL * np.linalg.norm(prob.load)


def test_an_uncompleted_factor_does_not_solve():
    """The base factor keeps its last pivot unfactored, so neither a full
    solve nor a solve on the last block runs before complete: only the
    Operator that complete gives has them."""
    factor = experiments.make_example("5.1", nx=4, ny=8).problem.base_factor
    assert not hasattr(factor, "solve")
    with pytest.raises(AttributeError):
        fem.solve_edge(factor, np.ones(len(factor.schur)))


def test_backward_sweep_reaches_only_the_coupled_mesh_column():
    """C_{k+1}^T x_{k+1} reaches only the last mesh column of a grouped
    block: the diagonal edges' coupling diagonal is stored without the
    zeros at its ends, so the dense steps read only those rows; a block
    of one mesh column is reached whole and takes the diagonal-wise step
    with all of D_k^{-1}."""
    prob = experiments.make_example("5.1", nx=16, ny=32).problem
    column = prob.mesh.ny + 1
    grouped = prob.base_factor
    assert [span.stop - span.start for span in grouped._spans[:-1]] == \
        [4 * column] * 4
    assert coupled_rows(grouped) == [slice(3 * column, 4 * column)] * 4
    # the dense steps read the same rows: G_k from the reach of block
    # k - 1 through block k, H_k the first mesh column of block k + 1
    assert [step[1] for step in grouped._dense[1:-1]] == \
        [slice(4 * column * k - column, 4 * column * (k + 1))
         for k in range(1, 4)]
    assert [step[3] for step in grouped._dense[:-1]] == \
        [slice(0, column)] * 4
    by_column = fem.BlockLDLT(prob.base, column_widths(prob.mesh))
    assert coupled_rows(by_column) == [slice(0, column)] * prob.mesh.nx
    assert by_column._dense == [None] * (prob.mesh.nx + 1)


@pytest.mark.parametrize("example_id, nx, ny, nt", [
    ("5.1", 64, 128, 64),   # the elliptic-fine mesh
    ("5.3", 16, 32, 64),    # the parabolic-march size
])
def test_factored_solves_meet_solve_tol_in_one_iteration(
        monkeypatch, example_id, nx, ny, nt):
    """One factor application meets SOLVE_TOL: each forward, derivative
    and adjoint solve applies the factor of its operator once and passes
    the residual check.  A march makes one full solve per step; the
    stationary kind makes one edge solve each, after the two full solves
    and two edge solves that build and check its condensation."""
    example = experiments.make_example(example_id, nx=nx, ny=ny, nt=nt)
    prob = example.problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    iterations, edge_solves = [], []
    solve, solve_edge = fem.solve_spd, fem.solve_edge

    def counted(*args, **kwargs):
        stats = {}
        x = solve(*args, stats=stats, **kwargs)
        iterations.append(stats["iterations"])
        return x

    def counted_edge(op, r):
        edge_solves.append(r.shape)
        return solve_edge(op, r)

    monkeypatch.setattr(fem, "solve_spd", counted)
    monkeypatch.setattr(fem, "solve_edge", counted_edge)
    op = prob.operator(experiments.interpolate_gamma(prob.mesh,
                                                     example.gamma_star))
    u_a, u_i = prob.forward(op)
    rng = np.random.default_rng(0)
    prob.derivative(u_i, rng.uniform(-1.0, 1.0, seg_i.size), op)
    prob.adjoint(rng.uniform(-1.0, 1.0, u_a.shape), op)
    if isinstance(prob, EllipticProblem):
        # the condensation's anchor and its probe, the probe's and the
        # load's edge solves, then the three solves
        assert iterations == [1, 1]
        assert edge_solves == [seg_i.shape] * 5
    else:
        assert iterations == [1] * (3 * nt)
        assert edge_solves == []


@pytest.mark.xfail(strict=True, raises=fem.ConvergenceFailure, reason=(
    "a constant load on the 64 x 128 mesh leaves a relative residual of "
    "2.65e-12: SOLVE_TOL sits at the rounding floor of b - A x itself"))
def test_constant_load_meets_solve_tol_at_the_elliptic_fine_mesh():
    """A valid stationary problem, f = 1 with c = 1 and gamma = 1 on the
    elliptic-fine mesh, solves to SOLVE_TOL.  It does not yet: one step
    of iterative refinement gives 8.2e-13 here, but 2.0e-12 with c = 0
    and 3.3e-12 at 128 x 256, so 1e-12 of ||b|| is at the rounding floor
    of computing b - A x."""
    mesh = make_mesh(64, 128)
    prob = EllipticProblem(mesh=mesh, a=1.0, c=1.0, f=1.0, g=0.0, h=0.0)
    op = prob.operator(
        np.ones(mesh.segment_nodes(SegmentTag.INACCESSIBLE).size))
    fem.solve_spd(op, prob.load)


def _edge_shifted_stiffness():
    """K + M - 100 B_1 on the reference mesh, B_1 the unit boundary mass of
    the inaccessible edge: its leading pivots are those of K + M, only
    the edge pivot is indefinite."""
    mesh = make_mesh()
    A = (fem.assemble_stiffness(mesh, 1.0) + fem.assemble_mass(mesh, 1.0)
         + fem.assemble_boundary_mass(mesh, SegmentTag.INACCESSIBLE, -100.0))
    return A, column_widths(mesh)


@pytest.mark.parametrize("A, widths", [
    (dense_band(np.diag([1.0, -1.0, 1.0])), [1, 1, 1]),
    (dense_band(np.array([[1.0, 2.0], [2.0, 1.0]])), [1, 1]),
    (dense_band(
        toarray(fem.assemble_stiffness(make_mesh(), 1.0))
        - 100.0 * toarray(fem.assemble_mass(make_mesh(), 1.0))),
     column_widths(make_mesh())),
    _edge_shifted_stiffness(),
], ids=["negative-diagonal", "indefinite", "shifted-stiffness", "indefinite-edge"])
def test_block_factor_rejects_non_spd_matrix(A, widths):
    with pytest.raises(fem.LinearSolveError) as info:
        fem.BlockLDLT(A, widths).complete(np.zeros((widths[-1],) * 2))
    assert isinstance(info.value, fem.CurvatureBreakdown)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_block_factor_rejects_an_indefinite_edge_pivot_on_completion():
    A, widths = _edge_shifted_stiffness()
    leading = fem.BlockLDLT(A, widths)
    nb = len(widths)
    with pytest.raises(fem.CurvatureBreakdown,
                       match=f"pivot block {nb - 1} of {nb} "):
        leading.complete(np.zeros_like(leading.schur))
