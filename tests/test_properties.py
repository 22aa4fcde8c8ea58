"""Properties checked over randomized inputs through the problem protocol.

hypothesis draws the mesh size and a seed; numpy draws the coefficient,
the direction and the weight from that seed.  derandomize=True makes the
example sequence a fixed function of the test, so every run sees the same
cases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_cg
import reference_quadrature
from reference_band import toarray
import sin_in_t
import surrogate
from robinrecon import experiments as ex
from robinrecon import fem
from robinrecon import lm
from robinrecon.mesh import SegmentTag, build_rect_mesh, classify_boundary


# 5.3 with data nonlinear in t, beside the registered examples
SIN_IN_T = "5.3-sin-t"


def _example(example_id, nx, ny, nt):
    if example_id == SIN_IN_T:
        return sin_in_t.example(nx, ny, nt)
    return ex.make_example(example_id, nx=nx, ny=ny, nt=nt)


@pytest.mark.parametrize("example_id", ["5.1", "5.3", SIN_IN_T])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity_on_random_meshes(example_id, nx, ny, nt, seed):
    """(D[gamma] d, u p) on the accessible side equals (u d, w*) on the
    inaccessible side, for any admissible gamma, d and p, also for data
    nonlinear in t."""
    prob = _example(example_id, nx, ny, nt).problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = prob.mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, seg_i.size)
    op = prob.operator(gamma)
    u_a, u_i = prob.forward(op)
    d = rng.uniform(-1.0, 1.0, seg_i.size)
    q = rng.uniform(-1.0, 1.0, u_a.shape)
    w_a = prob.derivative(u_i, d, op)
    ws_i = prob.adjoint(q, op)
    lhs = prob.inner(SegmentTag.ACCESSIBLE, w_a, q)
    rhs = prob.inner(SegmentTag.INACCESSIBLE, u_i * d, ws_i)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    assert gap <= ex.ADJOINT_TOL


@pytest.mark.parametrize("example_id", ["5.1", "5.3", SIN_IN_T])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6))
@example(nx=10, ny=32, nt=4)   # leading blocks of 132, 132 and 66
def test_exact_coefficient_is_a_fixed_point(example_id, nx, ny, nt):
    """Noise-free data at the exact coefficient leave nothing to correct:
    the first step measures a zero residual and stays where it started,
    with one leading block or several, also for data nonlinear in t."""
    _assert_fixed_point(example_id, nx, ny, nt)


@pytest.mark.parametrize("example_id", ["5.1", "5.2"])
def test_exact_coefficient_is_a_fixed_point_with_a_dense_edge_step(
        example_id):
    """At 16 x 32 the last leading block holds four mesh columns, so a
    full solve steps the Robin edge densely and its edge block differs
    from the edge solve in the last bits; the condensation keeps the
    edge solve of its load as u_edge, so the stationary fixed point
    still measures an exact zero residual."""
    _assert_fixed_point(example_id, 16, 32, 4)


def _assert_fixed_point(example_id, nx, ny, nt):
    example = _example(example_id, nx, ny, nt)
    prob = example.problem
    gamma_star = ex.interpolate_gamma(prob.mesh, example.gamma_star)
    z = ex.exact_observation(example)
    state = lm.run(prob, gamma_star, z, lm.LmConfig(eps=1e-3),
                   gamma_star=gamma_star)
    assert state.k == 1
    row = state.history[0]
    assert (row.residual, row.beta, row.rel_change, row.rel_error) == \
        (0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(state.gamma, gamma_star)


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_block_factor_solves_the_operator(example_id, nx, ny, nt, seed):
    """An operator applies and its block LDL^T factor solves base +
    B_gamma, as assembled here with the global boundary mass, to
    rounding, and the library's block solve agrees with the reference
    Jacobi CG on it.  The blocks are groups of the nx leading mesh
    columns and the Robin edge alone last; nx = 1 leaves a single
    leading column."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=nt).problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, seg_i.size)
    op = prob.operator(gamma)
    S = prob.base + fem.assemble_boundary_mass(
        prob.mesh, SegmentTag.INACCESSIBLE, gamma)
    assert op.nnz == S.nnz
    b = rng.standard_normal(prob.mesh.n_nodes)
    assert np.linalg.norm(op.matvec(b) - S @ b) <= 1e-13 * np.linalg.norm(S @ b)
    x = op.solve(b)
    assert np.linalg.norm(b - S @ x) <= 1e-12 * np.linalg.norm(b)
    factored = fem.solve_spd(op, b)
    jacobi = reference_cg.solve_spd(S, b)
    assert np.linalg.norm(factored - jacobi) <= 1e-9 * np.linalg.norm(jacobi)


def _blocks(factor):
    """The node ids of each block of a factor, a run of consecutive ids."""
    return [np.arange(span.start, span.stop) for span in factor._spans]


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(nx=st.integers(1, 12),
       ny=st.one_of(st.integers(1, 40),
                    st.integers(fem._BLOCK_WIDTH - 2, fem._BLOCK_WIDTH + 8)),
       seed=st.integers(0, 2**32 - 1))
@example(nx=1, ny=8, seed=0)                  # one leading column
@example(nx=10, ny=32, seed=1)                # g = 4 leaves a group of 2
@example(nx=3, ny=fem._BLOCK_WIDTH, seed=2)   # a column is a block
@example(nx=4, ny=40, seed=3)                 # a group of 3, then a column
@example(nx=16, ny=32, seed=4)                # the parabolic-march mesh
@example(nx=64, ny=128, seed=5)               # the elliptic-fine mesh
def test_grouped_block_factor_agrees_with_the_column_factor(
        example_id, nx, ny, seed):
    """The base factor's blocks list every unknown once, in node order:
    the leading mesh columns g at a time, g the column count nearest to
    _BLOCK_WIDTH unknowns (at least one, the last group what is left
    over), and the Robin edge alone last.  A leading block of two or more
    mesh columns, which its couplings reach in part, takes the dense
    steps, and a block of one column the diagonal-wise ones.  A completed
    factor builds its steps on its first full solve, and steps the edge
    densely, G_I = [-Sigma^{-1} C_I | Sigma^{-1}], exactly when its last
    leading block holds two or more mesh columns.  Its solves of one
    right-hand side or three meet SOLVE_TOL on the assembled operator and
    agree with those of one block per mesh column, which takes no dense
    step."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=4).problem
    tag = SegmentTag.INACCESSIBLE
    blocks = _blocks(prob.base_factor)
    g = max(1, round(fem._BLOCK_WIDTH / (ny + 1)))
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  np.arange(prob.mesh.n_nodes))
    assert [block.size for block in blocks[:-1]] == \
        [min(g, nx - i) * (ny + 1) for i in range(0, nx, g)]
    np.testing.assert_array_equal(blocks[-1], prob.mesh.segment_nodes(tag))
    assert [step is not None for step in prob.base_factor._dense] == \
        [block.size > ny + 1 for block in blocks[:-1]] + [False]
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, blocks[-1].size)
    S = prob.base + fem.assemble_boundary_mass(prob.mesh, tag, gamma)
    column_factor = fem.BlockLDLT(prob.base, [ny + 1] * (nx + 1))
    assert column_factor._dense == [None] * (nx + 1)
    column_factor = fem.Operator(column_factor,
                                 fem.segment_mass(prob.mesh, tag, gamma))
    op = prob.operator(gamma)
    assert "_sweep" not in op.__dict__
    for b in (rng.standard_normal(prob.mesh.n_nodes),
              rng.standard_normal((prob.mesh.n_nodes, 3))):
        x = op.solve(b)
        assert np.all(np.linalg.norm(b - S @ x, axis=0)
                      <= fem.SOLVE_TOL * np.linalg.norm(b, axis=0))
        by_column = column_factor.solve(b)
        assert np.all(np.linalg.norm(x - by_column, axis=0)
                      <= 1e-12 * np.linalg.norm(by_column, axis=0))
    span, couplings, G, source = op._sweep[-1]
    dense = blocks[-2].size > ny + 1
    assert (couplings == (), G.shape[1] > G.shape[0]) == (dense, dense)
    assert span == slice(blocks[-1][0], blocks[-1][-1] + 1)


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(nx=st.integers(1, 10), ny=st.integers(1, 24), grouped=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(nx=3, ny=fem._BLOCK_WIDTH, grouped=True, seed=0)  # a column is a block
@example(nx=10, ny=32, grouped=True, seed=1)    # g = 4 leaves a group of 2
def test_block_factor_matches_the_dense_matrix(example_id, nx, ny, grouped,
                                               seed):
    """The factor of the gamma-free base, by the _BLOCK_WIDTH grouping of
    the mesh columns or by a random one, holds the dense matrix's own
    pieces: schur is the Schur complement A_II - A_IL A_LL^{-1} A_LI of
    the last block I to 1e-12 relative, and each coupling C_k, rebuilt
    from its diagonals, is A[blocks[k]][:, blocks[k - 1]] exactly."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=4).problem
    if grouped:
        factor = prob.base_factor
    else:
        rng = np.random.default_rng(seed)
        cuts = rng.choice(np.arange(1, nx + 1), rng.integers(1, nx + 1),
                          replace=False)
        factor = fem.BlockLDLT(
            prob.base, np.diff(np.r_[0, np.sort(cuts), nx + 1]) * (ny + 1))
    blocks = _blocks(factor)
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  np.arange(prob.mesh.n_nodes))
    A = toarray(prob.base)
    lead, last = np.concatenate(blocks[:-1]), blocks[-1]
    schur = A[np.ix_(last, last)] - A[np.ix_(last, lead)] @ np.linalg.solve(
        A[np.ix_(lead, lead)], A[np.ix_(lead, last)])
    assert np.linalg.norm(factor.schur - schur) <= \
        1e-12 * np.linalg.norm(schur)
    assert factor._coupling[0] == []
    for k in range(1, len(blocks)):
        C = np.zeros((blocks[k].size, blocks[k - 1].size))
        for d, lo, hi, v in factor._coupling[k]:
            i = np.arange(lo, hi)
            C[i, i + d] = v
        np.testing.assert_array_equal(C, A[np.ix_(blocks[k], blocks[k - 1])])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(nx=st.integers(1, 12),
       ny=st.one_of(st.integers(1, 40),
                    st.integers(fem._BLOCK_WIDTH - 2, fem._BLOCK_WIDTH + 8)),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(nx=1, ny=8, k=1, seed=0)                  # one leading column
@example(nx=10, ny=32, k=2, seed=1)                # g = 4 leaves a group of 2
@example(nx=3, ny=fem._BLOCK_WIDTH, k=3, seed=2)   # a column is a block
def test_condensed_traces_match_full_field_solves(nx, ny, k, seed):
    """The stationary problem's traces come from its interior condensed
    onto the Robin edge, anchored at the operator of its first reduced
    solve; at another gamma in the box they match full-field solves of
    that operator to 1e-12: the forward traces u_a and u_i, the adjoint
    trace w_i for a random weight p, and the accessible derivative
    traces for a (k, segment) stack of directions."""
    prob = ex.make_example("5.1", nx=nx, ny=ny).problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = prob.mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    rng = np.random.default_rng(seed)
    anchor, gamma = rng.uniform(prob.gamma_min, prob.gamma_max,
                                (2, seg_i.size))
    prob.forward(prob.operator(anchor))
    op = prob.operator(gamma)
    u = fem.solve_spd(op, prob.load)
    p = rng.uniform(-1.0, 1.0, seg_a.size)
    d = rng.uniform(-1.0, 1.0, (k, seg_i.size))
    # the segment loads scattered to the mesh
    loads = np.zeros((k + 1, prob.mesh.n_nodes))
    loads[0, seg_a] = prob.boundary_loads(SegmentTag.ACCESSIBLE, p)
    loads[1:, seg_i] = prob.boundary_loads(SegmentTag.INACCESSIBLE,
                                           d * u[seg_i])
    w = fem.solve_spd(op, loads[0])
    D = fem.solve_spd(op, loads[1:].T).T
    u_a, u_i = prob.forward(op)
    pairs = [(u_a, u[seg_a]), (u_i, u[seg_i]),
             (prob.adjoint(p, op), w[seg_i]),
             (prob.derivative(u_i, d, op), D[:, seg_a])]
    for condensed, full in pairs:
        assert condensed.shape == full.shape
        assert np.linalg.norm(condensed - full) <= 1e-12 * np.linalg.norm(full)


@pytest.mark.parametrize("piece", ["Z", "load"])
def test_condensation_check_catches_one_perturbed_entry(monkeypatch, piece):
    """The condensation is checked once, when it is built: one entry of Z
    (seen by the probe column) or of the condensed load (seen by the
    anchor's edge trace) moved by 1e-6 misses SOLVE_TOL, and the L-M run
    that builds it fails in its first iteration."""
    example = ex.make_example("5.1", nx=4, ny=8)
    prob = example.problem
    z = ex.exact_observation(example)
    gamma = np.full(prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size, 2.0)
    condense = fem.BlockLDLT.condense

    def perturbed(self, b, rows):
        load, Z = condense(self, b, rows)
        {"load": load, "Z": Z}[piece].flat[0] += 1e-6
        return load, Z

    monkeypatch.setattr(fem.BlockLDLT, "condense", perturbed)
    with pytest.raises(fem.ConvergenceFailure,
                       match=f"condensation missed SOLVE_TOL in {piece}"):
        prob.forward(prob.operator(gamma))
    state = lm.run(dataclasses.replace(prob), gamma, z, lm.LmConfig(eps=1e-3))
    assert state.stop_reason == "error"
    # the message a ConvergenceFailure writes, after the iteration
    assert state.error.startswith(
        f"iteration 1 failed: condensation missed SOLVE_TOL in {piece}")


def test_condensation_check_catches_a_corrupted_leading_pivot():
    """A fault in the leading factor, the first pivot inverse scaled by 1
    + 1e-6 in one entry, fails the checked solves that build the
    condensation."""
    prob = ex.make_example("5.1", nx=16, ny=32).problem
    prob.base_factor._dinv[0][0, 0] *= 1.0 + 1e-6
    gamma = np.full(prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE).size, 2.0)
    with pytest.raises(fem.ConvergenceFailure, match="SOLVE_TOL"):
        prob.forward(prob.operator(gamma))


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_surrogate_minimizer_beats_random_probes(example_id, nx, ny, nt, seed):
    """The pre-clamp update gamma_k + G / (A + beta) of an L-M step
    minimizes the step's surrogate quadratic: no random probe, the iterate
    included, does better."""
    example = ex.make_example(example_id, nx=nx, ny=ny, nt=nt)
    prob = example.problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    rng = np.random.default_rng(seed)
    z = ex.add_noise(ex.exact_observation(example), 0.02, seed)
    gamma_k = rng.uniform(prob.gamma_min, prob.gamma_max, seg_i.size)
    A = rng.uniform(0.5, 2.0)
    residual, beta, grad, *_ = lm._quantities(prob, gamma_k, z)
    update = gamma_k + grad / (A + beta)
    state = lm.run(prob, gamma_k, z, lm.LmConfig(eps=1e-3, A=A, max_iters=1))
    assert np.array_equal(state.gamma,
                          np.clip(update, prob.gamma_min, prob.gamma_max))
    objective = surrogate.make_surrogate_objective(prob, gamma_k, grad, beta,
                                                   A=A)
    j_min = objective(update)
    assert j_min <= objective(gamma_k)
    for _ in range(10):
        probe = update + rng.uniform(-0.1, 0.1, seg_i.size)
        assert j_min <= objective(probe) * (1.0 + 1e-12)


@pytest.mark.parametrize("tag", list(SegmentTag))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_segment_mass_is_spd_and_gives_the_inner_product(tag, nx, ny, seed):
    """The segment mass is symmetric positive definite, and u @ M @ v is
    boundary_inner(u, v), to rounding relative to the segment norms.  The
    mass of a positive nodal weight is that of the 2-point Gauss rule on
    the interpolated weight, to rounding relative to its largest entry."""
    mesh = classify_boundary(build_rect_mesh(nx, ny, ex.LX, ex.LY))
    M = fem.segment_mass(mesh, tag)
    assert np.array_equal(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0.0
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1.0, 1.0, (2, M.shape[0]))
    scale = np.sqrt((u @ M @ u) * (v @ M @ v))
    assert abs(u @ M @ v - fem.boundary_inner(mesh, tag, u, v)) <= 1e-14 * scale
    w = rng.uniform(0.1, 10.0, M.shape[0])
    weighted = fem.segment_mass(mesh, tag, w)
    gauss = reference_quadrature.gauss_mass(mesh.segments[tag], w)
    assert np.abs(weighted - gauss).max() <= 1e-14 * np.abs(gauss).max()


def _load_source(kind: str, rng: np.random.Generator):
    """A load source of the given kind with coefficients drawn from rng: a
    scalar, or a vectorized callable of (x, y, t) that is free of t or
    uses t as a factor, as the registered examples do."""
    if kind == "scalar":
        return float(rng.uniform(-2.0, 2.0))
    a, b, c = rng.uniform(-2.0, 2.0, 3)
    if kind == "t-free":
        return lambda x, y, t: a + b * x * y + np.cos(c * y)
    return lambda x, y, t: a + (b * x * y + np.cos(c * y)) * t


@pytest.mark.parametrize("tag", [None, *SegmentTag])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8),
       kind=st.sampled_from(["scalar", "t-free", "factor"]),
       times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_sources_over_times_load_like_frozen_sources(
        tag, nx, ny, kind, times, seed):
    """assemble_load (tag None) and assemble_boundary_load of a source
    over times give one row per time, each bit for bit the load of the
    source frozen at that time, and a scalar its one load."""
    mesh = classify_boundary(build_rect_mesh(nx, ny, ex.LX, ex.LY))
    rng = np.random.default_rng(seed)
    if tag is None:
        assemble = lambda *source: fem.assemble_load(mesh, *source)
    else:
        assemble = lambda *source: fem.assemble_boundary_load(mesh, tag,
                                                              *source)
    source = _load_source(kind, rng)
    loads = assemble(source, np.array(times))
    if kind == "scalar":
        assert loads.shape == (mesh.n_nodes,)
        np.testing.assert_array_equal(loads, assemble(source))
        return
    assert loads.shape == (len(times), mesh.n_nodes)
    frozen = [assemble(lambda x, y, t=t: source(x, y, t)) for t in times]
    assert all(load.shape == (mesh.n_nodes,) for load in frozen)
    np.testing.assert_array_equal(loads, np.array(frozen))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 12), ny=st.integers(1, 40), m=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_band_product_matches_the_dense_product(nx, ny, m, seed):
    """A @ x and A @ X, x a vector and X an (n, m) array of columns, match
    the dense product toarray(A) @ x to 1e-14 relative to |A| |x|, row by
    row, for A = K_a + M_c + B_gamma + B_rho with random coefficients, a
    Robin mass on each segment."""
    mesh = classify_boundary(build_rect_mesh(nx, ny, ex.LX, ex.LY))
    rng = np.random.default_rng(seed)
    a0, a1, c = rng.uniform(0.1, 10.0, 3)
    A = (fem.assemble_stiffness(mesh, lambda x, y: a0 + a1 * x * y)
         + fem.assemble_mass(mesh, c))
    for tag in SegmentTag:
        weight = rng.uniform(0.1, 10.0, mesh.segment_nodes(tag).size)
        A = A + fem.assemble_boundary_mass(mesh, tag, weight)
    dense = toarray(A)
    X = rng.standard_normal((mesh.n_nodes, m))
    for x in (X[:, 0], X):
        bound = 1e-14 * (np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(A @ x - dense @ x) <= bound)


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(nx=st.integers(1, 12), ny=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_completed_operator_applies_base_plus_its_edge_block(
        example_id, nx, ny, seed):
    """An operator's matvec, one band product with B_gamma's edge block
    folded into the diagonals of base, agrees with base @ x plus the dense
    edge block B_gamma[I, I] times the edge values, to 1e-14 relative to
    the same sum taken of absolute values, for a vector and for columns;
    completed again, the factor applies base alone."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=4).problem
    tag = SegmentTag.INACCESSIBLE
    edge = prob.mesh.segment_nodes(tag)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, edge.size)
    op = prob.operator(gamma)
    block = fem.segment_mass(prob.mesh, tag, gamma)
    base = toarray(prob.base)
    X = rng.standard_normal((prob.mesh.n_nodes, 3))
    bare = fem.Operator(op.factor, np.zeros_like(op.factor.schur))
    for x in (X[:, 0], X):
        y = prob.base @ x
        y[edge] += block @ x[edge]
        scale = np.abs(base) @ np.abs(x)
        scale[edge] += np.abs(block) @ np.abs(x[edge])
        assert np.all(np.abs(op.matvec(x) - y) <= 1e-14 * scale)
        assert np.all(np.abs(bare.matvec(x) - prob.base @ x)
                      <= 1e-14 * (np.abs(base) @ np.abs(x)))
