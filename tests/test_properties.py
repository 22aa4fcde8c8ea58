"""Properties checked over randomized inputs through the problem protocol.

hypothesis draws the mesh size and a seed; numpy draws the coefficient,
the direction and the weight from that seed.  derandomize=True makes the
example sequence a fixed function of the test, so every run sees the same
cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinrecon import experiments as ex
from robinrecon import fem
from robinrecon import lm
from robinrecon.mesh import SegmentTag

SOLVER_TOL = 1e-12


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity_on_random_meshes(example_id, nx, ny, nt, seed):
    """(D[gamma] d, u p) on the accessible side equals (u d, w*) on the
    inaccessible side, for any admissible gamma, d and p."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=nt).problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = prob.mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, seg_i.size)
    op = prob.operator(gamma)
    u = prob.forward(op, SOLVER_TOL)
    d = rng.uniform(-1.0, 1.0, seg_i.size)
    p = rng.uniform(-1.0, 1.0, u[..., seg_a].shape)
    w = prob.derivative(u, d, op, SOLVER_TOL)
    ws = prob.adjoint(u, p, op, SOLVER_TOL)
    lhs = prob.inner(SegmentTag.ACCESSIBLE, w[..., seg_a], u[..., seg_a] * p)
    rhs = prob.inner(SegmentTag.INACCESSIBLE, u[..., seg_i] * d, ws[..., seg_i])
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    assert gap <= ex.ADJOINT_TOL


@pytest.mark.parametrize("example_id", ["5.1", "5.3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(nx=st.integers(1, 6), ny=st.integers(1, 8), nt=st.integers(1, 6))
def test_exact_coefficient_is_a_fixed_point(example_id, nx, ny, nt):
    """Noise-free data at the exact coefficient leave nothing to correct:
    the first step measures a zero residual and stays where it started."""
    example = ex.make_example(example_id, nx=nx, ny=ny, nt=nt)
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
    """The block LDL^T factor of an operator solves it to rounding, and CG
    preconditioned by it agrees with the Jacobi reference path.  The
    dimension (nx + 1)(ny + 1) is a multiple of the block size nx + 2 for
    some draws and not for others."""
    prob = ex.make_example(example_id, nx=nx, ny=ny, nt=nt).problem
    seg_i = prob.mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(prob.gamma_min, prob.gamma_max, seg_i.size)
    op = prob.operator(gamma)
    b = rng.standard_normal(prob.mesh.n_nodes)
    x = op.solve(b)
    assert np.linalg.norm(b - op.matrix @ x) <= 1e-12 * np.linalg.norm(b)
    factored = fem.solve_spd(op, b, tol=1e-12)
    jacobi = fem.solve_spd(op.matrix, b, tol=1e-12)
    assert np.linalg.norm(factored - jacobi) <= 1e-9 * np.linalg.norm(jacobi)
