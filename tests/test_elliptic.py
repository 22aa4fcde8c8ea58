import re

import numpy as np
import pytest

from robinrecon import elliptic as ell
from robinrecon import experiments as ex
from robinrecon import fem
from robinrecon.mesh import SegmentTag, build_rect_mesh, classify_boundary

# frozen discretization error of the manufactured solution, 8x16 mesh
L2_ERROR_8X16 = 0.014664474677649164


def setup(nx=8, ny=16):
    example = ex.make_example("5.1", nx=nx, ny=ny)
    mesh = example.problem.mesh
    gamma = ex.interpolate_gamma(mesh, example.gamma_star)
    return example, mesh, gamma


def test_forward_matches_manufactured_solution():
    example, mesh, gamma = setup()
    op = ell.assemble_operator(example.problem, gamma)
    u = example.problem.field(op)
    err = ex.domain_l2_error(mesh, u, example.u_exact)
    assert err == pytest.approx(L2_ERROR_8X16, rel=1e-6)


def test_forward_error_second_order():
    errors = []
    for nx, ny in ((8, 16), (16, 32)):
        example, mesh, gamma = setup(nx, ny)
        op = ell.assemble_operator(example.problem, gamma)
        u = example.problem.field(op)
        errors.append(ex.domain_l2_error(mesh, u, example.u_exact))
    assert errors[0] / errors[1] > 3.5


def test_operator_rejects_gamma_outside_box():
    example, mesh, gamma = setup()
    with pytest.raises(ValueError):
        ell.assemble_operator(example.problem, 0.0 * gamma)
    with pytest.raises(ValueError):
        ell.assemble_operator(example.problem, gamma + 100.0)
    gamma[0] = np.nan
    with pytest.raises(ValueError):
        ell.assemble_operator(example.problem, gamma)


def test_problem_validates_bounds():
    mesh = classify_boundary(build_rect_mesh(4, 8, 1.0, 2.0))
    with pytest.raises(ValueError):
        ell.EllipticProblem(mesh=mesh, a=1.0, c=1.0, f=0.0, g=0.0, h=0.0,
                            gamma_min=0.0)
    with pytest.raises(ValueError):
        ell.EllipticProblem(mesh=mesh, a=1.0, c=1.0, f=0.0, g=0.0, h=0.0,
                            gamma_min=2.0, gamma_max=1.0)
    nan = float("nan")
    for bounds in ({"gamma_min": nan}, {"gamma_max": nan},
                   {"gamma_max": float("inf")}):
        with pytest.raises(ValueError):
            ell.EllipticProblem(mesh=mesh, a=1.0, c=1.0, f=0.0, g=0.0, h=0.0,
                                **bounds)


def test_derivative_is_linear_in_the_direction():
    example, mesh, gamma = setup()
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    op = ell.assemble_operator(example.problem, gamma)
    _, u_i = ell.solve_forward(example.problem, op)
    rng = np.random.default_rng(11)
    d1 = rng.uniform(-1.0, 1.0, seg_i.size)
    d2 = rng.uniform(-1.0, 1.0, seg_i.size)
    w1 = example.problem.derivative(u_i, d1, op)
    w2 = example.problem.derivative(u_i, d2, op)
    w12 = example.problem.derivative(u_i, d1 + 2.0 * d2, op)
    np.testing.assert_allclose(w12, w1 + 2.0 * w2, atol=1e-9)


def test_derivative_takes_a_stack_of_directions():
    """A (k, segment) stack of directions gives one derivative trace per
    row, each that of its direction alone."""
    example, mesh, gamma = setup()
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    op = ell.assemble_operator(example.problem, gamma)
    _, u_i = ell.solve_forward(example.problem, op)
    directions = np.random.default_rng(12).uniform(-1.0, 1.0, (3, seg_i.size))
    stacked = example.problem.derivative(u_i, directions, op)
    assert stacked.shape == (3, seg_a.size)
    for d, w in zip(directions, stacked):
        alone = example.problem.derivative(u_i, d, op)
        assert np.linalg.norm(w - alone) <= 1e-13 * np.linalg.norm(alone)


def test_derivative_takes_no_stack_of_stacks():
    """A stack of directions has one leading axis; a (2, k, segment) array
    fails naming d and both shapes instead of reaching the edge solve,
    whose matmul would fail on it without naming anything."""
    example, mesh, gamma = setup(4, 8)
    op = example.problem.operator(gamma)
    _, u_i = example.problem.forward(op)
    with pytest.raises(ValueError, match=re.escape(
            "the direction d on segment INACCESSIBLE must have shape "
            "(2, 9), got shape (2, 3, 9)")):
        example.problem.derivative(u_i, np.ones((2, 3, 9)), op)


def test_adjoint_identity_single_pair():
    example, mesh, gamma = setup()
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    op = ell.assemble_operator(example.problem, gamma)
    u_a, u_i = ell.solve_forward(example.problem, op)
    rng = np.random.default_rng(3)
    d = rng.uniform(-1.0, 1.0, seg_i.size)
    q = rng.uniform(-1.0, 1.0, seg_a.size)
    w_a = example.problem.derivative(u_i, d, op)
    ws_i = ell.solve_adjoint(example.problem, q, op)
    lhs = fem.boundary_inner(mesh, SegmentTag.ACCESSIBLE, w_a, q)
    rhs = fem.boundary_inner(mesh, SegmentTag.INACCESSIBLE, u_i * d, ws_i)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_derivative_consistency_gap_is_second_order():
    """Central differences expose the quadrature-versus-nodal gap.

    The derivative solver perturbs the Robin matrix through nodal
    products, which differs from the exact Jacobian of the assembled
    forward map by a commutator that scales with h^2.  Refining once
    must shrink the measured gap about fourfold.
    """
    gaps = []
    step = 1e-4
    for nx, ny in ((8, 16), (16, 32)):
        example, mesh, gamma = setup(nx, ny)
        seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
        d = np.sin(np.pi * mesh.nodes[seg_i, 1])
        op = ell.assemble_operator(example.problem, gamma)
        _, u_i = ell.solve_forward(example.problem, op)
        w_a = example.problem.derivative(u_i, d, op)
        prob = example.problem
        up_a, _ = prob.forward(prob.operator(gamma + step * d))
        um_a, _ = prob.forward(prob.operator(gamma - step * d))
        fd = (up_a - um_a) / (2.0 * step)
        gaps.append(
            fem.boundary_norm(mesh, SegmentTag.ACCESSIBLE, fd - w_a)
            / fem.boundary_norm(mesh, SegmentTag.ACCESSIBLE, w_a)
        )
    assert 3.0 < gaps[0] / gaps[1] < 5.0, f"gaps {gaps}"


def test_rhs_collects_all_data_terms():
    example, mesh, gamma = setup(4, 8)
    b = example.problem.load
    expected = fem.assemble_load(mesh, example.problem.f)
    expected += fem.assemble_boundary_load(mesh, SegmentTag.INACCESSIBLE,
                                           example.problem.g)
    expected += fem.assemble_boundary_load(mesh, SegmentTag.ACCESSIBLE,
                                           example.problem.h)
    np.testing.assert_array_equal(b, expected)
    with pytest.raises(ValueError):
        b[0] = 0.0
