"""Stationary diffusion with a Robin condition on the inaccessible side.

Three solves share one symmetric operator K_a + M_c + B_gamma:

* forward: the state u given the Robin coefficient gamma,
* derivative: the sensitivity of u to a perturbation d of gamma,
* adjoint: the transfer of an accessible-side residual weight p back to
  the inaccessible side.

The derivative and adjoint right-hand sides are built from nodal products
of traces (d * u on the inaccessible side, p * u on the accessible side)
pushed through the boundary load quadrature.  Because the operator is one
shared symmetric matrix, the adjoint identity between the two solves holds
to solver precision, which the tests rely on.

EllipticProblem carries the problem protocol that the outer loop and the
verification probes run on, shared with ParabolicProblem: operator,
forward, derivative and adjoint wrap the module functions below, inner is
the segment inner product, integrate is the identity (a stationary field
is its own gradient), and levels selects the whole trace as the one level
that carries weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from . import fem
from .mesh import Mesh, SegmentTag


@dataclass(frozen=True)
class EllipticProblem:
    """Data of the stationary problem.

    a and c are diffusion and reaction coefficients (scalars or vectorized
    callables of x, y), f the volume source, g the Robin data on the
    inaccessible segment, h the flux data on the accessible segment.
    gamma_min and gamma_max bound the admissible Robin coefficients.
    """

    mesh: Mesh
    a: object
    c: object
    f: object
    g: object
    h: object
    gamma_min: float = 0.1
    gamma_max: float = 10.0

    def __post_init__(self):
        if self.gamma_min <= 0.0:
            raise ValueError(f"gamma_min must be positive, got {self.gamma_min}")
        if self.gamma_max < self.gamma_min:
            raise ValueError("gamma_max must not be below gamma_min")

    # Problem protocol.  The methods reach the module functions through
    # their global names at call time, so a rebinding of those names holds.

    levels = (...,)  # the whole trace is the one weighted level

    def operator(self, gamma: np.ndarray) -> sparse.csr_matrix:
        return assemble_operator(self, gamma)

    def forward(self, gamma, op, tol: float) -> np.ndarray:
        return solve_forward(self, gamma, tol=tol, operator=op)

    def derivative(self, gamma, u, d, op, tol: float) -> np.ndarray:
        return solve_derivative(self, gamma, u, d, tol=tol, operator=op)

    def adjoint(self, gamma, u, p, op, tol: float) -> np.ndarray:
        return solve_adjoint(self, gamma, u, p, tol=tol, operator=op)

    def inner(self, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
        return fem.boundary_inner(self.mesh, tag, u, v)

    def integrate(self, series: np.ndarray) -> np.ndarray:
        return series


def assemble_operator(prob: EllipticProblem, gamma: np.ndarray) -> sparse.csr_matrix:
    """The SPD system matrix K_a + M_c + B_gamma for a nodal gamma."""
    gamma = np.asarray(gamma, dtype=float)
    fem.require_in_box(gamma, prob.gamma_min, prob.gamma_max)
    K = fem.assemble_stiffness(prob.mesh, prob.a)
    M = fem.assemble_mass(prob.mesh, prob.c)
    B = fem.assemble_boundary_mass(prob.mesh, SegmentTag.INACCESSIBLE, gamma)
    return (K + M + B).tocsr()


def assemble_rhs(prob: EllipticProblem) -> np.ndarray:
    """Load vector collecting the volume source and both boundary data."""
    b = fem.assemble_load(prob.mesh, prob.f)
    b += fem.assemble_boundary_load(prob.mesh, SegmentTag.INACCESSIBLE, prob.g)
    b += fem.assemble_boundary_load(prob.mesh, SegmentTag.ACCESSIBLE, prob.h)
    return b


def solve_forward(
    prob: EllipticProblem,
    gamma: np.ndarray,
    tol: float = 1e-10,
    operator: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """State u for the given Robin coefficient.

    Passing a preassembled operator (from assemble_operator with the same
    gamma) skips reassembly; the result is the same either way.
    """
    S = assemble_operator(prob, gamma) if operator is None else operator
    return fem.solve_spd(S, assemble_rhs(prob), tol=tol)


def solve_derivative(
    prob: EllipticProblem,
    gamma: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    tol: float = 1e-10,
    operator: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """Directional derivative of the forward map at gamma in direction d.

    u must be the forward solution at gamma.  The right-hand side is the
    boundary load of the nodal product -(d * u) on the inaccessible side.
    """
    S = assemble_operator(prob, gamma) if operator is None else operator
    u_i = fem.trace(prob.mesh, SegmentTag.INACCESSIBLE, u)
    load = -fem.assemble_boundary_load(
        prob.mesh, SegmentTag.INACCESSIBLE, np.asarray(d, dtype=float) * u_i
    )
    return fem.solve_spd(S, load, tol=tol)


def solve_adjoint(
    prob: EllipticProblem,
    gamma: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    tol: float = 1e-10,
    operator: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """Adjoint state for an accessible-side weight p.

    Same operator as the forward solve, right-hand side the boundary load
    of -(p * u) on the accessible side.
    """
    S = assemble_operator(prob, gamma) if operator is None else operator
    u_a = fem.trace(prob.mesh, SegmentTag.ACCESSIBLE, u)
    load = -fem.assemble_boundary_load(
        prob.mesh, SegmentTag.ACCESSIBLE, np.asarray(p, dtype=float) * u_a
    )
    return fem.solve_spd(S, load, tol=tol)
