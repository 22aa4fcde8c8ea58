"""Stationary diffusion with a Robin condition on the inaccessible side.

Three solves share one symmetric operator K_a + M_c + B_gamma:

* forward: the state u given the Robin coefficient gamma,
* derivative: the sensitivity of u to a perturbation d of gamma,
* adjoint: the transfer of an accessible-side residual weight p back to
  the inaccessible side.

EllipticProblem is a fem.RobinProblem: the box check, the operator (the
factor of the cached base K_a + M_c, completed with the dense edge block
of B_gamma), the data load and the boundary loads come from there.  The
derivative and adjoint right-hand sides are the boundary loads of
-(d * u) on the inaccessible side and of -(p * u) on the accessible
side, each one product with the segment's cached load map.  Because the
operator is one shared symmetric matrix, the adjoint identity between
the two solves holds to solver precision, which the tests rely on.

EllipticProblem carries the problem protocol that the outer loop and the
verification probes run on, shared with ParabolicProblem: operator,
forward, derivative and adjoint wrap the module functions below (each
solve is checked against fem.SOLVE_TOL, so they take only the
operator), inner is the segment inner product, integrate is the
identity (a stationary field is its own gradient), and levels selects
the whole trace as the one level that carries weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import fem
from .mesh import Mesh, SegmentTag


@dataclass(frozen=True)
class EllipticProblem(fem.RobinProblem):
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

    @cached_property
    def base(self) -> sparse.csr_matrix:
        """K_a + M_c, the part of the operator that gamma does not touch."""
        return (fem.assemble_stiffness(self.mesh, self.a)
                + fem.assemble_mass(self.mesh, self.c))

    @cached_property
    def load(self) -> np.ndarray:
        """Read-only load vector of the volume source and both boundary data."""
        b = self.data_load(self.f, self.g, self.h)
        b.flags.writeable = False
        return b

    # Problem protocol.  The methods reach the module functions through
    # their global names at call time, so a rebinding of those names holds.

    levels = (...,)  # the whole trace is the one weighted level

    def operator(self, gamma: np.ndarray) -> fem.BlockLDLT:
        return assemble_operator(self, gamma)

    def forward(self, op) -> np.ndarray:
        return solve_forward(self, op)

    def derivative(self, u, d, op) -> np.ndarray:
        return solve_derivative(self, u, d, op)

    def adjoint(self, u, p, op) -> np.ndarray:
        return solve_adjoint(self, u, p, op)

    def inner(self, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
        return fem.boundary_inner(self.mesh, tag, u, v)

    def integrate(self, series: np.ndarray) -> np.ndarray:
        return series


def assemble_operator(prob: EllipticProblem, gamma: np.ndarray) -> fem.BlockLDLT:
    """The SPD system matrix K_a + M_c + B_gamma for a nodal gamma, factored."""
    return prob.robin_operator(gamma)


def solve_forward(
    prob: EllipticProblem,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """State u for the Robin coefficient op was assembled with."""
    return fem.solve_spd(op, prob.load)


def solve_derivative(
    prob: EllipticProblem,
    u: np.ndarray,
    d: np.ndarray,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """Directional derivative of the forward map in direction d.

    u must be the forward solution for op.  The right-hand side is the
    boundary load of the nodal product -(d * u) on the inaccessible side.
    A (k, segment nodes) stack of directions gives one derivative per row
    from one solve with k right-hand sides.
    """
    load = prob.boundary_loads(SegmentTag.INACCESSIBLE, u, d)
    return fem.solve_spd(op, load.T).T


def solve_adjoint(
    prob: EllipticProblem,
    u: np.ndarray,
    p: np.ndarray,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """Adjoint state for an accessible-side weight p.

    Same operator as the forward solve, right-hand side the boundary load
    of -(p * u) on the accessible side.
    """
    load = prob.boundary_loads(SegmentTag.ACCESSIBLE, u, p)
    return fem.solve_spd(op, load)
