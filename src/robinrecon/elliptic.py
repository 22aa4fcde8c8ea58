"""Stationary diffusion with a Robin condition on the inaccessible side.

Three solves share one symmetric operator K_a + M_c + B_gamma:

* forward: the state u given the Robin coefficient gamma,
* derivative: the sensitivity of u to a perturbation d of gamma,
* adjoint: the transfer of an accessible-side load weight q, the data
  misfit in the outer loop, back to the inaccessible side.

EllipticProblem is a fem.RobinProblem: the box check, the operator (the
factor of the cached base K_a + M_c, completed with the dense edge block
of B_gamma), the data load and the boundary loads come from there.  The
derivative and adjoint right-hand sides are the boundary loads of
-(d * u_i) on the inaccessible side and of -q on the accessible side,
each one product with the segment's mass, and they live on the
edge and on the accessible nodes alone, where the reduced solves take
them.

The three solves return traces and run on the Robin edge alone.  The
first of them condenses the interior onto the edge once per problem
(condensed, fem.Operator.condense, checked once against
fem.SOLVE_TOL), anchored at one full solve of its operator; after that
every solve is one fem.solve_edge with the edge pivot Sigma = Sigma_0 +
B_gamma[I, I] plus products with the dense (accessible x edge) array
Z_a.  Because forward, derivative and adjoint apply the one symmetric
Sigma and Z_a and its transpose, the adjoint identity between the two
solves holds to solver precision, which the tests rely on.

EllipticProblem carries the problem protocol that the outer loop and the
verification probes run on, shared with ParabolicProblem; each solve is
checked against fem.SOLVE_TOL, so it takes only the operator.
derivative is its own solve.  operator, forward and adjoint wrap the
module functions below only because the benchmark's tracer
(bench/tracer.py) patches those names; they fold into the methods once
it patches the protocol (ROADMAP item 2).  field is the full-field solve
(fem.solve_spd) for the checks that need one, inner is the segment inner
product, and integrate is the identity (a stationary field is its own
gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    def base(self) -> fem.SymBand:
        """K_a + M_c, the part of the operator that gamma does not touch."""
        return (fem.assemble_stiffness(self.mesh, self.a)
                + fem.assemble_mass(self.mesh, self.c))

    @cached_property
    def load(self) -> np.ndarray:
        """Read-only load vector of the volume source and both boundary data."""
        b = self.data_load(self.f, self.g, self.h)
        b.flags.writeable = False
        return b

    def condensed(self, op: fem.Operator) -> fem.Condensation:
        """The interior condensed onto the Robin edge for the data load,
        at the accessible nodes (fem.Operator.condense): built and
        checked on the first call, the first reduced solve, anchored at
        the full solve of that call's operator, and kept for every
        operator of the problem, as base_factor is."""
        if "_condensed" not in self.__dict__:
            # the frozen dataclass caches like cached_property, by __dict__
            self.__dict__["_condensed"] = op.condense(
                self.load, self.mesh.segment_nodes(SegmentTag.ACCESSIBLE))
        return self.__dict__["_condensed"]

    # Problem protocol, see the module docstring.  The wrappers look the
    # module functions up at call time, so the tracer's patches hold.

    def operator(self, gamma: np.ndarray) -> fem.Operator:
        return assemble_operator(self, gamma)

    def forward(self, op) -> tuple[np.ndarray, np.ndarray]:
        return solve_forward(self, op)

    def derivative(self, u_i, d, op) -> np.ndarray:
        """Accessible trace of the directional derivative of the forward
        map in direction d.

        u_i must be the inaccessible trace of the forward state for op,
        one segment field (ValueError for any other shape).  The load is
        the boundary load c of -(d * u_i), which lives on the edge alone,
        and the trace is -Z_a Sigma^{-1} c.  A (k, segment nodes) stack of
        directions gives one trace per row from one edge solve with k
        right-hand sides.
        """
        tag = SegmentTag.INACCESSIBLE
        u_i = self.forward_trace(u_i)
        load = self.boundary_loads(tag, self.segment_fields(tag, d) * u_i)
        return -(self.condensed(op).Z @ fem.solve_edge(op, load.T)).T

    def adjoint(self, q, op) -> np.ndarray:
        return solve_adjoint(self, q, op)

    def field(self, op) -> np.ndarray:
        return fem.solve_spd(op, self.load)

    def inner(self, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
        return fem.boundary_inner(self.mesh, tag, u, v)

    def integrate(self, series: np.ndarray) -> np.ndarray:
        return series


def assemble_operator(prob: EllipticProblem, gamma: np.ndarray) -> fem.Operator:
    """The SPD system matrix K_a + M_c + B_gamma for a nodal gamma, factored."""
    return prob.robin_operator(gamma)


def solve_forward(
    prob: EllipticProblem,
    op: fem.Operator,
) -> tuple[np.ndarray, np.ndarray]:
    """Traces (u_a, u_i) of the state for the Robin coefficient op was
    assembled with, on the accessible and the inaccessible segment.

    One edge solve, u_i = Sigma^{-1} b~_I, and u_a from the affine map of
    fem.Condensation.
    """
    condensed = prob.condensed(op)
    u_i = fem.solve_edge(op, condensed.load)
    return condensed.u_rows - condensed.Z @ (u_i - condensed.u_edge), u_i


def solve_adjoint(
    prob: EllipticProblem,
    q: np.ndarray,
    op: fem.Operator,
) -> np.ndarray:
    """Inaccessible trace of the adjoint state for an accessible-side
    weight q.

    Same operator as the forward solve; the load c is the boundary load
    of -q, which lives on the accessible nodes, and the trace is
    Sigma^{-1} (-Z_a^T c).
    """
    load = prob.boundary_loads(SegmentTag.ACCESSIBLE, q)
    return fem.solve_edge(op, -(prob.condensed(op).Z.T @ load))
