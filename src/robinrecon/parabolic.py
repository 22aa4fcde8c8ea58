"""Time-dependent diffusion with a Robin condition, implicit Euler in time.

A trajectory is stored as a 2-D array of shape (nt + 1, n_nodes), row n
holding the nodal field at time t_n = n * dt.  Every solve is one march,
_march: step n solves S x_n = (M/dt) x_{n-1} + L_n with the constant
operator S = M/dt + K_a + B_gamma.  The forward march starts from the
initial value with the data loads, the derivative march from zero with
the boundary loads of -(d * u_n), segment loads that the march adds at
the segment's nodes.  The adjoint is the algebraic transpose of the
derivative march: the same march over the boundary loads of the
accessible weights -q_n, run backward from level N down to 1 in place,
so the level-N load enters the first solve.  Level 0 is no unknown of that
march and stays zero, and its weight q_0 is never read.  Pairing
trajectories with the right-endpoint rule (weight dt on levels 1..N,
nothing on level 0) makes the space-time adjoint identity hold to solver
precision, not just to O(dt); starting from an explicit zero terminal
value and loading levels N-1..0 instead would leave an O(dt) gap.

ParabolicProblem is a fem.RobinProblem, which supplies the box check,
the operator (the factor of the cached base M/dt + K_a, completed with
the dense edge block of B_gamma) and the boundary loads of all levels
at once, one product of a series of segment fields with the segment
mass.  The step mass M/dt, whose product with the previous level each
step takes, and load, the data loads of every level, are cached on the
problem too; load is one data_load call over the times t_1..t_N, which
samples each time-dependent datum once for all levels, so the
quadrature geometry and the datum's t-free part are computed once per
problem, not once per level.

ParabolicProblem carries the same problem protocol as EllipticProblem;
every step is a direct block solve checked against fem.SOLVE_TOL, and
each march is sliced to the traces the protocol returns.  derivative is
its own march, of one direction, over the inaccessible trace series of
the forward march, and integrate its own right-endpoint time integral.
operator, forward, adjoint and inner wrap the module functions below
only because the benchmark's tracer (bench/tracer.py) patches those
names; they fold into the methods once it patches the protocol (ROADMAP
item 2).  field is the forward march itself; inner and integrate weight
no level 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .mesh import Mesh, SegmentTag, require_finite, require_positive_int


@dataclass(frozen=True)
class ParabolicProblem(fem.RobinProblem):
    """Data of the time-dependent problem.

    a is the diffusion coefficient (scalar or callable of x, y); f, g, h
    are the volume source, Robin data and flux data, each a scalar or a
    callable of (x, y, t) vectorized in x, y and t, whose t is an array
    of all the levels broadcast against the points; u0 the initial value
    (scalar or callable of x, y); T the final time and nt the number of
    implicit Euler steps.  There is no reaction term in this problem
    class, the operator is M/dt + K_a + B_gamma.
    """

    mesh: Mesh
    a: object
    f: object
    g: object
    h: object
    u0: object
    T: float
    nt: int
    gamma_min: float = 0.1
    gamma_max: float = 10.0

    def __post_init__(self):
        require_finite(self.T, "final time T")
        require_positive_int(self.nt, "step count nt")
        super().__post_init__()

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @cached_property
    def step_mass(self) -> fem.SymBand:
        """M/dt, M the consistent mass matrix: the step's product with the
        previous level."""
        return fem.assemble_mass(self.mesh, 1.0) / self.dt

    @cached_property
    def base(self) -> fem.SymBand:
        """M/dt + K_a, the part of the operator that gamma does not touch."""
        return self.step_mass + fem.assemble_stiffness(self.mesh, self.a)

    @cached_property
    def load(self) -> np.ndarray:
        """Read-only (nt + 1, n_nodes) data loads, row n at time t_n.

        Row n collects the volume source, the Robin data and the flux
        data at t_n, all levels in one data_load call that samples each
        datum once.  Row 0 stays zero: no step solves for level 0, and
        t_0 is never sampled.
        """
        loads = self.data_load(self.f, self.g, self.h,
                               np.arange(1, self.nt + 1) * self.dt)
        L = np.zeros((self.nt + 1, self.mesh.n_nodes))
        L[1:] = loads
        L.flags.writeable = False
        return L

    # Problem protocol, see the module docstring.

    @property
    def _seg_a(self) -> np.ndarray:
        return self.mesh.segment_nodes(SegmentTag.ACCESSIBLE)

    @property
    def _seg_i(self) -> np.ndarray:
        return self.mesh.segment_nodes(SegmentTag.INACCESSIBLE)

    def operator(self, gamma: np.ndarray) -> fem.Operator:
        return build_operator(self, gamma)

    def forward(self, op) -> tuple[np.ndarray, np.ndarray]:
        u = solve_forward_parabolic(self, op)
        return u[:, self._seg_a], u[:, self._seg_i]

    def derivative(self, u_i, d, op) -> np.ndarray:
        """Accessible trace series of the sensitivity march for one
        direction d (ValueError for a stack), u_i the inaccessible trace
        series of the forward march for op, all nt + 1 levels (ValueError
        for any other shape): from zero, with the boundary load of -(d *
        u_n) on the inaccessible side at each step."""
        tag = SegmentTag.INACCESSIBLE
        u_i = self.forward_trace(u_i, self.nt + 1)
        d = self.segment_fields(tag, d)
        if d.ndim != 1:
            raise ValueError(f"a march takes one direction d, a field of "
                             f"segment {tag.name}, got shape {d.shape}")
        loads = self.boundary_loads(tag, d * u_i)
        return _march(self, op, loads, np.zeros(self.mesh.n_nodes),
                      self._seg_i)[:, self._seg_a]

    def adjoint(self, q, op) -> np.ndarray:
        return solve_adjoint_parabolic(self, q, op)[:, self._seg_i]

    def field(self, op) -> np.ndarray:
        return solve_forward_parabolic(self, op)

    def inner(self, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
        return space_time_inner(self.mesh, tag, u, v, self.dt)

    def integrate(self, series: np.ndarray) -> np.ndarray:
        """Time integral of a segment-field series, one segment field:
        the right-endpoint rectangle rule, dt on levels 1..N and nothing
        on level 0, matching the pairing of the adjoint march."""
        series = np.asarray(series, dtype=float)
        weights = np.full(series.shape[0], self.dt)
        weights[0] = 0.0
        return weights @ series


def build_operator(prob: ParabolicProblem, gamma: np.ndarray) -> fem.Operator:
    """The SPD step matrix S = M/dt + K_a + B_gamma, factored, shared by a
    whole march."""
    return prob.robin_operator(gamma)


def _march(prob: ParabolicProblem, op, loads: np.ndarray,
           start: np.ndarray, at=slice(None), backward=False) -> np.ndarray:
    """Implicit Euler from start: row n solves S x_n = (M/dt) x_{n-1} +
    L_n with the factored op, L_n the load loads[n] at the nodes at
    (every node unless given), n from 1 to N.  backward marches n from N
    down to 1 instead, each row from row n + 1 (start for row N), and
    leaves row 0 zero.  loads[0] is not read."""
    X = np.empty((prob.nt + 1, prob.mesh.n_nodes))
    X[0] = 0.0 if backward else start
    levels = range(1, prob.nt + 1)
    previous = start
    for n in levels[::-1] if backward else levels:
        b = prob.step_mass @ previous
        b[at] += loads[n]
        X[n] = previous = fem.solve_spd(op, b)
    return X


def solve_forward_parabolic(
    prob: ParabolicProblem,
    op: fem.Operator,
) -> np.ndarray:
    """March the state forward from the interpolated initial value.

    Each step solves S u_n = (M/dt) u_{n-1} + loads(t_n), data evaluated
    at the new time level.  Returns the full (nt + 1, n_nodes) trajectory.
    """
    x, y = prob.mesh.nodes.T
    u0 = fem._coeff_on_points(prob.u0, x, y, "u0")
    return _march(prob, op, prob.load, u0)


def solve_adjoint_parabolic(
    prob: ParabolicProblem,
    q: np.ndarray,
    op: fem.Operator,
) -> np.ndarray:
    """Adjoint trajectory for accessible-side weights q, backward in time.

    q has shape (nt + 1, accessible node count); row 0 is never used since
    the right-endpoint pairing gives the initial level zero weight.  The
    sweep is the exact transpose of the derivative march: the backward
    march over the boundary loads of -q, row n from row n + 1 for n from
    N down to 1, so the first solve already carries the level-N load.
    Level 0 is no unknown of the transposed march and stays zero.
    """
    if len(q) != prob.nt + 1:
        raise ValueError(f"weight series has {len(q)} levels, expected {prob.nt + 1}")
    loads = prob.boundary_loads(SegmentTag.ACCESSIBLE, q)
    return _march(prob, op, loads, np.zeros(prob.mesh.n_nodes), prob._seg_a,
                  backward=True)


def space_time_inner(
    mesh: Mesh, tag: SegmentTag, u: np.ndarray, v: np.ndarray, dt: float
) -> float:
    """Space-time inner product of two segment-field series.

    Right-endpoint rule in time on top of the segment inner product in
    space, the scalar companion of ParabolicProblem.integrate.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"series shapes differ: {u.shape} vs {v.shape}")
    M = mesh.segments[tag].mass
    if u.ndim != 2 or u.shape[1] != M.shape[0]:
        raise ValueError(
            f"segment {tag.name} has {M.shape[0]} nodes, got series of "
            f"shape {u.shape}"
        )
    return dt * float(np.sum((u[1:] @ M) * v[1:]))
