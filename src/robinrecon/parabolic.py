"""Time-dependent diffusion with a Robin condition, implicit Euler in time.

A trajectory is stored as a 2-D array of shape (nt + 1, n_nodes), row n
holding the nodal field at time t_n = n * dt.  Every solve is one march,
_march: step n solves S x_n = (M/dt) x_{n-1} + L_n with the constant
operator S = M/dt + K_a + B_gamma.  The forward march starts from the
initial value with the data loads, the derivative march from zero with
the boundary loads of -(d * u_n), segment loads that the march adds at
the segment's nodes.  The adjoint is the algebraic transpose of the
derivative march: the same march over the boundary loads of the
accessible weights -q_n taken from level N down to 1, flipped back, so
the level-N load enters the first solve.  Level 0 is no unknown of that
march and stays zero, and its weight q_0 is never read.  Pairing
trajectories with the right-endpoint rule (weight dt on levels 1..N,
nothing on level 0) makes the space-time adjoint identity hold to solver
precision, not just to O(dt); starting from an explicit zero terminal
value and loading levels N-1..0 instead would leave an O(dt) gap.

ParabolicProblem is a fem.RobinProblem, which supplies the box check,
the operator (the factor of the cached base M/dt + K_a, completed with
the dense edge block of B_gamma) and the boundary loads of all levels
at once, one product of a series of segment fields with the segment
mass.  The mass M and load, the data loads of every level, are cached
on the problem too; load is one data_load call over the data frozen at
each time level, so the quadrature geometry is computed once per
problem, not once per level.

ParabolicProblem carries the same problem protocol as EllipticProblem:
operator, forward, derivative and adjoint wrap the march functions below
(every step is a direct block solve checked against fem.SOLVE_TOL) and
slice their trajectories to the traces the protocol returns, field is
the forward march itself, inner is space_time_inner, and integrate is
time_integral_boundary, both weighting no level 0.  The derivative march
takes the inaccessible trace series of the forward march.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .mesh import Mesh, SegmentTag


@dataclass(frozen=True)
class ParabolicProblem(fem.RobinProblem):
    """Data of the time-dependent problem.

    a is the diffusion coefficient (scalar or callable of x, y); f, g, h
    are the volume source, Robin data and flux data, each a scalar or a
    callable of (x, y, t) vectorized in x and y; u0 the initial value
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
        # written so that NaN fails the checks too
        if not self.T > 0.0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not isinstance(self.nt, numbers.Integral) or self.nt < 1:
            raise ValueError(
                f"nt must be a positive integer number of time steps, "
                f"got {self.nt!r}")
        super().__post_init__()

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @cached_property
    def mass(self) -> fem.SymBand:
        """Consistent mass matrix M."""
        return fem.assemble_mass(self.mesh, 1.0)

    @cached_property
    def base(self) -> fem.SymBand:
        """M/dt + K_a, the part of the operator that gamma does not touch."""
        return self.mass / self.dt + fem.assemble_stiffness(self.mesh, self.a)

    @cached_property
    def load(self) -> np.ndarray:
        """Read-only (nt + 1, n_nodes) data loads, row n at time t_n.

        Row n collects the volume source, the Robin data and the flux
        data at t_n, all levels in one data_load call.  Row 0 stays zero:
        no step solves for level 0.
        """
        times = [n * self.dt for n in range(1, self.nt + 1)]
        loads = self.data_load(*(_over_times(data, times)
                                 for data in (self.f, self.g, self.h)))
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

    def operator(self, gamma: np.ndarray) -> fem.BlockLDLT:
        return build_operator(self, gamma)

    def forward(self, op) -> tuple[np.ndarray, np.ndarray]:
        u = solve_forward_parabolic(self, op)
        return u[:, self._seg_a], u[:, self._seg_i]

    def derivative(self, u_i, d, op) -> np.ndarray:
        return solve_derivative_parabolic(self, u_i, d, op)[:, self._seg_a]

    def adjoint(self, q, op) -> np.ndarray:
        return solve_adjoint_parabolic(self, q, op)[:, self._seg_i]

    def field(self, op) -> np.ndarray:
        return solve_forward_parabolic(self, op)

    def inner(self, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
        return space_time_inner(self.mesh, tag, u, v, self.dt)

    def integrate(self, series: np.ndarray) -> np.ndarray:
        return time_integral_boundary(series, self.dt)


def build_operator(prob: ParabolicProblem, gamma: np.ndarray) -> fem.BlockLDLT:
    """The SPD step matrix S = M/dt + K_a + B_gamma, factored, shared by a
    whole march."""
    return prob.robin_operator(gamma)


def _over_times(data, times: list[float]):
    """A data function frozen at each of the times, one source per level;
    a scalar, which loads every level alike, passes through once."""
    if callable(data):
        return [lambda x, y, t=t: data(x, y, t) for t in times]
    return data


def _initial_field(prob: ParabolicProblem) -> np.ndarray:
    if callable(prob.u0):
        return np.asarray(
            prob.u0(prob.mesh.nodes[:, 0], prob.mesh.nodes[:, 1]), dtype=float
        ) * np.ones(prob.mesh.n_nodes)
    return np.full(prob.mesh.n_nodes, float(prob.u0))


def _march(prob: ParabolicProblem, op, loads: np.ndarray,
           start: np.ndarray, at=slice(None)) -> np.ndarray:
    """Implicit Euler from start: row n solves S x_n = (M/dt) x_{n-1} +
    L_n with the factored op, L_n the load loads[n] at the nodes at
    (every node unless given).  loads[0] is not read."""
    X = np.empty((prob.nt + 1, prob.mesh.n_nodes))
    X[0] = start
    for n in range(1, prob.nt + 1):
        b = prob.mass @ (X[n - 1] / prob.dt)
        b[at] += loads[n]
        X[n] = fem.solve_spd(op, b)
    return X


def solve_forward_parabolic(
    prob: ParabolicProblem,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """March the state forward from the interpolated initial value.

    Each step solves S u_n = (M/dt) u_{n-1} + loads(t_n), data evaluated
    at the new time level.  Returns the full (nt + 1, n_nodes) trajectory.
    """
    return _march(prob, op, prob.load, _initial_field(prob))


def solve_derivative_parabolic(
    prob: ParabolicProblem,
    u_i: np.ndarray,
    d: np.ndarray,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """Sensitivity trajectory for a perturbation d of gamma.

    u_i must be the inaccessible trace series of the forward trajectory
    for op.  Starts from zero and takes the boundary load of -(d * u_n)
    on the inaccessible side at each step.
    """
    tag = SegmentTag.INACCESSIBLE
    loads = prob.boundary_loads(tag, prob.segment_fields(tag, d) * u_i)
    return _march(prob, op, loads, np.zeros(prob.mesh.n_nodes), prob._seg_i)


def solve_adjoint_parabolic(
    prob: ParabolicProblem,
    q: np.ndarray,
    op: fem.BlockLDLT,
) -> np.ndarray:
    """Adjoint trajectory for accessible-side weights q, backward in time.

    q has shape (nt + 1, accessible node count); row 0 is never used since
    the right-endpoint pairing gives the initial level zero weight.  The
    sweep is the exact transpose of the derivative march: the march over
    the boundary loads of -q taken from level N down to 1, so the first
    solve already carries the level-N load.  Level 0 is no unknown of the
    transposed march and stays zero.
    """
    if len(q) != prob.nt + 1:
        raise ValueError(f"weight series has {len(q)} levels, expected {prob.nt + 1}")
    loads = prob.boundary_loads(SegmentTag.ACCESSIBLE, q)
    # level 0 in place, levels 1..N reversed; the reordering is its own inverse
    order = np.r_[0, prob.nt:0:-1]
    return _march(prob, op, loads[order], np.zeros(prob.mesh.n_nodes),
                  prob._seg_a)[order]


def time_integral_boundary(series: np.ndarray, dt: float) -> np.ndarray:
    """Integrate a segment-field time series over time.

    Right-endpoint rectangle rule, dt on levels 1..N and zero on level 0,
    matching the implicit Euler pairing used by the adjoint sweep.
    Returns one segment field.
    """
    series = np.asarray(series, dtype=float)
    weights = np.full(series.shape[0], dt)
    weights[0] = 0.0
    return weights @ series


def space_time_inner(
    mesh: Mesh, tag: SegmentTag, u: np.ndarray, v: np.ndarray, dt: float
) -> float:
    """Space-time inner product of two segment-field series.

    Right-endpoint rule in time on top of the segment inner product in
    space, the scalar companion of time_integral_boundary.
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
