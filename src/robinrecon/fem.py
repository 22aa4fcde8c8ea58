"""P1 finite element assembly and a preconditioned CG solver.

All matrices built here are symmetric.  Domain integrals use the 3-point
edge-midpoint rule on triangles, which is exact for products of two P1
functions, so the mass matrix is the consistent one.  Boundary integrals
use 2-point Gauss per edge, exact for cubics, so a linearly interpolated
weight times two P1 basis functions is integrated without error.  Keeping
the quadrature exact at this degree is what makes the discrete adjoint
identity hold to solver precision downstream.

Boundary fields (Robin coefficients, measurement residuals, directions)
are plain 1-D arrays indexed by the sorted node list of one segment, see
Mesh.segment_nodes; the segment geometry comes precomputed with the
mesh (Mesh.segments).  Nodal fields on the whole mesh are 1-D arrays of
length n_nodes.

solve_spd is preconditioned CG.  Its preconditioner follows from what it
is given: a BlockLDLT, the block LDL^T factorization of a banded SPD
matrix, is an exact preconditioner, so CG stops after one iteration; a
bare sparse matrix gets the Jacobi preconditioner, the reference path.
The problems factor each operator once, and every solve with that
operator reuses the factor.  Every library solve runs to the one
tolerance SOLVE_TOL, which the factored path meets in one iteration.

RobinProblem is the Robin system both problem kinds share: the admissible
box of gamma, the operator S = base + B_gamma with its factor, the data
load of f, g and h, and the boundary loads -P_tag (x * u) that are the
right-hand sides of every derivative and adjoint solve.  P_tag, the
boundary-load map of a segment (boundary_load_map), is built once per
problem, so those loads are one product for a single field and for a
time series alike.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh import Mesh, SegmentTag, triangle_areas

# 2-point Gauss on the unit interval [0, 1]
_GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])

# Relative residual tolerance of every library solve, solve_spd's default.
SOLVE_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """Base class for failures of the sparse SPD solver."""


class ConvergenceFailure(LinearSolveError):
    """CG exhausted its iteration cap without reaching the tolerance."""


class CurvatureBreakdown(LinearSolveError):
    """The matrix is not SPD: CG met a direction of non-positive curvature,
    or a pivot block of the block LDL^T factorization is not positive
    definite."""


class BlockLDLT:
    """A banded SPD matrix together with its block LDL^T factorization.

    The nodes are cut into consecutive blocks of w, the half-bandwidth read
    from the matrix's own nonzeros, so the matrix is block tridiagonal with
    diagonal blocks A_k and sub-diagonal couplings C_k.  The factorization
    keeps the dense inverse of every pivot block, D_k = A_k - C_k
    D_{k-1}^{-1} C_k^T (a Schur complement), and the couplings as the
    sparse entries they are; only the couplings below the diagonal are
    read, symmetry supplies the rest.  The last block is padded with the
    identity when w does not divide the dimension.  For the lexicographic
    node numbering of a structured mesh, w = nx + 2.

    solve applies the inverse of the matrix by one forward and one
    backward block sweep; solve_spd uses it as the preconditioner of CG,
    which then stops after one iteration.  The matrix itself stays
    available as ``matrix``; nnz and shape are its own.

    Raises CurvatureBreakdown when a pivot block is not positive definite.
    """

    def __init__(self, matrix: sparse.spmatrix):
        self.matrix = matrix
        n = matrix.shape[0]
        coo = matrix.tocoo()
        row, col, val = coo.row, coo.col, coo.data
        w = max(int(np.abs(row - col).max(initial=0)), 1)
        nb = -(-n // w)
        row_block, row_local = np.divmod(row, w)
        col_block, col_local = np.divmod(col, w)

        dinv = np.zeros((nb, w, w))
        on = row_block == col_block
        np.add.at(dinv, (row_block[on], row_local[on], col_local[on]), val[on])
        pad = np.arange(n, nb * w)
        dinv[pad // w, pad % w, pad % w] = 1.0

        below = np.flatnonzero(row_block == col_block + 1)
        below = below[np.argsort(row_block[below], kind="stable")]
        cuts = np.searchsorted(row_block[below], np.arange(nb + 1))
        self._coupling = [
            (row_local[idx], col_local[idx], val[idx])
            for idx in (below[cuts[k]:cuts[k + 1]] for k in range(nb))
        ]

        for k in range(nb):
            pivot = dinv[k]
            if k:
                r, c, a = self._coupling[k]
                C = np.zeros((w, w))
                np.add.at(C, (r, c), a)
                pivot -= C @ dinv[k - 1] @ C.T
            try:
                L = np.linalg.cholesky(pivot)
            except np.linalg.LinAlgError:
                raise CurvatureBreakdown(
                    f"pivot block {k} (rows {k * w}..{min((k + 1) * w, n) - 1}) "
                    f"is not positive definite"
                ) from None
            L_inv = np.linalg.inv(L)
            dinv[k] = L_inv.T @ L_inv
        self._dinv = dinv

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, up to rounding."""
        dinv = self._dinv
        nb, w, _ = dinv.shape
        n = self.matrix.shape[0]
        x = np.zeros(nb * w)
        x[:n] = b
        x = x.reshape(nb, w)
        # forward: x_k <- D_k^{-1} (b_k - C_k x_{k-1})
        x[0] = dinv[0] @ x[0]
        for k in range(1, nb):
            r, c, a = self._coupling[k]
            x[k] -= np.bincount(r, a * x[k - 1, c], minlength=w)
            x[k] = dinv[k] @ x[k]
        # backward: x_k <- x_k - D_k^{-1} C_{k+1}^T x_{k+1}
        for k in range(nb - 2, -1, -1):
            r, c, a = self._coupling[k + 1]
            x[k] -= dinv[k] @ np.bincount(c, a * x[k + 1, r], minlength=w)
        return x.ravel()[:n]


def solve_spd(
    A: sparse.spmatrix | BlockLDLT,
    b: np.ndarray,
    tol: float = SOLVE_TOL,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Preconditioned conjugate gradients.  A BlockLDLT is its own
    preconditioner: the factor solves the system up to rounding, so CG
    stops after one iteration.  A bare sparse matrix gets the diagonal
    (Jacobi) preconditioner, the reference path.  Either way the loop
    stops when ||b - A x||_2 <= tol * ||b||_2 and checks the curvature of
    every search direction, so the tolerance and the SPD check hold for
    both.  The iteration is a fixed deterministic recurrence: identical
    inputs give bit-identical solutions.

    Parameters
    ----------
    tol : relative residual tolerance, must lie in (0, 1).
    x0 : optional warm start (used by the time steppers).
    max_iter : iteration cap, defaults to 10 * dimension.
    stats : optional dict, receives {"iterations": k} on return.

    Raises
    ------
    ConvergenceFailure if the cap is hit, CurvatureBreakdown if a search
    direction has non-positive curvature (an SPD violation upstream).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    n = A.shape[0]
    if max_iter is None:
        max_iter = 10 * n

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        if stats is not None:
            stats["iterations"] = 0
        return np.zeros(n)

    if isinstance(A, BlockLDLT):
        precondition = A.solve
        A = A.matrix
    else:
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            bad = int(np.argmin(diag))
            raise CurvatureBreakdown(
                f"non-positive diagonal entry {diag[bad]:g} at row {bad}"
            )

        def precondition(r):
            return r / diag

    x = np.zeros(n) if x0 is None else x0.astype(float, copy=True)
    r = b - A @ x
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    threshold = tol * norm_b

    if np.linalg.norm(r) <= threshold:
        if stats is not None:
            stats["iterations"] = 0
        return x

    for k in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise CurvatureBreakdown(
                f"non-positive curvature {pAp:g} at iteration {k}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= threshold:
            if stats is not None:
                stats["iterations"] = k
            return x
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise ConvergenceFailure(
        f"no convergence in {max_iter} iterations "
        f"(residual {np.linalg.norm(r):.3e}, target {threshold:.3e})"
    )


def _coeff_on_points(coeff, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate a scalar constant or a vectorized callable on points."""
    if callable(coeff):
        return np.broadcast_to(np.asarray(coeff(x, y), dtype=float), x.shape).copy()
    return np.full(x.shape, float(coeff))


def _triangle_geometry(mesh: Mesh):
    """Areas and P1 gradient components for every triangle."""
    p = mesh.nodes[mesh.triangles]          # (m, 3, 2)
    area = triangle_areas(mesh)
    if np.any(area <= 0.0):
        raise ValueError("mesh contains a non-positively oriented triangle")
    x = p[:, :, 0]
    y = p[:, :, 1]
    # grad phi_i = (b_i, c_i) / (2 area), cyclic differences
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return p, area, b, c


def _scatter(mesh: Mesh, local: np.ndarray) -> sparse.csr_matrix:
    """Sum (m, 3, 3) local matrices into the global sparse matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def assemble_stiffness(mesh: Mesh, a) -> sparse.csr_matrix:
    """Stiffness matrix, entries integral of a * grad(phi_i) . grad(phi_j).

    The diffusion coefficient is evaluated once per triangle at the
    centroid; P1 gradients are constant per element so this is the exact
    element integral for piecewise constant a.  Non-positive samples are
    rejected, an elliptic operator needs a > 0.
    """
    p, area, b, c = _triangle_geometry(mesh)
    centroid = p.mean(axis=1)
    a_val = _coeff_on_points(a, centroid[:, 0], centroid[:, 1])
    if np.any(a_val <= 0.0):
        raise ValueError("diffusion coefficient must be positive everywhere")
    scale = a_val / (4.0 * area)
    local = scale[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )
    return _scatter(mesh, local)


# P1 basis values at the three edge midpoints of the reference triangle.
_MID_PHI = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


def _edge_midpoints(p: np.ndarray) -> np.ndarray:
    """Edge midpoints of each triangle, shape (m, 3, 2)."""
    return np.stack([
        0.5 * (p[:, 0] + p[:, 1]),
        0.5 * (p[:, 1] + p[:, 2]),
        0.5 * (p[:, 2] + p[:, 0]),
    ], axis=1)


def assemble_mass(mesh: Mesh, c) -> sparse.csr_matrix:
    """Mass matrix, entries integral of c * phi_i * phi_j.

    Midpoint quadrature is exact for the P1 x P1 product, so constant c
    reproduces the consistent mass matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    without quadrature error.  Negative samples are rejected.
    """
    p, area, _, _ = _triangle_geometry(mesh)
    mid = _edge_midpoints(p)
    c_val = _coeff_on_points(c, mid[:, :, 0], mid[:, :, 1])   # (m, 3)
    if np.any(c_val < 0.0):
        raise ValueError("mass coefficient must be nonnegative")
    # sum_q (area/3) c_q phi(q) phi(q)^T
    outer = _MID_PHI[:, :, None] * _MID_PHI[:, None, :]        # (3, 3, 3)
    local = (area[:, None, None] / 3.0) * np.einsum(
        "mq,qij->mij", c_val, outer
    )
    return _scatter(mesh, local)


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Volume load vector, entries integral of f * phi_i (midpoint rule)."""
    p, area, _, _ = _triangle_geometry(mesh)
    mid = _edge_midpoints(p)
    f_val = _coeff_on_points(f, mid[:, :, 0], mid[:, :, 1])    # (m, 3)
    local = (area[:, None] / 3.0) * (f_val @ _MID_PHI)         # (m, 3)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles.ravel(), local.ravel())
    return out


def _boundary_weight_at_gauss(mesh: Mesh, tag: SegmentTag, weight) -> np.ndarray:
    """Weight values at the two Gauss points of every segment edge.

    A callable is sampled at the physical Gauss points; an array is taken
    as nodal values on the segment and interpolated linearly along each
    edge; a scalar is broadcast.
    """
    seg = mesh.segments[tag]
    if callable(weight):
        p0 = mesh.nodes[seg.edges[:, 0]]
        p1 = mesh.nodes[seg.edges[:, 1]]
        gx = p0[:, 0, None] + _GAUSS_XI[None, :] * (p1[:, 0] - p0[:, 0])[:, None]
        gy = p0[:, 1, None] + _GAUSS_XI[None, :] * (p1[:, 1] - p0[:, 1])[:, None]
        return _coeff_on_points(weight, gx, gy)
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        return np.full((seg.edges.shape[0], 2), float(w))
    if w.shape != seg.nodes.shape:
        raise ValueError(
            f"boundary weight has {w.shape[0]} entries, "
            f"segment {tag.name} has {seg.nodes.shape[0]} nodes"
        )
    w0 = w[seg.local[:, 0]]
    w1 = w[seg.local[:, 1]]
    return w0[:, None] * (1.0 - _GAUSS_XI)[None, :] + w1[:, None] * _GAUSS_XI[None, :]


def assemble_boundary_mass(mesh: Mesh, tag: SegmentTag, weight) -> sparse.csr_matrix:
    """Weighted boundary mass on one segment, as a global sparse matrix.

    Entry (i, j) is the integral over the segment of weight * phi_i * phi_j.
    With a nodal weight the integrand is cubic per edge and the 2-point
    Gauss rule evaluates it exactly, so the matrix depends linearly on the
    nodal weight values.  That linearity is what the derivative solver
    differentiates, do not change the quadrature here without revisiting it.
    """
    seg = mesh.segments[tag]
    w_gauss = _boundary_weight_at_gauss(mesh, tag, weight)

    phi = np.stack([1.0 - _GAUSS_XI, _GAUSS_XI], axis=0)       # (2, q)
    # local 2x2 block per edge: length * sum_q wq * w(xi_q) phi_i phi_j
    blk = np.einsum(
        "q,eq,iq,jq->eij", _GAUSS_W, w_gauss, phi, phi
    ) * seg.length[:, None, None]

    rows = np.repeat(seg.edges, 2, axis=1).ravel()
    cols = np.tile(seg.edges, (1, 2)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((blk.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_boundary_load(mesh: Mesh, tag: SegmentTag, g) -> np.ndarray:
    """Boundary load vector, entries integral over the segment of g * phi_i."""
    seg = mesh.segments[tag]
    g_gauss = _boundary_weight_at_gauss(mesh, tag, g)
    phi = np.stack([1.0 - _GAUSS_XI, _GAUSS_XI], axis=0)
    contrib = np.einsum("q,eq,iq->ei", _GAUSS_W, g_gauss, phi) * seg.length[:, None]
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, seg.edges.ravel(), contrib.ravel())
    return out


def segment_mass(mesh: Mesh, tag: SegmentTag) -> sparse.csr_matrix:
    """Unweighted mass matrix of one segment in its local node numbering."""
    seg = mesh.segments[tag]
    ns = seg.nodes.shape[0]
    l6 = seg.length / 6.0
    local = seg.local
    data = np.column_stack([2.0 * l6, l6, l6, 2.0 * l6]).ravel()
    rows = np.column_stack([local[:, 0], local[:, 0], local[:, 1], local[:, 1]]).ravel()
    cols = np.column_stack([local[:, 0], local[:, 1], local[:, 0], local[:, 1]]).ravel()
    return sparse.coo_matrix((data, (rows, cols)), shape=(ns, ns)).tocsr()


def boundary_load_map(mesh: Mesh, tag: SegmentTag) -> sparse.csr_matrix:
    """Linear map P of a nodal segment field g to its boundary load.

    P has shape (n_nodes, segment nodes); P @ g equals
    assemble_boundary_load(mesh, tag, g) up to rounding, since the load of
    a linearly interpolated weight is the segment mass applied to its
    nodal values, scattered to the global node ids.
    """
    seg = mesh.segments[tag]
    M = segment_mass(mesh, tag).tocoo()
    return sparse.csr_matrix(
        (M.data, (seg.nodes[M.row], M.col)),
        shape=(mesh.n_nodes, seg.nodes.shape[0]),
    )


def boundary_inner(mesh: Mesh, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
    """L2 inner product of two segment fields (linear interpolation per edge).

    Exact for the quadratic integrand of two P1 segment functions.
    """
    seg = mesh.segments[tag]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != seg.nodes.shape or v.shape != seg.nodes.shape:
        raise ValueError(
            f"segment {tag.name} has {seg.nodes.shape[0]} nodes, "
            f"got fields of size {u.shape} and {v.shape}"
        )
    u0, u1 = u[seg.local[:, 0]], u[seg.local[:, 1]]
    v0, v1 = v[seg.local[:, 0]], v[seg.local[:, 1]]
    per_edge = seg.length / 6.0 * (2.0 * u0 * v0 + u0 * v1 + u1 * v0 + 2.0 * u1 * v1)
    return float(per_edge.sum())


def boundary_norm(mesh: Mesh, tag: SegmentTag, u: np.ndarray) -> float:
    """Segment L2 norm, the square root of the self inner product."""
    return float(np.sqrt(boundary_inner(mesh, tag, u, u)))


def require_in_box(values: np.ndarray, lo: float, hi: float,
                   name: str = "gamma") -> None:
    """Raise ValueError unless every entry lies in [lo, hi].

    Written as a conjunction of the two bounds so that NaN, which fails
    every comparison, is rejected instead of slipping through.
    """
    if not np.all((values >= lo) & (values <= hi)):
        raise ValueError(
            f"{name} leaves the admissible box [{lo}, {hi}] or is not a number"
        )


class RobinProblem:
    """The Robin system shared by EllipticProblem and ParabolicProblem.

    A subclass is a frozen dataclass with the fields mesh, gamma_min and
    gamma_max and a gamma-free matrix ``base``; the operator of a Robin
    coefficient gamma is base + B_gamma, B_gamma the boundary mass of
    gamma on the inaccessible segment.
    """

    def __post_init__(self):
        # written so that NaN fails the checks too
        if not self.gamma_min > 0.0:
            raise ValueError(f"gamma_min must be positive, got {self.gamma_min}")
        if not self.gamma_max >= self.gamma_min:
            raise ValueError("gamma_max must not be below gamma_min")

    def robin_operator(self, gamma: np.ndarray) -> BlockLDLT:
        """base + B_gamma for a nodal gamma in the box, factored."""
        gamma = np.asarray(gamma, dtype=float)
        require_in_box(gamma, self.gamma_min, self.gamma_max)
        B = assemble_boundary_mass(self.mesh, SegmentTag.INACCESSIBLE, gamma)
        return BlockLDLT((self.base + B).tocsr())

    def data_load(self, f, g, h) -> np.ndarray:
        """Load of the volume source f, the Robin data g on the inaccessible
        segment and the flux data h on the accessible one, summed in that
        order."""
        b = assemble_load(self.mesh, f)
        b += assemble_boundary_load(self.mesh, SegmentTag.INACCESSIBLE, g)
        b += assemble_boundary_load(self.mesh, SegmentTag.ACCESSIBLE, h)
        return b

    @cached_property
    def load_maps(self) -> dict[SegmentTag, sparse.csr_matrix]:
        """P_tag of every segment, see boundary_load_map."""
        return {tag: boundary_load_map(self.mesh, tag) for tag in SegmentTag}

    def boundary_loads(self, tag: SegmentTag, u: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
        """Boundary load of -(x * u) on segment tag, for every row of u.

        u is one nodal field or a (levels, n_nodes) series, x a segment
        field or a series of them; the result has the shape of u.
        """
        seg = self.mesh.segment_nodes(tag)
        xu = np.asarray(x, dtype=float) * u[..., seg]
        return -(self.load_maps[tag] @ xu.T).T
