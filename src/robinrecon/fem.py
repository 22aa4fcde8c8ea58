"""P1 finite element assembly and a direct block solver.

All matrices built here are symmetric.  Domain integrals use the 3-point
edge-midpoint rule on triangles, which is exact for products of two P1
functions, so the mass matrix is the consistent one.  Every boundary
integral of a nodal segment field is taken with the exact P1 segment
mass, segment_mass, in closed form per edge (Segment.weighted_mass): the
Robin block B_gamma is the mass of the nodal gamma, and boundary_inner,
the boundary loads and the space-time inner products apply the
unweighted mass each segment keeps (Segment.mass).  Only data sampled
from a callable (assemble_boundary_load) use quadrature on a segment,
2-point Gauss per edge.  Keeping the integrals exact is what makes the
discrete adjoint identity hold to solver precision downstream.

Boundary fields (Robin coefficients, measurement residuals, directions)
are plain 1-D arrays indexed by the node list of one segment, in (y, x)
order, see Mesh.segment_nodes, with leading axes for a stack or a time
series; the segment geometry comes precomputed with the mesh
(Mesh.segments).  Every boundary field passes one check of its shape and
finiteness, boundary_field: the weight of segment_mass, both factors of
boundary_inner, and through RobinProblem.trace every trace of a solve.
Nodal fields on the whole mesh are 1-D arrays of length n_nodes.  The
load assemblies (assemble_load, assemble_boundary_load) take a scalar or
a callable datum, and with the times of a march's levels sample a
callable of (x, y, t) once for all of them, t an array along a leading
axis broadcast against the quadrature points; each level is weighted and scattered from its view
of that sample with one np.bincount, so a row is bit for bit the load
of the datum frozen at its time.

The matrices (assemble_stiffness, assemble_mass, assemble_boundary_mass)
are SymBands, symmetric matrices stored by their upper diagonals: a P1
matrix of the structured mesh has four, summed from the element entries
on and above the diagonal by one np.bincount.  Their sums make each
problem's base, their product with a vector or with columns is the
march's mass product and the residual check of every full solve, and
BlockLDLT cuts its pivots and couplings as plain slices of the base's
diagonals; the module needs numpy alone.

The solver comes in two parts.  BlockLDLT is the block LDL^T factor in
node order of everything but the last pivot: the leading pivots, the
couplings, the fixed steps of both sweeps over the leading blocks and
the Schur complement of the last block, which is per base and does not
solve.  An Operator of a BlockLDLT adds what belongs to one matrix: its
dense last block, the factored last pivot and the last block's steps.
solve_spd is the one full solve: one application of an Operator and one
residual check against SOLVE_TOL, the tolerance of every library solve,
for one right-hand side or an (n, m) array of them.  A leading block of
several mesh columns steps by one dense product each way, built once
per base factor, and so does the last block forward when the block
before it holds several mesh columns, built once per Operator on its
first full solve; a block of one column, and the last block after one,
step diagonal by diagonal.  The steps of both sweeps are fixed once, so
a solve only loops over them.
BlockLDLT.condense condenses the leading blocks onto the last for one
load with the same steps and no last pivot: the condensed load and the
rows a of A_LL^{-1} A_LI.  Operator.condense anchors them at its own
solution, the rows a of one checked full solve and the edge solve of the
condensed load (Condensation), after which solve_edge solves on the last
block alone, one product with the inverse of its pivot and the same
residual check.  The condensation is checked with these two solves and
no residual of its own: one probe load on the last block, solved in full
and on the edge, and the edge solve of the condensed load against the
full solve's edge block.

RobinProblem is the Robin system both problem kinds share: the admissible
box of gamma, the operator S = base + B_gamma, the data load of f, g and
h, boundary_field at the problem's own levels (trace), and the
boundary loads -(x M), x a segment field and M the segment mass, that
are the right-hand sides of every derivative and adjoint solve, on the
segment's nodes alone.  The mesh numbers its
nodes by column, x outer and y inner, and the factor takes them in that
order: it groups the leading columns into blocks of about _BLOCK_WIDTH
unknowns and keeps the inaccessible edge x = lx, the only place B_gamma
touches, alone as its last block.
The gamma-free base is factored once per problem, up to the Schur
complement Sigma_0 of that edge (base_factor); an operator is the
Operator of that factor and the dense edge block B_gamma[I, I], I the
edge nodes, the mass of gamma there (Segment.weighted_mass), and nothing
more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mesh import Mesh, SegmentTag, require_finite, signed_areas

# 2-point Gauss on the unit interval [0, 1]
_GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])

# Relative residual tolerance of every library solve, checked by solve_spd.
SOLVE_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """Base class for failures of the SPD block solver."""


class ConvergenceFailure(LinearSolveError):
    """The solve missed SOLVE_TOL."""


class CurvatureBreakdown(LinearSolveError):
    """The matrix is not SPD: a pivot block of the block LDL^T
    factorization is not positive definite."""


class SymBand:
    """A symmetric n x n matrix stored by its upper diagonals.

    offsets lists the stored diagonals, ascending, and data, of shape
    (len(offsets), n), their entries: data[j, i] = A[i, i + offsets[j]],
    zero past the end of the diagonal; A is symmetric, so the diagonals
    below are not stored.  A P1 matrix of the structured mesh has four,
    offsets 0, 1, ny + 1 and ny + 2 (the diagonal of each cell runs from
    lower left to upper right), and a segment mass on the edge x = lx
    two, offsets 0 and 1.
    The data are read-only.

    from_entries sums entries on and above the diagonal with one
    np.bincount, no sort; from_block embeds a dense symmetric block.  A
    SymBand adds to another, divides by a scalar, and multiplies one
    vector or an (n, m) array of columns with @: for each signed
    diagonal, d and -d of every stored d, the rows of x it reaches are
    gathered through one precomputed index (an index past either end is
    clipped and weighted zero), and one product with a vector of ones
    sums them.  nnz counts the nonzero entries of the whole matrix.
    """

    def __init__(self, offsets, data: np.ndarray):
        self.offsets = tuple(int(d) for d in offsets)
        self.data = data
        self.data.flags.writeable = False
        self.shape = (data.shape[1], data.shape[1])

    @classmethod
    def from_entries(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                     values: np.ndarray) -> "SymBand":
        """The n x n symmetric matrix with the entries values at (rows,
        cols), rows <= cols, and their mirror images, duplicates summed:
        the diagonals present are read off a bincount of the offsets, and
        the entries keyed by (diagonal, row) summed by a second one."""
        rows = np.ravel(rows)
        offset = np.ravel(cols) - rows
        present = np.bincount(offset) > 0
        offsets = np.flatnonzero(present)
        key = (np.cumsum(present) - 1)[offset]
        del offset
        key *= n
        key += rows
        data = np.bincount(key, np.ravel(values), minlength=offsets.size * n)
        return cls(offsets, data.reshape(offsets.size, n))

    @classmethod
    def from_block(cls, n: int, nodes: np.ndarray,
                   block: np.ndarray) -> "SymBand":
        """The n x n matrix that is the dense symmetric block at the rows
        and columns nodes, zero elsewhere; raises ValueError unless block
        is a finite symmetric array of order nodes.size."""
        block = _symmetric_block(block, nodes.size)
        i, j = np.nonzero(block)
        rows, cols = nodes[i], nodes[j]
        upper = rows <= cols
        return cls.from_entries(n, rows[upper], cols[upper],
                                block[i, j][upper])

    @cached_property
    def nnz(self) -> int:
        return sum(np.count_nonzero(v) * (2 if d else 1)
                   for d, v in zip(self.offsets, self.data))

    def __add__(self, other: "SymBand") -> "SymBand":
        if not isinstance(other, SymBand):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shapes differ: {self.shape} and {other.shape}")
        offsets = sorted(set(self.offsets) | set(other.offsets))
        data = np.zeros((len(offsets), self.shape[0]))
        for term in (self, other):
            data[[offsets.index(d) for d in term.offsets]] += term.data
        return SymBand(offsets, data)

    def __truediv__(self, scalar: float) -> "SymBand":
        return SymBand(self.offsets, self.data / float(scalar))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        values, index, ones = self._gather
        taken = x[index]
        if x.ndim == 1:
            taken *= values
            return ones @ taken
        taken *= values[:, :, None]
        return (ones @ taken.reshape(ones.size, -1)).reshape(x.shape)

    @cached_property
    def _gather(self):
        """The signed diagonals in the order of _gather_index, (s, n), row
        i of diagonal d, d or -d, weighting x[i + d] (a diagonal below is
        the one above shifted down), and _gather_index's index and ones."""
        n = self.shape[0]
        values = []
        for d, v in zip(self.offsets, self.data):
            values.append(v)
            if d:
                values.append(np.concatenate([np.zeros(d), v[:n - d]]))
        return (np.array(values), *_gather_index(self.offsets, n))


def _symmetric_block(block, order: int) -> np.ndarray:
    """block as a float array; raises ValueError, naming its shape, unless
    it is a symmetric array of order order, and one saying so when it
    holds a non-finite entry."""
    block = np.asarray(block, dtype=float)
    if block.shape == (order, order) and not np.isfinite(block).all():
        raise ValueError(f"the symmetric block of order {order} holds "
                         f"non-finite entries")
    if block.shape != (order, order) or not np.array_equal(block, block.T):
        raise ValueError(f"a symmetric block of order {order} is needed, "
                         f"got an array of shape {block.shape}")
    return block


@lru_cache(maxsize=8)
def _gather_index(offsets: tuple, n: int):
    """The (s, n) index of the rows of x that each signed diagonal, d and
    then -d for every stored d (0 once), reaches in row i, i + d clipped
    to the matrix, and s ones."""
    signed = np.array([s for d in offsets for s in ((d, -d) if d else (0,))])
    index = np.clip(np.arange(n) + signed[:, None], 0, n - 1)
    index.flags.writeable = False
    return index, np.ones(signed.size)


class BlockLDLT:
    """Block LDL^T factor of an SPD matrix that is block tridiagonal in
    the order of its unknowns.

    ``widths`` lists the widths of consecutive blocks, block k the next
    w_k unknowns; they sum to the order of the matrix, and the matrix
    couples block k to blocks k - 1, k and k + 1 only.  Blocks may differ
    in width.  RobinProblem.base_factor groups the leading mesh columns
    by about _BLOCK_WIDTH unknowns and keeps the inaccessible edge x = lx
    alone as the last block.  With diagonal blocks A_k and couplings C_k
    = A[k, k - 1], w_k x w_{k-1}, the pivots are D_0 = A_0 and D_k = A_k
    - C_k D_{k-1}^{-1} C_k^T; every A_k and C_k is cut from the band's
    diagonals as plain slices.  The factor keeps the dense inverse of
    every pivot and the couplings by their nonzero diagonals; only the
    couplings below the diagonal are read, symmetry supplies the rest.
    A coupling diagonal is kept without the zeros at its ends.  A leading
    block that C_{k+1} reaches only in part, a group of two or more mesh
    columns, also keeps its two dense steps (_dense_steps): G_k = [-D_k^{-1}
    C_k | D_k^{-1}], of which D_k^{-1} is a view, and H_k = D_k^{-1}
    C_{k+1}^T, each cut to the rows its coupling reaches.

    The last pivot is set apart, so that a change confined to the last
    diagonal block costs one factorization of its order.  BlockLDLT(base,
    widths) factors the leading pivots of the SymBand ``base`` and keeps
    the last one unfactored as ``schur``, the Schur complement of the
    last block; it need not be definite (a pure Neumann base is
    singular).  It also fixes the steps of both sweeps over the leading
    blocks (_fix_steps), and with them condenses a load onto the last
    block (condense), which needs no last pivot.  A base factor does not
    solve: Operator(factor, last) is base plus the dense ``last`` on the
    last diagonal block, which shares all of this and solves.

    Raises CurvatureBreakdown when a pivot is not positive definite, and
    ValueError when the widths are not positive or do not sum to the
    order of the matrix, or the matrix couples blocks that are not
    neighbours.
    """

    def __init__(self, base: SymBand, widths):
        self.base = base
        widths = [int(w) for w in widths]
        n = base.shape[0]
        if min(widths, default=0) < 1 or sum(widths) != n:
            raise ValueError("blocks must list every unknown exactly once")
        block_of = np.repeat(np.arange(len(widths)), widths)
        for d, v in zip(base.offsets, base.data):
            i = np.flatnonzero(v[:n - d])
            if np.any(block_of[i + d] - block_of[i] > 1):
                raise ValueError(
                    "the matrix couples blocks that are not neighbours")
        nb = len(widths)
        self._spans = [slice(stop - w, stop)
                       for w, stop in zip(widths, np.cumsum(widths).tolist())]
        self._coupling = [[]]   # C_0 is zero
        self._dinv = []
        for k, span in enumerate(self._spans):
            w = widths[k]
            pivot = np.zeros((w, w))
            flat = pivot.reshape(-1)
            for d, v in zip(base.offsets, base.data):
                if d < w:
                    # diagonal d of the pivot and its mirror image
                    flat[d::w + 1][:w - d] = flat[d * w::w + 1][:w - d] = \
                        v[span.start:span.stop - d]
            if k:
                # entry (i, i + d) of C_k is that of the band at row
                # span.start - offset + i, offset = w_{k-1} - d; the zeros
                # at either end of a diagonal are cut off
                coupling = []
                for offset, v in zip(base.offsets[::-1], base.data[::-1]):
                    d = widths[k - 1] - offset
                    lo = max(0, -d)
                    v = v[span.start - offset + lo:
                          span.start - offset + min(w, offset)]
                    nonzero = np.flatnonzero(v)
                    if nonzero.size:
                        first, stop = int(nonzero[0]), int(nonzero[-1]) + 1
                        coupling.append((d, lo + first, lo + stop,
                                         v[first:stop]))
                self._coupling.append(coupling)
                # pivot -= C_k D_{k-1}^{-1} C_k^T: the rows of C_k D_{k-1}^{-1},
                # then, since D_{k-1} is symmetric, those of C_k times its
                # transpose D_{k-1}^{-1} C_k^T
                T = np.zeros((w, widths[k - 1]))
                for d, lo, hi, v in self._coupling[k]:
                    T[lo:hi] += v[:, None] * self._dinv[k - 1][lo + d:hi + d]
                T = T.T.copy()
                for d, lo, hi, v in self._coupling[k]:
                    pivot[lo:hi] -= v[:, None] * T[lo + d:hi + d]
            if k < nb - 1:
                self._dinv.append(_invert_pivot(pivot, k, nb))
        self.schur = pivot
        # the rows of block k that C_{k+1}^T reaches, one slice around them
        self._reach = [_around((lo + d, hi + d) for d, lo, hi, v in coupling)
                       for coupling in self._coupling[1:]]
        # a leading block that C_{k+1} reaches in part, a group of mesh
        # columns, steps by one dense product each way; the last never
        self._dense = [self._dense_steps(k) if r.stop - r.start < w else None
                       for k, (r, w) in enumerate(zip(self._reach, widths))
                       ] + [None]
        self._fix_steps()

    def _dense_forward(self, k: int, dinv: np.ndarray):
        """G_k = [-dinv C_k | dinv], C_k cut to the rows of block k - 1 it
        reads, self._reach[k - 1] (G_0 = dinv), and the slice of x it
        applies to, those rows through the end of block k.  Each column of
        the product with the coupling is a column of dinv times an entry
        of one of its diagonals."""
        span = self._spans[k]
        if not k:
            return dinv, span
        start = self._reach[k - 1].start
        source = slice(self._spans[k - 1].start + start, span.stop)
        m = source.stop - source.start - len(dinv)
        G = np.zeros((len(dinv), m + len(dinv)))
        G[:, m:] = dinv
        for d, lo, hi, v in self._coupling[k]:
            G[:, lo + d - start:hi + d - start] -= dinv[:, lo:hi] * v
        return G, source

    def _dense_steps(self, k: int):
        """The dense steps of leading block k: G_k with its slice of x (see
        _dense_forward), and H_k = D_k^{-1} C_{k+1}^T, cut to the rows of
        block k + 1 that C_{k+1} reaches, with that slice.  D_k^{-1}
        becomes a view of G_k, so the two stay one array."""
        dinv = self._dinv[k]
        G, source = self._dense_forward(k, dinv)
        self._dinv[k] = G[:, G.shape[1] - len(dinv):]
        rows = _around((lo, hi) for d, lo, hi, v in self._coupling[k + 1])
        H = np.zeros((len(dinv), rows.stop - rows.start))
        for d, lo, hi, v in self._coupling[k + 1]:
            H[:, lo - rows.start:hi - rows.start] += dinv[:, lo + d:hi + d] * v
        return G, source, H, rows

    def _fix_steps(self) -> None:
        """The steps of the sweeps over the leading blocks, fixed once per
        base; see Operator.solve.  A forward step (span, couplings, M,
        source) subtracts each coupling term from x and sets x[span] = M @
        x[source]: a dense step has no couplings and M = G_k, any other
        block its couplings, as (rows of x, diagonal, rows of x read), and
        M = D_k^{-1} on its own rows.  A backward step (span, M, source,
        couplings), last leading block first, subtracts D_k^{-1} C_{k+1}^T
        x_{k+1} from x[span]: M @ x[source] for a dense step, M = H_k and
        source the rows of block k + 1 it reads; else M = D_k^{-1}^T and
        source all of block k + 1, which _reach_back first maps by the
        couplings, as (rows of block k, diagonal, rows of block k + 1)."""
        edge = self._spans[-1]
        steps = []
        for k, span in enumerate(self._spans):
            before = self._spans[k - 1].start
            couplings = tuple(
                (slice(span.start + lo, span.start + hi), v,
                 slice(before + lo + d, before + hi + d))
                for d, lo, hi, v in self._coupling[k])
            if k == len(self._dinv):
                self._edge_couplings = couplings
            elif self._dense[k]:
                steps.append((span, (), *self._dense[k][:2]))
            else:
                steps.append((span, couplings, self._dinv[k], span))
        self._leading = steps
        # condense's sweep: the last block takes its coupling terms alone,
        # which leave the condensed load b_I - A_IL A_LL^{-1} b_L there
        self._condensing = steps + [(edge, self._edge_couplings, None, None)]
        self._backward = []
        for k in range(len(self._dinv) - 1, -1, -1):
            span, above = self._spans[k], self._spans[k + 1]
            if self._dense[k]:
                H, rows = self._dense[k][2:]
                self._backward.append((span, H, slice(
                    above.start + rows.start, above.start + rows.stop), ()))
            else:
                # C_{k+1}^T reaches the whole block
                self._backward.append((span, self._dinv[k].T, above, tuple(
                    (slice(lo + d, hi + d), v, slice(lo, hi))
                    for d, lo, hi, v in self._coupling[k + 1])))

    def condense(self, b: np.ndarray, rows: np.ndarray):
        """The condensed load b_I - A_IL A_LL^{-1} b_L and Z, the rows a
        of A_LL^{-1} A_LI, for the load b of shape (n,) and the unknowns
        listed in rows (a); see Condensation.  Neither reads the last
        pivot.  The forward sweep over the leading blocks leaves the
        condensed load on the last block I, and Z comes from the block
        backward recursion X_k = -D_k^{-1} C_{k+1}^T X_{k+1}, started at
        -1 on I, one block at a time by the backward steps, of which only
        the rows in a are kept.  Needs at least one leading block."""
        edge = self._spans[-1]
        x = b.copy()
        _forward(x, self._condensing)
        Z = np.empty((rows.size, edge.stop - edge.start))

        def keep(span, X):
            here = (rows >= span.start) & (rows < span.stop)
            Z[here] = X[rows[here] - span.start]

        # the backward sweep over a zero forward elimination, from -1 on
        # the last block: block k of [A_LL^{-1} A_LI; -1], one at a time
        X = -np.eye(Z.shape[1])
        keep(edge, X)
        for (span, M, source, couplings), above in zip(self._backward,
                                                       self._spans[:0:-1]):
            y = X[source.start - above.start:source.stop - above.start]
            if couplings:
                y = _reach_back(couplings, y, len(M))
            X = M @ y
            np.negative(X, out=X)
            keep(span, X)
        return x[edge].copy(), Z


class Operator:
    """A BlockLDLT completed: the factor of base plus the dense ``last``
    on the last diagonal block, which solves.

    Operator(factor, last) shares the leading pivots and fixed steps of
    ``factor`` and factors Sigma = factor.schur + last, which it keeps
    for the residual check of solve_edge.  Raises ValueError unless last
    is a finite symmetric array of the last block's order, and
    CurvatureBreakdown unless Sigma is positive definite.  Every operator
    of one problem holds only its edge block, Sigma and the inverse of
    Sigma.

    solve applies the inverse of the completed matrix by one forward and
    one backward sweep over the blocks.  A block with dense steps takes
    one product with G_k forward, on the slice of x from the rows of block
    k - 1 that C_k reads to the end of block k, and one with H_k backward.
    The last block takes G_I = [-Sigma^{-1} C_I | Sigma^{-1}] forward
    exactly when C_I reaches the block before it in part, built on the
    operator's first full solve, so an operator that only solves on its
    last block never builds it.  Any other block, one mesh column or the
    last after one, takes one update per diagonal of C_k and one product
    with D_k^{-1} forward, and backward one product with the whole
    D_k^{-1}, since C_{k+1}^T reaches such a block whole.  The leading
    steps are the factor's (BlockLDLT._fix_steps), the last block's are
    fixed by _sweep, and solve and the factor's condense run the same
    ones, for one vector or an (n, m) array of columns.  condense(b, rows)
    anchors the factor's condensation of one load b at this operator's
    solution and checks it (see Condensation), after which solve_edge
    solves on the last block alone.  matvec applies the
    matrix, one banded product with base plus last, whose diagonals are
    folded into a copy of base's on the first call; both take one vector
    or an (n, m) array of columns, and solve_spd checks the one with the
    other.  nnz is that of base.
    """

    def __init__(self, factor: BlockLDLT, last: np.ndarray):
        self.factor = factor
        self._edge = _symmetric_block(last, len(factor.schur))
        self._sigma = factor.schur + self._edge
        self._last = _invert_pivot(self._sigma,
                                   len(factor._dinv), len(factor._dinv) + 1)

    @property
    def nnz(self) -> int:
        return self.factor.base.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, A the matrix of the operator."""
        return self._operator @ x

    @cached_property
    def _operator(self) -> SymBand:
        """base plus the edge block on the last diagonal block."""
        base, edge = self.factor.base, self.factor._spans[-1]
        return base + SymBand.from_block(
            base.shape[0], np.arange(edge.start, edge.stop), self._edge)

    @cached_property
    def _sweep(self) -> list:
        """The forward steps of the operator, built on its first full
        solve: those of the leading blocks and the last block's.  The
        last block steps densely, G_I = [-Sigma^{-1} C_I | Sigma^{-1}],
        exactly when C_I reaches the block before it in part, which is
        when that block steps densely too."""
        factor = self.factor
        edge = factor._spans[-1]
        if len(factor._spans) > 1 and factor._dense[-2]:
            G, source = factor._dense_forward(len(factor._dinv), self._last)
            return factor._leading + [(edge, (), G, source)]
        return factor._leading + [
            (edge, factor._edge_couplings, self._last, edge)]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, up to rounding, for b of shape (n,) or (n, m)."""
        x = b.copy()
        _forward(x, self._sweep)
        for span, M, source, couplings in self.factor._backward:
            y = x[source]
            if couplings:
                y = _reach_back(couplings, y, len(M))
            x[span] -= M @ y
        return x

    def condense(self, b: np.ndarray, rows: np.ndarray) -> "Condensation":
        """The leading blocks L condensed onto the last block I, for the
        load b of shape (n,) and the unknowns listed in rows (a),
        anchored at the solution of this operator; see Condensation.

        The condensed load and Z are the factor's (BlockLDLT.condense),
        the anchor u is one checked solve_spd of b, and u_edge the
        solve_edge of the condensed load.  The result is checked once, by
        checked solves alone: at the rows, the solve_spd of the probe
        load c = linspace(1, 2) on I must agree with -Z Sigma^{-1} c,
        Sigma^{-1} c its solve_edge, to SOLVE_TOL, and u_edge must give u
        on I to SOLVE_TOL.  Raises ConvergenceFailure when a check or one
        of its solves misses.
        """
        rows = np.asarray(rows)
        edge = self.factor._spans[-1]
        load, Z = self.factor.condense(b, rows)
        anchor = solve_spd(self, b)
        u_edge = solve_edge(self, load)
        c = np.zeros(self.factor.base.shape[0])
        c[edge] = np.linspace(1.0, 2.0, edge.stop - edge.start)
        for name, exact, condensed in (
                ("Z", solve_spd(self, c)[rows],
                 -(Z @ solve_edge(self, c[edge]))),
                ("load", anchor[edge], u_edge)):
            gap = _norm(exact - condensed)
            target = SOLVE_TOL * _norm(exact)
            if not gap <= target:
                raise ConvergenceFailure(
                    f"condensation missed SOLVE_TOL in {name}: gap "
                    f"{gap:.3e}, target {target:.3e}")
        return Condensation(load=load, Z=Z, u_rows=anchor[rows],
                            u_edge=u_edge)


def _forward(x: np.ndarray, steps) -> None:
    """The forward steps (see BlockLDLT._fix_steps) on x in place, one
    vector or an (n, m) array of columns: each coupling term of a step
    subtracted, through x.T so that one diagonal serves both shapes, then
    x[span] = M @ x[source] unless M is None."""
    for span, couplings, M, source in steps:
        for rows, v, read in couplings:
            x.T[..., rows] -= v * x.T[..., read]
        if M is not None:
            x[span] = M @ x[source]


def _reach_back(couplings, xn: np.ndarray, w: int) -> np.ndarray:
    """C_{k+1}^T xn for the couplings of a backward step, one vector or
    columns of block k + 1, summed into w zero rows of block k."""
    y = np.zeros((w,) + xn.shape[1:])
    for here, v, read in couplings:
        y.T[..., here] += v * xn.T[..., read]
    return y


@dataclass(frozen=True)
class Condensation:
    """The leading blocks L of a block LDL^T factor condensed onto its
    last block I (Toselli & Widlund, Domain Decomposition Methods, 4),
    for one load b and a set of rows a: what a solution of the system
    needs at a once its last block is known.

    load is the condensed load b_I - A_IL A_LL^{-1} b_L and Z, of shape
    (a, I), the rows a of A_LL^{-1} A_LI; a row of a in the last block is
    unknown j of it, where Z holds -e_j.  Both are the base factor's
    (BlockLDLT.condense), the same for every operator of one base, and
    Operator.condense adds the anchor.  The solutions of A u = b for
    every completed last pivot Sigma = Sigma_0 + last differ only
    through u_I = Sigma^{-1} load, and u[a] is affine in u_I with the
    slope -Z, so u_rows and u_edge, one solution at a and on I (the
    anchor), give u[a] = u_rows - Z (u_I - u_edge) for all of them, bit
    for bit the anchor's own trace at its own pivot.  u_rows comes from
    the anchor's full solve and u_edge is the edge solve Sigma^{-1} load
    at its pivot, which is u_I there bit for bit; the full solve's own
    edge block, which a dense last step computes in another order,
    agrees with it only to SOLVE_TOL.  A load c on I
    alone gives A^{-1} c at a as -Z Sigma^{-1} c, and a load c on a alone
    gives A^{-1} c on I as Sigma^{-1} (-Z^T c).
    """

    load: np.ndarray
    Z: np.ndarray
    u_rows: np.ndarray
    u_edge: np.ndarray


def _around(ranges) -> slice:
    """One slice around the ranges (start, stop), empty for none."""
    ranges = list(ranges)
    start = min((start for start, stop in ranges), default=0)
    stop = max((stop for start, stop in ranges), default=0)
    return slice(start, max(start, stop))


def _invert_pivot(pivot: np.ndarray, k: int, nb: int) -> np.ndarray:
    """Inverse of pivot block k of nb, which must be positive definite."""
    try:
        return _spd_inverse(pivot)
    except np.linalg.LinAlgError:
        raise CurvatureBreakdown(
            f"pivot block {k} of {nb} is not positive definite"
        ) from None


# Order up to which _spd_inverse inverts in one LAPACK call.
_SPD_LEAF = 64

# Unknowns per block that RobinProblem.base_factor aims at: a block step
# costs a fixed few microseconds of calls plus about w^2 multiply-adds,
# which balance near this width; with the dense steps of grouped blocks,
# one vector solve at 16 x 32 took 40, 43, 33, 32 and 38 us at widths 64,
# 96, 128, 192 and 256 (2-core VM, BLAS on one thread).
_BLOCK_WIDTH = 128


def _spd_inverse(P: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix.

    Recursive 2 x 2 block elimination: with P = [[P11, P21^T], [P21,
    P22]], X = P21 P11^{-1} and the Schur complement S = P22 - X P21^T,
    P is positive definite exactly when P11 and S are, and its inverse is
    [[P11^{-1} + X^T S^{-1} X, -(S^{-1} X)^T], [-S^{-1} X, S^{-1}]].  The
    work is then matrix products, about half the flops of np.linalg.inv,
    which finishes the recursion at _SPD_LEAF unknowns after a Cholesky
    test.  Raises np.linalg.LinAlgError if P is not positive definite.
    """
    n = P.shape[0]
    if n <= _SPD_LEAF:
        np.linalg.cholesky(P)
        return np.linalg.inv(P)
    h = n // 2
    P21 = P[h:, :h]
    inv = np.empty_like(P)
    inv[:h, :h] = _spd_inverse(P[:h, :h])
    X = P21 @ inv[:h, :h]
    inv[h:, h:] = _spd_inverse(P[h:, h:] - X @ P21.T)
    Y = inv[h:, h:] @ X
    inv[:h, :h] += X.T @ Y
    inv[h:, :h] = -Y
    inv[:h, h:] = -Y.T
    return inv


def solve_spd(op: Operator, b: np.ndarray,
              stats: dict | None = None) -> np.ndarray:
    """Solve S x = b, S the SPD matrix of the Operator op.

    A direct block solve plus one residual check: x = op.solve(b), then
    ||b - op.matvec(x)||_2 <= SOLVE_TOL ||b||_2 must hold, so a factor that
    does not solve its matrix fails here instead of passing a wrong x on.
    b is one vector or an (n, m) array of columns, each checked on its
    own; a zero column gives a zero column, and b = 0 returns zero
    without touching the factor.  stats, when given, receives
    {"iterations": k}, the number of factor applications: 1, or 0 for
    b = 0.

    Raises ConvergenceFailure when a residual misses SOLVE_TOL (a NaN
    residual included); for columns, the message names the first.
    """
    x, applications = _checked_solve(op.solve, op.matvec, b)
    if stats is not None:
        stats["iterations"] = applications
    return x


def solve_edge(op: Operator, r: np.ndarray) -> np.ndarray:
    """Solve Sigma x = r, Sigma = Sigma_0 + last the completed last pivot
    of op: the system on the last block that a Condensation leaves.

    One product with the pivot's inverse and the residual check of
    solve_spd against SOLVE_TOL, for one vector or an (n_I, m) array of
    columns; raises ConvergenceFailure in the same way.
    """
    return _checked_solve(op._last.__matmul__, op._sigma.__matmul__, r)[0]


def _checked_solve(solve, matvec, b: np.ndarray):
    """x = solve(b), checked column by column against SOLVE_TOL with
    matvec, and the number of solve applications (0 for b = 0)."""
    if b.ndim == 1:
        norm = _norm(b)
        if not norm:
            return np.zeros(b.shape), 0
        x = solve(b)
        _check_residual(_norm(b - matvec(x)), norm, "")
        return x, 1
    norm_b = [_norm(column) for column in np.ascontiguousarray(b.T)]
    if not any(norm_b):
        return np.zeros(b.shape), 0
    x = solve(b)
    residuals = np.ascontiguousarray((b - matvec(x)).T)
    for j, (norm, r, x_j) in enumerate(zip(norm_b, residuals, x.T)):
        if norm == 0.0:
            x_j[:] = 0.0
            continue
        _check_residual(_norm(r), norm, f" in column {j}")
    return x, 1


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a contiguous vector, bit for bit np.linalg.norm's
    sqrt(v @ v) without its dispatch."""
    return math.sqrt(v @ v)


def _check_residual(residual: float, norm: float, where: str) -> None:
    """Raise ConvergenceFailure unless residual <= SOLVE_TOL * norm."""
    if not residual <= SOLVE_TOL * norm:
        raise ConvergenceFailure(
            f"block solve missed SOLVE_TOL{where}: residual "
            f"{residual:.3e}, target {SOLVE_TOL * norm:.3e}"
        )


def _coeff_on_points(coeff, x: np.ndarray, y: np.ndarray,
                     name: str, times=None) -> np.ndarray:
    """Evaluate a scalar constant or a vectorized callable on points.

    With times, a callable is a datum of (x, y, t), sampled once with t =
    times[:, None, ...] broadcast against the points, which gives one
    sample per level, shape (len(times), *x.shape); without, a callable
    of (x, y) gives one sample of the points' shape.  When the call or
    the broadcast of its sample fails, a TypeError naming the argument
    and chained from the original error says how it must be vectorized,
    with the sample's shape if there is one.  A scalar gives one sample
    of the points' shape either way.  A callable's sample is a read-only
    broadcast view, not a copy; callers only read it.  Anything else (a
    nodal array, say) raises TypeError naming the argument.
    """
    args = "(x, y)" if times is None else "(x, y, t)"
    if callable(coeff):
        if times is None:
            t, shape = (), x.shape
            need = f"a vectorized callable of {args}"
        else:
            t = (np.reshape(times, (-1,) + (1,) * x.ndim),)
            shape = (len(t[0]), *x.shape)
            need = (f"a callable of {args} vectorized in x, y and t, "
                    f"sampled at all {shape[0]} levels at once")
        sample = None
        try:
            sample = np.asarray(coeff(x, y, *t), dtype=float)
            return np.broadcast_to(sample, shape)
        except (TypeError, ValueError) as err:
            got = ("it fails" if sample is None
                   else f"got a sample of shape {sample.shape}")
            raise TypeError(f"{name} must be a scalar or {need}, {got} for "
                            f"points of shape {x.shape}") from err
    if np.ndim(coeff) != 0:
        raise TypeError(
            f"{name} must be a scalar or a vectorized callable of {args}, "
            f"got an array of shape {np.shape(coeff)}")
    return np.full(x.shape, float(coeff))


def _triangle_points(mesh: Mesh):
    """Vertex coordinates (m, 3, 2) and areas of every triangle."""
    p = mesh.nodes[mesh.triangles]
    area = signed_areas(p)
    # written so that NaN fails the check too
    if not np.all(area > 0.0):
        raise ValueError("mesh contains a non-positively oriented triangle")
    return p, area


def _triangle_geometry(mesh: Mesh):
    """Areas and P1 gradient components for every triangle."""
    p, area = _triangle_points(mesh)
    x = p[:, :, 0]
    y = p[:, :, 1]
    # grad phi_i = (b_i, c_i) / (2 area), cyclic differences
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return p, area, b, c


# The local entries (i, j) on and above the diagonal of a triangle.
_UPPER = np.triu_indices(3)


def _scatter(mesh: Mesh, upper: np.ndarray) -> SymBand:
    """Sum symmetric local matrices into the global SymBand, given by
    their (m, 6) entries on and above the diagonal (_UPPER).  Each
    transient goes as soon as it is used, as the geometry does in the
    callers: at 64 x 128 an assembly peaks at about 5 MB."""
    a, b = (mesh.triangles[:, i] for i in _UPPER)
    rows = np.minimum(a, b)
    cols = np.maximum(a, b, out=a)
    del b
    return SymBand.from_entries(mesh.n_nodes, rows, cols, upper)


def assemble_stiffness(mesh: Mesh, a) -> SymBand:
    """Stiffness matrix, entries integral of a * grad(phi_i) . grad(phi_j).

    The diffusion coefficient is evaluated once per triangle at the
    centroid; P1 gradients are constant per element so this is the exact
    element integral for piecewise constant a.  Non-positive and NaN
    samples are rejected, an elliptic operator needs a > 0.
    """
    p, area, b, c = _triangle_geometry(mesh)
    centroid = p.mean(axis=1)
    a_val = _coeff_on_points(a, centroid[:, 0], centroid[:, 1], "a")
    if not np.all(a_val > 0.0):
        raise ValueError("diffusion coefficient must be positive everywhere")
    scale = a_val / (4.0 * area)
    i, j = _UPPER
    upper = scale[:, None] * (b[:, i] * b[:, j] + c[:, i] * c[:, j])
    del p, area, b, c
    return _scatter(mesh, upper)


# P1 basis values at the three edge midpoints of the reference triangle.
_MID_PHI = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


def _edge_midpoints(mesh: Mesh):
    """Edge midpoints of each triangle, shape (m, 3, 2), and the areas.

    Edge k joins vertices k and k + 1 (mod 3).
    """
    p, area = _triangle_points(mesh)
    p += p[:, [1, 2, 0]]
    p *= 0.5
    return p, area


def assemble_mass(mesh: Mesh, c) -> SymBand:
    """Mass matrix, entries integral of c * phi_i * phi_j.

    Midpoint quadrature is exact for the P1 x P1 product, so constant c
    reproduces the consistent mass matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]
    without quadrature error.  Negative and NaN samples are rejected.
    """
    mid, area = _edge_midpoints(mesh)
    c_val = _coeff_on_points(c, mid[:, :, 0], mid[:, :, 1], "c")  # (m, 3)
    if not np.all(c_val >= 0.0):
        raise ValueError("mass coefficient must be nonnegative")
    # sum_q (area/3) c_q phi_i(q) phi_j(q), for i <= j
    i, j = _UPPER
    upper = (area[:, None] / 3.0) * (c_val @ (_MID_PHI[:, i] * _MID_PHI[:, j]))
    del mid, area, c_val
    return _scatter(mesh, upper)


def assemble_load(mesh: Mesh, f, times=None) -> np.ndarray:
    """Volume load vector, entries integral of f * phi_i (midpoint rule).

    f is a scalar or a vectorized callable of (x, y).  With times, a
    callable f is a datum of (x, y, t), vectorized in t as well: it is
    sampled once at all the times and gives a (len(times), n_nodes)
    array, row l the load at times[l] and bit for bit the load of f
    frozen at that time; a scalar f still gives one load.
    """
    mid, area = _edge_midpoints(mesh)
    # contiguous coordinates, on which a vectorized source runs faster
    x, y = mid[:, :, 0].copy(), mid[:, :, 1].copy()
    del mid
    weight = area[:, None] / 3.0
    index = mesh.triangles.ravel()
    values = _coeff_on_points(f, x, y, "f", times)  # ([levels,] m, 3)
    out = np.empty((*values.shape[:-2], mesh.n_nodes))
    for row, level in zip(out.reshape(-1, mesh.n_nodes),
                          values.reshape(-1, *x.shape)):
        local = weight * (level @ _MID_PHI)
        row[:] = np.bincount(index, local.ravel(), minlength=mesh.n_nodes)
    return out


def assemble_boundary_load(mesh: Mesh, tag: SegmentTag, g, times=None,
                           name: str = "g") -> np.ndarray:
    """Boundary load vector, entries integral over the segment of g * phi_i.

    g is a scalar or a vectorized callable of (x, y), sampled at the two
    Gauss points of every segment edge; with times, a callable of (x, y,
    t) as for assemble_load, which gives one load per time.  An error
    about g calls it name.  The load of a nodal segment field is its
    product with the segment mass, see RobinProblem.boundary_loads.
    """
    seg = mesh.segments[tag]
    p0 = mesh.nodes[seg.edges[:, 0]]
    p1 = mesh.nodes[seg.edges[:, 1]]
    gx = p0[:, 0, None] + _GAUSS_XI[None, :] * (p1[:, 0] - p0[:, 0])[:, None]
    gy = p0[:, 1, None] + _GAUSS_XI[None, :] * (p1[:, 1] - p0[:, 1])[:, None]
    phi = np.stack([1.0 - _GAUSS_XI, _GAUSS_XI], axis=0)
    length = seg.length[:, None]
    index = seg.edges.ravel()
    values = _coeff_on_points(g, gx, gy, f"{name} on segment {tag.name}",
                              times)
    out = np.empty((*values.shape[:-2], mesh.n_nodes))
    for row, level in zip(out.reshape(-1, mesh.n_nodes),
                          values.reshape(-1, *gx.shape)):
        contrib = np.einsum("q,eq,iq->ei", _GAUSS_W, level, phi) * length
        row[:] = np.bincount(index, contrib.ravel(), minlength=mesh.n_nodes)
    return out


def boundary_field(mesh: Mesh, tag: SegmentTag, x, name: str,
                   levels=()) -> np.ndarray:
    """x as a float array of shape (*levels, n), n the node count of
    segment tag: the one check of every boundary field, a trace, a Robin
    coefficient, a weight or a factor of an inner product.  Raises
    ValueError naming x, the segment, x's shape and the expected one for
    any other shape, so that no field broadcasts across the segment or
    the levels, and naming x for a NaN or an infinity, which no solve
    should be blamed for."""
    x = np.asarray(x, dtype=float)
    expected = (*levels, mesh.segments[tag].nodes.size)
    if x.shape != expected:
        raise ValueError(f"{name} on segment {tag.name} must have shape "
                         f"{expected}, got shape {x.shape}")
    # count_nonzero is one C call; .all() dispatches through Python and,
    # on the few dozen entries of a segment field, costs about twice as much
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError(f"{name} holds non-finite values (NaN or inf)")
    return x


def segment_mass(mesh: Mesh, tag: SegmentTag, weight=1.0) -> np.ndarray:
    """Exact P1 mass of a weight on one segment, dense in the segment's
    node numbering (Mesh.segment_nodes): entry (i, j) the integral of
    weight * phi_i * phi_j.  weight is a scalar, broadcast to every node,
    or nodal values on the segment (Segment.weighted_mass), checked by
    boundary_field; the unweighted mass is kept as Segment.mass.
    """
    seg = mesh.segments[tag]
    if np.ndim(weight) == 0:
        weight = np.full(seg.nodes.shape, float(weight))
    return seg.weighted_mass(
        boundary_field(mesh, tag, weight, "the boundary weight"))


def assemble_boundary_mass(mesh: Mesh, tag: SegmentTag, weight) -> SymBand:
    """segment_mass embedded in the global node numbering: the reference
    assembly of B_gamma, of which operators hold only the segment block."""
    return SymBand.from_block(mesh.n_nodes, mesh.segments[tag].nodes,
                              segment_mass(mesh, tag, weight))


def boundary_inner(mesh: Mesh, tag: SegmentTag, u: np.ndarray, v: np.ndarray) -> float:
    """L2 inner product of two segment fields (linear interpolation per
    edge), u @ M @ v with the segment mass M: exact.  Both pass
    boundary_field, v only when it is another object than u."""
    checked = boundary_field(mesh, tag, u, "the field u")
    v = checked if v is u else boundary_field(mesh, tag, v, "the field v")
    return float(checked @ (mesh.segments[tag].mass @ v))


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
    gamma_max, a gamma-free matrix ``base`` and the leading axes
    ``levels`` of its traces, derived from its data: () for one segment
    field, (nt + 1,) for a march.  The operator of a Robin coefficient
    gamma is base + B_gamma, B_gamma the segment mass of gamma on the
    inaccessible segment.  Like base, the factor of base is computed on
    first use and kept, so every operator of the problem shares its
    leading pivots.  Every trace that enters a solve or the outer loop
    passes one check, trace, which is boundary_field at the problem's
    levels; gamma passes it in robin_operator.  The boundary loads of the
    derivative and adjoint solves are segment loads, products with the
    segment mass.
    """

    def __post_init__(self):
        require_finite(self.gamma_min, "gamma_min")
        require_finite(self.gamma_max, "gamma_max")
        if self.gamma_max < self.gamma_min:
            raise ValueError("gamma_max must not be below gamma_min")

    @cached_property
    def base_factor(self) -> BlockLDLT:
        """The block factor of base over the mesh columns: every pivot but
        the last, and the Schur complement Sigma_0 of the last column, the
        inaccessible edge, unfactored.  The nx leading columns are grouped
        g at a time, g the column count nearest to _BLOCK_WIDTH unknowns
        (at least one); the last group holds what is left over."""
        nx, column = self.mesh.nx, self.mesh.ny + 1
        g = max(1, round(_BLOCK_WIDTH / column))
        return BlockLDLT(self.base, [min(g, nx - i) * column
                                     for i in range(0, nx, g)] + [column])

    def robin_operator(self, gamma: np.ndarray) -> Operator:
        """base + B_gamma for a nodal gamma in the box, factored: base_factor
        completed with B_gamma[I, I], the mass of gamma on the
        inaccessible edge (Segment.weighted_mass), the edge's block and the
        only one B_gamma touches.  gamma passes trace, then the box."""
        tag = SegmentTag.INACCESSIBLE
        gamma = self.trace(tag, gamma, "gamma", ())
        require_in_box(gamma, self.gamma_min, self.gamma_max)
        return Operator(self.base_factor,
                        self.mesh.segments[tag].weighted_mass(gamma))

    def data_load(self, f, g, h, times=None) -> np.ndarray:
        """Load of the volume source f, the Robin data g on the inaccessible
        segment and the flux data h on the accessible one, summed in that
        order.  With times, each callable is a datum of (x, y, t) sampled
        at all of them (see assemble_load) and gives a (levels, n_nodes)
        array, to every row of which a scalar adds its one load."""
        b = assemble_load(self.mesh, f, times)
        for tag, data, name in ((SegmentTag.INACCESSIBLE, g, "g"),
                                (SegmentTag.ACCESSIBLE, h, "h")):
            b = b + assemble_boundary_load(self.mesh, tag, data, times, name)
        return b

    def trace(self, tag: SegmentTag, x, name: str, levels=None) -> np.ndarray:
        """x checked by boundary_field, with the problem's own levels
        unless given: the one check of every trace that enters a solve or
        the outer loop."""
        return boundary_field(self.mesh, tag, x, name,
                              self.levels if levels is None else levels)

    def boundary_loads(self, tag: SegmentTag, x) -> np.ndarray:
        """Boundary load -(x M) of the fields x on segment tag, M the
        segment mass, on the segment's nodes alone: one load for a segment
        field, one per row for a stack or series, whatever its leading
        axes (see trace)."""
        x = self.trace(tag, x, "the boundary field x", np.shape(x)[:-1])
        return -(x @ self.mesh.segments[tag].mass)
