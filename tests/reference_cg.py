"""The test suite's reference solver: Jacobi-preconditioned CG.

It shares nothing with the block factor the library solves with, so the
tests check fem.solve_spd and the frozen runs against it.  Failures use
the library's exception types.
"""

from __future__ import annotations

import numpy as np

from robinrecon import fem


def solve_spd(
    A: fem.SymBand,
    b: np.ndarray,
    tol: float = fem.SOLVE_TOL,
    max_iter: int | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Conjugate gradients from zero with the diagonal (Jacobi)
    preconditioner.  The loop stops when ||b - A x||_2 <= tol * ||b||_2
    and checks the curvature of every search direction.  The iteration is
    a fixed deterministic recurrence: identical inputs give bit-identical
    solutions.

    Parameters
    ----------
    tol : relative residual tolerance, must lie in (0, 1).
    max_iter : iteration cap, defaults to 10 * dimension.
    stats : optional dict, receives {"iterations": k} on return.

    Raises
    ------
    fem.ConvergenceFailure if the cap is hit, fem.CurvatureBreakdown on a
    non-positive diagonal entry or a search direction of non-positive
    curvature.
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

    diag = A.data[A.offsets.index(0)]   # the stored main diagonal
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise fem.CurvatureBreakdown(
            f"non-positive diagonal entry {diag[bad]:g} at row {bad}"
        )

    x = np.zeros(n)
    r = b.astype(float, copy=True)
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    threshold = tol * norm_b

    for k in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise fem.CurvatureBreakdown(
                f"non-positive curvature {pAp:g} at iteration {k}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= threshold:
            if stats is not None:
                stats["iterations"] = k
            return x
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise fem.ConvergenceFailure(
        f"no convergence in {max_iter} iterations "
        f"(residual {np.linalg.norm(r):.3e}, target {threshold:.3e})"
    )
