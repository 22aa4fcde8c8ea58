"""The surrogate quadratic of one L-M step, for the tests of its minimizer.

The library's update takes the minimizer of this quadratic in closed
form; the tests evaluate the quadratic itself to probe that claim.
"""

from __future__ import annotations

import numpy as np

from robinrecon import fem
from robinrecon.mesh import SegmentTag


def make_surrogate_objective(
    prob,
    gamma_k: np.ndarray,
    grad: np.ndarray,
    beta_k: float,
    A: float = 1.0,
):
    """Evaluator of the step's surrogate quadratic, up to its constant.

    Returns J(gamma) = A * ||gamma - gamma_k - G/A||^2 + beta_k *
    ||gamma - gamma_k||^2 in the segment norm, where G = grad is the raw
    direction of the step at gamma_k, as lm._quantities returns it.  Its
    exact global minimizer is gamma_k + G / (A + beta_k), which is what
    the pre-clamp update takes.
    """
    gamma_k = np.asarray(gamma_k, dtype=float)
    mesh = prob.mesh
    tag = SegmentTag.INACCESSIBLE
    shift = grad / A

    def objective(gamma: np.ndarray) -> float:
        s = np.asarray(gamma, dtype=float) - gamma_k
        t = s - shift
        return (A * fem.boundary_inner(mesh, tag, t, t)
                + beta_k * fem.boundary_inner(mesh, tag, s, s))

    return objective
