"""The test suite's reference boundary quadrature: 2-point Gauss per edge.

It shares nothing with the closed-form segment mass the library
integrates nodal boundary fields with, so the tests check
fem.segment_mass and the boundary loads against it.
"""

from __future__ import annotations

import numpy as np

# 2-point Gauss on the unit interval [0, 1], weights 1/2 each
_XI = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)


def gauss_mass(seg, w: np.ndarray) -> np.ndarray:
    """Dense (ns, ns) matrix of a Segment, entry (i, j) the integral of
    w * phi_i * phi_j, w the nodal weight interpolated linearly along each
    edge: 2-point Gauss per edge, exact for that cubic integrand.  Its row
    sums are the load of w, since the phi_j sum to one."""
    phi = np.stack([1.0 - _XI, _XI])   # (basis function, Gauss point)
    M = np.zeros((seg.nodes.size, seg.nodes.size))
    for ends, length in zip(seg.local, seg.length):
        w_q = w[ends] @ phi
        M[np.ix_(ends, ends)] += 0.5 * length * (phi * w_q) @ phi.T
    return M
