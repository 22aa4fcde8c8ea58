"""The test suite's dense form of a fem.SymBand.

The library never needs a band matrix dense; the tests check its band
products, sums, assemblies and factors against this array.
"""

from __future__ import annotations

import numpy as np


def toarray(A) -> np.ndarray:
    """The dense n x n array of the SymBand A: each stored diagonal and
    its mirror image below."""
    n = A.shape[0]
    dense = np.zeros(A.shape)
    for d, v in zip(A.offsets, A.data):
        i = np.arange(n - d)
        dense[i, i + d] = dense[i + d, i] = v[:n - d]
    return dense
