"""The cascaded biquad recurrence, the one hot loop that cannot be vectorized.

Everything else in the package stays in plain NumPy; this module is the
single place a faster recurrence would go.
"""

from __future__ import annotations

import numpy as np


def sos_filter(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """Run the biquad cascade over x; returns (output, final state).

    ``sos`` rows are (b0, b1, b2, a1, a2) with a0 = 1; ``zi`` has one
    (s0, s1) delay pair per section (transposed direct-form II). Inputs are
    not mutated.
    """
    # Scalar-float loop over plain lists: ~100x faster than indexing ndarrays.
    y = x.tolist()
    zf = zi.astype(np.float64)  # astype copies; zi itself is never mutated
    count = len(y)
    for s in range(sos.shape[0]):
        b0, b1, b2, a1, a2 = sos[s].tolist()
        s0, s1 = zf[s].tolist()
        for i in range(count):
            xi = y[i]
            yi = b0 * xi + s0
            s0 = b1 * xi - a1 * yi + s1
            s1 = b2 * xi - a2 * yi
            y[i] = yi
        zf[s, 0] = s0
        zf[s, 1] = s1
    return np.asarray(y, dtype=np.float64), zf
