"""The per-sample biquad recurrence, as the reference the block kernel is held to."""

import numpy as np


def recurrence(sos, x, zi, dtype=np.float64):
    """Run the cascade's transposed direct-form II recurrence over x in ``dtype``.

    ``sos`` rows are (b0, b1, b2, a1, a2) with a0 = 1; ``zi`` has one
    (s0, s1) delay pair per section. Returns (output, final state).
    """
    y = list(np.asarray(x, dtype=dtype))
    zf = np.array(zi, dtype=dtype)
    for k, (b0, b1, b2, a1, a2) in enumerate(np.asarray(sos, dtype=dtype)):
        s0, s1 = zf[k]
        for i, xi in enumerate(y):
            yi = b0 * xi + s0
            s0 = b1 * xi - a1 * yi + s1
            s1 = b2 * xi - a2 * yi
            y[i] = yi
        zf[k] = s0, s1
    return np.array(y, dtype=dtype), zf


has_extended_precision = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def printf_csv(signals) -> bytes:
    """The CSV of ``signals`` as printf writes it, one ``%.9g`` per value, row by row.

    ``signals`` is a dict or (name, Signal) pairs sharing length and rate;
    the first column is time_s = index / rate. The reference the vectorised
    ``write_csv`` is held to, byte for byte.
    """
    items = list(signals.items()) if isinstance(signals, dict) else list(signals)
    sigs = [sig for _, sig in items]
    n, rate = len(sigs[0]), sigs[0].sample_rate
    row = ",".join(["%.9g"] * (len(sigs) + 1)) + "\n"
    table = np.column_stack([np.arange(n) / rate] + [sig.samples for sig in sigs])
    header = "time_s," + ",".join(name for name, _ in items) + "\n"
    return (header + "".join(row % tuple(values) for values in table.tolist())).encode()
