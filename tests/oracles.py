"""Plain references the package is held to: the biquad recurrence, the peak-hold envelope, printf CSV, WAV bytes."""

import struct
from fractions import Fraction

import numpy as np
import pytest

from ampenv import kernels


def recurrence(sos, x, zi, number=float):
    """Run the cascade's transposed direct-form II recurrence over x in the arithmetic of ``number``.

    ``sos`` rows are (b0, b1, b2, a1, a2) with a0 = 1; ``zi`` has one
    (s0, s1) delay pair per section. ``number`` is float for the float64
    recurrence, or fractions.Fraction for an exact run: every float64 is
    dyadic, so inputs, coefficients and states convert exactly. Returns
    (output, final state), float64 arrays or object arrays of ``number``.
    """
    y = [number(v) for v in np.asarray(x, np.float64).tolist()]
    zf = [[number(v) for v in pair] for pair in np.asarray(zi, np.float64).tolist()]
    for k, row in enumerate(np.asarray(sos, np.float64).tolist()):
        b0, b1, b2, a1, a2 = map(number, row)
        s0, s1 = zf[k]
        for i, xi in enumerate(y):
            yi = b0 * xi + s0
            s0 = b1 * xi - a1 * yi + s1
            s1 = b2 * xi - a2 * yi
            y[i] = yi
        zf[k] = [s0, s1]
    return np.array(y), np.array(zf)


# Fraction bits of ``reference``'s fixed point. A rounding step is 2^-256,
# about 1e-77, some 60 orders of magnitude below a float64 ulp of the
# tests' outputs, which leaves room for any amplification the recurrence
# gives a state error at low cutoffs.
_FIXED_BITS = 256


def _dyadic(v):
    """(m, k) with v = m / 2^k exactly, for a float64 or np.longdouble v."""
    num, den = v.as_integer_ratio()
    return num, den.bit_length() - 1


def reference(sos, x, zi):
    """The cascade's recurrence over x from the delay pairs zi in fixed point; returns np.longdouble arrays.

    The extended-precision reference the kernel's deviation gates measure
    against. Every value is an integer count of 2^-``_FIXED_BITS``: inputs
    and states (float64 or np.longdouble, so dyadic) convert exactly, and
    a product with a coefficient m / 2^k is (m v) >> k, so each step
    rounds by at most one count. The results are rounded once to
    np.longdouble. Returns (output, final state), as ``recurrence`` does.
    """

    def fixed(v):
        m, k = _dyadic(v)
        return (m << _FIXED_BITS) >> k

    def unfixed(v):
        shift = max(abs(v).bit_length() - 63, 0)
        return np.ldexp(np.longdouble(v >> shift), shift - _FIXED_BITS)

    y = [fixed(v) for v in np.asarray(x)]
    zf = [[fixed(v) for v in pair] for pair in np.asarray(zi)]
    for k, row in enumerate(np.asarray(sos, np.float64)):
        (b0, e0), (b1, e1), (b2, e2), (a1, f1), (a2, f2) = map(_dyadic, row)
        s0, s1 = zf[k]
        for i, xi in enumerate(y):
            yi = (b0 * xi >> e0) + s0
            s0 = (b1 * xi >> e1) - (a1 * yi >> f1) + s1
            s1 = (b2 * xi >> e2) - (a2 * yi >> f2)
            y[i] = yi
        zf[k] = [s0, s1]
    return np.array([unfixed(v) for v in y]), np.array([[unfixed(v) for v in pair] for pair in zf])


def held_operators(sos, bunch, hold):
    """The group-rate operators of the zero-phase peak hold, from the long-double recurrence over one group.

    A group is G = ``hold // bunch`` bunches, L = G * bunch samples. The
    group runs once for each unit input of [w, z, u]: the backward state
    entering from its end, the forward start state and its G peaks, each
    held for its bunch. Both passes run the recurrence z' = A z + B x,
    y = C z + D x of the system ``kernels._state_space`` builds, sample by
    sample in np.longdouble: forward from z over the held peaks, then
    backward from w over the forward output reversed. (The delay-pair
    recurrence is no reference here: at 20 Hz its cancellations put it
    several float64 ulps from the rotation form, even in np.longdouble.)
    Returns (O, Gamma, [M_z; M_u], A^L), laid out as
    ``kernels._held_operators`` lays out (group, gamma, back, steps[0]):
    row j of each is what unit input j gives, so A^L comes transposed.
    """
    a, b, c, d = kernels._state_space(np.asarray(sos, np.float64))[:4]
    states, width = len(a), hold // bunch
    units = np.eye(2 * states + width, dtype=a.dtype)  # column j: unit input j
    held = np.repeat(units[2 * states :], bunch, axis=0)  # row t: the input at sample t

    def run(x, z):
        y = np.empty_like(x)
        for t, xt in enumerate(x):
            y[t] = c @ z + d * xt
            z = a @ z + b[:, None] * xt
        return y, z

    fwd, z = run(held, units[states : 2 * states])
    bwd, w = run(fwd[::-1], units[:states])
    return bwd[::-1].T, z[:, 2 * states :].T, w[:, states:].T, w[:, :states].T


def held_peak_operator(sos, bunch, hold):
    """O_u, the peak block of the group-rate operator, from ``reference`` over one group; np.longdouble.

    Row j is the zero-phase envelope, over one group of L = G * bunch
    samples (G = ``hold // bunch``), of a unit peak j held for its bunch:
    forward from zero delay pairs, then backward from zero over the
    forward output reversed. Zero is zero in every basis, so O_u needs no
    basis map and no code of the package's. ``kernels._held_operators``
    holds it as its group operator's last G rows.
    """
    width = hold // bunch
    zero = np.zeros((len(sos), 2))
    rows = []
    for j in range(width):
        held = np.zeros(width * bunch)
        held[j * bunch : (j + 1) * bunch] = 1.0
        fwd, _ = reference(sos, held, zero)
        bwd, _ = reference(sos, fwd[::-1], zero)
        rows.append(bwd[::-1])
    return np.array(rows)


def rest_state(sos, level):
    """Each section's (s0, s1) delay pair at rest under a constant input ``level``, solved exactly, rounded once.

    In fractions.Fraction from the float64 coefficients and level: at rest
    a section's output is y = u (b0 + b1 + b2) / (1 + a1 + a2) for its input
    u, the output of the section before, and its delay pair is
    ((b1 + b2) u - (a1 + a2) y, b2 u - a2 y). Each value is then rounded to
    float64. This is the step-response steady state that scipy's
    ``lfilter_zi`` gives, solved with no code of the package's; on the
    choice of start states for forward-backward filtering see Gustafsson,
    "Determining the initial states in forward-backward filtering" (IEEE
    TSP 1996).
    """
    u, pairs = Fraction(float(level)), []
    for b0, b1, b2, a1, a2 in (map(Fraction, row) for row in np.asarray(sos, np.float64).tolist()):
        y = u * (b0 + b1 + b2) / (1 + a1 + a2)
        pairs.append([float((b1 + b2) * u - (a1 + a2) * y), float(b2 * u - a2 * y)])
        u = y
    return np.array(pairs)


def peak_hold_envelope(sos, x, bunch, pad, run=recurrence):
    """The zero-phase peak-hold envelope of x, each pass run by ``run``: ``recurrence`` or ``reference``.

    Rectify, hold each ``bunch``-sample maximum, pad both ends with ``pad``
    odd reflections, then filter forward and backward over the whole
    array, each pass from the rest state at its first sample's level
    (``rest_state``).
    """
    n = len(x)
    staircase = np.repeat(np.maximum.reduceat(np.abs(x), np.arange(0, n, bunch)), bunch)[:n]
    ext = np.concatenate((
        2.0 * staircase[0] - staircase[pad:0:-1],
        staircase,
        2.0 * staircase[-1] - staircase[-2 : -pad - 2 : -1],
    ))
    fwd, _ = run(sos, ext, rest_state(sos, ext[0]))
    bwd, _ = run(sos, fwd[::-1], rest_state(sos, fwd[-1]))
    return bwd[::-1][pad : pad + n]


# The kernel's own deviation bar, in fractions of the peak: an envelope
# lies within 1/16 of the float64 recurrence's deviation, or within this
# floor where that is larger. On the tests' 136 envelopes on one BLAS
# thread the kernel sat at 0.0007-0.23 of the recurrence's deviation, and
# where above 1/16 of it, at most 8.0e-15 of the peak under OpenBLAS's
# default, Haswell and Nehalem core types and 6.4e-15 under SandyBridge.
# The floor is 2.5x the largest. A rest state off by 1e-13 moves the
# envelope ~1e-13 of the peak, which the recurrence's own deviation
# (2e-13 to 5e-13 of the peak at 150 Hz) would let through.
_KERNEL_FLOOR = 2e-14


def assert_within_the_recurrence(sos, x, bunch, pad, envelope):
    """Assert that ``envelope`` lies as close to the long-double peak-hold envelope as the kernel does.

    Distances are max |y - reference| over max |reference|, the reference
    being ``peak_hold_envelope`` run by ``reference``. The envelope's
    distance is at most the float64 recurrence's, and at most 1/16 of it
    or ``_KERNEL_FLOOR``, whichever is larger. Skips the test where
    np.longdouble is float64, which leaves no extended-precision reference.
    """
    if not has_extended_precision:
        pytest.skip("np.longdouble is float64 here, so there is no extended-precision reference")
    precise = peak_hold_envelope(sos, x, bunch, pad, reference)
    scale = np.max(np.abs(precise))
    blocked, sequential = (
        float(np.max(np.abs(y - precise)) / scale) for y in (envelope, peak_hold_envelope(sos, x, bunch, pad))
    )
    message = "%.3g of the peak, the float64 recurrence %.3g" % (blocked, sequential)
    assert blocked <= sequential, message
    assert blocked <= max(sequential / 16, _KERNEL_FLOOR), message


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


def wav_bytes(samples, rate: int, fmt: str) -> bytes:
    """A mono WAV file as ``write_wav`` writes it, by whole-array expressions.

    The pre-clip to [-1, 1], then for pcm16 scale by 2^15, round half to
    even, clip and cast; for float32 a cast. The reference the blocked
    ``write_wav`` is held to, byte for byte.
    """
    x = np.clip(np.asarray(samples, np.float64), -1.0, 1.0)
    if fmt == "pcm16":
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16, b"data", len(payload),
        )
    else:
        payload = x.astype("<f4").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHHH4sII4sI",
            b"RIFF", 50 + len(payload), b"WAVE", b"fmt ", 18, 3, 1, rate, rate * 4, 4, 32, 0,
            b"fact", 4, x.size, b"data", len(payload),
        )
    return header + payload


def decode_frames(raw: bytes, fmt: str, channels: int) -> np.ndarray:
    """WAV sample bytes as (frames, channels) float64, decoded from a slice of whole frames.

    ``fmt`` is pcm16, pcm24, pcm32 or float32; integers are divided by
    2^(bits - 1). The reference ``read_wav`` is held to, bit for bit.
    """
    width = {"pcm16": 2, "pcm24": 3, "pcm32": 4, "float32": 4}[fmt]
    raw = raw[: len(raw) // (width * channels) * width * channels]
    if fmt == "pcm24":
        triples = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        value = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        flat = np.where(value & 0x800000, value - 0x1000000, value).astype(np.float64) / 8388608.0
    else:
        dtype, scale = {"pcm16": ("<i2", 32768.0), "pcm32": ("<i4", 2147483648.0), "float32": ("<f4", 1.0)}[fmt]
        flat = np.frombuffer(raw, dtype=dtype).astype(np.float64) / scale
    return flat.reshape(-1, channels)
