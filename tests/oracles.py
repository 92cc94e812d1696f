"""Plain references the package is held to: the biquad recurrence, the peak-hold envelope, printf CSV, WAV bytes."""

import struct

import numpy as np
import pytest

from ampenv import kernels
from ampenv.filtering import _step_state


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


def peak_hold_envelope(sos, x, bunch, pad, dtype=np.float64):
    """The zero-phase peak-hold envelope of x, each pass run by ``recurrence`` in ``dtype``.

    Rectify, hold each ``bunch``-sample maximum, pad both ends with ``pad``
    odd reflections, then filter forward and backward over the whole
    array, each pass from the steady state of its first sample
    (``_step_state``).
    """
    n = len(x)
    staircase = np.repeat(np.maximum.reduceat(np.abs(x), np.arange(0, n, bunch)), bunch)[:n]
    ext = np.concatenate((
        2.0 * staircase[0] - staircase[pad:0:-1],
        staircase,
        2.0 * staircase[-1] - staircase[-2 : -pad - 2 : -1],
    ))
    fwd, _ = recurrence(sos, ext, _step_state(sos, ext[0]), dtype)
    bwd, _ = recurrence(sos, fwd[::-1], _step_state(sos, float(fwd[-1])), dtype)
    return bwd[::-1][pad : pad + n]


def assert_within_the_recurrence(sos, x, bunch, pad, envelope):
    """Assert that ``envelope`` lies no further from the long-double peak-hold envelope than the float64 recurrence.

    Distances are max |y - reference| over max |reference|, the reference
    being ``peak_hold_envelope`` in np.longdouble. Skips the test where
    np.longdouble is float64, which leaves no extended-precision reference.
    """
    if not has_extended_precision:
        pytest.skip("np.longdouble is float64 here, so there is no extended-precision reference")
    reference = peak_hold_envelope(sos, x, bunch, pad, np.longdouble)
    scale = np.max(np.abs(reference))
    blocked, sequential = (
        float(np.max(np.abs(y - reference)) / scale) for y in (envelope, peak_hold_envelope(sos, x, bunch, pad))
    )
    assert blocked <= sequential, "%.3g of the peak, the float64 recurrence %.3g" % (blocked, sequential)


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
