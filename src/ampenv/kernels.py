"""The cascaded biquad filter, run two ways behind one entry point.

``sos_filter`` is the kernel every filter pass in the package calls, and
the layer perfbench traces. On inputs of at most ``RECURRENCE_MAX``
samples it is ``sos_recurrence``, which steps the sections' transposed
direct-form II recurrence one sample at a time. Its rounding does not
depend on where an input starts, so ``filter_causal``, and so streaming,
feed the kernel spans no longer than that: a split run then reproduces the
whole run elementwise, which a blocked run does not (a blocked causal path
failed 320 of 10,000 elements of that test, at zero crossings).

Longer inputs, the two passes of ``filtfilt_zero_phase``, run as matrix
products over blocks of ``_BLOCK`` samples (``_sos_blocked``). This is the
block formulation of Nehab et al., "GPU-efficient recursive filtering and
summed-area tables" (ACM TOG 2011). The cascade is one linear system with
two states per section. A block's output is a lower-triangular Toeplitz
matrix of the impulse response times the block's input, plus an
observability matrix times the state at the block's start. Those states
follow a recurrence over blocks, which is summed by doubling (a
Hillis-Steele scan). The operators are built once per design in
``np.longdouble`` and rounded once to float64.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK = 128  # samples per block, a power of two: A^_BLOCK is a repeated square
_SCAN_STEPS = 48  # block-transition powers kept: the scan covers 2^48 blocks
# Inputs up to this many samples run the recurrence, and filter_causal
# feeds spans this long. The blocks are faster from about 100 samples, but
# longer spans mean fewer calls per causal chunk.
RECURRENCE_MAX = 1024


def sos_recurrence(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """Run the biquad cascade over x sample by sample; returns (output, final state).

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


def _state_space(sos: np.ndarray):
    """The cascade as one system z' = A z + B x, y = C z + D x, in np.longdouble.

    Also returns the maps from the recurrence's (s0, s1) states to the
    system's and back. A section with complex poles re +- i im gets the
    basis in which its own transition is the rotation-scaling
    [[re, -im], [im, re]].
    In the delay-pair basis the block transition A^L of a low cutoff has
    entries near L that cancel, so float64 rounding in the block carry is
    amplified; the rotation form has none.
    """
    ld = np.longdouble
    n = 2 * len(sos)
    a = np.zeros((n, n), ld)
    b = np.zeros(n, ld)
    c = np.zeros(n, ld)  # the running section output is c . z + d x
    d = ld(1)
    basis = np.eye(n, dtype=ld)
    inverse = np.eye(n, dtype=ld)
    for k, (b0, b1, b2, a1, a2) in enumerate(np.asarray(sos, ld)):
        s0, s1 = 2 * k, 2 * k + 1
        cy = b0 * c
        cy[s0] += 1
        dy = b0 * d
        a[s0] = b1 * c - a1 * cy
        a[s0, s1] += 1
        b[s0] = b1 * d - a1 * dy
        a[s1] = b2 * c - a2 * cy
        b[s1] = b2 * d - a2 * dy
        c, d = cy, dy
        im2 = a2 - a1 * a1 / 4
        if im2 > 0:  # basis (e0, (A_k - re) e0 / im)
            im = np.sqrt(im2)
            basis[s0, s1], basis[s1, s1] = -a1 / (2 * im), -a2 / im
            inverse[s0, s1], inverse[s1, s1] = -a1 / (2 * a2), -im / a2
    return inverse @ a @ basis, inverse @ b, c @ basis, d, inverse, basis


@functools.lru_cache(maxsize=16)
def _block_operators(key: bytes):
    """Float64 operators of the cascade whose sos array has these bytes.

    Built once per design, in np.longdouble, and rounded once to float64.
    Returns (h, observe, carry, powers, steps, to_system, to_delay): h is
    the impulse response after L - 1 zeros; observe's column k is C A^k;
    the state a block's first k inputs add is those inputs @ carry[-k:];
    powers[k] is (A^k)^T for k up to L; steps[j] is (A^(L * 2^j))^T, for
    the scan over blocks; to_system (kept in np.longdouble) and to_delay
    map the recurrence's states to the system's and back.
    """
    a, b, c, d, to_system, to_delay = _state_space(np.frombuffer(key).reshape(-1, 5))
    ab = b[None, :]  # row k: (A^k B)^T
    ca = c[None, :]  # row k: C A^k
    powers = np.eye(len(a), dtype=a.dtype)[None]  # powers[k]: (A^k)^T
    power = a
    while len(ab) < _BLOCK:
        ab = np.vstack((ab, ab @ power.T))
        ca = np.vstack((ca, ca @ power))
        powers = np.concatenate((powers, powers @ power.T))
        power = power @ power
    powers = np.concatenate((powers, power.T[None]))
    h = np.concatenate((np.zeros(_BLOCK - 1), [d], ca[:-1] @ b))
    steps = []
    for _ in range(_SCAN_STEPS):
        steps.append(_shared(power.T))
        power = power @ power
    return (
        _shared(h),
        _shared(ca.T),
        _shared(ab[::-1]),
        _shared(powers),
        tuple(steps),
        _shared(to_system, np.longdouble),
        _shared(to_delay),
    )


def _shared(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only copy in ``dtype``: cached operators are shared by every call."""
    a = a.astype(dtype)
    a.setflags(write=False)
    return a


def _sos_blocked(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """The cascade over a nonempty x as matrix products over blocks; returns (output, final state)."""
    count = len(x)
    n_blocks = -(-count // _BLOCK)
    r = count - (n_blocks - 1) * _BLOCK  # samples in the last block
    h, observe, carry, powers, steps, to_system, to_delay = _block_operators(
        np.ascontiguousarray(sos, dtype=np.float64).tobytes()
    )
    # A block's output row is [input row, start state] @ out. Row j of the
    # transposed Toeplitz part: j zeros, then the impulse response.
    out = np.vstack((np.lib.stride_tricks.sliding_window_view(h, _BLOCK)[::-1], observe))
    # One row per block: its input, zero-padded, then its start state.
    rows = np.empty((n_blocks, out.shape[0]))
    rows[:-1, :_BLOCK] = x[: count - r].reshape(n_blocks - 1, _BLOCK)
    rows[-1, :r] = x[count - r :]
    rows[-1, r:_BLOCK] = 0.0
    starts = rows[:, _BLOCK:]
    starts[0] = to_system @ np.asarray(zi, np.longdouble).reshape(-1)
    # starts[i + 1] = starts[i] @ steps[0] + added[i], summed over doubling spans.
    added = rows[:-1, :_BLOCK] @ carry
    added[:1] += starts[0] @ steps[0]
    span = 1
    for step in steps:
        if span >= len(added):
            break
        added[span:] += added[:-span] @ step
        span *= 2
    starts[1:] = added
    y = np.empty(n_blocks * _BLOCK)
    np.matmul(rows, out, out=y.reshape(n_blocks, _BLOCK))
    end = starts[-1] @ powers[r] + rows[-1, :r] @ carry[_BLOCK - r :]
    return y[:count], (to_delay @ end).reshape(-1, 2)


def sos_filter(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """Run the biquad cascade over x; returns (output, final state).

    Same filter and arguments as ``sos_recurrence``, which it is for inputs
    of at most ``RECURRENCE_MAX`` samples; longer inputs run as blocks
    (``_sos_blocked``). x may be a strided view. Inputs are not mutated.
    """
    if len(x) <= RECURRENCE_MAX:
        return sos_recurrence(sos, x, zi)
    return _sos_blocked(sos, x, zi)
