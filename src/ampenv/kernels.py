"""The cascaded biquad filter as matrix products over blocks.

``sos_filter`` is the kernel every filter pass in the package calls, and
the layer perfbench traces. It uses the block formulation of Nehab et al.,
"GPU-efficient recursive filtering and summed-area tables" (ACM TOG 2011).
The cascade is one linear system with two states per section. A block of
``BLOCK`` samples has as output a lower-triangular Toeplitz matrix of the
impulse response times the block's input, plus an observability matrix
times the state at the block's start. The operators are built once per
design in ``np.longdouble`` and rounded once to float64.

The state is carried across blocks in one of two ways, chosen by the
input's length:

- The spans ``filter_causal`` feeds, whole groups of ``GROUP`` blocks up
  to ``CARRY_SPAN`` samples and remainders shorter than one group, run
  group by group (``_sos_carried``). Inside a group the state is chained
  from block to block in the system's basis; at each group edge it is
  taken to the (s0, s1) delay-pair basis that callers pass in ``zi``, and
  back. Each group's outputs come from one product of the same shape. A
  group's results then depend only on its inputs and its start state,
  never on where a call starts, so ``filter_causal``, which lays the
  groups on the stream's own sample grid, and streaming reproduce an
  uncut run bit for bit. There is no single product over all the blocks
  of a call: some OpenBLAS kernels round a row of a GEMM differently by
  where it sits in a taller product.
- Other lengths sum the block-start states by doubling (a Hillis-Steele
  scan, ``_sos_scanned``) and take every block's output from one matrix
  product. That avoids a Python step per block, 3-5x faster, but a block's
  rounding then depends on where it sits in the input. The zero-phase
  driver behind ``filtfilt_zero_phase`` and the peak-hold envelope feeds
  each pass in pieces of 2^17 samples, the first and last with their pads,
  or a shorter input as one padded array. These take the scan unless
  their length is one of the carried ones above: a last piece shorter
  than a group, or a padded input of whole groups up to ``CARRY_SPAN``.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 128  # samples per block, a power of two: A^BLOCK is a repeated square
GROUP = 4  # blocks per group of the carried path: one output GEMM of this many rows
CARRY_SPAN = 64 * BLOCK  # the longest group-aligned span filter_causal feeds
_SCAN_STEPS = 48  # block-transition powers kept: the scan covers 2^48 blocks


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
    the state a block's first k inputs add is those inputs @ carry[L - k :
    2L - k], whose last L - k rows are zeros; powers[k] is (A^k)^T for k
    up to L; steps[j] is (A^(L * 2^j))^T, for the scan over blocks;
    to_system and to_delay map the (s0, s1) delay-pair states to the
    system's and back.
    """
    a, b, c, d, to_system, to_delay = _state_space(np.frombuffer(key).reshape(-1, 5))
    ab = b[None, :]  # row k: (A^k B)^T
    ca = c[None, :]  # row k: C A^k
    powers = np.eye(len(a), dtype=a.dtype)[None]  # powers[k]: (A^k)^T
    power = a
    while len(ab) < BLOCK:
        ab = np.vstack((ab, ab @ power.T))
        ca = np.vstack((ca, ca @ power))
        powers = np.concatenate((powers, powers @ power.T))
        power = power @ power
    powers = np.concatenate((powers, power.T[None]))
    h = np.concatenate((np.zeros(BLOCK - 1), [d], ca[:-1] @ b))
    steps = []
    for _ in range(_SCAN_STEPS):
        steps.append(_shared(power.T))
        power = power @ power
    return (
        _shared(h),
        _shared(ca.T),
        _shared(np.concatenate((ab[::-1], np.zeros_like(ab)))),
        _shared(powers),
        tuple(steps),
        _shared(to_system),
        _shared(to_delay),
    )


def _shared(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy: cached operators are shared by every call."""
    a = a.astype(np.float64)
    a.setflags(write=False)
    return a


def _block_rows(x: np.ndarray, n_states: int, n_rows: int):
    """``n_rows`` rows, one per block of x: its input, zero-padded, then room for its start state.

    Rows past the input's last block are zeros. Also returns the number of
    inputs in the last block.
    """
    count = len(x)
    n_blocks = -(-count // BLOCK)
    r = count - (n_blocks - 1) * BLOCK
    rows = np.empty((n_rows, BLOCK + n_states))
    rows[: n_blocks - 1, :BLOCK] = x[: count - r].reshape(n_blocks - 1, BLOCK)
    rows[n_blocks - 1, :r] = x[count - r :]
    rows[n_blocks - 1, r:BLOCK] = 0.0
    rows[n_blocks:] = 0.0
    return rows, r


def _output_matrix(h: np.ndarray, observe: np.ndarray) -> np.ndarray:
    """A block's output row is [input row, start state] @ this matrix.

    Row j of the transposed Toeplitz part is h[L - 1 - j : 2L - 1 - j]: j
    zeros, then the impulse response. The carried path multiplies it by
    ``GROUP`` rows at a time, the scan by all rows at once. Built per call:
    caching it with the operators raised the peak RSS of a 60 s file's
    envelope by 4.7% (127.4 to 133.4 MB).
    """
    step = h.itemsize
    toeplitz = np.ndarray((BLOCK, BLOCK), buffer=h, offset=(BLOCK - 1) * step, strides=(-step, step))
    return np.concatenate((toeplitz, observe))


def _advance(r: int, carry: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """A block row @ this matrix is the system state after the block's first r inputs."""
    return np.concatenate((carry[BLOCK - r : 2 * BLOCK - r], powers[r]))


def _sos_scanned(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """The cascade over x, block-start states summed by a doubling scan; returns (output, final state)."""
    h, observe, carry, powers, steps, to_system, to_delay = _block_operators(_key(sos))
    rows, r = _block_rows(x, len(to_delay), -(-len(x) // BLOCK))
    starts = rows[:, BLOCK:]
    starts[0] = to_system.dot(np.asarray(zi, np.float64).reshape(-1))
    # starts[i + 1] = starts[i] @ steps[0] + added[i], summed over doubling spans.
    added = rows[:-1, :BLOCK] @ carry[:BLOCK]
    added[:1] += starts[0] @ steps[0]
    span = 1
    for step in steps:
        if span >= len(added):
            break
        added[span:] += added[:-span] @ step
        span *= 2
    starts[1:] = added
    y = np.empty(rows.shape[0] * BLOCK)
    np.matmul(rows, _output_matrix(h, observe), out=y.reshape(-1, BLOCK))
    end = to_delay.dot(rows[-1].dot(_advance(r, carry, powers)))
    return y[: len(x)], end.reshape(-1, 2)


def _sos_carried(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """The cascade over x in groups of ``GROUP`` blocks; returns (output, final state).

    Inside a group each block's start state, in the system's basis, is the
    one before @ the block advance. At a group's edge the state goes to the
    (s0, s1) delay-pair basis and back, as it does between calls. Each
    group's outputs are one (GROUP, L + S) @ (L + S, L) product, a short
    last group padded with zero rows, so every group is the same GEMM and a
    block always sits at the row its place in its group gives. A group's
    outputs and end state then depend only on its inputs and its start
    state, so a run cut on the group grid reproduces the uncut run bit for
    bit. One GEMM over all blocks would not: under OpenBLAS's Haswell and
    Nehalem kernels how a row rounds depends on the product's height and
    on the row's place in it.
    """
    h, observe, carry, powers, _, to_system, to_delay = _block_operators(_key(sos))
    n_blocks = -(-len(x) // BLOCK)
    rows, r = _block_rows(x, len(to_delay), -(-n_blocks // GROUP) * GROUP)
    advance = _advance(BLOCK, carry, powers)
    z = np.asarray(zi, np.float64).reshape(-1)
    for first in range(0, n_blocks, GROUP):
        last = min(first + GROUP, n_blocks) - 1
        np.dot(to_system, z, out=rows[first, BLOCK:])
        for k in range(first, last):  # np.dot: half the call cost of @ at this size
            np.dot(rows[k], advance, out=rows[k + 1, BLOCK:])
        if last == n_blocks - 1 and r < BLOCK:  # the end state after the last block's r inputs
            advance = _advance(r, carry, powers)
        z = to_delay.dot(rows[last].dot(advance))
    y = np.matmul(rows.reshape(-1, GROUP, rows.shape[1]), _output_matrix(h, observe))
    return y.reshape(-1)[: len(x)], z.reshape(-1, 2)


def _key(sos: np.ndarray) -> bytes:
    return np.ascontiguousarray(sos, dtype=np.float64).tobytes()


def sos_filter(sos: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """Run the biquad cascade over x; returns (output, final state).

    ``sos`` rows are (b0, b1, b2, a1, a2) with a0 = 1; ``zi`` has one
    (s0, s1) delay pair per section (transposed direct-form II). Inputs
    shorter than a group of ``GROUP`` blocks, or of whole groups up to
    ``CARRY_SPAN`` samples, carry the state group by group; other lengths
    run the scan. x may be a strided view. Inputs are not mutated.
    """
    if not len(x):
        return np.empty(0), np.array(zi, dtype=np.float64)
    if len(x) < GROUP * BLOCK or (len(x) <= CARRY_SPAN and not len(x) % (GROUP * BLOCK)):
        return _sos_carried(sos, x, zi)
    return _sos_scanned(sos, x, zi)
