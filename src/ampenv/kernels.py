"""The cascaded biquad filter as matrix products over blocks.

``sos_filter`` is the kernel every filter pass in the package calls, and
the layer perfbench traces. It uses the block formulation of Nehab et al.,
"GPU-efficient recursive filtering and summed-area tables" (ACM TOG 2011).
The cascade is one linear system with two states per section. A block of
L samples has as output a lower-triangular Toeplitz matrix of the impulse
response times the block's input, plus an observability matrix times the
state at the block's start; the two, stacked, are one (L + S, L) output
matrix for S states. Every operator, that matrix included, is built once
per design and block length in ``np.longdouble`` and rounded once to
float64; a call only lays out its rows and multiplies.

One pass, ``_sos_blocked``, runs every call. It lays x out as one row
per block: the block's L inputs (the last block's zero-padded),
then room for the block's start state. It fills those states from the
start state in one of two ways, below; every block's output is then its
row @ the output matrix, and the end state is the last row @ the
advance over that block's inputs. The states stay in the system's basis
between blocks, groups and spans; the (s0, s1) delay pairs that callers
see exist only at ``sos_filter``'s boundary, where ``zi`` comes in and the
final state goes out. The state the caller passes picks the way: a
``FilterState`` gets the chain, delay pairs get the scan.

- The chain, for streams, on blocks of ``BLOCK`` = 128 samples. Each
  start state is the one before @ the block advance, one Python step a
  block. The outputs are one (GROUP, L + S) product per group of
  ``GROUP`` blocks, a short last group padded with zero rows, so a block
  always sits at the row its place in its group gives. A group's outputs
  and end state then depend only on its inputs and its start state, never
  on where a call starts. The groups are laid on the stream's own sample
  grid: a returned ``FilterState`` keeps the open group's start state and
  inputs, and the next call runs them again, so a stream cut anywhere
  reproduces the uncut run bit for bit. One product over all the blocks
  would not: under OpenBLAS's Haswell and Nehalem kernels how a row of a
  GEMM rounds depends on the product's height and on the row's place in
  it.
- The scan, for the offline passes, on blocks of ``_SCAN_BLOCK`` = 64
  samples. The start states are summed by doubling (a Hillis-Steele
  scan), with no Python step per block, and the outputs are one flat
  product over all rows. On 2^17-sample pieces that is ~2x faster than
  the chain, but a block's rounding then depends on where it sits in the
  input. The product stays flat: the chain's grouped one is over 2x
  slower under OpenBLAS's Haswell kernels.

A shorter block halves the output product's work a sample, 2(L + S)
flops, and doubles the blocks whose start states are found.
``_block_operators`` gives the measured reason for each length.

The peak-hold envelope runs at the group rate. Its staircase is a hold of
one peak per bunch of N samples, filtered forward and then backward, and
``_held_operators`` puts that whole system in the same block form. A group
is G = ``HOLD // N`` whole bunches, L = G N samples. Let z be a group's
forward start state, w the backward state entering from its end, and u its
G peaks. Then:

- the group's envelope is [w, z, u] @ O, where O^T = [R Y | R T R Y |
  R T R T E] has shape (L, 2S + G);
- the forward state at the next group's start is A^L z + Gamma u, with
  Gamma = K E;
- the backward state at this group's start is A^L w + M_z z + M_u u, with
  M_z = K R Y and M_u = K R T E.

Row k of Y is C A^k, T is the lower-triangular Toeplitz matrix of the
impulse response, E the hold (E[t, i] = 1 when t // N = i), R reverses
the samples and column t of K is A^(L - 1 - t) B. Both recurrences are
summed over the groups by the scan's doubling, ``_scan``, so the work is
2(2S + G) flops a sample, against 2 x 2(L + S) for two full-rate passes
over the staircase. ``filtering._held_zero_phase`` drives it, and the pads
and the samples after the last whole group go through ``sos_filter``. The
follower (N = 1) and bunches above ``HOLD`` keep the full-rate passes: at
N = 1 this form measured 0.5-1.0x the block kernel, and past ``HOLD`` its
long-double build grows as L^2.

One builder serves both caches: ``_series`` doubles out the rows (A^k B)^T
and C A^k and the powers (A^k)^T, from which ``_held_operators`` takes
R T R Y's A^t and A^L, and ``_steps`` squares a transition into scan steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

BLOCK = 128  # samples per block of the chain, a power of two: A^BLOCK is a repeated square
GROUP = 4  # blocks per group of the chain: one output GEMM of this many rows
_SCAN_BLOCK = 64  # samples per block of the scan, a power of two
# Samples per span of the chain and per piece of the zero-phase passes
# (filtering._zero_phase), capping the rows those kernel calls lay out. Any
# multiple of GROUP * BLOCK gives the chain the same bits, and perfbench's
# stream chunks, of at most 8,800 samples, stay within one span. A piece's
# ~1 MB arrays stay in cache from its read to its write. A 60 s
# filtfilt_zero_phase at 20 and 300 Hz, one BLAS thread, 64-sample scan
# blocks (Xeon, 2 MB L2 per core), medians of four sweeps: 2^15 40.7-42.0
# ms, 2^16 40.0-41.2, 2^17 42.1-45.7, 2^18 45.3-46.9. 2^16 led 2^17 by
# 2.1-4.5 ms, but within the run-to-run spread in three of the four, so the
# value stays. 2^14 and 2^19 were 10-40% slower at 128-sample blocks.
_SPAN = 1 << 17
_SCAN_STEPS = 48  # block-transition powers kept: the scan covers 2^48 blocks
HOLD = 256  # samples per group of the held zero-phase pass, at most: HOLD // bunch whole bunches


def _state_space(sos: np.ndarray):
    """The cascade as one system z' = A z + B x, y = C z + D x, in np.longdouble.

    Also returns the maps from the recurrence's (s0, s1) states to the
    system's and back, and the (s0, s1) at rest under a unit input, each
    section's DC output the next one's input. A section with complex poles
    re +- i im gets the basis in which its own transition is the
    rotation-scaling [[re, -im], [im, re]].
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
    rest, u = np.empty((len(sos), 2), ld), ld(1)  # u: the section's input at rest
    for k, (b0, b1, b2, a1, a2) in enumerate(np.asarray(sos, ld)):
        y = u * (b0 + b1 + b2) / (1 + a1 + a2)
        rest[k] = (b1 + b2) * u - (a1 + a2) * y, b2 * u - a2 * y
        u = y
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
    return inverse @ a @ basis, inverse @ b, c @ basis, d, inverse, basis, rest


def _series(a: np.ndarray, b: np.ndarray, c: np.ndarray, count: int):
    """(ab, ca, powers): rows k < count of (A^k B)^T and C A^k, and (A^k)^T for k <= count, a power of two."""
    ab = b[None, :]  # row k: (A^k B)^T
    ca = c[None, :]  # row k: C A^k
    powers = np.eye(len(a), dtype=a.dtype)[None]  # powers[k]: (A^k)^T
    power = a
    while len(ab) < count:
        ab = np.vstack((ab, ab @ power.T))
        ca = np.vstack((ca, ca @ power))
        powers = np.concatenate((powers, powers @ power.T))
        power = power @ power
    return ab, ca, np.concatenate((powers, power.T[None]))


def _steps(power: np.ndarray) -> tuple:
    """``_scan``'s steps (P^(2^j))^T, P = ``power``, column-major: a row-major copy rounds the scan otherwise."""
    steps = []
    for _ in range(_SCAN_STEPS):
        steps.append(_shared(np.asfortranarray(power.T)))
        power = power @ power
    return tuple(steps)


@functools.lru_cache(maxsize=16)
def _design(key: bytes):
    """The cascade whose sos array has these bytes, once per design.

    Returns ((a, b, c, d), to_system, to_delay, rest): ``_state_space``'s
    system in np.longdouble, read-only, from which ``_block_operators``
    and ``_held_operators`` build every block length's and bunch's
    operators; then its basis maps and rest state rounded once to float64.
    None of these depends on a block length.
    """
    *system, to_system, to_delay, rest = _state_space(np.frombuffer(key).reshape(-1, 5))
    for part in system[:3]:
        part.setflags(write=False)
    return tuple(system), _shared(to_system), _shared(to_delay), _shared(rest)


@functools.lru_cache(maxsize=32)
def _block_operators(key: bytes, length: int):
    """Float64 operators of the cascade whose sos array has these bytes, on blocks of ``length`` samples.

    Built once per (design, block length), in np.longdouble from the
    design's system, and rounded once to float64. Two lengths are used,
    each timed at order 4 on one BLAS thread of a 2-core Xeon VM:

    - The scan's ``_SCAN_BLOCK`` = 64. One 2^17-sample scanned call took
      a median of 0.77 ms at 64-sample blocks, 0.97 at 32, 1.02 at 128 and
      2.45 at 256: below 64 the scan's doubling steps and the per-block
      rows cost more than the output product saves.
    - The chain's ``BLOCK`` = 128, in groups of ``GROUP`` = 4, because
      the chain is faster there. At 64 it takes a Python step for twice
      as many blocks: perfbench's ``stream_chunks`` (10 s runs, 4 pairs)
      read 667-694 audio_s/s against 720-788 at 128, with a job_ms_tail
      of 0.31-0.36 ms against 0.27-0.32.

    Returns (output, carry, powers, steps), for L = ``length``: a block's
    outputs are [its inputs, its start state] @ output, of shape (L + S, L),
    the transposed Toeplitz matrix of the impulse response (row j: j zeros,
    then h) over the rows C A^k, C-ordered (the products round by it);
    the state a block's first k inputs add is those inputs @
    carry[L - k : 2L - k], whose last L - k rows are zeros; powers[k] is
    (A^k)^T for k up to L; steps[j] is (A^(L * 2^j))^T, for the scan over
    blocks.
    """
    a, b, c, d = _design(key)[0]
    ab, ca, powers = _series(a, b, c, length)
    h = np.concatenate(([d], ca[:-1] @ b))  # the impulse response, L samples
    t = np.arange(length)  # Toeplitz row j, column t: h[t - j], zeroed by triu where t < j wraps round
    return (
        _shared(np.concatenate((np.triu(h[t - t[:, None]]), ca.T))),
        _shared(np.concatenate((ab[::-1], np.zeros_like(ab)))),
        _shared(powers),
        _steps(powers[length].T),
    )


@functools.lru_cache(maxsize=32)
def _held_operators(key: bytes, bunch: int):
    """Float64 operators of the zero-phase pass over a hold of ``bunch``-sample peaks.

    A group is G = ``HOLD // bunch`` whole bunches, L = G * bunch samples
    (module docstring). Built once per (design, bunch) in np.longdouble,
    from ``_series`` over ``HOLD`` samples, and rounded once to float64.
    Returns (group, gamma, back, steps, to_system, to_delay): a group's
    envelope is [w, z, u] @ group, of shape (2S + G, L); the forward state
    at the next group's start is z @ steps[0] + u @ gamma; the backward
    state at this group's start is w @ steps[0] + [z, u] @ back; steps[j]
    is (A^(L * 2^j))^T, for the scans over groups; to_system and to_delay
    are ``_design``'s.
    """
    a, b, c, d = _design(key)[0]
    groups = HOLD // bunch
    span = groups * bunch
    ab, ca, powers = _series(a, b, c, HOLD)
    ca = np.vstack((ca, ca @ powers[HOLD].T))  # C A^k for k < 2 HOLD: h covers 2L samples
    ab, observe = ab[:span], ca[:span]  # K R, transposed, and Y
    h = np.concatenate(([d], ca[: 2 * span - 1] @ b))  # the impulse response, 2L samples
    # R T R Y: row t is sum over k <= L - 1 - t of h[k] C A^(t + k), so
    # (sum of h[k] C A^k) A^t, with (A^t)^T from the powers table.
    rtry = (powers[:span] @ np.cumsum(h[:span, None] * observe, axis=0)[::-1, :, None])[..., 0]
    # T E: column i is g from sample i * bunch on, g the response to one bunch of ones.
    g = np.cumsum(h[:span])
    g[bunch:] -= g[:-bunch].copy()
    lags = np.arange(span)[:, None] - bunch * np.arange(groups)
    zeros = np.zeros(span, a.dtype)
    held = np.concatenate((zeros, g))[span + lags]
    # R T R T E: row t of column i is the sum over s >= t - i * bunch of
    # h[s - t + i * bunch] g[s] (one convolution), less the part past g's
    # end, C A^(L - 1 - t) times the state of g's last i * bunch samples run backward.
    full = np.convolve(h, g[::-1])
    left = np.concatenate((g, zeros))[span + lags.T] @ ab  # row i: that state
    rtrte = full[span - 1 - lags] - observe[::-1] @ left.T
    return (
        _shared(np.hstack((observe[::-1], rtry, rtrte)).T),
        _shared(ab[::-1].reshape(groups, bunch, -1).sum(axis=1)),
        _shared(np.vstack((observe.T @ ab, held.T @ ab))),
        _steps(powers[span].T),
        *_design(key)[1:3],
    )


def _shared(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy: cached operators are shared by every call."""
    a = a.astype(np.float64)
    a.setflags(write=False)
    return a


def _advance(r: int, carry: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """A block row @ this matrix is the system state after the block's first r inputs; L = ``len(powers) - 1``."""
    length = len(powers) - 1
    return np.concatenate((carry[length - r : 2 * length - r], powers[r]))


def _scan(added: np.ndarray, steps, start: np.ndarray) -> np.ndarray:
    """Sum s[i + 1] = s[i] @ steps[0] + added[i] in place over doubling spans; returns ``added``.

    s[0] is ``start``; on return ``added[i]`` is s[i + 1]. ``steps[j]`` is
    ``steps[0]`` to the power 2^j. A Hillis-Steele scan: no Python step
    per row.
    """
    added[:1] += start @ steps[0]
    span = 1
    for step in steps:
        if span >= len(added):
            break
        added[span:] += added[:-span] @ step
        span *= 2
    return added


def _sos_blocked(operators: tuple, x: np.ndarray, start: np.ndarray, chained: bool):
    """The cascade over x from ``start`` on ``_block_operators``' blocks, block-start states chained or scanned.

    The block length is the operators'. Every state here is in the
    system's basis. Returns (output, end state, group edge). The group
    edge is the start state of the group that x's last block is in, read
    from the chain's start states, or the end state if x is whole groups.
    The scan's output is a view into the one allocation that also holds
    its rows. glibc raises its mmap and trim thresholds to the largest
    block it has unmapped, so a call's work area must be one block: as two,
    a process that filters only short inputs gave the top of its heap back
    to the system after every call and faulted it in again (a 1.5 s
    follower, one kernel call a pass: ~470 page faults a call, none as one).
    """
    output, carry, powers, steps = operators
    length, count = output.shape[1], len(x)
    n_blocks = -(-count // length)
    r = count - (n_blocks - 1) * length  # inputs in the last block
    height, width = -(-n_blocks // GROUP) * GROUP if chained else n_blocks, length + len(start)
    work = np.empty(height * (width + (0 if chained else length)))  # the rows, then the scan's output
    rows = work[: height * width].reshape(height, width)
    rows[: n_blocks - 1, :length] = x[: count - r].reshape(n_blocks - 1, length)
    rows[n_blocks - 1, :r] = x[count - r :]
    rows[n_blocks - 1, r:length] = 0.0
    rows[n_blocks:] = 0.0
    starts = rows[:, length:]
    starts[0] = start
    if chained:
        advance = _advance(length, carry, powers)
        for k in range(1, n_blocks):  # np.dot: half the call cost of @ at this size
            np.dot(rows[k - 1], advance, out=starts[k])
        y = np.matmul(rows.reshape(-1, GROUP, rows.shape[1]), output)
    else:
        starts[1:] = _scan(rows[:-1, :length] @ carry[:length], steps, starts[0])
        y = np.matmul(rows, output, out=work[height * width :].reshape(height, length))
    end = rows[n_blocks - 1].dot(_advance(r, carry, powers))
    edge = starts[(n_blocks - 1) // GROUP * GROUP].copy() if count % (GROUP * length) else end
    return y.reshape(-1)[:count], end, edge


def _key(sos: np.ndarray) -> bytes:
    return np.ascontiguousarray(sos, dtype=np.float64).tobytes()


@dataclass(frozen=True, eq=False)
class FilterState:
    """Delay-line values of the cascade, one (s0, s1) pair per section.

    ``values`` is the state at the current sample. A state that
    ``sos_filter`` returns also keeps, privately, the open group of blocks
    the stream is in: the sections that ran it, the state at the group's
    start in those sections' system basis (``kernels`` module docstring)
    and the group's inputs so far. Passed back with the same sections
    (the same design, or an equal one rebuilt from the same spec) it
    continues on that grid, bit for bit. Built as ``FilterState(values)``,
    or passed with other sections, it starts a new grid at ``values``: a
    state handed to another design continues exactly as
    ``FilterState(state.values)`` would. Passed with no input, it comes
    back as it is.
    """

    values: np.ndarray
    _group: tuple | None = field(default=None, init=False, repr=False)  # (sections key, system-basis start, inputs)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("state must have shape (n_sections, 2)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, design) -> FilterState:
        return cls(np.zeros((design.n_sections, 2)))


def sos_filter(sos: np.ndarray, x: np.ndarray, zi):
    """Run the biquad cascade over x; returns (output, final state).

    ``sos`` rows are (b0, b1, b2, a1, a2) with a0 = 1. ``zi`` is one
    (s0, s1) delay pair per section (transposed direct-form II), which
    takes the scan and gives the final delay pairs, or a ``FilterState``,
    which takes the chain over the state's open group and x and gives the
    next ``FilterState`` (module docstring). The chain runs in spans of
    ``_SPAN`` samples, which bound its rows, not its bits. x may be a
    strided view. Inputs are not mutated.
    """
    key = _key(sos)
    to_system, to_delay = _design(key)[1:3]
    if not isinstance(zi, FilterState):
        if not len(x):
            return np.empty(0), np.array(zi, dtype=np.float64)
        start = to_system.dot(np.asarray(zi, np.float64).reshape(-1))
        y, end, _ = _sos_blocked(_block_operators(key, _SCAN_BLOCK), x, start, False)
        return y, to_delay.dot(end).reshape(-1, 2)
    if not len(x):
        return np.empty(0), zi
    same_grid = zi._group and zi._group[0] == key
    z, inputs = zi._group[1:] if same_grid else (to_system.dot(zi.values.reshape(-1)), np.empty(0))
    x = np.concatenate((inputs, x))
    y = np.empty(len(x))
    operators = _block_operators(key, BLOCK)
    for i in range(0, len(x), _SPAN):
        y[i : i + _SPAN], z, edge = _sos_blocked(operators, x[i : i + _SPAN], z, True)
    state = FilterState(to_delay.dot(z).reshape(-1, 2))
    object.__setattr__(state, "_group", (key, edge, x[len(x) - len(x) % (GROUP * BLOCK) :].copy()))
    return y[len(inputs) :], state
