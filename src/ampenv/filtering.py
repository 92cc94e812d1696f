"""Apply a second-order-section design to signals.

Two modes: single-pass causal filtering with explicit carried state (for
streaming; has the filter's group delay) and zero-phase forward-backward
filtering (offline; no phase shift, squared magnitude response). Both are
pure: state is a value the caller threads through, never shared mutable
data.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .filter_design import FilterDesign
from .kernels import FilterState
from .signals import BunchSpec, Signal, bunch_max, rectify


def _check_rate(design: FilterDesign, s: Signal) -> None:
    if s.sample_rate != design.sample_rate_hz:
        raise ValueError(
            "inconsistent sample rate: signal at %g Hz, filter designed for %g Hz"
            % (s.sample_rate, design.sample_rate_hz)
        )


def filter_causal(
    design: FilterDesign, s: Signal, state: FilterState | None = None
) -> tuple[Signal, FilterState]:
    """Single-pass forward filtering; returns (output, final state).

    ``s`` must have the design's sample rate. Feeding the returned state
    into the next call continues seamlessly: filtering two chunks with
    carried state reproduces, bit for bit, the output and final state of
    filtering their concatenation with a fresh state. A call is one
    ``kernels.sos_filter`` call with the state, so it runs the chain on the
    stream's own grid of blocks (``FilterState`` says when a state starts a
    new grid).
    """
    _check_rate(design, s)
    if state is None:
        state = FilterState.zeros(design)
    if state.values.shape != (design.n_sections, 2):
        raise ValueError(
            "state dimension mismatch: state has %d sections, design has %d"
            % (state.values.shape[0], design.n_sections)
        )
    y, state = kernels.sos_filter(design.sections, s.samples, state)
    return Signal._wrap(y, s.sample_rate), state


def _step_state(sections: np.ndarray, level: float) -> np.ndarray:
    """Section states at the fixed point for a constant input ``level``.

    Returns one (s0, s1) delay pair per section: ``level`` times the rest
    state under a unit input that ``kernels`` solves once per design.
    """
    return level * kernels._design(kernels._key(sections))[3]


def default_pad_len(design: FilterDesign) -> int:
    return 3 * (2 * design.order + 1)


def _pad_for(design: FilterDesign, n: int) -> int:
    """The design's pad, once a signal of n samples is checked to be longer."""
    pad = default_pad_len(design)
    if n <= pad:
        raise ValueError(
            "signal shorter than filter transient pad (%d samples <= pad %d)" % (n, pad)
        )
    return pad


def filtfilt_zero_phase(design: FilterDesign, s: Signal) -> Signal:
    """Zero-phase filtering: forward pass, then backward pass.

    The effective magnitude response is |H|^2 and the phase response is
    identically zero, so features stay time-aligned with the input. End
    transients are suppressed by odd-symmetric reflection padding
    (``default_pad_len(design)`` = 3 * (2 * order + 1) samples per side) and
    by starting each pass from the steady state for a step at the first
    padded sample; constants and linear trends pass through unchanged. Needs
    future samples, so offline use only. Both passes run as matrix
    products over blocks (``kernels.sos_filter``), not sample by sample, in
    pieces of one float64 buffer of the padded length, 2^17 samples
    (``kernels._SPAN``) each, carrying the state from piece to piece. Each
    piece of the input is copied in just before it is filtered, so besides
    the input only that buffer is held (the output is a view of it, not a
    copy). ``s`` must have the design's sample rate.

    A staircase that ``bunch_max`` made with bunches of 2 to
    ``kernels.HOLD`` samples is filtered at the group rate instead, from
    one sample a bunch (``_held_zero_phase``): the same arithmetic, on the
    same peak values, as ``three_step_envelope``, so the two envelopes are
    equal bit for bit. Besides the input it holds the output and the peaks.
    """
    _check_rate(design, s)
    x = s.samples
    pad = _pad_for(design, len(x))
    bunch = s._hold
    if bunch is not None and bunch <= kernels.HOLD:
        y = _held_zero_phase(design.sections, x[::bunch], np.empty(len(x)), bunch, pad)
    else:
        y = _zero_phase(design.sections, x, np.empty(len(x) + 2 * pad), pad)
    return Signal._wrap(y, s.sample_rate)


def _zero_phase(sos: np.ndarray, x: np.ndarray, buf: np.ndarray, pad: int) -> np.ndarray:
    """Both zero-phase passes of ``sos`` over x in ``buf``; returns the view of its n filtered samples.

    ``buf`` holds n + 2 * pad samples, and x may be its middle, where
    ``three_step_envelope`` stages |x| or the staircase. The odd reflection
    pads go into ``buf``'s ends first. ``buf`` is cut into pieces of
    ``kernels._SPAN`` samples, one kernel call each: the forward pass
    copies a piece's samples of x into it, a no-op when x is ``buf``'s
    middle, and writes its output in place; the backward pass runs over
    the same pieces in reverse. The state is carried across the pieces.
    """
    n, span = len(x), kernels._SPAN
    buf[:pad] = 2.0 * x[0] - x[pad:0:-1]
    buf[pad + n :] = 2.0 * x[-1] - x[-2 : -pad - 2 : -1]
    z = _step_state(sos, buf[0])
    for lo in range(0, len(buf), span):
        i, j = np.clip((lo - pad, lo + span - pad), 0, n)  # the piece's samples of x
        buf[pad + i : pad + j] = x[i:j]
        buf[lo : lo + span], z = kernels.sos_filter(sos, buf[lo : lo + span], z)
    z = _step_state(sos, buf[-1])
    for lo in reversed(range(0, len(buf), span)):
        piece = buf[lo : lo + span][::-1]
        piece[:], z = kernels.sos_filter(sos, piece, z)
    return buf[pad : pad + n]


# Multiply-adds per product of the group-rate body, at most: OpenBLAS runs
# a larger GEMM on all its threads. On a 2-core VM with two threads, waking
# them took a whole 1.5 s envelope from 0.41 ms to 0.99-7.5 ms.
_BODY_MACS = 1 << 18


def _held_zero_phase(sos: np.ndarray, peaks: np.ndarray, out: np.ndarray, bunch: int, pad: int) -> np.ndarray:
    """Both zero-phase passes over a hold of ``peaks``, at the group rate, written into ``out``; returns ``out``.

    The hold is the staircase of n = ``len(out)`` samples whose every
    ``bunch``-sample bunch from sample 0, a trailing partial one too, takes
    its value from ``peaks``; ``out`` must not overlap ``peaks``.
    ``filtfilt_zero_phase`` passes a staircase's every bunch-th sample,
    ``three_step_envelope`` the bunch maxima of |x| and |x|'s own buffer.
    For 2 <= bunch <= ``kernels.HOLD``. Groups of ``kernels.HOLD // bunch``
    whole bunches lie on the bunch grid from sample 0. A group's envelope is
    [w, z, u] times one operator: its backward state entering from its end,
    its forward start state and its peaks (``kernels`` module docstring).
    Both state recurrences are scanned over the groups. Three kernel calls
    run the edges: the front pad forward, whose end state starts the first
    group; then the samples after the last whole group, with the end pad,
    forward from the forward scan's last state, and backward from the step
    state, whose end state starts the backward scan. It builds no staircase
    and runs no full-rate pass: besides ``out``, memory is the n / bunch peaks.
    """
    n = len(out)
    group, gamma, back, steps, to_system, to_delay = kernels._held_operators(kernels._key(sos), bunch)
    width = len(gamma)  # peaks per group
    span, states = width * bunch, len(back) - width
    count = n // span  # whole groups
    front = 2.0 * peaks[0] - peaks[np.arange(pad, 0, -1) // bunch]  # the odd reflection of samples pad..1
    _, z = kernels.sos_filter(sos, front, _step_state(sos, front[0]))
    rows = np.empty((count, 2 * states + width))  # [w, z, u] per group
    rows[:, 2 * states :] = peaks[: count * width].reshape(count, width)
    z = to_system.dot(z.reshape(-1))  # the scans run in the system's basis, sos_filter in delay pairs
    forward = np.vstack((z, kernels._scan(rows[:, 2 * states :] @ gamma, steps, z)))  # z at each group's start
    rows[:, states : 2 * states] = forward[:-1]
    z = to_delay.dot(forward[-1]).reshape(-1, 2)  # and past the last
    # The samples after the last whole group, then the end pad: the odd
    # reflection of the pad samples before the last, which may reach back
    # into the groups.
    lo = min(count * span, n - pad - 1)
    tail = peaks[np.arange(lo, n) // bunch]
    tail = np.concatenate((tail[count * span - lo :], 2.0 * tail[-1] - tail[-2 : -pad - 2 : -1]))
    fwd, _ = kernels.sos_filter(sos, tail, z)
    bwd, w = kernels.sos_filter(sos, fwd[::-1], _step_state(sos, fwd[-1]))
    out[count * span :] = bwd[: pad - 1 : -1]
    if count:
        rows[-1, :states] = to_system.dot(w.reshape(-1))
        # From the last group back to the second.
        rows[:-1, :states] = kernels._scan(rows[:0:-1, states:] @ back, steps, rows[-1, :states])[::-1]
        body = out[: count * span].reshape(count, span)
        step = max(1, _BODY_MACS // group.size)
        for i in range(0, count, step):
            np.matmul(rows[i : i + step], group, out=body[i : i + step])
    return out


def chunked_envelope_stream(
    design: FilterDesign, spec: BunchSpec | int, chunks: Iterable[Signal]
) -> Iterator[Signal]:
    """Causal envelope pipeline over a chunk stream.

    Each chunk is rectified, bunch-maxed, and run through the causal filter
    with state carried across chunks, so the concatenated output equals the
    offline causal pipeline on the concatenated input. Chunks must be
    nonempty multiples of the bunch size at the design's sample rate. This
    mode is causal: it has the single-pass filter's group delay and is not
    zero-phase.
    """
    if not isinstance(spec, BunchSpec):
        spec = BunchSpec(spec)
    state = FilterState.zeros(design)
    for chunk in chunks:
        if len(chunk) == 0 or len(chunk) % spec.bunch_size:
            raise ValueError(
                "chunk not bunch-aligned: length %d is not a positive multiple of %d"
                % (len(chunk), spec.bunch_size)
            )
        staircase = bunch_max(rectify(chunk), spec)
        out, state = filter_causal(design, staircase, state)
        yield out
