"""Apply a second-order-section design to signals.

Two modes: single-pass causal filtering with explicit carried state (for
streaming; has the filter's group delay) and zero-phase forward-backward
filtering (offline; no phase shift, squared magnitude response). Both are
pure: state is a value the caller threads through, never shared mutable
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .filter_design import FilterDesign
from .signals import BunchSpec, Signal, _rectified_peaks, bunch_max, rectify


@dataclass(frozen=True, eq=False)
class FilterState:
    """Delay-line values of the cascade, one (s0, s1) pair per section.

    ``values`` is the state at the current sample. A state returned by
    ``filter_causal`` also carries, privately, the inputs of the open group
    of blocks the stream is in and the state at that group's start, so the
    next call continues on the same grid, with the design that produced it.
    ``FilterState(values)`` starts a new grid at that sample; it is also the
    way to hand the delay line to another design.
    """

    values: np.ndarray
    _start: np.ndarray = field(init=False, repr=False)
    _open: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("state must have shape (n_sections, 2)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_start", arr)
        object.__setattr__(self, "_open", np.empty(0))

    @classmethod
    def zeros(cls, design: FilterDesign) -> "FilterState":
        return cls(np.zeros((design.n_sections, 2)))

    @classmethod
    def _mid_group(cls, values, start: np.ndarray, inputs: np.ndarray) -> "FilterState":
        # Internal constructor: the state ``values`` after ``inputs`` of a
        # group of blocks that began in state ``start``.
        state = cls(values)
        object.__setattr__(state, "_start", start)
        object.__setattr__(state, "_open", inputs)
        return state


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
    filtering their concatenation with a fresh state. The kernel runs in
    groups of ``kernels.GROUP`` blocks (512 samples) laid on the stream's
    own sample grid; the open group of blocks at a chunk's end is run again
    from its start state by the next call.
    """
    _check_rate(design, s)
    if state is None:
        state = FilterState.zeros(design)
    if state.values.shape != (design.n_sections, 2):
        raise ValueError(
            "state dimension mismatch: state has %d sections, design has %d"
            % (state.values.shape[0], design.n_sections)
        )
    # Groups of blocks sit on the stream's sample grid: the open group's
    # inputs are run again from its start state, and their outputs dropped.
    x = np.concatenate((state._open, s.samples))
    full = len(x) - len(x) % (kernels.GROUP * kernels.BLOCK)  # samples in whole groups
    y = np.empty(len(x))
    z = state._start
    for i in range(0, full, kernels.CARRY_SPAN):
        j = min(i + kernels.CARRY_SPAN, full)
        y[i:j], z = kernels.sos_filter(design.sections, x[i:j], z)
    group_start = z
    if full < len(x):
        y[full:], z = kernels.sos_filter(design.sections, x[full:], z)
    final = FilterState._mid_group(z, group_start, x[full:].copy())
    return Signal._wrap(y[len(state._open) :], s.sample_rate), final


def _step_state(sections: np.ndarray, level: float) -> np.ndarray:
    """Section states at the fixed point for a constant input ``level``.

    Solves, per section, the steady state of the transposed direct-form II
    recurrence under constant drive, cascading the section's DC output into
    the next section's input.
    """
    z = np.empty((sections.shape[0], 2))
    u = level
    for i, (b0, b1, b2, a1, a2) in enumerate(sections):
        y = u * (b0 + b1 + b2) / (1.0 + a1 + a2)
        z[i, 0] = (b1 + b2) * u - (a1 + a2) * y
        z[i, 1] = b2 * u - a2 * y
        u = y
    return z


def default_pad_len(design: FilterDesign) -> int:
    return 3 * (2 * design.order + 1)


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
    pieces of 2^17 samples carrying the state from piece to piece, so
    besides the input only one float64 buffer of the padded length is held
    (the output is a view of it, not a copy). ``s`` must have the design's
    sample rate.
    """
    _check_rate(design, s)
    return _zero_phase(design, s)


# Samples per piece of the zero-phase driver. A piece's ~1 MB arrays stay in
# cache between stages: on a 60 s input, 2^16-2^17 ran fastest, 2^14 and 2^19
# 10-40% slower (Xeon, 2 MB L2 per core).
_PIECE = 1 << 17


def _zero_phase(design: FilterDesign, s: Signal, bunch: int | None = None) -> Signal:
    """Both zero-phase passes over ``s``, or over its peak-hold staircase if ``bunch`` is given.

    The input is cut into consecutive pieces of ``_PIECE`` samples whatever
    the bunch, so the peak-hold envelope is bit for bit
    ``filtfilt_zero_phase`` of the whole staircase. A piece's staircase
    (rectify, then ``bunch``-sample maxima) is made from the whole bunches
    it overlaps and cut to the piece. Each piece is filtered forward as soon as it is made,
    the first with the odd reflection pad before it and the last with the
    end pad after it (a remainder of ``pad`` samples or fewer joins the last
    piece), the state carried across; the outputs fill one buffer of
    n + 2 * pad samples. The backward pass runs over the same pieces in
    reverse, in place. An input of one piece makes the two kernel calls over
    the whole padded array, with no copy into a buffer.
    """
    x = s.samples
    n, pad, sos = len(x), default_pad_len(design), design.sections
    if n <= pad:
        raise ValueError(
            "signal shorter than filter transient pad (%d samples <= pad %d)" % (n, pad)
        )
    piece = max(_PIECE, pad + 1)  # a pad needs pad + 1 samples
    cuts = [*range(0, n - pad, piece), n]
    # Piece [cuts[i], cuts[i + 1]) fills [edges[i], edges[i + 1]) of the
    # buffer: the first also the front pad, the last also the end pad.
    edges = [0, *(c + pad for c in cuts[1:-1]), n + 2 * pad]
    spans = list(zip(edges, edges[1:]))
    lone = len(spans) == 1
    buf = None if lone else np.empty(n + 2 * pad)
    for a, b, (lo, hi) in zip(cuts, cuts[1:], spans):
        if bunch is None:
            part = x[a:b]
        else:  # the bunches that [a, b) overlaps
            first, last = a - a % bunch, min(n, -(-b // bunch) * bunch)
            part = _rectified_peaks(x[first:last], bunch)[a - first : b - first]
        # The odd reflection pads, as temporaries: a pad left alive in a
        # local kept malloc from trimming its heap (clips_csv RSS +2.3 MB).
        if a == 0 or b == n:
            part = np.concatenate((
                2.0 * part[0] - part[pad:0:-1] if a == 0 else part[:0],
                part,
                2.0 * part[-1] - part[-2 : -pad - 2 : -1] if b == n else part[:0],
            ))
        if a == 0:
            z = _step_state(sos, part[0])
        fwd, z = kernels.sos_filter(sos, part, z)
        del part  # each array is freed before the next piece's
        if lone:
            buf = fwd
        else:
            buf[lo:hi] = fwd
        del fwd
    z = _step_state(sos, buf[-1])
    for lo, hi in reversed(spans):
        bwd, z = kernels.sos_filter(sos, buf[lo:hi][::-1], z)
        if lone:
            buf = bwd[::-1]
        else:
            buf[lo:hi] = bwd[::-1]
        del bwd
    return Signal._wrap(buf[pad : pad + n], s.sample_rate)


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
