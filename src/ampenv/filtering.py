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
from .signals import BunchSpec, Signal, bunch_max, rectify


@dataclass(frozen=True, eq=False)
class FilterState:
    """Delay-line values of the cascade, one (s0, s1) pair per section.

    ``values`` is the state at the current sample. A state returned by
    ``filter_causal`` also carries, privately, the inputs of the block the
    stream is in and the state at that block's start, so the next call
    continues on the same block grid, with the design that produced it.
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
    def _mid_block(cls, values, start: np.ndarray, inputs: np.ndarray) -> "FilterState":
        # Internal constructor: the state ``values`` after ``inputs`` of a
        # block that began in state ``start``.
        state = cls(values)
        object.__setattr__(state, "_start", start)
        object.__setattr__(state, "_open", inputs)
        return state


def filter_causal(
    design: FilterDesign, s: Signal, state: FilterState | None = None
) -> tuple[Signal, FilterState]:
    """Single-pass forward filtering; returns (output, final state).

    Feeding the returned state into the next call continues seamlessly:
    filtering two chunks with carried state reproduces, bit for bit, the
    output and final state of filtering their concatenation with a fresh
    state.
    """
    if state is None:
        state = FilterState.zeros(design)
    if state.values.shape != (design.n_sections, 2):
        raise ValueError(
            "state dimension mismatch: state has %d sections, design has %d"
            % (state.values.shape[0], design.n_sections)
        )
    # Blocks sit on the stream's sample grid: the open block's inputs are run
    # again from its start state, and their outputs dropped.
    x = np.concatenate((state._open, s.samples))
    full = len(x) - len(x) % kernels.BLOCK  # samples in whole blocks
    y = np.empty(len(x))
    z = state._start
    for i in range(0, full, kernels.CARRY_SPAN):
        j = min(i + kernels.CARRY_SPAN, full)
        y[i:j], z = kernels.sos_filter(design.sections, x[i:j], z)
    block_start = z
    if full < len(x):
        y[full:], z = kernels.sos_filter(design.sections, x[full:], z)
    final = FilterState._mid_block(z, block_start, x[full:].copy())
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
    products over blocks (``kernels.sos_filter``), not sample by sample.
    """
    x = s.samples
    pad = default_pad_len(design)
    if len(x) <= pad:
        raise ValueError(
            "signal shorter than filter transient pad (%d samples <= pad %d)"
            % (len(x), pad)
        )
    ext = np.concatenate(
        (2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2 : -pad - 2 : -1])
    )
    fwd, _ = kernels.sos_filter(design.sections, ext, _step_state(design.sections, ext[0]))
    rev = fwd[::-1]
    bwd, _ = kernels.sos_filter(design.sections, rev, _step_state(design.sections, rev[0]))
    out = bwd[::-1][pad:-pad]
    return Signal._wrap(out.copy(), s.sample_rate)


def chunked_envelope_stream(
    design: FilterDesign, spec: BunchSpec | int, chunks: Iterable[Signal]
) -> Iterator[Signal]:
    """Causal envelope pipeline over a chunk stream.

    Each chunk is rectified, bunch-maxed, and run through the causal filter
    with state carried across chunks, so the concatenated output equals the
    offline causal pipeline on the concatenated input. Chunks must be
    nonempty multiples of the bunch size and share one sample rate. This
    mode is causal: it has the single-pass filter's group delay and is not
    zero-phase.
    """
    if not isinstance(spec, BunchSpec):
        spec = BunchSpec(spec)
    state = FilterState.zeros(design)
    rate = None
    for chunk in chunks:
        if len(chunk) == 0 or len(chunk) % spec.bunch_size:
            raise ValueError(
                "chunk not bunch-aligned: length %d is not a positive multiple of %d"
                % (len(chunk), spec.bunch_size)
            )
        if rate is None:
            rate = chunk.sample_rate
        elif chunk.sample_rate != rate:
            raise ValueError(
                "inconsistent sample rate: %g Hz after %g Hz" % (chunk.sample_rate, rate)
            )
        staircase = bunch_max(rectify(chunk), spec)
        out, state = filter_causal(design, staircase, state)
        yield out
