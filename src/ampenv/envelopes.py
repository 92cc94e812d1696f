"""The four amplitude-envelope estimators.

``three_step_envelope`` is the peak-hold method: rectify, take the maximum
over non-overlapping bunches, then zero-phase low-pass the staircase. Unlike
the classical estimators it tracks the waveform's peaks without attenuation:
on a steady sinusoid of amplitude A it settles near A, where the sliding RMS
gives A/sqrt(2) and the rectify-and-smooth follower gives 2A/pi.

The baselines:

* ``envelope_follower`` - rectification followed by low-pass filtering,
  i.e. the peak-hold pipeline with bunch size 1; it takes ``cutoff_hz`` and
  ``filter_order``, named as in ``EnvelopeParams``.
* ``envelope_rms`` - root mean square over a centered sliding window; the
  window sums are built by doubling, in O(n log w) for width w.
* ``envelope_hilbert`` - magnitude of the analytic signal, its quadrature
  part from the real FFT; accurate only for narrow-band inputs, and shipped
  mainly for comparison.

All four preserve length and sample rate and are positively homogeneous
(scaling the input scales the envelope).

Parameter guidance at 44.1 kHz: bunch sizes of 20-200 samples suit content
between roughly 100 Hz and 10 kHz, and cutoffs of 100-150 Hz follow
variations as fast as ~10 ms; smaller bunches and higher cutoffs keep more
ripple detail, larger/lower smooth harder. ``PRESETS`` collects tuned
starting points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .filter_design import FilterSpec, butterworth_lowpass
from .filtering import _held_zero_phase, _pad_for, _zero_phase, filtfilt_zero_phase
from .signals import BunchSpec, Signal, _bunch_peaks, _peaks, _positive_finite, _positive_int, bunch_max, rectify


@dataclass(frozen=True)
class EnvelopeParams:
    """Tuning knobs of the peak-hold method."""

    bunch_size: int = 50
    cutoff_hz: float = 150.0
    filter_order: int = FilterSpec.order

    def __post_init__(self):
        object.__setattr__(self, "bunch_size", BunchSpec(self.bunch_size).bunch_size)
        object.__setattr__(self, "cutoff_hz", _positive_finite(self.cutoff_hz, "invalid filter spec: cutoff must be positive"))
        object.__setattr__(self, "filter_order", _positive_int(self.filter_order, "invalid filter spec: order must be a positive integer"))


#: Default sliding-RMS window, in samples.
RMS_WINDOW = 50

#: Tuned (bunch_size, cutoff_hz) starting points for common 44.1 kHz sources.
PRESETS: dict[str, EnvelopeParams] = {
    "canary": EnvelopeParams(bunch_size=35, cutoff_hz=300.0),
    "whale": EnvelopeParams(bunch_size=50, cutoff_hz=300.0),
    "speech": EnvelopeParams(bunch_size=50, cutoff_hz=100.0),
    "piano": EnvelopeParams(bunch_size=200, cutoff_hz=100.0),
}


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Envelope plus the method tag and parameters that produced it."""

    envelope: Signal
    method: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


def three_step_stages(
    s: Signal, params: EnvelopeParams | None = None
) -> tuple[Signal, Signal, Signal]:
    """Rectified, staircase, and final envelope stages of the peak-hold method.

    All three are held at full length. The envelope is
    ``filtfilt_zero_phase`` of the staircase, which for bunches of 2-256
    samples runs at the group rate from one staircase sample a bunch, and
    it equals ``three_step_envelope``'s bit for bit at every bunch size.
    """
    p = params if params is not None else EnvelopeParams()
    design = butterworth_lowpass(FilterSpec(p.cutoff_hz, s.sample_rate, p.filter_order))
    rectified = rectify(s)
    staircase = bunch_max(rectified, p.bunch_size)
    envelope = filtfilt_zero_phase(design, staircase)
    return rectified, staircase, envelope


def three_step_envelope(s: Signal, params: EnvelopeParams | None = None) -> EnvelopeResult:
    """Peak-hold envelope: rectify, bunch maximum, zero-phase low-pass.

    The staircase lies on or above the rectified waveform, so the smoothed
    result follows the signal's peaks without the systematic attenuation of
    the classical estimators. Filter ringing can make the output dip
    slightly below zero near sharp transitions.

    |x| is made in one float64 buffer of the padded length, and the
    envelope over it in place. For bunches of 2-256 samples the staircase is
    never built: the zero-phase pass runs from the bunch peaks, one small
    product per group of whole bunches (``kernels`` module docstring). Other
    bunch sizes turn |x| into the staircase in place and filter the padded
    buffer in pieces of 2^17 samples (``kernels._SPAN``). Either way no
    second full-length array is held.
    ``three_step_stages`` returns all three stages; its envelope is this
    one bit for bit.
    """
    p = params if params is not None else EnvelopeParams()
    return EnvelopeResult(_peak_hold(s, p), "three_step", asdict(p))


def _peak_hold(s: Signal, p: EnvelopeParams) -> Signal:
    # Errors come in three_step_stages' order: the design's, then empty
    # input, then the pad's.
    design = butterworth_lowpass(FilterSpec(p.cutoff_hz, s.sample_rate, p.filter_order))
    if len(s) == 0:
        raise ValueError("empty input")
    n, sos, bunch = len(s), design.sections, p.bunch_size
    pad = _pad_for(design, n)
    buf = np.empty(n + 2 * pad)  # padded for the piece driver, which fills it in place
    env = np.abs(s.samples, out=buf[pad : pad + n])
    if 2 <= bunch <= kernels.HOLD:  # the group rate; the follower and larger bunches take the pieces
        env = _held_zero_phase(sos, _peaks(env, bunch), env, bunch, pad)
    else:
        env = _zero_phase(sos, env if bunch == 1 else _bunch_peaks(env, bunch, env), buf, pad)
    return Signal._wrap(env, s.sample_rate)


def envelope_follower(
    s: Signal, cutoff_hz: float = EnvelopeParams.cutoff_hz, filter_order: int = EnvelopeParams.filter_order
) -> EnvelopeResult:
    """Classical envelope follower: rectify then zero-phase low-pass.

    This is the peak-hold pipeline with bunch size 1, where the bunch
    maximum leaves the rectified waveform unchanged. It settles at the mean
    of the rectified waveform (2A/pi for a sinusoid of amplitude A), i.e.
    systematically below the peak level.
    """
    p = EnvelopeParams(1, cutoff_hz, filter_order)
    return EnvelopeResult(_peak_hold(s, p), "follower", {"cutoff_hz": p.cutoff_hz, "filter_order": p.filter_order})


def envelope_rms(s: Signal, window_samples: int = RMS_WINDOW) -> EnvelopeResult:
    """Sliding-window RMS envelope.

    Each output sample is the RMS over a centered window of nominal width
    ``window_samples``, truncated (shrunk) at the signal edges. Even widths
    extend one sample further to the left of center. Settles at A/sqrt(2)
    on a sinusoid of amplitude A.
    """
    w = _positive_int(window_samples, "invalid window: %(value)r")
    x = s.samples
    n = x.shape[0]
    if n == 0:
        return EnvelopeResult(Signal._wrap(x.copy(), s.sample_rate), "rms", {"window_samples": w})
    left, right = w // 2, w - w // 2 - 1  # window samples on each side of center
    # The squares, zero-padded so that output i's window is padded[i : i + w].
    # Window sums are built by doubling over the binary digits of w: the sum
    # of 2k samples is that of k plus that of the k after them. Only the
    # nonnegative squares are ever added, so there is no cumsum subtraction
    # to cancel, in O(n log w) against direct convolution's O(n w).
    span = n + w - 1
    padded = np.zeros(span)
    np.multiply(x, x, out=padded[left : left + n])
    spare = np.empty(span)
    sums = np.zeros(n)
    offset, k = 0, 1  # samples summed so far; samples per sum in ``padded``
    while True:
        if w & k:
            sums += padded[offset : offset + n]
            offset += k
        if offset == w:
            break
        np.add(padded[: span - k], padded[k:span], out=spare[: span - k])
        padded, spare = spare, padded
        span -= k
        k *= 2
    # Every window holds w samples but the w - 1 that reach past an edge.
    lo = min(left, n)
    hi = max(n - right, lo)
    sums[lo:hi] /= w
    edges = np.r_[0:lo, hi:n]
    sums[edges] /= np.minimum(edges + right + 1, n) - np.maximum(edges - left, 0)
    out = np.sqrt(sums, out=sums)
    return EnvelopeResult(Signal._wrap(out, s.sample_rate), "rms", {"window_samples": w})


def envelope_hilbert(s: Signal) -> EnvelopeResult:
    """Analytic-signal magnitude envelope.

    The analytic signal is x + i Hx, with Hx the Hilbert transform of x.
    Hx is computed from the real FFT (Marple, IEEE TSP 1999): every bin of
    ``rfft(x)`` times -i, DC (and Nyquist, for even lengths) zeroed, back
    through ``irfft``; the envelope is ``hypot(x, Hx)``. Tracks the
    modulation of narrow-band signals closely; with rich spectral content
    the magnitude beats and the estimate degrades. Edges carry transform
    leakage; no windowing is applied.
    """
    n = len(s)
    if n == 0:
        raise ValueError("empty input")
    spectrum = np.fft.rfft(s.samples)
    spectrum *= -1j
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = 0.0
    quadrature = np.fft.irfft(spectrum, n)
    envelope = np.hypot(s.samples, quadrature, out=quadrature)
    return EnvelopeResult(Signal._wrap(envelope, s.sample_rate), "hilbert", {})
