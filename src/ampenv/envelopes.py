"""The four amplitude-envelope estimators.

``three_step_envelope`` is the peak-hold method: rectify, take the maximum
over non-overlapping bunches, then zero-phase low-pass the staircase. Unlike
the classical estimators it tracks the waveform's peaks without attenuation:
on a steady sinusoid of amplitude A it settles near A, where the sliding RMS
gives A/sqrt(2) and the rectify-and-smooth follower gives 2A/pi.

The baselines:

* ``envelope_follower`` - rectification followed by low-pass filtering,
  i.e. the peak-hold pipeline with bunch size 1.
* ``envelope_rms`` - root mean square over a centered sliding window.
* ``envelope_hilbert`` - magnitude of the analytic signal; accurate only for
  narrow-band inputs, and shipped mainly for comparison.

All four preserve length and sample rate and are positively homogeneous
(scaling the input scales the envelope).

Parameter guidance at 44.1 kHz: bunch sizes of 20-200 samples suit content
between roughly 100 Hz and 10 kHz, and cutoffs of 100-150 Hz follow
variations as fast as ~10 ms; smaller bunches and higher cutoffs keep more
ripple detail, larger/lower smooth harder. ``PRESETS`` collects tuned
starting points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter_design import FilterSpec, butterworth_lowpass
from .filtering import filtfilt_zero_phase
from .signals import BunchSpec, Signal, bunch_max, rectify


@dataclass(frozen=True)
class EnvelopeParams:
    """Tuning knobs of the peak-hold method."""

    bunch_size: int = 50
    cutoff_hz: float = 150.0
    filter_order: int = 4

    def __post_init__(self):
        BunchSpec(self.bunch_size)  # reuse its validation
        if float(self.cutoff_hz) <= 0.0:
            raise ValueError("invalid filter spec: cutoff must be positive")
        if int(self.filter_order) != self.filter_order or self.filter_order < 1:
            raise ValueError("invalid filter spec: order must be a positive integer")


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
    """Rectified, staircase, and final envelope stages of the peak-hold method."""
    p = params if params is not None else EnvelopeParams()
    design = butterworth_lowpass(FilterSpec(p.cutoff_hz, s.sample_rate, p.filter_order))
    rectified = rectify(s)
    staircase = bunch_max(rectified, BunchSpec(p.bunch_size))
    envelope = filtfilt_zero_phase(design, staircase)
    return rectified, staircase, envelope


def three_step_envelope(s: Signal, params: EnvelopeParams | None = None) -> EnvelopeResult:
    """Peak-hold envelope: rectify, bunch maximum, zero-phase low-pass.

    The staircase lies on or above the rectified waveform, so the smoothed
    result follows the signal's peaks without the systematic attenuation of
    the classical estimators. Filter ringing can make the output dip
    slightly below zero near sharp transitions.
    """
    p = params if params is not None else EnvelopeParams()
    _, _, envelope = three_step_stages(s, p)
    return EnvelopeResult(
        envelope,
        "three_step",
        {"bunch_size": p.bunch_size, "cutoff_hz": p.cutoff_hz, "filter_order": p.filter_order},
    )


def envelope_follower(
    s: Signal, cutoff_hz: float = EnvelopeParams.cutoff_hz, order: int = EnvelopeParams.filter_order
) -> EnvelopeResult:
    """Classical envelope follower: rectify then zero-phase low-pass.

    This is the peak-hold pipeline with bunch size 1, where the bunch
    maximum leaves the rectified waveform unchanged. It settles at the mean
    of the rectified waveform (2A/pi for a sinusoid of amplitude A), i.e.
    systematically below the peak level.
    """
    _, _, envelope = three_step_stages(s, EnvelopeParams(1, cutoff_hz, order))
    return EnvelopeResult(envelope, "follower", {"cutoff_hz": float(cutoff_hz), "filter_order": int(order)})


def envelope_rms(s: Signal, window_samples: int = RMS_WINDOW) -> EnvelopeResult:
    """Sliding-window RMS envelope.

    Each output sample is the RMS over a centered window of nominal width
    ``window_samples``, truncated (shrunk) at the signal edges. Even widths
    extend one sample further to the left of center. Settles at A/sqrt(2)
    on a sinusoid of amplitude A.
    """
    w = int(window_samples)
    if w != window_samples or w < 1:
        raise ValueError("invalid window: %r" % (window_samples,))
    x = s.samples
    n = x.shape[0]
    if n == 0:
        return EnvelopeResult(Signal._wrap(x.copy(), s.sample_rate), "rms", {"window_samples": w})
    # direct convolution keeps the window sums local (no cumsum drift)
    sums = np.convolve(x * x, np.ones(w))[w - w // 2 - 1 : w - w // 2 - 1 + n]
    idx = np.arange(n)
    counts = np.clip(idx - w // 2 + w, 0, n) - np.clip(idx - w // 2, 0, n)
    out = np.sqrt(np.maximum(sums, 0.0) / counts)
    return EnvelopeResult(Signal._wrap(out, s.sample_rate), "rms", {"window_samples": w})


def envelope_hilbert(s: Signal) -> EnvelopeResult:
    """Analytic-signal magnitude envelope.

    The analytic signal is built in the frequency domain: negative-frequency
    bins are zeroed, strictly positive bins doubled, DC (and Nyquist, for
    even lengths) kept as-is. Tracks the modulation of narrow-band signals
    closely; with rich spectral content the magnitude beats and the estimate
    degrades. Edges carry transform leakage; no windowing is applied.
    """
    n = len(s)
    if n == 0:
        raise ValueError("empty input")
    spectrum = np.fft.fft(s.samples)
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1 : n // 2] = 2.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    analytic = np.fft.ifft(spectrum * weights)
    return EnvelopeResult(Signal._wrap(np.abs(analytic), s.sample_rate), "hilbert", {})
