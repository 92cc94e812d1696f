"""Digital Butterworth low-pass design as a cascade of second-order sections.

The analog prototype places the poles uniformly on the left half of a circle
whose radius is the prewarped cutoff; the bilinear transform then maps them
into the unit circle, with every analog zero (all at infinity) landing on
z = -1. Prewarping the cutoff makes the -3 dB point land exactly on the
requested frequency. Sections are ordered with the pole pair closest to the
unit circle first and the overall gain is folded into the first section's
numerator, leaving every a0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import _positive_finite, _positive_int


@dataclass(frozen=True)
class FilterSpec:
    """Requested low-pass filter: cutoff and sample rate in Hz."""

    cutoff_hz: float
    sample_rate_hz: float
    order: int = 4

    def __post_init__(self):
        order = _positive_int(self.order, "invalid filter spec: order must be a positive integer")
        rate = _positive_finite(self.sample_rate_hz, "invalid filter spec: sample rate must be positive")
        cutoff = _positive_finite(self.cutoff_hz, "invalid filter spec: cutoff must be positive")
        if cutoff >= rate / 2.0:
            raise ValueError(
                "cutoff above Nyquist: %g Hz >= %g Hz" % (cutoff, rate / 2.0)
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cutoff_hz", cutoff)
        object.__setattr__(self, "sample_rate_hz", rate)


@dataclass(frozen=True, eq=False)
class FilterDesign:
    """Realized filter: rows of (b0, b1, b2, a1, a2) biquads, a0 = 1."""

    sections: np.ndarray
    order: int
    cutoff_hz: float
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.array(self.sections, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 5:
            raise ValueError("sections must have shape (n_sections, 5)")
        arr.setflags(write=False)
        object.__setattr__(self, "sections", arr)

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    def transfer_function(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand the cascade into single (b, a) polynomials in z^-1."""
        b = np.array([1.0])
        a = np.array([1.0])
        for b0, b1, b2, a1, a2 in self.sections:
            b = np.polymul(b, [b0, b1, b2])
            a = np.polymul(a, [1.0, a1, a2])
        return b, a


_STABILITY_MARGIN = 1e-12
_RESOLUTION = 1e-12


def butterworth_lowpass(spec: FilterSpec) -> FilterDesign:
    """Design a maximally flat low-pass filter for the given spec.

    DC gain is 1 (renormalized exactly after assembly) and the magnitude at
    the cutoff is 1/sqrt(2) by construction of the prewarped bilinear
    transform.
    """
    n = spec.order
    fs2 = 2.0 * spec.sample_rate_hz
    warped = fs2 * math.tan(math.pi * spec.cutoff_hz / spec.sample_rate_hz)

    k = np.arange(n)
    poles = warped * np.exp(1j * np.pi * (2.0 * k + n + 1.0) / (2.0 * n))
    zpoles = (fs2 + poles) / (fs2 - poles)
    # From order ~61 both terms of the gain overflow (inf / inf); the check
    # after assembly turns that into an error.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            gain = (warped**n / np.prod(fs2 - poles)).real
        except OverflowError:  # warped**n on Python floats
            gain = math.nan

    ordered: list[tuple[float, list[float]]] = []
    for i in range(n // 2):
        p = zpoles[i]  # zpoles[n-1-i] is its conjugate
        radius = abs(p)
        ordered.append((radius, [1.0, 2.0, 1.0, -2.0 * p.real, radius * radius]))
    if n % 2:
        p = zpoles[n // 2].real  # imaginary part is rounding noise
        ordered.append((abs(p), [1.0, 1.0, 0.0, -p, 0.0]))
    ordered.sort(key=lambda item: item[0], reverse=True)

    for radius, (_, _, _, a1, a2) in ordered:
        if radius >= 1.0 - _STABILITY_MARGIN:
            raise ValueError(
                "unstable filter design: pole radius %.17g for %r" % (radius, spec)
            )
        # A section's 1 + a1 + a2 sets its DC gain, and a pair's a2 - a1^2/4
        # is its poles' imaginary part squared. Rounding a1 and a2 moves each
        # by ~4e-16: below _RESOLUTION that error exceeds 0.04%, and at 0 the
        # DC gain is infinite or the pair has collapsed onto the real axis.
        if min(1.0 + a1 + a2, a2 - a1 * a1 / 4.0 if a2 else 1.0) < _RESOLUTION:
            raise ValueError(
                "cutoff not realisable in float64: %r rounds a pole pair away" % (spec,)
            )

    sos = np.array([section for _, section in ordered], dtype=np.float64)
    sos[0, :3] *= gain
    with np.errstate(all="ignore"):
        dc = np.prod((sos[:, 0] + sos[:, 1] + sos[:, 2]) / (1.0 + sos[:, 3] + sos[:, 4]))
        sos[0, :3] /= dc
    if not np.isfinite(sos).all():
        raise ValueError("order not realisable in float64: %r overflows the gain" % (spec,))

    return FilterDesign(sos, n, spec.cutoff_hz, spec.sample_rate_hz)


def frequency_response(design: FilterDesign, freqs_hz) -> np.ndarray:
    """Complex response H(e^{j 2 pi f / fs}) at each frequency.

    Computed as the product over sections at the design's sample rate.
    Frequencies must be finite and lie in [0, Nyquist].
    """
    fs = design.sample_rate_hz
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    if f.size and not (f.min() >= 0.0 and f.max() <= fs / 2.0):  # NaN fails both
        raise ValueError("frequency out of band: must be within [0, %g] Hz" % (fs / 2.0))
    z1 = np.exp(-2j * np.pi * f / fs)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for b0, b1, b2, a1, a2 in design.sections:
        h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h
