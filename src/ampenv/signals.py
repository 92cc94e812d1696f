"""Signal container and the first two envelope stages.

Rectification (absolute value) and the non-overlapping per-bunch maximum,
which turns the rectified waveform into a piecewise-constant staircase that
rides on its peaks. Both preserve length and sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# The package's two number rules. Each returns the value converted, or raises
# ValueError(message); ``message`` may show the rejected value as ``%(value)r``.
def _positive_finite(value, message: str) -> float:
    x = float(value)
    if not 0.0 < x < np.inf:
        raise ValueError(message % {"value": value})
    return x


def _positive_int(value, message: str) -> int:
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        raise ValueError(message % {"value": value}) from None
    if n != value or n < 1:
        raise ValueError(message % {"value": value})
    return n


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real-valued signal.

    Samples are held as an immutable float64 array; ``sample_rate`` is in Hz.
    Instances never mutate, so they are safe to share across threads.
    """

    samples: np.ndarray
    sample_rate: float
    # N when ``bunch_max`` made the samples as a hold of N-sample bunches
    # from sample 0, for N >= 2; ``filtfilt_zero_phase`` then filters the
    # bunch peaks. No constructor sets it.
    _hold: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._adopt(np.array(self.samples, dtype=np.float64), self.sample_rate)

    @classmethod
    def _wrap(cls, samples: np.ndarray, sample_rate: float) -> "Signal":
        # Internal constructor: adopts a freshly computed float64 array
        # without the defensive copy of __init__; _adopt checks the invariant.
        sig = object.__new__(cls)
        sig._adopt(samples, sample_rate)
        return sig

    def _adopt(self, arr: np.ndarray, sample_rate) -> None:
        if arr.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("non-finite sample in signal")
        rate = _positive_finite(sample_rate, "sample rate must be positive, got %(value)r")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate

    def times(self) -> np.ndarray:
        """Sample times in seconds: 0, 1/fs, 2/fs, ..."""
        return np.arange(len(self)) / self.sample_rate


@dataclass(frozen=True)
class BunchSpec:
    """Width, in samples, of the non-overlapping bunches for the peak stage."""

    bunch_size: int

    def __post_init__(self):
        object.__setattr__(self, "bunch_size", _positive_int(self.bunch_size, "invalid bunch size: %(value)r"))


def rectify(s: Signal) -> Signal:
    """Full-wave rectification: elementwise absolute value."""
    return Signal._wrap(np.abs(s.samples), s.sample_rate)


def bunch_max(s: Signal, spec: BunchSpec | int) -> Signal:
    """Replace every sample with the maximum of its bunch.

    The signal is split into consecutive non-overlapping bunches of
    ``spec.bunch_size`` samples and each output sample equals the maximum
    over the bunch containing it, giving a staircase at the original sample
    rate. A trailing partial bunch takes the maximum over just its own
    samples, so no peak is ever dropped. With a bunch size of 1 the
    staircase is ``s`` itself. A larger bunch's staircase records its bunch
    size, so that ``filtfilt_zero_phase`` can filter it from one sample a
    bunch; a Signal built from its samples is an ordinary signal.
    """
    if not isinstance(spec, BunchSpec):
        spec = BunchSpec(spec)
    if len(s) == 0:
        raise ValueError("empty input")
    if spec.bunch_size == 1:  # a one-sample bunch is its own maximum, and a Signal never changes
        return s
    out = Signal._wrap(_bunch_peaks(s.samples, spec.bunch_size, np.empty(len(s))), s.sample_rate)
    object.__setattr__(out, "_hold", spec.bunch_size)
    return out


def _peaks(x: np.ndarray, n: int) -> np.ndarray:
    """The maximum of each n-sample bunch of x, a trailing partial bunch's too."""
    return np.maximum.reduceat(x, np.arange(0, len(x), n))


def _bunch_peaks(x: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` (which may be ``x`` itself) each sample's n-sample bunch maximum; returns ``out``."""
    peaks = _peaks(x, n)
    full = len(x) // n
    out[: full * n].reshape(full, n)[:] = peaks[:full, None]
    out[full * n :] = peaks[full:]
    return out

