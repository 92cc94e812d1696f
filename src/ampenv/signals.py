"""Signal container and the first two envelope stages.

Rectification (absolute value) and the non-overlapping per-bunch maximum,
which turns the rectified waveform into a piecewise-constant staircase that
rides on its peaks. Both preserve length and sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real-valued signal.

    Samples are held as an immutable float64 array; ``sample_rate`` is in Hz.
    Instances never mutate, so they are safe to share across threads.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("non-finite sample in signal")
        rate = float(self.sample_rate)
        if not np.isfinite(rate) or rate <= 0.0:
            raise ValueError("sample rate must be positive, got %r" % (self.sample_rate,))
        object.__setattr__(self, "samples", _freeze(arr))
        object.__setattr__(self, "sample_rate", rate)

    @classmethod
    def _wrap(cls, samples: np.ndarray, sample_rate: float) -> "Signal":
        # Internal constructor: adopts a freshly computed float64 array
        # without the defensive copy of __init__.
        sig = object.__new__(cls)
        object.__setattr__(sig, "samples", _freeze(samples))
        object.__setattr__(sig, "sample_rate", float(sample_rate))
        return sig

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
        size = int(self.bunch_size)
        if size != self.bunch_size or size < 1:
            raise ValueError("invalid bunch size: %r" % (self.bunch_size,))
        object.__setattr__(self, "bunch_size", size)


def rectify(s: Signal) -> Signal:
    """Full-wave rectification: elementwise absolute value."""
    return Signal._wrap(np.abs(s.samples), s.sample_rate)


def bunch_max(s: Signal, spec: BunchSpec | int) -> Signal:
    """Replace every sample with the maximum of its bunch.

    The signal is split into consecutive non-overlapping bunches of
    ``spec.bunch_size`` samples and each output sample equals the maximum
    over the bunch containing it, giving a staircase at the original sample
    rate. A trailing partial bunch takes the maximum over just its own
    samples, so no peak is ever dropped.
    """
    if not isinstance(spec, BunchSpec):
        spec = BunchSpec(spec)
    if len(s) == 0:
        raise ValueError("empty input")
    x, n = s.samples, spec.bunch_size
    m = x.shape[0]
    full = m // n
    out = np.empty(m, dtype=np.float64)
    if full:
        out[: full * n] = np.repeat(x[: full * n].reshape(full, n).max(axis=1), n)
    if full * n < m:
        out[full * n :] = x[full * n :].max()
    return Signal._wrap(out, s.sample_rate)
