"""Synthetic test signals, method-comparison metrics, and runtime benchmarks.

The generators return the exact modulation envelope used in synthesis, so
estimator error can be measured against ground truth instead of by eye.
``compare_methods`` runs any set of configured estimators over one signal
and reports tracking error, peak and mean level ratios, and wall-clock
runtime per method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .envelopes import (
    EnvelopeParams,
    envelope_follower,
    envelope_hilbert,
    envelope_rms,
    three_step_envelope,
)
from .signals import Signal, _positive_finite

SYNTH_KINDS = ("am_tone", "multi_carrier_am", "chirp_am", "noise_burst")

#: Runtime checks time the paper's reference: 1.5 s at SyntheticSpec's 44.1 kHz.
REFERENCE_DURATION_S = 1.5
#: measure_runtime_ms: the median of RUNTIME_REPEATS timed calls after RUNTIME_WARMUP untimed ones.
RUNTIME_REPEATS, RUNTIME_WARMUP = 5, 1


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a signal with a known modulation envelope.

    ``carrier_hz`` is a single frequency for ``am_tone``, a (start, end)
    pair for ``chirp_am``, and any number of components for
    ``multi_carrier_am``; ``noise_burst`` ignores it and uses seeded white
    noise as the carrier. The modulation is
    (1 + depth * sin(2 pi f_mod t)) / (1 + depth), so the true envelope
    peaks at 1; the carrier (or mixture, or noise) is normalized to peak 1
    as well. ``n_samples`` is duration x rate, rounded; it is derived, not
    passed, and must be at least 1.
    """

    kind: str = "am_tone"
    carrier_hz: float | tuple[float, ...] = 2000.0
    modulator_hz: float = 5.0
    depth: float = 0.5
    duration_s: float = 2.0
    sample_rate_hz: float = 44100.0
    seed: int = 0
    n_samples: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError("unknown synthetic kind: %r (use one of %s)" % (self.kind, ", ".join(SYNTH_KINDS)))
        carriers = self.carrier_hz
        if np.isscalar(carriers):
            carriers = (float(carriers),)
        else:
            carriers = tuple(float(c) for c in carriers)
        object.__setattr__(self, "carrier_hz", carriers)
        _positive_finite(self.duration_s, "duration must be positive")
        nyquist = _positive_finite(self.sample_rate_hz, "sample rate must be positive") / 2.0
        if not 0.0 <= float(self.depth) <= 1.0:
            raise ValueError("depth must be in [0, 1]")
        if self.kind != "noise_burst":
            for c in carriers:
                # Nyquist first, so an infinite carrier reads as above Nyquist
                if c >= nyquist:
                    raise ValueError("carrier at or above Nyquist: %g Hz >= %g Hz" % (c, nyquist))
                _positive_finite(c, "carrier must be positive")
            if float(self.modulator_hz) >= min(carriers):
                raise ValueError("modulator must be below the carrier")
        _positive_finite(self.modulator_hz, "modulator must be positive")
        if self.kind == "chirp_am" and len(carriers) != 2:
            raise ValueError("chirp_am needs (start, end) carrier frequencies")
        if self.kind == "am_tone" and len(carriers) != 1:
            raise ValueError("am_tone takes a single carrier frequency")
        samples = float(self.duration_s) * float(self.sample_rate_hz)
        if samples == np.inf:  # round(inf) raises OverflowError
            raise ValueError("duration too long for sample rate: %g s at %g Hz" % (self.duration_s, self.sample_rate_hz))
        n_samples = round(samples)
        if n_samples < 1:
            raise ValueError("duration too short for sample rate: no samples")
        object.__setattr__(self, "n_samples", n_samples)


def generate(spec: SyntheticSpec) -> tuple[Signal, Signal]:
    """Synthesize (signal, true_envelope) for a spec."""
    fs = float(spec.sample_rate_hz)
    n = spec.n_samples
    t = np.arange(n) / fs
    depth = float(spec.depth)
    env = (1.0 + depth * np.sin(2.0 * np.pi * float(spec.modulator_hz) * t)) / (1.0 + depth)

    if spec.kind == "am_tone":
        carrier = np.sin(2.0 * np.pi * spec.carrier_hz[0] * t)
    elif spec.kind == "multi_carrier_am":
        carrier = np.zeros(n)
        for c in spec.carrier_hz:
            carrier += np.sin(2.0 * np.pi * c * t)
        carrier /= np.max(np.abs(carrier))
    elif spec.kind == "chirp_am":
        f0, f1 = spec.carrier_hz
        duration = n / fs
        carrier = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * duration)))
    else:  # noise_burst
        carrier = np.random.default_rng(spec.seed).standard_normal(n)
        carrier /= np.max(np.abs(carrier))

    return Signal._wrap(env * carrier, fs), Signal._wrap(env, fs)


@dataclass(frozen=True)
class MethodReport:
    """One comparison row: error and level metrics for a single method."""

    method: str
    param_summary: str
    rmse_rel: float
    peak_ratio: float
    mean_ratio: float
    runtime_ms: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method metrics against ground truth or the peak-hold reference.

    ``reference`` is "ground_truth" when a true envelope was supplied;
    otherwise metrics are relative to the three_step result and must not be
    read as accuracy.
    """

    rows: tuple[MethodReport, ...]
    reference: str

    CSV_HEADER = "method,param_summary,rmse_rel,peak_ratio,mean_ratio,runtime_ms"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                "%s,%s,%.9g,%.9g,%.9g,%.9g"
                % (r.method, r.param_summary, r.rmse_rel, r.peak_ratio, r.mean_ratio, r.runtime_ms)
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = ("method", "params", "rmse_rel", "peak_ratio", "mean_ratio", "runtime_ms")
        body = [
            (r.method, r.param_summary, "%.4f" % r.rmse_rel, "%.4f" % r.peak_ratio,
             "%.4f" % r.mean_ratio, "%.3f" % r.runtime_ms)
            for r in self.rows
        ]
        widths = [max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        lines.append("reference = %s" % self.reference)
        return "\n".join(lines)


#: Method name -> estimator(signal, config). A config is a dict of the
#: method's ``EnvelopeResult.params`` keys; keys left out take the
#: estimator's own defaults.
ESTIMATORS = {
    "three_step": lambda s, config: three_step_envelope(s, EnvelopeParams(**config)),
    "follower": lambda s, config: envelope_follower(s, **config),
    "rms": lambda s, config: envelope_rms(s, **config),
    "hilbert": lambda s, config: envelope_hilbert(s),
}

# (params key, label format) in label order; a method without any is "-".
_LABEL_FIELDS = (
    ("bunch_size", "N=%d"),
    ("cutoff_hz", "fc=%gHz"),
    ("filter_order", "order=%d"),
    ("window_samples", "window=%d"),
)


def _param_summary(params: dict) -> str:
    return " ".join(fmt % params[key] for key, fmt in _LABEL_FIELDS if key in params) or "-"


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def compare_methods(
    s: Signal,
    truth: Signal | None = None,
    configs: list[tuple[str, dict]] | None = None,
) -> ComparisonReport:
    """Run each configured method on ``s`` and report metrics.

    Metrics are evaluated over the central 80% of samples, away from filter
    and transform edge transients. Without ground truth the three_step
    result is the reference (a three_step config must then be present) and
    the report says so. Runtime is timed by ``measure_runtime_ms``.
    """
    if not configs:
        raise ValueError("no methods configured")
    if truth is not None and len(truth) != len(s):
        raise ValueError(
            "signal length mismatch: truth has %d samples, signal %d" % (len(truth), len(s))
        )
    if truth is not None and truth.sample_rate != s.sample_rate:
        raise ValueError(
            "inconsistent sample rate: truth at %g Hz, signal at %g Hz" % (truth.sample_rate, s.sample_rate)
        )

    for method, _ in configs:
        if method not in ESTIMATORS:
            raise ValueError("unknown method: %r" % (method,))
    if truth is None and all(method != "three_step" for method, _ in configs):
        raise ValueError("no reference available: supply truth or a three_step config")
    if len(s) == 0:  # no metric is defined on no samples, so no estimator need run
        raise ValueError("empty input")

    runs = []
    for method, config in configs:
        fn = partial(ESTIMATORS[method], s, config or {})
        result = fn()  # the first warmup; also the output used for metrics
        runtime_ms = measure_runtime_ms(fn, warmup=RUNTIME_WARMUP - 1)
        runs.append((method, _param_summary(result.params), result.envelope.samples, runtime_ms))

    if truth is not None:
        reference = "ground_truth"
        ref = truth.samples
    else:
        reference = "three_step"
        ref = next(est for m, _, est, _ in runs if m == "three_step")

    n = len(s)
    lo, hi = n // 10, n - n // 10
    ref_w = ref[lo:hi]
    ref_rms = float(np.sqrt(np.mean(ref_w * ref_w))) if ref_w.size else 0.0

    rows = []
    for method, label, est, runtime_ms in runs:
        est_w = est[lo:hi]
        err = est_w - ref_w
        rows.append(
            MethodReport(
                method=method,
                param_summary=label,
                rmse_rel=_ratio(float(np.sqrt(np.mean(err * err))), ref_rms),
                peak_ratio=_ratio(float(est_w.max()), float(ref_w.max())),
                mean_ratio=_ratio(float(est_w.mean()), float(ref_w.mean())),
                runtime_ms=runtime_ms,
            )
        )
    return ComparisonReport(tuple(rows), reference)


def measure_runtime_ms(fn, repeats: int = RUNTIME_REPEATS, warmup: int = RUNTIME_WARMUP) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls after ``warmup``."""
    for _ in range(warmup):
        fn()
    times = np.empty(repeats)
    for i in range(repeats):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    return float(np.median(times)) * 1e3


def three_step_runtime_ms(
    duration_s: float = REFERENCE_DURATION_S,
    sample_rate_hz: float = SyntheticSpec.sample_rate_hz,
    params: EnvelopeParams | None = None,
    repeats: int = RUNTIME_REPEATS,
) -> float:
    """Median runtime of the full peak-hold pipeline on a synthetic AM tone."""
    sig, _ = generate(SyntheticSpec(duration_s=duration_s, sample_rate_hz=sample_rate_hz))
    return measure_runtime_ms(lambda: three_step_envelope(sig, params), repeats)
