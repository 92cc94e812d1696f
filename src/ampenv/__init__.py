"""Amplitude envelope estimation for one-dimensional signals.

The core is a three-stage peak-hold method (rectify, per-bunch maximum,
zero-phase Butterworth low-pass) that follows a waveform's peaks without the
attenuation of the classical estimators, plus those classical baselines
(envelope follower, sliding RMS, Hilbert magnitude), the filter design and
filtering machinery behind them, WAV/CSV I/O, and a synthetic-signal
benchmark harness. See the ``ampenv`` command-line tool for end-to-end use.
"""

from . import kernels
from .audio_io import AudioFile, WavFormatError, read_wav, to_mono, write_csv, write_wav
from .bench import (
    ComparisonReport,
    MethodReport,
    SyntheticSpec,
    compare_methods,
    generate,
    measure_runtime_ms,
    three_step_runtime_ms,
)
from .envelopes import (
    PRESETS,
    EnvelopeParams,
    EnvelopeResult,
    envelope_follower,
    envelope_hilbert,
    envelope_rms,
    three_step_envelope,
    three_step_stages,
)
from .filter_design import FilterDesign, FilterSpec, butterworth_lowpass, frequency_response
from .filtering import (
    FilterState,
    chunked_envelope_stream,
    filter_causal,
    filtfilt_zero_phase,
)
from .signals import BunchSpec, Signal, bunch_max, rectify

__version__ = "0.1.0"

__all__ = [
    "AudioFile",
    "BunchSpec",
    "ComparisonReport",
    "EnvelopeParams",
    "EnvelopeResult",
    "FilterDesign",
    "FilterSpec",
    "FilterState",
    "MethodReport",
    "PRESETS",
    "Signal",
    "SyntheticSpec",
    "WavFormatError",
    "bunch_max",
    "butterworth_lowpass",
    "chunked_envelope_stream",
    "compare_methods",
    "envelope_follower",
    "envelope_hilbert",
    "envelope_rms",
    "filter_causal",
    "filtfilt_zero_phase",
    "frequency_response",
    "generate",
    "kernels",
    "measure_runtime_ms",
    "read_wav",
    "rectify",
    "three_step_envelope",
    "three_step_runtime_ms",
    "three_step_stages",
    "to_mono",
    "write_csv",
    "write_wav",
]
