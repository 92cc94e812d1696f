"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import time

import numpy as np

from ampenv import (
    PRESETS,
    EnvelopeParams,
    FilterSpec,
    Signal,
    SyntheticSpec,
    bunch_max,
    butterworth_lowpass,
    chunked_envelope_stream,
    envelope_follower,
    envelope_hilbert,
    envelope_rms,
    filter_causal,
    filtfilt_zero_phase,
    frequency_response,
    generate,
    read_wav,
    rectify,
    three_step_envelope,
    three_step_runtime_ms,
    write_csv,
    write_wav,
)
from ampenv.cli import main


def _verdict(number, name, ok, detail):
    print("criterion %d (%s): %s [%s]" % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


def central(x, fraction=0.8):
    n = len(x)
    trim = int(n * (1.0 - fraction) / 2.0)
    return x[trim : n - trim]


def test_criterion_1_runtime(capsys):
    ms = three_step_runtime_ms(duration_s=1.5, sample_rate_hz=44100.0)
    code = main(["bench", "--duration", "1.5", "--rate", "44100"])
    with capsys.disabled():
        _verdict(
            1,
            "runtime",
            ms < 500.0 and code == 0,
            "median %.2f ms for 66150 samples (budget 500 ms), bench exit %d" % (ms, code),
        )


def test_criterion_2_attenuation_separation(capsys):
    t0 = time.perf_counter()
    A = 0.7
    rate = 44100.0
    t = np.arange(int(2.0 * rate)) / rate
    sig = Signal(A * np.sin(2.0 * np.pi * 2000.0 * t), rate)

    three = central(three_step_envelope(sig, EnvelopeParams(35, 120.0)).envelope.samples).mean()
    rms = central(envelope_rms(sig, 50).envelope.samples).mean()
    follower = central(envelope_follower(sig, 150.0, 4).envelope.samples).mean()
    elapsed = time.perf_counter() - t0

    ok = (
        0.95 * A <= three <= 1.05 * A
        and 0.95 * A / np.sqrt(2.0) <= rms <= 1.05 * A / np.sqrt(2.0)
        and 0.90 * 2.0 * A / np.pi <= follower <= 1.10 * 2.0 * A / np.pi
        and elapsed < 5.0
    )
    with capsys.disabled():
        _verdict(
            2,
            "attenuation separation",
            ok,
            "three_step %.4f (A=%.1f), rms %.4f (A/sqrt2=%.4f), follower %.4f (2A/pi=%.4f), %.2f s"
            % (three, A, rms, A / np.sqrt(2.0), follower, 2.0 * A / np.pi, elapsed),
        )


def test_criterion_3_ground_truth_tracking(capsys):
    t0 = time.perf_counter()
    sig, truth = generate(SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0))
    est = three_step_envelope(sig, EnvelopeParams(35, 120.0)).envelope.samples
    est_w, ref_w = central(est), central(truth.samples)
    rmse = float(np.sqrt(np.mean((est_w - ref_w) ** 2) / np.mean(ref_w**2)))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict(
            3,
            "ground-truth tracking",
            rmse < 0.05 and elapsed < 5.0,
            "relative RMSE %.4f (limit 0.05), %.2f s" % (rmse, elapsed),
        )


def test_criterion_4_filter_correctness(capsys):
    problems = []
    for name, params in PRESETS.items():
        design = butterworth_lowpass(FilterSpec(params.cutoff_hz, 44100.0, params.filter_order))
        mag_db = 20.0 * np.log10(abs(frequency_response(design, [params.cutoff_hz])[0]))
        if abs(mag_db + 3.0103) > 0.01:
            problems.append("%s cutoff gain %.4f dB" % (name, mag_db))
        if abs(frequency_response(design, [0.0])[0] - 1.0) > 1e-9:
            problems.append("%s DC gain off" % name)
        for _, _, _, a1, a2 in design.sections:
            if np.max(np.abs(np.roots([1.0, a1, a2]))) >= 1.0:
                problems.append("%s unstable" % name)
        grid = np.abs(frequency_response(design, np.linspace(0.0, 22050.0, 512)))
        if not np.all(np.diff(grid) <= 1e-9):
            problems.append("%s non-monotone" % name)

    # zero-phase behavior on a passband sinusoid
    design = butterworth_lowpass(FilterSpec(400.0, 44100.0, 4))
    freq = 120.0
    t = np.arange(44100) / 44100.0
    x = np.sin(2.0 * np.pi * freq * t)
    y = filtfilt_zero_phase(design, Signal(x, 44100.0)).samples
    xc, yc = central(x), central(y)
    lag = int(np.argmax(np.correlate(yc, xc, mode="full"))) - (len(xc) - 1)
    tw = central(t)
    amp = abs(2.0 * np.mean(yc * np.exp(-2j * np.pi * freq * tw)))
    expected = abs(frequency_response(design, [freq])[0]) ** 2
    if lag != 0:
        problems.append("filtfilt lag %d" % lag)
    if abs(amp - expected) > 0.01 * expected:
        problems.append("filtfilt amplitude %.5f vs |H|^2 %.5f" % (amp, expected))

    with capsys.disabled():
        _verdict(
            4,
            "filter correctness",
            not problems,
            "; ".join(problems) if problems else "4 presets + zero-phase checks clean",
        )


def test_criterion_5_bunch_max_oracle(capsys):
    def naive(x, n):
        out = np.empty(len(x))
        for start in range(0, len(x), n):
            stop = min(start + n, len(x))
            out[start:stop] = max(x[start:stop])
        return out

    rng = np.random.default_rng(5150)
    mismatches = 0
    for _ in range(1000):
        length = int(rng.integers(1, 257))
        n = int(rng.integers(1, 33))
        x = rng.standard_normal(length)
        ours = bunch_max(Signal(x, 10.0), n).samples
        if not np.array_equal(ours, naive(x, n)):
            mismatches += 1
    with capsys.disabled():
        _verdict(
            5,
            "bunch-max oracle equivalence",
            mismatches == 0,
            "%d mismatches in 1000 random instances (bit-for-bit)" % mismatches,
        )


def test_criterion_6_streaming_equivalence(capsys):
    rng = np.random.default_rng(66)
    design = butterworth_lowpass(FilterSpec(150.0, 44100.0, 4))
    bunch = 32
    worst = 0.0
    for _ in range(20):
        n_bunches = int(rng.integers(10, 80))
        x = rng.standard_normal(n_bunches * bunch)
        whole, _ = filter_causal(design, bunch_max(rectify(Signal(x, 44100.0)), bunch))
        cuts = np.unique(rng.integers(1, n_bunches, size=3))
        bounds = [0, *(int(c) * bunch for c in cuts), n_bunches * bunch]
        parts = [Signal(x[a:b], 44100.0) for a, b in zip(bounds[:-1], bounds[1:])]
        streamed = np.concatenate(
            [c.samples for c in chunked_envelope_stream(design, bunch, parts)]
        )
        denom = np.max(np.abs(whole.samples))
        worst = max(worst, float(np.max(np.abs(streamed - whole.samples)) / denom))
    with capsys.disabled():
        _verdict(
            6,
            "streaming equivalence",
            worst <= 1e-12,
            "worst relative deviation %.3g over 20 random chunkings (limit 1e-12)" % worst,
        )


def test_criterion_7_homogeneity(capsys):
    rng = np.random.default_rng(77)
    x = rng.standard_normal(4000)
    worst = 0.0
    for a in (0.1, 1.0, 10.0):
        pairs = [
            (
                three_step_envelope(Signal(a * x, 44100.0), EnvelopeParams(35, 300.0)).envelope.samples,
                a * three_step_envelope(Signal(x, 44100.0), EnvelopeParams(35, 300.0)).envelope.samples,
            ),
            (
                envelope_follower(Signal(a * x, 44100.0), 150.0).envelope.samples,
                a * envelope_follower(Signal(x, 44100.0), 150.0).envelope.samples,
            ),
            (
                envelope_rms(Signal(a * x, 44100.0), 50).envelope.samples,
                a * envelope_rms(Signal(x, 44100.0), 50).envelope.samples,
            ),
            (
                envelope_hilbert(Signal(a * x, 44100.0)).envelope.samples,
                a * envelope_hilbert(Signal(x, 44100.0)).envelope.samples,
            ),
        ]
        for scaled, expected in pairs:
            scale = np.max(np.abs(expected))
            worst = max(worst, float(np.max(np.abs(scaled - expected)) / scale))
    with capsys.disabled():
        _verdict(
            7,
            "homogeneity",
            worst <= 1e-9,
            "worst relative deviation %.3g across 4 methods x 3 scales (limit 1e-9)" % worst,
        )


def test_criterion_8_io_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(88)
    problems = []

    x = rng.uniform(-1.0, 1.0, 2000)
    sig = Signal(x, 44100.0)
    wav16 = tmp_path / "rt16.wav"
    write_wav(wav16, sig, "pcm16")
    back16 = read_wav(wav16).channels[0].samples
    if np.max(np.abs(back16 - x)) > 1.0 / 32768.0:
        problems.append("pcm16 round trip out of quantization bound")

    xf = np.clip(rng.standard_normal(1000), -1.0, 1.0).astype(np.float32).astype(np.float64)
    wav32 = tmp_path / "rt32.wav"
    write_wav(wav32, Signal(xf, 48000.0), "float32")
    if not np.array_equal(read_wav(wav32).channels[0].samples, xf):
        problems.append("float32 round trip not exact")

    csv_path = tmp_path / "rt.csv"
    write_csv(csv_path, {"a": Signal(x[:500], 44100.0)})
    table = np.genfromtxt(csv_path, delimiter=",", names=True)
    if np.max(np.abs(table["a"] - x[:500])) > 1e-8:
        problems.append("CSV parse-back above 1e-8")

    expected_presets = {
        "canary": (35, 300.0),
        "whale": (50, 300.0),
        "speech": (50, 100.0),
        "piano": (200, 100.0),
    }
    for name, (bunch, cutoff) in expected_presets.items():
        p = PRESETS.get(name)
        if p is None or p.bunch_size != bunch or p.cutoff_hz != cutoff:
            problems.append("preset %s wrong" % name)

    with capsys.disabled():
        _verdict(
            8,
            "I/O round-trip",
            not problems,
            "; ".join(problems) if problems else "WAV within bounds, CSV <= 1e-8, presets exact",
        )
