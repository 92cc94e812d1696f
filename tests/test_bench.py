import warnings

import numpy as np
import pytest

from ampenv import (
    EnvelopeParams,
    Signal,
    SyntheticSpec,
    bench,
    compare_methods,
    generate,
    measure_runtime_ms,
    three_step_envelope,
)

FIGURE_CONFIGS = [
    ("three_step", {"bunch_size": 35, "cutoff_hz": 120.0}),
    ("follower", {"cutoff_hz": 150.0}),
    ("rms", {"window_samples": 50}),
]


class TestGenerate:
    def test_am_tone_formula(self):
        spec = SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0)
        sig, truth = generate(spec)
        assert len(sig) == 88200
        t = np.arange(88200) / 44100.0
        env = (1.0 + 0.5 * np.sin(2.0 * np.pi * 5.0 * t)) / 1.5
        np.testing.assert_allclose(truth.samples, env, rtol=1e-12)
        np.testing.assert_allclose(
            sig.samples, env * np.sin(2.0 * np.pi * 2000.0 * t), rtol=1e-12, atol=1e-15
        )

    def test_depth_zero_constant_truth(self):
        sig, truth = generate(SyntheticSpec("am_tone", 1000.0, 5.0, 0.0, 0.5, 8000.0))
        np.testing.assert_array_equal(truth.samples, np.full(4000, 1.0))

    def test_multi_carrier_peaks_at_one(self):
        sig, truth = generate(
            SyntheticSpec("multi_carrier_am", (500.0, 1713.7, 3903.1), 5.0, 0.5, 0.5, 44100.0)
        )
        assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
        assert truth.samples.max() == pytest.approx(1.0, abs=1e-6)

    def test_chirp_needs_two_carriers(self):
        with pytest.raises(ValueError, match="chirp_am needs"):
            SyntheticSpec("chirp_am", 2000.0)
        sig, truth = generate(SyntheticSpec("chirp_am", (500.0, 4000.0), 5.0, 0.5, 0.5, 44100.0))
        assert len(sig) == len(truth) == 22050

    def test_am_tone_takes_one_carrier(self):
        with pytest.raises(ValueError, match="am_tone takes a single carrier"):
            SyntheticSpec("am_tone", (1000.0, 2000.0))

    def test_noise_burst_seed_determinism(self):
        a, _ = generate(SyntheticSpec("noise_burst", seed=7, duration_s=0.1))
        b, _ = generate(SyntheticSpec("noise_burst", seed=7, duration_s=0.1))
        c, _ = generate(SyntheticSpec("noise_burst", seed=8, duration_s=0.1))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_validation(self):
        with pytest.raises(ValueError, match="duration must be positive"):
            SyntheticSpec(duration_s=0.0)
        with pytest.raises(ValueError, match="carrier at or above Nyquist"):
            SyntheticSpec(carrier_hz=30000.0, sample_rate_hz=44100.0)
        with pytest.raises(ValueError, match="depth"):
            SyntheticSpec(depth=1.5)
        with pytest.raises(ValueError, match="modulator must be below the carrier"):
            SyntheticSpec(carrier_hz=100.0, modulator_hz=200.0)
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            SyntheticSpec(kind="square_wave")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"duration_s": np.inf}, "duration must be positive"),
            ({"duration_s": np.nan}, "duration must be positive"),
            ({"sample_rate_hz": np.inf}, "sample rate must be positive"),
            ({"sample_rate_hz": np.nan}, "sample rate must be positive"),
            ({"kind": "noise_burst", "modulator_hz": np.inf}, "modulator must be positive"),
            ({"modulator_hz": np.nan}, "modulator must be positive"),
            ({"carrier_hz": np.nan}, "carrier must be positive"),
        ],
        ids=["duration-inf", "duration-nan", "rate-inf", "rate-nan", "modulator-inf", "modulator-nan", "carrier-nan"],
    )
    def test_rejects_non_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**kwargs)

    def test_n_samples_is_rounded_duration_times_rate(self):
        assert SyntheticSpec(duration_s=2.0, sample_rate_hz=44100.0).n_samples == 88200
        assert SyntheticSpec(duration_s=0.01, sample_rate_hz=8000.0).n_samples == 80
        spec = SyntheticSpec(carrier_hz=100.0, duration_s=1.6e-4, sample_rate_hz=8000.0)
        assert spec.n_samples == 1
        assert len(generate(spec)[0]) == 1

    @pytest.mark.parametrize(
        "duration_s, sample_rate_hz, message",
        [
            (1e-6, 44100.0, "duration too short for sample rate: no samples"),
            (1e-320, 44100.0, "duration too short for sample rate: no samples"),
            (1e300, 1e10, "duration too long for sample rate"),
        ],
        ids=["short", "underflow", "overflow"],
    )
    def test_sample_count_checked_at_construction(self, duration_s, sample_rate_hz, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(carrier_hz=1000.0, duration_s=duration_s, sample_rate_hz=sample_rate_hz)


class TestCompareMethods:
    def test_self_comparison_is_zero(self):
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        params = EnvelopeParams(35, 120.0)
        truth = three_step_envelope(sig, params).envelope
        report = compare_methods(
            sig, truth, [("three_step", {"bunch_size": 35, "cutoff_hz": 120.0})]
        )
        row = report.rows[0]
        assert row.rmse_rel == 0.0
        assert row.peak_ratio == 1.0
        assert row.mean_ratio == 1.0
        assert report.reference == "ground_truth"

    def test_metric_determinism(self):
        sig, truth = generate(SyntheticSpec(duration_s=0.3))
        r1 = compare_methods(sig, truth, FIGURE_CONFIGS)
        r2 = compare_methods(sig, truth, FIGURE_CONFIGS)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.rmse_rel, a.peak_ratio, a.mean_ratio) == (
                b.rmse_rel,
                b.peak_ratio,
                b.mean_ratio,
            )

    def test_figure_configuration_peak_ratios_on_am_tone(self):
        sig, truth = generate(SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0))
        report = compare_methods(sig, truth, FIGURE_CONFIGS)
        by_method = {row.method: row for row in report.rows}
        assert 0.95 <= by_method["three_step"].peak_ratio <= 1.05
        assert 0.65 <= by_method["rms"].peak_ratio <= 0.75
        assert 0.58 <= by_method["follower"].peak_ratio <= 0.70

    def test_without_truth_reference_is_three_step(self):
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        report = compare_methods(sig, None, FIGURE_CONFIGS)
        assert report.reference == "three_step"
        assert report.rows[0].rmse_rel == 0.0  # three_step against itself

    def test_without_truth_requires_three_step(self, monkeypatch):
        # Checked before any method runs: a long recording would otherwise
        # pay for every timed run of every method first.
        calls = []

        def counted(fn):
            return lambda *a: calls.append(1) or fn(*a)

        monkeypatch.setattr(bench, "ESTIMATORS", {m: counted(fn) for m, fn in bench.ESTIMATORS.items()})
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        with pytest.raises(ValueError, match="^no reference available: supply truth or a three_step config$"):
            compare_methods(sig, None, [("rms", {"window_samples": 50}), ("hilbert", {})])
        assert calls == []

    def test_empty_signal_is_rejected_before_any_method_runs(self, monkeypatch):
        calls = []

        def counted(fn):
            return lambda *a: calls.append(1) or fn(*a)

        monkeypatch.setattr(bench, "ESTIMATORS", {m: counted(fn) for m, fn in bench.ESTIMATORS.items()})
        empty = Signal(np.zeros(0), 44100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^empty input$"):
                compare_methods(empty, empty, [("rms", {})])
        assert calls == []

    def test_no_methods_configured(self):
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        with pytest.raises(ValueError, match="no methods configured"):
            compare_methods(sig, None, [])

    def test_unknown_method(self):
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        with pytest.raises(ValueError, match="unknown method"):
            compare_methods(sig, None, [("wavelet", {})])

    def test_zero_truth_gives_zero_or_infinite_ratios(self):
        # A silent ground truth: a silent estimate scores 0, any other inf.
        silence = Signal(np.zeros(4410), 44100.0)
        tone = Signal(np.sin(np.arange(4410) * 0.3), 44100.0)
        for sig, expected in ((silence, 0.0), (tone, np.inf)):
            row = compare_methods(sig, silence, [("rms", {})]).rows[0]
            assert (row.rmse_rel, row.peak_ratio, row.mean_ratio) == (expected,) * 3

    def test_truth_length_mismatch(self):
        sig, _ = generate(SyntheticSpec(duration_s=0.3))
        with pytest.raises(ValueError, match="length mismatch"):
            compare_methods(sig, Signal(np.zeros(10), sig.sample_rate), FIGURE_CONFIGS)

    def test_truth_rate_mismatch(self):
        # Same length, another rate: the truth is no ground truth for sig.
        sig, truth = generate(SyntheticSpec(duration_s=0.3))
        message = "^inconsistent sample rate: truth at 48000 Hz, signal at 44100 Hz$"
        with pytest.raises(ValueError, match=message):
            compare_methods(sig, Signal(truth.samples, 48000.0), FIGURE_CONFIGS)

    @pytest.mark.parametrize(
        "configs, labels",
        [
            (
                [("three_step", {}), ("follower", {}), ("rms", {}), ("hilbert", {})],
                ["N=50 fc=150Hz order=4", "fc=150Hz order=4", "window=50", "-"],
            ),
            (
                [("three_step", None), ("follower", None), ("rms", None), ("hilbert", None)],
                ["N=50 fc=150Hz order=4", "fc=150Hz order=4", "window=50", "-"],
            ),
            (
                [
                    ("three_step", {"bunch_size": 35, "cutoff_hz": 120.0, "filter_order": 2}),
                    ("three_step", {"bunch_size": 20, "cutoff_hz": 300.0}),
                    ("follower", {"cutoff_hz": 90.5, "filter_order": 3}),
                    ("follower", {"cutoff_hz": 300}),
                    ("rms", {"window_samples": 7}),
                    ("hilbert", {}),
                ],
                [
                    "N=35 fc=120Hz order=2",
                    "N=20 fc=300Hz order=4",
                    "fc=90.5Hz order=3",
                    "fc=300Hz order=4",
                    "window=7",
                    "-",
                ],
            ),
            (
                [("three_step", {"bunch_size": 35.0, "cutoff_hz": "120", "filter_order": 2.0})],
                ["N=35 fc=120Hz order=2"],
            ),
        ],
        ids=["default_dicts", "default_none", "explicit", "converted"],
    )
    def test_param_summary_labels(self, configs, labels):
        sig, truth = generate(SyntheticSpec(duration_s=0.05))
        report = compare_methods(sig, truth, configs)
        column = [line.split(",")[1] for line in report.to_csv().strip().split("\n")[1:]]
        assert column == labels
        assert [r.method for r in report.rows] == [m for m, _ in configs]

    def test_csv_round_trip(self):
        sig, truth = generate(SyntheticSpec(duration_s=0.3))
        report = compare_methods(sig, truth, FIGURE_CONFIGS)
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "method,param_summary,rmse_rel,peak_ratio,mean_ratio,runtime_ms"
        assert len(lines) == 1 + len(FIGURE_CONFIGS)
        for line, row in zip(lines[1:], report.rows):
            fields = line.split(",")
            assert fields[0] == row.method
            assert float(fields[2]) == pytest.approx(row.rmse_rel, rel=1e-8)
            assert float(fields[3]) == pytest.approx(row.peak_ratio, rel=1e-8)
        table = report.to_table()
        assert "reference = ground_truth" in table

    def test_monte_carlo_three_step_beats_rms(self):
        # random AM tones whose carrier period is shorter than the bunch
        rng = np.random.default_rng(2024)
        rate = 22050.0
        trials, wins = 1000, 0
        for _ in range(trials):
            carrier = float(rng.uniform(600.0, 5000.0))
            bunch = int(np.ceil(rate / carrier * rng.uniform(1.1, 3.0)))
            spec = SyntheticSpec(
                "am_tone",
                carrier,
                float(rng.uniform(2.0, 12.0)),
                float(rng.uniform(0.1, 0.9)),
                0.12,
                rate,
            )
            sig, truth = generate(spec)
            n = len(sig)
            lo, hi = n // 10, n - n // 10
            ref = truth.samples[lo:hi]
            ts = three_step_envelope(sig, EnvelopeParams(bunch, 120.0)).envelope.samples[lo:hi]
            from ampenv import envelope_rms

            rm = envelope_rms(sig, 50).envelope.samples[lo:hi]
            err_ts = np.sqrt(np.mean((ts - ref) ** 2))
            err_rm = np.sqrt(np.mean((rm - ref) ** 2))
            wins += err_ts < err_rm
        assert wins >= 0.95 * trials


class TestRuntime:
    def test_measure_runtime_positive(self):
        ms = measure_runtime_ms(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert ms >= 0.0

    def test_pipeline_scales_linearly_within_2x(self):
        from ampenv import three_step_runtime_ms

        # Interleaved rounds, each duration's fastest kept: load from other
        # processes slows some rounds of both, and no round speeds either up.
        base, long = [], []
        for _ in range(5):
            base.append(three_step_runtime_ms(1.5, repeats=3))
            long.append(three_step_runtime_ms(60.0, repeats=1))
        ratio = min(long) / min(base)
        assert 40.0 / 2.0 <= ratio <= 40.0 * 2.0  # 40x the samples, within 2x of linear

    def test_runtimes_reported_in_comparison(self):
        sig, truth = generate(SyntheticSpec(duration_s=0.2))
        report = compare_methods(sig, truth, FIGURE_CONFIGS)
        assert all(row.runtime_ms > 0.0 for row in report.rows)
