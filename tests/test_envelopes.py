import numpy as np
import pytest
from scipy import signal as sps

from ampenv import (
    PRESETS,
    EnvelopeParams,
    Signal,
    SyntheticSpec,
    bunch_max,
    envelope_follower,
    envelope_hilbert,
    envelope_rms,
    generate,
    rectify,
    three_step_envelope,
    three_step_stages,
)


def naive_rms(x, w):
    out = np.empty(len(x))
    for i in range(len(x)):
        lo = max(0, i - w // 2)
        hi = min(len(x), i - w // 2 + w)
        out[i] = np.sqrt(np.mean(x[lo:hi] ** 2))
    return out


def sine(amplitude=1.0, freq=2000.0, duration=1.0, rate=44100.0):
    t = np.arange(int(duration * rate)) / rate
    return Signal(amplitude * np.sin(2.0 * np.pi * freq * t), rate)


def central(x, fraction=0.8):
    n = len(x)
    trim = int(n * (1.0 - fraction) / 2.0)
    return x[trim : n - trim]


def rel_rmse(est, ref):
    err = est - ref
    return np.sqrt(np.mean(err**2) / np.mean(ref**2))


class TestThreeStep:
    def test_constant_preserved(self):
        sig = Signal(np.full(4000, 0.8), 44100.0)
        out = three_step_envelope(sig, EnvelopeParams(35, 300.0))
        np.testing.assert_allclose(out.envelope.samples, 0.8, atol=1e-6)
        assert out.method == "three_step"
        assert out.params == {"bunch_size": 35, "cutoff_hz": 300.0, "filter_order": 4}

    def test_am_tone_tracking_under_5_percent(self):
        sig, truth = generate(SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0))
        out = three_step_envelope(sig, EnvelopeParams(35, 120.0))
        err = rel_rmse(central(out.envelope.samples), central(truth.samples))
        assert err < 0.05

    def test_stages_are_consistent(self, rng):
        sig = Signal(rng.standard_normal(2000), 44100.0)
        p = EnvelopeParams(35, 300.0)
        rectified, staircase, envelope = three_step_stages(sig, p)
        np.testing.assert_array_equal(rectified.samples, np.abs(sig.samples))
        np.testing.assert_array_equal(
            staircase.samples, bunch_max(rectify(sig), 35).samples
        )
        np.testing.assert_array_equal(
            envelope.samples, three_step_envelope(sig, p).envelope.samples
        )

    def test_staircase_dominates_signal(self, rng):
        sig = Signal(rng.standard_normal(1111), 44100.0)
        _, staircase, _ = three_step_stages(sig, EnvelopeParams(35, 300.0))
        assert np.all(staircase.samples >= np.abs(sig.samples))

    def test_bounded_undershoot(self, rng):
        for seed in (1, 2, 3):
            x = np.random.default_rng(seed).standard_normal(6000)
            sig = Signal(x, 44100.0)
            env = three_step_envelope(sig, EnvelopeParams(35, 300.0)).envelope.samples
            assert env.min() >= -0.02 * env.max()

    def test_cutoff_above_nyquist_propagates(self):
        sig = sine(duration=0.1)
        with pytest.raises(ValueError, match="cutoff above Nyquist"):
            three_step_envelope(sig, EnvelopeParams(35, 30000.0))


class TestFollower:
    def test_constant(self):
        sig = Signal(np.full(2000, 0.8), 44100.0)
        out = envelope_follower(sig, 150.0)
        np.testing.assert_allclose(out.envelope.samples, 0.8, atol=1e-6)

    def test_zero_signal(self):
        out = envelope_follower(Signal(np.zeros(2000), 44100.0), 150.0)
        np.testing.assert_array_equal(out.envelope.samples, np.zeros(2000))

    def test_sinusoid_settles_at_rectified_mean(self):
        # classical attenuation: mean of |A sin| is 2A/pi
        A = 0.9
        out = envelope_follower(sine(A), 150.0)
        mean = central(out.envelope.samples).mean()
        assert mean == pytest.approx(2.0 * A / np.pi, rel=0.03)


    @pytest.mark.parametrize(
        "rate, cutoff, order",
        [
            (8000.0, 20.0, 1),
            (8000.0, 150.0, 3),
            (8000.0, 300.0, 4),
            (44100.0, 20.0, 4),
            (44100.0, 150.0, 1),
            (44100.0, 300.0, 3),
        ],
    )
    def test_equals_peak_hold_with_bunch_size_one(self, rate, cutoff, order, rng):
        sig = Signal(rng.standard_normal(3000), rate)
        out = envelope_follower(sig, cutoff, order)
        peak_hold = three_step_envelope(sig, EnvelopeParams(1, cutoff, order))
        assert np.array_equal(out.envelope.samples, peak_hold.envelope.samples)
        assert out.envelope.sample_rate == rate
        assert out.method == "follower"
        assert out.params == {"cutoff_hz": cutoff, "filter_order": order}

    def test_filter_order_keyword(self):
        out = envelope_follower(sine(duration=0.1), cutoff_hz=120.0, filter_order=2)
        assert out.params == {"cutoff_hz": 120.0, "filter_order": 2}


class TestRms:
    def test_constant(self):
        out = envelope_rms(Signal(np.full(300, -0.6), 44100.0), 50)
        np.testing.assert_allclose(out.envelope.samples, 0.6, rtol=1e-12)

    def test_sinusoid_level(self):
        A = 0.8
        out = envelope_rms(sine(A), 500)  # window of ~22.7 carrier periods
        w = central(out.envelope.samples)
        assert np.max(np.abs(w - A / np.sqrt(2.0))) <= 0.02 * A / np.sqrt(2.0)

    def test_figure_style_window_runs(self):
        out = envelope_rms(sine(duration=0.2), 50)
        assert len(out.envelope) == len(sine(duration=0.2))
        assert out.params == {"window_samples": 50}

    @pytest.mark.parametrize("window", [1, 2, 5, 50])
    def test_matches_naive_oracle(self, window, rng):
        x = rng.standard_normal(333)
        out = envelope_rms(Signal(x, 10.0), window)
        np.testing.assert_allclose(out.envelope.samples, naive_rms(x, window), rtol=1e-12)

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="invalid window"):
            envelope_rms(sine(duration=0.01), 0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
class TestOverflow:
    """A stage that overflows raises instead of returning an inf or NaN envelope."""

    def test_rms_of_huge_constant(self):
        with pytest.raises(ValueError, match="non-finite sample"):
            envelope_rms(Signal(np.full(100, 1e200), 1.0))

    def test_three_step_of_near_max_sine(self):
        x = 1.7e308 * np.sin(2.0 * np.pi * 1000.0 * np.arange(4410) / 44100.0)
        with pytest.raises(ValueError, match="non-finite sample"):
            three_step_envelope(Signal(x, 44100.0))


class TestHilbert:
    def test_steady_sinusoid_flat(self):
        A = 0.75
        out = envelope_hilbert(sine(A)).envelope.samples
        n = len(out)
        inner = out[int(0.05 * n) : n - int(0.05 * n)]
        assert np.max(np.abs(inner - A)) <= 0.01 * A

    def test_constant_passes_through(self):
        out = envelope_hilbert(Signal(np.full(1000, -0.4), 44100.0))
        np.testing.assert_allclose(out.envelope.samples, 0.4, rtol=1e-9)

    def test_narrowband_tracks_broadband_fails(self):
        narrow, truth_n = generate(SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0))
        err_n = rel_rmse(
            central(envelope_hilbert(narrow).envelope.samples), central(truth_n.samples)
        )
        assert err_n < 0.02

        broad, truth_b = generate(
            SyntheticSpec("multi_carrier_am", (500.0, 1713.7, 3903.1), 5.0, 0.5, 2.0, 44100.0)
        )
        err_b = rel_rmse(
            central(envelope_hilbert(broad).envelope.samples), central(truth_b.samples)
        )
        assert err_b > 0.10

    @pytest.mark.parametrize("n", [256, 257])
    def test_matches_scipy_hilbert(self, n, rng):
        x = rng.standard_normal(n)
        ours = envelope_hilbert(Signal(x, 100.0)).envelope.samples
        theirs = np.abs(sps.hilbert(x))
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            envelope_hilbert(Signal([], 100.0))


def all_methods(sig):
    return {
        "three_step": three_step_envelope(sig, EnvelopeParams(35, 300.0)).envelope.samples,
        "follower": envelope_follower(sig, 150.0).envelope.samples,
        "rms": envelope_rms(sig, 50).envelope.samples,
        "hilbert": envelope_hilbert(sig).envelope.samples,
    }


class TestCrossMethodProperties:
    def test_positive_homogeneity(self, rng):
        x = rng.standard_normal(3000)
        base = all_methods(Signal(x, 44100.0))
        for a in (0.1, 1.0, 10.0):
            scaled = all_methods(Signal(a * x, 44100.0))
            for name in base:
                ref = a * base[name]
                scale = np.max(np.abs(ref))
                np.testing.assert_allclose(scaled[name], ref, atol=1e-9 * scale)

    def test_length_and_rate_preserved(self, rng):
        sig = Signal(rng.standard_normal(2000), 32000.0)
        for env in all_methods(sig).values():
            assert len(env) == 2000
        for result in (
            three_step_envelope(sig, EnvelopeParams(35, 300.0)),
            envelope_follower(sig),
            envelope_rms(sig),
            envelope_hilbert(sig),
        ):
            assert result.envelope.sample_rate == 32000.0

    def test_attenuation_ordering_on_steady_sinusoid(self):
        A = 0.7
        sig = sine(A, freq=2000.0, duration=2.0)
        ts = central(three_step_envelope(sig, EnvelopeParams(35, 120.0)).envelope.samples).mean()
        rm = central(envelope_rms(sig, 50).envelope.samples).mean()
        fo = central(envelope_follower(sig, 150.0).envelope.samples).mean()
        assert ts > rm > fo
        assert ts == pytest.approx(A, rel=0.05)
        assert rm == pytest.approx(A / np.sqrt(2.0), rel=0.05)
        assert fo == pytest.approx(2.0 * A / np.pi, rel=0.05)


class TestPresets:
    def test_table_values_exact(self):
        expected = {
            "canary": (35, 300.0),
            "whale": (50, 300.0),
            "speech": (50, 100.0),
            "piano": (200, 100.0),
        }
        assert set(PRESETS) == set(expected)
        for name, (bunch, cutoff) in expected.items():
            assert PRESETS[name].bunch_size == bunch
            assert PRESETS[name].cutoff_hz == cutoff
            assert PRESETS[name].filter_order == 4

    def test_canary_preset_on_short_clip(self):
        # any clip of at least 0.1 s must go through cleanly
        sig = sine(duration=0.1)
        out = three_step_envelope(sig, PRESETS["canary"])
        assert len(out.envelope) == len(sig)
