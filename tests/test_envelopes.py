import warnings

import numpy as np
import pytest
from oracles import assert_within_the_recurrence, has_extended_precision
from scipy import signal as sps

from ampenv import (
    PRESETS,
    EnvelopeParams,
    FilterSpec,
    Signal,
    SyntheticSpec,
    bunch_max,
    butterworth_lowpass,
    envelope_follower,
    envelope_hilbert,
    envelope_rms,
    filtering,
    generate,
    kernels,
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


def pcm16_tone(n, rate=44100.0):
    """A 440 Hz tone at 3 Hz AM plus noise, as pcm16 values: what the oracle tests filter."""
    t = np.arange(n) / rate
    noise = np.random.default_rng(71).standard_normal(n)
    x = (0.5 + 0.4 * np.sin(2.0 * np.pi * 3.0 * t)) * np.sin(2.0 * np.pi * 440.0 * t) + 0.05 * noise
    return np.clip(np.round(x * 32768.0), -32768, 32767) / 32768.0


def edge_cases():
    """(cutoff, order, bunch, n) around the group rate's edges, n at most 3,000 so the oracle stays fast.

    Bunches span the group rate (2-256) and one past it, which takes the
    full-rate passes; n leaves 0, 1, pad and L - 1 samples after the
    whole groups of L samples, or is short of one group, short of one
    bunch, or one past the pad.
    """
    for cutoff, order in ((150.0, 4), (1000.0, 8)):
        pad = 3 * (2 * order + 1)
        for bunch in (2, 7, 35, 50, 128, 129, 200, 256, 257):
            span = max(kernels.HOLD // bunch, 1) * bunch
            whole = (3000 - span) // span * span
            lengths = {
                "0": whole, "1": whole + 1, "pad": whole + pad, "L-1": whole + span - 1,
                "n<L": (span + pad) // 2 + 1, "n<N": bunch - 1, "pad+1": pad + 1,
            }
            for name, n in lengths.items():
                if n > pad:
                    yield pytest.param(cutoff, order, bunch, n, id="%gHz-order%d-bunch%d-%s" % (cutoff, order, bunch, name))


class TestThreeStep:
    def test_constant_preserved(self):
        sig = Signal(np.full(4000, 0.8), 44100.0)
        out = three_step_envelope(sig, EnvelopeParams(35, 300.0))
        np.testing.assert_allclose(out.envelope.samples, 0.8, atol=1e-6)
        assert out.method == "three_step"
        assert out.params == {"bunch_size": 35, "cutoff_hz": 300.0, "filter_order": 4}

    def test_params_hold_the_validated_values(self):
        # EnvelopeParams keeps what its rules return, as FilterSpec and BunchSpec do.
        out = three_step_envelope(sine(duration=0.1), EnvelopeParams(50.0, "150", 4.0))
        assert out.params == {"bunch_size": 50, "cutoff_hz": 150.0, "filter_order": 4}
        assert [type(v) for v in out.params.values()] == [int, float, int]

    def test_am_tone_tracking_under_5_percent(self):
        sig, truth = generate(SyntheticSpec("am_tone", 2000.0, 5.0, 0.5, 2.0, 44100.0))
        out = three_step_envelope(sig, EnvelopeParams(35, 120.0))
        err = rel_rmse(central(out.envelope.samples), central(truth.samples))
        assert err < 0.05

    def test_stages_are_consistent(self, rng):
        sig = Signal(rng.standard_normal(2000), 44100.0)
        p = EnvelopeParams(35, 300.0)
        rectified, staircase, stages_envelope = three_step_stages(sig, p)
        np.testing.assert_array_equal(rectified.samples, np.abs(sig.samples))
        np.testing.assert_array_equal(
            staircase.samples, bunch_max(rectify(sig), 35).samples
        )
        # Both run at the group rate, from the same bunch peaks.
        design = butterworth_lowpass(FilterSpec(300.0, 44100.0))
        envelope = three_step_envelope(sig, p).envelope.samples
        assert_within_the_recurrence(design.sections, sig.samples, 35, filtering.default_pad_len(design), envelope)
        np.testing.assert_array_equal(stages_envelope.samples, envelope)

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

    def test_tone_burst_rings_below_zero(self):
        # Butterworth ringing: 5 ms of a 150 Hz tone (amplitude 1) in 0.5 s
        # of silence, default parameters. Measured: the envelope dips to
        # -0.0631 145 samples before the burst, and to -0.0616 after it.
        rate = 44100.0
        x = np.zeros(int(0.5 * rate))
        start, length = int(0.1 * rate), int(0.005 * rate)
        x[start : start + length] = np.sin(2.0 * np.pi * 150.0 * np.arange(length) / rate)
        env = three_step_envelope(Signal(x, rate)).envelope.samples
        assert -0.066 < env.min() < -0.060
        assert env[:start].min() < -0.06 and env[start + length :].min() < -0.06

    @pytest.mark.skipif(
        not has_extended_precision,
        reason="np.longdouble is float64 here, so there is no extended-precision reference",
    )
    @pytest.mark.parametrize(
        "params",
        [
            *PRESETS.values(),
            EnvelopeParams(200, 20.0),  # with whale's (50, 300 Hz), file_long's settings
            EnvelopeParams(1, 150.0),
            EnvelopeParams(300, 100.0),
            EnvelopeParams(1003, 20.0),
        ],
        ids=[*PRESETS, "bunch200-20Hz", "bunch1-150Hz", "bunch300-100Hz", "bunch1003-20Hz"],
    )
    def test_deviation_within_the_recurrence(self, params, set_span):
        # The presets and bunch 200 run at the group rate, which has no
        # pieces. The follower's bunch of 1 and bunches above kernels.HOLD
        # filter the staircase in pieces, and pieces of 4,096 samples make
        # them carry the state across seven piece edges each way.
        set_span(4096)
        rate = 44100.0
        x = pcm16_tone(30000, rate)
        design = butterworth_lowpass(FilterSpec(params.cutoff_hz, rate, params.filter_order))
        envelope = three_step_envelope(Signal(x, rate), params).envelope.samples
        assert_within_the_recurrence(design.sections, x, params.bunch_size, filtering.default_pad_len(design), envelope)

    def test_a_wrong_rest_state_fails_the_recurrence_gate(self, monkeypatch, fresh_operators):
        # The oracle solves its rest state on its own, so a rest state off
        # by 1e-9 in the package shifts the envelope (by ~1e-9 of the peak)
        # and not the oracle. Off by 1e-13 it shifts it by ~1e-13 of the
        # peak: below the float64 recurrence's deviation, but above the
        # kernel's bar.
        state_space = kernels._state_space

        def wrong(sos):
            *system, rest = state_space(sos)
            return (*system, rest * (1 + error))

        monkeypatch.setattr(kernels, "_state_space", wrong)
        x = pcm16_tone(3000)
        design = butterworth_lowpass(FilterSpec(150.0, 44100.0))
        for error in (1e-9, 1e-13):
            fresh_operators()  # the rest state is built once per design
            for bunch in (1, 50, 300):
                envelope = three_step_envelope(Signal(x, 44100.0), EnvelopeParams(bunch, 150.0)).envelope.samples
                with pytest.raises(AssertionError):
                    assert_within_the_recurrence(design.sections, x, bunch, filtering.default_pad_len(design), envelope)

    @pytest.mark.parametrize("cutoff, order, bunch, n", edge_cases())
    def test_edges_within_the_recurrence(self, cutoff, order, bunch, n):
        design = butterworth_lowpass(FilterSpec(cutoff, 44100.0, order))
        x = pcm16_tone(n)
        envelope = three_step_envelope(Signal(x, 44100.0), EnvelopeParams(bunch, cutoff, order)).envelope
        assert len(envelope) == n
        assert_within_the_recurrence(design.sections, x, bunch, filtering.default_pad_len(design), envelope.samples)

    def test_a_second_call_builds_no_operators(self, rng, fresh_operators):
        # Operators are kept per (design, bunch); a call of another length
        # runs its own tail through the kernel, with no operator of its own.
        p = EnvelopeParams(37, 700.0)
        three_step_envelope(Signal(rng.standard_normal(3000), 44100.0), p)
        assert kernels._held_operators.cache_info().misses == 1
        three_step_envelope(Signal(rng.standard_normal(1234), 44100.0), p)
        info = kernels._held_operators.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("bunch", [1, 2, 50, 256, 257])
    def test_errors_come_in_the_stages_order(self, bunch):
        # The design's error, then empty input, then the pad (27 samples).
        cases = [
            (0, 30000.0, "cutoff above Nyquist"),
            (27, 30000.0, "cutoff above Nyquist"),
            (0, 150.0, "^empty input$"),
            (27, 150.0, r"^signal shorter than filter transient pad \(27 samples <= pad 27\)$"),
        ]
        for n, cutoff, message in cases:
            sig, p = Signal(np.zeros(n), 44100.0), EnvelopeParams(bunch, cutoff)
            with pytest.raises(ValueError, match=message) as stages:
                three_step_stages(sig, p)
            with pytest.raises(ValueError) as envelope:
                three_step_envelope(sig, p)
            assert str(envelope.value) == str(stages.value)

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

    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("window", [1, 2, 3, 7, 64, 200, "n", "n + 5"])
    def test_doubling_sums_match_naive_oracle(self, n, window, rng):
        # Window widths of every binary shape, and windows wider than the signal.
        w = {"n": n, "n + 5": n + 5}.get(window, window)
        x = rng.standard_normal(n)
        out = envelope_rms(Signal(x, 10.0), w)
        np.testing.assert_allclose(out.envelope.samples, naive_rms(x, w), rtol=1e-12)

    # The window sums double over the window's binary digits, so which steps
    # run on empty input depends on them.
    @pytest.mark.parametrize("window", [1, 2, 3, 7, 50, 64])
    def test_empty_input_gives_an_empty_envelope(self, window):
        out = envelope_rms(Signal([], 8000.0), window)
        assert (len(out.envelope), out.envelope.sample_rate, out.params) == (0, 8000.0, {"window_samples": window})

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

    @pytest.mark.parametrize(
        "estimate, level",
        [
            (three_step_envelope, "sine"),
            (lambda s: three_step_envelope(s, EnvelopeParams(300)), "sine"),
            (lambda s: three_step_stages(s)[2], "sine"),
            (envelope_follower, "constant"),
            (envelope_rms, "sine"),
            (envelope_hilbert, "sine"),
        ],
        ids=["three_step", "three_step-bunch300", "three_step_stages", "follower", "rms", "hilbert"],
    )
    def test_overflow_ends_in_the_value_error_alone(self, estimate, level):
        # Under -W error a RuntimeWarning from the overflow itself would
        # reach the caller instead of the documented ValueError.
        t = np.arange(4410) / 44100.0
        x = np.full(len(t), 1.7e308) if level == "constant" else 1.7e308 * np.sin(2.0 * np.pi * 1000.0 * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite sample"):
                estimate(Signal(x, 44100.0))


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

    @pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 66150])
    def test_matches_scipy_hilbert(self, n, rng):
        x = rng.standard_normal(n)
        for scale in (1.0, 1e-200, 1e200):  # squares of the scaled samples would under- and overflow
            ours = envelope_hilbert(Signal(scale * x, 100.0)).envelope.samples
            theirs = np.abs(sps.hilbert(scale * x))
            np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12 * scale)

    @pytest.mark.parametrize("j", [-600, -20, 20, 600])
    @pytest.mark.parametrize("n", [1, 2, 257, 66150])
    def test_power_of_two_scales_the_envelope_bit_for_bit(self, n, j, rng):
        x = rng.standard_normal(n)
        ours = envelope_hilbert(Signal(np.ldexp(x, j), 100.0)).envelope.samples
        np.testing.assert_array_equal(ours, np.ldexp(envelope_hilbert(Signal(x, 100.0)).envelope.samples, j))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 66150])
    def test_within_one_ulp_of_hypot(self, n, scale, rng):
        x = scale * rng.standard_normal(n)
        spectrum = np.fft.rfft(x) * -1j
        spectrum[0] = 0.0
        if n % 2 == 0:
            spectrum[-1] = 0.0
        exact = np.hypot(x, np.fft.irfft(spectrum, n))
        ours = envelope_hilbert(Signal(x, 100.0)).envelope.samples
        assert np.all(np.abs(ours - exact) <= np.spacing(exact))

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
