import numpy as np
import pytest
from scipy import signal as sps

from ampenv import (
    BunchSpec,
    FilterSpec,
    FilterState,
    Signal,
    bunch_max,
    butterworth_lowpass,
    chunked_envelope_stream,
    filter_causal,
    filtfilt_zero_phase,
    frequency_response,
    rectify,
)
from ampenv.filtering import default_pad_len


def make_design(cutoff=150.0, rate=44100.0, order=4):
    return butterworth_lowpass(FilterSpec(cutoff, rate, order))


def zero_lag_of_peak_xcorr(a, b):
    """Lag (samples) maximizing cross-correlation of the central 80%."""
    n = len(a)
    lo, hi = n // 10, n - n // 10
    aw, bw = a[lo:hi], b[lo:hi]
    corr = np.correlate(bw, aw, mode="full")
    return int(np.argmax(corr)) - (len(aw) - 1)


class TestFilterCausal:
    def test_zero_in_zero_out(self):
        design = make_design()
        out, state = filter_causal(design, Signal(np.zeros(500), 44100.0))
        np.testing.assert_array_equal(out.samples, np.zeros(500))
        np.testing.assert_array_equal(state.values, np.zeros((2, 2)))

    def test_dc_convergence(self):
        # 10 / f_c seconds is plenty for the step response to settle
        design = make_design(cutoff=150.0)
        n = int(10.0 / 150.0 * 44100.0) + 1000
        out, _ = filter_causal(design, Signal(np.full(n, 0.7), 44100.0))
        assert abs(out.samples[-1] - 0.7) < 1e-6

    def test_split_vs_whole(self, kernel_path, rng):
        design = make_design()
        x = rng.standard_normal(10000)
        whole, _ = filter_causal(design, Signal(x, 44100.0))
        head, state = filter_causal(design, Signal(x[:3777], 44100.0))
        tail, _ = filter_causal(design, Signal(x[3777:], 44100.0), state)
        stitched = np.concatenate((head.samples, tail.samples))
        np.testing.assert_allclose(stitched, whole.samples, rtol=1e-12, atol=0.0)

    def test_linearity(self, rng):
        design = make_design()
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        a, b = 1.7, -0.4
        combined, _ = filter_causal(design, Signal(a * x + b * y, 44100.0))
        fx, _ = filter_causal(design, Signal(x, 44100.0))
        fy, _ = filter_causal(design, Signal(y, 44100.0))
        expected = a * fx.samples + b * fy.samples
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(combined.samples, expected, atol=1e-10 * scale)

    def test_state_dimension_mismatch(self):
        design = make_design(order=4)  # 2 sections
        bad = FilterState(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="state dimension mismatch"):
            filter_causal(design, Signal(np.zeros(10), 44100.0), bad)

    def test_matches_scipy_sosfilt(self, rng):
        design = make_design()
        x = rng.standard_normal(4000)
        ours, _ = filter_causal(design, Signal(x, 44100.0))
        sos = np.column_stack(
            (design.sections[:, :3], np.ones(2), design.sections[:, 3:])
        )
        theirs = sps.sosfilt(sos, x)
        np.testing.assert_allclose(ours.samples, theirs, rtol=1e-9, atol=1e-12)


class TestFiltfiltZeroPhase:
    def test_constant_preserved(self):
        design = make_design()
        out = filtfilt_zero_phase(design, Signal(np.full(2000, 0.8), 44100.0))
        np.testing.assert_allclose(out.samples, 0.8, atol=1e-9)

    def test_cutoff_sinusoid_halved_no_lag(self):
        design = make_design(cutoff=120.0)
        t = np.arange(44100) / 44100.0
        x = np.sin(2.0 * np.pi * 120.0 * t)
        out = filtfilt_zero_phase(design, Signal(x, 44100.0))
        w = slice(4410, 44100 - 4410)
        amp = abs(2.0 * np.mean(out.samples[w] * np.exp(-2j * np.pi * 120.0 * t[w])))
        assert amp == pytest.approx(0.5, rel=0.01)  # two -3 dB passes
        assert zero_lag_of_peak_xcorr(x, out.samples) == 0

    @pytest.mark.parametrize("factor", [0.1, 0.5, 1.0])
    def test_zero_phase_lag_across_passband(self, factor):
        design = make_design(cutoff=400.0)
        t = np.arange(30000) / 44100.0
        x = np.sin(2.0 * np.pi * (factor * 400.0) * t)
        out = filtfilt_zero_phase(design, Signal(x, 44100.0))
        assert zero_lag_of_peak_xcorr(x, out.samples) == 0

    def test_two_pass_magnitude_matches_squared_response(self):
        design = make_design(cutoff=400.0)
        freq = 120.0  # mid-passband
        t = np.arange(44100) / 44100.0
        x = np.sin(2.0 * np.pi * freq * t)
        out = filtfilt_zero_phase(design, Signal(x, 44100.0))
        w = slice(4410, 44100 - 4410)
        amp = abs(2.0 * np.mean(out.samples[w] * np.exp(-2j * np.pi * freq * t[w])))
        expected = abs(frequency_response(design, [freq])[0]) ** 2
        assert amp == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2, 0.3])
    def test_reversal_symmetry_central(self, ratio, rng):
        # Edge transients are excluded: outside them the forward-backward
        # cascade is reversal-symmetric to rounding error.
        design = make_design(cutoff=ratio * 44100.0)
        x = rng.standard_normal(4000)
        fwd = filtfilt_zero_phase(design, Signal(x, 44100.0)).samples
        rev = filtfilt_zero_phase(design, Signal(x[::-1], 44100.0)).samples[::-1]
        lo, hi = 400, 3600
        scale = np.max(np.abs(fwd[lo:hi]))
        assert np.max(np.abs(fwd[lo:hi] - rev[lo:hi])) <= 1e-9 * scale

    def test_matches_scipy_sosfiltfilt(self, rng):
        design = make_design(cutoff=1000.0)
        x = rng.standard_normal(5000)
        ours = filtfilt_zero_phase(design, Signal(x, 44100.0)).samples
        sos = np.column_stack(
            (design.sections[:, :3], np.ones(2), design.sections[:, 3:])
        )
        theirs = sps.sosfiltfilt(sos, x, padlen=default_pad_len(design))
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    def test_default_pad_len(self):
        assert default_pad_len(make_design(order=4)) == 27
        assert default_pad_len(make_design(order=1)) == 9

    def test_too_short_signal(self):
        design = make_design(order=4)
        with pytest.raises(ValueError, match="signal shorter than filter transient pad"):
            filtfilt_zero_phase(design, Signal(np.zeros(27), 44100.0))
        # one past the pad is accepted
        filtfilt_zero_phase(design, Signal(np.zeros(28), 44100.0))

    def test_pad_override(self):
        design = make_design()
        sig = Signal(np.full(500, 0.3), 44100.0)
        out = filtfilt_zero_phase(design, sig, pad_len=120)
        np.testing.assert_allclose(out.samples, 0.3, atol=1e-9)
        with pytest.raises(ValueError, match="invalid pad length"):
            filtfilt_zero_phase(design, sig, pad_len=-1)


class TestChunkedEnvelopeStream:
    def offline(self, design, x, bunch):
        out, _ = filter_causal(design, bunch_max(rectify(x), bunch))
        return out.samples

    def test_single_chunk_matches_offline(self, rng):
        design = make_design()
        x = Signal(rng.standard_normal(3500), 44100.0)
        chunks = list(chunked_envelope_stream(design, 35, [x]))
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0].samples, self.offline(design, x, 35))

    def test_four_chunks_match_offline(self, kernel_path, rng):
        design = make_design()
        x = rng.standard_normal(2800)
        parts = [Signal(x[i : i + 700], 44100.0) for i in range(0, 2800, 700)]
        streamed = np.concatenate(
            [c.samples for c in chunked_envelope_stream(design, BunchSpec(35), parts)]
        )
        whole = self.offline(design, Signal(x, 44100.0), 35)
        np.testing.assert_allclose(streamed, whole, rtol=1e-12, atol=0.0)

    def test_random_chunkings(self, rng):
        design = make_design()
        n_bunches, bunch = 60, 16
        x = rng.standard_normal(n_bunches * bunch)
        whole = self.offline(design, Signal(x, 44100.0), bunch)
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, n_bunches), size=4, replace=False))
            bounds = [0, *(int(c) * bunch for c in cuts), n_bunches * bunch]
            parts = [
                Signal(x[a:b], 44100.0) for a, b in zip(bounds[:-1], bounds[1:])
            ]
            streamed = np.concatenate(
                [c.samples for c in chunked_envelope_stream(design, bunch, parts)]
            )
            np.testing.assert_allclose(streamed, whole, rtol=1e-12, atol=0.0)

    def test_empty_stream(self):
        design = make_design()
        assert list(chunked_envelope_stream(design, 35, [])) == []

    def test_misaligned_chunk_rejected(self):
        design = make_design()
        chunks = [Signal(np.zeros(36), 44100.0)]
        with pytest.raises(ValueError, match="chunk not bunch-aligned"):
            list(chunked_envelope_stream(design, 35, chunks))

    def test_inconsistent_rate_rejected(self):
        design = make_design()
        chunks = [Signal(np.zeros(35), 44100.0), Signal(np.zeros(35), 48000.0)]
        with pytest.raises(ValueError, match="inconsistent sample rate"):
            list(chunked_envelope_stream(design, 35, chunks))

