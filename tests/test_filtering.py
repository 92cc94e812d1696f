import dataclasses
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_within_the_recurrence, has_extended_precision, recurrence, reference
from scipy import signal as sps

from ampenv import (
    BunchSpec,
    EnvelopeParams,
    FilterSpec,
    FilterState,
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
    kernels,
    read_wav,
    rectify,
    three_step_envelope,
    three_step_stages,
    to_mono,
    write_wav,
)
from ampenv import filtering
from ampenv.filtering import _step_state, default_pad_len


def make_design(cutoff=150.0, rate=44100.0, order=4):
    return butterworth_lowpass(FilterSpec(cutoff, rate, order))


def filter_in_parts(design, s, state, cuts):
    """filter_causal over s cut at the sorted sample indices ``cuts``, state carried."""
    bounds = [0, *cuts, len(s)]
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        out, state = filter_causal(design, Signal(s.samples[a:b], s.sample_rate), state)
        parts.append(out.samples)
    return np.concatenate(parts), state


def scanned_zero_phase(design, x):
    """Both zero-phase passes over x as one whole-array scan each."""
    pad = default_pad_len(design)
    sos = design.sections
    ext = np.concatenate((2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2 : -pad - 2 : -1]))
    fwd = kernels.sos_filter(sos, ext, _step_state(sos, ext[0]))[0]
    rev = fwd[::-1]
    bwd = kernels.sos_filter(sos, rev, _step_state(sos, rev[0]))[0]
    return bwd[::-1][pad:-pad]


def count_kernel_calls(monkeypatch):
    """The length of x in each ``kernels.sos_filter`` call from now on, in a list."""
    calls = []
    sos_filter = kernels.sos_filter
    monkeypatch.setattr(kernels, "sos_filter", lambda *a: calls.append(len(a[1])) or sos_filter(*a))
    return calls


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

    def test_split_vs_whole(self, rng):
        design = make_design()
        x = rng.standard_normal(10000)
        whole, _ = filter_causal(design, Signal(x, 44100.0))
        head, state = filter_causal(design, Signal(x[:3777], 44100.0))
        tail, _ = filter_causal(design, Signal(x[3777:], 44100.0), state)
        stitched = np.concatenate((head.samples, tail.samples))
        np.testing.assert_allclose(stitched, whole.samples, rtol=1e-12, atol=0.0)

    def test_split_equals_whole_bitwise(self, rng):
        # Cuts inside a block, on a block edge and on both sides of a group
        # edge, from a random state.
        design = make_design()
        block, span = kernels.BLOCK, 8192
        x = rng.standard_normal(2 * span + 3 * block + 17)
        start = FilterState(rng.standard_normal((2, 2)))
        whole, whole_state = filter_causal(design, Signal(x, 44100.0), start)
        cuts = [5, block // 2, block, span - 3, span + 9, 2 * span + 1]
        parts, state = filter_in_parts(design, Signal(x, 44100.0), start, cuts)
        np.testing.assert_array_equal(parts, whole.samples)
        np.testing.assert_array_equal(state.values, whole_state.values)

    def test_split_equals_whole_bitwise_across_span_edges(self, rng):
        # Longer than two of the kernel's spans, cut on both sides of each
        # span edge; the chunk from span + 9 with its open group is one
        # call of span + 1 samples, which crosses a span edge of its own.
        design = make_design(cutoff=20.0)
        span = kernels._SPAN
        x = rng.standard_normal(2 * span + 5000)
        start = FilterState(rng.standard_normal((2, 2)))
        whole, whole_state = filter_causal(design, Signal(x, 44100.0), start)
        cuts = [700, span - 3, span + 9, 2 * span + 1]
        parts, state = filter_in_parts(design, Signal(x, 44100.0), start, cuts)
        np.testing.assert_array_equal(parts, whole.samples)
        np.testing.assert_array_equal(state.values, whole_state.values)

    def test_one_kernel_call_per_chunk(self, rng, monkeypatch):
        # The open group and the chunk go to the kernel together, whole
        # groups and remainder alike.
        design = make_design()
        calls = []
        sos_filter = kernels.sos_filter
        monkeypatch.setattr(kernels, "sos_filter", lambda *a: calls.append(len(a[1])) or sos_filter(*a))
        state = None
        sizes = [300, 1000, 512, 4096 + 17, 8192 + 600, 1 << 15, (1 << 15) + 1]
        for n in sizes:
            _, state = filter_causal(design, Signal(rng.standard_normal(n), 44100.0), state)
        assert calls == sizes

    def test_a_state_keeps_its_grid_only_with_the_same_sections(self, rng):
        # Left mid-group at 700 samples by a 150 Hz design, a state goes on
        # through a 1 kHz design of as many sections exactly as its values
        # alone would, and through an equal design rebuilt from the same
        # spec bit for bit as the uncut run.
        design, rebuilt, other = make_design(), make_design(), make_design(cutoff=1000.0)
        assert rebuilt is not design
        x = rng.standard_normal(1000)
        head, state = filter_causal(design, Signal(x[:700], 44100.0))
        handed, handed_state = filter_causal(other, Signal(x[700:], 44100.0), state)
        fresh, fresh_state = filter_causal(other, Signal(x[700:], 44100.0), FilterState(state.values))
        np.testing.assert_array_equal(handed.samples, fresh.samples)
        np.testing.assert_array_equal(handed_state.values, fresh_state.values)
        whole, whole_state = filter_causal(design, Signal(x, 44100.0))
        tail, tail_state = filter_causal(rebuilt, Signal(x[700:], 44100.0), state)
        np.testing.assert_array_equal(np.concatenate((head.samples, tail.samples)), whole.samples)
        np.testing.assert_array_equal(tail_state.values, whole_state.values)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 8),
        cutoff_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 3 * 8192),
        cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_equals_whole_bitwise_for_any_design(self, order, cutoff_frac, n, cut_fracs, seed):
        rate = 8000.0
        cutoff = 5.0 * (0.4 * rate / 5.0) ** cutoff_frac  # 5 Hz to 0.4 fs, log-spaced
        design = make_design(cutoff=cutoff, rate=rate, order=order)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        start = FilterState(rng.standard_normal((design.n_sections, 2)))
        whole, whole_state = filter_causal(design, Signal(x, rate), start)
        cuts = sorted(int(f * n) for f in cut_fracs)
        parts, state = filter_in_parts(design, Signal(x, rate), start, cuts)
        np.testing.assert_array_equal(parts, whole.samples)
        np.testing.assert_array_equal(state.values, whole_state.values)

    @pytest.mark.skipif(
        not has_extended_precision,
        reason="np.longdouble is float64 here, so there is no extended-precision reference",
    )
    @pytest.mark.parametrize("cutoff, order", [(1.0, 4), (5.0, 4), (20.0, 8), (150.0, 16)])
    def test_within_the_recurrence_of_a_long_double_reference(self, cutoff, order, rng):
        design = make_design(cutoff=cutoff, order=order)
        x = np.abs(rng.standard_normal(12000))
        zi = _step_state(design.sections, x[0])
        precise, _ = reference(design.sections, x, zi)
        scale = np.max(np.abs(precise))
        out, _ = filter_causal(design, Signal(x, 44100.0), FilterState(zi))

        def deviation(y):
            return float(np.max(np.abs(y - precise)) / scale)

        blocked = deviation(out.samples)
        assert blocked <= deviation(recurrence(design.sections, x, zi)[0])
        # The chain keeps its states in the scan's basis, so it is as
        # accurate as the scan (measured 0.95-1.0x, the chain on 128-sample
        # blocks and the scan on 64).
        assert blocked <= 1.5 * deviation(kernels.sos_filter(design.sections, x, zi)[0])

    def test_continuing_from_the_public_values_alone(self, rng):
        # FilterState(values) drops the block grid, so only rounding differs.
        design = make_design(cutoff=20.0)
        x = rng.standard_normal(5000)
        whole, _ = filter_causal(design, Signal(x, 44100.0))
        head, state = filter_causal(design, Signal(x[:1234], 44100.0))
        tail, _ = filter_causal(design, Signal(x[1234:], 44100.0), FilterState(state.values))
        stitched = np.concatenate((head.samples, tail.samples))
        assert np.max(np.abs(stitched - whole.samples)) <= 1e-12 * np.max(np.abs(whole.samples))

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

    def test_state_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="state must have shape"):
            FilterState(np.zeros((2, 3)))

    def test_state_of_another_design_mismatch(self, rng):
        # A returned state also carries its open block; the check still holds.
        _, state = filter_causal(make_design(order=8), Signal(rng.standard_normal(200), 44100.0))
        with pytest.raises(ValueError, match="state dimension mismatch"):
            filter_causal(make_design(order=4), Signal(np.zeros(10), 44100.0), state)

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
    def test_short_input_runs_the_scan(self, rng):
        # 4,410 samples pad to 4,464, not a whole number of blocks, so both
        # passes take the scan, bit for bit. The peak-hold envelope runs at
        # the group rate, which rounds otherwise than two passes over the
        # staircase, so it is held to the long-double recurrence instead.
        design = make_design()
        x = rng.standard_normal(4410)
        sig = Signal(x, 44100.0)
        out = filtfilt_zero_phase(design, sig)
        np.testing.assert_array_equal(out.samples, scanned_zero_phase(design, x))
        envelope = three_step_envelope(sig, EnvelopeParams(35, 150.0)).envelope
        assert_within_the_recurrence(design.sections, x, 35, default_pad_len(design), envelope.samples)

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

    def test_one_past_the_pad_matches_scipy_sosfiltfilt(self, rng):
        design = make_design(cutoff=1000.0)
        pad = default_pad_len(design)
        x = rng.standard_normal(pad + 1)
        ours = filtfilt_zero_phase(design, Signal(x, 44100.0)).samples
        sos = np.column_stack(
            (design.sections[:, :3], np.ones(2), design.sections[:, 3:])
        )
        theirs = sps.sosfiltfilt(sos, x, padlen=pad)
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


class TestPieces:
    """Inputs longer than a piece: the passes run piece by piece in one padded buffer."""

    PIECE = 1000

    @staticmethod
    def cut(r, k, piece, pad):
        """(piece, n) for case ``r``: n = k * piece + r, or a piece edge at r in the padded buffer.

        The input lies at [pad, pad + n) of the buffer, and pieces start at
        every multiple of the piece. "end-d" puts the edge k * piece d
        samples before the input's end and "end+d" d samples after it
        ("end+pad" ends the buffer on it); "start+d" and "start-1" shrink the
        piece to put its first edge there (the edge at 0 is always pad
        samples before the start).
        """
        if r.startswith("start"):
            return pad + {"start": 0, "start-1": -1, "start+1": 1, "start+pad": pad, "start+pad+1": pad + 1}[r], k * piece + 1
        ends = {"end": 0, "end-1": 1, "end-pad": pad, "end+1": -1, "end+pad": -pad, "end+pad+1": -pad - 1}
        if r in ends:
            return piece, k * piece - pad + ends[r]
        return piece, k * piece + {"1": 1, "pad": pad, "pad+1": pad + 1, "piece-1": piece - 1}[r]

    @pytest.mark.parametrize("bunch", [None, 1, 7, 37, PIECE + 3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "r",
        [
            "1", "pad", "pad+1", "piece-1",
            "end", "end-1", "end-pad", "end+1", "end+pad", "end+pad+1",
            "start", "start-1", "start+1", "start+pad", "start+pad+1",
        ],
    )
    def test_matches_one_whole_array_pass(self, bunch, k, r, rng, monkeypatch, set_span):
        design = make_design(cutoff=1000.0)
        pad = default_pad_len(design)
        piece, n = self.cut(r, k, self.PIECE, pad)
        set_span(piece)
        sig = Signal(rng.standard_normal(n), 44100.0)
        calls = count_kernel_calls(monkeypatch)
        if bunch is None:
            staircase = sig.samples
            ours = filtfilt_zero_phase(design, sig).samples
        else:
            staircase = bunch_max(rectify(sig), bunch).samples
            ours = three_step_envelope(sig, EnvelopeParams(bunch, 1000.0)).envelope.samples
        if bunch in (7, 37):
            # The group rate: no full-rate pass, only the front pad forward
            # and the samples after the last whole group with the end pad,
            # forward and backward.
            span = kernels.HOLD // bunch * bunch
            assert len(calls) == 3 and max(calls) <= span + 2 * pad
        else:
            # A piece starts every ``piece`` samples of the padded buffer.
            assert len(calls) == 2 * -(-(n + 2 * pad) // piece) and max(calls) <= piece
            assert sum(calls) == 2 * (n + 2 * pad)
        whole = scanned_zero_phase(design, staircase)
        assert np.max(np.abs(ours - whole)) <= 1e-12 * np.max(np.abs(whole))
        sos = np.column_stack((design.sections[:, :3], np.ones(2), design.sections[:, 3:]))
        theirs = sps.sosfiltfilt(sos, staircase, padlen=pad)
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bunch", [1, 7, 37, PIECE + 3])
    @pytest.mark.parametrize("n", [PIECE + 27, 3 * PIECE + 1, 3 * PIECE + 500])  # pad 27
    def test_envelope_equals_the_stages_bit_for_bit(self, bunch, n, rng, set_span):
        # Pieces are cut where they are whatever the bunch, so the envelope
        # made in pieces is the zero-phase filter of the whole staircase.
        # Bunches of 7 and 37 run at the group rate, from the staircase's
        # peaks in the stages too; they are also held to the long-double
        # recurrence.
        set_span(self.PIECE)
        p = EnvelopeParams(bunch, 1000.0)
        sig = Signal(rng.standard_normal(n), 44100.0)
        envelope = three_step_envelope(sig, p).envelope.samples
        if bunch in (7, 37):
            design = make_design(cutoff=1000.0)
            assert_within_the_recurrence(design.sections, sig.samples, bunch, default_pad_len(design), envelope)
        np.testing.assert_array_equal(envelope, three_step_stages(sig, p)[2].samples)
        if bunch == 1:
            follower = envelope_follower(sig, 1000.0).envelope.samples
            np.testing.assert_array_equal(follower, envelope)

    def test_peak_memory_is_one_buffer_and_a_few_pieces(self):
        # The buffer of n + 2 * pad samples, Signal's one-byte-a-sample
        # finiteness check, and a piece's kernel rows and output. The
        # envelopes stage the staircase in the buffer; filtfilt_zero_phase
        # copies each piece of its input in just before filtering it.
        # Whole-length rectified, staircase and pass arrays would each add
        # 8 MB.
        n = 1 << 20
        sig = Signal(np.sin(np.arange(n) * 0.01), 44100.0)
        design = make_design()
        pad = default_pad_len(design)
        bound = 8 * (n + 2 * pad) + n + 4 * 8 * kernels._SPAN + (1 << 18)
        envelopes = [lambda bunch=bunch: three_step_envelope(sig, EnvelopeParams(bunch)) for bunch in (1, 50, 300)]
        for run in (*envelopes, lambda: filtfilt_zero_phase(design, sig)):
            run()  # operators built outside the trace
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_empty_and_short_inputs_keep_their_errors(self):
        with pytest.raises(ValueError, match="^empty input$"):
            three_step_envelope(Signal(np.zeros(0), 44100.0))
        with pytest.raises(ValueError, match="^empty input$"):
            envelope_follower(Signal(np.zeros(0), 44100.0))
        short = r"^signal shorter than filter transient pad \(27 samples <= pad 27\)$"
        with pytest.raises(ValueError, match=short):
            three_step_envelope(Signal(np.zeros(27), 44100.0), EnvelopeParams(35))
        with pytest.raises(ValueError, match=short):
            envelope_follower(Signal(np.zeros(27), 44100.0))
        three_step_envelope(Signal(np.zeros(28), 44100.0))  # one past the pad is accepted


PAD = default_pad_len(make_design())  # 27, at order 4


def held_cases():
    """(bunch, n) pairs: n mod L of 0, 1, pad and L - 1 over three whole groups, n < L, n < N and n = pad + 1."""
    for bunch in (2, 7, 35, 50, 128, 129, 200, 256):
        span = kernels.HOLD // bunch * bunch
        lengths = {"0": 3 * span, "1": 3 * span + 1, "pad": 3 * span + PAD, "L-1": 4 * span - 1}
        lengths.update({"short": span // 2 + 1, "pad+1": PAD + 1})
        if bunch - 1 > PAD:
            lengths["in-a-bunch"] = bunch - 1
        for name, n in lengths.items():
            yield pytest.param(bunch, n, id="%d-%s" % (bunch, name))


def mono_wav(path, s):
    """Write s as a 16-bit WAV at ``path``; returns the path."""
    write_wav(path, s)
    return path


def stereo_wav(path, x, rate=44100):
    """Write x and -x as the two channels of a 16-bit WAV at ``path``; returns the path."""
    frames = np.round(np.clip(np.column_stack((x, -x)), -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(frames.tobytes())
    return path


# Signals that are not a bunch_max staircase of 2-256-sample bunches, each
# from (signal, design, a directory), for filtfilt_zero_phase's pieces.
UNHELD = {
    "bunch-1": lambda s, d, tmp: bunch_max(rectify(s), 1),
    "bunch-257": lambda s, d, tmp: bunch_max(rectify(s), 257),
    "Signal-of-a-staircase": lambda s, d, tmp: Signal(bunch_max(rectify(s), 50).samples, s.sample_rate),
    "replace-of-a-staircase": lambda s, d, tmp: dataclasses.replace(bunch_max(rectify(s), 50)),
    "rectify-of-a-staircase": lambda s, d, tmp: rectify(bunch_max(rectify(s), 50)),
    "filter_causal-of-a-staircase": lambda s, d, tmp: filter_causal(d, bunch_max(rectify(s), 50))[0],
    "filtfilt_zero_phase-of-a-staircase": lambda s, d, tmp: filtfilt_zero_phase(d, bunch_max(rectify(s), 50)),
    "three_step_envelope": lambda s, d, tmp: three_step_envelope(s, EnvelopeParams(50, 300.0)).envelope,
    "envelope_follower": lambda s, d, tmp: envelope_follower(s, 300.0).envelope,
    "envelope_rms": lambda s, d, tmp: envelope_rms(s).envelope,
    "envelope_hilbert": lambda s, d, tmp: envelope_hilbert(s).envelope,
    "generate-signal": lambda s, d, tmp: generate(SyntheticSpec(duration_s=0.08))[0],
    "generate-truth": lambda s, d, tmp: generate(SyntheticSpec(duration_s=0.08))[1],
    "read_wav-mono": lambda s, d, tmp: read_wav(mono_wav(tmp / "m.wav", bunch_max(rectify(s), 50))).channels[0],
    "read_wav-stereo": lambda s, d, tmp: read_wav(stereo_wav(tmp / "s.wav", bunch_max(rectify(s), 50).samples)).channels[1],
    "to_mono-mixdown": lambda s, d, tmp: to_mono(read_wav(stereo_wav(tmp / "s.wav", s.samples)), "mean"),
}


class TestHeldStaircase:
    """A ``bunch_max`` staircase of 2-256-sample bunches is filtered from its peaks."""

    @pytest.mark.parametrize("bunch, n", held_cases())
    def test_equals_the_envelope_bit_for_bit(self, bunch, n, rng, monkeypatch):
        design = make_design(cutoff=300.0)
        sig = Signal(rng.standard_normal(n), 44100.0)
        staircase = bunch_max(rectify(sig), bunch)
        calls = count_kernel_calls(monkeypatch)
        ours = filtfilt_zero_phase(design, staircase).samples
        # No full-rate pass: the front pad forward, and the samples after
        # the last whole group with the end pad, forward and backward.
        span = kernels.HOLD // bunch * bunch
        assert len(calls) == 3 and max(calls) <= span + 2 * PAD
        envelope = three_step_envelope(sig, EnvelopeParams(bunch, 300.0)).envelope.samples
        np.testing.assert_array_equal(ours, envelope)

    @pytest.mark.parametrize("source", list(UNHELD))
    def test_every_other_signal_takes_the_pieces(self, source, rng, tmp_path, monkeypatch, set_span):
        design = make_design(cutoff=300.0)
        s = UNHELD[source](Signal(rng.standard_normal(3500), 44100.0), design, tmp_path)
        n, piece = len(s), set_span(1000)
        calls = count_kernel_calls(monkeypatch)
        ours = filtfilt_zero_phase(design, s).samples
        assert len(calls) == 2 * -(-(n + 2 * PAD) // piece) > 2 and max(calls) <= piece
        assert sum(calls) == 2 * (n + 2 * PAD)
        pieces = filtering._zero_phase(design.sections, s.samples, np.empty(n + 2 * PAD), PAD)
        np.testing.assert_array_equal(ours, pieces)

    def test_the_hold_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            Signal(np.ones(100), 44100.0, _hold=2)


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

    def test_four_chunks_match_offline(self, rng):
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

    def test_chunks_at_another_rate_than_the_design_rejected(self):
        # Every chunk at 48 kHz through a 44.1 kHz design: one rate throughout,
        # but the wrong one for the filter.
        chunks = [Signal(np.zeros(35), 48000.0)] * 2
        with pytest.raises(ValueError, match="signal at 48000 Hz, filter designed for 44100 Hz"):
            list(chunked_envelope_stream(make_design(), 35, chunks))

    def test_inconsistent_rate_rejected(self):
        design = make_design()
        chunks = [Signal(np.zeros(35), 44100.0), Signal(np.zeros(35), 48000.0)]
        with pytest.raises(ValueError, match="inconsistent sample rate"):
            list(chunked_envelope_stream(design, 35, chunks))


@pytest.mark.parametrize("run", [filter_causal, filtfilt_zero_phase])
def test_signal_at_another_rate_than_the_design_rejected(run):
    # A 150 Hz design for 44.1 kHz would put the cutoff near 163 Hz at 48 kHz.
    with pytest.raises(ValueError, match=r"^inconsistent sample rate: signal at 48000 Hz, filter designed for 44100 Hz$"):
        run(make_design(), Signal(np.zeros(1000), 48000.0))
