import numpy as np
import pytest

from ampenv import BunchSpec, EnvelopeParams, FilterSpec, Signal, bunch_max, envelope_rms, rectify


def naive_rectify(x):
    return np.array([abs(v) for v in x])


def naive_bunch_max(x, n):
    """Deliberately naive two-loop reference implementation."""
    out = np.empty(len(x))
    for start in range(0, len(x), n):
        stop = min(start + n, len(x))
        peak = x[start]
        for j in range(start, stop):
            if x[j] > peak:
                peak = x[j]
        for j in range(start, stop):
            out[j] = peak
    return out


class TestSignal:
    def test_holds_float64_copy(self):
        raw = np.array([1, 2, 3], dtype=np.int32)
        sig = Signal(raw, 10.0)
        assert sig.samples.dtype == np.float64
        raw[0] = 99
        assert sig.samples[0] == 1.0

    def test_samples_immutable(self):
        sig = Signal([1.0, 2.0], 10.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite sample"):
            Signal([0.0, np.nan], 10.0)
        with pytest.raises(ValueError, match="non-finite sample"):
            Signal([0.0, np.inf], 10.0)

    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sample rate"):
                Signal([1.0], rate)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Signal(np.zeros((2, 2)), 10.0)

    def test_len_duration_times(self):
        sig = Signal([0.0, 1.0, 2.0, 3.0], 8.0)
        assert len(sig) == 4
        assert sig.duration_s == 0.5
        np.testing.assert_allclose(sig.times(), [0.0, 0.125, 0.25, 0.375])


class TestRectify:
    def test_simple(self):
        out = rectify(Signal([0.5, -0.5, 0.0], 10.0))
        np.testing.assert_array_equal(out.samples, [0.5, 0.5, 0.0])

    def test_zeros_fixed_point(self):
        out = rectify(Signal(np.zeros(1000), 44100.0))
        assert len(out) == 1000
        assert out.sample_rate == 44100.0
        np.testing.assert_array_equal(out.samples, np.zeros(1000))

    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal(257)
        out = rectify(Signal(x, 100.0))
        np.testing.assert_array_equal(out.samples, naive_rectify(x))

    def test_positive_homogeneity_exact(self, rng):
        x = rng.standard_normal(100)
        for a in (0.1, 2.0, 10.0):
            np.testing.assert_array_equal(
                rectify(Signal(a * x, 10.0)).samples,
                a * rectify(Signal(x, 10.0)).samples,
            )


class TestBunchMax:
    def test_spec_example(self):
        x = [1.0, 2.0, 3.0, 0.5, 0.25, 0.1]
        out = bunch_max(Signal(x, 10.0), BunchSpec(3))
        np.testing.assert_array_equal(out.samples, [3.0, 3.0, 3.0, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(out.samples, naive_bunch_max(np.array(x), 3))

    def test_constant_signal(self):
        for n in (1, 3, 7):
            out = bunch_max(Signal(np.full(12, 4.25), 10.0), n)
            np.testing.assert_array_equal(out.samples, np.full(12, 4.25))

    def test_partial_final_bunch(self, rng):
        x = rng.standard_normal(7)
        out = bunch_max(Signal(x, 10.0), 3)
        np.testing.assert_array_equal(out.samples, naive_bunch_max(x, 3))
        assert out.samples[6] == x[6]  # single-sample trailing bunch is its own max

    @pytest.mark.parametrize("length, n", [(600, 200), (1000, 200), (150, 200), (44100, 35), (44117, 35), (9, 1)])
    def test_equals_the_repeat_form(self, length, n, rng):
        # With and without a trailing partial bunch, and shorter than one bunch.
        x = rng.standard_normal(length)
        full = length // n
        expected = np.empty(length)
        expected[: full * n] = np.repeat(x[: full * n].reshape(full, n).max(axis=1), n)
        if full * n < length:
            expected[full * n :] = x[full * n :].max()
        np.testing.assert_array_equal(bunch_max(Signal(x, 10.0), n).samples, expected)

    def test_oracle_equivalence_1000_random(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            length = int(rng.integers(1, 257))
            n = int(rng.integers(1, 33))
            x = rng.standard_normal(length)
            out = bunch_max(Signal(x, 10.0), n)
            np.testing.assert_array_equal(out.samples, naive_bunch_max(x, n))

    def test_preserves_rate_and_length(self, rng):
        sig = Signal(rng.standard_normal(100), 48000.0)
        out = bunch_max(sig, 7)
        assert len(out) == 100
        assert out.sample_rate == 48000.0

    def test_domination(self, rng):
        x = rng.standard_normal(211)
        stair = bunch_max(rectify(Signal(x, 10.0)), 8).samples
        assert np.all(stair >= np.abs(x))

    def test_idempotent_on_multiple_lengths(self, rng):
        x = rng.standard_normal(96)
        once = bunch_max(Signal(x, 10.0), 8)
        twice = bunch_max(once, 8)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_positive_homogeneity_exact(self, rng):
        x = rng.standard_normal(64)
        for a in (0.1, 2.0, 10.0):
            np.testing.assert_array_equal(
                bunch_max(Signal(a * x, 10.0), 8).samples,
                a * bunch_max(Signal(x, 10.0), 8).samples,
            )

    def test_shift_equivariance_by_whole_bunches(self, rng):
        n = 8
        x = rng.standard_normal(64)
        base = bunch_max(Signal(x, 10.0), n).samples
        for m in (1, 3):
            shifted = np.concatenate((np.zeros(m * n), x))
            out = bunch_max(Signal(shifted, 10.0), n).samples
            np.testing.assert_array_equal(out[m * n :], base)

    def test_bunch_size_one_is_the_signal_itself(self, rng):
        # A one-sample bunch is its own maximum, and a Signal never changes.
        sig = Signal(rng.standard_normal(101), 8000.0)
        assert bunch_max(sig, 1) is sig
        assert bunch_max(sig, BunchSpec(1)) is sig
        with pytest.raises(ValueError, match="empty input"):
            bunch_max(Signal([], 8000.0), 1)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            bunch_max(Signal([], 10.0), 3)

    def test_invalid_bunch_size(self):
        with pytest.raises(ValueError, match="invalid bunch size"):
            BunchSpec(0)
        with pytest.raises(ValueError, match="invalid bunch size"):
            bunch_max(Signal([1.0], 10.0), 0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: BunchSpec(v), "invalid bunch size"),
        (lambda v: FilterSpec(100.0, 44100.0, order=v), "order must be a positive integer"),
        (lambda v: EnvelopeParams(filter_order=v), "order must be a positive integer"),
        (lambda v: envelope_rms(Signal(np.ones(10), 10.0), window_samples=v), "invalid window"),
    ],
    ids=["BunchSpec", "FilterSpec", "EnvelopeParams", "envelope_rms"],
)
def test_positive_int_rule_rejects_non_finite(build, message, value):
    with pytest.raises(ValueError, match=message):
        build(value)
