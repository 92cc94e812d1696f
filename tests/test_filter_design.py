import numpy as np
import pytest
from scipy import signal as sps

from ampenv import (
    FilterDesign,
    FilterSpec,
    Signal,
    butterworth_lowpass,
    filter_causal,
    filtfilt_zero_phase,
    frequency_response,
)


def analog_butterworth_magnitude(f, cutoff, order):
    """Textbook analog magnitude law; approximate for the digital design."""
    return 1.0 / np.sqrt(1.0 + (f / cutoff) ** (2 * order))


def random_specs(count, seed=99):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        order = int(rng.integers(1, 9))
        rate = float(rng.uniform(8000.0, 192000.0))
        ratio = float(np.exp(rng.uniform(np.log(0.001), np.log(0.45))))
        specs.append(FilterSpec(ratio * rate, rate, order))
    return specs


class TestButterworthDesign:
    def test_first_order_quarter_rate_closed_form(self):
        # Hand derivation: prewarped cutoff at fs/4 is 2*fs, the analog pole
        # sits at -2*fs, and the bilinear map sends it to z = 0, leaving
        # H(z) = (1 + z^-1) / 2.
        design = butterworth_lowpass(FilterSpec(11025.0, 44100.0, 1))
        assert design.n_sections == 1
        np.testing.assert_allclose(
            design.sections[0], [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_table_preset_cutoffs_at_minus_3db(self):
        for cutoff in (100.0, 300.0):
            design = butterworth_lowpass(FilterSpec(cutoff, 44100.0, 4))
            mag = abs(frequency_response(design, [cutoff])[0])
            assert mag == pytest.approx(2.0**-0.5, abs=1e-3)
            assert 20.0 * np.log10(mag) == pytest.approx(-3.0103, abs=0.01)

    def test_dc_gain_is_one(self):
        for spec in random_specs(50):
            h0 = frequency_response(butterworth_lowpass(spec), [0.0])[0]
            assert abs(h0 - 1.0) <= 1e-9

    def test_magnitude_monotone_on_512_grid(self):
        for cutoff, order in ((100.0, 4), (300.0, 4), (5000.0, 2), (15000.0, 8)):
            design = butterworth_lowpass(FilterSpec(cutoff, 44100.0, order))
            grid = np.linspace(0.0, 22050.0, 512)
            mag = np.abs(frequency_response(design, grid))
            assert np.all(np.diff(mag) <= 1e-9)

    def test_stability_1000_random_specs(self):
        for spec in random_specs(1000):
            design = butterworth_lowpass(spec)
            for _, _, _, a1, a2 in design.sections:
                radius = np.max(np.abs(np.roots([1.0, a1, a2])))
                assert radius < 1.0 - 1e-12

    def test_minus_3db_squared_within_tolerance(self):
        for spec in random_specs(200, seed=7):
            design = butterworth_lowpass(spec)
            mag2 = abs(frequency_response(design, [spec.cutoff_hz])[0]) ** 2
            assert mag2 == pytest.approx(0.5, abs=2e-3)

    def test_double_cutoff_matches_analog_law(self):
        design = butterworth_lowpass(FilterSpec(300.0, 44100.0, 4))
        mag = abs(frequency_response(design, [600.0])[0])
        assert mag == pytest.approx(analog_butterworth_magnitude(2.0, 1.0, 4), abs=5e-3)
        assert mag == pytest.approx(0.0624, abs=5e-3)

    def test_cascade_equivalence_with_expanded_transfer_function(self):
        grid = np.linspace(0.0, 22050.0, 257)
        zinv = np.exp(-2j * np.pi * grid / 44100.0)
        for order in (1, 2, 3, 4):
            design = butterworth_lowpass(FilterSpec(1000.0, 44100.0, order))
            b, a = design.transfer_function()
            expanded = np.polyval(b[::-1], zinv) / np.polyval(a[::-1], zinv)
            sectionwise = frequency_response(design, grid)
            assert np.max(np.abs(expanded - sectionwise)) < 1e-6

    def test_matches_scipy_reference_design(self):
        grid = np.linspace(0.0, 22050.0, 301)
        for order in (1, 2, 4, 7):
            for cutoff in (120.0, 300.0, 4000.0):
                design = butterworth_lowpass(FilterSpec(cutoff, 44100.0, order))
                ours = frequency_response(design, grid)
                sos = sps.butter(order, cutoff, fs=44100.0, output="sos")
                _, theirs = sps.sosfreqz(sos, worN=grid, fs=44100.0)
                assert np.max(np.abs(ours - theirs)) < 1e-9

    @pytest.mark.parametrize("order", range(8, 17))
    def test_high_orders_near_nyquist_match_scipy(self, order):
        # Cutoffs of 0.45-0.499 fs crowd the poles towards z = -1, where the
        # zeros sit. Measured at 44.1 kHz over these orders and cutoffs: poles
        # within 8e-14 of scipy's, responses within 3.1e-11 (1.3e-12 up to
        # 0.495 fs), the cutoff's magnitude within 3e-12 of 1/sqrt(2).
        rate = 44100.0
        grid = np.linspace(0.0, rate / 2.0, 1001)
        for ratio in (0.45, 0.47, 0.49, 0.495, 0.499):
            cutoff = ratio * rate
            design = butterworth_lowpass(FilterSpec(cutoff, rate, order))
            sos = sps.butter(order, cutoff, fs=rate, output="sos")
            _, theirs = sps.sosfreqz(sos, worN=grid, fs=rate)
            assert np.max(np.abs(frequency_response(design, grid) - theirs)) < 1e-10
            ours = np.concatenate([np.roots([1.0, a1, a2]) if a2 else [-a1] for _, _, _, a1, a2 in design.sections])
            scipy_poles = sps.sos2zpk(sos)[1]
            scipy_poles = scipy_poles[scipy_poles != 0]  # odd orders pad a section with a pole at 0
            assert np.max(np.abs(np.sort_complex(ours) - np.sort_complex(scipy_poles))) < 5e-13
            assert abs(abs(frequency_response(design, [cutoff])[0]) - np.sqrt(0.5)) < 1e-11

    def test_gain_is_in_first_section_only(self):
        design = butterworth_lowpass(FilterSpec(300.0, 44100.0, 4))
        np.testing.assert_allclose(design.sections[1:, :3], [[1.0, 2.0, 1.0]])

    def test_an_equal_spec_returns_the_same_design(self):
        design = butterworth_lowpass(FilterSpec(300.0, 44100.0, 4))
        assert butterworth_lowpass(FilterSpec(300, 44100, 4)) is design
        assert butterworth_lowpass(FilterSpec(300.0, 48000.0, 4)) is not design
        assert not design.sections.flags.writeable


class TestValidation:
    def test_cutoff_above_nyquist(self):
        with pytest.raises(ValueError, match="cutoff above Nyquist"):
            FilterSpec(30000.0, 44100.0, 4)
        with pytest.raises(ValueError, match="cutoff above Nyquist"):
            FilterSpec(22050.0, 44100.0, 4)

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="invalid filter spec"):
            FilterSpec(-10.0, 44100.0, 4)
        with pytest.raises(ValueError, match="invalid filter spec"):
            FilterSpec(100.0, 44100.0, 0)
        with pytest.raises(ValueError, match="invalid filter spec"):
            FilterSpec(100.0, -1.0, 4)

    def test_sections_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="sections must have shape"):
            FilterDesign(np.zeros((2, 4)), 4, 300.0, 44100.0)

    def test_pole_on_the_unit_circle_rejected(self):
        # At 1e-9 Hz the poles round to within _STABILITY_MARGIN of radius 1,
        # on every call: an error is never cached.
        for _ in range(2):
            with pytest.raises(ValueError, match="unstable filter design: pole radius"):
                butterworth_lowpass(FilterSpec(1e-9, 44100.0, 4))

    def test_frequency_out_of_band(self):
        design = butterworth_lowpass(FilterSpec(300.0, 44100.0, 4))
        with pytest.raises(ValueError, match="frequency out of band"):
            frequency_response(design, [23000.0])
        with pytest.raises(ValueError, match="frequency out of band"):
            frequency_response(design, [-1.0])
        with pytest.raises(ValueError, match="frequency out of band"):
            frequency_response(design, [np.nan])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "cutoff, order",
        [(20.0, 63), (150.0, 63), (1000.0, 64), (8000.0, 61), (150.0, 100), (1000.0, 100)],
    )
    def test_orders_whose_gain_overflows_are_rejected(self, cutoff, order):
        # warped^n / prod(2 fs - p) is inf / inf (a NaN design) or, once
        # warped^n overflows as a Python float, an OverflowError.
        with pytest.raises(ValueError, match="order not realisable in float64") as info:
            butterworth_lowpass(FilterSpec(cutoff, 44100.0, order))
        assert "\n" not in str(info.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [8000.0, 44100.0])
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_cutoffs_float64_cannot_realise_are_rejected(self, rate, order):
        # Rounding a1 and a2 zeroes 1 + a1 + a2 (an infinite DC gain) or a
        # pair's imaginary part; either is a one-line ValueError, never a
        # warning or a garbage filter. The last two cutoffs are realisable.
        x = Signal(np.abs(np.random.default_rng(order).standard_normal(8192 + 300)), rate)
        nyquist = rate / 2.0
        cutoffs = [1e-7, 1e-6, 1e-5, 1e-4, 2e-4]
        cutoffs += [nyquist - d for d in (1e-4, 5e-5, 1e-5, 1e-6)]
        cutoffs += [0.05, nyquist - 0.05]
        for cutoff in cutoffs:
            try:
                design = butterworth_lowpass(FilterSpec(cutoff, rate, order))
            except ValueError as exc:
                assert "\n" not in str(exc)
                continue
            assert cutoff in cutoffs[-2:]
            filtfilt_zero_phase(design, x)  # the scan
            filter_causal(design, x)  # the block-by-block carry
