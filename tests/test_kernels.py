import numpy as np
import pytest

from ampenv import FilterSpec, butterworth_lowpass, kernels
from ampenv.filtering import _step_state
from ampenv.kernels import _BLOCK, RECURRENCE_MAX


def sections(cutoff_hz):
    return butterworth_lowpass(FilterSpec(cutoff_hz, 44100.0)).sections


def longdouble_recurrence(sos, x, zi):
    """The transposed direct-form II recurrence in np.longdouble, as the reference."""
    y = list(np.asarray(x, dtype=np.longdouble))
    for (b0, b1, b2, a1, a2), (s0, s1) in zip(np.asarray(sos, np.longdouble), np.asarray(zi, np.longdouble)):
        for i, xi in enumerate(y):
            yi = b0 * xi + s0
            s0 = b1 * xi - a1 * yi + s1
            s1 = b2 * xi - a2 * yi
            y[i] = yi
    return np.array(y, dtype=np.longdouble)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 here, so there is no extended-precision reference",
)
@pytest.mark.parametrize("cutoff_hz, seed", [(5.0, 51), (20.0, 52), (150.0, 53)])
def test_blocked_deviation_within_the_recurrence(cutoff_hz, seed):
    sos = sections(cutoff_hz)
    x = np.abs(np.random.default_rng(seed).standard_normal(20000))
    zi = _step_state(sos, x[0])
    reference = longdouble_recurrence(sos, x, zi)
    scale = np.max(np.abs(reference))

    def deviation(y):
        return float(np.max(np.abs(y - reference)) / scale)

    blocked = deviation(kernels.sos_filter(sos, x, zi)[0])
    sequential = deviation(kernels.sos_recurrence(sos, x, zi)[0])
    assert blocked <= 1e-9
    # Stricter than the 32x of the recurrence that blocks need in general:
    # the rotation-form states make them more accurate than the recurrence
    # itself (measured 0.004-0.008x); in the delay-pair basis they were
    # 11-23x at 5 Hz.
    assert blocked <= sequential


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK + 37])
def test_block_lengths_agree_with_the_recurrence(n, rng):
    sos = sections(150.0)
    x = rng.standard_normal(n)
    zi = _step_state(sos, 0.3)
    expected, expected_zf = kernels.sos_recurrence(sos, x, zi)
    got, zf = kernels._sos_blocked(sos, x, zi)
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(zf - expected_zf)) <= 1e-12 * np.max(np.abs(expected_zf))


def test_recurrence_up_to_its_limit_then_blocks(rng):
    sos = sections(150.0)
    x = rng.standard_normal(RECURRENCE_MAX + 1)
    zi = _step_state(sos, x[0])
    for n in (RECURRENCE_MAX, RECURRENCE_MAX + 1):
        got, zf = kernels.sos_filter(sos, x[:n], zi)
        want, want_zf = (kernels.sos_recurrence if n == RECURRENCE_MAX else kernels._sos_blocked)(sos, x[:n], zi)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(zf, want_zf)


def test_zero_input_and_state_give_exact_zero():
    sos = sections(150.0)
    n = RECURRENCE_MAX + 3 * _BLOCK + 5
    y, zf = kernels.sos_filter(sos, np.zeros(n), np.zeros((2, 2)))
    np.testing.assert_array_equal(y, np.zeros(n))
    np.testing.assert_array_equal(zf, np.zeros((2, 2)))


def test_inputs_not_mutated(rng):
    sos = sections(150.0)
    x = rng.standard_normal(4 * RECURRENCE_MAX)
    zi = _step_state(sos, x[0])
    x_before, zi_before = x.copy(), zi.copy()
    kernels.sos_filter(sos, x, zi)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(zi, zi_before)


def test_reversed_view_matches_copy(rng):
    sos = sections(20.0)
    x = rng.standard_normal(4 * RECURRENCE_MAX)
    zi = _step_state(sos, x[-1])
    view, view_zf = kernels.sos_filter(sos, x[::-1], zi)
    copy, copy_zf = kernels.sos_filter(sos, x[::-1].copy(), zi)
    np.testing.assert_array_equal(view, copy)
    np.testing.assert_array_equal(view_zf, copy_zf)
