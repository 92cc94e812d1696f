import numpy as np
import pytest
from oracles import has_extended_precision, recurrence

from ampenv import FilterSpec, butterworth_lowpass, kernels
from ampenv.filtering import _step_state
from ampenv.kernels import BLOCK, CARRY_SPAN, GROUP


def sections(cutoff_hz):
    return butterworth_lowpass(FilterSpec(cutoff_hz, 44100.0)).sections


@pytest.mark.skipif(
    not has_extended_precision,
    reason="np.longdouble is float64 here, so there is no extended-precision reference",
)
@pytest.mark.parametrize("cutoff_hz, seed", [(5.0, 51), (20.0, 52), (150.0, 53)])
def test_blocked_deviation_within_the_recurrence(cutoff_hz, seed):
    sos = sections(cutoff_hz)
    x = np.abs(np.random.default_rng(seed).standard_normal(20000))
    zi = _step_state(sos, x[0])
    reference, _ = recurrence(sos, x, zi, np.longdouble)
    scale = np.max(np.abs(reference))

    def deviation(y):
        return float(np.max(np.abs(y - reference)) / scale)

    blocked = deviation(kernels.sos_filter(sos, x, zi)[0])
    sequential = deviation(recurrence(sos, x, zi)[0])
    assert blocked <= 1e-9
    # Stricter than the 32x of the recurrence that blocks need in general:
    # the rotation-form states make them more accurate than the recurrence
    # itself (measured 0.004-0.008x); in the delay-pair basis they were
    # 11-23x at 5 Hz.
    assert blocked <= sequential


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 37])
def test_block_lengths_agree_with_the_recurrence(n, rng):
    sos = sections(150.0)
    x = rng.standard_normal(n)
    zi = _step_state(sos, 0.3)
    expected, expected_zf = recurrence(sos, x, zi)
    for blocked in (kernels._sos_carried, kernels._sos_scanned):
        got, zf = blocked(sos, x, zi)
        assert got.shape == (n,)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(zf - expected_zf)) <= 1e-12 * np.max(np.abs(expected_zf))


def test_carried_runs_cut_on_the_group_grid_reproduce_the_uncut_run(rng):
    sos = sections(20.0)
    x = rng.standard_normal(CARRY_SPAN)
    zi = rng.standard_normal((2, 2))
    whole, whole_zf = kernels.sos_filter(sos, x, zi)
    for cut in (GROUP * BLOCK, 7 * GROUP * BLOCK, CARRY_SPAN - GROUP * BLOCK):
        head, zf = kernels.sos_filter(sos, x[:cut], zi)
        tail, zf = kernels.sos_filter(sos, x[cut:], zf)
        np.testing.assert_array_equal(np.concatenate((head, tail)), whole)
        np.testing.assert_array_equal(zf, whole_zf)


@pytest.mark.parametrize(
    "n, carried",
    [(1, True), (BLOCK - 1, True), (BLOCK, True), (BLOCK + 1, True), (GROUP * BLOCK - 1, True),
     (GROUP * BLOCK, True), (5 * GROUP * BLOCK, True), (CARRY_SPAN, True),
     (GROUP * BLOCK + 1, False), (5 * BLOCK, False), (4464, False),
     (CARRY_SPAN + BLOCK, False), (CARRY_SPAN + GROUP * BLOCK, False)],
)
def test_block_aligned_spans_and_short_remainders_carry(n, carried, rng):
    # filter_causal feeds whole groups of blocks up to CARRY_SPAN and
    # remainders shorter than a group; every other length takes the scan.
    sos = sections(150.0)
    x = rng.standard_normal(n)
    zi = rng.standard_normal((2, 2))
    expected = (kernels._sos_carried if carried else kernels._sos_scanned)(sos, x, zi)
    for got, want in zip(kernels.sos_filter(sos, x, zi), expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cutoff_hz", [5.0, 150.0])
def test_a_group_gives_the_same_bits_alone_and_among_others(cutoff_hz, rng):
    # The 3rd of 16 groups, and the start of it, filtered from the same
    # start state on their own: a short group is padded to the same GEMM, so
    # every block keeps its row, and OpenBLAS rounds a row by its position.
    sos = sections(cutoff_hz)
    span = GROUP * BLOCK
    x = rng.standard_normal(16 * span)
    zi = rng.standard_normal((2, 2))
    whole, _ = kernels.sos_filter(sos, x, zi)
    _, start = kernels.sos_filter(sos, x[: 2 * span], zi)
    for n in (span, 2 * BLOCK + 37, 50):
        alone, _ = kernels.sos_filter(sos, x[2 * span : 2 * span + n], start)
        np.testing.assert_array_equal(alone, whole[2 * span : 2 * span + n])


def test_zero_input_and_state_give_exact_zero():
    sos = sections(150.0)
    for n in (3 * BLOCK, 3 * BLOCK + 5):
        y, zf = kernels.sos_filter(sos, np.zeros(n), np.zeros((2, 2)))
        np.testing.assert_array_equal(y, np.zeros(n))
        np.testing.assert_array_equal(zf, np.zeros((2, 2)))


def test_inputs_not_mutated(rng):
    sos = sections(150.0)
    for n in (4 * BLOCK, CARRY_SPAN + 4 * BLOCK):
        x = rng.standard_normal(n)
        zi = _step_state(sos, x[0])
        x_before, zi_before = x.copy(), zi.copy()
        kernels.sos_filter(sos, x, zi)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(zi, zi_before)


def test_reversed_view_matches_copy(rng):
    sos = sections(20.0)
    for n in (4 * BLOCK, 4 * BLOCK + 3):
        x = rng.standard_normal(n)
        zi = _step_state(sos, x[-1])
        view, view_zf = kernels.sos_filter(sos, x[::-1], zi)
        copy, copy_zf = kernels.sos_filter(sos, x[::-1].copy(), zi)
        np.testing.assert_array_equal(view, copy)
        np.testing.assert_array_equal(view_zf, copy_zf)


def test_empty_input_keeps_the_state():
    sos = sections(150.0)
    zi = _step_state(sos, 0.3)
    y, zf = kernels.sos_filter(sos, np.zeros(0), zi)
    assert y.shape == (0,)
    np.testing.assert_array_equal(zf, zi)
