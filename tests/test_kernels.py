import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import has_extended_precision, held_operators, recurrence, reference

from ampenv import FilterSpec, butterworth_lowpass, kernels
from ampenv.filtering import _step_state
from ampenv.kernels import _SCAN_BLOCK, BLOCK, GROUP, FilterState


def sections(cutoff_hz):
    return butterworth_lowpass(FilterSpec(cutoff_hz, 44100.0)).sections


# Both passes' block edges: the scan's 64-sample blocks and the chain's 128.
EDGES = [1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * _SCAN_BLOCK + 37]


def blocked_in_delay_pairs(sos, x, zi, chained):
    """kernels._sos_blocked from and to (s0, s1) delay pairs, on the blocks and with the conversions sos_filter uses."""
    key = kernels._key(sos)
    to_system, to_delay = kernels._design(key)[1:3]
    operators = kernels._block_operators(key, BLOCK if chained else _SCAN_BLOCK)
    y, end, _ = kernels._sos_blocked(operators, x, to_system.dot(np.asarray(zi, np.float64).reshape(-1)), chained)
    return y, to_delay.dot(end).reshape(-1, 2)


@pytest.mark.skipif(
    not has_extended_precision,
    reason="np.longdouble is float64 here, so there is no extended-precision reference",
)
@pytest.mark.parametrize("cutoff_hz, seed", [(5.0, 51), (20.0, 52), (150.0, 53)])
def test_blocked_deviation_within_the_recurrence(cutoff_hz, seed):
    sos = sections(cutoff_hz)
    x = np.abs(np.random.default_rng(seed).standard_normal(20000))
    zi = _step_state(sos, x[0])
    precise, _ = reference(sos, x, zi)
    scale = np.max(np.abs(precise))

    def deviation(y):
        return float(np.max(np.abs(y - precise)) / scale)

    blocked = deviation(kernels.sos_filter(sos, x, zi)[0])
    sequential = deviation(recurrence(sos, x, zi)[0])
    assert blocked <= 1e-9
    # Stricter than the 32x of the recurrence that blocks need in general:
    # the block states stay in the rotation form from zi to the final state,
    # delay pairs only at sos_filter's boundary, which makes them more
    # accurate than the recurrence itself (measured 0.004-0.008x). Block
    # states in the delay-pair basis measured 11-23x at 5 Hz.
    assert blocked <= sequential


@pytest.mark.parametrize("cutoff_hz", [20.0, 150.0])
def test_the_reference_within_an_ulp_of_the_exact_recurrence(cutoff_hz, rng):
    # Every float64 is dyadic, so the recurrence run in fractions is exact.
    # Errors are exact too, in float64 ulps of the largest exact value.
    sos = butterworth_lowpass(FilterSpec(cutoff_hz, 44100.0, 4)).sections
    x = np.abs(rng.standard_normal(200))
    zi = _step_state(sos, x[0])
    exact, exact_zf = recurrence(sos, x, zi, Fraction)
    got, zf = reference(sos, x, zi)
    for name, have, want in (("output", got, exact), ("state", zf.ravel(), exact_zf.ravel())):
        error = max(abs(Fraction(*v.as_integer_ratio()) - w) for v, w in zip(have, want))
        ulps = float(error / Fraction(np.spacing(float(max(map(abs, want))))))
        assert ulps <= 1.0, "%s: %.3g ulp" % (name, ulps)


@pytest.mark.parametrize("n", EDGES + [5 * BLOCK + 37])
def test_block_lengths_agree_with_the_recurrence(n, rng):
    sos = sections(150.0)
    x = rng.standard_normal(2 * n)
    zi = rng.standard_normal((2, 2))
    for view in (x[:n], x[n:][::-1]):
        expected, expected_zf = recurrence(sos, view, zi)
        for chained in (True, False):
            got, zf = blocked_in_delay_pairs(sos, view, zi, chained)
            assert got.shape == (n,)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert np.max(np.abs(zf - expected_zf)) <= 1e-12 * np.max(np.abs(expected_zf))


@pytest.mark.skipif(
    not has_extended_precision,
    reason="np.longdouble is float64 here, so there is no extended-precision reference",
)
@pytest.mark.parametrize("cutoff_hz, order", [(20.0, 4), (150.0, 4), (1000.0, 8)])
@pytest.mark.parametrize("bunch", [2, 7, 35, 50, 200, 256])
def test_held_operators_within_an_ulp_of_the_recurrence(cutoff_hz, order, bunch):
    # Each operator is built in np.longdouble and rounded once, so it lies
    # within an ulp of its largest entry from one group run through the
    # long-double recurrence.
    sos = butterworth_lowpass(FilterSpec(cutoff_hz, 44100.0, order)).sections
    group, gamma, back, steps = kernels._held_operators(kernels._key(sos), bunch)[:4]
    expected = held_operators(sos, bunch, kernels.HOLD)
    for name, got, want in zip(("O", "Gamma", "M", "A^L"), (group, gamma, back, steps[0]), expected):
        assert got.shape == want.shape, name
        ulps = np.max(np.abs(got - want)) / np.spacing(np.float64(np.max(np.abs(want))))
        assert ulps <= 1.0, "%s: %.3g ulp" % (name, ulps)


def test_carried_runs_cut_on_the_group_grid_reproduce_the_uncut_run(rng):
    sos = sections(20.0)
    x = rng.standard_normal(8192)
    zi = FilterState(rng.standard_normal((2, 2)))
    whole, whole_zf = kernels.sos_filter(sos, x, zi)
    for cut in (GROUP * BLOCK, 7 * GROUP * BLOCK, 8192 - GROUP * BLOCK):
        head, zf = kernels.sos_filter(sos, x[:cut], zi)
        tail, zf = kernels.sos_filter(sos, x[cut:], zf)
        np.testing.assert_array_equal(np.concatenate((head, tail)), whole)
        np.testing.assert_array_equal(zf.values, whole_zf.values)


@pytest.mark.parametrize("as_state", [True, False])
@pytest.mark.parametrize(
    "n", [1, BLOCK - 1, BLOCK, BLOCK + 1, GROUP * BLOCK - 1, GROUP * BLOCK, 5 * GROUP * BLOCK, 8192,
          GROUP * BLOCK + 1, 5 * BLOCK, 4464, 8192 + BLOCK, 8192 + GROUP * BLOCK],
)
def test_block_aligned_spans_and_short_remainders_carry(n, as_state, rng):
    # A FilterState takes the chain and delay pairs take the scan, at any
    # length; the state comes back in the form it went in.
    sos = sections(150.0)
    x = rng.standard_normal(n)
    zi = rng.standard_normal((2, 2))
    want, want_zf = blocked_in_delay_pairs(sos, x, zi, as_state)
    got, got_zf = kernels.sos_filter(sos, x, FilterState(zi) if as_state else zi)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_zf.values if as_state else got_zf, want_zf)


@pytest.mark.parametrize("cutoff_hz", [5.0, 150.0])
def test_a_group_gives_the_same_bits_alone_and_among_others(cutoff_hz, rng):
    # The 3rd of 16 groups, and the start of it, filtered from the same
    # start state on their own: a short group is padded to the same GEMM, so
    # every block keeps its row, and OpenBLAS rounds a row by its position.
    sos = sections(cutoff_hz)
    span = GROUP * BLOCK
    x = rng.standard_normal(16 * span)
    zi = FilterState(rng.standard_normal((2, 2)))
    whole, _ = kernels.sos_filter(sos, x, zi)
    _, start = kernels.sos_filter(sos, x[: 2 * span], zi)
    for n in (span, 2 * BLOCK + 37, 50):
        alone, _ = kernels.sos_filter(sos, x[2 * span : 2 * span + n], start)
        np.testing.assert_array_equal(alone, whole[2 * span : 2 * span + n])


def test_the_span_bound_leaves_the_bits(rng, set_span):
    # The chain runs in spans of kernels._SPAN samples; any whole number of
    # groups gives the same outputs and state.
    sos = sections(150.0)
    x = rng.standard_normal(5 * GROUP * BLOCK + 77)
    zi = FilterState(rng.standard_normal((2, 2)))
    whole, whole_zf = kernels.sos_filter(sos, x, zi)
    for span in (GROUP * BLOCK, 3 * GROUP * BLOCK):
        set_span(span)
        got, zf = kernels.sos_filter(sos, x, zi)
        np.testing.assert_array_equal(got, whole)
        np.testing.assert_array_equal(zf.values, whole_zf.values)


def test_zero_input_and_state_give_exact_zero():
    sos = sections(150.0)
    for n in (3 * BLOCK, 3 * BLOCK + 5):
        y, zf = kernels.sos_filter(sos, np.zeros(n), np.zeros((2, 2)))
        np.testing.assert_array_equal(y, np.zeros(n))
        np.testing.assert_array_equal(zf, np.zeros((2, 2)))


def test_inputs_not_mutated(rng):
    sos = sections(150.0)
    for n in (4 * BLOCK, 8192 + 4 * BLOCK):
        x = rng.standard_normal(n)
        zi = _step_state(sos, x[0])
        x_before, zi_before = x.copy(), zi.copy()
        kernels.sos_filter(sos, x, zi)
        _, state = kernels.sos_filter(sos, x[:-5], FilterState(zi))
        group_before = [np.copy(part) for part in state._group[1:]]
        kernels.sos_filter(sos, x, state)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(zi, zi_before)
        for part, before in zip(state._group[1:], group_before):
            np.testing.assert_array_equal(part, before)


@pytest.mark.parametrize("n", EDGES + [4 * BLOCK, 4 * BLOCK + 3])
def test_reversed_view_matches_copy(n, rng):
    # A backward and a forward stride, each n samples, from a random delay
    # pair: delay pairs take the scan and a FilterState the chain. n = 4 *
    # BLOCK ends on a group edge of the chain, n = 4 * BLOCK + 3 inside one.
    sos = sections(20.0)
    x = rng.standard_normal(2 * n)
    zi = rng.standard_normal((2, 2))
    for view in (x[:n][::-1], x[::2]):
        got, got_zf = kernels.sos_filter(sos, view, zi)
        copy, copy_zf = kernels.sos_filter(sos, view.copy(), zi)
        np.testing.assert_array_equal(got, copy)
        np.testing.assert_array_equal(got_zf, copy_zf)
        got, got_state = kernels.sos_filter(sos, view, FilterState(zi))
        copy, copy_state = kernels.sos_filter(sos, view.copy(), FilterState(zi))
        np.testing.assert_array_equal(got, copy)
        np.testing.assert_array_equal(got_state.values, copy_state.values)


def test_one_long_double_system_per_design(monkeypatch, rng, fresh_operators):
    # The scan's and the chain's block operators and the group-rate ones
    # are all built from the one system _design solves per design.
    built = []
    state_space = kernels._state_space
    monkeypatch.setattr(kernels, "_state_space", lambda sos: built.append(sos) or state_space(sos))
    sos = sections(150.0)
    x = rng.standard_normal(1000)
    kernels.sos_filter(sos, x, np.zeros((2, 2)))
    kernels.sos_filter(sos, x, FilterState(np.zeros((2, 2))))
    kernels._held_operators(kernels._key(sos), 50)
    assert len(built) == 1
    assert kernels._block_operators.cache_info().currsize == 2


def test_cached_operators_are_read_only(fresh_operators):
    # Every later call shares what the caches hold, so no part of it may be
    # written: the design's long-double system and float64 maps, and each
    # block length's and bunch's operators, down to every scan step.
    key = kernels._key(sections(150.0))
    cached = [
        kernels._design(key),
        kernels._block_operators(key, _SCAN_BLOCK),
        kernels._block_operators(key, BLOCK),
        kernels._held_operators(key, 2),
        kernels._held_operators(key, 50),
    ]
    leaves = []
    while cached:
        part = cached.pop()
        if isinstance(part, tuple):
            cached.extend(part)
        else:
            leaves.append(part)
    assert len(leaves) > 4 * kernels._SCAN_STEPS
    assert not [leaf for leaf in leaves if leaf.flags.writeable]


@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("chained", [False, True])
def test_a_warm_call_allocates_less_than_one_output_matrix(order, chained, fresh_operators, rng):
    # The (L + S, L) output matrix is built once per design and block
    # length, with the other block operators; a later call allocates only
    # its rows, its states and its output.
    sos = butterworth_lowpass(FilterSpec(150.0, 44100.0, order)).sections
    length = BLOCK if chained else _SCAN_BLOCK
    zi = np.zeros((len(sos), 2))
    start = FilterState(zi) if chained else zi
    x = rng.standard_normal(300)
    kernels.sos_filter(sos, x, start)
    tracemalloc.start()
    try:
        kernels.sos_filter(sos, x, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (length + 2 * len(sos)) * length * 8


def test_empty_input_keeps_the_state(rng):
    sos = sections(150.0)
    zi = _step_state(sos, 0.3)
    y, zf = kernels.sos_filter(sos, np.zeros(0), zi)
    assert y.shape == (0,)
    np.testing.assert_array_equal(zf, zi)
    # A FilterState, fresh or mid-group, comes back with the same bits.
    _, returned = kernels.sos_filter(sos, rng.standard_normal(BLOCK + 5), FilterState(zi))
    for state in (FilterState(zi), returned):
        y, same = kernels.sos_filter(sos, np.zeros(0), state)
        assert y.shape == (0,)
        assert same.values.tobytes() == state.values.tobytes()
