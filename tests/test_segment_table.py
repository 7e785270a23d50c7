"""Properties of the windowed and one-table reductions against the slow routes in oracles.py."""

import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    _segments,
    almost_periods_per_shift,
    almost_periods_whole_window,
    bohr_mean_whole,
    fourier_coefficient_scalar,
    merged_correlation,
)
from windingphase import (
    CycleAssignment,
    DomainError,
    PairConfig,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    bohr_mean,
    chsh,
    correlation,
    event_count,
    find_almost_periods,
    fourier_spectrum,
    residual_curve,
    sequence,
)

TWO_PI = 2.0 * math.pi

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# Periods 1 and 2 put events of different cycles at the same times.
periods = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.3, 3.0))
coefficients = st.integers(-2, 2)


@st.composite
def pairs(draw, max_horizon=120.0):
    """Pairs over genus 0-2; some cycles carry the same coefficient on both sides."""
    genus = draw(st.integers(0, 2))
    n = 2 * genus
    surface = SurfaceSpec(genus)
    assign = CycleAssignment(
        surface,
        draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n)),
        draw(st.lists(periods, min_size=n, max_size=n)),
    )
    chain_a = draw(st.lists(coefficients, min_size=n, max_size=n))
    shared = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chain_b = [a if same else draw(coefficients) for a, same in zip(chain_a, shared)]
    horizon = draw(st.floats(10.0, max_horizon))
    return PairConfig(
        PhaseSequence(surface, WindingChain(surface, chain_a), assign, horizon),
        PhaseSequence(surface, WindingChain(surface, chain_b), assign, horizon),
    )


@PROPERTY
@given(data=st.data(), pair=pairs())
def test_almost_period_scan_matches_per_shift_oracle(data, pair):
    seq = pair.sequence_a
    epsilon = data.draw(st.floats(0.05, 2.0))
    search_bound = data.draw(st.floats(0.5, seq.horizon / 2.0))
    sample_step = data.draw(st.floats(0.25, 3.0))
    try:
        expected = almost_periods_per_shift(seq, epsilon, search_bound, sample_step)
    except DomainError:
        # the per-shift route rejects a last shifted window that rounding
        # pushes past the horizon; there is nothing to compare against
        assume(False)
    assert find_almost_periods(seq, epsilon, search_bound, sample_step) == expected


@st.composite
def long_sequences(draw):
    """Sequences over genus 0-2 whose scan windows span several blocks.

    Small increments let some shifts pass epsilon, so their windows are
    scanned to the end; periods 1 and 2 put shifted event times on base
    event times and block edges; some chains are zero.
    """
    # 0: genus 0; 1: a zero chain; 2-5: genus 1 or 2 with drawn coefficients
    kind = draw(st.integers(0, 5))
    genus = 0 if kind == 0 else 1 + kind % 2
    n = 2 * genus
    surface = SurfaceSpec(genus)
    betas = st.one_of(st.floats(0.0, 0.1), st.floats(0.0, TWO_PI, exclude_max=True))
    # periods of at least 0.5 keep the whole-window oracle quick at 5000
    coarse_periods = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 3.0))
    assign = CycleAssignment(
        surface,
        draw(st.lists(betas, min_size=n, max_size=n)),
        draw(st.lists(coarse_periods, min_size=n, max_size=n)),
    )
    drawn = st.lists(st.sampled_from([1, -1, 2, -2, 0]), min_size=n, max_size=n)
    chain = [0] * n if kind == 1 else draw(drawn)
    horizon = draw(st.floats(500.0, 5000.0))
    return PhaseSequence(surface, WindingChain(surface, chain), assign, horizon)


@settings(PROPERTY, max_examples=100)
@given(data=st.data(), seq=long_sequences())
def test_blockwise_scan_matches_whole_window_oracle(data, seq):
    epsilon = data.draw(st.floats(0.05, 2.0))
    search_bound = data.draw(st.floats(0.5, 20.0))
    sample_step = data.draw(st.floats(0.25, 3.0))
    blocks = []
    evaluate = sequence._block_discrepancy

    def recording_block(cuts, shift, *rest):
        blocks.append((float(shift), np.unique(cuts)))
        return evaluate(cuts, shift, *rest)

    with mock.patch.object(sequence, "_block_discrepancy", recording_block):
        got = find_almost_periods(seq, epsilon, search_bound, sample_step)
    expected = almost_periods_whole_window(seq, epsilon, search_bound, sample_step)
    # candidates with their discrepancy bits, scanned and window
    assert got == expected

    # Each shift's blocks share their edges and together hold exactly the
    # whole window's cuts up to the last block evaluated.
    times = np.unique(sequence.event_arrays(seq, 0.0, seq.horizon)[0])
    window_end = expected.window[1]
    for shift, group in itertools.groupby(blocks, key=lambda b: b[0]):
        cut_sets = [cuts for _, cuts in group]
        assert all(a[-1] == b[0] for a, b in zip(cut_sets, cut_sets[1:]))
        lo, hi = np.searchsorted(times, (shift, shift + window_end), side="right")
        whole = np.unique(np.concatenate(([0.0], times, times[lo:hi] - shift, [window_end])))
        whole = whole[(whole >= 0.0) & (whole <= cut_sets[-1][-1])]
        assert np.array_equal(np.unique(np.concatenate(cut_sets)), whole)


@PROPERTY
@given(data=st.data(), pair=pairs())
def test_spectrum_matches_per_lambda_oracle(data, pair):
    seq = pair.sequence_b
    t = data.draw(st.floats(0.5, seq.horizon))
    lams = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
    got = fourier_spectrum(seq, lams, t)
    assert got.shape == (len(lams),)
    # same kernel arithmetic in the same order, so equal bit for bit
    assert got.tolist() == [fourier_coefficient_scalar(seq, lam, t) for lam in lams]


def _spectrum_by_workers(seq, lams, t, workers):
    """fourier_spectrum with ``workers`` usable CPUs, and the lam indices each call took."""
    calls, threads = [], set()
    terms = sequence._spectrum_terms

    def recording_terms(*args):
        calls.append(tuple(args[-1]))
        threads.add(threading.current_thread())
        return terms(*args)

    with mock.patch.object(sequence, "_usable_cpus", lambda: workers), \
            mock.patch.object(sequence, "_spectrum_terms", recording_terms):
        spectrum = fourier_spectrum(seq, lams, t)
    # the calling thread runs one group and n - 1 pool threads the others
    assert threading.main_thread() in threads
    assert len(threads) <= len(set(calls))
    return spectrum, calls


@PROPERTY
@given(data=st.data(), pair=pairs(), window_events=st.integers(1, 64))
def test_spectrum_is_bit_identical_for_every_worker_count(data, pair, window_events):
    seq = data.draw(st.sampled_from([pair.sequence_a, pair.sequence_b, pair.difference]))
    t = data.draw(st.floats(0.5, pair.horizon))
    # 1 to 6 lams: fewer than, as many as and more than 1-4 workers
    lams = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
    oracle = [fourier_coefficient_scalar(seq, lam, t) for lam in lams]
    for workers in (1, 2, 3, 4):
        n = min(len(lams), workers)
        groups = [tuple(range(w, len(lams), n)) for w in range(n)]
        # one window at these horizons: the oracle's segment table, bit for bit
        whole, calls = _spectrum_by_workers(seq, lams, t, workers)
        assert whole.tolist() == oracle
        assert sorted(calls) == groups
        # many windows: the same bits as one thread
        with mock.patch.object(sequence, "_WINDOW_EVENTS", window_events):
            split, calls = _spectrum_by_workers(seq, lams, t, workers)
            one_thread, _ = _spectrum_by_workers(seq, lams, t, 1)
        hexes = [(z.real.hex(), z.imag.hex()) for z in split.tolist()]
        assert hexes == [(z.real.hex(), z.imag.hex()) for z in one_thread.tolist()]
        # every window hands each group to one call
        assert sorted(calls) == sorted(groups * (len(calls) // n))


def test_spectrum_threads_lose_no_update_under_fast_switching():
    # more workers than cores, many windows and a thread switch about every
    # microsecond: a lost or misordered += on a shared out[k] changes bits
    surface = SurfaceSpec(2)
    seq = PhaseSequence(
        surface,
        WindingChain(surface, (1, -1, 2, 1)),
        CycleAssignment(surface, (0.9, 1.3, 0.4, 2.2), (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0)),
        300.0,
    )
    lams = np.linspace(-6.0, 6.0, 19)
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 8):
        expected, _ = _spectrum_by_workers(seq, lams, 300.0, 1)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            got, calls = _spectrum_by_workers(seq, lams, 300.0, 8)
        finally:
            sys.setswitchinterval(interval)
    assert len(set(calls)) == 8
    assert [(z.real.hex(), z.imag.hex()) for z in got.tolist()] == [
        (z.real.hex(), z.imag.hex()) for z in expected.tolist()
    ]


@pytest.mark.parametrize("failing", [0, 1])
def test_spectrum_worker_error_propagates_and_threads_end(failing):
    surface = SurfaceSpec(1)
    seq = PhaseSequence(
        surface,
        WindingChain(surface, (1, -1)),
        CycleAssignment(surface, (0.9, 1.3), (1.0, math.sqrt(2.0))),
        500.0,
    )
    terms, failed_in = sequence._spectrum_terms, []

    def failing_terms(*args):
        if failing in args[-1]:
            failed_in.append(threading.current_thread())
            raise ZeroDivisionError("worker failed")
        return terms(*args)

    baseline = threading.active_count()
    with mock.patch.object(sequence, "_usable_cpus", lambda: 3), \
            mock.patch.object(sequence, "_WINDOW_EVENTS", 16), \
            mock.patch.object(sequence, "_spectrum_terms", failing_terms):
        with pytest.raises(ZeroDivisionError, match="worker failed"):
            fourier_spectrum(seq, [0.0, 0.5, 1.0, 1.5], 400.0)
    # group 0 runs on the calling thread, group 1 on a pool thread
    assert len(failed_in) == 1
    assert (failed_in[0] is threading.main_thread()) == (failing == 0)
    assert threading.active_count() == baseline


def _largest_running_phase(pair, t):
    return max(
        float(np.max(np.abs(_segments(seq, t)[1])))
        for seq in (pair.sequence_a, pair.sequence_b, pair.difference)
    )


@PROPERTY
@given(
    data=st.data(),
    pair=pairs(),
    theta_a=st.floats(0.0, TWO_PI),
    theta_b=st.floats(0.0, TWO_PI),
)
def test_correlation_matches_merged_segment_oracle(data, pair, theta_a, theta_b):
    t = data.draw(st.floats(0.5, pair.horizon))
    value, residual, segments = merged_correlation(pair, theta_a, theta_b, t)
    est = correlation(pair, theta_a, theta_b, t)
    assert est.segment_count == segments
    # Both routes sum unwrapped running phases, whose rounding grows with
    # their magnitude: the bound is 1e-15 per segment per radian of phase.
    tol = 1e-15 * segments * max(1.0, _largest_running_phase(pair, t))
    assert abs(est.value - value) <= tol
    assert abs(est.residual - residual) <= tol


@PROPERTY
@given(pair=pairs(), angles=st.lists(st.floats(0.0, TWO_PI), min_size=4, max_size=4))
def test_chsh_uses_the_same_estimates_as_correlation(pair, angles):
    a1, a2, b1, b2 = angles
    result = chsh(pair, a1, a2, b1, b2, pair.horizon)
    singles = [correlation(pair, ta, tb, pair.horizon) for ta, tb in ((a1, b1), (a1, b2), (a2, b1), (a2, b2))]
    assert list(result.estimates) == singles


@PROPERTY
@given(data=st.data(), pair=pairs(), window_events=st.integers(1, 64))
def test_window_split_matches_whole_table_oracles(data, pair, window_events):
    seq = data.draw(st.sampled_from([pair.sequence_a, pair.sequence_b, pair.difference]))
    t = data.draw(st.floats(0.5, pair.horizon))
    lams = [0.0] + data.draw(st.lists(st.floats(-20.0, 20.0), max_size=4))
    horizons = sorted(data.draw(st.lists(st.floats(0.5, pair.horizon), min_size=1, max_size=4)))
    theta_a, theta_b = data.draw(st.floats(0.0, TWO_PI)), data.draw(st.floats(0.0, TWO_PI))
    # small windows make every input span many of them
    with mock.patch.object(sequence, "_WINDOW_EVENTS", window_events):
        mean = bohr_mean(seq, t)
        spectrum = fourier_spectrum(seq, lams, t)
        curve = residual_curve(pair, theta_a, theta_b, horizons)

    tol = 1e-15 * (event_count(seq, 0.0, t) + 1) * max(1.0, float(np.max(np.abs(_segments(seq, t)[1]))))
    assert abs(mean - bohr_mean_whole(seq, t)) <= tol
    assert spectrum[0] == mean
    for lam, got in zip(lams, spectrum):
        assert abs(got - fourier_coefficient_scalar(seq, lam, t)) <= tol
    assert [h for h, _ in curve] == horizons
    for h, residual in curve:
        _, expected, segments = merged_correlation(pair, theta_a, theta_b, h)
        assert abs(residual - expected) <= 1e-15 * segments * max(1.0, _largest_running_phase(pair, h))
