"""Properties of the windowed and one-table reductions against the slow routes in oracles.py."""

import importlib
import itertools
import math
import os
import sys
import threading
import time
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
    correlations,
    event_count,
    find_almost_periods,
    fourier_spectrum,
    residual_curve,
    sequence,
)

# The package exports the function ``correlation`` under the module's name.
corr = importlib.import_module("windingphase.correlation")

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
    # whole window's cuts up to the last block evaluated.  Shifts run on
    # several threads, so one shift's blocks need not be consecutive in the
    # record; within a shift they are in scan order.
    times = np.unique(sequence.event_arrays(seq, 0.0, seq.horizon)[0])
    window_end = expected.window[1]
    per_shift = {}
    for shift, cuts in blocks:
        per_shift.setdefault(shift, []).append(cuts)
    for shift, cut_sets in per_shift.items():
        assert all(a[-1] == b[0] for a, b in zip(cut_sets, cut_sets[1:]))
        lo, hi = np.searchsorted(times, (shift, shift + window_end), side="right")
        whole = np.unique(np.concatenate(([0.0], times, times[lo:hi] - shift, [window_end])))
        whole = whole[(whole >= 0.0) & (whole <= cut_sets[-1][-1])]
        assert np.array_equal(np.unique(np.concatenate(cut_sets)), whole)


@st.composite
def coarse_scans(draw):
    """(seq, epsilon, search_bound, sample_step) at horizons 1e4-1e8, where an ulp is large.

    Two active cycles fire 8-400 times each, the second period sometimes an
    exact multiple of the first so that shifted event times land on base
    event times; the grid pitch is either 2 * search_bound (no grid shifts)
    or a fraction of it.
    """
    surface = SurfaceSpec(1)
    horizon = draw(st.floats(1e4, 1e8))
    multiple = draw(st.sampled_from([0, 2, 3]))  # 0: a period of its own
    first = horizon / draw(st.floats(8.0 * max(multiple, 1), 400.0))
    second = first * multiple if multiple else horizon / draw(st.floats(8.0, 400.0))
    betas = st.one_of(st.floats(0.0, 0.1), st.floats(0.0, TWO_PI, exclude_max=True))
    assign = CycleAssignment(surface, draw(st.lists(betas, min_size=2, max_size=2)), (first, second))
    chain = draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=2, max_size=2))
    seq = PhaseSequence(surface, WindingChain(surface, chain), assign, horizon)
    search_bound = draw(st.floats(min(first, second), horizon / 2.0))
    pitch = draw(st.one_of(st.just(2.0), st.floats(0.02, 0.5)))
    return seq, draw(st.floats(0.05, 2.0)), search_bound, pitch * search_bound


@PROPERTY
@given(scan=coarse_scans())
def test_bracketed_scan_matches_whole_window_oracle_at_large_horizons(scan):
    seq = scan[0]
    cut_sets, evaluate = {}, sequence._block_discrepancy

    def recording_block(cuts, shift, *rest):
        cut_sets.setdefault(float(shift), []).append(np.unique(cuts))
        return evaluate(cuts, shift, *rest)

    with mock.patch.object(sequence, "_block_discrepancy", recording_block):
        got = find_almost_periods(*scan)
    assert got == almost_periods_whole_window(*scan)
    # A shifted time that rounds onto a block edge's neighbour moves no
    # probe to another segment, so only the cuts show a search that missed
    # it: each shift's blocks hold the oracle's whole-window cuts.
    times = np.unique(sequence.event_arrays(seq, 0.0, seq.horizon)[0])
    window_end = got.window[1]
    for shift, blocks in cut_sets.items():
        lo, hi = np.searchsorted(times, (shift, shift + window_end), side="right")
        whole = np.unique(np.concatenate(([0.0], times, times[lo:hi] - shift, [window_end])))
        assert np.array_equal(np.unique(np.concatenate(blocks)), whole[whole <= blocks[-1][-1]])


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


class _Run:
    """What one scheduled reduction did: its values, its threads and its tasks."""

    def __init__(self):
        self.values, self.windows = None, None
        self.threads, self.tasks = [], []


def _scheduled(reduce, workers, hold=None):
    """Run reduce() with ``workers`` usable CPUs and record the scheduler's work.

    ``threads`` lists the thread of every task loop (each asks for its
    buffers once), ``tasks`` one (thread, window, lam hexes) per
    _window_terms call.  ``hold(thread)``, if given, runs before a thread
    asks for its buffers, that is before it takes any task.
    """
    run, local = _Run(), threading.local()
    buffers, build, terms = sequence._Windows.buffers, sequence._Windows.build, sequence._window_terms

    def recording_buffers(self):
        if hold is not None:
            hold(threading.current_thread())
        run.windows = len(self)
        run.threads.append(threading.current_thread())
        return buffers(self)

    def recording_build(self, j, bufs):
        local.j = j
        return build(self, j, bufs)

    def recording_terms(lams, *rest):
        run.tasks.append((threading.current_thread(), local.j, [lam.hex() for lam in lams.tolist()]))
        return terms(lams, *rest)

    with mock.patch.object(sequence, "_usable_cpus", lambda: workers), \
            mock.patch.object(sequence._Windows, "buffers", recording_buffers), \
            mock.patch.object(sequence._Windows, "build", recording_build), \
            mock.patch.object(sequence, "_window_terms", recording_terms):
        run.values = _hexes(reduce())
    return run


def _hexes(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def _assert_every_task_taken_once(run, lams, workers):
    """One task per window, over all of ``lams``; min(windows, workers) task loops ran, one on the caller.

    A pool thread whose loop found no task left may run another loop.
    """
    assert sorted(j for _, j, _ in run.tasks) == list(range(run.windows))
    for _, _, taken in run.tasks:
        assert taken == [lam.hex() for lam in lams]
    assert len(run.threads) == min(run.windows, workers)
    assert threading.main_thread() in run.threads


def _sums(pair, seq, t, horizons, theta_a=0.3, theta_b=1.1):
    """{name: (lams, call)} for the lam = 0 reductions the scheduler runs.

    The residual curve's call clears the pair memo first, so every call runs
    the windowed pass.
    """

    def curve():
        corr._memo_moment.cache_clear()
        return [r for _, r in residual_curve(pair, theta_a, theta_b, horizons)]

    return {"bohr_mean": ((0.0,), lambda: [bohr_mean(seq, t)]), "residual_curve": ((0.0,), curve)}


def _spectrum(seq, lams, t):
    """(lams, call) for fourier_spectrum on the scheduler."""
    return lams, lambda: fourier_spectrum(seq, lams, t).tolist()


def _reductions(pair, seq, t, lams, horizons):
    """{name: (lams, call)} for every reduction the scheduler runs."""
    return {**_sums(pair, seq, t, horizons), "fourier_spectrum": _spectrum(seq, lams, t)}


def _one_thread_run(lams, reduce):
    """reduce() on one thread, after checking that 2-4 workers keep its bits and take every task once."""
    runs = {workers: _scheduled(reduce, workers) for workers in (1, 2, 3, 4)}
    assert set(runs[1].threads) == {threading.main_thread()}
    for workers, run in runs.items():
        assert run.values == runs[1].values
        _assert_every_task_taken_once(run, lams, workers)
    return runs[1]


def _assert_bits_kept_under_fast_switching(lams, reduce):
    # more workers than cores, many tasks and a thread switch about every
    # microsecond: a task built in another thread's buffers, or a row
    # folded out of window order, changes bits
    expected = _scheduled(reduce, 1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        run = _scheduled(reduce, 8)
    finally:
        sys.setswitchinterval(interval)
    assert run.values == expected.values
    assert len(run.threads) == 8
    _assert_every_task_taken_once(run, lams, 8)


def _assert_worker_error_propagates(failing, reduce):
    """A failing task loop (0: the caller's, 1: the pool thread's) raises and leaves no thread."""
    buffers, failed_in = sequence._Windows.buffers, []

    def failing_buffers(self):
        if (threading.current_thread() is threading.main_thread()) == (failing == 0):
            failed_in.append(threading.current_thread())
            raise ZeroDivisionError("worker failed")
        return buffers(self)

    baseline = threading.active_count()
    with mock.patch.object(sequence, "_usable_cpus", lambda: 2), \
            mock.patch.object(sequence, "_WINDOW_EVENTS", 16), \
            mock.patch.object(sequence._Windows, "buffers", failing_buffers):
        with pytest.raises(ZeroDivisionError, match="worker failed"):
            reduce()
    assert len(failed_in) == 1
    assert (failed_in[0] is threading.main_thread()) == (failing == 0)
    assert threading.active_count() == baseline


def _genus2_pair(horizon):
    surface = SurfaceSpec(2)
    assign = CycleAssignment(
        surface, (0.9, 1.3, 0.4, 2.2), (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0)
    )
    return PairConfig(
        PhaseSequence(surface, WindingChain(surface, (1, -1, 2, 1)), assign, horizon),
        PhaseSequence(surface, WindingChain(surface, (0, 1, 1, -2)), assign, horizon),
    )


def _genus1_pair(horizon=500.0):
    surface = SurfaceSpec(1)
    assign = CycleAssignment(surface, (0.9, 1.3), (1.0, math.sqrt(2.0)))
    return PairConfig(
        PhaseSequence(surface, WindingChain(surface, (1, 0)), assign, horizon),
        PhaseSequence(surface, WindingChain(surface, (0, 1)), assign, horizon),
    )


@PROPERTY
@given(data=st.data(), pair=pairs(), window_events=st.integers(1, 64))
def test_spectrum_is_bit_identical_for_every_worker_count(data, pair, window_events):
    seq = data.draw(st.sampled_from([pair.sequence_a, pair.sequence_b, pair.difference]))
    t = data.draw(st.floats(0.5, pair.horizon))
    # both zeros, and 2 to 6 lams: fewer than, as many as and more than 1-4 workers
    drawn = data.draw(st.lists(st.floats(-20.0, 20.0), max_size=4))
    lams = data.draw(st.permutations([-0.0, 0.0] + drawn))
    _, reduce = _spectrum(seq, lams, t)
    # small windows, then the default: one window at these horizons
    for events in (window_events, sequence._WINDOW_EVENTS):
        with mock.patch.object(sequence, "_WINDOW_EVENTS", events):
            one_thread = _one_thread_run(lams, reduce)
            mean = _hexes([bohr_mean(seq, t)])[0]
        # lam = 0 and lam = -0.0 are the Bohr mean, bit for bit
        assert all(v == mean for lam, v in zip(lams, one_thread.values) if lam == 0.0)
    # in one window, the oracle's segment table
    assert one_thread.windows == 1
    assert reduce() == [fourier_coefficient_scalar(seq, lam, t) for lam in lams]


def test_spectrum_threads_lose_no_update_under_fast_switching():
    seq = _genus2_pair(300.0).sequence_a
    lams = np.concatenate(([-0.0, 0.0], np.linspace(-6.0, 6.0, 19)))
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 8):
        _assert_bits_kept_under_fast_switching(*_spectrum(seq, lams, 300.0))


@pytest.mark.parametrize("failing", [0, 1])
def test_spectrum_worker_error_propagates_and_threads_end(failing):
    _, reduce = _spectrum(_genus1_pair().sequence_a, [0.0, 0.5, 1.0, 1.5], 400.0)
    _assert_worker_error_propagates(failing, reduce)


@PROPERTY
@given(data=st.data(), pair=pairs(), window_events=st.integers(1, 64))
def test_window_sums_are_bit_identical_for_every_worker_count(data, pair, window_events):
    seq = data.draw(st.sampled_from([pair.sequence_a, pair.sequence_b, pair.difference]))
    t = data.draw(st.floats(0.5, pair.horizon))
    horizons = sorted(data.draw(st.lists(st.floats(0.5, pair.horizon), min_size=1, max_size=4)))
    a1, a2, b1, b2 = (data.draw(st.floats(-10.0, 10.0)) for _ in range(4))
    settings_ = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]

    def through_the_memo():
        corr._memo_moment.cache_clear()
        cold = correlations(pair, settings_, t)  # sums M2 on the workers
        warm = chsh(pair, a1, a2, b1, b2, t)  # reads the memo
        assert warm.estimates == cold
        return [e.value for e in cold] + [e.residual for e in cold] + [warm.s]

    # small windows, then the default: one window at these horizons
    for events in (window_events, sequence._WINDOW_EVENTS):
        with mock.patch.object(sequence, "_WINDOW_EVENTS", events):
            memo_bits = _scheduled(through_the_memo, 1).values
            for lams, reduce in _sums(pair, seq, t, horizons, a1, b1).values():
                _one_thread_run(lams, reduce)
            for workers in (2, 3, 4):
                assert _scheduled(through_the_memo, workers).values == memo_bits
    corr._memo_moment.cache_clear()


def test_window_sums_keep_their_bits_under_fast_switching():
    pair = _genus2_pair(300.0)
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 8):
        for lams, reduce in _sums(pair, pair.sequence_a, 300.0, [10.0, 77.7, 300.0]).values():
            _assert_bits_kept_under_fast_switching(lams, reduce)


def test_a_held_back_worker_leaves_its_windows_to_the_caller():
    pair = _genus1_pair()
    reductions = _reductions(pair, pair.sequence_a, 400.0, [0.0, 0.5, -0.0, 1.5], [10.0, 400.0])
    # many windows for every reduction
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 16):
        for name, (lams_, reduce) in reductions.items():
            expected = _scheduled(reduce, 1)
            total = len(expected.tasks)
            caller_done, done = threading.Event(), []

            def hold(thread):
                if thread is not threading.main_thread():
                    assert caller_done.wait(timeout=60.0)

            def counting(*args, terms=sequence._window_terms):
                result = terms(*args)
                done.append(threading.current_thread())
                if len(done) == total:
                    caller_done.set()
                return result

            with mock.patch.object(sequence, "_window_terms", counting):
                run = _scheduled(reduce, 2, hold)
            assert len(run.threads) == 2, name
            assert {thread for thread, _, _ in run.tasks} == {threading.main_thread()}
            assert run.values == expected.values
            _assert_every_task_taken_once(run, lams_, 2)


@pytest.mark.parametrize("failing", [0, 1])
def test_window_worker_error_propagates_and_threads_end(failing):
    pair = _genus1_pair()
    for _, reduce in _sums(pair, pair.sequence_a, 400.0, [10.0, 400.0]).values():
        _assert_worker_error_propagates(failing, reduce)


def _scan_sequence(horizon=2000.0):
    """A genus-2 sequence with small increments: short shifts pass epsilon 0.5, long ones fail."""
    surface = SurfaceSpec(2)
    assign = CycleAssignment(
        surface, (0.03, 0.05, 0.02, 0.04), (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0))
    )
    return PhaseSequence(surface, WindingChain(surface, (1, 1, 1, 1)), assign, horizon)


_SCAN = (0.5, 10.0, 1.0)  # epsilon, search_bound, sample_step


class _Scan:
    """What one almost-period scan did: its report, per shift the threads and blocks, and the most threads alive."""

    def __init__(self):
        self.report, self.threads, self.blocks, self.most_alive = None, {}, {}, 0


def _scanned(seq, workers, gate=False):
    """find_almost_periods(seq, *_SCAN) with ``workers`` usable CPUs, recording every block.

    With ``gate``, a pool thread holds its first block until the caller has
    started a shift, so the caller scans at least one.
    """
    run, evaluate, caller_started = _Scan(), sequence._block_discrepancy, threading.Event()

    def recording_block(cuts, shift, *rest):
        thread = threading.current_thread()
        if thread is threading.main_thread():
            caller_started.set()
        elif gate:
            assert caller_started.wait(timeout=60.0)
        run.threads.setdefault(float(shift), set()).add(thread)
        run.blocks.setdefault(float(shift), []).append(np.unique(cuts))
        run.most_alive = max(run.most_alive, threading.active_count())
        return evaluate(cuts, shift, *rest)

    with mock.patch.object(sequence, "_usable_cpus", lambda: workers), \
            mock.patch.object(sequence, "_block_discrepancy", recording_block):
        run.report = find_almost_periods(seq, *_SCAN)
    return run


def _assert_same_blocks(run, one_thread):
    """Each shift's blocks in ``run`` are the one-thread run's, in its order."""
    assert run.blocks.keys() == one_thread.blocks.keys()
    for shift, blocks in run.blocks.items():
        expected = one_thread.blocks[shift]
        assert len(blocks) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, expected))


def test_almost_period_scan_is_equal_for_every_worker_count():
    seq = _scan_sequence()
    baseline = threading.active_count()
    runs = {workers: _scanned(seq, workers, gate=True) for workers in (1, 2, 3, 4)}
    expected = runs[1].report
    # passing and failing shifts, over windows of several blocks
    assert 0 < len(expected.candidates) < expected.scanned
    assert max(len(blocks) for blocks in runs[1].blocks.values()) > 3
    assert expected == almost_periods_whole_window(seq, *_SCAN)
    assert set().union(*runs[1].threads.values()) == {threading.main_thread()}
    for workers, run in runs.items():
        assert run.report == expected
        # every (block, shift) task scanned exactly once, each shift's blocks
        # in the one-thread order; the caller among the scanning threads
        assert len(run.threads) == expected.scanned
        _assert_same_blocks(run, runs[1])
        # the caller scans, and at no time do more than ``workers`` threads
        assert threading.main_thread() in set().union(*run.threads.values())
        assert run.most_alive <= baseline + workers - 1


def test_almost_period_scan_is_equal_under_fast_switching():
    seq = _scan_sequence()
    expected = _scanned(seq, 1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        run = _scanned(seq, 8)
    finally:
        sys.setswitchinterval(interval)
    assert run.report == expected.report
    assert len(run.threads) == expected.report.scanned
    _assert_same_blocks(run, expected)


def test_capped_scan_blocks_end_at_base_event_times():
    seq = _scan_sequence()
    expected = _scanned(seq, 1).report
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 64):
        run = _scanned(seq, 2)
    assert run.report == expected == almost_periods_whole_window(seq, *_SCAN)
    window_end = expected.window[1]
    times = np.unique(sequence.event_arrays(seq, 0.0, seq.horizon)[0])
    edges = set(times[times <= window_end].tolist()) | {0.0, window_end}
    passing = {c.shift for c in expected.candidates}
    for shift, blocks in run.blocks.items():
        assert all(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(b[0] in edges and b[-1] in edges for b in blocks)
        if shift in passing:
            # scanned to the window end in blocks of at most 64 base event times
            assert blocks[-1][-1] == window_end
            assert len(blocks) >= np.searchsorted(times, window_end, side="right") / 64


@pytest.mark.parametrize("search_bound", [10.0, 200.0])
def test_a_scan_whose_shifts_reach_past_the_held_rows_pulls_more_chunks(search_bound):
    # 16-event windows: a block's end plus the largest shift passes the rows it first pulled
    seq = _scan_sequence(2000.0)
    scan = (0.5, search_bound, 1.0)
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 16):
        report = find_almost_periods(seq, *scan)
    assert report == almost_periods_whole_window(seq, *scan)


def test_a_one_cpu_scan_starts_no_thread():
    seq = _scan_sequence()
    baseline = threading.active_count()
    with mock.patch("threading.Thread", wraps=threading.Thread) as thread:
        run = _scanned(seq, 1)
    thread.assert_not_called()
    assert set().union(*run.threads.values()) == {threading.main_thread()}
    assert threading.active_count() == baseline


def test_usable_cpus_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sequence._usable_cpus() == 3
    # os.cpu_count() is None where the count cannot be determined
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sequence._usable_cpus() == 1


def _recording_threads(made, fail_at=None, before_failing=None):
    """A threading.Thread subclass that appends each thread it starts to ``made``.

    The ``fail_at``-th start (counting from 1) raises RuntimeError instead,
    once ``before_failing`` (an Event) is set.
    """

    class Recording(threading.Thread):
        def start(self):
            made.append(self)
            if len(made) == fail_at:
                assert before_failing.wait(timeout=60.0)
                raise RuntimeError("cannot start thread")
            super().start()

    return Recording


@pytest.mark.parametrize("tasks, threads", [(1, 0), (3, 2), (10, 3)])
def test_run_tasks_starts_a_thread_per_usable_cpu_past_the_caller_and_joins_them(tasks, threads):
    made, done, baseline = [], [], threading.active_count()
    with mock.patch.object(sequence, "_usable_cpus", lambda: 4), \
            mock.patch.object(threading, "Thread", _recording_threads(made)):
        sequence._run_tasks([(j,) for j in range(tasks)], lambda: None, lambda _, j: done.append(j))
    assert sorted(done) == list(range(tasks))
    assert len(made) == threads
    assert not any(thread.is_alive() for thread in made)
    assert threading.active_count() == baseline


def test_a_thread_that_fails_to_start_is_raised_after_the_started_thread_is_joined():
    made, lock, running, taken = [], threading.Lock(), [0], []
    busy, failed = threading.Event(), threading.Event()

    def task(_, j):
        with lock:
            running[0] += 1
            taken.append(j)
        busy.set()
        # still running when the second start fails, and for a while after
        assert failed.wait(timeout=60.0)
        time.sleep(0.05)
        with lock:
            running[0] -= 1

    class Failing(_recording_threads(made, 2, busy)):
        def start(self):
            try:
                super().start()
            except RuntimeError:
                failed.set()
                raise

    baseline = threading.active_count()
    with mock.patch.object(sequence, "_usable_cpus", lambda: 4), \
            mock.patch.object(threading, "Thread", Failing):
        with pytest.raises(RuntimeError, match="cannot start thread"):
            sequence._run_tasks([(j,) for j in range(10)], lambda: None, task)
    assert len(made) == 2 and not made[0].is_alive()
    assert threading.active_count() == baseline
    # the first thread ended its one task before the error came back, and no task started since
    assert running == [0] and len(taken) == 1
    time.sleep(0.05)
    assert len(taken) == 1


def test_a_scan_builds_its_table_on_the_caller():
    seq = _scan_sequence()
    calls = []

    def recording(name, original):
        def call(*args):
            calls.append((name, threading.current_thread()))
            return original(*args)

        return call

    with mock.patch.object(sequence, "_WINDOW_EVENTS", 64), \
            mock.patch.object(sequence, "event_arrays", recording("event_arrays", sequence.event_arrays)), \
            mock.patch.object(sequence, "phase_at_many", recording("phase_at_many", sequence.phase_at_many)):
        run = _scanned(seq, 4)
    # many blocks, every table call on the caller
    assert max(len(blocks) for blocks in run.blocks.values()) > 3
    assert {name for name, _ in calls} == {"event_arrays", "phase_at_many"}
    assert {thread for _, thread in calls} == {threading.main_thread()}


def _assert_a_failure_stops_the_tasks(workers, reduce, total, name, starts_task):
    """reduce() with ``workers`` usable CPUs, where sequence.<name> fails on its first call.

    ``starts_task(*args)`` says whether a call of sequence.<name> is the
    first of a task.  The error reaches the caller after every thread has
    ended, and after it no thread starts more than the one task it may have
    taken just before: far fewer than the ``total`` tasks.
    """
    record, lock, calls = [], threading.Lock(), itertools.count()
    original = getattr(sequence, name)

    def failing_first(*args):
        with lock:
            if starts_task(*args):
                record.append(("start", threading.current_thread()))
            first = next(calls) == 0
            if first:
                record.append(("failed", threading.current_thread()))
        if first:
            raise ZeroDivisionError("task failed")
        return original(*args)

    baseline = threading.active_count()
    with mock.patch.object(sequence, "_usable_cpus", lambda: workers), \
            mock.patch.object(sequence, name, failing_first):
        with pytest.raises(ZeroDivisionError, match="task failed"):
            reduce()
    assert threading.active_count() == baseline
    # the failing call holds the lock first, so it started the first task
    assert [kind for kind, _ in record[:2]] == ["start", "failed"]
    after = [thread for _, thread in record[2:]]
    assert record[1][1] not in after
    assert all(after.count(thread) <= 1 for thread in after)
    assert len(after) <= workers - 1 and 1 + len(after) < total


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failing_window_stops_every_thread_taking_windows(workers):
    seq = _genus2_pair(300.0).sequence_a
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 16):
        windows = len(sequence._Windows(seq, (300.0,)))
        assert windows >= 40
        # one _window_terms call per window
        _assert_a_failure_stops_the_tasks(
            workers, lambda: bohr_mean(seq, 300.0), windows, "_window_terms", lambda *_: True
        )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failing_shift_stops_every_thread_taking_shifts(workers):
    seq = _scan_sequence()
    scanned = find_almost_periods(seq, *_SCAN).scanned
    assert scanned >= 20
    seen = set()

    def first_block(cuts, shift, *rest):
        new = float(shift) not in seen
        seen.add(float(shift))
        return new

    _assert_a_failure_stops_the_tasks(
        workers, lambda: find_almost_periods(seq, *_SCAN), scanned, "_block_discrepancy", first_block
    )


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
def test_window_integrals_are_the_window_terms_folded_in_order(data, pair, window_events):
    """Each end's row is the running sum, from +0 and in window order, of the windows before it."""
    seq = data.draw(st.sampled_from([pair.sequence_a, pair.sequence_b, pair.difference]))
    lam = st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0)
    lams = np.array(data.draw(st.lists(lam, min_size=1, max_size=4)))
    ends = data.draw(st.lists(st.floats(0.5, pair.horizon), min_size=1, max_size=4))
    ends = sorted(ends + ends[:1])  # one end repeated
    with mock.patch.object(sequence, "_WINDOW_EVENTS", window_events):
        got = sequence._window_integrals(seq, lams, ends)
        windows = sequence._Windows(seq, ends)
        buffers = windows.buffers()
        running, at_cut = np.zeros(lams.size, dtype=complex), {}
        for j in range(len(windows)):
            running = running + sequence._window_terms(lams, *windows.build(j, buffers), buffers)
            at_cut[float(windows.cuts[j + 1])] = running
    assert got.tobytes() == np.array([at_cut[end] for end in ends]).tobytes()


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
