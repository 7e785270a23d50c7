import cmath
import inspect
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fourier_spectrum_exact, phase_fraction
from test_cli_outputs import HOSTILE
from windingphase import (
    AlmostPeriodReport,
    CycleAssignment,
    DimensionError,
    DomainError,
    PairConfig,
    PhaseSequence,
    SurfaceSpec,
    U1Phase,
    WindingChain,
    WindingPhaseError,
    bohr_mean,
    certify_incommensurable,
    chsh,
    correlation,
    correlations,
    event_arrays,
    event_count,
    events_in,
    find_almost_periods,
    fourier_bohr_coefficient,
    fourier_spectrum,
    holonomy_loop,
    pairing,
    phase_at,
    phase_at_many,
    randomness_battery,
    relative_phase,
    residual_curve,
    score_phase_samples,
    sequence,
    wrap_angle,
    write_event_log,
)
from windingphase.correlation import _doubled
from windingphase.topology import _dot_mod_2pi

TWO_PI = 2.0 * math.pi
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def make_seq(genus, coeffs, betas, periods, horizon):
    s = SurfaceSpec(genus)
    return PhaseSequence(
        s, WindingChain(s, coeffs), CycleAssignment(s, betas, periods), horizon
    )


def replay_oracle(seq, tau):
    """Independent oracle: fold the event increments in (0, tau], then wrap."""
    total = 0.0
    if tau > 0:
        for ev in events_in(seq, 0.0, tau):
            total += ev.increment
    return wrap_angle(total)


def _phase_rounding_bound(seq, tau):
    """How far phase_at_many(seq, tau) may lie from the exact n @ increments mod 2 pi.

    phase_at_many reduces the float dot product n @ increments, whose error
    grows with the counts.  For k terms it is at most gamma_k * sum|n_i *
    inc_i|, gamma_k = k u / (1 - k u) with u the unit roundoff (counts below
    2**53 are exact); the mod adds one rounding of a value below 2 pi, and
    rounding the exact value to a float another.
    """
    _, periods, increments = seq._active_arrays()
    u = 2.0**-53
    gamma_k = increments.size * u / (1.0 - increments.size * u)
    counts = sequence._completed_windings(tau, periods)
    return gamma_k * float(np.sum(np.abs(counts * increments))) + 2.0 * u * TWO_PI


def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestEvents:
    def test_single_active_cycle(self):
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        evs = events_in(seq, 0.0, 3.5)
        assert [(e.time, e.cycle_index) for e in evs] == [(1.0, 0), (2.0, 0), (3.0, 0)]
        assert all(e.increment == 0.7 for e in evs)

    def test_zero_chain_emits_nothing(self):
        seq = make_seq(1, (0, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        assert events_in(seq, 0.0, 50.0) == []
        assert event_count(seq, 0.0, 50.0) == 0

    def test_simultaneous_events_tie_broken_by_cycle_index(self):
        # hand enumeration: cycle 1 (T=0.5) fires at 0.5 and 1.0; cycle 0
        # (T=1) fires at 1.0; the tie at 1.0 orders cycle 0 first
        seq = make_seq(1, (1, 1), (0.2, 0.4), (1.0, 0.5), 100.0)
        evs = events_in(seq, 0.0, 1.0)
        assert [(e.time, e.cycle_index) for e in evs] == [(0.5, 1), (1.0, 0), (1.0, 1)]

    def test_window_is_half_open_on_the_left(self):
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        times = [e.time for e in events_in(seq, 1.0, 3.0)]
        assert times == [2.0, 3.0]

    def test_event_times_are_exact_period_multiples(self):
        seq = make_seq(1, (1, 1), (0.2, 0.4), (math.sqrt(2), 0.3), 200.0)
        for ev in events_in(seq, 0.0, 150.0):
            period = seq.assignment.periods[ev.cycle_index]
            n = round(ev.time / period)
            assert ev.time == n * period  # generated as n*T, no drift

    def test_event_count_matches_enumeration(self):
        seq = make_seq(2, (1, -2, 0, 3), (0.2, 0.4, 0.1, 0.9), (1.0, math.sqrt(2), 0.5, 0.75), 500.0)
        assert event_count(seq, 3.0, 77.0) == len(events_in(seq, 3.0, 77.0))

    def test_inverted_window_rejected(self):
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        with pytest.raises(DomainError):
            events_in(seq, 3.0, 2.0)
        with pytest.raises(DomainError):
            events_in(seq, -1.0, 2.0)
        with pytest.raises(DomainError):
            events_in(seq, 0.0, 101.0)

    def test_increment_is_winding_times_beta(self):
        seq = make_seq(1, (3, -2), (0.5, 0.25), (1.0, 2.0), 10.0)
        evs = events_in(seq, 0.0, 2.0)
        by_cycle = {e.cycle_index: e.increment for e in evs}
        assert by_cycle[0] == pytest.approx(1.5, abs=1e-15)
        assert by_cycle[1] == pytest.approx(-0.5, abs=1e-15)

    def test_winding_counts_past_two_to_the_63_are_refused(self):
        # int64 holds no count of 2**63; the largest float below it is a count it holds
        below = np.nextafter(2.0**63, 0.0)
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 1e19)
        assert event_count(seq, 0.0, below) == int(below)
        for refused in (
            lambda: event_count(seq),
            lambda: event_count(seq, 0.0, 2.0**63),
            lambda: sequence.event_arrays(seq, 2.0**63, 1e19),
            lambda: phase_at(seq, 2.0**63),
            lambda: phase_at_many(seq, [0.0, 1e19]),
        ):
            with pytest.raises(DomainError, match=r"below 2\*\*63"):
                refused()
        # a count past the limit at a short time, from a tiny period
        tiny = make_seq(1, (1, 0), (0.7, 0.3), (1e-300, 1.0), 1e4)
        with pytest.raises(DomainError, match=r"below 2\*\*63"):
            event_count(tiny)


def test_an_increment_with_no_float_is_refused():
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (2.0, 1.0), (1.0, math.sqrt(2)))
    # 10**308 * 2.0 overflows to inf, yet the pairing, exact in integers, has it
    overflowing = WindingChain(s, (10**308, 0))
    assert 0.0 <= pairing(overflowing, assign).angle < TWO_PI
    for chain in (overflowing, WindingChain(s, (0, 10**400))):
        with pytest.raises(DomainError, match="finite float"):
            PhaseSequence(s, chain, assign, 100.0)
    # with beta 1.0 these have increments -1e308 and 1e308; their difference and doubles do not
    unit = CycleAssignment(s, (1.0, 1.0), (1.0, math.sqrt(2)))
    a = PhaseSequence(s, WindingChain(s, (-(10**308), 0)), unit, 100.0)
    b = PhaseSequence(s, WindingChain(s, (10**308, 0)), unit, 100.0)
    for derived in (lambda: PairConfig(a, b).difference, lambda: _doubled(b)):
        with pytest.raises(DomainError, match="finite float"):
            derived()


def test_a_coefficient_times_winding_count_with_no_float_is_refused():
    # m * beta = 1e5 is a float, but m times 5e3 or 1e4 windings is not;
    # the second cycle's events make bohr_mean start a window past t = 5e3
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (1e-300, 4.59961087822572), (1.0, math.sqrt(2)))
    seq = PhaseSequence(s, WindingChain(s, (10**305, 1)), assign, 1e4)
    for refused in (
        lambda: phase_at(seq, 1e4),
        lambda: bohr_mean(seq, 1e4),
        lambda: bohr_mean(_doubled(seq), 1e4),
    ):
        with pytest.raises(DomainError, match=r"winding count must round to a float \(magnitude below 2\*\*1024\)"):
            refused()


# Window counts no array could hold: the 2**63 winding-count refusal comes
# before any window is cut.
def test_window_routes_refuse_counts_past_two_to_the_63_before_cutting(tmp_path):
    huge = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 1e19)
    other = make_seq(1, (0, 1), (0.7, 0.3), (1.0, 5.0), 1e19)
    tiny = make_seq(1, (1, 0), (0.7, 0.3), (1e-300, 1.0), 1e4)
    log = tmp_path / "events.csv"
    for refused in (
        lambda: bohr_mean(huge, 1e19),
        lambda: fourier_spectrum(huge, [0.5], 1e19),
        lambda: find_almost_periods(huge, 0.3, 10.0, 1.0),
        lambda: residual_curve(PairConfig(huge, other), 0.0, 0.0, [1e19]),
        lambda: write_event_log(log, huge),
        lambda: bohr_mean(tiny, 1e4),
        lambda: write_event_log(log, tiny),
    ):
        with pytest.raises(DomainError, match=r"below 2\*\*63"):
            refused()
    assert not log.exists()


# Periods so small that a quotient by them overflows are refused as such,
# with no numpy overflow warning (an error under the test filters) first.
def test_active_periods_whose_event_rate_overflows_are_refused():
    # 1 / 5e-324 and 1 / 1e-310 overflow: the event rate sum(1 / T) has no float
    for periods, horizon in (((5e-324, 1.0), 1e4), ((1e-310, 1.0), 1e-305)):
        with pytest.raises(DomainError, match="event rate"):
            make_seq(1, (1, 1), (0.7, 0.3), periods, horizon)
    # an inactive cycle fires no event, whatever its period
    assert event_count(make_seq(1, (0, 1), (0.7, 0.3), (5e-324, 1.0), 1e4)) == 10**4


def test_a_winding_count_that_overflows_to_inf_is_refused():
    far = make_seq(1, (1, 0), (0.7, 0.3), (1e-10, 1.0), 1e300)
    with pytest.raises(DomainError, match=r"below 2\*\*63, got inf"):
        event_count(far)


def test_almost_period_scan_refuses_a_count_past_two_to_the_63_before_its_lattice():
    tiny = make_seq(1, (1, 0), (0.7, 0.3), (1e-300, 1.0), 1e4)
    with pytest.raises(DomainError, match=r"below 2\*\*63"):
        find_almost_periods(tiny, 0.3, 10.0, 1.0)


def test_almost_period_scan_refuses_a_period_lattice_past_its_float_bound():
    # the winding counts stay below 2**63, but period 1's multiples up to 4e18 fit no array
    seq = make_seq(1, (1, 1), (0.7, 0.3), (1.0, 2.0), 8e18)
    with pytest.raises(DomainError, match=r"smallest pitch 1\.0 "):
        find_almost_periods(seq, 0.5, 4e18, 1e10)


def test_almost_period_scan_refuses_a_grid_past_the_address_space():
    # 1e17 shifts would take 711 PiB
    seq = make_seq(1, (1, -1), (0.7, 0.3), (1.0, math.sqrt(2.0)), 200.0)
    with pytest.raises(DomainError, match="smallest pitch 1e-15"):
        find_almost_periods(seq, 0.5, 100.0, 1e-15)


def test_randomness_battery_refuses_a_sample_count_past_the_address_space():
    # 2**58 samples would take 2 EiB
    seq = make_seq(1, (1, -1), (0.7, 0.3), (1.0, math.sqrt(2.0)), 200.0)
    with pytest.raises(DomainError, match="n_samples must be <= 17592186044416"):
        randomness_battery(seq, 10.0, 2**58)


def test_sequence_parts_must_live_on_its_surface():
    s1, s2 = SurfaceSpec(1), SurfaceSpec(2)
    assign = CycleAssignment(s1, (0.5, 0.5), (1.0, 2.0))
    with pytest.raises(DimensionError, match="chain"):
        PhaseSequence(s1, WindingChain(s2, (1, 0, 0, 0)), assign, 10.0)
    with pytest.raises(DimensionError, match="assignment"):
        PhaseSequence(s2, WindingChain(s2, (1, 0, 0, 0)), assign, 10.0)


# Array arguments that are not real numbers a float holds: a string (numeric
# ones too, which a float conversion would parse), an int past the float
# range, or complex values, whose imaginary parts a float conversion drops
# with only a warning.
ARRAY_ENTRY_POINTS = {
    "phase_at_many": phase_at_many,
    "fourier_spectrum": lambda seq, values: fourier_spectrum(seq, values, 10.0),
    "score_phase_samples": lambda seq, values: score_phase_samples(
        values * 500 if isinstance(values, list) else np.tile(values, 500)
    ),
    "holonomy_loop": lambda seq, values: holonomy_loop(list(zip([0.0, 1.0], values))),
}


@pytest.mark.parametrize(
    "values",
    [["x", 1.0], ["2.5", 1.0], [b"3", 1.0], ["2.5", 2**70], [10**400, 1.0], [1j, 1.0], np.array([1j, 1.0])],
    ids=["string", "numeric_string", "bytes", "string_in_objects", "huge_int", "complex_list", "complex_array"],
)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_arguments_that_are_not_reals_are_refused(entry, values):
    seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
    with pytest.raises(DomainError):
        ARRAY_ENTRY_POINTS[entry](seq, values)


# The library twin of the CLI's hostile-config property: every public function
# with numeric or sequence arguments, called on a genus-1 pair at horizon 200
# with arguments from that property's pool (plus a few shapes: short and
# 3-long tuples, one-element lists and float arrays), returns or raises a
# WindingPhaseError whose message is at most 200 characters.  Integers in the
# pool are below 1000 or past sequence._MOST_FLOATS = 2**44, so no admitted
# sample count or shift count allocates much.
_SURFACE = SurfaceSpec(1)
_ASSIGN = CycleAssignment(_SURFACE, (0.7, 0.3), (1.0, math.sqrt(2.0)))
_SEQ = PhaseSequence(_SURFACE, WindingChain(_SURFACE, (1, -1)), _ASSIGN, 200.0)
_PAIR = PairConfig(_SEQ, PhaseSequence(_SURFACE, WindingChain(_SURFACE, (0, 1)), _ASSIGN, 200.0))
LIBRARY_CALLS = {
    "SurfaceSpec": SurfaceSpec,
    "WindingChain": lambda coefficients: WindingChain(_SURFACE, coefficients),
    "CycleAssignment": lambda betas, periods: CycleAssignment(_SURFACE, betas, periods),
    "U1Phase": U1Phase,
    "holonomy_loop": holonomy_loop,
    "certify_incommensurable": lambda depth, tolerance: certify_incommensurable(_ASSIGN, depth, tolerance),
    "PhaseSequence": lambda horizon: PhaseSequence(_SURFACE, _SEQ.chain, _ASSIGN, horizon),
    "phase_at": lambda tau: phase_at(_SEQ, tau),
    "phase_at_many": lambda taus: phase_at_many(_SEQ, taus),
    "event_count": lambda t0, t1: event_count(_SEQ, t0, t1),
    "event_arrays": lambda t0, t1: event_arrays(_SEQ, t0, t1),
    "events_in": lambda t0, t1: events_in(_SEQ, t0, t1),
    "write_event_log": lambda t0, t1: write_event_log(os.devnull, _SEQ, t0, t1),
    "bohr_mean": lambda t: bohr_mean(_SEQ, t),
    "fourier_spectrum": lambda lams, t: fourier_spectrum(_SEQ, lams, t),
    "fourier_bohr_coefficient": lambda lam, t: fourier_bohr_coefficient(_SEQ, lam, t),
    "find_almost_periods": lambda eps, bound, step: find_almost_periods(_SEQ, eps, bound, step),
    "randomness_battery": lambda t, n, seed: randomness_battery(_SEQ, t, n, seed),
    "score_phase_samples": score_phase_samples,
    "relative_phase": lambda tau: relative_phase(_PAIR, tau),
    "correlation": lambda theta_a, theta_b, t: correlation(_PAIR, theta_a, theta_b, t),
    "correlations": lambda angle_pairs, t: correlations(_PAIR, angle_pairs, t),
    "residual_curve": lambda theta_a, theta_b, horizons: residual_curve(_PAIR, theta_a, theta_b, horizons),
    "chsh": lambda a1, a2, b1, b2, t: chsh(_PAIR, a1, a2, b1, b2, t),
}
# numpy values that a float conversion would read as numbers: a complex (its
# imaginary part dropped), a 0-d boolean array, a datetime and a timedelta
NON_NUMBERS = (np.complex128(100 + 5j), np.array(True), np.datetime64(1, "s"), np.timedelta64(3))


def sampled(values):
    """A draw from ``values``, by index: hypothesis hashes what it samples, and an array or np.timedelta64(3) has no hash."""
    return st.sampled_from(range(len(values))).map(values.__getitem__)


_SCALARS = sampled(HOSTILE + NON_NUMBERS + (2**62, 0.5, 2.0, 100.0))
_SHAPES = st.sampled_from([(0.1,), [1.0]]) | st.tuples(_SCALARS, _SCALARS, _SCALARS) | st.tuples(_SCALARS, _SCALARS)
_ARGUMENTS = (
    _SCALARS
    | _SHAPES
    | st.lists(_SCALARS | _SHAPES, max_size=4)
    | st.lists(st.sampled_from([0.0, 1.0, 0.5, math.nan]), max_size=4).map(np.array)
)


@settings(max_examples=200, deadline=10000, derandomize=True)
@given(name=st.sampled_from(sorted(LIBRARY_CALLS)), data=st.data())
@example(name="WindingChain", data=SimpleNamespace(draw=lambda strategy: 1))  # not iterable
def test_hostile_library_arguments_give_a_result_or_a_short_refusal(name, data):
    call = LIBRARY_CALLS[name]
    args = [data.draw(_ARGUMENTS) for _ in inspect.signature(call).parameters]
    try:
        call(*args)
    except WindingPhaseError as error:
        assert len(str(error)) <= 200, str(error)


@pytest.mark.parametrize(
    "call",
    [
        lambda: residual_curve(_PAIR, 0.0, 0.0, None),
        lambda: phase_at_many(_SEQ, None),
        lambda: phase_at_many(_SEQ, [1.0, None]),
    ],
    ids=["residual_curve", "phase_at_many", "phase_at_many_element"],
)
def test_none_is_refused_by_name(call):
    with pytest.raises(DomainError, match="got None$"):
        call()


@pytest.mark.parametrize("value", NON_NUMBERS, ids=["complex", "bool_array", "datetime", "timedelta"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: phase_at(_SEQ, x),
        lambda x: bohr_mean(_SEQ, x),
        lambda x: correlation(_PAIR, 0.0, 0.0, x),
        lambda x: correlation(_PAIR, x, 0.0, 100.0),
        lambda x: chsh(_PAIR, 0.0, 0.0, x, 0.0, 100.0),
        lambda x: residual_curve(_PAIR, 0.0, 0.0, [x]),
        lambda x: phase_at_many(_SEQ, [0.5, x]),
    ],
    ids=["phase_at", "bohr_mean", "correlation_t", "correlation_angle", "chsh_angle", "residual_curve", "phase_at_many"],
)
def test_numpy_values_that_are_not_real_numbers_are_refused(call, value):
    with pytest.raises(DomainError):
        call(value)


class TestPhaseAt:
    def test_zero_before_first_winding(self):
        seq = make_seq(1, (1, 1), (0.7, 0.3), (2.0, 3.0), 100.0)
        assert phase_at(seq, 0.0) == 0.0
        assert phase_at(seq, 1.9) == 0.0

    def test_closed_form_against_replay(self):
        seq = make_seq(1, (1, 0), (math.pi / 2, 0.3), (1.0, 5.0), 100.0)
        assert phase_at(seq, 3.2) == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert circular_distance(phase_at(seq, 3.2), replay_oracle(seq, 3.2)) <= 1e-12

    def test_full_turn_wraps_to_zero(self):
        # 2 * (pi/2) * 2 completed windings = 2*pi = 0
        seq = make_seq(1, (2, 0), (math.pi / 2, 0.3), (1.0, 5.0), 100.0)
        assert circular_distance(phase_at(seq, 2.0), 0.0) <= 1e-12

    def test_right_continuous_at_event_times(self):
        seq = make_seq(1, (1, 0), (0.7, 0.0), (1.0, 5.0), 100.0)
        assert phase_at(seq, 0.999) == 0.0
        assert phase_at(seq, 1.0) == pytest.approx(0.7, abs=1e-15)

    def test_domain_checks(self):
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        with pytest.raises(DomainError):
            phase_at(seq, -0.1)
        with pytest.raises(DomainError):
            phase_at(seq, 100.5)
        with pytest.raises(DomainError):
            phase_at_many(seq, [1.0, 100.5])

    def test_vectorized_takes_scalars_and_1d_arrays_only(self):
        seq = make_seq(1, (1, 0), (0.7, 0.3), (1.0, 5.0), 100.0)
        assert phase_at_many(seq, 2.5).shape == (1,)
        assert phase_at_many(seq, []).shape == (0,)
        for taus in ([[1.0, 2.0], [3.0, 4.0]], np.zeros((0, 3))):
            with pytest.raises(DomainError, match="1-d"):
                phase_at_many(seq, taus)

    def test_oracle_equivalence_random_draws(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            g = int(rng.integers(0, 3))
            n = 2 * g
            periods = tuple(float(p) for p in rng.uniform(0.2, 3.0, n))
            betas = tuple(float(b) for b in rng.uniform(0, TWO_PI, n))
            coeffs = tuple(int(c) for c in rng.integers(-5, 6, n))
            seq = make_seq(g, coeffs, betas, periods, 60.0)
            tau = float(rng.uniform(0, 50.0))
            assert circular_distance(phase_at(seq, tau), replay_oracle(seq, tau)) <= 1e-9

    def test_vectorized_matches_scalar(self):
        seq = make_seq(1, (2, -1), (0.9, 1.7), (1.0, math.sqrt(2)), 100.0)
        taus = np.linspace(0.0, 90.0, 500)
        many = phase_at_many(seq, taus)
        for tau, ph in zip(taus[::25], many[::25]):
            assert circular_distance(float(ph), phase_at(seq, float(tau))) <= 1e-9

    def test_invariant_under_basis_permutation(self):
        # permuting the (m, beta, T) triples together leaves the phase
        # bit-identical: the accumulation uses exactly rounded summation
        seq1 = make_seq(2, (1, -2, 3, 0), (0.3, 0.7, 1.1, 0.2), (1.0, 1.5, 0.8, 2.0), 100.0)
        seq2 = make_seq(2, (3, 1, 0, -2), (1.1, 0.3, 0.2, 0.7), (0.8, 1.0, 2.0, 1.5), 100.0)
        for tau in (0.0, 0.4, 1.6, 7.77, 42.123, 99.5):
            assert phase_at(seq1, tau) == phase_at(seq2, tau)

    @pytest.mark.parametrize("tau", [1e4, 1e6, 1e8])
    def test_exact_against_rational_reduction(self, tau):
        # canonical difference chain: the winding counts reach ~1e8, where a
        # float sum of increment * count was off by ~5e-8
        betas = (TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0))
        seq = make_seq(1, (-1, 1), betas, (1.0, math.sqrt(2.0)), 1e8)
        assert circular_distance(phase_at(seq, tau), phase_fraction(seq, tau)) <= 1e-15

    @pytest.mark.parametrize("tau", [1e4, 1e6, 1e8])
    def test_vectorized_within_its_dot_product_rounding_bound(self, tau):
        # increments of the -1, 1 chain are exact, so phase_fraction is the
        # exact value of the dot product that _phase_rounding_bound bounds
        betas = (TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0))
        seq = make_seq(1, (-1, 1), betas, (1.0, math.sqrt(2.0)), 1e8)
        taus = np.linspace(tau / 2.0, tau, 9)
        for t, got in zip(taus.tolist(), phase_at_many(seq, taus).tolist()):
            assert circular_distance(got, phase_fraction(seq, t)) <= _phase_rounding_bound(seq, t)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_vectorized_equals_one_product_over_all_times(self, genus):
        # phase_at_many evaluates its winding table in row chunks aligned at
        # row 0, the last running to the end; every row must keep the bits
        # of one n @ increments product over the whole table
        rng = np.random.default_rng(genus)
        n = 2 * genus
        coeffs = tuple(int(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], n))
        betas = tuple(float(b) for b in rng.uniform(0.0, TWO_PI, n))
        periods = tuple(float(p) for p in rng.uniform(0.5, 3.0, n))
        seq = make_seq(genus, coeffs, betas, periods, 1e6)
        _, periods, increments = seq._active_arrays()
        w = sequence._WINDOW_EVENTS
        for size in (w - 1, w, w + 1, 2 * w + 1, 3 * w + 5):
            taus = np.sort(rng.uniform(0.0, 1e6, size))
            whole = np.mod(sequence._completed_windings(taus, periods) @ increments, TWO_PI)
            whole[whole >= TWO_PI] = 0.0
            assert phase_at_many(seq, taus).tobytes() == whole.tobytes()

    def test_active_period_count_bounded_by_basis(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            g = int(rng.integers(0, 4))
            n = 2 * g
            coeffs = tuple(int(c) for c in rng.integers(-3, 4, n))
            periods = tuple(float(p) for p in rng.uniform(0.2, 5.0, n))
            betas = tuple(float(b) for b in rng.uniform(0, TWO_PI, n))
            seq = make_seq(g, coeffs, betas, periods, 50.0)
            active = seq.active_cycles
            assert len(active) == sum(1 for c in coeffs if c != 0)
            assert len(active) <= 2 * g
            emitting = {e.cycle_index for e in events_in(seq, 0.0, 50.0)}
            expected = {i for i in active if periods[i] <= 50.0}
            assert emitting == expected


class TestBohrMean:
    def test_constant_phase(self):
        seq = make_seq(0, (), (), (), 100.0)
        m = bohr_mean(seq, 10.0)
        assert m == 1.0 + 0.0j

    def test_alternating_half_turns_cancel(self):
        # increments of pi alternate the factor between +1 and -1; a whole
        # number of pairs cancels exactly
        seq = make_seq(1, (1, 0), (math.pi, 0.0), (1.0, 5.0), 100.0)
        assert abs(bohr_mean(seq, 10.0)) <= 1e-12

    def test_golden_rotation_equidistributes(self):
        beta = TWO_PI * (PHI % 1.0)
        seq = make_seq(1, (1, 0), (beta, 0.0), (1.0, 3.0), 10000.0)
        m = bohr_mean(seq, 10000.0)
        assert abs(m) <= 0.02
        # independent oracle: unit segments make the integral a plain sum
        ks = np.arange(10000)
        oracle = np.sum(np.exp(1j * np.mod(ks * beta, TWO_PI))) / 10000.0
        assert abs(m - oracle) <= 1e-9

    def test_long_horizon_matches_geometric_series(self):
        # unit segments with phases k*beta: the mean is a geometric series,
        # and e^{i beta N} comes from the exact reduction of N*beta mod 2*pi
        beta = TWO_PI * (PHI % 1.0)
        n = 1_000_000
        seq = make_seq(1, (1, 0), (beta, 0.0), (1.0, 3.0 * n), float(n))
        closed = (1.0 - cmath.exp(1j * _dot_mod_2pi([n], [beta]))) / (n * (1.0 - cmath.exp(1j * beta)))
        assert abs(bohr_mean(seq, float(n)) - closed) <= 1e-13

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = int(rng.integers(0, 3))
            n = 2 * g
            seq = make_seq(
                g,
                tuple(int(c) for c in rng.integers(-4, 5, n)),
                tuple(float(b) for b in rng.uniform(0, TWO_PI, n)),
                tuple(float(p) for p in rng.uniform(0.3, 4.0, n)),
                100.0,
            )
            t = float(rng.uniform(1.0, 100.0))
            assert abs(bohr_mean(seq, t)) <= 1.0 + 1e-12

    def test_magnitude_one_only_when_constant(self):
        # no event before t: magnitude 1; events with nonzero increment: < 1
        seq = make_seq(1, (1, 0), (1.0, 0.0), (5.0, 7.0), 100.0)
        assert abs(bohr_mean(seq, 4.0)) == pytest.approx(1.0, abs=1e-15)
        assert abs(bohr_mean(seq, 20.0)) < 1.0 - 1e-3

    def test_domain_checks(self):
        seq = make_seq(1, (1, 0), (1.0, 0.0), (1.0, 1.0), 100.0)
        with pytest.raises(DomainError):
            bohr_mean(seq, 0.0)
        with pytest.raises(DomainError):
            bohr_mean(seq, 101.0)
        # numpy divides by t as a multiply by 1/t, which overflows below ~5.6e-309
        for t in (5e-324, 1e-310):
            with pytest.raises(DomainError, match="t must be at least"):
                bohr_mean(seq, t)
            with pytest.raises(DomainError, match="t must be at least"):
                fourier_spectrum(seq, [0.0, 1.0], t)
        assert abs(bohr_mean(seq, 1e-300)) == pytest.approx(1.0, abs=1e-15)


class TestFourierBohrCoefficient:
    def test_lambda_zero_reduces_to_bohr_mean(self):
        seq = make_seq(1, (1, -1), (0.9, 1.3), (1.0, math.sqrt(2)), 200.0)
        assert fourier_bohr_coefficient(seq, 0.0, 150.0) == bohr_mean(seq, 150.0)

    def test_lambda_zero_reduces_to_bohr_mean_over_many_windows(self):
        seq = make_seq(1, (1, -1), (0.9, 1.3), (1.0, math.sqrt(2)), 1e5)
        for t in (3e4, 77777.7, 1e5):
            assert fourier_bohr_coefficient(seq, 0.0, t) == bohr_mean(seq, t)

    def test_whole_oscillations_integrate_to_zero(self):
        seq = make_seq(0, (), (), (), 100.0)
        assert abs(fourier_bohr_coefficient(seq, TWO_PI, 10.0)) <= 1e-12

    def test_small_lambda_matches_series(self):
        # |(e^{-i lam t} - 1) / (-i lam t)| = 1 - (lam t)^2 / 24 + O((lam t)^4)
        seq = make_seq(0, (), (), (), 100.0)
        t = 10.0
        for lam, tol in ((1e-6, 1e-12), (1e-3, 1e-8)):
            series = 1.0 - (lam * t) ** 2 / 24.0
            assert abs(abs(fourier_bohr_coefficient(seq, lam, t)) - series) <= tol

    def test_picks_out_oscillation_of_matching_frequency(self):
        # phase ramps by pi/8 every 1/16 time unit: e^{i Phi} approximates
        # e^{i 2 pi tau}, so the coefficient at lam = 2 pi has large magnitude
        seq = make_seq(1, (1, 0), (math.pi / 8, 0.0), (0.0625, 1.0), 200.0)
        on_peak = abs(fourier_bohr_coefficient(seq, TWO_PI, 128.0))
        off_peak = abs(fourier_bohr_coefficient(seq, 1.0, 128.0))
        assert on_peak > 0.9
        assert off_peak < 0.1

    def test_spectrum_rejects_non_finite_lambda(self):
        seq = make_seq(0, (), (), (), 100.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fourier_spectrum(seq, [0.0, bad], 10.0)

    def test_spectrum_refuses_lams_whose_angles_overflow(self):
        seq = make_seq(1, (1, -1), (0.9, 1.3), (1.0, math.sqrt(2)), 200.0)
        # the kernel's angles lam * (b - a) and (-0.5 lam) * (a + b) reach |lam| * t
        assert np.all(np.isfinite(fourier_spectrum(seq, [0.0, -1e306], 150.0)))
        for lams in ([0.0, 1e308], [-1.2e307]):
            with pytest.raises(DomainError, match=r"\|lam\| \* t"):
                fourier_spectrum(seq, lams, 150.0)

    def test_spectrum_rejects_two_dimensional_lambdas(self):
        seq = make_seq(0, (), (), (), 100.0)
        for bad in ([[0.1, 0.2]], [[0.1], [0.2]]):
            with pytest.raises(DomainError, match="1-d"):
                fourier_spectrum(seq, bad, 10.0)

    def test_spectrum_takes_a_scalar_lambda(self):
        seq = make_seq(1, (1, -1), (0.9, 1.3), (1.0, math.sqrt(2)), 200.0)
        assert fourier_spectrum(seq, 0.5, 150.0).tolist() == [fourier_bohr_coefficient(seq, 0.5, 150.0)]

    def test_empty_spectrum_walks_no_window(self, monkeypatch):
        seq = make_seq(1, (1, -1), (0.9, 1.3), (1.0, math.sqrt(2)), 200.0)

        def no_windows(*args, **kwargs):
            raise AssertionError("an empty spectrum needs no window")

        monkeypatch.setattr(sequence, "_Windows", no_windows)
        empty = fourier_spectrum(seq, [], 150.0)
        assert empty.dtype == complex and empty.shape == (0,)
        for bad_t in (0.0, 250.0, math.nan):
            with pytest.raises(DomainError):
                fourier_spectrum(seq, [], bad_t)
        with pytest.raises(DomainError, match="1-d"):
            fourier_spectrum(seq, [[]], 150.0)


class TestExactWindowReference:
    # Against the exact reference, whose segments take their phases from the
    # exact reduction of their winding counts and whose sums are exact.  The
    # bounds are what the window kernel meets today (measured: 3.3e-13 for
    # the Bohr mean, 4.1e-10 at the line, where the terms add coherently, and
    # below 1.4e-14 elsewhere), with some headroom.
    def test_bohr_mean_and_spectrum_at_two_e5(self):
        t = 2e5
        betas = (TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0))
        seq = make_seq(1, (-1, 2), betas, (3.0, 2.0 * math.sqrt(5.0)), t)
        _, periods, increments = seq._active_arrays()
        # the strongest line: each cycle's increment wrapped to (-pi, pi]
        line = float(np.sum(np.angle(np.exp(1j * increments)) / periods))
        lams = [0.0, line, -0.5, 4.0 * math.pi]
        exact = fourier_spectrum_exact(seq, lams, t)
        assert abs(exact[1]) > 0.5
        assert abs(bohr_mean(seq, t) - exact[0]) <= 1e-12
        for got, ref in zip(fourier_spectrum(seq, lams, t).tolist(), exact):
            assert abs(got - ref) <= 1e-12 + 2e-9 * abs(ref)


def _scan_rounding_bound(seq, shift_phase):
    """How far a scanned discrepancy may lie from 2|sin(D/2)|, D = ``shift_phase``.

    Each probe's phase comes from phase_at_many, off by at most its rounding
    bound at the horizon's counts; |e^{ia} - e^{ib}| moves by at most the
    sum of the two phase errors.  Rounding D itself adds u |D|, and the
    complex exps, their difference, its magnitude and the reference's sine
    a few ulps of 2 each.
    """
    u = 2.0**-53
    return 2.0 * _phase_rounding_bound(seq, seq.horizon) + u * abs(shift_phase) + 32.0 * u


class TestFindAlmostPeriods:
    def test_exact_periods_of_single_cycle(self):
        # increment 2*(pi) = 2pi wraps to the identity, so every multiple of
        # the period reproduces the factor exactly
        seq = make_seq(1, (2, 0), (math.pi, 0.0), (1.0, 50.0), 50.0)
        rep = find_almost_periods(seq, 0.1, 10.0, 1.0)
        shifts = [c.shift for c in rep.candidates]
        assert {1.0, 2.0, 3.0}.issubset(set(shifts))
        for c in rep.candidates:
            assert c.discrepancy <= 1e-12

    def test_commensurable_pair_returns_common_period(self):
        # net rotation over the common period 2 is 2*(pi/2) + pi = 2pi = 0
        seq = make_seq(1, (1, 1), (math.pi / 2, math.pi), (1.0, 2.0), 50.0)
        rep = find_almost_periods(seq, 0.3, 10.0, 0.5)
        assert rep.candidates, "expected the common period to pass"
        first = rep.candidates[0]
        assert first.shift == 2.0
        assert first.discrepancy <= 1e-12
        # no shift smaller than the common period passes
        assert all(c.shift >= 2.0 for c in rep.candidates)

    def test_near_coincidence_of_incommensurable_periods(self):
        # 41 * 1 and 29 * sqrt(2) = 41.0122... nearly coincide (the
        # convergent 41/29); betas 2pi/41 and 2pi/29 close the net rotation
        # there, so a shift near 41 passes a 0.3 budget
        seq = make_seq(1, (1, 1), (TWO_PI / 41.0, TWO_PI / 29.0), (1.0, math.sqrt(2)), 100.0)
        rep = find_almost_periods(seq, 0.3, 45.0, 0.5)
        near = [c for c in rep.candidates if abs(c.shift - 41.0) <= 0.1]
        assert near, [c.shift for c in rep.candidates]
        assert min(c.discrepancy for c in near) <= 0.3
        assert rep.scanned > len(rep.candidates)  # the budget rejects most shifts

    def test_small_increments_make_coincidences_almost_periods(self):
        # with tiny betas the phase budget at the 41 ~ 29*sqrt(2)
        # near-coincidence is 41*b1 + 29*b2 ~ 0.07 plus one misaligned
        # increment, comfortably inside 0.3
        seq = make_seq(1, (1, 1), (1e-3, 1e-3), (1.0, math.sqrt(2)), 100.0)
        rep = find_almost_periods(seq, 0.3, 45.0, 0.5)
        near = [c for c in rep.candidates if abs(c.shift - 41.0) <= 0.1]
        assert near and all(c.discrepancy <= 0.3 for c in near)

    def test_scan_memory_does_not_grow_with_the_horizon(self):
        # Shifts within epsilon are compared over their whole windows, here
        # of 6.25e4 and 1e6 events; the scan holds its blocks and a window
        # of the event table, not the horizon's events (8 B each for the
        # times alone).
        peaks = []
        for horizon in (6.25e4, 1e6):
            seq = make_seq(1, (1, 0), (3.883222077450933, 0.0), (1.0, math.sqrt(2.0)), horizon)
            tracemalloc.start()
            try:
                rep = find_almost_periods(seq, 1.9, 10.0, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(rep.candidates) > 0
        assert peaks[1] <= 1.25 * peaks[0] < 8 * 1e6

    @pytest.mark.parametrize("horizon", [1e7, 1.2e7])
    def test_lattice_shift_passes_past_two_to_the_23(self, horizon):
        # Phi(tau + 15 T) - Phi(tau) = 15 beta for every tau, so 15 T is an
        # almost-period with discrepancy 2|sin(15 beta / 2)| = 0.1208...  Past
        # tau = 2**23 a shifted event time and the base event time it equals
        # differ by an ulp there (1.9e-9): a fixed 1e-9 sliver probed the
        # phantom segment between them and rejected the shift.
        period, beta = 1000.0 * math.sqrt(2.0), 4.59961087822572
        seq = make_seq(1, (0, 1), (0.3, beta), (1.0, period), horizon)
        rep = find_almost_periods(seq, 0.3, 30 * period, 31 * period)  # lattice shifts only
        found = {c.shift: c.discrepancy for c in rep.candidates}
        assert 15 * period in found
        exact = 2.0 * abs(math.sin(15 * beta / 2.0))
        assert abs(found[15 * period] - exact) <= _scan_rounding_bound(seq, 15 * beta)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        coefficient=st.sampled_from([-3, -2, -1, 1, 2, 3]),
        beta=st.floats(0.0, TWO_PI, exclude_max=True),
        horizon=st.floats(4.0, 8.0).map(lambda e: 10.0**e),
        events=st.integers(8, 400),
        epsilon=st.floats(0.05, 2.0),
    )
    def test_every_lattice_shift_within_epsilon_passes(
        self, data, coefficient, beta, horizon, events, epsilon
    ):
        # One active cycle: Phi(tau + k T) - Phi(tau) = k m beta for every
        # tau, so the shift k T has the discrepancy 2|sin(k m beta / 2)|
        # exactly, at any horizon; few events keep horizons up to 1e8 quick.
        period = horizon / events
        search_bound = data.draw(st.floats(period, horizon / 2.0))
        seq = make_seq(1, (coefficient, 0), (beta, 0.3), (period, 1.0), horizon)
        rep = find_almost_periods(seq, epsilon, search_bound, 2.0 * search_bound)
        found = {c.shift: c.discrepancy for c in rep.candidates}
        increment = seq._active_arrays()[2][0]
        shifts = np.arange(1, math.floor(search_bound / period) + 1) * period
        shifts = shifts[shifts <= search_bound]  # the lattice as the scan forms it
        assert rep.scanned == shifts.size and set(found) <= set(shifts.tolist())
        for k, shift in enumerate(shifts.tolist(), start=1):
            exact = 2.0 * abs(math.sin(k * increment / 2.0))
            bound = _scan_rounding_bound(seq, k * increment)
            if exact <= epsilon - bound:
                assert abs(found[shift] - exact) <= bound
            elif exact > epsilon + bound:
                assert shift not in found

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        coefficient=st.sampled_from([-3, -2, -1, 1, 2, 3]),
        beta=st.floats(0.0, TWO_PI, exclude_max=True),
        horizon=st.floats(4.0, 8.0).map(lambda e: 10.0**e),
        events=st.integers(8, 300),
    )
    def test_every_other_shift_takes_both_lattice_values(self, data, coefficient, beta, horizon, events):
        # One active cycle: a shift s = q T + r with 0 < r < T moves tau by q
        # periods where tau mod T < T - r and by q + 1 elsewhere, so on a
        # window of several periods Phi(tau + s) - Phi(tau) takes both q m beta
        # and (q + 1) m beta, and the discrepancy is the larger 2|sin(D/2)|.
        # epsilon = 3 exceeds every discrepancy, so every scanned shift is
        # reported; offsets r within 64 slivers of 0 or T are not checked.
        period = horizon / events
        search_bound = data.draw(st.floats(period, horizon / 2.0))
        sample_step = data.draw(st.floats(period / 7.3, search_bound))
        seq = make_seq(1, (coefficient, 0), (beta, 0.3), (period, 1.0), horizon)
        rep = find_almost_periods(seq, 3.0, search_bound, sample_step)
        assert len(rep.candidates) == rep.scanned
        increment = seq._active_arrays()[2][0]
        margin = 64 * 4.0 * np.spacing(horizon)
        for c in rep.candidates:
            q = math.floor(c.shift / period)
            if margin < c.shift - q * period < period - margin:
                exact = max(2.0 * abs(math.sin(k * increment / 2.0)) for k in (q, q + 1))
                assert abs(c.discrepancy - exact) <= _scan_rounding_bound(seq, (q + 1) * increment)

    def test_parameter_validation(self):
        seq = make_seq(1, (1, 0), (0.5, 0.5), (1.0, 2.0), 50.0)
        with pytest.raises(DomainError):
            find_almost_periods(seq, 0.0, 10.0, 1.0)
        with pytest.raises(DomainError):
            find_almost_periods(seq, 0.1, 26.0, 1.0)  # > horizon/2
        with pytest.raises(DomainError):
            find_almost_periods(seq, 0.1, 10.0, 0.0)

    def test_report_metadata(self):
        seq = make_seq(1, (1, 0), (0.5, 0.5), (1.0, 2.0), 50.0)
        rep = find_almost_periods(seq, 2.1, 10.0, 1.0)
        assert rep.window == (0.0, 40.0)
        assert rep.sample_step == 1.0
        assert rep.scanned >= 10
        assert rep.epsilon == 2.1
        # epsilon = 2.1 > diameter of the unit circle: everything passes
        assert len(rep.candidates) == rep.scanned
        assert rep.best().discrepancy == min(c.discrepancy for c in rep.candidates)

    def test_sample_step_whose_grid_overflows_is_refused(self):
        # search_bound / 5e-324 is inf: there is no grid to count
        seq = make_seq(1, (1, 0), (0.5, 0.5), (1.0, 2.0), 50.0)
        with pytest.raises(DomainError, match="sample_step"):
            find_almost_periods(seq, 0.3, 10.0, 5e-324)

    def test_best_needs_a_passing_candidate(self):
        rep = AlmostPeriodReport(epsilon=0.1, candidates=(), window=(0.0, 40.0), sample_step=1.0, scanned=10)
        with pytest.raises(ValueError, match="no candidate"):
            rep.best()


class TestRandomnessBattery:
    def test_constant_sequence_flagged_nonrandom(self):
        seq = make_seq(0, (), (), (), 1000.0)
        rep = randomness_battery(seq, 1000.0, 2000, seed=3)
        assert rep.monobit_p <= 1e-6
        assert rep.permutation_entropy == 0.0
        assert rep.serial_correlation == 0j
        assert rep.sample_count == 2000

    def test_uniform_random_phases_pass_monobit(self):
        # battery on raw seeded uniform phase samples: expect >= 17 of 20
        # seeds inside [0.01, 0.99]
        passing = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rep = score_phase_samples(rng.uniform(0.0, TWO_PI, 20000))
            if 0.01 <= rep.monobit_p <= 0.99:
                passing += 1
        assert passing >= 17

    def test_equidistributing_config_passes_monobit(self):
        seq = make_seq(1, (1, 0), (TWO_PI * (PHI % 1.0), 0.0), (1.0, 3.0), 5000.0)
        rep = randomness_battery(seq, 5000.0, 20000, seed=42)
        assert 0.01 <= rep.monobit_p <= 0.99

    def test_seed_determines_output(self):
        seq = make_seq(1, (1, 0), (TWO_PI * (PHI % 1.0), 0.0), (1.0, 3.0), 5000.0)
        a = randomness_battery(seq, 5000.0, 2000, seed=9)
        b = randomness_battery(seq, 5000.0, 2000, seed=9)
        c = randomness_battery(seq, 5000.0, 2000, seed=10)
        assert a == b
        assert a.serial_correlation != c.serial_correlation

    def test_discretization_recorded(self):
        seq = make_seq(1, (1, 0), (1.0, 0.0), (1.0, 3.0), 2000.0)
        rep = randomness_battery(seq, 2000.0, 1500, seed=5)
        assert "seed=5" in rep.discretization
        assert "pi" in rep.discretization

    def test_seed_must_be_a_nonnegative_integer(self):
        seq = make_seq(1, (1, 0), (1.0, 0.0), (1.0, 3.0), 2000.0)
        for bad in (-1, 1.5, True):
            with pytest.raises(DomainError, match="seed"):
                randomness_battery(seq, 2000.0, 1000, seed=bad)

    def test_undersized_sample_rejected(self):
        seq = make_seq(1, (1, 0), (1.0, 0.0), (1.0, 3.0), 2000.0)
        with pytest.raises(DomainError):
            randomness_battery(seq, 2000.0, 999, seed=0)
        with pytest.raises(DomainError):
            score_phase_samples(np.zeros(999))

    def test_non_finite_samples_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            phases = np.zeros(1000)
            phases[500] = bad
            with pytest.raises(DomainError, match="finite"):
                score_phase_samples(phases)

    def test_serial_correlation_detects_smooth_structure(self):
        # slowly wandering phases are highly serially correlated; iid phases
        # are not
        rng = np.random.default_rng(0)
        smooth = np.cumsum(rng.normal(0.0, 0.05, 5000))
        rough = rng.uniform(0.0, TWO_PI, 5000)
        assert abs(score_phase_samples(smooth).serial_correlation) > 0.8
        assert abs(score_phase_samples(rough).serial_correlation) < 0.1
