import cmath
import importlib
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from windingphase import (
    CycleAssignment,
    DimensionError,
    DomainError,
    PairConfig,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    chsh,
    correlation,
    phase_at,
    phase_at_many,
    relative_phase,
    residual_curve,
    sequence,
    wrap_angle,
)

# The package exports the function ``correlation`` under the module's name.
corr = importlib.import_module("windingphase.correlation")

TWO_PI = 2.0 * math.pi
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def make_pair(genus, coeffs_a, coeffs_b, betas, periods, horizon):
    s = SurfaceSpec(genus)
    assign = CycleAssignment(s, betas, periods)
    return PairConfig(
        PhaseSequence(s, WindingChain(s, coeffs_a), assign, horizon),
        PhaseSequence(s, WindingChain(s, coeffs_b), assign, horizon),
    )


@pytest.fixture(scope="module")
def canonical_pair():
    betas = (TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0))
    return make_pair(1, (1, 0), (0, 1), betas, (1.0, math.sqrt(2.0)), 2000.0)


@pytest.fixture(scope="module")
def genus0_pair():
    return make_pair(0, (), (), (), (), 1000.0)


def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestPairConfig:
    def test_requires_shared_surface(self):
        s1, s2 = SurfaceSpec(1), SurfaceSpec(2)
        a1 = CycleAssignment(s1, (0.0, 0.0), (1.0, 1.0))
        a2 = CycleAssignment(s2, (0.0,) * 4, (1.0,) * 4)
        with pytest.raises(DimensionError):
            PairConfig(
                PhaseSequence(s1, WindingChain(s1, (1, 0)), a1, 10.0),
                PhaseSequence(s2, WindingChain(s2, (1, 0, 0, 0)), a2, 10.0),
            )

    def test_requires_shared_horizon(self):
        s = SurfaceSpec(1)
        a = CycleAssignment(s, (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            PairConfig(
                PhaseSequence(s, WindingChain(s, (1, 0)), a, 10.0),
                PhaseSequence(s, WindingChain(s, (0, 1)), a, 20.0),
            )

    def test_requires_shared_assignment(self):
        s = SurfaceSpec(1)
        with pytest.raises(DomainError):
            PairConfig(
                PhaseSequence(s, WindingChain(s, (1, 0)), CycleAssignment(s, (0.1, 0.2), (1.0, 2.0)), 10.0),
                PhaseSequence(s, WindingChain(s, (0, 1)), CycleAssignment(s, (0.1, 0.3), (1.0, 2.0)), 10.0),
            )

    def test_difference_sequence_carries_relative_phase(self, canonical_pair):
        diff = canonical_pair.difference
        assert diff.chain.coefficients == (-1, 1)
        for tau in (0.0, 0.7, 13.2, 1999.9):
            gap = relative_phase(canonical_pair, tau) - phase_at(diff, tau)
            assert circular_distance(gap, 0.0) <= 1e-12

    def test_swapped_exchanges_sequences(self, canonical_pair):
        sw = canonical_pair.swapped()
        assert sw.sequence_a == canonical_pair.sequence_b
        assert sw.sequence_b == canonical_pair.sequence_a


class TestRelativePhase:
    def test_identical_sequences_cancel(self):
        pair = make_pair(1, (1, 1), (1, 1), (0.9, 1.3), (1.0, math.sqrt(2.0)), 100.0)
        for tau in (0.0, 0.5, 7.3, 99.0):
            assert relative_phase(pair, tau) == 0.0

    def test_zero_chain_side_leaves_other_phase(self):
        pair = make_pair(1, (0, 0), (1, 1), (0.9, 1.3), (1.0, math.sqrt(2.0)), 100.0)
        for tau in (0.3, 4.1, 55.5):
            assert relative_phase(pair, tau) == pytest.approx(
                phase_at(pair.sequence_b, tau), abs=1e-15
            )

    def test_swapped_chains_against_phase_oracle(self):
        # independent oracle: two phase_at calls, then the difference
        pair = make_pair(1, (1, 0), (0, 1), (math.pi / 2, math.pi / 3), (1.0, math.sqrt(2.0)), 100.0)
        tau = 2.5
        oracle = wrap_angle(phase_at(pair.sequence_b, tau) - phase_at(pair.sequence_a, tau))
        assert relative_phase(pair, tau) == oracle

    def test_antisymmetry(self, canonical_pair):
        rng = np.random.default_rng(8)
        for tau in rng.uniform(0.0, 2000.0, 200):
            ga = relative_phase(canonical_pair, float(tau))
            gb = relative_phase(canonical_pair.swapped(), float(tau))
            assert circular_distance(ga + gb, 0.0) <= 1e-12

    def test_horizon_overrun(self, canonical_pair):
        with pytest.raises(DomainError):
            relative_phase(canonical_pair, 2000.5)


class TestCorrelation:
    def test_genus0_two_term_closed_form(self, genus0_pair):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ta, tb = (float(x) for x in rng.uniform(0, TWO_PI, 2))
            est = correlation(genus0_pair, ta, tb, 500.0)
            assert abs(est.value - (math.cos(ta + tb) + math.cos(ta - tb))) <= 1e-12
            assert abs(est.residual - math.cos(ta - tb)) <= 1e-12

    def test_genus0_saturated_detectors(self, genus0_pair):
        est = correlation(genus0_pair, 0.0, 0.0, 100.0)
        assert est.value == pytest.approx(2.0, abs=1e-12)
        assert est.segment_count == 1

    def test_value_bounded_by_two(self, canonical_pair):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ta, tb = (float(x) for x in rng.uniform(0, TWO_PI, 2))
            t = float(rng.uniform(1.0, 2000.0))
            est = correlation(canonical_pair, ta, tb, t)
            assert abs(est.value) <= 2.0 + 1e-12

    def test_decomposition_identity(self, canonical_pair):
        rng = np.random.default_rng(4)
        for _ in range(25):
            ta, tb = (float(x) for x in rng.uniform(0, TWO_PI, 2))
            est = correlation(canonical_pair, ta, tb, 1500.0)
            assert abs(est.value - math.cos(ta + tb) - est.residual) <= 1e-12

    def test_segment_sum_matches_midpoint_riemann_oracle(self, canonical_pair):
        # oracle: midpoint Riemann sum at a step of 1e-3 * min period
        ta, tb, t = 0.7, 1.1, 100.0
        est = correlation(canonical_pair, ta, tb, t)
        dt = 1e-3 * min(canonical_pair.sequence_a.assignment.periods)
        mids = np.arange(dt / 2.0, t, dt)
        gam = phase_at_many(canonical_pair.sequence_b, mids) - phase_at_many(
            canonical_pair.sequence_a, mids
        )
        oracle = float(np.mean(np.cos(ta + gam) * np.cos(tb - gam)) * 2.0)
        assert abs(est.value - oracle) <= 1e-2

    def test_exchange_symmetry(self, canonical_pair):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ta, tb = (float(x) for x in rng.uniform(0, TWO_PI, 2))
            e_ab = correlation(canonical_pair, ta, tb, 1200.0)
            e_ba = correlation(canonical_pair.swapped(), tb, ta, 1200.0)
            assert abs(e_ab.value - e_ba.value) <= 1e-12

    def test_deterministic(self, canonical_pair):
        a = correlation(canonical_pair, 0.3, 0.4, 777.0)
        b = correlation(canonical_pair, 0.3, 0.4, 777.0)
        assert a == b  # bit-identical record

    def test_domain_checks(self, canonical_pair):
        with pytest.raises(DomainError):
            correlation(canonical_pair, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            correlation(canonical_pair, 0.0, 0.0, 2001.0)
        # a positive t whose 1/t overflows would scale the moment to inf/nan
        for t in (5e-324, 1e-310):
            with pytest.raises(DomainError, match="t must be at least"):
                correlation(canonical_pair, 0.0, 0.0, t)

    def test_segment_count_metadata(self, canonical_pair):
        est = correlation(canonical_pair, 0.0, 0.0, 10.0)
        # events of both sequences in (0, 10] plus the trailing segment
        na = len([1 for k in range(1, 11)])
        nb = math.floor(10.0 / math.sqrt(2.0))
        assert est.segment_count == na + nb + 1


class TestResidualCurve:
    def test_zero_phase_residual_is_constant(self, genus0_pair):
        ta, tb = 0.9, 0.4
        for t, res in residual_curve(genus0_pair, ta, tb, [10.0, 100.0, 1000.0]):
            assert abs(res - math.cos(ta - tb)) <= 1e-12

    def test_equidistributing_config_decays_over_decades(self):
        betas = (TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0))
        pair = make_pair(1, (1, 0), (0, 1), betas, (1.0, math.sqrt(2.0)), 10000.0)
        horizons = [100.0, 1000.0, 10000.0]
        curve = residual_curve(pair, 0.4, 0.9, horizons)
        mags = [abs(r) for _, r in curve]
        assert mags[1] < mags[0]
        assert mags[2] < mags[1]

    def test_commensurable_negative_control_orbit_average(self):
        # T=(1,2) with beta2 = 2*beta1: gamma repeats the two-segment orbit
        # {0, -beta1}; the residual converges to the enumerated orbit average
        b1 = math.pi / 3.0
        pair = make_pair(1, (1, 0), (0, 1), (b1, 2.0 * b1), (1.0, 2.0), 4000.0)
        for ta, tb in ((0.0, 0.0), (0.3, 0.1)):
            oracle = 0.5 * (math.cos(ta - tb) + math.cos(ta - tb - 2.0 * b1))
            curve = residual_curve(pair, ta, tb, [400.0, 4000.0])
            for _, res in curve:
                assert abs(res - oracle) <= 1e-9
        # bounded away from zero for at least one angle pair
        (_, res), = residual_curve(pair, 0.0, 0.0, [4000.0])
        assert abs(res) >= 0.1

    def test_matches_pointwise_correlation(self, canonical_pair):
        ta, tb = 0.2, 1.7
        curve = residual_curve(canonical_pair, ta, tb, [50.0, 500.0, 1999.0])
        for t, res in curve:
            est = correlation(canonical_pair, ta, tb, t)
            assert abs(res - est.residual) <= 1e-12

    def test_repeated_horizons_give_equal_rows(self, canonical_pair):
        curve = residual_curve(canonical_pair, 0.0, 0.0, [100.0, 100.0, 400.0])
        assert len(curve) == 3
        assert curve[0] == curve[1]

    def test_horizon_validation(self, canonical_pair):
        with pytest.raises(DomainError):
            residual_curve(canonical_pair, 0.0, 0.0, [100.0, 50.0])
        with pytest.raises(DomainError):
            residual_curve(canonical_pair, 0.0, 0.0, [])
        with pytest.raises(DomainError):
            residual_curve(canonical_pair, 0.0, 0.0, [100.0, 2500.0])
        with pytest.raises(DomainError, match="t must be at least"):
            residual_curve(canonical_pair, 0.0, 0.0, [1e-310, 100.0])
        for ta, tb in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(DomainError, match="angles must be finite"):
                residual_curve(canonical_pair, ta, tb, [10.0, 100.0])


class TestChsh:
    def test_genus0_all_zero_angles_hits_classical_deterministic_bound(self, genus0_pair):
        result = chsh(genus0_pair, 0.0, 0.0, 0.0, 0.0, 500.0)
        assert result.s == pytest.approx(4.0, abs=1e-12)

    def test_kernel_limit_settings(self):
        # closed-form evaluation of the four cosines at the canonical
        # violating settings for the cos(theta_a + theta_b) kernel
        a1, a2, b1, b2 = 0.0, math.pi / 2.0, 7.0 * math.pi / 4.0, math.pi / 4.0
        s_limit = (
            math.cos(a1 + b1) + math.cos(a1 + b2) + math.cos(a2 + b1) - math.cos(a2 + b2)
        )
        assert s_limit == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_kernel_limit_is_maximum_on_coarse_grid(self):
        # sanity scan: no four-angle combination on a coarse grid beats
        # 2*sqrt(2) for the cos(theta_a + theta_b) kernel
        grid = np.linspace(0.0, TWO_PI, 33)[:-1]
        best = 0.0
        for a1 in grid:
            for a2 in grid:
                ca1 = np.cos(a1 + grid)
                ca2 = np.cos(a2 + grid)
                s = ca1[:, None] + ca1[None, :] + ca2[:, None] - ca2[None, :]
                best = max(best, float(np.max(np.abs(s))))
        assert best <= 2.0 * math.sqrt(2.0) + 1e-9

    def test_estimates_recorded_in_setting_order(self, canonical_pair):
        result = chsh(canonical_pair, 0.1, 0.2, 0.3, 0.4, 1000.0)
        pairs = [(e.theta_a, e.theta_b) for e in result.estimates]
        assert pairs == [(0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4)]
        e11, e12, e21, e22 = (e.value for e in result.estimates)
        assert result.s == e11 + e12 + e21 - e22

    def test_s_bounded_by_four(self, canonical_pair):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a1, a2, b1, b2 = (float(x) for x in rng.uniform(0, TWO_PI, 4))
            result = chsh(canonical_pair, a1, a2, b1, b2, 500.0)
            assert abs(result.s) <= 4.0 + 1e-12


def fresh_moment(pair, t):
    """M2(t) summed now, outside the memo."""
    return corr.bohr_mean(corr._doubled(pair.difference), t)


def expected_estimate(pair, ta, tb, t, m2):
    residual = (cmath.exp(1j * (ta - tb)) * m2).real
    return math.cos(ta + tb) + residual, residual


def hex_pair(value, residual):
    return value.hex(), residual.hex()


@st.composite
def memo_pairs(draw):
    """Genus 0-2 pairs whose betas include signed zeros."""
    genus = draw(st.integers(0, 2))
    n = 2 * genus
    s = SurfaceSpec(genus)
    betas = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, TWO_PI, exclude_max=True))
    periods = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.3, 3.0))
    coefficients = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return make_pair(
        genus,
        draw(coefficients),
        draw(coefficients),
        draw(st.lists(betas, min_size=n, max_size=n)),
        draw(st.lists(periods, min_size=n, max_size=n)),
        draw(st.floats(10.0, 120.0)),
    )


@settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), pair=memo_pairs(), window_events=st.integers(1, 64))
def test_memoised_moment_is_bit_identical_to_a_fresh_sum(data, pair, window_events):
    t = data.draw(st.one_of(st.just(pair.horizon), st.floats(0.5, pair.horizon)))
    angle = st.floats(-10.0, 10.0)
    ta, tb = data.draw(angle), data.draw(angle)
    a1, a2, b1, b2 = (data.draw(angle) for _ in range(4))
    horizons = sorted(data.draw(st.lists(st.floats(0.5, pair.horizon), min_size=1, max_size=3)))
    corr._memo_moment.cache_clear()
    with mock.patch.object(sequence, "_WINDOW_EVENTS", window_events):
        m2 = fresh_moment(pair, t)
        curve_cold = residual_curve(pair, ta, tb, horizons)
        want = hex_pair(*expected_estimate(pair, ta, tb, t, m2))
        for _ in range(2):  # the second call reads the memo
            est = correlation(pair, ta, tb, t)
            assert hex_pair(est.value, est.residual) == want
        result = chsh(pair, a1, a2, b1, b2, t)
        for est, (x, y) in zip(result.estimates, ((a1, b1), (a1, b2), (a2, b1), (a2, b2))):
            want = hex_pair(*expected_estimate(pair, x, y, t, m2))
            assert hex_pair(est.value, est.residual) == want
        curve_warm = residual_curve(pair, ta, tb, horizons)
        assert [hex_pair(*row) for row in curve_warm] == [hex_pair(*row) for row in curve_cold]
    # another window size must not read the entry cached under this one
    resized_events = window_events + data.draw(st.integers(1, 1 << 14))
    with mock.patch.object(sequence, "_WINDOW_EVENTS", resized_events):
        resized = correlation(pair, ta, tb, t)
        want = hex_pair(*expected_estimate(pair, ta, tb, t, fresh_moment(pair, t)))
    assert hex_pair(resized.value, resized.residual) == want


class TestMomentMemo:
    @pytest.fixture
    def sums(self, monkeypatch):
        """Count the windowed sums the correlation module starts."""
        calls = []
        real = corr.bohr_mean

        def counted(seq, t):
            calls.append(t)
            return real(seq, t)

        corr._memo_moment.cache_clear()
        monkeypatch.setattr(corr, "bohr_mean", counted)
        yield calls
        corr._memo_moment.cache_clear()

    def test_settings_sweep_sums_once(self, canonical_pair, sums):
        angles = [TWO_PI * k / 8 + 0.1 for k in range(8)]
        for ta in angles:
            for tb in angles:
                correlation(canonical_pair, ta, tb, 1500.0)
        chsh(canonical_pair, 0.0, math.pi / 2.0, 7.0 * math.pi / 4.0, math.pi / 4.0, 1500.0)
        assert sums == [1500.0]
        assert corr._memo_moment.cache_info()[2:] == (256, 1)  # (maxsize, currsize)

    def test_each_input_bit_makes_its_own_entry(self, monkeypatch, sums):
        def pair(betas=(1.0, 2.0), periods=(1.0, math.sqrt(2.0))):
            return make_pair(1, (1, 0), (0, 1), betas, periods, 100.0)

        correlation(pair(), 0.1, 0.2, 50.0)
        correlation(pair(), 0.3, 0.4, 50.0)
        assert len(sums) == 1
        correlation(pair(), 0.1, 0.2, 60.0)  # another t
        correlation(pair(periods=(1.0, math.sqrt(3.0))), 0.1, 0.2, 50.0)  # another period
        correlation(pair(betas=(0.0, 2.0)), 0.1, 0.2, 50.0)
        correlation(pair(betas=(-0.0, 2.0)), 0.1, 0.2, 50.0)  # only the sign of a zero differs
        monkeypatch.setattr(sequence, "_WINDOW_EVENTS", 7)
        correlation(pair(), 0.1, 0.2, 50.0)  # another window size
        assert len(sums) == 6
        assert corr._memo_moment.cache_info().currsize == 6

    def test_a_hit_builds_no_sequence_and_counts_no_event(self, monkeypatch, canonical_pair, sums):
        built, counted = [], []
        post_init, event_count = PhaseSequence.__post_init__, corr.event_count

        def counting_post_init(seq):
            built.append(seq)
            post_init(seq)

        def counting_event_count(*args):
            counted.append(args)
            return event_count(*args)

        monkeypatch.setattr(PhaseSequence, "__post_init__", counting_post_init)
        monkeypatch.setattr(corr, "event_count", counting_event_count)
        cold = correlation(canonical_pair, 0.1, 0.2, 1500.0)
        assert built and len(counted) == 2
        built.clear(), counted.clear()
        warm = [correlation(canonical_pair, 0.1, 0.2, 1500.0)]
        warm += corr.correlations(canonical_pair, [(0.1, 0.2), (0.5, -0.3)], 1500.0)
        warm += chsh(canonical_pair, 0.1, 0.5, 0.2, -0.3, 1500.0).estimates
        assert (built, counted) == ([], [])
        assert sums == [1500.0]
        assert warm[0] == warm[1] == warm[3] == cold
        assert {e.segment_count for e in warm} == {cold.segment_count}

    def test_each_pair_of_chains_gets_its_own_entry(self, sums):
        betas, periods = (1.0, 2.0), (1.0, math.sqrt(2.0))
        chains = (
            ((1, 0), (0, 1)),
            ((1, 1), (0, 2)),  # the same difference (-1, 1) from other chains
            ((2, 0), (1, 1)),
            ((1, 0), (1, 1)),  # the first pair's chain_a with another chain_b
            ((0, 0), (0, 1)),  # the first pair's chain_b with another chain_a
        )
        pairs = [make_pair(1, a, b, betas, periods, 100.0) for a, b in chains]
        estimates = [correlation(p, 0.1, 0.2, 50.0) for p in pairs]
        assert corr._memo_moment.cache_info().currsize == len(pairs) == len(sums)
        for p, est in zip(pairs, estimates):
            want = expected_estimate(p, 0.1, 0.2, 50.0, fresh_moment(p, 50.0))
            assert hex_pair(est.value, est.residual) == hex_pair(*want)
            assert est.segment_count == (
                corr.event_count(p.sequence_a, 0.0, 50.0)
                + corr.event_count(p.sequence_b, 0.0, 50.0)
                + 1
            )
            assert correlation(p, 0.1, 0.2, 50.0) == est  # a hit keeps its own entry
        assert len({est.segment_count for est in estimates[:3]}) == 3

    def test_invalid_t_raises_every_time_and_is_not_cached(self, canonical_pair, sums):
        for t in (0.0, -1.0, math.nan, 2001.0, 0.0):
            with pytest.raises(DomainError):
                correlation(canonical_pair, 0.0, 0.0, t)
            with pytest.raises(DomainError):
                chsh(canonical_pair, 0.0, 0.0, 0.0, 0.0, t)
        assert sums == []
        assert corr._memo_moment.cache_info().currsize == 0

    def test_threads_share_the_memo_without_mixing_entries(self, canonical_pair, sums):
        times = (300.0, 700.0, 1100.0)
        want = {
            t: expected_estimate(canonical_pair, 0.2, 0.9, t, fresh_moment(canonical_pair, t))
            for t in times
        }
        got, errors = [], []

        def sweep(offset):
            try:
                for k in range(30):
                    t = times[(k + offset) % len(times)]
                    est = correlation(canonical_pair, 0.2, 0.9, t)
                    got.append(((est.value, est.residual), want[t]))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=sweep, args=(k,)) for k in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert len(got) == 6 * 30
        assert all(hex_pair(*a) == hex_pair(*b) for a, b in got)
        assert corr._memo_moment.cache_info().currsize == len(times)
