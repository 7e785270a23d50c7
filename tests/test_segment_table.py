"""Properties of the windowed and one-table reductions against the slow routes in oracles.py."""

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    _segments,
    almost_periods_per_shift,
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
