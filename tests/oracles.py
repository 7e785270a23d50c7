"""Slow reference implementations kept only for tests.

Each oracle is an earlier, independently structured route to a result the
package now computes from one segment table per sequence:

- ``almost_periods_per_shift`` regenerates the shifted events and calls
  ``phase_at_many`` on every probe of every candidate shift;
- ``fourier_coefficient_scalar`` rebuilds the segment table for each lambda;
- ``merged_correlation`` integrates the detector product over the merged
  events of both sequences of a pair, not over the difference chain.
"""

import math

import numpy as np

from windingphase.sequence import (
    _SLIVER,
    AlmostPeriodCandidate,
    AlmostPeriodReport,
    _segments,
    event_arrays,
    phase_at_many,
)


def almost_periods_per_shift(seq, epsilon, search_bound, sample_step):
    """find_almost_periods with per-shift event generation and phase probes."""
    epsilon, search_bound, sample_step = float(epsilon), float(search_bound), float(sample_step)
    window_end = seq.horizon - search_bound
    shifts = [np.arange(1, math.floor(search_bound / sample_step) + 1) * sample_step]
    _, periods, _ = seq._active_arrays()
    for T in periods:
        shifts.append(np.arange(1, math.floor(search_bound / T) + 1) * T)
    candidates = np.unique(np.concatenate(shifts))
    candidates = candidates[(candidates > 0.0) & (candidates <= search_bound)]

    base_times = event_arrays(seq, 0.0, window_end)[0]
    passing = []
    for shift in candidates:
        shifted = event_arrays(seq, shift, shift + window_end)[0] - shift
        cuts = np.unique(np.concatenate(([0.0], base_times, shifted, [window_end])))
        cuts = cuts[(cuts >= 0.0) & (cuts <= window_end)]
        widths = np.diff(cuts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        mids = mids[widths > _SLIVER]
        if mids.size == 0:
            continue
        here = np.exp(1j * phase_at_many(seq, mids))
        there = np.exp(1j * phase_at_many(seq, np.minimum(mids + shift, seq.horizon)))
        discrepancy = float(np.max(np.abs(there - here)))
        if discrepancy <= epsilon:
            passing.append(AlmostPeriodCandidate(float(shift), discrepancy))
    return AlmostPeriodReport(
        epsilon=epsilon,
        candidates=tuple(passing),
        window=(0.0, float(window_end)),
        sample_step=sample_step,
        scanned=int(candidates.size),
    )


def fourier_coefficient_scalar(seq, lam, t):
    """One Fourier coefficient from its own segment table."""
    bounds, phases = _segments(seq, float(t))
    a, b = bounds[:-1], bounds[1:]
    width = b - a
    kernel = width * np.sinc(lam * width / (2.0 * np.pi)) * np.exp(-0.5j * lam * (a + b))
    return complex(np.sum(np.exp(1j * phases) * kernel) / t)


def merged_correlation(pair, theta_a, theta_b, t):
    """(value, residual, segment_count) integrated over both sequences' merged events."""
    ta, _, ia = event_arrays(pair.sequence_a, 0.0, t)
    tb, _, ib = event_arrays(pair.sequence_b, 0.0, t)
    times = np.concatenate((ta, tb))
    jumps = np.concatenate((-ia, ib))
    order = np.argsort(times, kind="stable")
    bounds = np.concatenate(([0.0], times[order], [t]))
    gamma = np.concatenate(([0.0], np.cumsum(jumps[order])))
    widths = np.diff(bounds)
    value = float(np.sum(widths * np.cos(theta_a + gamma) * np.cos(theta_b - gamma)) * 2.0 / t)
    residual = float(np.sum(widths * np.cos(theta_a - theta_b + 2.0 * gamma)) / t)
    return value, residual, int(widths.size)
