"""Event-driven accumulated phase sequences and their analysis suite.

A phase sequence is the accumulated phase of a winding chain whose cycles
fire periodically: cycle ``i`` contributes an increment ``m_i * beta_i`` at
every positive integer multiple of its period ``T_i``.  The accumulated phase

    Phi(tau) = (sum_i m_i * beta_i * floor(tau / T_i)) mod 2*pi

is piecewise constant, right-continuous, and starts at Phi(0) = 0.  With
pairwise incommensurable periods the superposition is an almost-periodic
sequence; this module provides the generator plus the analysis battery
(Bohr means, Fourier coefficients, almost-period search, randomness scores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DimensionError, DomainError
from .topology import TWO_PI, CycleAssignment, SurfaceSpec, WindingChain, _dot_mod_2pi

# Segments thinner than this are treated as float artifacts of shifted event
# times (see find_almost_periods) and skipped when probing suprema.
_SLIVER = 1e-9

# Events per evaluation window: every segment reduction sums over windows of
# about this many events, so its memory does not grow with the horizon.
_WINDOW_EVENTS = 1 << 14


@dataclass(frozen=True, slots=True)
class PhaseEvent:
    """One phase spike: at ``time`` cycle ``cycle_index`` adds ``increment``."""

    time: float
    cycle_index: int
    increment: float


@dataclass(frozen=True)
class PhaseSequence:
    """Evaluable accumulated-phase function built from periodic spike trains."""

    surface: SurfaceSpec
    chain: WindingChain
    assignment: CycleAssignment
    horizon: float

    def __post_init__(self):
        if self.chain.surface != self.surface:
            raise DimensionError("chain does not live on the sequence's surface")
        if self.assignment.surface != self.surface:
            raise DimensionError("assignment does not live on the sequence's surface")
        h = float(self.horizon)
        if not math.isfinite(h) or h <= 0.0:
            raise DomainError(f"horizon must be > 0 and finite, got {h!r}")
        object.__setattr__(self, "horizon", h)

    @property
    def active_cycles(self) -> Tuple[int, ...]:
        """Indices of cycles with nonzero winding number."""
        return tuple(i for i, m in enumerate(self.chain.coefficients) if m != 0)

    def _active_arrays(self):
        idx = np.asarray(self.active_cycles, dtype=np.int64)
        periods = np.asarray([self.assignment.periods[i] for i in idx], dtype=float)
        increments = np.asarray(
            [self.chain.coefficients[i] * self.assignment.betas[i] for i in idx],
            dtype=float,
        )
        return idx, periods, increments


def _completed_windings(taus, periods):
    """Largest n >= 0 with float(n * T) <= tau, per (tau, period) pair.

    Plain floor division can land one step off when tau sits within rounding
    distance of an exact multiple; the corrections below re-anchor the count
    to the same float products n * T that event generation emits.
    """
    taus = np.asarray(taus, dtype=float)
    t = taus[..., np.newaxis]
    n = np.floor(t / periods)
    n = np.maximum(n, 0.0)
    n += (n + 1.0) * periods <= t
    n -= np.logical_and(n > 0.0, n * periods > t)
    return n.astype(np.int64)


def _check_window(seq: PhaseSequence, t0: float, t1: float):
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError("window bounds must be finite")
    if t0 < 0.0 or not t0 < t1 or t1 > seq.horizon:
        raise DomainError(
            f"window ({t0}, {t1}] must satisfy 0 <= t0 < t1 <= horizon {seq.horizon}"
        )
    return t0, t1


def event_count(seq: PhaseSequence, t0: float = 0.0, t1: float = None) -> int:
    """Number of events in (t0, t1] without materializing them."""
    t1 = seq.horizon if t1 is None else t1
    t0, t1 = _check_window(seq, t0, t1)
    _, periods, _ = seq._active_arrays()
    if periods.size == 0:
        return 0
    n0 = _completed_windings(t0, periods)
    n1 = _completed_windings(t1, periods)
    return int(np.sum(n1 - n0))


def _merged_progressions(periods, n0, n1):
    """Event times of every cycle in one window, and the order that merges them.

    Cycle k fires at (n0[k] + 1) * T_k, ..., n1[k] * T_k.  Returns (times,
    order, counts): ``times`` holds these arithmetic progressions block by
    block in cycle order, ``order`` is the stable argsort that merges them
    (so simultaneous events stay in cycle order) and ``counts[k]`` is the
    number of events of cycle k.  Times are n * T from integer n, never
    repeated additions, so they carry no accumulated drift.
    """
    counts = n1 - n0
    ends = np.cumsum(counts)
    times = np.arange(int(counts.sum()), dtype=float)
    for k in range(counts.size):
        block = times[ends[k] - counts[k] : ends[k]]
        block += n0[k] + 1 - (ends[k] - counts[k])
        block *= periods[k]
    return times, np.argsort(times, kind="stable"), counts


def event_arrays(seq: PhaseSequence, t0: float, t1: float):
    """Events in (t0, t1] as arrays (times, cycle_indices, increments).

    Sorted by time; simultaneous events are ordered by ascending cycle index.
    Event times are generated as n * T from integer n, never by repeated
    addition, so they carry no accumulated drift.
    """
    t0, t1 = _check_window(seq, t0, t1)
    idx, periods, increments = seq._active_arrays()
    n0, n1 = _completed_windings([t0, t1], periods)
    times, order, counts = _merged_progressions(periods, n0, n1)
    cycles = np.repeat(idx, counts)
    incs = np.repeat(increments, counts)
    return times[order], cycles[order], incs[order]


def events_in(seq: PhaseSequence, t0: float, t1: float) -> List[PhaseEvent]:
    """All events with time in (t0, t1], ordered by (time, cycle_index)."""
    times, cycles, incs = event_arrays(seq, t0, t1)
    return [
        PhaseEvent(float(t), int(c), float(v))
        for t, c, v in zip(times, cycles, incs)
    ]


def _exact_phases(seq: PhaseSequence, counts) -> List[float]:
    """Phi for each row of active-cycle winding counts, reduced exactly mod 2*pi."""
    idx = seq.active_cycles
    coefficients = [int(seq.chain.coefficients[i]) for i in idx]
    betas = [seq.assignment.betas[i] for i in idx]
    return [
        _dot_mod_2pi([k * m for k, m in zip(row, coefficients)], betas) for row in counts.tolist()
    ]


def phase_at(seq: PhaseSequence, tau: float) -> float:
    """Accumulated phase at tau, in [0, 2*pi), from its winding counts reduced exactly."""
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0 or tau > seq.horizon:
        raise DomainError(f"tau must lie in [0, horizon {seq.horizon}], got {tau!r}")
    _, periods, _ = seq._active_arrays()
    return _exact_phases(seq, _completed_windings([tau], periods))[0]


def phase_at_many(seq: PhaseSequence, taus) -> np.ndarray:
    """Vectorized accumulated phase for an array of times, each in [0, 2*pi)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        return np.zeros_like(taus)
    if not np.all(np.isfinite(taus)) or taus.min() < 0.0 or taus.max() > seq.horizon:
        raise DomainError(f"all times must lie in [0, horizon {seq.horizon}]")
    _, periods, increments = seq._active_arrays()
    if periods.size == 0:
        return np.zeros_like(taus)
    n = _completed_windings(taus, periods)
    phases = np.mod(n @ increments, TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    return phases


def _unit_phasors(phases, out) -> np.ndarray:
    """Write e^{i phases} into the complex array ``out``, bit for bit as np.exp(1j * phases).

    1j * phases has real parts +-0.0 and imaginary parts phases + 0.0 (a
    -0.0 phase becomes +0.0), and e^{+-0 + iy} does not depend on the sign
    of the zero, so the exponential is taken in place on that array.
    """
    out.real = 0.0
    np.add(phases, 0.0, out=out.imag)
    return np.exp(out, out=out)


def _windows(seq: PhaseSequence, t: float, edges=()):
    """Yield (bounds, factors) for consecutive windows tiling [0, t].

    Windows hold about _WINDOW_EVENTS events each and also end at every time
    in ``edges``.  ``bounds`` starts at the window's start, lists its event
    times and ends at its end; ``factors[k]`` is e^{i Phi} on
    [bounds[k], bounds[k+1]).  Each window starts from the phase of its
    integer winding counts reduced exactly mod 2*pi, so rounding does not
    grow with t.  Every window is written into the same buffers: use (or
    overwrite) its arrays before asking for the next one.
    """
    _, periods, increments = seq._active_arrays()
    n = max(1, math.ceil(t * float(np.sum(1.0 / periods)) / _WINDOW_EVENTS))
    cuts = np.unique(np.concatenate((np.linspace(0.0, t, n + 1), edges)))
    counts = _completed_windings(cuts, periods)
    most = int(np.max(np.sum(np.diff(counts, axis=0), axis=1)))
    bounds_buf, phases_buf = np.empty(most + 2), np.empty(most + 1)
    factors_buf = np.empty(most + 1, dtype=complex)
    for j, start in enumerate(_exact_phases(seq, counts[:-1])):
        times, order, per_cycle = _merged_progressions(periods, counts[j], counts[j + 1])
        # order holds valid indices; mode "raise" would copy through a buffer
        bounds = bounds_buf[: order.size + 2]
        bounds[0], bounds[-1] = cuts[j], cuts[j + 1]
        np.take(times, order, out=bounds[1:-1], mode="wrap")
        # start, then start + the running sum of the increments in time order
        phases = phases_buf[: order.size + 1]
        phases[0] = start
        np.take(np.repeat(increments, per_cycle), order, out=phases[1:], mode="wrap")
        np.cumsum(phases[1:], out=phases[1:])
        phases[1:] += start
        yield bounds, _unit_phasors(phases, factors_buf[: order.size + 1])


def _segment_sum(bounds, factors) -> np.complex128:
    """np.sum(factors * np.diff(bounds)), the same bits, scaling ``factors`` in place.

    Each product is the one the complex multiply rounds to (up to the sign
    of a zero), and the sum runs over the same contiguous layout.
    """
    width = np.diff(bounds)
    factors.real *= width
    factors.imag *= width
    return np.sum(factors)


def _check_time(seq: PhaseSequence, t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0 or t > seq.horizon:
        raise DomainError(f"t must lie in (0, horizon {seq.horizon}], got {t!r}")
    return t


def bohr_mean(seq: PhaseSequence, t: float) -> complex:
    """Time average (1/t) * integral_0^t e^{i Phi(tau)} d tau.

    Computed exactly as a sum over the constant segments between events, so
    there is no sampling step to tune.  The segments are summed window by
    window (see _windows), so memory stays bounded and accuracy does not
    degrade as t grows.  The magnitude is always <= 1 and equals 1 only for a
    phase constant on [0, t].
    """
    t = _check_time(seq, t)
    total = 0j
    for bounds, factors in _windows(seq, t):
        total += _segment_sum(bounds, factors)
    return complex(total / t)


def fourier_spectrum(seq: PhaseSequence, lams, t: float) -> np.ndarray:
    """Fourier coefficients (1/t) * integral_0^t e^{i Phi(tau)} e^{-i lam tau} d tau.

    One coefficient per entry of ``lams``, all from one pass over the same
    windows as bohr_mean.  The oscillatory factor is integrated in closed
    form on each constant segment via the numerically stable kernel
    ``(b - a) * sinc(lam (b-a) / 2) * e^{-i lam (a+b)/2}``, which reduces to
    the plain segment length at lam = 0; windows are accumulated in the same
    order as in bohr_mean, so lam = 0 reproduces bohr_mean exactly.
    """
    t = _check_time(seq, t)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise DomainError("every lam must be finite")
    out = np.zeros(lams.size, dtype=complex)
    for bounds, factors in _windows(seq, t):
        width = np.diff(bounds)
        centers = bounds[:-1] + bounds[1:]
        scale, sinc, kernel = np.empty_like(width), np.empty_like(width), np.empty_like(factors)
        for k, lam in enumerate(lams):
            # width * np.sinc(lam * width / (2 pi)) in np.sinc's own steps:
            # y = pi * x, a zero y replaced by eps (giving 1.0), then sin(y) / y
            np.multiply(lam, width, out=scale)
            scale /= 2.0 * np.pi
            scale *= np.pi
            scale[scale == 0.0] = np.finfo(float).eps
            np.sin(scale, out=sinc)
            sinc /= scale
            sinc *= width
            # times e^{-i lam (a + b) / 2}, whose angle is (-0.5 lam) * centers
            np.multiply(centers, -0.5 * lam, out=scale)
            _unit_phasors(scale, kernel)
            kernel.real *= sinc
            kernel.imag *= sinc
            np.multiply(factors, kernel, out=kernel)
            out[k] += np.sum(kernel)
    return out / t


def fourier_bohr_coefficient(seq: PhaseSequence, lam: float, t: float) -> complex:
    """One Fourier coefficient; see fourier_spectrum."""
    return complex(fourier_spectrum(seq, [lam], t)[0])


@dataclass(frozen=True)
class AlmostPeriodCandidate:
    shift: float
    discrepancy: float


@dataclass(frozen=True)
class AlmostPeriodReport:
    """Shifts that reproduce the phase factor within epsilon.

    ``candidates`` lists every scanned shift whose discrepancy
    sup_tau |e^{i Phi(tau + shift)} - e^{i Phi(tau)}| over the comparison
    window stayed at or below epsilon, ordered by shift.
    """

    epsilon: float
    candidates: Tuple[AlmostPeriodCandidate, ...]
    window: Tuple[float, float]
    sample_step: float
    scanned: int
    sampling: str = "exact supremum over merged constant segments (midpoint probes)"

    def best(self) -> AlmostPeriodCandidate:
        if not self.candidates:
            raise ValueError("no candidate shifts passed")
        return min(self.candidates, key=lambda c: c.discrepancy)


def find_almost_periods(
    seq: PhaseSequence, epsilon: float, search_bound: float, sample_step: float
) -> AlmostPeriodReport:
    """Scan candidate shifts for epsilon-almost-periods of e^{i Phi}.

    Candidate shifts are all integer multiples of the active periods up to
    ``search_bound`` (the lattice on which multiples of different periods
    nearly coincide) together with a uniform fallback grid of pitch
    ``sample_step``.  The discrepancy of a shift is the exact supremum of
    |e^{i Phi(tau + shift)} - e^{i Phi(tau)}| over the comparison window:
    both functions are piecewise constant, so probing the midpoint of every
    segment of their merged event partition realizes the supremum without a
    sampling-density parameter.  Segments thinner than 1e-9 time units are
    float artifacts of shifted event times and are skipped.
    """
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise DomainError(f"epsilon must be > 0, got {epsilon!r}")
    sample_step = float(sample_step)
    if not math.isfinite(sample_step) or sample_step <= 0.0:
        raise DomainError(f"sample_step must be > 0, got {sample_step!r}")
    search_bound = float(search_bound)
    if not math.isfinite(search_bound) or search_bound <= 0.0:
        raise DomainError(f"search_bound must be > 0, got {search_bound!r}")
    if search_bound > seq.horizon / 2.0:
        raise DomainError(
            f"search_bound {search_bound} exceeds horizon/2 = {seq.horizon / 2.0}; "
            "the shifted window must fit inside the horizon"
        )

    window_end = seq.horizon - search_bound
    shifts = [np.arange(1, math.floor(search_bound / sample_step) + 1) * sample_step]
    _, periods, _ = seq._active_arrays()
    for T in periods:
        shifts.append(np.arange(1, math.floor(search_bound / T) + 1) * T)
    candidates = np.unique(np.concatenate(shifts)) if shifts else np.empty(0)
    candidates = candidates[(candidates > 0.0) & (candidates <= search_bound)]

    # e^{i Phi(tau)} for every tau, indexed by the number of event times <= tau
    times = np.unique(event_arrays(seq, 0.0, seq.horizon)[0])
    factors = np.exp(1j * phase_at_many(seq, np.concatenate(([0.0], times))))
    base_times = times[: np.searchsorted(times, window_end, side="right")]
    passing = []
    for shift in candidates:
        lo, hi = np.searchsorted(times, (shift, shift + window_end), side="right")
        shifted = times[lo:hi] - shift
        cuts = np.unique(np.concatenate(([0.0], base_times, shifted, [window_end])))
        cuts = cuts[(cuts >= 0.0) & (cuts <= window_end)]
        widths = np.diff(cuts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        mids = mids[widths > _SLIVER]
        if mids.size == 0:
            continue
        here = factors[np.searchsorted(times, mids, side="right")]
        there = factors[np.searchsorted(times, np.minimum(mids + shift, seq.horizon), side="right")]
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


@dataclass(frozen=True)
class RandomnessReport:
    """Scores characterizing how random a sampled phase stream looks.

    The battery characterizes, it does not certify: monobit is the pass/fail
    statistic (degenerate constant streams score p ~ 0), while the serial
    correlation and permutation entropy are recorded as descriptive evidence.
    """

    monobit_p: float
    serial_correlation: complex
    permutation_entropy: float
    sample_count: int
    discretization: str


def _monobit_p(bits: np.ndarray) -> float:
    n = bits.size
    s = abs(2.0 * float(np.count_nonzero(bits)) - n) / math.sqrt(n)
    return math.erfc(s / math.sqrt(2.0))


def _lag1_circular_correlation(z: np.ndarray) -> complex:
    zc = z - z.mean()
    denom = float(np.sum(np.abs(zc) ** 2))
    if denom == 0.0:
        return 0j
    return complex(np.sum(zc[:-1] * np.conj(zc[1:])) / denom)


def _permutation_entropy(x: np.ndarray, order: int = 3) -> float:
    windows = np.lib.stride_tricks.sliding_window_view(x, order)
    ranks = np.argsort(windows, axis=1, kind="stable")
    codes = ranks @ (order ** np.arange(order))
    _, counts = np.unique(codes, return_counts=True)
    p = counts / windows.shape[0]
    return float(-(p * np.log(p)).sum() / math.log(math.factorial(order)) + 0.0)


def score_phase_samples(
    phases, discretization: str = "caller-supplied phase samples"
) -> RandomnessReport:
    """Run the randomness battery on an already-sampled phase stream.

    Bits are the indicator (phase mod 2*pi) < pi; the serial statistic is the
    lag-1 circular autocorrelation of e^{i phase}; permutation entropy is
    order 3 with stable (position-order) tie ranks, normalized to [0, 1].
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 1000:
        raise DomainError(f"need a 1-d array of >= 1000 samples, got shape {phases.shape}")
    reduced = np.mod(phases, TWO_PI)
    bits = reduced < math.pi
    z = np.exp(1j * reduced)
    return RandomnessReport(
        monobit_p=_monobit_p(bits),
        serial_correlation=_lag1_circular_correlation(z),
        permutation_entropy=_permutation_entropy(phases),
        sample_count=int(phases.size),
        discretization=discretization,
    )


def randomness_battery(
    seq: PhaseSequence, t: float, n_samples: int, seed: int = 0
) -> RandomnessReport:
    """Sample the sequence at seeded uniform random times and score the stream.

    Draws ``n_samples`` (>= 1000) i.i.d. uniform times on [0, t], sorts them,
    evaluates the phase there, and delegates to score_phase_samples.  The seed
    fully determines the sample times.
    """
    t = _check_time(seq, t)
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise DomainError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1000:
        raise DomainError(f"n_samples must be >= 1000, got {n_samples}")
    rng = np.random.default_rng(seed)
    taus = np.sort(rng.uniform(0.0, t, int(n_samples)))
    phases = phase_at_many(seq, taus)
    return score_phase_samples(
        phases,
        discretization=(
            f"{int(n_samples)} iid uniform times on [0, {t!r}], sorted, seed={seed}; "
            "bit = (phase mod 2pi) < pi; permutation entropy order 3, stable ties"
        ),
    )
