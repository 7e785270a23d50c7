"""Two-particle exchanged-sequence correlation experiment and CHSH statistic.

A pair holds two phase sequences on one surface and cycle assignment whose
winding content has been exchanged between the particles.  Only the relative
phase ``gamma_a(tau) = Phi_b(tau) - Phi_a(tau)`` is observable; a detector at
angle theta responds with cos(theta + gamma).  The shared assignment makes
gamma the phase sequence of the difference chain ``chain_b - chain_a``, and
the temporal correlation of the two detector responses is

    E(theta_a, theta_b; t) = cos(theta_a + theta_b) + Re(e^{i(theta_a - theta_b)} M2(t)),

where M2(t) = (1/t) * integral_0^t e^{2 i gamma} is summed exactly over the
constant segments of gamma.  The second term, the residual, vanishes as t
grows whenever 2*gamma equidistributes mod 2*pi.

M2 does not depend on the angles, so every pair reduction reads it from
one memo of the 256 most recently used (pair, ends, window size): the lam = 0
integrals of e^{2 i gamma} over [0, end] for each of the ascending ends, one
complex per end from one ``sequence._window_integrals`` pass, and the segment
count at the last end.  ``correlation``, ``correlations`` and ``chsh`` ask for
the ends (t,), ``residual_curve`` for its horizons, so the residual curves of
any detector settings over one horizon ladder share an entry.  A ladder of
more than ``_MEMO_ENDS`` horizons is summed by the same pass but not kept,
so the memo never holds more than 256 * _MEMO_ENDS ends.  The angles never
enter the memo; a hit builds no sequence and counts no event.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from . import sequence
from .errors import DimensionError, DomainError
from .sequence import (
    PhaseSequence,
    _check_time,
    _window_integrals,
    event_count,
    phase_at,
)
from .sequence import event_arrays  # noqa: F401 -- perfbench/spans.py wraps this binding
from .topology import _real, _reals, wrap_angle


@dataclass(frozen=True)
class PairConfig:
    """Two exchanged phase sequences sharing one surface, assignment and horizon."""

    sequence_a: PhaseSequence
    sequence_b: PhaseSequence

    def __post_init__(self):
        if self.sequence_a.surface != self.sequence_b.surface:
            raise DimensionError("pair sequences live on different surfaces")
        if self.sequence_a.horizon != self.sequence_b.horizon:
            raise DomainError(
                f"pair sequences have different horizons: "
                f"{self.sequence_a.horizon} vs {self.sequence_b.horizon}"
            )
        if self.sequence_a.assignment != self.sequence_b.assignment:
            raise DomainError("pair sequences have different cycle assignments")

    @property
    def horizon(self) -> float:
        return self.sequence_a.horizon

    @property
    def difference(self) -> PhaseSequence:
        """The relative phase gamma_a as the sequence of chain_b - chain_a."""
        a, b = self.sequence_a, self.sequence_b
        return PhaseSequence(a.surface, b.chain + (-a.chain), a.assignment, a.horizon)

    def swapped(self) -> "PairConfig":
        """The same pair seen from the other particle (sequences exchanged)."""
        return PairConfig(self.sequence_b, self.sequence_a)


def relative_phase(pair: PairConfig, tau: float) -> float:
    """gamma_a(tau) = Phi_b(tau) - Phi_a(tau), reduced to [0, 2*pi).

    The other particle's relative phase is the negation: evaluate on
    ``pair.swapped()`` to get gamma_b = -gamma_a mod 2*pi.
    """
    return wrap_angle(phase_at(pair.sequence_b, tau) - phase_at(pair.sequence_a, tau))


@dataclass(frozen=True)
class CorrelationEstimate:
    """One exact evaluation of the temporal correlation at a finite horizon.

    ``value`` = cos(theta_a + theta_b) + ``residual`` by construction, with
    the residual derived from M2, never fitted; ``segment_count`` is the
    number of events of both sequences in (0, t] plus one.
    """

    theta_a: float
    theta_b: float
    t: float
    value: float
    residual: float
    segment_count: int


def _doubled(seq: PhaseSequence) -> PhaseSequence:
    """The sequence whose phase is twice seq's: its chain added to itself."""
    return replace(seq, chain=seq.chain + seq.chain)


_MEMO_ENDS = 64  # the longest horizon ladder whose integrals the memo keeps


@functools.lru_cache(maxsize=256)
def _memo_moment(pair: PairConfig, ends: Tuple[float, ...], window_events: int) -> Tuple[np.ndarray, int]:
    """(read-only integral of e^{2 i gamma} over [0, end] per end, segment count at ends[-1]).

    ``window_events`` keys the entry on the window size.
    """
    t = ends[-1]
    segments = event_count(pair.sequence_a, 0.0, t) + event_count(pair.sequence_b, 0.0, t) + 1
    integrals = _window_integrals(_doubled(pair.difference), (0.0,), ends)[:, 0]
    integrals.flags.writeable = False
    return integrals, segments


def _check_angles(theta_a, theta_b) -> Tuple[float, float]:
    """(theta_a, theta_b) as floats whose sum and difference are finite."""
    return _finite_sum_and_difference(_real("angles", theta_a), _real("angles", theta_b))


def _finite_sum_and_difference(theta_a: float, theta_b: float) -> Tuple[float, float]:
    """The float angles (theta_a, theta_b), refused unless their sum and difference are finite."""
    if not (math.isfinite(theta_a + theta_b) and math.isfinite(theta_a - theta_b)):
        raise DomainError(f"angles {theta_a!r} and {theta_b!r} must have a finite sum and difference")
    return theta_a, theta_b


def _estimates(pair: PairConfig, settings: List[Tuple[float, float]], t: float) -> Tuple[CorrelationEstimate, ...]:
    """One correlation per checked (theta_a, theta_b) in ``settings``, all from one M2(t)."""
    t = _check_time(pair.sequence_a, t)
    if not settings:
        return ()
    integrals, segments = _memo_moment(pair, (t,), sequence._WINDOW_EVENTS)
    m2 = complex((integrals / t)[0])  # numpy's array division: the bits of sequence.bohr_mean
    out = []
    for ta, tb in settings:
        residual = (cmath.exp(1j * (ta - tb)) * m2).real
        out.append(CorrelationEstimate(ta, tb, t, math.cos(ta + tb) + residual, residual, segments))
    return tuple(out)


def correlations(pair: PairConfig, settings, t: float) -> Tuple[CorrelationEstimate, ...]:
    """One correlation per (theta_a, theta_b) in ``settings``, all from one M2(t)."""
    rows = _reals("settings", settings, width=2).tolist()
    return _estimates(pair, [_finite_sum_and_difference(ta, tb) for ta, tb in rows], t)


def correlation(
    pair: PairConfig, theta_a: float, theta_b: float, t: float
) -> CorrelationEstimate:
    """Temporal correlation E(theta_a, theta_b; t) of the two detector streams.

    E = (2/t) * integral_0^t cos(theta_a + gamma(tau)) cos(theta_b - gamma(tau)) d tau
      = cos(theta_a + theta_b) + Re(e^{i (theta_a - theta_b)} * M2(t)).

    M2 is summed exactly over the constant segments of the difference
    sequence, so there is no time step.
    """
    return _estimates(pair, [_check_angles(theta_a, theta_b)], t)[0]


def residual_curve(
    pair: PairConfig, theta_a: float, theta_b: float, horizons: Sequence[float]
) -> List[Tuple[float, float]]:
    """Residual of the correlation at each horizon, from one pass over M2's windows.

    ``horizons`` must be sorted ascending, positive, and within the pair's
    horizon.  Returns (t, residual) tuples.  The integrals come from the memo
    keyed on (pair, horizons, window size), which the angles never enter, so
    the curves of every detector setting over one ladder share one pass; a
    ladder of more than ``_MEMO_ENDS`` horizons is summed afresh each call.
    """
    theta_a, theta_b = _check_angles(theta_a, theta_b)
    hs = [_check_time(pair.sequence_a, h, "every horizon t") for h in _reals("horizons", horizons).tolist()]
    if not hs:
        raise DomainError("horizons must be non-empty")
    if any(b < a for a, b in zip(hs, hs[1:])):
        raise DomainError("horizons must be sorted ascending")
    rotation = cmath.exp(1j * (theta_a - theta_b))
    moment = _memo_moment if len(hs) <= _MEMO_ENDS else _memo_moment.__wrapped__
    integrals, _ = moment(pair, tuple(hs), sequence._WINDOW_EVENTS)
    return [(h, (rotation * complex(i_h)).real / h) for h, i_h in zip(hs, integrals)]


@dataclass(frozen=True)
class ChshResult:
    """Four correlations at shared horizon plus the CHSH combination.

    ``estimates`` holds E(a1,b1), E(a1,b2), E(a2,b1), E(a2,b2) in that order;
    S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2).  |S| <= 4 always and the
    classical local bound is 2.  At the canonical angles (0, pi/2, 7pi/4,
    pi/4) the four e^{i(theta_a - theta_b)}, with those signs, sum to zero,
    so the residuals cancel and S = 2*sqrt(2) at every t; the finite-t
    physics is in each estimate's residual, at most |M2(t)|.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    estimates: Tuple[CorrelationEstimate, ...]
    s: float


def chsh(
    pair: PairConfig, a1: float, a2: float, b1: float, b2: float, t: float
) -> ChshResult:
    """Run the four-setting CHSH combination at one horizon, from one M2."""
    a1, a2, b1, b2 = [_real("angles", x) for x in (a1, a2, b1, b2)]
    settings = [_finite_sum_and_difference(x, y) for x, y in ((a1, b1), (a1, b2), (a2, b1), (a2, b2))]
    e11, e12, e21, e22 = _estimates(pair, settings, t)
    return ChshResult(
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        estimates=(e11, e12, e21, e22),
        s=e11.value + e12.value + e21.value - e22.value,
    )
