"""Genus-g control space: winding chains, cycle phases, and the U(1) pairing.

The control space is a compact orientable surface of genus ``g``.  Its loop
structure is modeled as the integer lattice ``Z^(2g)`` over a chosen basis of
2g independent cycles.  A winding chain assigns an integer traversal count to
each basis cycle; a cycle assignment attaches a phase increment and a
recurrence period to each cycle.  Pairing a chain with an assignment yields a
single gauge-invariant U(1) phase factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, _shown

TWO_PI = 2.0 * math.pi

# TWO_PI == _TWO_PI_INT * 2**_TWO_PI_SCALE exactly (53-bit integer mantissa).
_TWO_PI_MANT, _TWO_PI_EXP = math.frexp(TWO_PI)
_TWO_PI_INT = int(_TWO_PI_MANT * (1 << 53))
_TWO_PI_SCALE = _TWO_PI_EXP - 53

# High/low split grid for the exact pairing accumulation.
_SPLIT_BITS = 26
_SPLIT = float(1 << _SPLIT_BITS)


def wrap_angle(angle: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        # fmod is exact, but adding TWO_PI to a tiny negative rounds up to it
        a = 0.0
    return a


def _integer(name: str, value, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    """``value`` as an int: an exact integer (not a bool or a numpy timedelta) in [``minimum``, ``maximum``]."""
    if isinstance(value, (bool, np.timedelta64)) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {_shown(value)}")
    return int(value)


_NOT_NUMBER_KINDS = "bcmMSU"  # numpy booleans, complex, timedeltas, datetimes and strings


def _not_a_number(value) -> bool:
    """Whether ``value`` (a 0-d array's element) is a bool, str or bytes, or a numpy value of a _NOT_NUMBER_KINDS kind.

    A float conversion would take True as 1.0, parse "2.5", drop an imaginary
    part with only a warning, and read a timedelta or datetime as its count of
    units.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    return isinstance(value, (str, bytes, bool)) or (
        isinstance(value, np.generic) and value.dtype.kind in _NOT_NUMBER_KINDS
    )


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, and > 0 when ``positive``."""
    try:
        if type(value) is not float and _not_a_number(value):  # a plain float is a number
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {_shown(value)}") from None
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise DomainError(f"{name} must be {'> 0 and ' if positive else ''}finite, got {x!r}")
    return x


def _reals(name: str, values, width: int = 0) -> np.ndarray:
    """``values``, a real scalar or 1-d sequence, as a 1-d array of finite floats; with ``width``, rows of that many."""
    try:
        x = np.asarray(values)
        # numpy reads [True, 0.5] as floats, so a sequence's elements are checked as objects
        items = x if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        if x.dtype.kind in _NOT_NUMBER_KINDS or (items.dtype.kind == "O" and any(map(_not_a_number, items.flat))):
            raise TypeError
        x = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError):  # a ragged sequence raises ValueError
        raise DomainError(f"{name} must be real numbers that a float can hold") from None
    if items.dtype.kind == "O" and any(v is None for v in items.flat):  # the float conversion made it nan
        raise DomainError(f"{name} must be real numbers, got None")
    # an empty sequence is no rows of any width
    if x.shape[1:] != ((width,) if width else ()) and (x.size or not width) or not np.all(np.isfinite(x)):
        shape = f"rows of {width}" if width else "a scalar or a 1-d array of"
        raise DomainError(f"{name} must be {shape} finite numbers, got shape {x.shape}")
    return x.reshape(-1, width) if width else x


@dataclass(frozen=True)
class SurfaceSpec:
    """Compact orientable surface of the given genus.

    The induced cycle basis has ``2 * genus`` elements; genus 0 is legal and
    yields an empty basis (the constant-phase control case).
    """

    genus: int

    def __post_init__(self):
        object.__setattr__(self, "genus", _integer("genus", self.genus, 0))

    @property
    def basis_size(self) -> int:
        return 2 * self.genus


@dataclass(frozen=True)
class WindingChain:
    """Integer coefficient vector over a surface's cycle basis."""

    surface: SurfaceSpec
    coefficients: Tuple[int, ...]

    def __post_init__(self):
        try:
            coeffs = tuple(_integer(f"coefficients[{k}]", c) for k, c in enumerate(self.coefficients))
        except TypeError:  # not iterable
            raise DomainError(f"coefficients must be a sequence of integers, got {_shown(self.coefficients)}") from None
        object.__setattr__(self, "coefficients", coeffs)
        if len(self.coefficients) != self.surface.basis_size:
            raise DimensionError(
                f"chain has {len(self.coefficients)} coefficients, "
                f"surface basis size is {self.surface.basis_size}"
            )

    @classmethod
    def zero(cls, surface: SurfaceSpec) -> "WindingChain":
        return cls(surface, (0,) * surface.basis_size)

    def __add__(self, other):
        if not isinstance(other, WindingChain):
            return NotImplemented
        return chain_compose(self, other)

    def __neg__(self) -> "WindingChain":
        return WindingChain(self.surface, tuple(-c for c in self.coefficients))


def chain_compose(a: WindingChain, b: WindingChain) -> WindingChain:
    """Componentwise sum of two winding chains on the same surface."""
    if a.surface != b.surface:
        raise DimensionError(
            f"chains live on different surfaces (genus {a.surface.genus} vs "
            f"{b.surface.genus})"
        )
    return WindingChain(a.surface, tuple(x + y for x, y in zip(a.coefficients, b.coefficients)))


@dataclass(frozen=True)
class CycleAssignment:
    """Per-cycle phase increments (radians) and recurrence periods (time units).

    Increments are normalized to [0, 2*pi) on construction; periods must be
    strictly positive and finite.
    """

    surface: SurfaceSpec
    betas: Tuple[float, ...]
    periods: Tuple[float, ...]

    def __post_init__(self):
        betas, periods = _reals("betas", self.betas), _reals("periods", self.periods)
        for name, part in (("betas", betas), ("periods", periods)):
            if part.size != self.surface.basis_size:
                raise DimensionError(f"{part.size} {name} for basis size {self.surface.basis_size}")
        if not np.all(periods > 0.0):
            raise DomainError(f"periods must be > 0, got {float(periods.min())!r}")
        object.__setattr__(self, "betas", tuple(map(wrap_angle, betas.tolist())))
        object.__setattr__(self, "periods", tuple(periods.tolist()))


@dataclass(frozen=True)
class U1Phase:
    """Element of U(1), stored as an angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(_real("angle", self.angle)))

    @classmethod
    def identity(cls) -> "U1Phase":
        return cls(0.0)

    def __mul__(self, other):
        if not isinstance(other, U1Phase):
            return NotImplemented
        return U1Phase(self.angle + other.angle)

    def inverse(self) -> "U1Phase":
        return U1Phase(-self.angle)

    @property
    def factor(self) -> complex:
        """The phase factor e^{i*angle}."""
        return complex(math.cos(self.angle), math.sin(self.angle))


def _reduce_dyadic(k: int, frac_bits: int) -> float:
    """(k * 2**-frac_bits) mod 2*pi, computed exactly in integer arithmetic.

    Exact because 2*pi (the float) is a dyadic rational; requires
    frac_bits <= -_TWO_PI_SCALE.
    """
    shift = -_TWO_PI_SCALE - frac_bits
    r = (k << shift) % _TWO_PI_INT
    return math.ldexp(float(r), _TWO_PI_SCALE)


def _dot_mod_2pi(coefficients: Sequence[int], betas: Sequence[float]) -> float:
    """sum(m_i * beta_i) mod 2*pi with split high/low accumulation.

    The high parts (betas rounded to the 2^-26 grid) accumulate exactly in
    integer arithmetic for any coefficient size.  The low parts are float
    products m * (beta - high), each rounded once, so the error is about
    |m| * 2**-80: the group homomorphism angle(a+b) = angle(a) + angle(b)
    mod 2*pi holds to ~1e-15 for |m| up to about 1e8.  A coefficient that
    does not round to a float (magnitude 2**1024 or more) is refused.
    """
    hi_sum = 0
    lows = []
    for m, beta in zip(coefficients, betas):
        k = round(beta * _SPLIT)
        hi_sum += m * k
        try:
            lows.append(m * (beta - k / _SPLIT))
        except OverflowError:
            raise DomainError(
                "a coefficient times its winding count must round to a float "
                f"(magnitude below 2**1024), got one of {m.bit_length()} bits"
            ) from None
    return wrap_angle(_reduce_dyadic(hi_sum, _SPLIT_BITS) + math.fsum(lows))


def pairing(chain: WindingChain, assign: CycleAssignment) -> U1Phase:
    """Pair a winding chain with a cycle assignment into a U(1) phase.

    Returns the phase with angle ``(sum_i m_i * beta_i) mod 2*pi``.  The map
    is a group homomorphism from the chain lattice to U(1): composing chains
    multiplies their phases.

    Raises
    ------
    DimensionError
        If the chain and the assignment live on different surfaces.
    """
    if chain.surface != assign.surface:
        raise DimensionError(
            f"chain basis size {chain.surface.basis_size} != assignment basis "
            f"size {assign.surface.basis_size}"
        )
    return U1Phase(_dot_mod_2pi(chain.coefficients, assign.betas))


def holonomy_loop(connection_samples: Sequence[Tuple[float, float]]) -> U1Phase:
    """Net phase from transporting around a closed loop of a sampled connection.

    Parameters
    ----------
    connection_samples:
        Ordered ``(sigma, value)`` pairs with ``sigma`` strictly increasing in
        [0, 2*pi].  The loop is closed periodically: a final trapezoid panel
        connects the last sample to the first one shifted by 2*pi, so the
        panels always cover exactly one full turn.

    Returns
    -------
    U1Phase
        The loop integral of the sampled connection, reduced mod 2*pi.
    """
    samples = _reals("connection samples", connection_samples, width=2)
    if len(samples) < 2:
        raise DomainError(f"need at least 2 samples, got {len(samples)}")
    sigma, value = samples.T
    if sigma[0] < 0.0 or sigma[-1] > TWO_PI:
        raise DomainError("sigma values must lie in [0, 2*pi]")
    if np.any(np.diff(sigma) <= 0.0):
        raise DomainError("sigma values must be strictly increasing")
    interior = np.sum(0.5 * (value[1:] + value[:-1]) * np.diff(sigma))
    closing = 0.5 * (value[-1] + value[0]) * (TWO_PI - sigma[-1] + sigma[0])
    return U1Phase(float(interior + closing))


@dataclass(frozen=True)
class PairVerdict:
    """Commensurability verdict for one unordered pair of periods.

    When commensurable, ``witness`` approximates the ratio
    ``periods[numerator_index] / periods[denominator_index]`` to within the
    report tolerance; the orientation is recorded because a denominator bound
    satisfied in one orientation need not be satisfied in the other.
    """

    i: int
    j: int
    commensurable: bool
    witness: Optional[Fraction] = None
    witness_error: Optional[float] = None
    numerator_index: Optional[int] = None
    denominator_index: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "commensurable" if self.commensurable else "incommensurable-at-depth"


@dataclass(frozen=True)
class IncommensurabilityReport:
    """Depth-limited pairwise commensurability verdicts for a set of periods.

    An "incommensurable-at-depth" verdict is never an unconditional proof of
    irrationality: it only says no rational with denominator up to
    ``max_denominator`` approximates the period ratio within ``tolerance``.
    """

    periods: Tuple[float, ...]
    max_denominator: int
    tolerance: float
    verdicts: Tuple[PairVerdict, ...]

    def all_incommensurable(self) -> bool:
        return not any(v.commensurable for v in self.verdicts)


def _best_rational(x: float, max_denominator: int):
    """(p/q, |x - p/q|) for the nonzero rational with q <= max_denominator nearest x.

    0/1 witnesses no rational relation between strictly positive periods, so
    where it is nearest, 1/max_denominator, the nearest nonzero rational, is
    taken.  (None, inf) for a non-finite x (a ratio of periods that overflowed).
    """
    if not math.isfinite(x):
        return None, math.inf
    best = Fraction(x).limit_denominator(max_denominator) or Fraction(1, max_denominator)
    return best, abs(x - best.numerator / best.denominator)


def certify_incommensurable(
    assign: CycleAssignment, max_denominator: int, tolerance: float
) -> IncommensurabilityReport:
    """Certify each pair of periods commensurable or incommensurable-at-depth.

    A pair is flagged commensurable if the nearest nonzero rational with
    denominator up to ``max_denominator``, found exactly by
    ``Fraction.limit_denominator``, approximates its ratio within
    ``tolerance``.  Both ratio orientations are checked so the verdict is
    symmetric even when the bound ``q <= max_denominator`` is only reachable
    on one side (e.g. periods (1, 100) at max_denominator 64).
    """
    max_denominator = _integer("max_denominator", max_denominator, 1)
    tolerance = _real("tolerance", tolerance, positive=True)

    periods = assign.periods
    verdicts = []
    for i in range(len(periods)):
        for j in range(i + 1, len(periods)):
            verdicts.append(_pair_verdict(periods, i, j, max_denominator, tolerance))
    return IncommensurabilityReport(
        periods=periods,
        max_denominator=max_denominator,
        tolerance=tolerance,
        verdicts=tuple(verdicts),
    )


def _pair_verdict(periods, i, j, max_denominator, tolerance) -> PairVerdict:
    for num, den in ((i, j), (j, i)):
        ratio = periods[num] / periods[den]
        witness, err = _best_rational(ratio, max_denominator)
        if witness is not None and err <= tolerance:
            return PairVerdict(
                i=i,
                j=j,
                commensurable=True,
                witness=witness,
                witness_error=err,
                numerator_index=num,
                denominator_index=den,
            )
    return PairVerdict(i=i, j=j, commensurable=False)
