import math
import os
import subprocess
import sys
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_rational_by_enumeration
from windingphase import (
    CycleAssignment,
    DimensionError,
    DomainError,
    PhaseSequence,
    SurfaceSpec,
    U1Phase,
    WindingChain,
    certify_incommensurable,
    chain_compose,
    find_almost_periods,
    fourier_spectrum,
    holonomy_loop,
    pairing,
    phase_at,
    phase_at_many,
    randomness_battery,
    wrap_angle,
)
from windingphase.errors import _shown
from windingphase.topology import _best_rational

TWO_PI = 2.0 * math.pi


def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestSurfaceSpec:
    def test_basis_size_is_twice_genus(self):
        assert SurfaceSpec(0).basis_size == 0
        assert SurfaceSpec(1).basis_size == 2
        assert SurfaceSpec(5).basis_size == 10

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(DomainError):
            SurfaceSpec(-1)
        with pytest.raises(DomainError):
            SurfaceSpec(1.5)
        with pytest.raises(DomainError):
            SurfaceSpec(True)


class TestWindingChain:
    def test_compose_componentwise(self):
        s = SurfaceSpec(1)
        a = WindingChain(s, (1, 0))
        b = WindingChain(s, (0, 2))
        assert chain_compose(a, b).coefficients == (1, 2)
        assert (a + b).coefficients == (1, 2)

    def test_zero_is_identity(self):
        s = SurfaceSpec(2)
        m = WindingChain(s, (3, -1, 0, 7))
        assert chain_compose(m, WindingChain.zero(s)) == m

    def test_inverse_cancels(self):
        s = SurfaceSpec(1)
        a = WindingChain(s, (2, -1))
        b = WindingChain(s, (-2, 1))
        assert chain_compose(a, b).coefficients == (0, 0)
        assert (-a) == b

    def test_length_must_match_basis(self):
        with pytest.raises(DimensionError):
            WindingChain(SurfaceSpec(1), (1, 2, 3))

    def test_coefficients_must_be_exact_integers(self):
        s = SurfaceSpec(1)
        with pytest.raises(DomainError):
            WindingChain(s, (1.0, 2))
        with pytest.raises(DomainError):
            WindingChain(s, (True, 0))
        with pytest.raises(DomainError):  # numpy makes timedelta64 an integer type
            WindingChain(s, (np.timedelta64(3), 0))
        with pytest.raises(DomainError, match="must be a sequence of integers"):
            WindingChain(s, 1j)  # not iterable
        # numpy integers are fine and normalize to python ints
        c = WindingChain(s, tuple(np.array([4, -2], dtype=np.int64)))
        assert c.coefficients == (4, -2)

    def test_compose_requires_same_surface(self):
        with pytest.raises(DimensionError):
            chain_compose(
                WindingChain(SurfaceSpec(1), (1, 0)),
                WindingChain(SurfaceSpec(2), (1, 0, 0, 0)),
            )


class TestCycleAssignment:
    def test_betas_normalized_to_standard_interval(self):
        s = SurfaceSpec(1)
        a = CycleAssignment(s, (2 * TWO_PI + 0.5, -0.5), (1.0, 1.0))
        assert a.betas[0] == pytest.approx(0.5, abs=1e-12)
        assert a.betas[1] == pytest.approx(TWO_PI - 0.5, abs=1e-12)
        assert all(0.0 <= b < TWO_PI for b in a.betas)

    def test_periods_must_be_positive_finite(self):
        s = SurfaceSpec(1)
        with pytest.raises(DomainError):
            CycleAssignment(s, (0.0, 0.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            CycleAssignment(s, (0.0, 0.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            CycleAssignment(s, (0.0, 0.0), (1.0, math.inf))

    def test_lengths_must_match_basis(self):
        with pytest.raises(DimensionError):
            CycleAssignment(SurfaceSpec(1), (0.0,), (1.0, 1.0))
        with pytest.raises(DimensionError):
            CycleAssignment(SurfaceSpec(1), (0.0, 0.0), (1.0,))


class TestU1Phase:
    def test_multiplication_adds_angles_mod_2pi(self):
        p = U1Phase(5.0) * U1Phase(2.0)
        assert p.angle == pytest.approx(wrap_angle(7.0), abs=1e-15)
        q = U1Phase(4.0) * U1Phase(3.0)
        assert q.angle == pytest.approx(7.0 - TWO_PI, abs=1e-12)

    def test_identity_and_inverse(self):
        assert U1Phase.identity().angle == 0.0
        p = U1Phase(1.25)
        assert (p * p.inverse()).angle == pytest.approx(0.0, abs=1e-15)

    def test_angle_wrapped_on_construction(self):
        assert 0.0 <= U1Phase(-0.25).angle < TWO_PI
        assert U1Phase(TWO_PI).angle == 0.0

    def test_factor(self):
        p = U1Phase(math.pi / 2)
        assert p.factor == pytest.approx(1j, abs=1e-15)


class TestPairing:
    def test_single_cycle(self):
        s = SurfaceSpec(1)
        phase = pairing(WindingChain(s, (1, 0)), CycleAssignment(s, (math.pi / 3, math.pi / 5), (1.0, 1.0)))
        assert phase.angle == pytest.approx(math.pi / 3, abs=1e-15)

    def test_zero_chain_is_identity(self):
        s = SurfaceSpec(2)
        rng = np.random.default_rng(0)
        for _ in range(25):
            assign = CycleAssignment(s, tuple(rng.uniform(0, TWO_PI, 4)), (1.0, 2.0, 3.0, 4.0))
            assert pairing(WindingChain.zero(s), assign).angle == 0.0

    def test_integer_combination(self):
        # independent scalar evaluation: 2*(pi/4) - 1*(pi/2) = 0
        expected = wrap_angle(math.fsum([2 * (math.pi / 4), -1 * (math.pi / 2)]))
        assert expected == 0.0
        s = SurfaceSpec(1)
        phase = pairing(WindingChain(s, (2, -1)), CycleAssignment(s, (math.pi / 4, math.pi / 2), (1.0, 1.0)))
        assert phase.angle == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pairing(
                WindingChain(SurfaceSpec(1), (1, 0)),
                CycleAssignment(SurfaceSpec(2), (0.0,) * 4, (1.0,) * 4),
            )

    def test_homomorphism_over_random_chains(self):
        # angle(pairing(a+b)) == angle(pairing(a)) + angle(pairing(b)) mod 2pi
        s = SurfaceSpec(2)
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            assign = CycleAssignment(s, tuple(rng.uniform(0, TWO_PI, 4)), (1.0, 1.0, 1.0, 1.0))
            a = WindingChain(s, tuple(int(x) for x in rng.integers(-1000, 1001, 4)))
            b = WindingChain(s, tuple(int(x) for x in rng.integers(-1000, 1001, 4)))
            lhs = pairing(chain_compose(a, b), assign).angle
            rhs = (pairing(a, assign) * pairing(b, assign)).angle
            assert circular_distance(lhs, rhs) <= 1e-12

    def test_agrees_with_naive_sum_for_small_chains(self):
        s = SurfaceSpec(1)
        rng = np.random.default_rng(9)
        for _ in range(200):
            betas = tuple(rng.uniform(0, TWO_PI, 2))
            m = tuple(int(x) for x in rng.integers(-10, 11, 2))
            naive = wrap_angle(m[0] * betas[0] + m[1] * betas[1])
            got = pairing(WindingChain(s, m), CycleAssignment(s, betas, (1.0, 1.0))).angle
            assert circular_distance(got, naive) <= 1e-12


class TestHolonomyLoop:
    def test_constant_half_gives_pi_on_any_grid(self):
        for grid in ([0.0, 1.0, 4.0], [0.3, 0.9, 2.2, 5.5], list(np.linspace(0, TWO_PI, 17)[:-1])):
            phase = holonomy_loop([(sig, 0.5) for sig in grid])
            assert phase.angle == pytest.approx(math.pi, abs=1e-12)

    def test_zero_connection(self):
        assert holonomy_loop([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]).angle == 0.0

    def test_sine_integrates_to_zero(self):
        # analytic loop integral of sin over a full turn is 0
        sig = TWO_PI * np.arange(256) / 256
        angle = holonomy_loop(list(zip(sig, np.sin(sig)))).angle
        assert min(angle, TWO_PI - angle) <= 1e-10

    def test_second_order_convergence_on_skewed_grids(self):
        # sin^2 over a full turn integrates to pi; an asymmetric smooth grid
        # map exposes the leading h^2 error term of the trapezoid rule
        def err(n):
            u = np.arange(n) / n
            sig = TWO_PI * (u + 0.2 * u * (1 - u) * (1.5 - u))
            phase = holonomy_loop(list(zip(sig, np.sin(sig) ** 2)))
            return abs(phase.angle - math.pi)

        errors = [err(n) for n in (64, 128, 256)]
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(3.4 <= r <= 4.6 for r in ratios), ratios

    def test_input_validation(self):
        with pytest.raises(DomainError):
            holonomy_loop([(0.0, 1.0)])
        with pytest.raises(DomainError):
            holonomy_loop([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(DomainError):
            holonomy_loop([(1.0, 1.0), (0.5, 1.0)])
        with pytest.raises(DomainError):
            holonomy_loop([(-0.1, 1.0), (1.0, 1.0)])
        with pytest.raises(DomainError):
            holonomy_loop([(0.0, 1.0), (TWO_PI + 0.1, 1.0)])
        with pytest.raises(DomainError, match="finite"):
            holonomy_loop([(0.0, math.nan), (1.0, 1.0)])


class TestCertifyIncommensurable:
    def test_exact_rational_ratio(self):
        s = SurfaceSpec(1)
        rep = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (2.0, 4.0)), 64, 1e-9)
        v = rep.verdicts[0]
        assert v.commensurable
        assert v.witness == Fraction(1, 2)
        assert (v.numerator_index, v.denominator_index) == (0, 1)

    def test_equal_periods(self):
        s = SurfaceSpec(1)
        v = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (3.0, 3.0)), 64, 1e-9).verdicts[0]
        assert v.commensurable
        assert v.witness == Fraction(1, 1)

    def test_sqrt2_incommensurable_at_depth(self):
        # oracle: the convergents of sqrt(2) with denominator <= 64 all miss
        # the ratio by far more than 1e-9
        convergents = [Fraction(1, 1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12), Fraction(41, 29)]
        assert all(abs(math.sqrt(2) - c.numerator / c.denominator) > 1e-9 for c in convergents)
        s = SurfaceSpec(1)
        rep = certify_incommensurable(
            CycleAssignment(s, (0.0, 0.0), (1.0, math.sqrt(2))), 64, 1e-9
        )
        assert rep.all_incommensurable()
        assert rep.verdicts[0].witness is None

    def test_wide_ratio_found_in_reverse_orientation(self):
        # 100/1 has denominator 1; the reciprocal needs q = 100 > 64, so only
        # the reverse orientation can certify this pair at depth 64
        s = SurfaceSpec(1)
        v = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (1.0, 100.0)), 64, 1e-9).verdicts[0]
        assert v.commensurable
        assert v.witness == Fraction(100, 1)
        assert (v.numerator_index, v.denominator_index) == (1, 0)
        assert abs(100.0 / 1.0 - v.witness.numerator / v.witness.denominator) <= 1e-9

    def test_witness_bound_invariant(self):
        s = SurfaceSpec(2)
        rep = certify_incommensurable(
            CycleAssignment(s, (0.0,) * 4, (2.0, 4.0, 3.0, math.sqrt(2))), 64, 1e-9
        )
        assert len(rep.verdicts) == 6
        for v in rep.verdicts:
            if v.commensurable:
                ratio = rep.periods[v.numerator_index] / rep.periods[v.denominator_index]
                assert 1 <= v.witness.denominator <= 64
                assert abs(ratio - v.witness.numerator / v.witness.denominator) <= 1e-9

    def test_symmetric_under_index_swap(self):
        s = SurfaceSpec(1)
        for t0, t1 in [(1.0, 100.0), (2.0, 4.0), (1.0, math.sqrt(2)), (0.7, 5.3)]:
            v_fwd = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (t0, t1)), 64, 1e-9).verdicts[0]
            v_rev = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (t1, t0)), 64, 1e-9).verdicts[0]
            assert v_fwd.commensurable == v_rev.commensurable

    def test_invariant_under_common_rescaling(self):
        s = SurfaceSpec(1)
        rng = np.random.default_rng(3)
        for t0, t1 in [(2.0, 4.0), (1.0, math.sqrt(2)), (3.0, 3.0)]:
            base = certify_incommensurable(CycleAssignment(s, (0.0, 0.0), (t0, t1)), 64, 1e-9).verdicts[0]
            for _ in range(5):
                scale = float(rng.uniform(0.1, 50.0))
                scaled = certify_incommensurable(
                    CycleAssignment(s, (0.0, 0.0), (scale * t0, scale * t1)), 64, 1e-9
                ).verdicts[0]
                assert scaled.commensurable == base.commensurable

    def test_tiny_ratio_not_witnessed_by_zero(self):
        # periods (1, 1e9*sqrt2): the forward ratio ~7e-10 sits within any
        # loose tolerance of 0/1, but 0 witnesses no rational relation; the
        # reverse orientation has no denominator <= 64 either
        s = SurfaceSpec(1)
        v = certify_incommensurable(
            CycleAssignment(s, (0.0, 0.0), (1.0, 1e9 * math.sqrt(2))), 64, 1e-9
        ).verdicts[0]
        assert not v.commensurable

    # The last three pairs' ratios overflow to inf in one orientation and
    # underflow to a subnormal or 0 in the other: neither has a convergent
    # that counts.
    @pytest.mark.parametrize(
        "periods, verdict",
        [
            ((2.0, 4.0), "commensurable"),
            ((1.0, math.sqrt(2)), "incommensurable-at-depth"),
            ((1e-300, 1e10), "incommensurable-at-depth"),
            ((1e-200, 1e200), "incommensurable-at-depth"),
            ((1.0, 1e-310), "incommensurable-at-depth"),
        ],
        ids=["rational", "sqrt2", "subnormal-and-inf", "zero-and-inf", "inf-and-subnormal"],
    )
    def test_verdict_names_the_outcome(self, periods, verdict):
        v = certify_incommensurable(CycleAssignment(SurfaceSpec(1), (0.0, 0.0), periods), 64, 1e-9).verdicts[0]
        assert v.verdict == verdict
        assert (v.witness is None) == (verdict == "incommensurable-at-depth")

    def test_genus_zero_has_no_pairs(self):
        s = SurfaceSpec(0)
        rep = certify_incommensurable(CycleAssignment(s, (), ()), 64, 1e-9)
        assert rep.verdicts == ()
        assert rep.all_incommensurable()

    def test_parameter_validation(self):
        s = SurfaceSpec(1)
        assign = CycleAssignment(s, (0.0, 0.0), (1.0, 2.0))
        with pytest.raises(DomainError):
            certify_incommensurable(assign, 0, 1e-9)
        with pytest.raises(DomainError):
            certify_incommensurable(assign, 64, 0.0)
        with pytest.raises(DomainError):
            certify_incommensurable(assign, 2.5, 1e-9)


# A value float() cannot read is refused like any other value out of its
# domain, by the one real rule every argument goes through; so is a string
# or bytes that float() would parse.
@pytest.mark.parametrize(
    "call",
    [
        lambda s, assign, seq: CycleAssignment(s, ("x", 0.0), (1.0, 2.0)),
        lambda s, assign, seq: find_almost_periods(seq, None, 10.0, 1.0),
        lambda s, assign, seq: PhaseSequence(s, seq.chain, assign, "big"),
        lambda s, assign, seq: certify_incommensurable(assign, 64, None),
        lambda s, assign, seq: find_almost_periods(seq, "0.3", 10.0, 1.0),
        lambda s, assign, seq: phase_at(seq, "2.5"),
        lambda s, assign, seq: phase_at(seq, b"3"),
    ],
    ids=["beta", "epsilon", "horizon", "tolerance", "numeric_string", "tau_string", "tau_bytes"],
)
def test_non_numbers_raise_domain_error(call):
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (1.0, 2.0), (1.0, math.sqrt(2.0)))
    seq = PhaseSequence(s, WindingChain(s, (1, 1)), assign, 100.0)
    with pytest.raises(DomainError):
        call(s, assign, seq)


@pytest.mark.parametrize(
    "call",
    [lambda: WindingChain(SurfaceSpec(1), (1, 0)) + 1, lambda: U1Phase(0.1) * 1],
    ids=["chain", "phase"],
)
def test_group_operations_refuse_other_types(call):
    with pytest.raises(TypeError):
        call()


def test_integer_too_large_for_a_float_raises_domain_error():
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (1.0, 2.0), (1.0, math.sqrt(2.0)))
    seq = PhaseSequence(s, WindingChain(s, (1, 1)), assign, 100.0)
    with pytest.raises(DomainError, match="tau must be finite, got an integer too large for a float"):
        phase_at(seq, 10**400)


# Booleans are not numbers here either, as the config schema already holds:
# True is refused where it would pass as 1.0, a scalar or an array of them,
# and mixed with floats, which numpy reads as one float array.
@pytest.mark.parametrize(
    "call",
    [
        lambda s, assign, seq: phase_at(seq, True),
        lambda s, assign, seq: PhaseSequence(s, seq.chain, assign, True),
        lambda s, assign, seq: CycleAssignment(s, (1.0, 2.0), (True, 2.0)),
        lambda s, assign, seq: fourier_spectrum(seq, [True, False], 10.0),
        lambda s, assign, seq: phase_at_many(seq, [True, 2.0]),
        lambda s, assign, seq: fourier_spectrum(seq, [True, 0.5], 10.0),
    ],
    ids=["tau", "horizon", "period", "lams", "taus_with_floats", "lams_with_floats"],
)
def test_booleans_are_not_numbers(call):
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (1.0, 2.0), (1.0, math.sqrt(2.0)))
    seq = PhaseSequence(s, WindingChain(s, (1, 1)), assign, 100.0)
    with pytest.raises(DomainError):
        call(s, assign, seq)


# str() of an int past 4300 digits raises; the refusal echoes it in short form.
def test_an_integer_past_4300_digits_is_refused_in_short_form():
    s = SurfaceSpec(1)
    seq = PhaseSequence(s, WindingChain(s, (1, 1)), CycleAssignment(s, (1.0, 2.0), (1.0, math.sqrt(2.0))), 100.0)
    with pytest.raises(DomainError, match=r"n_samples must be >= 1000, got -1e\+5000$") as exc:
        randomness_battery(seq, 100.0, -10**5000)
    assert len(str(exc.value)) < 200


def decimal_shown(value):
    """An int of 1e17 or more in %.6g form, converted whole by Decimal (quadratic in its digits)."""
    return format(Context(prec=6, Emax=MAX_EMAX).normalize(Decimal(value)), "g")


# Ties at the sixth digit, their neighbours, values a few units of the 16th digit from a tie (where
# the digits of the top 64 bits no longer decide the rounding), carries into a seventh digit,
# 10**k - 1, and powers of two around the 64 bits kept.
EDGE_INTS = [
    m * 10**k + j
    for m in (1000005, 1000015, 1234565, 9999995)
    for k in (11, 400, 4990)
    for j in (-1, 0, 1, -(10 ** (k - 9)), 10 ** (k - 9), 3 * 10 ** (k - 9), -3 * 10 ** (k - 8), 10 ** (k - 8))
]
EDGE_INTS += [10**17, 10**17 + 1, 10**5000 - 1, 10**5000]
EDGE_INTS += [2**n + j for n in (57, 63, 64, 65, 16000) for j in (-1, 0, 1)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    value=st.sampled_from(EDGE_INTS) | st.integers(17, 4999).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1))),
    negative=st.booleans(),
)
def test_huge_ints_are_shown_as_decimal_rounds_them(value, negative):
    value = -value if negative else value
    assert _shown(value) == decimal_shown(value)


def test_every_edge_int_is_shown_as_decimal_rounds_it():
    for value in EDGE_INTS:
        assert (_shown(value), _shown(-value)) == (decimal_shown(value), decimal_shown(-value)), value


# Decimal's conversion of a million-digit int took about 24 s; one division finds the digits shown.
def test_a_million_digit_refusal_is_shown_in_seconds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")) if p
    )
    code = "from windingphase import SurfaceSpec\ntry:\n    SurfaceSpec(-10**10**6)\nexcept ValueError as exc:\n    print(exc)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert proc.stdout == "genus must be >= 0, got -1e+1000000\n", proc.stderr


# Finding the digits of a 33-million-bit int by dividing by 10**k took about 10 s; its top bits give them.
def test_a_huge_refusal_is_shown_without_dividing_by_a_power_of_ten():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")) if p
    )
    code = (
        "import math\nfrom windingphase import *\ns = SurfaceSpec(1)\n"
        "assign = CycleAssignment(s, (1.0, 2.0), (1.0, math.sqrt(2.0)))\n"
        "seq = PhaseSequence(s, WindingChain(s, (1, 1)), assign, 100.0)\n"
        "try:\n    randomness_battery(seq, 1.0, -(1 << 33_000_000))\nexcept ValueError as exc:\n    print(exc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=3)
    assert proc.stdout == "n_samples must be >= 1000, got -7.19302e+9933989\n", proc.stderr


def test_a_coefficient_with_no_float_is_refused():
    s = SurfaceSpec(1)
    assign = CycleAssignment(s, (2.0, 1.0), (1.0, math.sqrt(2)))
    with pytest.raises(DomainError, match=r"must round to a float \(magnitude below 2\*\*1024\)"):
        pairing(WindingChain(s, (10**309, 0)), assign)


# Where tolerance >= 1/(2 N**2) the nearest rational need not be a convergent
# of the ratio's continued fraction (4742/59 is a semiconvergent of 80.37...);
# the certificate must still find it.
@pytest.mark.parametrize(
    "periods, depth, tolerance, witness, orientation",
    [
        ((1.0, 80.37333586492225), 64, 1e-3, Fraction(4742, 59), (1, 0)),
        ((1.0, 46.64278911023739), 10**6, 1e-12, Fraction(19949, 930477), (0, 1)),
    ],
    ids=["depth-64", "depth-1e6"],
)
def test_certificate_finds_the_nearest_rational(periods, depth, tolerance, witness, orientation):
    v = certify_incommensurable(CycleAssignment(SurfaceSpec(1), (0.0, 0.0), periods), depth, tolerance).verdicts[0]
    assert v.commensurable
    assert v.witness == witness
    assert (v.numerator_index, v.denominator_index) == orientation
    assert v.witness_error <= tolerance


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
    depth=st.integers(1, 200),
)
def test_best_rational_is_the_nearest_nonzero_rational(x, depth):
    witness, _ = _best_rational(x, depth)
    _, nearest_err = best_rational_by_enumeration(x, depth)
    assert witness > 0 and witness.denominator <= depth
    assert abs(Fraction(x) - witness) == nearest_err
