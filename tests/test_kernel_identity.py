"""Exact values of the windowed reductions, and the identity their phase factors rest on.

The golden values are ``float.hex`` strings of results that span many
evaluation windows; the bit-for-bit properties in test_segment_table.py only
cover inputs that fit in one window.  They pin the arithmetic of the window
kernel: a change that reorders a sum, fuses a product or rounds a phase
differently shows up here as a changed bit.
"""

import math

import numpy as np
import pytest

from windingphase import (
    CycleAssignment,
    PairConfig,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    bohr_mean,
    correlations,
    event_arrays,
    fourier_spectrum,
    phase_at,
    residual_curve,
    sequence,
)
from windingphase.correlation import _doubled
from windingphase.sequence import _unit_phasors, _windows

T = 2e5
LAMS = [0.0, 0.7, -3.1, 12.5]


def make_seq(genus, coeffs, betas, periods, horizon):
    s = SurfaceSpec(genus)
    return PhaseSequence(s, WindingChain(s, coeffs), CycleAssignment(s, betas, periods), horizon)


@pytest.fixture(scope="module")
def canonical_pair():
    """demos/configs/canonical.json at horizon 2e5."""
    betas, periods = (3.883222077450933, 4.59961087822572), (1.0, 1.4142135623730951)
    return PairConfig(
        make_seq(1, (1, 0), betas, periods, T), make_seq(1, (0, 1), betas, periods, T)
    )


def genus2_seq(horizon):
    """Periods 1 and 2 put events of two cycles at the same times."""
    return make_seq(
        2,
        (1, -1, 2, 1),
        (0.6180339887498949, 2.399963229728653, 1.0, 5.0),
        (1.0, 2.0, math.sqrt(3.0), math.sqrt(5.0)),
        horizon,
    )


def hexes(z):
    return (z.real.hex(), z.imag.hex())


def test_canonical_m2_spans_many_windows(canonical_pair):
    assert sum(1 for _ in _windows(_doubled(canonical_pair.difference), T)) == 21


def test_bohr_means(canonical_pair):
    assert hexes(bohr_mean(canonical_pair.sequence_a, T)) == (
        "0x1.69026776ad288p-19",
        "0x1.c94dcb7934b7dp-20",
    )
    assert hexes(bohr_mean(canonical_pair.difference, T)) == (
        "0x1.98fbe5ae62ac9p-20",
        "0x1.17d477e6d0d36p-17",
    )


def test_fourier_spectrum(canonical_pair):
    assert [hexes(c) for c in fourier_spectrum(canonical_pair.difference, LAMS, T)] == [
        ("0x1.98fbe5ae62ac9p-20", "0x1.17d477e6d0d36p-17"),
        ("-0x1.6b29f8f9707c1p-18", "0x1.1850ee4f1f7e4p-17"),
        ("-0x1.4d00ecf499ea0p-18", "0x1.9b9a44bc68074p-19"),
        ("0x1.c0c0bff724c8bp-21", "0x1.423e33106a53bp-19"),
    ]


def test_residual_curve(canonical_pair):
    curve = residual_curve(canonical_pair, 0.3, 1.1, [10.0, 1234.5, 5e4, T])
    assert [(t, r.hex()) for t, r in curve] == [
        (10.0, "0x1.0667e5cef9780p-6"),
        (1234.5, "0x1.68c7bbf5486cbp-10"),
        (50000.0, "0x1.2a323aab77105p-17"),
        (200000.0, "0x1.d7caeb56e94e6p-18"),
    ]


def test_correlations(canonical_pair):
    settings = [
        (0.0, 0.7853981633974483),
        (1.5707963267948966, 5.497787143782138),
        (2.0, -1.0),
    ]
    estimates = correlations(canonical_pair, settings, T)
    assert [(e.value.hex(), e.residual.hex(), e.segment_count) for e in estimates] == [
        ("0x1.6a0ad3c843375p-1", "0x1.dac09ef5030d2p-18", 341422),
        ("0x1.6a08f907a4426p-1", "-0x1.dac09ef5030d2p-18", 341422),
        ("0x1.14a18753f4444p-1", "-0x1.f34eb849078e4p-18", 341422),
    ]


def test_genus2_fourier_spectrum():
    assert [hexes(c) for c in fourier_spectrum(genus2_seq(2e4), LAMS, 2e4)] == [
        ("0x1.b2ddcaa24a284p-6", "-0x1.a3f2e3c626aafp-5"),
        ("0x1.1254e6bcb6a6cp-18", "-0x1.693a482e7df01p-14"),
        ("-0x1.6b3bcb4a0c512p-14", "-0x1.e011fa6a46914p-14"),
        ("0x1.d6a06737e3a17p-15", "-0x1.47585b0197533p-16"),
    ]


def test_unit_phasors_equal_complex_exp_bit_for_bit():
    # If this fails, this numpy build computes e^{i phi} in a way the window
    # kernel does not reproduce, and every reduction above would shift.
    rng = np.random.default_rng(20260811)
    phases = np.concatenate(
        (
            [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 1e6, -1e6],
            math.pi * np.arange(-318309, 318310, 641, dtype=float),
            rng.uniform(-1e6, 1e6, 20000),
            np.cumsum(rng.uniform(-5.0, 5.0, 1 << 14)),
        )
    )
    got = _unit_phasors(phases, np.empty(phases.size, dtype=complex))
    assert got.tobytes() == np.exp(1j * phases).tobytes()


@pytest.mark.parametrize("window_events", [7, 1 << 14])
def test_windows_equal_the_event_arrays_route(monkeypatch, window_events):
    seq, t, edges = genus2_seq(3000.0), 2999.5, (12.0, 1000.0)
    monkeypatch.setattr(sequence, "_WINDOW_EVENTS", window_events)
    ends = []
    for bounds, factors in _windows(seq, t, edges):
        a, b = float(bounds[0]), float(bounds[-1])
        times, _, incs = event_arrays(seq, a, b)
        start = phase_at(seq, a)
        assert bounds.tobytes() == np.concatenate(([a], times, [b])).tobytes()
        phases = np.concatenate(([start], start + np.cumsum(incs)))
        assert factors.tobytes() == np.exp(1j * phases).tobytes()
        assert a == (ends[-1] if ends else 0.0)
        ends.append(b)
    assert ends[-1] == t
    assert set(edges) <= set(ends)
