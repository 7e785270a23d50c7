"""Almost-periodic phase sequences from superposed periodic spike trains.

Builds the accumulated phase of a two-cycle winding configuration with
incommensurable periods, inspects its event stream, and runs the analysis
suite: Bohr means, Fourier coefficients, the almost-period search, and the
randomness battery with its constant-sequence control.
"""

import math

from windingphase import (
    CycleAssignment,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    bohr_mean,
    events_in,
    find_almost_periods,
    fourier_spectrum,
    phase_at,
    randomness_battery,
)

TWO_PI = 2.0 * math.pi
GOLDEN_FRAC = ((1 + math.sqrt(5)) / 2) % 1.0

surface = SurfaceSpec(genus=1)
assign = CycleAssignment(
    surface,
    betas=(TWO_PI * GOLDEN_FRAC, TWO_PI * (math.sqrt(3) % 1.0)),
    periods=(1.0, math.sqrt(2)),
)
seq = PhaseSequence(surface, WindingChain(surface, (1, 1)), assign, horizon=10000.0)

# --- the event stream ---------------------------------------------------------
print("first events (time, cycle, increment):")
for ev in events_in(seq, 0.0, 5.0):
    print(f"  {ev.time:10.6f}  cycle {ev.cycle_index}  +{ev.increment:.6f} rad")

print("\naccumulated phase (piecewise constant, right-continuous):")
for tau in (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 100.0):
    print(f"  Phi({tau:7.2f}) = {phase_at(seq, tau):.6f}")

# --- Bohr means: the long-time average of the phase factor --------------------
# Incommensurable periods equidistribute the phase, so the mean decays.
print("\nBohr mean magnitude |M_t[e^(i Phi)]|:")
for t in (10.0, 100.0, 1000.0, 10000.0):
    print(f"  t = {t:7.0f}: {abs(bohr_mean(seq, t)):.6f}")

# A Fourier-type coefficient scans for oscillation content at frequency lam.
print("\nFourier coefficient magnitudes at t = 2000:")
lams = (0.0, 1.0, 2.0, 4.0)
for lam, c in zip(lams, fourier_spectrum(seq, lams, 2000.0)):
    print(f"  lam = {lam:4.1f}: {abs(c):.6f}")

# --- almost-period search ------------------------------------------------------
# Integer multiples of the two periods nearly coincide at 41 ~ 29*sqrt(2)
# (the continued-fraction convergent 41/29).  With increments 2pi/41 and
# 2pi/29 the phase budget closes there, making 41 an almost-period.
tuned = PhaseSequence(
    surface,
    WindingChain(surface, (1, 1)),
    CycleAssignment(surface, (TWO_PI / 41, TWO_PI / 29), (1.0, math.sqrt(2))),
    horizon=100.0,
)
report = find_almost_periods(tuned, epsilon=0.3, search_bound=45.0, sample_step=0.5)
print(f"\nalmost-period scan: {report.scanned} shifts, {len(report.candidates)} pass eps = {report.epsilon}")
for c in report.candidates:
    print(f"  shift {c.shift:9.4f}  discrepancy {c.discrepancy:.4f}")

# --- randomness battery --------------------------------------------------------
battery = randomness_battery(seq, t=10000.0, n_samples=100000, seed=7)
print("\nrandomness battery (golden/sqrt3 superposition):")
print(f"  monobit p            = {battery.monobit_p:.4f}")
print(f"  |serial correlation| = {abs(battery.serial_correlation):.4f}")
print(f"  permutation entropy  = {battery.permutation_entropy:.4f}")

flat = SurfaceSpec(0)
constant = PhaseSequence(
    flat, WindingChain(flat, ()), CycleAssignment(flat, (), ()), horizon=10000.0
)
control = randomness_battery(constant, t=10000.0, n_samples=100000, seed=7)
print("genus-0 constant control:")
print(f"  monobit p            = {control.monobit_p:.2e}   (flagged non-random)")
print(f"  permutation entropy  = {control.permutation_entropy:.4f}")
