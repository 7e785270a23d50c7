"""Exchanged-pair correlation experiment ending in a CHSH Bell test.

Two particles carry phase sequences whose winding content was exchanged:
particle a winds the first basis cycle, particle b the second, both driven by
the same incommensurable cycle assignment.  Detector responses correlate
through the relative phase only; as the horizon grows the correlation
converges to cos(theta_a + theta_b).  At the canonical CHSH angles the four
residuals cancel, so S = 2*sqrt(2) > 2 at every horizon while each
correlation still moves with it.
"""

import math

from windingphase import (
    CycleAssignment,
    PairConfig,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    chsh,
    correlation,
    relative_phase,
    residual_curve,
)

TWO_PI = 2.0 * math.pi
GOLDEN_FRAC = ((1 + math.sqrt(5)) / 2) % 1.0

surface = SurfaceSpec(genus=1)
assign = CycleAssignment(
    surface,
    betas=(TWO_PI * GOLDEN_FRAC, TWO_PI * (math.sqrt(3) % 1.0)),
    periods=(1.0, math.sqrt(2)),
)
pair = PairConfig(
    PhaseSequence(surface, WindingChain(surface, (1, 0)), assign, horizon=10000.0),
    PhaseSequence(surface, WindingChain(surface, (0, 1)), assign, horizon=10000.0),
)

# --- the observable: relative phase and detector response ----------------------
print("relative phase gamma_a and detector response at theta = pi/4:")
for tau in (0.5, 2.0, 10.0, 123.456):
    g = relative_phase(pair, tau)
    print(f"  tau {tau:8.3f}: gamma = {g:.6f}, response = {math.cos(math.pi / 4 + g):+.6f}")

# --- correlation converges to cos(theta_a + theta_b) ---------------------------
theta_a, theta_b = 0.3, 1.1
print(f"\nE(theta_a={theta_a}, theta_b={theta_b}; t) vs cos(theta_a+theta_b) = {math.cos(theta_a + theta_b):+.6f}:")
for t in (10.0, 100.0, 1000.0, 10000.0):
    est = correlation(pair, theta_a, theta_b, t)
    print(
        f"  t = {t:7.0f}: E = {est.value:+.6f}  residual = {est.residual:+.2e}"
        f"  ({est.segment_count} segments)"
    )

# The residual is the only finite-time deviation; watch it decay.
curve = residual_curve(pair, theta_a, theta_b, [10.0, 100.0, 1000.0, 10000.0])
print("\nresidual decay:", "  ".join(f"{t:g}: {r:+.2e}" for t, r in curve))

# Negative control: commensurable periods never equidistribute, the residual
# converges to a nonzero orbit average instead.
control_assign = CycleAssignment(surface, (math.pi / 3, 2 * math.pi / 3), (1.0, 2.0))
control = PairConfig(
    PhaseSequence(surface, WindingChain(surface, (1, 0)), control_assign, horizon=10000.0),
    PhaseSequence(surface, WindingChain(surface, (0, 1)), control_assign, horizon=10000.0),
)
ctrl_curve = residual_curve(control, 0.0, 0.0, [100.0, 1000.0, 10000.0])
print("commensurable control residual:", "  ".join(f"{t:g}: {r:+.4f}" for t, r in ctrl_curve))

# --- CHSH ----------------------------------------------------------------------
# Canonical violating settings for the cos(theta_a + theta_b) kernel: their
# four e^{i(theta_a - theta_b)}, with the CHSH signs, sum to zero.
a1, a2, b1, b2 = 0.0, math.pi / 2, 7 * math.pi / 4, math.pi / 4
result = chsh(pair, a1, a2, b1, b2, t=10000.0)
print("\nCHSH at t = 10000:")
for est in result.estimates:
    print(f"  E({est.theta_a:.4f}, {est.theta_b:.4f}) = {est.value:+.6f}")
print(f"  S = {result.s:.6f}   (classical bound 2; the residuals cancel, so S = 2*sqrt(2) = {2 * math.sqrt(2):.6f})")

# Why they cancel, horizon by horizon: each residual is Re(e^{i(theta_a -
# theta_b)} M2(t)), at most |M2(t)|.  M2 does not depend on the angles, so the
# four settings' curves over the ladder above are read from one memoised pass.
# The (a1,b1) and (a1,b2) rotations are pi/2 apart, so |M2(t)| = hypot(r11, r12).
ladder = [10.0, 100.0, 1000.0, 10000.0]
settings = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]
curves = [residual_curve(pair, ta, tb, ladder) for ta, tb in settings]
print("\nCHSH residuals (a1,b1) (a1,b2) (a2,b1) (a2,b2), |M2|, and their CHSH-signed sum:")
for k, t in enumerate(ladder):
    r11, r12, r21, r22 = (curve[k][1] for curve in curves)
    m2 = math.hypot(r11, r12)
    largest = max(abs(r11), abs(r12), abs(r21), abs(r22))
    print(
        f"  t = {t:7.0f}: {r11:+.2e} {r12:+.2e} {r21:+.2e} {r22:+.2e}"
        f"  |M2| = {m2:.2e} (max |residual| / |M2| = {largest / m2:.4f})"
        f"  sum = {r11 + r12 + r21 - r22:+.1e}"
    )

# Degenerate control: with no phase motion at all (genus 0), all-zero settings
# saturate every detector and S hits the deterministic bound 4.
flat = SurfaceSpec(0)
flat_assign = CycleAssignment(flat, (), ())
flat_pair = PairConfig(
    PhaseSequence(flat, WindingChain(flat, ()), flat_assign, horizon=100.0),
    PhaseSequence(flat, WindingChain(flat, ()), flat_assign, horizon=100.0),
)
print(f"genus-0 control, all settings 0: S = {chsh(flat_pair, 0, 0, 0, 0, 100.0).s:.1f}")
