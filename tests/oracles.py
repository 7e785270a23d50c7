"""Slow reference implementations kept only for tests.

Each oracle is an earlier or independently structured route to a result
the package computes another way:

- ``almost_periods_per_shift`` regenerates the shifted events and calls
  ``phase_at_many`` on every probe of every candidate shift;
- ``almost_periods_whole_window`` looks phases up in one event table like
  the package does, but merges and probes each shift's whole window at once
  instead of block by block with an early exit;
- ``bohr_mean_whole`` and ``fourier_coefficient_scalar`` sum one table over
  all of [0, t] with a running phase that grows with t (the spectrum oracle
  rebuilds that table for each lambda);
- ``merged_correlation`` integrates the detector product over the merged
  events of both sequences of a pair, not over the difference chain;
- ``phase_fraction`` reduces a phase's winding counts in exact rationals;
- ``fourier_spectrum_exact`` takes each segment's phase from the exact
  reduction of its winding counts and sums closed-form segment integrals
  with ``math.fsum``, instead of running phases along float windows;
- ``write_event_log_one_shot`` renders every row of the interval at once
  from one event_arrays call, instead of window by window;
- ``read_event_log_by_line`` parses a log one line at a time with float()
  and int(), instead of in chunks with np.loadtxt (a non-numeric field
  escapes it as the bare ValueError of float() or int());
- ``parse_config_by_hand`` checks each config key with its own lines of
  code instead of looping over the declaration on ExperimentConfig;
- ``best_rational_by_enumeration`` finds the nearest nonzero rational by
  trying every denominator, instead of through ``Fraction.limit_denominator``.
"""

import math
from fractions import Fraction

import numpy as np

from windingphase.config import _CANONICAL_CHSH, ExperimentConfig
from windingphase.errors import ConfigError, DomainError
from windingphase.eventlog import HEADER
from windingphase.sequence import (
    AlmostPeriodCandidate,
    AlmostPeriodReport,
    PhaseEvent,
    _completed_windings,
    event_arrays,
    phase_at_many,
)
from windingphase.topology import TWO_PI, _dot_mod_2pi


def _segments(seq, t):
    """Partition [0, t] into constant-phase segments.

    Returns (bounds, phases): ``bounds`` has K+1 entries starting at 0 and
    ending at t; ``phases[k]`` is the accumulated (unwrapped) phase on
    [bounds[k], bounds[k+1]).
    """
    times, _, incs = event_arrays(seq, 0.0, t)
    bounds = np.concatenate(([0.0], times, [t]))
    phases = np.concatenate(([0.0], np.cumsum(incs)))
    return bounds, phases


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
        # segments no wider than four ulps of the horizon are rounding
        # artifacts of the shifted times, not probed
        mids = mids[widths > 4.0 * np.spacing(seq.horizon)]
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


def almost_periods_whole_window(seq, epsilon, search_bound, sample_step):
    """find_almost_periods scanning each shift's whole window in one merge."""
    epsilon, search_bound, sample_step = float(epsilon), float(search_bound), float(sample_step)
    window_end = seq.horizon - search_bound
    shifts = [np.arange(1, math.floor(search_bound / sample_step) + 1) * sample_step]
    _, periods, _ = seq._active_arrays()
    for T in periods:
        shifts.append(np.arange(1, math.floor(search_bound / T) + 1) * T)
    candidates = np.unique(np.concatenate(shifts))
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
        # segments no wider than four ulps of the horizon are rounding
        # artifacts of the shifted times, not probed
        mids = mids[widths > 4.0 * np.spacing(seq.horizon)]
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


def bohr_mean_whole(seq, t):
    """The Bohr mean from one segment table over all of [0, t]."""
    bounds, phases = _segments(seq, float(t))
    return complex(np.sum(np.exp(1j * phases) * np.diff(bounds)) / t)


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


def phase_fraction(seq, tau):
    """Phi(tau) from the integer winding counts, reduced in exact rationals.

    The package's circle is [0, TWO_PI) with TWO_PI the float 2*pi, a dyadic
    rational, so sum(n_i * m_i * beta_i) mod TWO_PI has an exact value; this
    returns it correctly rounded.
    """
    idx, periods, _ = seq._active_arrays()
    counts = _completed_windings(float(tau), periods).tolist()
    total = sum(
        (Fraction(n * seq.chain.coefficients[i]) * Fraction(seq.assignment.betas[i])
         for n, i in zip(counts, idx.tolist())),
        Fraction(0),
    )
    return float(total % Fraction(TWO_PI))


# 2*pi to 64 digits: reducing lam * tau <= 1e12 by it is off by below 1e-50
_TWO_PI_EXACT = 2 * Fraction("3.141592653589793238462643383279502884197169399375105820974944592")


def fourier_spectrum_exact(seq, lams, t):
    """(1/t) * integral_0^t e^{i Phi(tau)} e^{-i lam tau} d tau per lam, summed exactly.

    Each constant segment [a, b) between distinct event times takes its
    phase Phi from _dot_mod_2pi of its exact winding counts.  Its integral
    is (b - a) sinc(lam (b - a) / 2) e^{i (Phi - lam (a + b) / 2)}, with
    lam (a + b) / 2 reduced mod 2*pi in integer arithmetic on the floats'
    exact ratios; the segments' real and imaginary parts are summed with
    math.fsum.  Every term is within a few ulps of its exact value, so the
    result is within a few ulps of the sum of their magnitudes over t (at
    most 1).
    """
    t = float(t)
    idx, periods, _ = seq._active_arrays()
    coefficients = [seq.chain.coefficients[i] for i in idx.tolist()]
    betas = [seq.assignment.betas[i] for i in idx.tolist()]
    times = np.unique(event_arrays(seq, 0.0, t)[0])
    bounds = [0.0] + times[times < t].tolist() + [t]
    phases = [
        _dot_mod_2pi([n * m for n, m in zip(row, coefficients)], betas)
        for row in _completed_windings(bounds[:-1], periods).tolist()
    ]
    circle, scale = _TWO_PI_EXACT.numerator, _TWO_PI_EXACT.denominator
    out = []
    for lam in (float(lam) for lam in lams):
        nl, dl = lam.as_integer_ratio()
        re, im = [], []
        for a, b, phi in zip(bounds[:-1], bounds[1:], phases):
            width = b - a
            if lam == 0.0:
                angle, weight = phi, width
            else:
                # lam (a + b) / 2 = n / d exactly, reduced mod circle / scale
                (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
                n, d = nl * (na * db + nb * da), 2 * dl * da * db
                angle = phi - (n * scale % (circle * d)) / (d * scale)
                x = 0.5 * lam * width
                weight = width * math.sin(x) / x if x else width
            re.append(weight * math.cos(angle))
            im.append(weight * math.sin(angle))
        out.append(complex(math.fsum(re), math.fsum(im)) / t)
    return out


def write_event_log_one_shot(path, seq, t0=0.0, t1=None):
    """Write all events of ``seq`` in (t0, t1] to ``path``; returns the row count."""
    t1 = seq.horizon if t1 is None else t1
    times, cycles, incs = event_arrays(seq, t0, t1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        fh.writelines(map("{:.17g},{},{:.17g}\n".format, times.tolist(), cycles.tolist(), incs.tolist()))
    return int(times.size)


def read_event_log_by_line(path):
    """Read an event log written by write_event_log."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise DomainError(f"unrecognized event log header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DomainError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            events.append(PhaseEvent(float(parts[0]), int(parts[1]), float(parts[2])))
    return events


_REQUIRED = ("genus", "chain_a", "chain_b", "betas", "periods", "horizon", "seed")
_KNOWN = set(ExperimentConfig.__dataclass_fields__)


def _want_int(value, key, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", key=key)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", key=key)
    if maximum is not None and value > maximum:
        raise ConfigError(f"must be <= {maximum}, got {value}", key=key)
    return value


def _want_real(value, key, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", key=key)
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {value!r}", key=key)
    if positive and value <= 0.0:
        raise ConfigError(f"must be > 0, got {value}", key=key)
    return value


def _want_list(value, key, length=None):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {value!r}", key=key)
    if length is not None and len(value) != length:
        raise ConfigError(f"expected length {length}, got {len(value)}", key=key)
    return list(value)


def parse_config_by_hand(data, source="<config>"):
    """parse_config as a hand-written key-by-key parser, one check per line.

    It predates the declaration on ExperimentConfig's fields and differs from
    it in one place: an explicit ``"chsh_angles": null`` means the default
    here, while parse_config refuses it (null means the default only where
    that default is None).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    for key in data:
        if key not in _KNOWN:
            raise ConfigError("unknown key", key=key)
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError("missing required key", key=key)

    genus = _want_int(data["genus"], "genus", minimum=0)
    basis = 2 * genus

    chains = {}
    for name in ("chain_a", "chain_b"):
        raw = _want_list(data[name], name)
        if len(raw) != basis:
            raise ConfigError(
                f"expected length {basis} (= 2*genus), got {len(raw)}", key=name
            )
        chains[name] = tuple(
            _want_int(c, f"{name}[{k}]") for k, c in enumerate(raw)
        )

    betas = tuple(
        _want_real(b, f"betas[{k}]")
        for k, b in enumerate(_want_list(data["betas"], "betas", length=basis))
    )
    periods = tuple(
        _want_real(p, f"periods[{k}]", positive=True)
        for k, p in enumerate(_want_list(data["periods"], "periods", length=basis))
    )
    horizon = _want_real(data["horizon"], "horizon", positive=True)
    seed = _want_int(data["seed"], "seed", minimum=0, maximum=2**64 - 1)

    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"expected a string, got {out_dir!r}", key="out_dir")

    correlation_time = data.get("correlation_time")
    if correlation_time is not None:
        correlation_time = _want_real(correlation_time, "correlation_time", positive=True)
        if correlation_time > horizon:
            raise ConfigError(
                f"must be <= horizon {horizon}, got {correlation_time}",
                key="correlation_time",
            )

    angle_grid_size = _want_int(data.get("angle_grid_size", 8), "angle_grid_size", minimum=1)

    chsh_angles = data.get("chsh_angles")
    if chsh_angles is None:
        chsh_angles = _CANONICAL_CHSH
    else:
        chsh_angles = tuple(
            _want_real(a, f"chsh_angles[{k}]")
            for k, a in enumerate(_want_list(chsh_angles, "chsh_angles", length=4))
        )

    epsilon = _want_real(data.get("epsilon", 0.25), "epsilon", positive=True)

    search_bound = data.get("search_bound")
    if search_bound is not None:
        search_bound = _want_real(search_bound, "search_bound", positive=True)
        if search_bound > horizon / 2.0:
            raise ConfigError(
                f"must be <= horizon/2 = {horizon / 2.0}, got {search_bound}",
                key="search_bound",
            )

    sample_step = _want_real(data.get("sample_step", 1.0), "sample_step", positive=True)
    n_samples = _want_int(data.get("n_samples", 10000), "n_samples", minimum=1000)
    spectrum_lambda_max = _want_real(
        data.get("spectrum_lambda_max", 4.0 * math.pi), "spectrum_lambda_max", positive=True
    )
    spectrum_lambda_count = _want_int(
        data.get("spectrum_lambda_count", 33), "spectrum_lambda_count", minimum=1
    )

    event_window = data.get("event_window")
    if event_window is not None:
        raw = _want_list(event_window, "event_window", length=2)
        w0 = _want_real(raw[0], "event_window[0]")
        w1 = _want_real(raw[1], "event_window[1]")
        if not (0.0 <= w0 < w1 <= horizon):
            raise ConfigError(
                f"must satisfy 0 <= start < end <= horizon {horizon}, got {raw}",
                key="event_window",
            )
        event_window = (w0, w1)

    residual_horizons = data.get("residual_horizons")
    if residual_horizons is not None:
        raw = _want_list(residual_horizons, "residual_horizons")
        if not raw:
            raise ConfigError("must be non-empty", key="residual_horizons")
        hs = [
            _want_real(h, f"residual_horizons[{k}]", positive=True)
            for k, h in enumerate(raw)
        ]
        for k, (a, b) in enumerate(zip(hs, hs[1:])):
            if b < a:
                raise ConfigError("must be sorted ascending", key=f"residual_horizons[{k + 1}]")
        if hs[-1] > horizon:
            raise ConfigError(
                f"must be <= horizon {horizon}, got {hs[-1]}",
                key=f"residual_horizons[{len(hs) - 1}]",
            )
        residual_horizons = tuple(hs)

    residual_theta_a = _want_real(data.get("residual_theta_a", 0.0), "residual_theta_a")
    residual_theta_b = _want_real(data.get("residual_theta_b", 0.0), "residual_theta_b")

    analysis_target = data.get("analysis_target", "a")
    if analysis_target not in ("a", "b"):
        raise ConfigError(f'expected "a" or "b", got {analysis_target!r}', key="analysis_target")

    return ExperimentConfig(
        genus=genus,
        chain_a=chains["chain_a"],
        chain_b=chains["chain_b"],
        betas=betas,
        periods=periods,
        horizon=horizon,
        seed=seed,
        out_dir=out_dir,
        correlation_time=correlation_time,
        angle_grid_size=angle_grid_size,
        chsh_angles=chsh_angles,
        epsilon=epsilon,
        search_bound=search_bound,
        sample_step=sample_step,
        n_samples=n_samples,
        spectrum_lambda_max=spectrum_lambda_max,
        spectrum_lambda_count=spectrum_lambda_count,
        event_window=event_window,
        residual_horizons=residual_horizons,
        residual_theta_a=residual_theta_a,
        residual_theta_b=residual_theta_b,
        analysis_target=analysis_target,
    )


def best_rational_by_enumeration(x, max_denominator):
    """(p/q, exact |x - p/q|) nearest x over p >= 1 and q <= max_denominator.

    Over each q only p = floor(x q) and floor(x q) + 1 can be nearest, so
    those two are tried, and the errors are compared exactly.
    """
    x = Fraction(x)
    best, best_err = None, None
    for q in range(1, max_denominator + 1):
        below = math.floor(x * q)
        for p in (below, below + 1):
            err = abs(x - Fraction(p, q))
            if p >= 1 and (best is None or err < best_err):
                best, best_err = Fraction(p, q), err
    return best, best_err
