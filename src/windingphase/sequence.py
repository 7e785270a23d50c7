"""Event-driven accumulated phase sequences and their analysis suite.

A phase sequence is the accumulated phase of a winding chain whose cycles
fire periodically: cycle ``i`` contributes an increment ``m_i * beta_i`` at
every positive integer multiple of its period ``T_i``.  The accumulated phase

    Phi(tau) = (sum_i m_i * beta_i * floor(tau / T_i)) mod 2*pi

is piecewise constant, right-continuous, and starts at Phi(0) = 0.  With
pairwise incommensurable periods the superposition is an almost-periodic
sequence; this module provides the generator plus the analysis battery
(Bohr means, Fourier coefficients, almost-period search, randomness scores).

The reductions over [0, t] (Bohr mean, Fourier spectrum, and the correlation
moment and residual curve built on them) are integrals of e^{i Phi} against
e^{-i lam tau}, the Bohr mean being lam = 0.  They ask one entry point
(``_window_integrals``) for the integrals over [0, end] at the ends they
need.  It applies one segment kernel (``_window_terms``) window by window,
each window holding about ``_WINDOW_EVENTS`` events and starting from the
phase of its integer winding counts reduced exactly mod 2*pi, and folds the
windows' rows in window order.  One scheduler (``_run_tasks``) runs a list
of tasks, the windows or one almost-period scan block's shifts, on the caller
and threads started for the call, one per usable CPU, each with state of its
own; every result is kept at its task's index, so they have the bits of a
one-thread pass.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DimensionError, DomainError
from .topology import TWO_PI, CycleAssignment, SurfaceSpec, WindingChain, _dot_mod_2pi, _integer, _real, _reals

# Events per evaluation window: every segment reduction sums over windows of
# about this many events, phase_at_many evaluates this many times per chunk
# and the almost-period scan's blocks hold at most half as many, so their
# memory does not grow with the horizon.
_WINDOW_EVENTS = 1 << 14
# The most float64 items one array may hold: 2**44 fill 2**47 bytes, x86-64's
# 128 TiB user address space.  A larger count is refused, not tried.
_MOST_FLOATS = 2**44


@dataclass(frozen=True, slots=True)
class PhaseEvent:
    """One phase spike: at ``time`` cycle ``cycle_index`` adds ``increment``."""

    time: float
    cycle_index: int
    increment: float


def _phase_events(chunks) -> List[PhaseEvent]:
    """The PhaseEvents of the rows of ``chunks`` (arrays of times, cycle indices and increments), in order.

    Each chunk's events are filled slot by slot, a column at a time, past the frozen __setattr__ as
    PhaseEvent.__init__ fills them.  The list holds no cycles, so the collections its allocations would
    trigger find nothing to free: cyclic garbage collection is paused while it is built.
    """
    events = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for columns in chunks:
            chunk = list(map(object.__new__, itertools.repeat(PhaseEvent, len(columns[0]))))
            for name, column in zip(PhaseEvent.__slots__, columns):
                deque(map(getattr(PhaseEvent, name).__set__, chunk, column.tolist()), maxlen=0)
            events += chunk
    finally:
        if collecting:
            gc.enable()
    return events


@dataclass(frozen=True)
class PhaseSequence:
    """Evaluable accumulated-phase function built from periodic spike trains."""

    surface: SurfaceSpec
    chain: WindingChain
    assignment: CycleAssignment
    horizon: float

    def __post_init__(self):
        for name, part in (("chain", self.chain), ("assignment", self.assignment)):
            if part.surface != self.surface:
                raise DimensionError(f"{name} does not live on the sequence's surface")
        object.__setattr__(self, "horizon", _real("horizon", self.horizon, positive=True))
        try:
            finite = np.all(np.isfinite(self._active_arrays()[2]))
        except OverflowError:  # a coefficient too large for a float
            finite = False
        if not finite:
            raise DomainError("every active cycle's increment m * beta must be a finite float")
        with np.errstate(over="ignore"):
            rate = np.sum(1.0 / self._active_arrays()[1])
        if not math.isfinite(rate):
            raise DomainError("the active periods' event rate sum(1 / T) must be a finite float")

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
    to the same float products n * T that event generation emits.  A count
    of 2**63 or more, which int64 cannot hold, is refused.
    """
    taus = np.asarray(taus, dtype=float)
    t = taus[..., np.newaxis]
    with np.errstate(over="ignore"):  # an infinite count is refused below
        n = np.floor(t / periods)
    n = np.maximum(n, 0.0)
    n += (n + 1.0) * periods <= t
    n -= np.logical_and(n > 0.0, n * periods > t)
    if not np.all(n < 2.0**63):
        raise DomainError(f"winding counts must stay below 2**63, got {np.max(n):.6g}")
    return n.astype(np.int64)


def _check_window(seq: PhaseSequence, t0: float, t1: float):
    t0, t1 = _real("t0", t0), _real("t1", t1)
    if t0 < 0.0 or not t0 < t1 or t1 > seq.horizon:
        raise DomainError(
            f"window ({t0}, {t1}] must satisfy 0 <= t0 < t1 <= horizon {seq.horizon}"
        )
    return t0, t1


def event_count(seq: PhaseSequence, t0: float = 0.0, t1: float = None) -> int:
    """Number of events in (t0, t1] without materializing them."""
    t1 = seq.horizon if t1 is None else t1
    t0, t1 = _check_window(seq, t0, t1)
    n0, n1 = _completed_windings([t0, t1], seq._active_arrays()[1])
    return int(np.sum(n1 - n0))


def _merged_progressions(periods, n0, n1, iota, times):
    """Write every cycle's event times in one window and return (order, counts).

    Cycle k fires at (n0[k] + 1) * T_k, ..., n1[k] * T_k.  These arithmetic
    progressions are written block by block in cycle order to the front of
    ``times``, from ``iota`` = 0, 1, 2, ... (at least as long as any one
    cycle's count); ``order`` is the stable argsort that merges them (so
    simultaneous events stay in cycle order) and ``counts[k]`` is the number
    of events of cycle k.  Times are n * T from integer n, never repeated
    additions, so they carry no accumulated drift.
    """
    counts = n1 - n0
    end = 0
    for k, count in enumerate(counts.tolist()):
        block = times[end : end + count]
        np.add(iota[:count], n0[k] + 1, out=block)
        block *= periods[k]
        end += count
    return np.argsort(times[:end], kind="stable"), counts


def event_arrays(seq: PhaseSequence, t0: float, t1: float):
    """Events in (t0, t1] as arrays (times, cycle_indices, increments).

    Sorted by time; simultaneous events are ordered by ascending cycle index.
    Event times are generated as n * T from integer n, never by repeated
    addition, so they carry no accumulated drift.
    """
    t0, t1 = _check_window(seq, t0, t1)
    idx, periods, increments = seq._active_arrays()
    n0, n1 = _completed_windings([t0, t1], periods)
    counts = n1 - n0
    times = np.empty(int(counts.sum()))
    iota = np.arange(int(counts.max(initial=0)), dtype=float)
    order, _ = _merged_progressions(periods, n0, n1, iota, times)
    cycles = np.repeat(idx, counts)
    incs = np.repeat(increments, counts)
    return times[order], cycles[order], incs[order]


def events_in(seq: PhaseSequence, t0: float, t1: float) -> List[PhaseEvent]:
    """All events with time in (t0, t1], ordered by (time, cycle_index), built as read_event_log builds its events."""
    return _phase_events([event_arrays(seq, t0, t1)])


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
    tau = _real("tau", tau)
    if tau < 0.0 or tau > seq.horizon:
        raise DomainError(f"tau must lie in [0, horizon {seq.horizon}], got {tau!r}")
    return _exact_phases(seq, _completed_windings([tau], seq._active_arrays()[1]))[0]


def _chunk_end(start: int, size: int) -> int:
    """End row of the row chunk from ``start`` of a table of ``size`` rows (see phase_at_many)."""
    return start + _WINDOW_EVENTS if size - start >= 2 * _WINDOW_EVENTS else size


def phase_at_many(seq: PhaseSequence, taus) -> np.ndarray:
    """Vectorized accumulated phase for a scalar or 1-d array of times, each in [0, 2*pi).

    The (times x cycles) winding table is evaluated in row chunks, so memory
    does not grow with the number of times: chunks of _WINDOW_EVENTS rows
    aligned at row 0, the last one running to the end of ``taus``
    (_WINDOW_EVENTS to 2 * _WINDOW_EVENTS - 1 rows).  These chunks give
    every row the bits of one product over the whole table, which other
    groupings do not: with OpenBLAS a row evaluated in a one-row call got
    other last bits on most rows, and plain _WINDOW_EVENTS-row chunks did
    wherever the last chunk was short.  find_almost_periods calls it on one
    such chunk of its event table at a time.
    """
    taus = _reals("taus", taus)
    if taus.size and (taus.min() < 0.0 or taus.max() > seq.horizon):
        raise DomainError(f"all times must lie in [0, horizon {seq.horizon}]")
    _, periods, increments = seq._active_arrays()
    phases, start = np.empty(taus.size), 0
    while start < taus.size:
        stop = _chunk_end(start, taus.size)
        phases[start:stop] = _completed_windings(taus[start:stop], periods) @ increments
        start = stop
    np.mod(phases, TWO_PI, out=phases)
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


def _window_cuts(periods, t0: float, t1: float, edges=()) -> np.ndarray:
    """Sorted cut times tiling [t0, t1] into windows of about _WINDOW_EVENTS events.

    The cuts start at t0, end at t1, are evenly spaced in between and also
    include every time in ``edges``.  Winding counts of 2**63 or more by t1
    are refused (by _completed_windings) before any cut is made; smaller
    counts can still ask for more cuts than memory holds.
    """
    _completed_windings(t1, periods)
    n = max(1, math.ceil((t1 - t0) * float(np.sum(1.0 / periods)) / _WINDOW_EVENTS))
    return np.unique(np.concatenate((np.linspace(t0, t1, n + 1), edges)))


class _Windows:
    """The windows tiling [0, ends[-1]], with what each needs besides its events.

    ``ends`` must be ascending.  Windows hold about _WINDOW_EVENTS events
    each and also end at every end: window j runs from ``cuts[j]`` to
    ``cuts[j + 1]`` and starts from the phase ``starts[j]`` of its integer
    winding counts reduced exactly mod 2*pi, so rounding does not grow with
    the ends.  ``build`` writes a window into a set of ``buffers``; threads with
    buffers of their own may build windows at once.
    """

    def __init__(self, seq: PhaseSequence, ends):
        _, self.periods, self.increments = seq._active_arrays()
        self.cuts = _window_cuts(self.periods, 0.0, ends[-1], ends)
        self.counts = _completed_windings(self.cuts, self.periods)
        self.starts = _exact_phases(seq, self.counts[:-1])
        self.most = int(np.max(np.sum(np.diff(self.counts, axis=0), axis=1)))
        self.iota = np.arange(self.most, dtype=float)

    def __len__(self) -> int:
        return len(self.starts)

    def buffers(self):
        """(scratch, bounds, phases, factors, scale, sinc, kernel), large enough for any window.

        ``build`` writes the first four; _window_terms reads bounds and
        factors and uses the others, scratch and phases included, as scratch.
        """
        most = self.most
        return (
            np.empty(most + 1),
            np.empty(most + 2),
            np.empty(most + 1),
            np.empty(most + 1, dtype=complex),
            np.empty(most + 1),
            np.empty(most + 1),
            np.empty(most + 1, dtype=complex),
        )

    def build(self, j, buffers):
        """(bounds, factors) of window j, written into ``buffers``.

        ``bounds`` starts at the window's start, lists its event times and
        ends at its end; ``factors[k]`` is e^{i Phi} on [bounds[k],
        bounds[k+1]).  Both are views of the buffers: use (or overwrite) them
        before building another window into the same buffers.  The scratch
        buffer holds first the event times and then the increments, and is
        free again on return, so a window allocates only its merge order.
        """
        scratch, bounds_buf, phases_buf, factors_buf = buffers[:4]
        order, per_cycle = _merged_progressions(
            self.periods, self.counts[j], self.counts[j + 1], self.iota, scratch
        )
        # order holds valid indices; mode "raise" would copy through a buffer
        bounds = bounds_buf[: order.size + 2]
        bounds[0], bounds[-1] = self.cuts[j], self.cuts[j + 1]
        np.take(scratch, order, out=bounds[1:-1], mode="wrap")
        # each cycle's increment over its block: np.repeat(increments, per_cycle)
        end = 0
        for inc, count in zip(self.increments.tolist(), per_cycle.tolist()):
            scratch[end : end + count] = inc
            end += count
        # start, then start + the running sum of the increments in time order
        phases = phases_buf[: order.size + 1]
        phases[0] = self.starts[j]
        np.take(scratch, order, out=phases[1:], mode="wrap")
        np.cumsum(phases[1:], out=phases[1:])
        phases[1:] += self.starts[j]
        return bounds, _unit_phasors(phases, factors_buf[: order.size + 1])


def _window_terms(lams, bounds, factors, buffers) -> np.ndarray:
    """One window's integral of e^{i Phi(tau)} e^{-i lam tau} d tau, per lam in ``lams``.

    ``bounds`` and ``factors`` are a window that _Windows.build wrote into
    ``buffers``; they are read, never written, and the rest of ``buffers``
    is scratch.  On each constant segment [a, b) the oscillatory factor
    integrates in closed form to the numerically stable kernel
    ``(b - a) * sinc(lam (b - a) / 2) * e^{-i lam (a + b) / 2}``; at lam = 0
    (or -0.0) the kernel is the width b - a itself, the value those steps
    give there, so the segment sum is the width times e^{i Phi} with no sin
    and no complex exp.
    """
    width, _, centers, _, scale, sinc, kernel = (b[: factors.size] for b in buffers)
    np.subtract(bounds[1:], bounds[:-1], out=width)
    if np.any(lams):  # the segment centers, which only a nonzero lam needs
        np.add(bounds[:-1], bounds[1:], out=centers)
    terms = np.empty(len(lams), dtype=complex)
    for k, lam in enumerate(lams.tolist()):
        if lam == 0.0:
            np.multiply(factors.real, width, out=kernel.real)
            np.multiply(factors.imag, width, out=kernel.imag)
        else:
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
        terms[k] = np.sum(kernel)
    return terms


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(tasks, state, run) -> None:
    """run(state(), *task) for every task tuple in the list ``tasks``.

    The caller and n - 1 threads started for the call, n = min(len(tasks),
    usable CPUs), each run one loop: it calls state() and takes the next
    untaken task under one lock until none is left, so a thread the OS holds
    back delays the others by at most its task.  Once a task raises or a
    thread fails to start, no loop takes another, and the first error is
    raised again once every started thread has ended.  The loops must call
    nothing that perfbench/spans.py wraps: its span stack is one thread's.
    """
    lock, errors, threads, untaken = threading.Lock(), [], [], iter(tasks)

    def loop():
        try:
            own = state()
            while True:
                with lock:
                    task = None if errors else next(untaken, None)
                if task is None:
                    return
                run(own, *task)
        except BaseException as error:  # raised again once every loop has ended
            errors.append(error)

    try:
        for _ in range(min(len(tasks), _usable_cpus()) - 1):
            thread = threading.Thread(target=loop)
            thread.start()
            threads.append(thread)
    except BaseException as error:  # the started threads stop after their task
        errors.append(error)
    loop()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _window_integrals(seq: PhaseSequence, lams, ends) -> np.ndarray:
    """Integral of e^{i Phi(tau)} e^{-i lam tau} over [0, end], per end (rows) and lam (columns).

    ``ends`` must be ascending, each in (0, horizon].  The windows tile [0,
    ends[-1]] and also end at every end.  Each window is one task: a thread
    builds it into buffers of its own and writes its _window_terms into row
    j + 1.  A row's bits do not depend on its thread, and the rows are folded
    in window order from a +0 row 0 (np.cumsum adds them one after another,
    never pairwise), so an end's integral, the row at its cut, has the bits
    of a one-thread pass.
    """
    lams = np.asarray(lams, dtype=float)
    windows = _Windows(seq, ends)
    m = len(windows)
    rows = np.zeros((m + 1, lams.size), dtype=complex)

    def work(buffers, j):
        rows[j + 1] = _window_terms(lams, *windows.build(j, buffers), buffers)

    _run_tasks([(j,) for j in range(m)], windows.buffers, work)
    np.cumsum(rows, axis=0, out=rows)
    return rows[np.searchsorted(windows.cuts, ends)]


def _check_time(seq: PhaseSequence, t: float, name: str = "t") -> float:
    """t as a float in (0, horizon] whose reciprocal is finite; a refusal calls it ``name``.

    numpy divides a complex array by a real scalar as a multiply by 1/t, so a
    t below about 5.6e-309, whose 1/t overflows, would give inf and nan.
    """
    t = _real(name, t)
    if not (0.0 < t <= seq.horizon and math.isfinite(1.0 / t)):
        raise DomainError(f"{name} must be at least about 5.6e-309 (a finite 1/t) and at most {seq.horizon}, got {t!r}")
    return t


def bohr_mean(seq: PhaseSequence, t: float) -> complex:
    """Time average (1/t) * integral_0^t e^{i Phi(tau)} d tau.

    Computed exactly as a sum over the constant segments between events, so
    there is no sampling step to tune: the lam = 0 coefficient of
    fourier_spectrum, summed over windows (see _window_integrals), so memory
    stays bounded and accuracy does not degrade as t grows.  The magnitude is
    always <= 1 and equals 1 only for a phase constant on [0, t].
    """
    return complex(fourier_spectrum(seq, (0.0,), t)[0])


def fourier_spectrum(seq: PhaseSequence, lams, t: float) -> np.ndarray:
    """Fourier coefficients (1/t) * integral_0^t e^{i Phi(tau)} e^{-i lam tau} d tau.

    One coefficient per entry of ``lams``, a scalar or a 1-d array, all from
    one pass over the windows, each integrated in closed form on every
    constant segment (see _window_terms): _window_integrals' integral over
    [0, t], divided by t.  Every angle lam * tau on [0, t] must be finite:
    the kernel's largest angles are lam * (b - a) and (-0.5 lam) * (a + b)
    for a segment [a, b) in [0, t], at most |lam| * t after rounding.
    """
    t = _check_time(seq, t)
    lams = _reals("lams", lams)
    if lams.size == 0:  # no window to walk
        return np.zeros(0, dtype=complex)
    if not math.isfinite(float(np.max(np.abs(lams))) * t):
        raise DomainError(f"every lam must be finite, and so must |lam| * t at t = {t!r}")
    return _window_integrals(seq, lams, (t,))[0] / t


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


def _factor_chunks(seq: PhaseSequence):
    """(times, factors) of [0.0] + the distinct event times of (0, horizon], one row chunk at a time.

    Row 0 is time 0.0 and row k the k-th distinct event time; a row's factor
    is e^{i Phi} at its time.  Times come from event_arrays, one _window_cuts
    window of about _WINDOW_EVENTS events at a time; the chunks are the row
    chunks phase_at_many would cut the whole table into (see _chunk_end),
    each with its factors from one phase_at_many call, so every row has the
    bits phase_at_many gives it there.  A chunk is known to be the last once
    fewer than 2 * _WINDOW_EVENTS rows are left, so times are generated that
    far ahead.
    """
    cuts = _window_cuts(seq._active_arrays()[1], 0.0, seq.horizon).tolist()
    times = np.zeros(1)
    for j in range(1, len(cuts)):
        times = np.concatenate((times, np.unique(event_arrays(seq, cuts[j - 1], cuts[j])[0])))
        while times.size >= 2 * _WINDOW_EVENTS or (j + 1 == len(cuts) and times.size):
            chunk, times = np.split(times, [_chunk_end(0, times.size)])
            yield chunk, _unit_phasors(phase_at_many(seq, chunk), np.empty(chunk.size, dtype=complex))


def _block_discrepancy(cuts, shift, times, factors, sliver):
    """Largest |e^{i Phi(tau + shift)} - e^{i Phi(tau)}| over one block's segments wider than ``sliver``.

    ``cuts`` holds the block's two edges and every base and shifted event
    time between them, unsorted and possibly repeated.  It is sorted in
    place; a repeated cut makes a zero-width neighbour pair, which the
    sliver rule (see find_almost_periods) drops just as deduplicating would.
    ``factors[k]`` is e^{i Phi} from ``times[k - 1]`` (from the block's
    start for k = 0) to ``times[k]``, and ``times`` runs past every probe or
    to the horizon.  A block of slivers only gives 0.0, which leaves a
    running maximum of discrepancies (never negative) as it was.
    """
    cuts.sort()
    left, right = cuts[:-1], cuts[1:]
    wide = (right - left) > sliver
    mids = 0.5 * (left[wide] + right[wide])
    here = factors[np.searchsorted(times, mids, side="right")]
    there = factors[np.searchsorted(times, mids + shift, side="right")]
    return float(np.max(np.abs(there - here), initial=0.0))


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
    sampling-density parameter.

    Sliver rule: segments no wider than 4u, u = np.spacing(horizon), are
    skipped.  Every time here is at most the horizon, so each rounding is
    off by at most u / 2.  A shifted event time fl(fl(n T) - s) and a base
    event time fl(n' T') with n T - s = n' T' exactly (s being fl(k T) or
    fl(j * sample_step)) are four roundings apart, so a phantom segment
    between them is at most 2u wide.  The shifted edge, the midpoint and
    its shifted probe are three roundings, so a segment wider than 3u puts
    both its probes strictly inside the segments they stand for.  4u
    exceeds both; a true segment that thin cannot be told from a rounding
    artifact and is skipped too.

    The window is walked once, in consecutive blocks: the first holds the
    first 64 base event times, each later block four times as many up to
    _WINDOW_EVENTS // 2, and the last ends at the window end.  Every block
    edge is a base event time (or 0 or the window end), so a cut of the
    whole window's partition: the blocks' segments are the whole window's,
    with the same midpoints.  A shift's running maximum over the blocks is
    thus its whole-window supremum bit for bit; the shift is scanned while
    that stays within ``epsilon`` and reported if it ends there.  A block
    (x0, x1] takes the shifted event times d = t - shift with x0 < d <= x1
    from one search for [x0 + shift - 4u, x1 + shift + 4u) and that exact
    test on the computed d: it keeps exactly the right rows, since the
    computed t - shift never decreases as t grows, and the bracket holds
    every such t, since each rounding is within u / 2.  A d equal to the
    window end repeats an edge, a zero-width neighbour the sliver rule drops.

    Phases are looked up in the table of [0.0] + the distinct event times
    and their factors e^{i Phi}, streamed from _factor_chunks on this
    thread, so event_arrays and phase_at_many run there: each block pulls
    chunks until it holds its rows up to its end plus the largest shift
    still scanned and drops the rows before its end once scanned, so memory
    grows with the block size and the events within ``search_bound``, not
    with the horizon.  Each block runs its shifts in one _run_tasks call, each
    result stored at its shift's index, so the report equals a one-thread
    scan's; a passing shift costs O(horizon).
    """
    epsilon = _real("epsilon", epsilon, positive=True)
    sample_step = _real("sample_step", sample_step, positive=True)
    search_bound = _real("search_bound", search_bound, positive=True)
    if search_bound > seq.horizon / 2.0:
        raise DomainError(
            f"search_bound {search_bound} exceeds horizon/2 = {seq.horizon / 2.0}; "
            "the shifted window must fit inside the horizon"
        )

    window_end = seq.horizon - search_bound
    sliver = 4.0 * np.spacing(seq.horizon)
    # the multiples up to search_bound of the grid pitch and of every active period
    periods = seq._active_arrays()[1]
    _completed_windings(seq.horizon, periods)  # refuses a count past 2**63 before the lattice
    pitches = [sample_step, *periods.tolist()]
    if not search_bound / min(pitches) <= _MOST_FLOATS:
        raise DomainError(
            f"search_bound / the smallest pitch {min(pitches)!r} of sample_step and the active periods "
            f"passes {_MOST_FLOATS} shifts"
        )
    grids = [np.arange(1, math.floor(search_bound / T) + 1) * T for T in pitches]
    shifts = np.unique(np.concatenate(grids))
    shifts = shifts[shifts <= search_bound].tolist()
    # per shift, its running supremum over the blocks scanned so far
    worsts = [0.0] * len(shifts)

    def scan(_, base_cuts, times, factors, i):
        shift = shifts[i]
        x0, x1 = base_cuts[0], base_cuts[-1]
        a, b = np.searchsorted(times, (x0 + shift - sliver, x1 + shift + sliver))
        shifted = times[a:b] - shift
        shifted = shifted[(x0 < shifted) & (shifted <= x1)]
        worst = _block_discrepancy(np.concatenate((base_cuts, shifted)), shift, times, factors, sliver)
        worsts[i] = max(worsts[i], worst)

    # the shifts still within epsilon, and the held rows from the block's start on
    chunks, alive, size = _factor_chunks(seq), list(range(len(shifts))), 64
    times, factors = np.zeros(0), np.zeros(0, dtype=complex)
    while alive:
        # the block runs from the first held time to the base event time
        # ``size`` rows on, or to the window end when no more than ``size``
        # base event times are left
        while times.size < size + 2 and (chunk := next(chunks, None)) is not None:
            times, factors = np.concatenate((times, chunk[0])), np.concatenate((factors, chunk[1]))
        base = np.searchsorted(times, window_end, side="right")
        last = base <= size + 1
        base_cuts = np.append(times[:base], window_end) if last else times[: size + 1]
        # every probe tau + shift and every bracket (see scan) ends by the
        # block's end plus the largest shift (the last alive) plus the sliver
        reach = base_cuts[-1] + shifts[alive[-1]] + sliver
        while times[-1] <= reach and (chunk := next(chunks, None)) is not None:
            times, factors = np.concatenate((times, chunk[0])), np.concatenate((factors, chunk[1]))
        chunk = None  # a chunk left bound would stay alive through the block's tasks
        _run_tasks([(base_cuts, times[1:], factors, i) for i in alive], lambda: None, scan)
        alive = [] if last else [i for i in alive if worsts[i] <= epsilon]
        times, factors = times[size:], factors[size:]
        # half a window: blocks of a whole window's events page-faulted
        # their arrays afresh (about 8x the minor faults on analyze_scan)
        size = min(4 * size, _WINDOW_EVENTS // 2)
    passing = [AlmostPeriodCandidate(s, w) for s, w in zip(shifts, worsts) if w <= epsilon]
    return AlmostPeriodReport(
        epsilon=epsilon,
        candidates=tuple(passing),
        window=(0.0, float(window_end)),
        sample_step=sample_step,
        scanned=len(shifts),
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
    """Lag-1 autocorrelation of z about its mean; z is centred in place.

    Keep the two sums' expressions as they are: numpy computes a large
    operation on a temporary (np.abs(z), np.conj(...)) into that temporary,
    so they take no further array, and for the product it swaps the
    operands, which gives other last bits than z[:-1] times a named array.
    """
    z -= z.mean()
    denom = float(np.sum(np.abs(z) ** 2))
    if denom == 0.0:
        return 0j
    return complex(np.sum(z[:-1] * np.conj(z[1:])) / denom)


# The length of the rank patterns whose entropy score_phase_samples reports.
_PATTERN_ORDER = 3


def _permutation_entropy(x: np.ndarray) -> float:
    """Normalized entropy of the _PATTERN_ORDER rank patterns, counted _WINDOW_EVENTS at a time."""
    order = _PATTERN_ORDER
    windows = np.lib.stride_tricks.sliding_window_view(x, order)
    weights = order ** np.arange(order)
    counts = np.zeros(order**order, dtype=np.int64)
    for start in range(0, windows.shape[0], _WINDOW_EVENTS):
        ranks = np.argsort(windows[start : start + _WINDOW_EVENTS], axis=1, kind="stable")
        counts += np.bincount(ranks @ weights, minlength=counts.size)
    # the counts of the patterns that occur, in ascending code order
    p = counts[counts > 0] / windows.shape[0]
    return float(-(p * np.log(p)).sum() / math.log(math.factorial(order)) + 0.0)


def score_phase_samples(
    phases, discretization: str = "caller-supplied phase samples"
) -> RandomnessReport:
    """Run the randomness battery on an already-sampled phase stream.

    Bits are the indicator (phase mod 2*pi) < pi; the serial statistic is the
    lag-1 circular autocorrelation of e^{i phase}; permutation entropy is
    order 3 with stable (position-order) tie ranks, normalized to [0, 1].
    """
    phases = _reals("phases", phases)
    if phases.size < 1000:
        raise DomainError(f"need >= 1000 phase samples, got {phases.size}")
    # one statistic at a time, so at most one's temporaries are alive
    entropy = _permutation_entropy(phases)
    reduced = np.mod(phases, TWO_PI)
    monobit_p = _monobit_p(reduced < math.pi)
    z = _unit_phasors(reduced, np.empty(reduced.size, dtype=complex))
    del reduced
    return RandomnessReport(
        monobit_p=monobit_p,
        serial_correlation=_lag1_circular_correlation(z),
        permutation_entropy=entropy,
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
    n_samples = _integer("n_samples", n_samples, 1000, _MOST_FLOATS)
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # the sorted times are freed once their phases are taken
    phases = phase_at_many(seq, np.sort(rng.uniform(0.0, t, n_samples)))
    return score_phase_samples(
        phases,
        discretization=(
            f"{n_samples} iid uniform times on [0, {t!r}], sorted, seed={seed}; "
            "bit = (phase mod 2pi) < pi; permutation entropy order 3, stable ties"
        ),
    )
