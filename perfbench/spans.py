"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``windingphase`` at the module that
binds them for its callers (``windingphase.correlation.event_arrays`` is the
name ``correlation`` looks up, ``windingphase.cli.find_almost_periods`` the
one the CLI looks up), so every call across a layer boundary opens a span.
Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers and
``dump`` writes them out at exit.  Nothing inside the package is changed on
disk and wrappers re-raise whatever the wrapped function raises.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def _events(args, kwargs, result):
    return {"events": int(len(result[0]))}


def _points(args, kwargs, result):
    return {"points": int(len(result))}


def _scan(args, kwargs, result):
    return {"scanned": int(result.scanned), "passing": len(result.candidates)}


def _segments(args, kwargs, result):
    return {"segments": int(result.segment_count)}


def _written(args, kwargs, result):
    return {"rows": int(result), "bytes": os.path.getsize(args[0])}


def _read(args, kwargs, result):
    return {"rows": len(result)}


@dataclass(frozen=True)
class Hook:
    """One function to wrap: where it is bound, and what its span is called."""

    module: str
    attr: str
    name: str
    info: Optional[Callable] = None  # (args, kwargs, result) -> counts
    alloc: bool = False  # take the tracemalloc peak of the call in alloc passes


# Layers are the package modules.  A function is listed once per module that
# binds it for a caller the workloads reach.
HOOKS = (
    Hook("windingphase.sequence", "event_arrays", "sequence.event_arrays", _events),
    Hook("windingphase.correlation", "event_arrays", "sequence.event_arrays", _events),
    Hook("windingphase.eventlog", "event_arrays", "sequence.event_arrays", _events),
    Hook("windingphase.sequence", "phase_at_many", "sequence.phase_at_many", _points),
    Hook("windingphase.sequence", "bohr_mean", "sequence.bohr_mean"),
    Hook("windingphase.cli", "find_almost_periods", "sequence.find_almost_periods", _scan),
    Hook("windingphase.cli", "fourier_bohr_coefficient", "sequence.fourier_bohr_coefficient"),
    Hook("windingphase.cli", "randomness_battery", "sequence.randomness_battery"),
    Hook("windingphase.correlation", "correlation", "correlation.correlation", _segments, alloc=True),
    Hook("windingphase.correlation", "chsh", "correlation.chsh"),
    Hook("windingphase.correlation", "residual_curve", "correlation.residual_curve"),
    Hook("windingphase.cli", "write_event_log", "eventlog.write_event_log", _written),
    Hook("windingphase.eventlog", "read_event_log", "eventlog.read_event_log", _read, alloc=True),
    Hook("windingphase.cli", "load_config", "config.load_config"),
    Hook("windingphase.config", "load_config", "config.load_config"),
)

# Counted without a span: SHA-256 hashing is part of the CLI's own time.
HASHED_BYTES = ("windingphase.cli", "_sha256_file")

CLI_SUBCOMMANDS = ("generate", "analyze", "report")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    pass_index: Optional[int]
    mode: str
    error: Optional[str] = None
    info: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans and counters from wrapped functions of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.hashed_bytes: Dict[Optional[int], int] = {}  # pass index -> bytes
        self.missing: List[str] = []
        self.active = False  # record only while set-up or a traced pass runs
        self.alloc = False  # also take tracemalloc peaks
        self.op: Optional[int] = None
        self.pass_index: Optional[int] = None
        self.mode = "setup"
        self._stack: List[int] = []
        self._originals = []

    def install(self) -> None:
        """Wrap every hook target that exists; note the ones that do not."""
        for hook in HOOKS:
            self._patch(hook.module, hook.attr, lambda fn, h=hook: self._wrap(fn, h))
        self._patch(*HASHED_BYTES, self._wrap_hashing)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _patch(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._originals.append((module, attr, fn))
        setattr(module, attr, make_wrapper(fn))

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), math.nan, parent, self.op, self.pass_index, self.mode)
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: Optional[str] = None) -> None:
        """End span ``index``; ``error`` names the exception it raised, if any."""
        self.spans[index].end = time.perf_counter()
        self.spans[index].error = error
        self._stack.pop()

    def _wrap(self, fn, hook: Hook):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            measure = self.alloc and hook.alloc and not tracemalloc.is_tracing()
            index = self.open(hook.name)
            if measure:
                tracemalloc.start()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__  # not exc: that would be a reference cycle
                raise
            finally:
                self.close(index, error)
                if measure:
                    self.spans[index].info["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook.info is not None:
                self.spans[index].info.update(hook.info(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_hashing(self, fn):
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if self.active:
                key = self.pass_index
                self.hashed_bytes[key] = self.hashed_bytes.get(key, 0) + os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> List[float]:
        """Span duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end - span.start
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(dict(vars(span), id=index, self_s=self_times[index])) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values, beyond: int = 10):
    """Highest of p50/p90/p95/p99/p99.9 with at least ``beyond`` samples above it.

    Nearest-rank percentile; returns (percentile, value), or (0.0, 0.0) when
    there are fewer than ``2 * beyond`` samples.
    """
    data = sorted(values)
    best = (0.0, 0.0)
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(pct / 100.0 * len(data))
        if rank >= 1 and len(data) - rank >= beyond:
            best = (pct, data[rank - 1])
    return best


def layer_metrics(rec: Recorder, plain_walls, traced_walls) -> Dict[str, float]:
    """Per-layer numbers from the spans of the traced passes.

    Counts and times are per pass (median over the passes recorded with
    spans); latency percentiles pool every call; allocation peaks are the
    largest seen in the allocation passes.  A metric whose wrapped function
    no longer exists is left out rather than reported as zero.
    """
    self_times = rec.self_times()
    passes = sorted({s.pass_index for s in rec.spans if s.mode == "spans"})
    per_pass = {p: {} for p in passes}
    durations: Dict[str, List[float]] = {}
    alloc_peak: Dict[str, float] = {}
    load_config: List[float] = []

    for index, span in enumerate(rec.spans):
        if span.name == "config.load_config":
            load_config.append(span.end - span.start)
        if span.mode == "alloc" and "alloc_peak" in span.info:
            alloc_peak[span.name] = max(alloc_peak.get(span.name, 0.0), span.info["alloc_peak"])
        if span.mode != "spans":
            continue
        acc = per_pass[span.pass_index]
        durations.setdefault(span.name, []).append(span.end - span.start)
        for key, value in (
            ("calls", 1),
            ("self_s", self_times[index]),
            ("guard_trips", span.error == "ArithmeticError"),
            *span.info.items(),
        ):
            acc[f"{span.name}.{key}"] = acc.get(f"{span.name}.{key}", 0) + value

    def per(key):
        return _median([per_pass[p].get(key, 0) for p in passes])

    def rate(rows_key, time_key):
        return _median(
            [
                per_pass[p].get(rows_key, 0) / per_pass[p][time_key]
                for p in passes
                if per_pass[p].get(time_key, 0) > 0
            ]
        )

    corr_ms = [d * 1e3 for d in durations.get("correlation.correlation", [])]
    tail_pct, tail_ms = tail_percentile(corr_ms)
    scanned = per("sequence.find_almost_periods.scanned")
    out = {
        "sequence.event_arrays.calls": per("sequence.event_arrays.calls"),
        "sequence.event_arrays.events": per("sequence.event_arrays.events"),
        "sequence.event_arrays.self_s": per("sequence.event_arrays.self_s"),
        "sequence.find_almost_periods.self_s": per("sequence.find_almost_periods.self_s"),
        "sequence.find_almost_periods.scanned": scanned,
        "sequence.find_almost_periods.pass_ratio": (
            per("sequence.find_almost_periods.passing") / scanned if scanned else 0.0
        ),
        "sequence.fourier_bohr_coefficient.calls": per("sequence.fourier_bohr_coefficient.calls"),
        "sequence.fourier_bohr_coefficient.self_s": per("sequence.fourier_bohr_coefficient.self_s"),
        "sequence.phase_at_many.points": per("sequence.phase_at_many.points"),
        "sequence.phase_at_many.self_s": per("sequence.phase_at_many.self_s"),
        "sequence.randomness_battery.self_s": per("sequence.randomness_battery.self_s"),
        "sequence.bohr_mean.self_s": per("sequence.bohr_mean.self_s"),
        "correlation.correlation.self_s": per("correlation.correlation.self_s"),
        "correlation.correlation.p50_ms": _median(corr_ms),
        "correlation.correlation.tail_ms": tail_ms,
        "correlation.correlation.tail_pct": tail_pct,
        "correlation.correlation.segments": per("correlation.correlation.segments"),
        "correlation.correlation.guard_trips": per("correlation.correlation.guard_trips"),
        "correlation.correlation.alloc_peak_mb": alloc_peak.get("correlation.correlation", 0) / 2**20,
        "correlation.chsh.self_s": per("correlation.chsh.self_s"),
        "correlation.residual_curve.self_s": per("correlation.residual_curve.self_s"),
        "eventlog.write_event_log.self_s": per("eventlog.write_event_log.self_s"),
        "eventlog.write_event_log.rows": per("eventlog.write_event_log.rows"),
        "eventlog.write_event_log.bytes": per("eventlog.write_event_log.bytes"),
        "eventlog.write_event_log.rows_per_s": rate(
            "eventlog.write_event_log.rows", "eventlog.write_event_log.self_s"
        ),
        "eventlog.read_event_log.self_s": per("eventlog.read_event_log.self_s"),
        "eventlog.read_event_log.rows_per_s": rate(
            "eventlog.read_event_log.rows", "eventlog.read_event_log.self_s"
        ),
        "eventlog.read_event_log.alloc_peak_mb": alloc_peak.get("eventlog.read_event_log", 0) / 2**20,
        "cli.hashed_bytes": _median([rec.hashed_bytes.get(p, 0) for p in passes]),
        "config.load_config.s": _median(load_config),
        "trace.overhead_ratio": _median(traced_walls) / _median(plain_walls) - 1.0,
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.self_s"] = per(f"cli.{sub}.self_s")

    installed = {h.name for h in HOOKS if f"{h.module}.{h.attr}" not in rec.missing}
    for name in {h.name for h in HOOKS} - installed:
        for key in [k for k in out if k.startswith(name + ".")]:
            del out[key]
    if ".".join(HASHED_BYTES) in rec.missing:
        del out["cli.hashed_bytes"]
    return out
