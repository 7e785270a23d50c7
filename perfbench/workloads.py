"""The benchmark's seeded workloads.

Each workload class builds its inputs from the benchmark seed in its
constructor (the set-up: config generation, writing and parsing the config,
object construction) and issues its operations through ``run_pass``.  An
operation is handed to the harness as ``op(name, call, check, span)``: the
harness times ``call()`` alone, then runs ``check(value, first)``, which
raises ``CheckFailed`` on a wrong output and otherwise returns the bytes whose
digest must repeat on every pass.  ``first`` is true on the first pass, where
checks too slow to repeat are made in full.

The program only ever receives the generated config files and the calls
below; nothing here compares against stored digests, because later versions
of the program may change trailing digits legitimately.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random

import numpy as np

GOLDEN_BETA = 2.0 * math.pi / ((1.0 + math.sqrt(5.0)) / 2.0)
SQRT3_BETA = 2.0 * math.pi * (math.sqrt(3.0) - 1.0)
EVENT_LOG_HEADER = "time,cycle_index,increment\n"

# Sizes per workload: "full" is what the benchmark measures, "tiny" is the
# self-test's toy size.
SIZES = {
    "bell_grid": {
        "full": {"horizon": 2e5, "grid": 8},
        "tiny": {"horizon": 1e4, "grid": 8},
    },
    "analyze_scan": {
        "full": {"horizon": 2e4, "search_bound": 10.0, "spectrum": 129, "samples": 100000},
        "tiny": {"horizon": 2e3, "search_bound": 5.0, "spectrum": 9, "samples": 1000},
    },
    "eventlog_roundtrip": {
        "full": {"horizon": 1e5},
        "tiny": {"horizon": 2e3},
    },
}


class CheckFailed(Exception):
    """An output of the program failed its correctness check."""


class CliFailed(Exception):
    """A CLI subcommand exited with a non-zero code."""


def _module(name):
    # importlib, not attribute access: the package re-exports functions under
    # the names of some of its modules (windingphase.correlation).
    return importlib.import_module(name)


def _write_config(data, workdir, name):
    """Write a generated config and parse it back the way the CLI does."""
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
    return path, _module("windingphase.config").load_config(path)


def _run_cli(*argv):
    """Run ``windingphase.cli.main`` in-process; non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _module("windingphase.cli").main(list(argv))
    if code != 0:
        raise CliFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return code


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _file_digest(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest().encode()


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


class BellGrid:
    """Canonical genus-1 pair through the library API: grid, CHSH, residuals."""

    def __init__(self, seed, size, workdir):
        params = SIZES["bell_grid"][size]
        rng = random.Random(f"bell_grid:{seed}")
        n = params["grid"]
        offset = rng.uniform(0.0, 2.0 * math.pi / n)  # one grid cell covers every rotation
        horizon = params["horizon"]
        _, self.config = _write_config(
            {
                "genus": 1,
                "chain_a": [1, 0],
                "chain_b": [0, 1],
                "betas": [GOLDEN_BETA, SQRT3_BETA],
                "periods": [1.0, math.sqrt(2.0)],
                "horizon": horizon,
                "seed": rng.getrandbits(63),
            },
            workdir,
            "bell_grid",
        )
        self.pair = _module("windingphase.cli").build_pair(self.config)
        self.angles = [2.0 * math.pi * k / n + offset for k in range(n)]
        self.ladder = [horizon / 1000.0, horizon / 100.0, horizon / 10.0, horizon]
        self.corrupt_next = False

    def run_pass(self, op):
        corr = _module("windingphase.correlation")
        t = self.config.horizon
        for ta in self.angles:
            for tb in self.angles:
                call = lambda ta=ta, tb=tb: corr.correlation(self.pair, ta, tb, t)
                if self.corrupt_next:
                    self.corrupt_next = False
                    call = lambda call=call: _corrupted(call())
                op(f"E({ta!r},{tb!r})", call, _check_correlation)
        op("chsh", lambda: corr.chsh(self.pair, *self.config.chsh_angles, t), _check_chsh)
        op("residual_curve", lambda: corr.residual_curve(self.pair, 0.0, 0.0, self.ladder), _check_residual)


def _corrupted(estimate):
    return dataclasses.replace(estimate, value=estimate.value + 0.5)


def _check_correlation(est, first):
    expected = math.cos(est.theta_a + est.theta_b)
    _require(abs(est.value - expected) <= 0.05, f"|E - cos(a+b)| = {abs(est.value - expected):.3g} > 0.05")
    return f"{est.value!r},{est.residual!r},{est.segment_count}".encode()


def _check_chsh(result, first):
    s = result.s
    _require(abs(s - 2.0 * math.sqrt(2.0)) <= 0.05 and s > 2.0, f"S = {s!r} not within 0.05 of 2*sqrt(2)")
    return repr([e.value for e in result.estimates] + [s]).encode()


def _check_residual(curve, first):
    _require(all(math.isfinite(r) and abs(r) <= 1.0 for _, r in curve), "residual outside [-1, 1]")
    _require(abs(curve[-1][1]) <= 0.05, f"residual at full horizon {curve[-1][1]!r} > 0.05")
    return repr(curve).encode()


class AnalyzeScan:
    """CLI ``analyze`` on a genus-2 sequence, then the Bohr mean it must match."""

    def __init__(self, seed, size, workdir):
        params = SIZES["analyze_scan"][size]
        rng = random.Random(f"analyze_scan:{seed}")
        # Small increments put the short shifts within epsilon and the long
        # ones outside it, so the scan has passing and failing candidates.
        betas = [rng.uniform(0.02, 0.06) for _ in range(4)]
        self.config_path, self.config = _write_config(
            {
                "genus": 2,
                "chain_a": [1, 1, 1, 1],
                "chain_b": [1, 1, 1, 1],
                "betas": betas,
                "periods": [1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)],
                "horizon": params["horizon"],
                "seed": rng.getrandbits(63),
                "epsilon": 0.5,
                "search_bound": params["search_bound"],
                "sample_step": 1.0,
                "spectrum_lambda_count": params["spectrum"],
                "n_samples": params["samples"],
            },
            workdir,
            "analyze_scan",
        )
        self.seq = _module("windingphase.cli").build_sequences(self.config)[0]
        self.out = os.path.join(workdir, "analyze_out")

    def run_pass(self, op):
        seq_mod = _module("windingphase.sequence")
        op("analyze", lambda: _run_cli("analyze", "--config", self.config_path, "--out", self.out),
           self._check_analyze, span="cli.analyze")
        op("bohr_mean", lambda: seq_mod.bohr_mean(self.seq, self.config.horizon), self._check_bohr)

    def _tables(self):
        return [os.path.join(self.out, n) for n in ("almost_periods.csv", "randomness.csv", "spectrum.csv")]

    def _check_analyze(self, code, first):
        periods_csv, randomness_csv, spectrum_csv = (_read(p).decode() for p in self._tables())
        rows = [line.split(",") for line in periods_csv.splitlines()[1:]]
        _require(
            all(float(d) <= self.config.epsilon for _, d in rows),
            "an almost-period candidate exceeds epsilon",
        )
        _require(
            all(0.0 < float(s) <= self.config.search_bound for s, _ in rows),
            "an almost-period shift lies outside (0, search_bound]",
        )
        _require(len(randomness_csv.splitlines()) == 2, "randomness.csv must hold one row")
        _require(
            len(spectrum_csv.splitlines()) == 1 + self.config.spectrum_lambda_count,
            "spectrum.csv row count differs from spectrum_lambda_count",
        )
        return (periods_csv + randomness_csv + spectrum_csv).encode()

    def _check_bohr(self, mean, first):
        row = _read(self._tables()[2]).decode().splitlines()[1].split(",")
        lam, re, im = float(row[0]), float(row[1]), float(row[2])
        _require(lam == 0.0, "first spectrum row is not lambda = 0")
        _require(
            abs(re - mean.real) <= 1e-12 and abs(im - mean.imag) <= 1e-12,
            f"lambda = 0 spectrum row {re!r}, {im!r} differs from bohr_mean {mean!r}",
        )
        return repr(mean).encode()


class EventlogRoundtrip:
    """CLI ``generate`` for a genus-3 pair, read both logs back, CLI ``report``."""

    def __init__(self, seed, size, workdir):
        params = SIZES["eventlog_roundtrip"][size]
        rng = random.Random(f"eventlog_roundtrip:{seed}")
        self.config_path, self.config = _write_config(
            {
                "genus": 3,
                "chain_a": [1, 0, 1, 0, 1, 0],
                "chain_b": [0, 1, 0, 1, 0, 1],
                "betas": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(6)],
                "periods": [math.sqrt(p) for p in (1.0, 2.0, 3.0, 5.0, 7.0, 11.0)],
                "horizon": params["horizon"],
                "seed": rng.getrandbits(63),
            },
            workdir,
            "eventlog_roundtrip",
        )
        self.sequences = _module("windingphase.cli").build_sequences(self.config)
        self.out = os.path.join(workdir, "eventlog_out")
        self.logs = [os.path.join(self.out, n) for n in ("events_a.csv", "events_b.csv")]
        self._expected = None

    def expected(self, k):
        """The events of sequence ``k`` as event_arrays gives them, computed once."""
        if self._expected is None:
            event_arrays = _module("windingphase.sequence").event_arrays
            self._expected = [event_arrays(seq, 0.0, seq.horizon) for seq in self.sequences]
        return self._expected[k]

    def run_pass(self, op):
        eventlog = _module("windingphase.eventlog")
        op("generate", lambda: _run_cli("generate", "--config", self.config_path, "--out", self.out),
           self._check_generate, span="cli.generate")
        for k, path in enumerate(self.logs):
            op(f"read_event_log[{k}]", lambda path=path: eventlog.read_event_log(path),
               lambda events, first, k=k: self._check_read(k, events))
        op("report", lambda: _run_cli("report", "--config", self.config_path, "--out", self.out),
           self._check_report, span="cli.report")

    def _check_generate(self, code, first):
        if first:
            for k, path in enumerate(self.logs):
                _require(_renders_as(path, *self.expected(k)), f"{path} differs from %.17g rendering")
        return b"".join(_file_digest(path) for path in self.logs)

    def _check_read(self, k, events):
        times, cycles, incs = self.expected(k)
        got_t = np.fromiter((e.time for e in events), dtype=float, count=len(events))
        got_c = np.fromiter((e.cycle_index for e in events), dtype=np.int64, count=len(events))
        got_i = np.fromiter((e.increment for e in events), dtype=float, count=len(events))
        _require(
            got_t.size == times.size
            and np.array_equal(got_t.view(np.uint64), times.view(np.uint64))
            and np.array_equal(got_c, cycles)
            and np.array_equal(got_i.view(np.uint64), incs.view(np.uint64)),
            f"read_event_log of log {k} does not give back event_arrays bit for bit",
        )
        return hashlib.sha256(got_t.tobytes() + got_c.tobytes() + got_i.tobytes()).digest()

    def _check_report(self, code, first):
        summary = _read(os.path.join(self.out, "summary.txt")).decode()
        _require("[generate] 2 file(s), digests verified" in summary, "report did not verify the generate digests")
        return summary.encode()


def _renders_as(path, times, cycles, incs, chunk=50000) -> bool:
    """True when the file is the header plus ``%.17g,%d,%.17g`` rows, byte for byte."""
    with open(path, "rb") as fh:
        if fh.readline() != EVENT_LOG_HEADER.encode():
            return False
        for start in range(0, times.size, chunk):
            stop = start + chunk
            rows = zip(times[start:stop].tolist(), cycles[start:stop].tolist(), incs[start:stop].tolist())
            expected = "".join(f"{t:.17g},{c},{v:.17g}\n" for t, c, v in rows).encode()
            if fh.read(len(expected)) != expected:
                return False
        return fh.read() == b""


WORKLOADS = {
    "bell_grid": BellGrid,
    "analyze_scan": AnalyzeScan,
    "eventlog_roundtrip": EventlogRoundtrip,
}
