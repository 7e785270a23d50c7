#!/usr/bin/env python3
"""Benchmark of windingphase: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bell_grid --seed 1 --seconds 20 --trace 0

One run is one fresh process on one workload (see BENCHMARK.json for the
list and why each was chosen).  The load is a closed loop: a single client
issues each operation after the previous one returns.  The run sets up the
workload, then repeats passes over its operations until ``--seconds`` have
gone by; the first pass warms caches and is left out of the timings.  Every
output is checked, and every pass must reproduce the first pass's tables
byte for byte.  ``attempted`` counts the distinct operations of a pass and
``failed`` those that raised or failed a check on any pass, so both depend on
the seed and not on how many passes the machine fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from process start to the first
operation: imports, config generation and parsing, object construction),
``wall_s`` and ``cpu_s`` (median per pass), ``peak_rss_mb`` (this process's
peak resident memory).  ``--trace 1`` alternates untraced passes with passes
whose calls between layers are recorded as spans (see spans.py) and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the machine, the failures and a readable summary.

NumPy/BLAS threads are capped at the number of usable CPUs.  Working files
go to ``.perfbench-runs/`` under the repository root and are removed at exit;
the spans of a traced run are kept there as JSON lines.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
WORKLOAD_NAMES = ("bell_grid", "analyze_scan", "eventlog_roundtrip")
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Harness:
    """Times operations, checks their outputs and counts failures.

    Every pass repeats the same operations on the same inputs, and how many
    passes fit in a run depends on the machine.  So ``attempted`` counts the
    distinct operations of a pass and ``failed`` those that raised or failed
    a check on any pass: both depend on the seed alone.  ``failures`` counts
    the failed executions by kind.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.executions = 0
        self.outcomes = {}  # operation name -> True once it has failed on any pass
        self.correct = True
        self.failures = collections.Counter()
        self.examples = {}
        self.digests = {}
        self.walls = collections.defaultdict(list)  # pass mode -> wall per pass
        self.cpus = collections.defaultdict(list)
        self.mode = "plain"

    def run_pass(self, workload, index, mode):
        self.mode, self._wall, self._cpu = mode, 0.0, 0.0
        if self.recorder is not None:
            self.recorder.pass_index, self.recorder.mode = index, mode
            self.recorder.alloc = mode == "alloc"
        workload.run_pass(self.op)
        self.walls[mode].append(self._wall)
        self.cpus[mode].append(self._cpu)

    def op(self, name, call, check, span=None):
        from workloads import CheckFailed  # imports numpy: only after the thread cap

        self.executions += 1
        self.outcomes.setdefault(name, False)
        self._name = name
        rec = self.recorder if self.mode != "plain" else None
        if rec is not None:
            rec.op, rec.active = self.executions, True
        error = None
        c0, t0 = _cpu_seconds(), time.perf_counter()
        index = rec.open(span) if rec is not None and span else None
        try:
            value = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            # Keep no reference to the exception: its traceback holds the
            # failed call's arrays, and a cycle through this frame would keep
            # them alive until the next garbage collection.
            error = (type(exc).__name__, f"{name}: {exc}")
        finally:
            if index is not None:
                rec.close(index, error and error[0])
            t1, c1 = time.perf_counter(), _cpu_seconds()
            if rec is not None:
                rec.active = False
        self._wall += t1 - t0
        self._cpu += c1 - c0
        if error is not None:
            self._fail(*error)
            return
        try:
            table = check(value, name not in self.digests)
        except (CheckFailed, ValueError, IndexError, OSError) as exc:
            self._fail("check", f"{name}: {type(exc).__name__}: {exc}", wrong=True)
            return
        digest = hashlib.sha256(table).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            self._fail("check", f"{name}: output differs from the first pass", wrong=True)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(self.outcomes.values())

    def _fail(self, kind, message, wrong=False):
        self.outcomes[self._name] = True
        self.correct = self.correct and not wrong
        self.failures[kind] += 1
        self.examples.setdefault(kind, message)


def _pass_modes(trace):
    """Pass 0 warms up.  Traced runs then take allocation peaks once and
    alternate span-recording passes with plain ones, for the overhead ratio."""
    yield "plain"
    if trace:
        yield "alloc"
        while True:
            yield "spans"
            yield "plain"
    while True:
        yield "plain"


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
        "--trace", "0", "--size", args.size, "--probe-setup",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def _environment(nproc):
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_cap": nproc,
        "platform": platform.platform(),
    }


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test and internal switches.
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corrupt and args.workload != "bell_grid":
        parser.error("--corrupt applies to bell_grid only")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "windingphase" / "__init__.py").is_file():
        print(f"perfbench: no windingphase sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))

    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, nproc, workdir) -> int:
    if args.probe_setup:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        print("ready", flush=True)
        return 0

    end_to_end, per_layer = _declared_metrics()
    from spans import Recorder, layer_metrics
    from workloads import WORKLOADS

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
        recorder.active = True
    workload = WORKLOADS[args.workload](args.seed, args.size, str(workdir))
    if recorder is not None:
        recorder.active = False
    workload.corrupt_next = args.corrupt

    harness = Harness(recorder)
    modes = _pass_modes(args.trace)
    min_passes = 4 if args.trace else 3
    start = time.perf_counter()
    passes = 0
    setup_samples = []
    while passes < min_passes or time.perf_counter() - start < args.seconds:
        # Set-up probes are spread over the run so their median sees the
        # same machine conditions as the passes.
        if not args.trace:
            setup_samples.append(_probe_setup(args))
        harness.run_pass(workload, passes, next(modes))
        passes += 1
    while not args.trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(_probe_setup(args))
    if recorder is not None:
        recorder.uninstall()

    plain = harness.walls["plain"][1:]
    if args.trace:
        values = layer_metrics(recorder, plain, harness.walls["spans"])
        declared = per_layer
        recorder.dump(RUNS / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(plain),
            "cpu_s": statistics.median(harness.cpus["plain"][1:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = end_to_end
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": passes,
        "executions": harness.executions,
        "pass_walls_s": dict(harness.walls),
        "setup_samples_s": setup_samples,
        "failures": dict(harness.failures),
        "failure_examples": harness.examples,
        "absent_targets": recorder.missing if recorder is not None else [],
        "environment": _environment(nproc),
    }
    print(json.dumps(record))
    error_rate = harness.failed / harness.attempted
    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(
        f"{args.workload}: {summary} error_rate={error_rate:.4f} "
        f"({harness.failed} failed / {harness.attempted} attempted) correct={harness.correct}"
    )
    print(
        json.dumps(
            {
                "correct": harness.correct,
                "attempted": harness.attempted,
                "failed": harness.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
