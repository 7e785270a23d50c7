"""Command-line experiment runner: seeded, file-based, reproducible.

Usage: ``windingphase <subcommand> --config <path> [--out <dir>] [--seed <u64>]``

Subcommands: generate, analyze, correlate, residual, chsh, report.  Exit
codes: 0 success, 1 configuration error, 2 resource guard tripped, 3 I/O
failure.  Given the same config file and seed, every subcommand writes
byte-identical data files (only the started_at field of the run manifest
varies).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import List, Tuple

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_digest, load_config
from .correlation import PairConfig, chsh, correlations, residual_curve
from .errors import ConfigError, DimensionError, DomainError, ResourceGuardError
from .eventlog import write_event_log
from .sequence import (
    PhaseSequence,
    event_count,
    find_almost_periods,
    fourier_spectrum,
    randomness_battery,
)
from .sequence import fourier_bohr_coefficient  # noqa: F401 -- perfbench/spans.py wraps this binding
from .topology import CycleAssignment, SurfaceSpec, WindingChain

GUARD_MAX_EVENTS = 10**8
ENV_OUT = "WINDINGPHASE_OUT"
DEFAULT_OUT = "runs"


def build_sequences(config: ExperimentConfig) -> Tuple[PhaseSequence, PhaseSequence]:
    surface = SurfaceSpec(config.genus)
    assignment = CycleAssignment(surface, config.betas, config.periods)
    seq_a = PhaseSequence(surface, WindingChain(surface, config.chain_a), assignment, config.horizon)
    seq_b = PhaseSequence(surface, WindingChain(surface, config.chain_b), assignment, config.horizon)
    return seq_a, seq_b


def build_pair(config: ExperimentConfig) -> PairConfig:
    return PairConfig(*build_sequences(config))


def _guard_events(count: int):
    if count > GUARD_MAX_EVENTS:
        raise ResourceGuardError(count, GUARD_MAX_EVENTS)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_table(path, header, rows) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
            count += 1
    return count


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class FileRecord:
    name: str
    rows: int
    sha256: str


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    version: str
    subcommand: str
    started_at: str
    files: Tuple[FileRecord, ...]


def _manifest_path(out_dir, subcommand):
    return os.path.join(out_dir, f"manifest_{subcommand}.json")


def load_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    files = tuple(FileRecord(**f) for f in data["files"])
    return RunManifest(**dict(data, files=files))


def verify_manifest(manifest: RunManifest, out_dir) -> None:
    """Recompute the digest of every listed file; mismatch raises ValueError."""
    for record in manifest.files:
        path = os.path.join(out_dir, record.name)
        actual = _sha256_file(path)
        if actual != record.sha256:
            raise ValueError(
                f"{record.name}: digest mismatch (manifest {record.sha256}, file {actual})"
            )


def _run_generate(config, out_dir):
    seq_a, seq_b = build_sequences(config)
    t0, t1 = config.resolved().event_window
    _guard_events(event_count(seq_a, t0, t1) + event_count(seq_b, t0, t1))
    for name, seq in (("events_a.csv", seq_a), ("events_b.csv", seq_b)):
        yield name, functools.partial(write_event_log, seq=seq, t0=t0, t1=t1)


def _run_analyze(config, out_dir):
    seq_a, seq_b = build_sequences(config)
    seq = seq_a if config.analysis_target == "a" else seq_b
    search_bound = config.resolved().search_bound
    _guard_events(event_count(seq, 0.0, config.horizon))
    # the scan's fallback grid of shifts; a subnormal step overflows it to inf
    grid = search_bound / config.sample_step
    _guard_events(math.floor(grid) if math.isfinite(grid) else grid)

    ap = find_almost_periods(seq, config.epsilon, search_bound, config.sample_step)
    yield "almost_periods.csv", functools.partial(
        _write_table,
        header=["tau_star", "discrepancy"],
        rows=[(c.shift, c.discrepancy) for c in ap.candidates],
    )

    battery = randomness_battery(seq, config.horizon, config.n_samples, seed=config.seed)
    yield "randomness.csv", functools.partial(
        _write_table,
        header=["monobit_p", "serial_correlation_re", "serial_correlation_im",
                "permutation_entropy", "sample_count"],
        rows=[(battery.monobit_p, battery.serial_correlation.real,
               battery.serial_correlation.imag, battery.permutation_entropy,
               battery.sample_count)],
    )

    lambdas = np.linspace(0.0, config.spectrum_lambda_max, config.spectrum_lambda_count)
    spectrum_rows = [
        (float(lam), c.real, c.imag, abs(c), math.atan2(c.imag, c.real))
        for lam, c in zip(lambdas, fourier_spectrum(seq, lambdas, config.horizon).tolist())
    ]
    yield "spectrum.csv", functools.partial(
        _write_table, header=["lambda", "re", "im", "magnitude", "angle"], rows=spectrum_rows
    )


def _guard_pair(config, t):
    pair = build_pair(config)
    _guard_events(
        event_count(pair.sequence_a, 0.0, t) + event_count(pair.sequence_b, 0.0, t)
    )
    return pair


def _run_correlate(config, out_dir):
    t = config.resolved().correlation_time
    pair = _guard_pair(config, t)
    n = config.angle_grid_size
    thetas = [2.0 * math.pi * k / n for k in range(n)]
    grid = correlations(pair, [(ta, tb) for ta in thetas for tb in thetas], t)
    yield "correlate.csv", functools.partial(
        _write_table,
        header=["theta_a", "theta_b", "t", "E", "residual", "segments"],
        rows=[(e.theta_a, e.theta_b, t, e.value, e.residual, e.segment_count) for e in grid],
    )


def _run_residual(config, out_dir):
    horizons = config.resolved().residual_horizons
    pair = _guard_pair(config, horizons[-1])
    curve = residual_curve(pair, config.residual_theta_a, config.residual_theta_b, horizons)
    yield "residual.csv", functools.partial(_write_table, header=["t", "residual"], rows=curve)


def _run_chsh(config, out_dir):
    t = config.resolved().correlation_time
    pair = _guard_pair(config, t)
    a1, a2, b1, b2 = config.chsh_angles
    result = chsh(pair, a1, a2, b1, b2, t)
    e11, e12, e21, e22 = (e.value for e in result.estimates)
    yield "chsh.csv", functools.partial(
        _write_table,
        header=["a1", "a2", "b1", "b2", "t", "e_a1b1", "e_a1b2", "e_a2b1", "e_a2b2", "s"],
        rows=[(a1, a2, b1, b2, t, e11, e12, e21, e22, result.s)],
    )


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _write_lines(path, lines) -> int:
    """Write ``lines`` joined by newlines; returns the file's newline count (``wc -l``)."""
    text = "\n".join(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text.count("\n")


def _run_report(config, out_dir):
    digest = config_digest(config)
    lines = ["experiment summary", f"config digest: {digest}", ""]
    found = False
    for name, (_, _, summarize) in SUBCOMMANDS.items():
        mpath = _manifest_path(out_dir, name)
        if summarize is None or not os.path.exists(mpath):
            continue
        try:
            manifest = load_manifest(mpath)
            verify_manifest(manifest, out_dir)
        except (ValueError, KeyError, TypeError) as exc:
            # unreadable JSON, a missing key or a mistyped value, or a bad digest
            raise OSError(f"output integrity check failed: {exc}") from exc
        if manifest.config_digest != digest:
            raise ConfigError(
                f"{mpath}: written under a different config "
                f"(digest {manifest.config_digest})"
            )
        found = True
        lines.append(f"[{name}] {len(manifest.files)} file(s), digests verified")
        for record in manifest.files:
            lines.append(f"  {record.name}: {record.rows} row(s)")
        lines.extend(summarize(out_dir))
        lines.append("")
    if not found:
        lines.append("no prior subcommand outputs found in this directory")
        lines.append("")
    yield "summary.txt", functools.partial(_write_lines, lines=lines)


def _summarize_analyze(out_dir) -> List[str]:
    rows = _read_csv(os.path.join(out_dir, "almost_periods.csv"))
    lines = [f"  almost-period candidates passing: {len(rows)}"]
    if rows:
        best = min(rows, key=lambda r: float(r["discrepancy"]))
        lines.append(
            f"  best shift {float(best['tau_star']):g} "
            f"(discrepancy {float(best['discrepancy']):.3e})"
        )
    rnd = _read_csv(os.path.join(out_dir, "randomness.csv"))
    if rnd:
        r = rnd[0]
        lines.append(
            f"  monobit p = {float(r['monobit_p']):.4f}, "
            f"permutation entropy = {float(r['permutation_entropy']):.4f} "
            f"({r['sample_count']} samples)"
        )
    return lines


def _summarize_correlate(out_dir) -> List[str]:
    rows = _read_csv(os.path.join(out_dir, "correlate.csv"))
    if not rows:
        return []
    worst = max(abs(float(r["residual"])) for r in rows)
    return [f"  correlation grid: {len(rows)} settings, max |residual| = {worst:.6f}"]


def _summarize_residual(out_dir) -> List[str]:
    rows = _read_csv(os.path.join(out_dir, "residual.csv"))
    if not rows:
        return []
    last = rows[-1]
    return [f"  residual at t = {float(last['t']):g}: {float(last['residual']):.6f}"]


def _summarize_chsh(out_dir) -> List[str]:
    rows = _read_csv(os.path.join(out_dir, "chsh.csv"))
    if not rows:
        return []
    r = rows[0]
    return [
        f"  CHSH S = {float(r['s']):.6f} at t = {float(r['t']):g} "
        f"(settings {float(r['a1']):.4f}, {float(r['a2']):.4f}, "
        f"{float(r['b1']):.4f}, {float(r['b2']):.4f})"
    ]


# name -> (help, runner, summary of its tables for report).  A runner yields
# (file name, writer) pairs; a writer takes a path and returns a row count.
# report lists the outputs of every subcommand with a summary, in this order
SUBCOMMANDS = {
    "generate": ("write event logs for both sequences", _run_generate, lambda out_dir: []),
    "analyze": ("almost-period, randomness, and spectrum tables", _run_analyze, _summarize_analyze),
    "correlate": ("correlation E over a uniform angle grid", _run_correlate, _summarize_correlate),
    "residual": ("residual convergence curve over horizons", _run_residual, _summarize_residual),
    "chsh": ("four-setting CHSH statistic", _run_chsh, _summarize_chsh),
    "report": ("aggregate prior outputs into a text summary", _run_report, None),
}


def resolve_out_dir(config: ExperimentConfig) -> str:
    """Precedence: config out_dir, then $WINDINGPHASE_OUT, then ./runs."""
    return config.out_dir or os.environ.get(ENV_OUT) or DEFAULT_OUT


def run_subcommand(config: ExperimentConfig, name: str) -> RunManifest:
    """Run one subcommand, write its outputs and manifest, return the manifest."""
    if name not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}; expected one of {tuple(SUBCOMMANDS)}")
    out_dir = resolve_out_dir(config)
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    os.makedirs(out_dir, exist_ok=True)
    _, run, _ = SUBCOMMANDS[name]
    files = []
    for file_name, write in run(config, out_dir):
        path = os.path.join(out_dir, file_name)
        files.append(FileRecord(file_name, write(path), _sha256_file(path)))
    manifest = RunManifest(
        config_digest=config_digest(config),
        version=__version__,
        subcommand=name,
        started_at=started_at,
        files=tuple(files),
    )
    with open(_manifest_path(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windingphase",
        description="Deterministic experiments on winding-generated phase sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON config file")
        sp.add_argument("--out", help="output directory (overrides config and environment)")
        sp.add_argument("--seed", type=int, help="seed override (unsigned 64-bit)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are configuration errors here
        return 0 if exc.code == 0 else 1

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            print("configuration error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
            return 1
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)

    try:
        manifest = run_subcommand(config, args.command)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    out_dir = resolve_out_dir(config)
    names = ", ".join(f.name for f in manifest.files)
    print(f"{args.command}: wrote {names} in {out_dir}")
    return 0
