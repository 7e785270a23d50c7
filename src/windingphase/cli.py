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
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
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


def _write_manifest(manifest: RunManifest, out_dir) -> None:
    payload = {
        "config_digest": manifest.config_digest,
        "version": manifest.version,
        "subcommand": manifest.subcommand,
        "started_at": manifest.started_at,
        "files": [
            {"name": f.name, "rows": f.rows, "sha256": f.sha256} for f in manifest.files
        ],
    }
    with open(_manifest_path(out_dir, manifest.subcommand), "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return RunManifest(
        config_digest=data["config_digest"],
        version=data["version"],
        subcommand=data["subcommand"],
        started_at=data["started_at"],
        files=tuple(FileRecord(f["name"], f["rows"], f["sha256"]) for f in data["files"]),
    )


def verify_manifest(manifest: RunManifest, out_dir) -> None:
    """Recompute the digest of every listed file; mismatch raises ValueError."""
    for record in manifest.files:
        path = os.path.join(out_dir, record.name)
        actual = _sha256_file(path)
        if actual != record.sha256:
            raise ValueError(
                f"{record.name}: digest mismatch (manifest {record.sha256}, file {actual})"
            )


def _run_generate(config, out_dir) -> List[FileRecord]:
    seq_a, seq_b = build_sequences(config)
    t0, t1 = config.resolved().event_window
    _guard_events(event_count(seq_a, t0, t1) + event_count(seq_b, t0, t1))
    records = []
    for name, seq in (("events_a.csv", seq_a), ("events_b.csv", seq_b)):
        path = os.path.join(out_dir, name)
        rows = write_event_log(path, seq, t0, t1)
        records.append(FileRecord(name, rows, _sha256_file(path)))
    return records


def _run_analyze(config, out_dir) -> List[FileRecord]:
    seq_a, seq_b = build_sequences(config)
    seq = seq_a if config.analysis_target == "a" else seq_b
    _guard_events(event_count(seq, 0.0, config.horizon))
    records = []

    ap = find_almost_periods(seq, config.epsilon, config.resolved().search_bound, config.sample_step)
    path = os.path.join(out_dir, "almost_periods.csv")
    rows = _write_table(
        path,
        ["tau_star", "discrepancy"],
        [(c.shift, c.discrepancy) for c in ap.candidates],
    )
    records.append(FileRecord("almost_periods.csv", rows, _sha256_file(path)))

    battery = randomness_battery(seq, config.horizon, config.n_samples, seed=config.seed)
    path = os.path.join(out_dir, "randomness.csv")
    rows = _write_table(
        path,
        [
            "monobit_p",
            "serial_correlation_re",
            "serial_correlation_im",
            "permutation_entropy",
            "sample_count",
        ],
        [
            (
                battery.monobit_p,
                battery.serial_correlation.real,
                battery.serial_correlation.imag,
                battery.permutation_entropy,
                battery.sample_count,
            )
        ],
    )
    records.append(FileRecord("randomness.csv", rows, _sha256_file(path)))

    lambdas = np.linspace(0.0, config.spectrum_lambda_max, config.spectrum_lambda_count)
    spectrum_rows = [
        (float(lam), c.real, c.imag, abs(c), math.atan2(c.imag, c.real))
        for lam, c in zip(lambdas, fourier_spectrum(seq, lambdas, config.horizon).tolist())
    ]
    path = os.path.join(out_dir, "spectrum.csv")
    rows = _write_table(path, ["lambda", "re", "im", "magnitude", "angle"], spectrum_rows)
    records.append(FileRecord("spectrum.csv", rows, _sha256_file(path)))
    return records


def _guard_pair(config, t):
    pair = build_pair(config)
    _guard_events(
        event_count(pair.sequence_a, 0.0, t) + event_count(pair.sequence_b, 0.0, t)
    )
    return pair


def _run_correlate(config, out_dir) -> List[FileRecord]:
    t = config.resolved().correlation_time
    pair = _guard_pair(config, t)
    n = config.angle_grid_size
    thetas = [2.0 * math.pi * k / n for k in range(n)]
    grid = correlations(pair, [(ta, tb) for ta in thetas for tb in thetas], t)
    rows_out = [(e.theta_a, e.theta_b, t, e.value, e.residual, e.segment_count) for e in grid]
    path = os.path.join(out_dir, "correlate.csv")
    rows = _write_table(
        path, ["theta_a", "theta_b", "t", "E", "residual", "segments"], rows_out
    )
    return [FileRecord("correlate.csv", rows, _sha256_file(path))]


def _run_residual(config, out_dir) -> List[FileRecord]:
    horizons = config.resolved().residual_horizons
    pair = _guard_pair(config, horizons[-1])
    curve = residual_curve(
        pair, config.residual_theta_a, config.residual_theta_b, horizons
    )
    path = os.path.join(out_dir, "residual.csv")
    rows = _write_table(path, ["t", "residual"], curve)
    return [FileRecord("residual.csv", rows, _sha256_file(path))]


def _run_chsh(config, out_dir) -> List[FileRecord]:
    t = config.resolved().correlation_time
    pair = _guard_pair(config, t)
    a1, a2, b1, b2 = config.chsh_angles
    result = chsh(pair, a1, a2, b1, b2, t)
    e11, e12, e21, e22 = (e.value for e in result.estimates)
    path = os.path.join(out_dir, "chsh.csv")
    rows = _write_table(
        path,
        ["a1", "a2", "b1", "b2", "t", "e_a1b1", "e_a1b2", "e_a2b1", "e_a2b2", "s"],
        [(a1, a2, b1, b2, t, e11, e12, e21, e22, result.s)],
    )
    return [FileRecord("chsh.csv", rows, _sha256_file(path))]


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _run_report(config, out_dir) -> List[FileRecord]:
    digest = config_digest(config)
    lines = ["experiment summary", f"config digest: {digest}", ""]
    found = False
    for name in SUBCOMMANDS:
        if name == "report":
            continue
        mpath = _manifest_path(out_dir, name)
        if not os.path.exists(mpath):
            continue
        manifest = load_manifest(mpath)
        try:
            verify_manifest(manifest, out_dir)
        except ValueError as exc:
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
        lines.extend(_summarize_tables(name, out_dir))
        lines.append("")
    if not found:
        lines.append("no prior subcommand outputs found in this directory")
        lines.append("")
    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
    return [FileRecord("summary.txt", len(lines), _sha256_file(path))]


def _summarize_tables(name, out_dir) -> List[str]:
    lines = []
    if name == "chsh":
        rows = _read_csv(os.path.join(out_dir, "chsh.csv"))
        if rows:
            r = rows[0]
            lines.append(
                f"  CHSH S = {float(r['s']):.6f} at t = {float(r['t']):g} "
                f"(settings {float(r['a1']):.4f}, {float(r['a2']):.4f}, "
                f"{float(r['b1']):.4f}, {float(r['b2']):.4f})"
            )
    elif name == "correlate":
        rows = _read_csv(os.path.join(out_dir, "correlate.csv"))
        if rows:
            worst = max(abs(float(r["residual"])) for r in rows)
            lines.append(f"  correlation grid: {len(rows)} settings, max |residual| = {worst:.6f}")
    elif name == "residual":
        rows = _read_csv(os.path.join(out_dir, "residual.csv"))
        if rows:
            last = rows[-1]
            lines.append(
                f"  residual at t = {float(last['t']):g}: {float(last['residual']):.6f}"
            )
    elif name == "analyze":
        rows = _read_csv(os.path.join(out_dir, "almost_periods.csv"))
        lines.append(f"  almost-period candidates passing: {len(rows)}")
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


# name -> (help, runner); report reads the outputs of the others, in this order
SUBCOMMANDS = {
    "generate": ("write event logs for both sequences", _run_generate),
    "analyze": ("almost-period, randomness, and spectrum tables", _run_analyze),
    "correlate": ("correlation E over a uniform angle grid", _run_correlate),
    "residual": ("residual convergence curve over horizons", _run_residual),
    "chsh": ("four-setting CHSH statistic", _run_chsh),
    "report": ("aggregate prior outputs into a text summary", _run_report),
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
    _, run = SUBCOMMANDS[name]
    files = run(config, out_dir)
    manifest = RunManifest(
        config_digest=config_digest(config),
        version=__version__,
        subcommand=name,
        started_at=started_at,
        files=tuple(files),
    )
    _write_manifest(manifest, out_dir)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windingphase",
        description="Deterministic experiments on winding-generated phase sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in SUBCOMMANDS.items():
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
