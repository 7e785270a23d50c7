"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload at toy sizes, untraced and traced, and checks that each
metric BENCHMARK.json names is emitted with its unit and that every output
passes its check.  Then it corrupts one output and checks that the run counts
it as a failure, and checks that the benchmark refuses to run without the
program's sources.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, *extra, root=ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate=" in lines[-2]


def test_corrupted_output_is_counted():
    proc = _run("bell_grid", 0, "--corrupt")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 1
    assert result["correct"] is False
    assert json.loads(lines[0])["failures"] == {"check": 1}


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench-runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("bell_grid", 0, root=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_missing_target_is_an_absent_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from spans import Recorder, layer_metrics

    cli = importlib.import_module("windingphase.cli")
    monkeypatch.delattr(cli, "find_almost_periods")
    recorder = Recorder()
    recorder.install()
    try:
        metrics = layer_metrics(recorder, [1.0], [1.0])
    finally:
        recorder.uninstall()
    assert recorder.missing == ["windingphase.cli.find_almost_periods"]
    assert not any(name.startswith("sequence.find_almost_periods.") for name in metrics)
    assert "sequence.event_arrays.self_s" in metrics
