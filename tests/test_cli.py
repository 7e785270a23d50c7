import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from windingphase import (
    ConfigError,
    config_digest,
    event_arrays,
    parse_config,
    phase_at,
    read_event_log,
    run_subcommand,
    save_config,
    sequence,
    wrap_angle,
)
from windingphase.cli import (
    build_sequences,
    load_manifest,
    main,
    verify_manifest,
)

TWO_PI = 2.0 * math.pi
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def small_config(**overrides):
    data = {
        "genus": 1,
        "chain_a": [1, 0],
        "chain_b": [0, 1],
        "betas": [TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0)],
        "periods": [1.0, math.sqrt(2.0)],
        "horizon": 400.0,
        "seed": 11,
        "angle_grid_size": 3,
        "n_samples": 1500,
        "search_bound": 20.0,
        "sample_step": 2.0,
        "spectrum_lambda_count": 3,
        "event_window": [0.0, 50.0],
        "residual_horizons": [10.0, 100.0, 400.0],
    }
    data.update(overrides)
    return data


def write_config(tmp_path, name="config.json", **overrides):
    cfg = parse_config(small_config(**overrides))
    path = tmp_path / name
    save_config(cfg, path)
    return path, cfg


def genus0_config(tmp_path, **overrides):
    data = {
        "genus": 0,
        "chain_a": [],
        "chain_b": [],
        "betas": [],
        "periods": [],
        "horizon": 100.0,
        "seed": 1,
        "angle_grid_size": 4,
        "chsh_angles": [0.0, 0.0, 0.0, 0.0],
    }
    data.update(overrides)
    cfg = parse_config(data)
    path = tmp_path / "g0.json"
    save_config(cfg, path)
    return path, cfg


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSubcommands:
    def test_generate_writes_event_logs_and_manifest(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "events_a.csv").exists()
        assert (out / "events_b.csv").exists()
        manifest = load_manifest(out / "manifest_generate.json")
        assert manifest.subcommand == "generate"
        assert manifest.config_digest == config_digest(cfg)
        assert {f.name for f in manifest.files} == {"events_a.csv", "events_b.csv"}
        verify_manifest(manifest, out)
        # events_a: multiples of 1 in (0, 50]; events_b: multiples of sqrt2
        assert manifest.files[0].rows == 50
        assert manifest.files[1].rows == math.floor(50.0 / math.sqrt(2.0))

    def test_generate_reload_replay_matches_phase(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        seq_a, _ = build_sequences(cfg)
        events = read_event_log(out / "events_a.csv")
        for tau in (0.5, 12.25, 49.9):
            replay = wrap_angle(math.fsum(e.increment for e in events if e.time <= tau))
            d = abs(replay - phase_at(seq_a, tau)) % TWO_PI
            assert min(d, TWO_PI - d) <= 1e-9

    def test_analyze_outputs(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("almost_periods.csv", "randomness.csv", "spectrum.csv"):
            assert (out / name).exists()
        rnd = read_rows(out / "randomness.csv")[0]
        assert rnd["sample_count"] == "1500"
        assert 0.0 <= float(rnd["monobit_p"]) <= 1.0
        spec_rows = read_rows(out / "spectrum.csv")
        assert len(spec_rows) == 3
        assert [r["lambda"] for r in spec_rows][0] == "0"

    def test_default_analyze_scan_stops_failing_shifts_early(self, tmp_path, monkeypatch):
        # Every optional key unset: search_bound defaults to horizon/4, so
        # the scan has about 1e4 candidate shifts over a 1.5e4-unit window.
        cfg = parse_config({
            "genus": 2,
            "chain_a": [1, -1, 2, 1],
            "chain_b": [0, 1, 1, -2],
            "betas": [TWO_PI * (PHI % 1.0), TWO_PI * (math.sqrt(3.0) % 1.0), 1.0, 2.5],
            "periods": [1.0, 2.0, math.sqrt(3.0), math.sqrt(5.0)],
            "horizon": 2e4,
            "seed": 5,
        })
        cfg_path = tmp_path / "g2.json"
        save_config(cfg, cfg_path)
        # shifts are scanned on several threads: list.append and set.add
        # lose no update, where a shared running total could
        sizes, shifts = [], set()
        block = sequence._block_discrepancy

        def counting_block(cuts, shift, *rest):
            sizes.append(cuts.size)
            shifts.add(float(shift))
            return block(cuts, shift, *rest)

        monkeypatch.setattr(sequence, "_block_discrepancy", counting_block)
        assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

        seq = build_sequences(cfg)[0]
        window_end = cfg.horizon - cfg.resolved().search_bound
        base = np.unique(event_arrays(seq, 0.0, window_end)[0]).size
        assert len(shifts) >= 10000 and base >= 25000
        # A whole-window scan merges the base event times with about as many
        # shifted ones for every shift; blocks that reject early cut that
        # to a small fraction.
        assert sum(sizes) <= 0.02 * len(shifts) * 2 * base

    def test_correlate_genus0_rows_satisfy_closed_form(self, tmp_path):
        cfg_path, _ = genus0_config(tmp_path)
        out = tmp_path / "out"
        assert main(["correlate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_rows(out / "correlate.csv")
        assert len(rows) == 16
        for r in rows:
            ta, tb = float(r["theta_a"]), float(r["theta_b"])
            assert abs(float(r["E"]) - (math.cos(ta + tb) + math.cos(ta - tb))) <= 1e-12

    def test_chsh_genus0_all_zero_angles(self, tmp_path):
        cfg_path, _ = genus0_config(tmp_path)
        out = tmp_path / "out"
        assert main(["chsh", "--config", str(cfg_path), "--out", str(out)]) == 0
        row = read_rows(out / "chsh.csv")[0]
        assert float(row["s"]) == pytest.approx(4.0, abs=1e-12)

    def test_chsh_canonical_pipeline_hits_kernel_limit(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, horizon=10000.0, correlation_time=10000.0, event_window=None,
            residual_horizons=None, search_bound=None,
        )
        out = tmp_path / "out"
        assert main(["chsh", "--config", str(cfg_path), "--out", str(out)]) == 0
        row = read_rows(out / "chsh.csv")[0]
        assert abs(float(row["s"]) - 2.0 * math.sqrt(2.0)) <= 0.05

    def test_chsh_demo_config_at_horizon_1e5(self, tmp_path):
        # 1.7e5 segments: far more than a fixed absolute rounding guard tolerates
        demo = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "canonical.json")
        with open(demo, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(horizon=1e5, correlation_time=1e5)
        cfg_path = tmp_path / "canonical_1e5.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["chsh", "--config", str(cfg_path), "--out", str(out)]) == 0
        s = float(read_rows(out / "chsh.csv")[0]["s"])
        assert s > 2.0
        assert abs(s - 2.0 * math.sqrt(2.0)) <= 0.05

    def test_residual_curve_table(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["residual", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_rows(out / "residual.csv")
        assert [float(r["t"]) for r in rows] == [10.0, 100.0, 400.0]

    def test_report_aggregates_and_verifies(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for name in ("generate", "chsh", "report"):
            assert main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert config_digest(cfg) in summary
        assert "CHSH S" in summary
        assert "[generate]" in summary

    def test_report_detects_tampering(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "events_a.csv", "a") as fh:
            fh.write("999,0,0.5\n")
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3

    @pytest.mark.parametrize(
        "forge",
        [
            pytest.param(lambda rows: rows[:1], id="no-rows"),
            pytest.param(lambda rows: [r[:4] + r[5:] for r in rows], id="no-residual-column"),
            pytest.param(lambda rows: rows + [["x" * 200000] * len(rows[0])], id="oversized-field"),
        ],
    )
    def test_report_refuses_a_table_its_summary_cannot_read(self, tmp_path, capsys, forge):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["correlate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "correlate.csv").read_text().splitlines()]
        assert rows[0][4] == "residual"
        text = "".join(",".join(r) + "\n" for r in forge(rows))
        (out / "correlate.csv").write_text(text)
        # the manifest is rewritten to match, so the digest check passes
        mpath = out / "manifest_correlate.json"
        manifest = json.loads(mpath.read_text())
        manifest["files"][0].update(
            rows=text.count("\n") - 1, sha256=hashlib.sha256(text.encode()).hexdigest()
        )
        mpath.write_text(json.dumps(manifest))
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "output integrity check failed" in capsys.readouterr().err

    def test_report_rejects_foreign_config(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        other_path, _ = write_config(tmp_path, name="other.json", seed=999)
        assert main(["report", "--config", str(other_path), "--out", str(out)]) == 1

    def test_report_without_prior_outputs_says_so(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "no prior subcommand outputs found in this directory" in (out / "summary.txt").read_text()

    def test_unknown_subcommand_is_a_config_error(self, tmp_path):
        cfg = parse_config(small_config(out_dir=str(tmp_path / "out")))
        with pytest.raises(ConfigError, match="nope"):
            run_subcommand(cfg, "nope")
        assert not (tmp_path / "out").exists()


class TestReproducibility:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            for name in ("generate", "analyze", "correlate", "residual", "chsh"):
                assert main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
        data_names = [
            "events_a.csv", "events_b.csv", "almost_periods.csv", "randomness.csv",
            "spectrum.csv", "correlate.csv", "residual.csv", "chsh.csv",
        ]
        for name in data_names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # manifests agree too, up to the started_at timestamp
        for name in ("generate", "analyze", "correlate", "residual", "chsh"):
            m1 = json.loads((out1 / f"manifest_{name}.json").read_text())
            m2 = json.loads((out2 / f"manifest_{name}.json").read_text())
            m1.pop("started_at")
            m2.pop("started_at")
            assert m1 == m2

    def test_seed_override_changes_sampling(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out2), "--seed", "5"]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out3), "--seed", "6"]) == 0
        r1 = (out1 / "randomness.csv").read_bytes()
        assert r1 == (out2 / "randomness.csv").read_bytes()
        assert r1 != (out3 / "randomness.csv").read_bytes()


class TestOutputDirResolution:
    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        cfg_path, _ = write_config(tmp_path)
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("WINDINGPHASE_OUT", str(env_out))
        monkeypatch.chdir(tmp_path)
        assert main(["chsh", "--config", str(cfg_path)]) == 0
        assert (env_out / "chsh.csv").exists()

    def test_flag_beats_env_and_config(self, tmp_path, monkeypatch):
        cfg_path, _ = write_config(tmp_path, out_dir=str(tmp_path / "from_config"))
        monkeypatch.setenv("WINDINGPHASE_OUT", str(tmp_path / "from_env"))
        out = tmp_path / "from_flag"
        assert main(["chsh", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "chsh.csv").exists()
        assert not (tmp_path / "from_env").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_out_dir_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "from_config"
        cfg_path, _ = write_config(tmp_path, out_dir=str(out))
        monkeypatch.setenv("WINDINGPHASE_OUT", str(tmp_path / "from_env"))
        assert main(["chsh", "--config", str(cfg_path)]) == 0
        assert (out / "chsh.csv").exists()


class TestExitCodes:
    def test_invalid_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(small_config(periods=[-1.0, 2.0])))
        assert main(["chsh", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["chsh", "--config", str(path)]) == 1

    def test_usage_error_exits_1(self, tmp_path, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 1
        capsys.readouterr()

    def test_bad_seed_exits_1(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["chsh", "--config", str(cfg_path), "--seed", "-3"]) == 1

    def test_resource_guard_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(
            tmp_path,
            horizon=1e7,
            periods=[0.01, math.sqrt(2.0)],
            event_window=None,
            residual_horizons=None,
            search_bound=None,
        )
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "resource guard" in err
        assert "100000000" in err.replace(",", "")  # limit is reported

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["chsh", "--config", str(tmp_path / "absent.json")]) == 3

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        assert main(["chsh", "--config", str(cfg_path), "--out", str(blocker / "sub")]) == 3


def test_module_entry_point_runs(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "windingphase", "chsh",
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "chsh.csv").exists()
    assert "chsh" in proc.stdout
