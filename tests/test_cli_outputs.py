"""The CLI's output contract: manifest bytes, row counts and refusals."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import small_config, write_config
from windingphase import DomainError, cli
from windingphase.cli import main
from windingphase.config import ExperimentConfig

ORDER = ("generate", "analyze", "correlate", "residual", "chsh", "report")


def test_manifest_layout_and_row_counts(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    for name in ORDER:
        assert main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ORDER:
        text = (out / f"manifest_{name}.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert set(data) == {"config_digest", "files", "started_at", "subcommand", "version"}
        assert data["subcommand"] == name
        for record in data["files"]:
            assert set(record) == {"name", "rows", "sha256"}
            body = (out / record["name"]).read_text(encoding="utf-8")
            if record["name"] == "summary.txt":
                # its lines as wc -l counts them: one per newline
                assert record["rows"] == body.count("\n")
            else:
                assert record["rows"] == len(body.splitlines()) - 1  # less the header


@pytest.mark.parametrize("content", ["{not json", '{"config_digest": "x"}'])
def test_malformed_manifest_fails_the_integrity_check(tmp_path, capsys, content):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["chsh", "--config", str(cfg_path), "--out", str(out)]) == 0
    (out / "manifest_chsh.json").write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "output integrity check failed" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


# Only steps numpy refuses at once: a step that numpy can really allocate
# for (say 1e-7 on this config) would take gigabytes without the guard.
# Counts of 1e17 or more print in %.6g form, not as hundreds of digits.
@pytest.mark.parametrize(
    "step, shown",
    [(1e-15, "20000000000000000"), (5e-324, "inf"), (1e-300, "2e+301")],
    ids=["1e-15", "5e-324", "1e-300"],
)
def test_tiny_sample_step_trips_the_guard(tmp_path, capsys, step, shown):
    cfg_path, _ = write_config(tmp_path, sample_step=step)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "resource guard" in err
    # the message names what it counts: the step's grid of shifts
    assert f" {shown} almost-period shifts, guard limit" in err
    assert len(err.encode()) < 200
    assert not (out / "almost_periods.csv").exists()
    assert not out.exists()


# Counts the config schema accepts but no run could hold in memory: each is
# refused before the array of that length (or the grid's settings) is built,
# and the message names what it counts, in short form past the float range.
NOUNS = {
    "n_samples": "randomness samples",
    "spectrum_lambda_count": "spectrum lambdas",
    "angle_grid_size": "correlation settings",
}


@pytest.mark.parametrize(
    "subcommand, key, count, table",
    [
        ("analyze", "n_samples", 10**12, "almost_periods.csv"),
        ("analyze", "spectrum_lambda_count", 10**12, "almost_periods.csv"),
        ("correlate", "angle_grid_size", 10**5, "correlate.csv"),
        pytest.param("analyze", "n_samples", 10**400, "almost_periods.csv", id="n_samples-1e400"),
        pytest.param("analyze", "spectrum_lambda_count", 10**400, "almost_periods.csv", id="lambdas-1e400"),
        pytest.param("correlate", "angle_grid_size", 10**160, "correlate.csv", id="angles-1e160"),
    ],
)
def test_huge_counts_trip_the_guard(tmp_path, capsys, subcommand, key, count, table):
    cfg_path, _ = write_config(tmp_path, **{key: count})
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "resource guard" in err
    assert f" {NOUNS[key]}, guard limit" in err
    assert "Traceback" not in err
    assert len(err.encode()) < 200
    assert not (out / table).exists()
    assert not out.exists()


# Configs the schema accepts whose numbers no float or int64 holds: each
# subcommand that would meet them refuses up front, writing no table.
@pytest.mark.parametrize(
    "subcommand, overrides, tables",
    [
        # a winding count of 1e19 at the horizon, past int64's 2**63
        ("analyze", {"horizon": 1e19, "correlation_time": 400.0}, ["almost_periods.csv"]),
        # counts of 5e301 in the event window, from a tiny period
        ("generate", {"periods": [1e-300, 1.0]}, ["events_a.csv", "events_b.csv"]),
        # an increment m * beta too large for a float
        ("chsh", {"chain_a": [10**400, 0]}, ["chsh.csv"]),
        # angles lam * tau past the float range: no scan table either
        (
            "analyze",
            {"spectrum_lambda_max": 1e308},
            ["almost_periods.csv", "randomness.csv", "spectrum.csv"],
        ),
    ],
)
def test_unrepresentable_numbers_are_refused(tmp_path, capsys, subcommand, overrides, tables):
    cfg_path, _ = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    for table in tables:
        assert not (out / table).exists()
    assert not out.exists()
    if "horizon" in overrides:
        # short correlation times count few windings and still run
        assert main(["correlate", "--config", str(cfg_path), "--out", str(out)]) == 0


# m * beta = 1e5 passes the increment check, but the doubled difference
# chain's coefficient times its winding counts has no float.
@pytest.mark.parametrize(
    "subcommand, table",
    [("correlate", "correlate.csv"), ("residual", "residual.csv"), ("chsh", "chsh.csv")],
)
def test_a_coefficient_times_winding_count_with_no_float_is_refused(tmp_path, capsys, subcommand, table):
    cfg_path, _ = write_config(
        tmp_path,
        chain_a=[10**305, 0],
        betas=[1e-300, 4.59961087822572],
        horizon=10000.0,
        residual_horizons=[10.0, 100.0, 10000.0],
    )
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "2**1024" in err
    assert "Traceback" not in err
    assert not (out / table).exists()
    assert not out.exists()


def _assert_refused(tmp_path, capsys, subcommand, cfg_path, *flags):
    """subcommand exits 1 as a configuration error, with no traceback and no --out directory."""
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg_path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not out.exists()
    return err


# int() reads no --seed past 4300 digits: the config's seed rule refuses the
# text in short form, where argparse's usage error echoed all of it.
def test_a_seed_past_4300_digits_is_refused_in_short_form(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    err = _assert_refused(tmp_path, capsys, "chsh", cfg_path, "--seed", "1" + "0" * 5000)
    assert "'seed'" in err and len(err.encode()) <= 200, err


# Finite detector angles whose sum or difference overflows: cos(inf) raised a
# bare ValueError, and an infinite difference wrote nan rows.
@pytest.mark.parametrize(
    "subcommand, overrides",
    [
        ("chsh", {"chsh_angles": [1e308, 1e308, 1e308, 1e308]}),
        ("chsh", {"chsh_angles": [1e308, 0.0, 0.0, -1e308]}),
        ("residual", {"residual_theta_a": 1e308, "residual_theta_b": -1e308}),
    ],
)
def test_angles_whose_sum_or_difference_overflows_are_refused(tmp_path, capsys, subcommand, overrides):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert "finite sum and difference" in _assert_refused(tmp_path, capsys, subcommand, cfg_path)


# Periods so small that a quotient by them overflows: refused as such, with
# no numpy overflow warning (an error under the test filters) first.
TINY_PERIODS = {"periods": [5e-324, 1.0]}
FAR_HORIZON = {"horizon": 1e300, "periods": [1e-10, 1.0], "event_window": None}
TINY_HORIZON = {
    "horizon": 1e-305,
    "periods": [1e-310, 1.0],
    "event_window": None,
    "residual_horizons": None,
    "search_bound": None,
}


@pytest.mark.parametrize(
    "subcommand, overrides, message",
    [(name, TINY_PERIODS, "event rate") for name in ORDER[:-1]]
    + [(name, FAR_HORIZON, "below 2**63") for name in ("generate", "analyze")]
    + [(name, TINY_HORIZON, "event rate") for name in ("correlate", "analyze")],
)
def test_tiny_periods_are_refused_without_a_warning(tmp_path, capsys, subcommand, overrides, message):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert message in _assert_refused(tmp_path, capsys, subcommand, cfg_path)


# analyze computes all three tables before it writes one, so a refusal from
# the last of them leaves nothing behind.
def test_a_spectrum_refusal_leaves_no_analyze_table(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise DomainError("refused by the spectrum")

    monkeypatch.setattr(cli, "fourier_spectrum", refuse)
    cfg_path, _ = write_config(tmp_path)
    assert "refused by the spectrum" in _assert_refused(tmp_path, capsys, "analyze", cfg_path)


# The refusal contract over hostile configs: the small test config with one
# or two keys (or a 10,000-character unknown key) set to edge floats,
# integers past int64 and the float range, non-finite values, a numeric
# string, a bool, null, a 10,000-character string, or a short list of them.
# horizon and periods take only the values that the schema or a refusal past
# it turns down, so that no admitted run is large
REFUSED_TIMES = (0, -1, 5e-324, 1e-300, 10**400, -(10**400), math.nan, math.inf,
                 "2.5", True, None, "x" * 10000)
HOSTILE = REFUSED_TIMES + (1, 1e300, 1.7e308, 2**63)
KEYS = [f.name for f in fields(ExperimentConfig)] + ["k" * 10000]


def _values(pool):
    return st.sampled_from(pool) | st.lists(st.sampled_from(pool), max_size=4)


@st.composite
def hostile_configs(draw):
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2, unique=True))
    return {key: draw(_values(REFUSED_TIMES if key in ("horizon", "periods") else HOSTILE)) for key in keys}


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    return status, err.getvalue()


@settings(max_examples=200, deadline=10000, derandomize=True)
@given(overrides=hostile_configs(), subcommand=st.sampled_from(ORDER[:-1]))
def test_hostile_configs_are_run_or_refused_cleanly(overrides, subcommand):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(small_config(**overrides)), encoding="utf-8")
        status, err = _run([subcommand, "--config", str(cfg_path), "--out", str(out)])
        assert status in (0, 1, 2, 3)
        if status:
            assert not out.exists()
            assert "Traceback" not in err
            assert len(err.encode()) <= 200, err
        else:
            assert not {"horizon", "periods"} & set(overrides)
            assert _run(["report", "--config", str(cfg_path), "--out", str(out)])[0] == 0
            assert "digests verified" in (out / "summary.txt").read_text(encoding="utf-8")
