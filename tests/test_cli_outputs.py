"""The CLI's output contract: manifest bytes, row counts and refusals."""

import json

import pytest

from test_cli import write_config
from windingphase.cli import main

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
@pytest.mark.parametrize("step", [1e-15, 5e-324])
def test_tiny_sample_step_trips_the_guard(tmp_path, capsys, step):
    cfg_path, _ = write_config(tmp_path, sample_step=step)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "resource guard" in capsys.readouterr().err
    assert not (out / "almost_periods.csv").exists()
