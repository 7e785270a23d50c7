import json
import math

import pytest

from windingphase import (
    ConfigError,
    config_digest,
    config_to_dict,
    load_config,
    parse_config,
    save_config,
)
from windingphase.cli import main

MINIMAL = {
    "genus": 1,
    "chain_a": [1, 0],
    "chain_b": [0, 1],
    "betas": [0.5, 1.5],
    "periods": [1.0, 1.4142135623730951],
    "horizon": 100.0,
    "seed": 7,
}


def full_example():
    cfg = dict(MINIMAL)
    cfg.update(
        {
            "out_dir": "out",
            "correlation_time": 50.0,
            "angle_grid_size": 4,
            "chsh_angles": [0.0, math.pi / 2, 7 * math.pi / 4, math.pi / 4],
            "epsilon": 0.3,
            "search_bound": 25.0,
            "sample_step": 0.5,
            "n_samples": 2000,
            "spectrum_lambda_max": 6.0,
            "spectrum_lambda_count": 5,
            "event_window": [0.0, 10.0],
            "residual_horizons": [1.0, 10.0, 100.0],
            "residual_theta_a": 0.1,
            "residual_theta_b": 0.2,
            "analysis_target": "b",
        }
    )
    return cfg


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.genus == 1
    assert cfg.chain_a == (1, 0)
    assert cfg.chain_b == (0, 1)
    assert cfg.horizon == 100.0
    assert cfg.seed == 7
    assert cfg.correlation_time is None
    assert cfg.angle_grid_size == 8


def test_negative_period_names_the_key():
    bad = dict(MINIMAL, periods=[-1.0, 2.0])
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.key == "periods[0]"


def test_integer_too_large_for_a_float_names_the_key():
    bad = dict(MINIMAL, horizon=10**400)
    with pytest.raises(ConfigError, match="too large for a float") as exc:
        parse_config(bad)
    assert exc.value.key == "horizon"


def test_chain_length_must_be_twice_genus():
    bad = dict(MINIMAL, chain_a=[1, 0, 2])
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.key == "chain_a"
    assert "2" in str(exc.value)


def test_missing_required_key():
    bad = dict(MINIMAL)
    del bad["seed"]
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.key == "seed"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, tpyo=1))
    assert exc.value.key == "tpyo"


def test_seed_must_fit_u64():
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, seed=-1))
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, seed=2**64))
    assert parse_config(dict(MINIMAL, seed=2**64 - 1)).seed == 2**64 - 1


def test_correlation_time_bounded_by_horizon():
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, correlation_time=101.0))
    assert exc.value.key == "correlation_time"


def test_search_bound_bounded_by_half_horizon():
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, search_bound=51.0))
    assert exc.value.key == "search_bound"


def test_event_window_validation():
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, event_window=[5.0, 2.0]))
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, event_window=[0.0, 200.0]))


def test_residual_horizons_must_ascend():
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, residual_horizons=[10.0, 5.0]))
    assert "ascending" in str(exc.value)


def test_analysis_target_restricted():
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, analysis_target="c"))


def test_non_integer_chain_entry_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, chain_a=[1.5, 0]))
    assert exc.value.key == "chain_a[0]"


def test_genus_zero_config_is_legal():
    cfg = parse_config(
        {
            "genus": 0,
            "chain_a": [],
            "chain_b": [],
            "betas": [],
            "periods": [],
            "horizon": 10.0,
            "seed": 0,
        }
    )
    assert cfg.chain_a == ()


@pytest.mark.parametrize("data", [MINIMAL, full_example()])
def test_round_trip_is_identity(tmp_path, data):
    cfg = parse_config(data)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    # and a second round trip through the dict form
    assert parse_config(config_to_dict(again)) == cfg


def test_digest_stable_and_sensitive():
    a = parse_config(MINIMAL)
    b = parse_config(dict(MINIMAL))
    c = parse_config(dict(MINIMAL, seed=8))
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64


def test_digest_ignores_output_location():
    a = parse_config(MINIMAL)
    b = parse_config(dict(MINIMAL, out_dir="elsewhere"))
    assert config_digest(a) == config_digest(b)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_rejects_text_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MINIMAL).encode("utf-16-le"))
    with pytest.raises(ConfigError, match="utf16.json"):
        load_config(path)
    assert main(["chsh", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "configuration error:" in capsys.readouterr().err


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def test_saved_file_is_plain_flat_json(tmp_path):
    cfg = parse_config(full_example())
    path = tmp_path / "config.json"
    save_config(cfg, path)
    data = json.loads(path.read_text())
    assert data["genus"] == 1
    for value in data.values():
        assert not isinstance(value, dict), "schema must stay flat"
