"""The config schema declared on ExperimentConfig's fields.

parse_config loops over that declaration; these tests hold it to the
hand-written parser in oracles.py, to the digests of the demo configs, and
to the README's schema section.
"""

import dataclasses
import math
import random
from pathlib import Path

import pytest

from oracles import parse_config_by_hand
from test_config import MINIMAL, full_example
from windingphase import ConfigError, config_digest, load_config, parse_config
from windingphase.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent

# values a mutated key takes; deletion is the other mutation
POOL = (
    None, True, 0, -1, 2.5, math.nan, math.inf, 1e300, "c",
    [], [2.0, 1.0], [0.0, 200.0], [1.0, "x"], 2**64, {},
)


def _outcome(parse, data):
    try:
        return "ok", parse(data)
    except ConfigError as exc:
        return "error", exc.key


def _mutations(count, seed):
    rng = random.Random(seed)
    base = full_example()
    for _ in range(count):
        data = dict(base)
        for key in rng.sample(sorted(base), rng.randint(1, 3)):
            if rng.random() < 1.0 / (len(POOL) + 1):
                del data[key]
            else:
                data[key] = rng.choice(POOL)
        yield data


def test_parser_agrees_with_hand_written_parser():
    for data in _mutations(20000, seed=4):
        expected_data = data
        if "chsh_angles" in data and data["chsh_angles"] is None:
            # the one recorded difference: an explicit null here is refused
            # like any other non-list, not read as the default
            expected_data = dict(data, chsh_angles="c")
        assert _outcome(parse_config, data) == _outcome(parse_config_by_hand, expected_data), data


@pytest.mark.parametrize(
    "data",
    [MINIMAL, full_example(), dict(MINIMAL, residual_horizons=[10.0, 10.0, 100.0])],
)
def test_parser_agrees_on_valid_configs(data):
    assert parse_config(data) == parse_config_by_hand(data)


def test_null_means_the_default_only_where_it_is_none():
    assert parse_config(dict(MINIMAL, out_dir=None, search_bound=None)) == parse_config(MINIMAL)
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(MINIMAL, chsh_angles=None))
    assert exc.value.key == "chsh_angles"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("canonical", "7b783810d77d6914fcef2a5fa7446a82861998d2ecd5ebb458ff21b4a56b6afd"),
        ("genus0_control", "3682edd3bcec04518722acbbb2d6fd0f1e4c2da9aa1c9134d8351dba23cdeb83"),
    ],
)
def test_demo_config_digests_are_stable(name, digest):
    # manifests record this digest; report rejects a manifest whose digest moved
    assert config_digest(load_config(ROOT / "demos" / "configs" / f"{name}.json")) == digest


def test_resolved_fills_the_horizon_defaults():
    cfg = parse_config(MINIMAL).resolved()
    assert cfg.correlation_time == 100.0
    assert cfg.search_bound == 25.0
    assert cfg.event_window == (0.0, 100.0)
    assert cfg.residual_horizons == (0.1, 1.0, 10.0, 100.0)
    assert cfg.out_dir is None
    explicit = parse_config(full_example())
    assert explicit.resolved() == explicit


def test_resolved_ladder_drops_underflow():
    cfg = parse_config(dict(MINIMAL, horizon=5e-324))
    assert cfg.resolved().residual_horizons == (5e-324,)


def test_readme_schema_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config schema", 1)[1].split("\n#", 1)[0]
    for f in dataclasses.fields(ExperimentConfig):
        assert f"`{f.name}`" in section, f.name
