"""Experiment configuration: a flat JSON file, one file per reproducible run.

The schema is flat (scalars and lists of scalars only) and round-trips
losslessly: parse -> serialize -> parse is the identity.  Every randomized
choice anywhere in a run is determined by ``seed``.

The fields of ExperimentConfig are the only declaration of the schema (type,
default, domain, list length, cross-field rule); parse_config loops over them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, Optional, Tuple

from .errors import ConfigError, DomainError, _shown
from .topology import _integer, _real

_CANONICAL_CHSH = (0.0, math.pi / 2.0, 7.0 * math.pi / 4.0, math.pi / 4.0)
_BASIS = "2*genus"  # list length: one entry per basis cycle
_FREE = "free"  # list length: any


@dataclass(frozen=True)
class _Rule:
    """How parse_config checks one key.

    ``kind`` is the element type; ``length`` is None for a scalar, else an
    int, _BASIS or _FREE.  ``check(value, parsed, key)`` is a cross-field rule
    over the keys parsed so far; ``resolve(config)`` is the value a None means.
    """

    kind: type
    length: object = None
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    positive: bool = False
    choices: Tuple[str, ...] = ()
    check: Optional[Callable] = None
    resolve: Optional[Callable] = None


def _key(kind, default=MISSING, **rule):
    return field(default=default, metadata={"rule": _Rule(kind, **rule)})


def _at_most_horizon(share, label):
    def check(value, parsed, key):
        limit = parsed["horizon"] * share
        if value > limit:
            raise ConfigError(f"must be <= {label} = {limit}, got {value}", key=key)
    return check


def _window_in_horizon(value, parsed, key):
    if not 0.0 <= value[0] < value[1] <= parsed["horizon"]:
        raise ConfigError(
            f"must satisfy 0 <= start < end <= horizon {parsed['horizon']}, got {list(value)}",
            key=key,
        )


def _ascending_to_horizon(value, parsed, key):
    if not value:
        raise ConfigError("must be non-empty", key=key)
    for k in range(1, len(value)):
        if value[k] < value[k - 1]:
            raise ConfigError("must be sorted ascending", key=f"{key}[{k}]")
    if value[-1] > parsed["horizon"]:
        raise ConfigError(
            f"must be <= horizon {parsed['horizon']}, got {value[-1]}",
            key=f"{key}[{len(value) - 1}]",
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one experiment run.

    Required keys describe the pair (surface, exchanged chains, cycle phases
    and periods, horizon) plus the seed; optional keys parameterize individual
    subcommands.  Four optional keys default to None, which stands for a value
    derived from the horizon (see resolved).
    """

    genus: int = _key(int, minimum=0)
    chain_a: Tuple[int, ...] = _key(int, length=_BASIS)
    chain_b: Tuple[int, ...] = _key(int, length=_BASIS)
    betas: Tuple[float, ...] = _key(float, length=_BASIS)
    periods: Tuple[float, ...] = _key(float, length=_BASIS, positive=True)
    horizon: float = _key(float, positive=True)
    seed: int = _key(int, minimum=0, maximum=2**64 - 1)
    out_dir: Optional[str] = _key(str, None)
    correlation_time: Optional[float] = _key(
        float, None, positive=True, check=_at_most_horizon(1.0, "horizon"),
        resolve=lambda c: c.horizon,
    )
    angle_grid_size: int = _key(int, 8, minimum=1)
    chsh_angles: Tuple[float, float, float, float] = _key(float, _CANONICAL_CHSH, length=4)
    epsilon: float = _key(float, 0.25, positive=True)
    search_bound: Optional[float] = _key(
        float, None, positive=True, check=_at_most_horizon(0.5, "horizon/2"),
        resolve=lambda c: c.horizon / 4.0,
    )
    sample_step: float = _key(float, 1.0, positive=True)
    n_samples: int = _key(int, 10000, minimum=1000)
    spectrum_lambda_max: float = _key(float, 4.0 * math.pi, positive=True)
    spectrum_lambda_count: int = _key(int, 33, minimum=1)
    event_window: Optional[Tuple[float, float]] = _key(
        float, None, length=2, check=_window_in_horizon, resolve=lambda c: (0.0, c.horizon)
    )
    residual_horizons: Optional[Tuple[float, ...]] = _key(
        float, None, length=_FREE, positive=True, check=_ascending_to_horizon,
        resolve=lambda c: tuple(sorted({c.horizon / 10.0**k for k in range(4)} - {0.0})),
    )
    residual_theta_a: float = _key(float, 0.0)
    residual_theta_b: float = _key(float, 0.0)
    analysis_target: str = _key(str, "a", choices=("a", "b"))

    def resolved(self) -> "ExperimentConfig":
        """This config with each None replaced by the value its key's rule resolves."""
        return replace(self, **{
            f.name: f.metadata["rule"].resolve(self)
            for f in fields(self)
            if f.metadata["rule"].resolve and getattr(self, f.name) is None
        })


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _want_scalar(value, key, rule):
    if rule.kind is str:
        if not isinstance(value, str) or (rule.choices and value not in rule.choices):
            wanted = " or ".join(map(repr, rule.choices)) or "a string"
            raise ConfigError(f"expected {wanted}, got {_shown(value)}", key=key)
        return value
    try:
        if rule.kind is float:
            return _real(key, value, rule.positive)
        return _integer(key, value, rule.minimum, rule.maximum)
    except DomainError as exc:  # its message begins with the key, which ConfigError prefixes
        raise ConfigError(str(exc).removeprefix(f"{key} "), key=key) from None


def _want_value(value, key, rule, parsed):
    if rule.length is None:
        value = _want_scalar(value, key, rule)
    else:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"expected a list, got {_shown(value)}", key=key)
        length = 2 * parsed["genus"] if rule.length == _BASIS else rule.length
        if length != _FREE and len(value) != length:
            basis = " (= 2*genus)" if rule.length == _BASIS else ""
            raise ConfigError(f"expected length {_shown(length)}{basis}, got {len(value)}", key=key)
        value = tuple(_want_scalar(v, f"{key}[{k}]", rule) for k, v in enumerate(value))
    if rule.check:
        rule.check(value, parsed, key)
    return value


def parse_config(data: dict, source: str = "<config>") -> ExperimentConfig:
    """Validate a flat mapping into an ExperimentConfig.

    Raises ConfigError naming the offending key (e.g. "periods[0]") on any
    missing, unknown, or out-of-domain entry.  An explicit null stands for
    the default only where that default is None.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    for key in data:
        if key not in _FIELDS:
            raise ConfigError("unknown key", key=key)
    for key, f in _FIELDS.items():
        if f.default is MISSING and key not in data:
            raise ConfigError("missing required key", key=key)
    parsed = {}
    for key, f in _FIELDS.items():
        value = data.get(key, f.default)
        if value is not None or f.default is not None:
            value = _want_value(value, key, f.metadata["rule"], parsed)
        parsed[key] = value
    return ExperimentConfig(**parsed)


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file.

    Missing files raise OSError (an I/O failure); text that is not UTF-8,
    malformed JSON or invalid content raises ConfigError (the configuration
    is wrong).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer literal past 4300 digits
        raise ConfigError(f"{path}: not valid UTF-8 JSON: {_shown(str(exc))}") from exc
    return parse_config(data, source=str(path))


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready mapping; parse_config(config_to_dict(c)) == c."""
    out = {}
    for key, value in asdict(config).items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def config_digest(config: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical serialized configuration.

    The digest identifies the experiment content; the output location is
    plumbing and does not participate, so runs of one config into different
    directories share a digest.
    """
    payload = config_to_dict(config)
    payload.pop("out_dir")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
