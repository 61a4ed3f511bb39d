"""Experiment configuration: one dataclass, a JSON file, flag overrides.

Every pipeline command takes the same configuration shape; a config file
sets the campaign and individual flags override single fields.  The
resolved configuration is embedded verbatim in every output file, so a
run can always be reproduced from any of its artifacts.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .counting import SUPPORTED_DIMENSIONS

# the plane's connective constant is roughly e^0.97; at or below that
# inverse temperature the weighted series diverge and calibration is
# meaningless, so nearby values deserve a loud warning
PLANE_SUPERCRITICAL_BETA = 0.98

DEFAULT_GRID = tuple(round(0.1 * k, 10) for k in range(1, 10))


class ConfigError(ValueError):
    """The configuration cannot describe a runnable experiment."""


def _field(default, flag: str, kind, help: str):
    """A config field, with the flag that sets it, its type as the flag
    parses it ([t] is a comma-separated list of t), and the flag's help."""
    return field(default=default, metadata={"flag": flag, "type": kind, "help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the whole pipeline, in the order of their flags.

    spans lists the pinning distances n to sample; box_radius of None
    lets the sampler choose its default transverse box.
    """

    d: int = _field(2, "--d", int, "lattice dimension")
    beta: float = _field(1.2, "--beta", float, "inverse temperature")
    cutoff: int = _field(13, "--L", int, "enumeration step cutoff")
    spans: tuple[int, ...] = _field(
        (64, 128, 256, 512), "--n", [int], "comma-separated pinning spans"
    )
    replicas: int = _field(20000, "--replicas", int, "replicates per span")
    seed: int = _field(0, "--seed", int, "campaign seed")
    grid: tuple[float, ...] = _field(
        DEFAULT_GRID, "--grid", [float], "comma-separated grid times"
    )
    threads: int = _field(1, "--threads", int, "sampler worker processes (sample, oracle)")
    out: str = _field("runs", "--out", str, "output directory")
    box_radius: int | None = _field(None, "--box-radius", int, "transverse box")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["spans"] = list(self.spans)
        payload["grid"] = list(self.grid)
        return payload


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.d not in SUPPORTED_DIMENSIONS:
        raise ConfigError(f"dimension {config.d} not in {SUPPORTED_DIMENSIONS}")
    if not 0.0 < config.beta < float("inf"):
        raise ConfigError(f"beta must be positive and finite, got {config.beta}")
    if config.d == 2 and config.beta <= PLANE_SUPERCRITICAL_BETA:
        warnings.warn(
            f"beta = {config.beta} is at or below the plane's critical "
            "region; weighted sums may diverge",
            stacklevel=2,
        )
    if config.cutoff < 0:
        raise ConfigError(f"cutoff must be nonnegative, got {config.cutoff}")
    if not config.spans:
        raise ConfigError("at least one span is required")
    if any(n < 1 for n in config.spans):
        raise ConfigError(f"spans must be positive, got {config.spans}")
    if len(set(config.spans)) != len(config.spans):
        raise ConfigError(f"spans must not repeat, got {config.spans}")
    if config.replicas < 1:
        raise ConfigError(f"replicas must be positive, got {config.replicas}")
    if config.threads < 1:
        raise ConfigError(f"threads must be positive, got {config.threads}")
    if config.box_radius is not None and config.box_radius < 1:
        raise ConfigError(f"box radius must be positive, got {config.box_radius}")
    if not config.grid:
        raise ConfigError("time grid must be nonempty")
    if any(not 0.0 < t < 1.0 for t in config.grid):
        raise ConfigError("grid times must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(config.grid, config.grid[1:])):
        raise ConfigError("grid times must be strictly increasing")
    return config


# the JSON values each type takes: a float also takes an integer
_ACCEPTS = {int: int, float: (int, float), str: str, list: (list, tuple)}
_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


def _checked(name: str, kind: type, value):
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ConfigError(f"config field {name!r} must be {_NAMES[kind]}, got {value!r}")
    return kind(value)


def config_from_dict(payload: dict) -> ExperimentConfig:
    """The config a payload describes, each value checked and coerced to
    its field's type as the flags would give it; box_radius may be null."""
    types = {f.name: f.metadata["type"] for f in fields(ExperimentConfig)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    coerced = {}
    for name, value in payload.items():
        kind = types[name]
        if isinstance(kind, list):
            value = tuple(_checked(name, kind[0], v) for v in _checked(name, list, value))
        elif not (name == "box_radius" and value is None):
            value = _checked(name, kind, value)
        coerced[name] = value
    return ExperimentConfig(**coerced)


def load_config_file(path: str | Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


def resolve_config(
    file_payload: dict | None, overrides: dict
) -> ExperimentConfig:
    """Defaults, then the config file, then explicit flags."""
    supplied = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(config_from_dict({**(file_payload or {}), **supplied}))
