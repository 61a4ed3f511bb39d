from __future__ import annotations

import json
import warnings

import pytest

from sawbridge.config import (
    ConfigError,
    DEFAULT_GRID,
    ExperimentConfig,
    config_from_dict,
    load_config_file,
    resolve_config,
    validate_config,
)


def test_defaults():
    config = ExperimentConfig()
    assert config.d == 2
    assert config.beta == 1.2
    assert config.cutoff == 13
    assert config.spans == (64, 128, 256, 512)
    assert config.replicas == 20000
    assert config.seed == 0
    assert config.grid == DEFAULT_GRID
    assert config.box_radius is None
    assert config.out == "runs"
    assert config.threads == 1
    validate_config(config)


def test_default_grid_is_deciles():
    assert DEFAULT_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_to_dict_uses_plain_lists():
    payload = ExperimentConfig().to_dict()
    assert payload["spans"] == [64, 128, 256, 512]
    assert payload["grid"] == list(DEFAULT_GRID)
    json.dumps(payload)


@pytest.mark.parametrize(
    "fields",
    [
        {"d": 1},
        {"d": 5},
        {"beta": 0.0},
        {"beta": -1.0},
        {"cutoff": -1},
        {"spans": ()},
        {"spans": (4, 0)},
        {"replicas": 0},
        {"threads": 0},
        {"box_radius": 0},
        {"grid": ()},
        {"grid": (0.0, 0.5)},
        {"grid": (0.5, 1.0)},
        {"grid": (0.5, 0.5)},
        {"grid": (0.6, 0.4)},
        {"spans": (8, 8)},
    ],
)
def test_validate_rejects(fields):
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(**fields))


def test_subcritical_plane_beta_warns():
    with pytest.warns(UserWarning):
        validate_config(ExperimentConfig(beta=0.9))


def test_supercritical_plane_beta_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config(ExperimentConfig(beta=1.2))


def test_from_dict_roundtrip():
    original = ExperimentConfig(spans=(4, 8), grid=(0.25, 0.5), seed=3)
    assert config_from_dict(original.to_dict()) == original


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"beta": 1.2, "bogus": 1})


def test_from_dict_coerces_sequences():
    config = config_from_dict({"spans": [3, 5], "grid": [0.5]})
    assert config.spans == (3, 5)
    assert config.grid == (0.5,)


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"cutoff": 9, "seed": 4}', encoding="utf-8")
    assert load_config_file(path) == {"cutoff": 9, "seed": 4}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(broken)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(array)


def test_resolve_precedence():
    config = resolve_config(
        {"cutoff": 9, "seed": 4, "spans": [4, 8]},
        {"seed": 11, "beta": None, "threads": 2, "spans": [6, 12], "grid": [0.25, 0.75]},
    )
    assert config.cutoff == 9
    assert config.seed == 11
    # list-valued flags come back as the config's tuples
    assert config.spans == (6, 12) and type(config.spans) is tuple
    assert config.grid == (0.25, 0.75) and type(config.grid) is tuple
    assert config.beta == 1.2
    assert config.threads == 2


def test_resolve_validates_merged_result():
    with pytest.raises(ConfigError):
        resolve_config({"replicas": 100}, {"replicas": 0})


def test_resolve_without_file():
    assert resolve_config(None, {"seed": 9}).seed == 9
