"""Config loading: each section is its dataclass; errors name the key path."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odmrsim import ConfigDoc, SchemaViolation, config_from_dict, load_config
from odmrsim.io_formats import FORMAT_VERSION

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

DEFAULTS = config_from_dict({}).as_dict()
GRID = {
    "p_opt_min_w": 0.1,
    "p_opt_max_w": 0.4,
    "n_opt": 4,
    "p_rf_min_w": 0.5,
    "p_rf_max_w": 1.5,
    "n_rf": 3,
}

scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.sampled_from(["am", "fm", "quenched", "annealed"])
    | st.text(max_size=6)
)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def typed(default):
    """Values of the default's JSON type, so that most reach the dataclass."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 10**4)
    if isinstance(default, float):
        return st.floats() | st.floats(-1e3, 1e9) | st.integers(-5, 10**6)
    if isinstance(default, str):
        return st.sampled_from(["am", "fm", "quenched", "annealed", ""])
    return st.none() | objects(GRID)  # sweep.grid


def objects(defaults):
    """Objects over the given keys; now and then a value of any JSON type."""
    return st.fixed_dictionaries(
        {},
        optional={
            key: st.one_of(*[typed(value)] * 4, trees)
            for key, value in defaults.items()
        },
    )


documents = st.fixed_dictionaries(
    {},
    optional={
        name: objects(keys) if isinstance(keys, dict) else st.just(keys) | scalars
        for name, keys in DEFAULTS.items()
    },
)


@settings(max_examples=200, deadline=None)
@given(documents | trees)
def test_any_json_tree_loads_or_is_schema_violation(tree):
    try:
        cfg = config_from_dict(tree)
    except SchemaViolation:
        return
    assert isinstance(cfg, ConfigDoc)
    assert config_from_dict(cfg.as_dict()) == cfg


@pytest.mark.parametrize(
    "path",
    [None, *sorted(CONFIG_DIR.glob("*.json"))],
    ids=lambda p: p.stem if p else "defaults",
)
def test_as_dict_is_asdict_without_the_copy(path):
    # The manifest's config block is json.dumps of as_dict, so key order counts.
    cfg = load_config(path)
    expected = {"format_version": FORMAT_VERSION, **asdict(cfg)}
    assert cfg.as_dict() == expected
    assert json.dumps(cfg.as_dict()) == json.dumps(expected)


def test_sections_are_domain_dataclasses():
    cfg = config_from_dict({"sweep": {"p_opt_w": 0.3}})
    scene = cfg.scene()
    assert scene.spin is cfg.spin and scene.broadening is cfg.lineshape
    assert scene.p_opt_w == 0.3
    assert cfg.sweep.frequencies().size == cfg.sweep.n_points


@pytest.mark.parametrize(
    "data, message",
    [
        ({"spin": {"zfs_hz": True}}, "spin.zfs_hz: expected a number"),
        ({"sweep": {"n_points": 101.0}}, "sweep.n_points: expected an integer"),
        ({"spin": {"zfs_hz": 10**400}}, "spin.zfs_hz: must be finite"),
        ({"sweep": {"dwell_s": -math.inf}}, "sweep.dwell_s: must be finite"),
        ({"lockin": {"fm_deviation_hz": None}}, "lockin.fm_deviation_hz: expected"),
        ({"spin": []}, "spin: expected an object"),
        ({"spin": 0}, "spin: expected an object"),
        ({"detector": {"collection_note": 0.11}}, "detector.collection_note: unknown"),
        (
            {"lockin": {"mod_freq_hz": 1e3, "sample_rate_hz": 5e3}},
            "lockin.sample_rate_hz must be at least 10x mod_freq_hz",
        ),
        ({"sweep": {"f_stop_hz": 1e6}}, "sweep.f_stop_hz must exceed f_start_hz"),
        ({"field": {"bz_t": 0.2}}, "field: |B|"),
        (
            {
                "lockin": {
                    "mod_freq_hz": 1e-300,
                    "sample_rate_hz": 1e10,
                    "time_constant_s": 1e301,
                }
            },
            "lockin.sample_rate_hz must be an integer multiple",
        ),
    ],
)
def test_schema_errors_name_the_key(data, message):
    with pytest.raises(SchemaViolation) as err:
        config_from_dict(data)
    assert message in str(err.value)


def test_null_means_default_only_for_sections_presets_and_grid():
    cfg = config_from_dict({"spin": None, "sweep": {"grid": None}})
    assert cfg == config_from_dict({})
    assert cfg.sweep.grid is None


def test_bounds_are_the_dataclass_bounds():
    # Accepted now that the dataclass check (> 0) is the only one.
    assert config_from_dict({"spin": {"zfs_hz": 0.5}}).spin.zfs_hz == 0.5
    assert config_from_dict({"lineshape": {"fwhm0_hz": 1e-20}}).lineshape.fwhm0_hz
    with pytest.raises(SchemaViolation):
        config_from_dict({"lineshape": {"fwhm0_hz": 0.0}})
    with pytest.raises(SchemaViolation):
        config_from_dict({"detector": {"responsivity_a_per_w": 0.0}})
