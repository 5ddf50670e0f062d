"""Configuration documents: each JSON section loads into one dataclass.

A section's dataclass is the only schema of its keys: the field defaults
are the parameter defaults and ``__post_init__`` holds the range checks.
Sections that carry more than their domain type (``detector.shot_noise``,
``lineshape.pl_rate_per_w``) subclass it with just those fields.  The
lineshape keys default to the chosen sample preset's values.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import OdmrError, SchemaViolation
from .io_formats import FORMAT_VERSION, _read_text, manifest_config_json
from .lineshape import PRESETS, BroadeningModel
from .signal_chain import (
    MAX_SAMPLES,
    DetectorModel,
    LockInConfig,
    Scene,
    SweepPlan,
)
from .spin_model import FieldVector, SpinParams


@dataclass(frozen=True)
class PresetCfg:
    """Sample preset section: the calibration the lineshape defaults to."""

    name: str = "quenched"

    def __post_init__(self) -> None:
        if self.name not in PRESETS:
            raise ValueError(f"name must be one of {sorted(PRESETS)}")


@dataclass(frozen=True)
class LineshapeCfg(BroadeningModel):
    """Lineshape section: the broadening model plus the PL rate per watt."""

    pl_rate_per_w: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pl_rate_per_w <= 0:
            raise ValueError("pl_rate_per_w must be positive")


@dataclass(frozen=True)
class DetectorCfg(DetectorModel):
    """Detector section: the detector model plus the shot-noise switch."""

    shot_noise: bool = True


@dataclass(frozen=True)
class GridCfg:
    """Optical and RF power grid of the map command."""

    p_opt_min_w: float
    p_opt_max_w: float
    n_opt: int
    p_rf_min_w: float
    p_rf_max_w: float
    n_rf: int

    def __post_init__(self) -> None:
        for axis in ("p_opt", "p_rf"):
            if getattr(self, f"{axis}_min_w") <= 0:
                raise ValueError(f"{axis}_min_w must be positive")
            if getattr(self, f"{axis}_max_w") < getattr(self, f"{axis}_min_w"):
                raise ValueError(f"{axis}_max_w must be >= {axis}_min_w")
        for name in ("n_opt", "n_rf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_opt * self.n_rf > MAX_SAMPLES:
            raise ValueError(f"n_opt x n_rf must be at most {MAX_SAMPLES} cells")

    def p_opt_values(self) -> np.ndarray:
        return np.linspace(self.p_opt_min_w, self.p_opt_max_w, self.n_opt)

    def p_rf_values(self) -> np.ndarray:
        return np.linspace(self.p_rf_min_w, self.p_rf_max_w, self.n_rf)


@dataclass(frozen=True)
class SweepCfg(SweepPlan):
    """Sweep section: the AM sweep plan plus powers, field scan and map grid."""

    f_start_hz: float = 88e6
    f_stop_hz: float = 108e6
    n_points: int = 101
    dwell_s: float = 2.5
    p_opt_w: float = 0.4
    p_rf_w: float = 1.0
    bz_start_t: float = 0.0
    bz_stop_t: float = 3e-3
    n_fields: int = 121
    grid: GridCfg | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("f_start_hz", "p_opt_w", "p_rf_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_fields < 1:
            raise ValueError("n_fields must be >= 1")
        if self.n_fields > MAX_SAMPLES:
            raise ValueError(f"n_fields must be at most {MAX_SAMPLES}")


@dataclass(frozen=True)
class ScheduleCfg:
    """Schedule section: the field staircase of the steps command."""

    step_t: float = 500e-9
    step_period_s: float = 120.0
    n_steps: int = 8
    field_noise_step_sigma_t: float = 0.0
    output_decimation: int = 25

    def __post_init__(self) -> None:
        if self.step_period_s <= 0:
            raise ValueError("step_period_s must be positive")
        for name in ("n_steps", "output_decimation"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_steps > MAX_SAMPLES:
            raise ValueError(f"n_steps must be at most {MAX_SAMPLES}")
        if self.field_noise_step_sigma_t < 0:
            raise ValueError("field_noise_step_sigma_t must be non-negative")


@dataclass(frozen=True)
class ConfigDoc:
    """Fully defaulted, validated configuration document."""

    spin: SpinParams
    field: FieldVector
    sample_preset: PresetCfg
    lineshape: LineshapeCfg
    detector: DetectorCfg
    lockin: LockInConfig
    sweep: SweepCfg
    schedule: ScheduleCfg

    def as_dict(self) -> dict:
        # By field name: the instance dict also caches manifest_json.
        sections = {name: _plain(getattr(self, name)) for name in _hints(ConfigDoc)}
        return {"format_version": FORMAT_VERSION, **sections}

    @functools.cached_property
    def manifest_json(self) -> str:
        """as_dict() as a run manifest holds it, encoded once per document.

        Kept on the document, so two equal documents that print apart
        (0.0 == -0.0) each keep their own text.
        """
        return manifest_config_json(self.as_dict())

    def scene(self) -> Scene:
        """The configured scene at the sweep powers."""
        return Scene(
            spin=self.spin,
            field=self.field,
            broadening=self.lineshape,
            detector=self.detector,
            pl_rate_per_w=self.lineshape.pl_rate_per_w,
            p_opt_w=self.sweep.p_opt_w,
            p_rf_w=self.sweep.p_rf_w,
        )


def load_config(path=None) -> ConfigDoc:
    """Load and validate a JSON config; None or an empty file means defaults.

    The defaults are one ConfigDoc, built on first use: it is frozen, so
    every caller can share it (``replace`` makes a changed copy).
    """
    if path is None:
        return _default_config()
    text = _read_text(path)
    if text.strip() == "":
        return _default_config()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


@functools.cache
def _default_config() -> ConfigDoc:
    return config_from_dict({})


def config_from_dict(data) -> ConfigDoc:
    """Validate a parsed JSON config; errors name the offending key path."""
    if not isinstance(data, dict):
        raise SchemaViolation("config: expected an object")
    stray = sorted(set(data) - {"format_version", *_hints(ConfigDoc)})
    if stray:
        raise SchemaViolation(f"config.{stray[0]}: unknown key")
    version = data.get("format_version", FORMAT_VERSION)
    if not _is(version, int) or version != FORMAT_VERSION:
        raise SchemaViolation(
            f"config.format_version: expected {FORMAT_VERSION}, got {version!r}"
        )
    preset = _load(PresetCfg, data.get("sample_preset"), "sample_preset")
    base = PRESETS[preset.name]
    shape = {**asdict(base.broadening), "pl_rate_per_w": base.pl_rate_per_w}
    return ConfigDoc(
        spin=_load(SpinParams, data.get("spin"), "spin"),
        field=_load(FieldVector, data.get("field"), "field"),
        sample_preset=preset,
        lineshape=_load(LineshapeCfg, data.get("lineshape"), "lineshape", shape),
        detector=_load(DetectorCfg, data.get("detector"), "detector"),
        lockin=_load(LockInConfig, data.get("lockin"), "lockin"),
        sweep=_load(SweepCfg, data.get("sweep"), "sweep"),
        schedule=_load(ScheduleCfg, data.get("schedule"), "schedule"),
    )


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _plain(value):
    """A section as nested dicts: ``asdict`` without its deep copy.

    Every leaf of a config is an immutable bool, int, float or str, and a
    section's instance dict holds just its fields, in field order.
    """
    if not hasattr(value, "__dataclass_fields__"):
        return value
    return {name: _plain(v) for name, v in vars(value).items()}


@functools.cache
def _hints(cls) -> dict:
    """Field name -> type of a dataclass, reading ``X | None`` as X."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        out[name] = args[0] if args else hint
    return out


def _is(value, kind) -> bool:
    """isinstance that does not count a bool as a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _load(cls, data, path: str, defaults: dict | None = None):
    """Build dataclass cls from a JSON object (None reads as {}).

    A key left out takes the field default, or its value in defaults.  null
    means the same, but only for a key that defaults holds (the preset
    overrides) or a dataclass-typed key (sweep.grid).
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SchemaViolation(f"{path}: expected an object")
    hints = _hints(cls)
    stray = sorted(set(data) - set(hints))
    if stray:
        raise SchemaViolation(f"{path}.{stray[0]}: unknown key")
    kwargs = dict(defaults or {})
    for key, value in data.items():
        if value is None and (key in kwargs or is_dataclass(hints[key])):
            continue
        kwargs[key] = _value(hints[key], value, f"{path}.{key}")
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise SchemaViolation(f"{path}.{f.name}: required")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # messages start with the field name
        raise SchemaViolation(f"{path}.{exc}") from None
    except OdmrError as exc:  # FieldOutOfRange of the field magnitude
        raise SchemaViolation(f"{path}: {exc}") from None


def _value(hint, value, where: str):
    """value checked against a field type: bool, int, float, str or a dataclass."""
    if is_dataclass(hint):
        return _load(hint, value, where)
    if hint is float and _is(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise SchemaViolation(f"{where}: must be finite")
        return value
    if not _is(value, hint):
        raise SchemaViolation(f"{where}: expected {_KINDS[hint]}")
    return value
