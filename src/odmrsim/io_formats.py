"""File formats: sweep CSV, map CSV, JSON records, configs and manifests.

All writers produce deterministic byte streams: fixed header strings, fixed
key order, and floats rendered with 17 significant digits so that load and
store round-trip exactly.  NaN cells are written as empty strings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lineshape
from .errors import (
    IoFailure,
    MalformedHeader,
    NonMonotoneAxis,
    NonNumericCell,
    SchemaViolation,
)

FORMAT_VERSION = 1

SWEEP_HEADER = "frequency_hz,lockin_v,dc_v"
MAP_HEADER = "p_opt_w,p_rf_w,fwhm_hz,contrast,rate_hz,eta_t_rthz"


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    return format(float(value), ".17g")


def format_rows(*columns) -> list[str]:
    """CSV lines from equal-length columns, one line per row.

    Numbers render as format_float renders them; strings as they are.
    """
    columns = [np.asarray(column) for column in columns]
    template = ",".join("{}" if c.dtype.kind == "U" else "{:.17g}" for c in columns)
    return [template.format(*row) for row in zip(*(c.tolist() for c in columns))]


def _cell(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return format_float(value)


def _write_text(path, text: str) -> Path:
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def dump_json(obj) -> str:
    """Serialise with stable key order and a trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json_record(obj, path) -> Path:
    return _write_text(path, dump_json(obj))


def load_json_record(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{path}: invalid JSON: {exc}") from exc


# sweep records


@dataclass
class SweepRecord:
    """One lock-in frequency sweep: strictly increasing axis, volts."""

    frequency_hz: np.ndarray
    lockin_v: np.ndarray
    dc_v: np.ndarray

    def __post_init__(self) -> None:
        self.frequency_hz = np.asarray(self.frequency_hz, dtype=float)
        self.lockin_v = np.asarray(self.lockin_v, dtype=float)
        self.dc_v = np.asarray(self.dc_v, dtype=float)
        n = self.frequency_hz.size
        if self.lockin_v.size != n or self.dc_v.size != n:
            raise ValueError("sweep columns must have equal length")
        if n >= 2 and not np.all(np.diff(self.frequency_hz) > 0):
            raise NonMonotoneAxis("frequency axis must be strictly increasing")


def write_sweep(record: SweepRecord, path) -> Path:
    rows = [SWEEP_HEADER]
    for f, lv, dc in zip(record.frequency_hz, record.lockin_v, record.dc_v):
        rows.append(f"{_cell(f)},{_cell(lv)},{_cell(dc)}")
    return _write_text(path, "\n".join(rows) + "\n")


def load_sweep(path) -> SweepRecord:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise MalformedHeader(f"{path}: expected header '{SWEEP_HEADER}', got '{got}'")
    freq, lockin, dc = [], [], []
    for lineno, row in enumerate(lines[1:], start=2):
        if row == "":
            continue
        cells = row.split(",")
        if len(cells) != 3:
            raise NonNumericCell(f"{path}: line {lineno}: expected 3 cells")
        freq.append(_parse_cell(cells[0], path, lineno, required=True))
        lockin.append(_parse_cell(cells[1], path, lineno, required=True))
        dc.append(_parse_cell(cells[2], path, lineno, required=False))
    return SweepRecord(
        frequency_hz=np.array(freq),
        lockin_v=np.array(lockin),
        dc_v=np.array(dc),
    )


def _parse_cell(cell: str, path, lineno: int, required: bool) -> float:
    if cell == "":
        if required:
            raise NonNumericCell(f"{path}: line {lineno}: empty cell")
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise NonNumericCell(
            f"{path}: line {lineno}: cannot parse '{cell}' as a number"
        ) from None


# sensitivity map CSV


def write_map_csv(points, path) -> Path:
    """Write sensitivity map rows; points need the map column attributes."""
    rows = [MAP_HEADER]
    ordered = sorted(points, key=lambda p: (p.p_opt_w, p.p_rf_w))
    for p in ordered:
        rows.append(
            ",".join(
                _cell(getattr(p, name))
                for name in (
                    "p_opt_w",
                    "p_rf_w",
                    "fwhm_hz",
                    "contrast",
                    "rate_hz",
                    "eta_t_rthz",
                )
            )
        )
    return _write_text(path, "\n".join(rows) + "\n")


def load_map_csv(path) -> list[dict]:
    """Load map rows as dicts keyed by the map column names."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != MAP_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise MalformedHeader(f"{path}: expected header '{MAP_HEADER}', got '{got}'")
    names = MAP_HEADER.split(",")
    out = []
    for lineno, row in enumerate(lines[1:], start=2):
        if row == "":
            continue
        cells = row.split(",")
        if len(cells) != len(names):
            raise NonNumericCell(
                f"{path}: line {lineno}: expected {len(names)} cells"
            )
        out.append(
            {
                name: _parse_cell(
                    cell, path, lineno, required=name in ("p_opt_w", "p_rf_w")
                )
                for name, cell in zip(names, cells)
            }
        )
    return out


# configuration documents


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Section:
    """Helper that pops known keys from a config dict and tracks the path."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise SchemaViolation(f"{path}: expected an object")
        self.data = dict(data)
        self.path = path

    def number(self, key: str, default, minimum=None, maximum=None, nullable=False):
        if key not in self.data:
            return default
        value = self.data.pop(key)
        if value is None and nullable:
            return None
        if not _is_number(value):
            raise SchemaViolation(f"{self.path}.{key}: expected a number")
        value = float(value)
        if minimum is not None and value < minimum:
            raise SchemaViolation(f"{self.path}.{key}: must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise SchemaViolation(f"{self.path}.{key}: must be <= {maximum}")
        return value

    def integer(self, key: str, default, minimum=None):
        if key not in self.data:
            return default
        value = self.data.pop(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaViolation(f"{self.path}.{key}: expected an integer")
        if minimum is not None and value < minimum:
            raise SchemaViolation(f"{self.path}.{key}: must be >= {minimum}")
        return value

    def boolean(self, key: str, default):
        if key not in self.data:
            return default
        value = self.data.pop(key)
        if not isinstance(value, bool):
            raise SchemaViolation(f"{self.path}.{key}: expected a boolean")
        return value

    def string(self, key: str, default, choices=None):
        if key not in self.data:
            return default
        value = self.data.pop(key)
        if not isinstance(value, str):
            raise SchemaViolation(f"{self.path}.{key}: expected a string")
        if choices is not None and value not in choices:
            raise SchemaViolation(
                f"{self.path}.{key}: must be one of {sorted(choices)}"
            )
        return value

    def subsection(self, key: str):
        if key not in self.data or self.data[key] is None:
            self.data.pop(key, None)
            return None
        return self.data.pop(key)

    def finish(self) -> None:
        if self.data:
            stray = sorted(self.data)[0]
            raise SchemaViolation(f"{self.path}.{stray}: unknown key")


@dataclass(frozen=True)
class GridCfg:
    p_opt_min_w: float
    p_opt_max_w: float
    n_opt: int
    p_rf_min_w: float
    p_rf_max_w: float
    n_rf: int

    def p_opt_values(self) -> np.ndarray:
        return np.linspace(self.p_opt_min_w, self.p_opt_max_w, self.n_opt)

    def p_rf_values(self) -> np.ndarray:
        return np.linspace(self.p_rf_min_w, self.p_rf_max_w, self.n_rf)


@dataclass(frozen=True)
class ConfigDoc:
    """Fully defaulted, validated configuration document."""

    spin: dict
    field: dict
    sample_preset: dict
    lineshape: dict
    detector: dict
    lockin: dict
    sweep: dict
    schedule: dict

    def as_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "spin": dict(self.spin),
            "field": dict(self.field),
            "sample_preset": dict(self.sample_preset),
            "lineshape": dict(self.lineshape),
            "detector": dict(self.detector),
            "lockin": dict(self.lockin),
            "sweep": dict(self.sweep),
            "schedule": dict(self.schedule),
        }

    def grid(self) -> GridCfg | None:
        g = self.sweep.get("grid")
        if g is None:
            return None
        return GridCfg(**g)


def load_config(path=None) -> ConfigDoc:
    """Load and validate a JSON config; None or an empty file means defaults."""
    if path is None:
        return config_from_dict({})
    text = _read_text(path)
    if text.strip() == "":
        return config_from_dict({})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def config_from_dict(data: dict) -> ConfigDoc:
    top = _Section(data, "config")
    version = top.integer("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaViolation(
            f"config.format_version: expected {FORMAT_VERSION}, got {version}"
        )

    spin = _Section(top.subsection("spin") or {}, "spin")
    spin_out = {
        "zfs_hz": spin.number("zfs_hz", 70e6, minimum=1.0),
        "g_factor": spin.number("g_factor", 2.0032, minimum=1.9, maximum=2.1),
        "hyperfine_offset_hz": spin.number("hyperfine_offset_hz", 5e6, minimum=0.0),
        "hyperfine_rel_amp": spin.number("hyperfine_rel_amp", 0.05, minimum=0.0),
        "hyperfine": spin.boolean("hyperfine", True),
    }
    if spin_out["hyperfine_rel_amp"] >= 1.0:
        raise SchemaViolation("spin.hyperfine_rel_amp: must be < 1")
    spin.finish()

    fld = _Section(top.subsection("field") or {}, "field")
    field_out = {
        "bx_t": fld.number("bx_t", 0.0),
        "by_t": fld.number("by_t", 0.0),
        "bz_t": fld.number("bz_t", 1e-3),
    }
    fld.finish()

    preset = _Section(top.subsection("sample_preset") or {}, "sample_preset")
    preset_out = {
        "name": preset.string("name", "quenched", choices=set(lineshape.PRESETS)),
    }
    preset.finish()
    base = lineshape.PRESETS[preset_out["name"]]

    shape = _Section(top.subsection("lineshape") or {}, "lineshape")
    shape_out = {
        "fwhm0_hz": _override(shape, "fwhm0_hz", base.broadening.fwhm0_hz),
        "rf_sat_w": _override(shape, "rf_sat_w", base.broadening.rf_sat_w),
        "contrast_max": _override(shape, "contrast_max", base.broadening.contrast_max),
        "opt_sat_w": _override(shape, "opt_sat_w", base.broadening.opt_sat_w),
        "rf_contrast_sat_w": _override(
            shape, "rf_contrast_sat_w", base.broadening.rf_contrast_sat_w
        ),
        "pl_rate_per_w": _override(shape, "pl_rate_per_w", base.pl_rate_per_w),
    }
    if shape_out["contrast_max"] >= 1.0:
        raise SchemaViolation("lineshape.contrast_max: must be < 1")
    shape.finish()

    det = _Section(top.subsection("detector") or {}, "detector")
    detector_out = {
        "responsivity_a_per_w": det.number("responsivity_a_per_w", 0.6, minimum=1e-12),
        "transimpedance_v_per_a": det.number(
            "transimpedance_v_per_a", 1e6, minimum=1e-12
        ),
        "effective_wavelength_m": det.number(
            "effective_wavelength_m", 900e-9, minimum=1e-12
        ),
        "collection_note": det.number("collection_note", 0.11, minimum=0.0),
        "shot_noise": det.boolean("shot_noise", True),
    }
    det.finish()

    lock = _Section(top.subsection("lockin") or {}, "lockin")
    lockin_out = {
        "mode": lock.string("mode", "am", choices={"am", "fm"}),
        "mod_freq_hz": lock.number("mod_freq_hz", 10e3, minimum=1e-9),
        "time_constant_s": lock.number("time_constant_s", 0.5, minimum=1e-12),
        "fm_deviation_hz": lock.number("fm_deviation_hz", 1e5, minimum=1e-9),
        "sample_rate_hz": lock.number("sample_rate_hz", 100e3, minimum=1e-9),
        "filter_order": lock.integer("filter_order", 1, minimum=1),
        "phase_rad": lock.number("phase_rad", 0.0),
    }
    lock.finish()
    _check_lockin_schema(lockin_out)

    sweep = _Section(top.subsection("sweep") or {}, "sweep")
    grid_data = sweep.subsection("grid")
    sweep_out = {
        "f_start_hz": sweep.number("f_start_hz", 88e6, minimum=0.0),
        "f_stop_hz": sweep.number("f_stop_hz", 108e6, minimum=0.0),
        "n_points": sweep.integer("n_points", 101, minimum=2),
        "dwell_s": sweep.number("dwell_s", 2.5, minimum=1e-9),
        "p_opt_w": sweep.number("p_opt_w", 0.4, minimum=0.0),
        "p_rf_w": sweep.number("p_rf_w", 1.0, minimum=0.0),
        "bz_start_t": sweep.number("bz_start_t", 0.0),
        "bz_stop_t": sweep.number("bz_stop_t", 3e-3),
        "n_fields": sweep.integer("n_fields", 121, minimum=1),
        "grid": _parse_grid(grid_data),
    }
    if sweep_out["f_stop_hz"] <= sweep_out["f_start_hz"]:
        raise SchemaViolation("sweep.f_stop_hz: must exceed sweep.f_start_hz")
    sweep.finish()

    sched = _Section(top.subsection("schedule") or {}, "schedule")
    schedule_out = {
        "step_t": sched.number("step_t", 500e-9),
        "step_period_s": sched.number("step_period_s", 120.0, minimum=1e-9),
        "n_steps": sched.integer("n_steps", 8, minimum=1),
        "settle_discard_s": sched.number("settle_discard_s", 2.5, minimum=0.0),
        "field_noise_step_sigma_t": sched.number(
            "field_noise_step_sigma_t", 0.0, minimum=0.0
        ),
        "output_decimation": sched.integer("output_decimation", 25, minimum=1),
    }
    sched.finish()

    top.finish()
    return ConfigDoc(
        spin=spin_out,
        field=field_out,
        sample_preset=preset_out,
        lineshape=shape_out,
        detector=detector_out,
        lockin=lockin_out,
        sweep=sweep_out,
        schedule=schedule_out,
    )


def _override(section: _Section, key: str, preset_value: float) -> float:
    value = section.number(key, None, minimum=1e-15, nullable=True)
    return preset_value if value is None else value


def _check_lockin_schema(lockin: dict) -> None:
    mod = lockin["mod_freq_hz"]
    if lockin["sample_rate_hz"] < 10.0 * mod:
        raise SchemaViolation(
            "lockin.sample_rate_hz: must be at least 10x mod_freq_hz"
        )
    if lockin["time_constant_s"] <= 1.0 / mod:
        raise SchemaViolation(
            "lockin.time_constant_s: must exceed one modulation period"
        )
    ratio = lockin["sample_rate_hz"] / mod
    if abs(ratio - round(ratio)) > 1e-9:
        raise SchemaViolation(
            "lockin.sample_rate_hz: must be an integer multiple of mod_freq_hz"
        )


def _parse_grid(data) -> dict | None:
    if data is None:
        return None
    g = _Section(data, "sweep.grid")
    out = {
        "p_opt_min_w": g.number("p_opt_min_w", None, minimum=1e-15),
        "p_opt_max_w": g.number("p_opt_max_w", None, minimum=1e-15),
        "n_opt": g.integer("n_opt", None, minimum=1),
        "p_rf_min_w": g.number("p_rf_min_w", None, minimum=1e-15),
        "p_rf_max_w": g.number("p_rf_max_w", None, minimum=1e-15),
        "n_rf": g.integer("n_rf", None, minimum=1),
    }
    g.finish()
    for key, value in out.items():
        if value is None:
            raise SchemaViolation(f"sweep.grid.{key}: required")
    if out["p_opt_max_w"] < out["p_opt_min_w"]:
        raise SchemaViolation("sweep.grid.p_opt_max_w: must be >= p_opt_min_w")
    if out["p_rf_max_w"] < out["p_rf_min_w"]:
        raise SchemaViolation("sweep.grid.p_rf_max_w: must be >= p_rf_min_w")
    return out


# run manifests


@dataclass(frozen=True)
class RunManifest:
    """Snapshot of a command run: inputs, seed and output digests."""

    command: str
    seed: int
    config: dict
    outputs: dict
    duration_s: float
    tool_version: str
    format_version: int = FORMAT_VERSION

    def as_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "config": self.config,
            "outputs": self.outputs,
        }


def write_run_manifest(
    out_dir,
    command: str,
    config: dict,
    seed: int,
    output_paths: list,
    duration_s: float,
    filename: str = "manifest.json",
) -> RunManifest:
    from . import __version__

    out_dir = Path(out_dir)
    outputs = {}
    for path in sorted(Path(p) for p in output_paths):
        outputs[path.name] = {
            "sha256": sha256_file(path),
            "bytes": path.stat().st_size,
        }
    manifest = RunManifest(
        command=command,
        seed=int(seed),
        config=config,
        outputs=outputs,
        duration_s=float(duration_s),
        tool_version=__version__,
    )
    write_json_record(manifest.as_dict(), out_dir / filename)
    return manifest


def load_manifest(path) -> dict:
    data = load_json_record(path)
    if not isinstance(data, dict) or "outputs" not in data:
        raise SchemaViolation(f"{path}: not a run manifest")
    return data


def verify_manifest(path) -> dict:
    """Recompute output digests; returns {name: matches_bool}."""
    data = load_manifest(path)
    base = Path(path).parent
    result = {}
    for name, entry in data["outputs"].items():
        target = base / name
        try:
            result[name] = sha256_file(target) == entry["sha256"]
        except IoFailure:
            result[name] = False
    return result


def store_results(record, path, *, command="store", config=None, seed=0) -> RunManifest:
    """Write an analysis record plus a manifest describing the write.

    Records exposing to_dict() are stored as JSON; records exposing map
    points (a sensitivity map) are stored as CSV.  The manifest is written
    alongside as "<filename>.manifest.json".
    """
    path = Path(path)
    if hasattr(record, "points"):
        write_map_csv(record.points, path)
    elif hasattr(record, "to_dict"):
        write_json_record(record.to_dict(), path)
    else:
        raise TypeError(f"do not know how to store {type(record).__name__}")
    return write_run_manifest(
        path.parent,
        command=command,
        config=config if config is not None else {},
        seed=seed,
        output_paths=[path],
        duration_s=0.0,
        filename=path.name + ".manifest.json",
    )
