"""File formats: sweep CSV, map CSV, JSON records and run manifests.

All writers produce deterministic byte streams: fixed header strings, fixed
key order, and floats rendered with 17 significant digits so that load and
store round-trip exactly.  NaN cells are written as empty strings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IoFailure,
    MalformedHeader,
    NonMonotoneAxis,
    NonNumericCell,
    SchemaViolation,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

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
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8 text: {exc}") from None


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
    write_json_record(manifest.as_dict(), out_dir / MANIFEST_NAME)
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
