"""File formats: sweep CSV, map CSV, JSON records and run manifests.

All writers produce deterministic byte streams: fixed header strings, fixed
key order, and floats rendered with 17 significant digits so that load and
store round-trip exactly.  NaN cells are written as empty strings.
"""

from __future__ import annotations

import contextlib
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

    Numbers render as format_float renders them and NaN as an empty cell;
    strings as they are.
    """
    specs, cells = [], []
    for column in map(np.asarray, columns):
        values = column.tolist()
        holed = column.dtype.kind == "f" and np.isnan(column).any()
        if holed:
            values = ["" if math.isnan(v) else format_float(v) for v in values]
        specs.append("{}" if holed or column.dtype.kind == "U" else "{:.17g}")
        cells.append(values)
    template = ",".join(specs)
    return [template.format(*row) for row in zip(*cells)]


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
    except (json.JSONDecodeError, RecursionError) as exc:
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
    rows = format_rows(record.frequency_hz, record.lockin_v, record.dc_v)
    return _write_text(path, "\n".join([SWEEP_HEADER, *rows]) + "\n")


def load_sweep(path) -> SweepRecord:
    freq, lockin, dc = _read_table(path, SWEEP_HEADER, required=2)
    return SweepRecord(frequency_hz=freq, lockin_v=lockin, dc_v=dc)


def _read_table(path, header: str, required: int) -> list[np.ndarray]:
    """The columns of a CSV table with the given header line, as floats.

    Blank lines are skipped and an empty cell reads as NaN, but the first
    `required` columns need a finite number in every row.  The first bad
    cell in file order raises NonNumericCell naming its line.
    """
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else "<empty file>"
        raise MalformedHeader(f"{path}: expected header '{header}', got '{got}'")
    width = header.count(",") + 1
    numbered = [(n, line.split(",")) for n, line in enumerate(lines[1:], 2) if line]
    columns = []
    if all(len(cells) == width for _, cells in numbered):
        with contextlib.suppress(ValueError):
            rows = [cells for _, cells in numbered]
            columns = [
                np.array([float(c or "nan") for c in column])
                for column in list(zip(*rows)) or [()] * width
            ]
    if columns and all(np.isfinite(c).all() for c in columns[:required]):
        return columns
    for lineno, cells in numbered:
        where = f"{path}: line {lineno}"
        if len(cells) != width:
            raise NonNumericCell(f"{where}: expected {width} cells")
        for k, cell in enumerate(cells):
            try:
                value = float(cell or "nan")
            except ValueError:
                raise NonNumericCell(f"{where}: cannot parse '{cell}'") from None
            if k < required and not math.isfinite(value):
                raise NonNumericCell(f"{where}: need a finite number, got '{cell}'")
    raise AssertionError("unreachable: the scan meets the cell that failed")


# sensitivity map CSV


def write_map_csv(points, path) -> Path:
    """Write sensitivity map rows; points need the map column attributes."""
    ordered = sorted(points, key=lambda p: (p.p_opt_w, p.p_rf_w))
    names = MAP_HEADER.split(",")
    rows = format_rows(*([getattr(p, name) for p in ordered] for name in names))
    return _write_text(path, "\n".join([MAP_HEADER, *rows]) + "\n")


def load_map_csv(path) -> list[dict]:
    """Load map rows as dicts keyed by the map column names."""
    columns = _read_table(path, MAP_HEADER, required=2)
    names = MAP_HEADER.split(",")
    return [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]


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
    """A run manifest whose outputs map names to entries with a sha256."""
    data = load_json_record(path)
    outputs = data.get("outputs") if isinstance(data, dict) else None
    if not isinstance(outputs, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
        for entry in outputs.values()
    ):
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
