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
from collections.abc import Iterator
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


# Rows per formatted chunk of a CSV table: enough that one % call
# amortises its setup, few enough that a chunk's Python objects stay small.
_CHUNK_ROWS = 4096


def csv_chunks(header: str, *columns) -> Iterator[str]:
    """The text of a CSV table: its header line, then its rows in chunks.

    Columns have equal length.  Numbers render as format_float renders
    them and NaN as an empty cell; strings, in a str or an object column,
    as they are.  Each chunk of up to _CHUNK_ROWS rows is formatted by one
    % call.
    """
    yield header + "\n"
    columns = [np.asarray(c) for c in columns]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [c[start : start + _CHUNK_ROWS] for c in columns]
        cells = np.empty((chunk[0].size, len(chunk)), dtype=object)
        specs = []
        for j, column in enumerate(chunk):
            spec = "%s" if column.dtype.kind in "UO" else "%.17g"
            if column.dtype.kind == "f" and np.isnan(column).any():
                spec = "%s"
                column = ["" if v != v else format_float(v) for v in column.tolist()]
            cells[:, j] = column
            specs.append(spec)
        yield (",".join(specs) + "\n") * len(cells) % tuple(cells.ravel().tolist())


def _write_text(path, text) -> Path:
    """Write text, a str or an iterable of str chunks, to path as UTF-8."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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


def _bare(name: str) -> bool:
    """True for a file name with no separator, NUL, '..' or leading '.'."""
    return name[:1] not in ("", ".") and not any(
        part in name for part in ("..", "/", "\\", "\0")
    )


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
    columns = (record.frequency_hz, record.lockin_v, record.dc_v)
    return _write_text(path, csv_chunks(SWEEP_HEADER, *columns))


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


def write_map_csv(p_opt_w, p_rf_w, arrays, path) -> Path:
    """Write map rows in grid order, by p_opt_w, then p_rf_w.

    arrays holds the (n_opt, n_rf) arrays of the other columns, NaN as empty.
    """
    p_opt, p_rf = np.meshgrid(p_opt_w, p_rf_w, indexing="ij")
    columns = (np.ravel(a) for a in (p_opt, p_rf, *arrays))
    return _write_text(path, csv_chunks(MAP_HEADER, *columns))


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


def manifest_config_json(config: dict) -> str:
    """config as a manifest's dump_json text holds it, one level in."""
    return json.dumps(config, indent=2, allow_nan=False).replace("\n", "\n  ")


def write_run_manifest(
    out_dir,
    command: str,
    config: dict,
    seed: int,
    output_paths: list,
    duration_s: float,
    config_json: str | None = None,
) -> RunManifest:
    """Write manifest.json, dump_json of the manifest, in out_dir.

    config_json, when given, must be manifest_config_json(config): a
    caller that writes many manifests of one config encodes it once, since
    the indented encoder runs in pure Python: about 85 us for a manifest
    of the default config, on a 2-vCPU host.
    """
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
    if config_json is None:
        config_json = manifest_config_json(config)
    # The config goes in as a placeholder that only the config key's own
    # entry can spell, since a quote inside any other string is escaped.
    record = {**manifest.as_dict(), "config": "\0"}
    slot = '"config": "\\u0000"'
    text = dump_json(record).replace(slot, '"config": ' + config_json, 1)
    _write_text(out_dir / MANIFEST_NAME, text)
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
    """Recompute output digests; returns {name: matches_bool}.

    A listed name that is not bare reports False and is never opened.
    """
    data = load_manifest(path)
    base = Path(path).parent
    result = {}
    for name, entry in data["outputs"].items():
        try:
            result[name] = _bare(name) and sha256_file(base / name) == entry["sha256"]
        except IoFailure:
            result[name] = False
    return result
