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
import os
from collections.abc import Iterator
from dataclasses import dataclass

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


def _write_text(path, text):
    """Write text, a str or an iterable of str chunks, to path as UTF-8.

    A file already at path is overwritten and then cut to length, not
    truncated first: it keeps its disk block, where freeing it and taking a
    new one cost 5-12% of an `odmr fit` rerun on ext4 (2-vCPU host).
    Returns path as given, as every writer does.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
            fh.truncate()
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8 text: {exc}") from None


def _bare(name: str) -> bool:
    """True for a file name with no separator, NUL, '..' or leading '.'."""
    return name[:1] not in ("", ".") and not any(
        part in name for part in ("..", "/", "\\", "\0")
    )


def _digest(path) -> tuple[str, int]:
    """The SHA-256 hex digest and byte count of a file, from one read."""
    digest = hashlib.sha256()
    size = 0
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(65536):
                digest.update(chunk)
                size += len(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest(), size


def dump_json(obj) -> str:
    """Serialise with stable key order and a trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json_record(obj, path):
    return _write_text(path, dump_json(obj))


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


def write_sweep(record: SweepRecord, path):
    columns = (record.frequency_hz, record.lockin_v, record.dc_v)
    return _write_text(path, csv_chunks(SWEEP_HEADER, *columns))


def load_sweep(path) -> SweepRecord:
    freq, lockin, dc = _read_table(path, SWEEP_HEADER, required=2)
    return SweepRecord(frequency_hz=freq, lockin_v=lockin, dc_v=dc)


def _read_table(path, header: str, required: int) -> list[np.ndarray]:
    """The columns of a CSV table with the given header line, as floats.

    Blank lines are skipped and an empty cell reads as NaN, but the first
    `required` columns need a finite number in every row.  The first bad
    cell in file order raises NonNumericCell naming its line, counted by
    "\\n" alone (text mode reads "\\r\\n" as "\\n").
    """
    lines = _read_text(path).split("\n")
    if lines[0] != header:
        got = lines[0] if lines != [""] else "<empty file>"
        raise MalformedHeader(f"{path}: expected header '{header}', got '{got}'")
    width = header.count(",") + 1
    # The body is split once, on commas, into its cells in file order; a
    # table that any check here refuses goes to the line scan below.
    body = list(filter(None, lines[1:]))
    counts = list(map(str.count, body, [","] * len(body)))
    if counts == [width - 1] * len(body):
        cells = ",".join(body).split(",") if body else []
        n = len(cells)
        with contextlib.suppress(ValueError):
            try:
                values = np.fromiter(map(float, cells), float, n)
            except ValueError:
                values = np.fromiter((float(c or "nan") for c in cells), float, n)
            columns = values.reshape(-1, width).T.copy()
            if np.isfinite(columns[:required]).all():
                return list(columns)
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split(",")
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


def write_map_csv(p_opt_w, p_rf_w, arrays, path):
    """Write map rows in grid order, by p_opt_w, then p_rf_w.

    arrays holds the (n_opt, n_rf) arrays of the other columns, NaN as empty.
    """
    p_opt, p_rf = np.meshgrid(p_opt_w, p_rf_w, indexing="ij")
    columns = (np.ravel(a) for a in (p_opt, p_rf, *arrays))
    return _write_text(path, csv_chunks(MAP_HEADER, *columns))


# run manifests


@dataclass(frozen=True)
class RunManifest:
    """What write_run_manifest wrote: the run's seed and output digests."""

    command: str
    seed: int
    outputs: dict
    duration_s: float
    tool_version: str
    format_version: int = FORMAT_VERSION


def manifest_config_json(config: dict) -> str:
    """config as a manifest's dump_json text holds it, one level in."""
    return json.dumps(config, indent=2, allow_nan=False).replace("\n", "\n  ")


def write_run_manifest(
    path,
    command: str,
    seed: int,
    config_json: str,
    outputs: dict,
    duration_s: float,
) -> RunManifest:
    """Write a run's manifest to path, as dump_json of it, and return it.

    The config block goes in as config_json, the text manifest_config_json
    encodes (ConfigDoc.manifest_json caches it per document, since the
    indented encoder runs in pure Python: about 45 us for the default
    config on a 2-vCPU host).  Each output is listed under its name in
    outputs, in name order, with the SHA-256 digest and byte count of one
    read of the file outputs maps it to.
    """
    from . import __version__

    listed = {}
    for name, file in sorted(outputs.items()):
        sha256, size = _digest(file)
        listed[name] = {"sha256": sha256, "bytes": size}
    seed, duration_s = int(seed), float(duration_s)
    # The config goes in as a placeholder that only the config key's own
    # entry can spell, since a quote inside any other string is escaped.
    record = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "duration_s": duration_s,
        "config": "\0",
        "outputs": listed,
    }
    slot = '"config": "\\u0000"'
    _write_text(path, dump_json(record).replace(slot, '"config": ' + config_json, 1))
    return RunManifest(command, seed, listed, duration_s, __version__)


def load_manifest(path) -> dict:
    """A run manifest whose outputs map names to entries with a sha256."""
    try:
        data = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedHeader(f"{path}: invalid JSON: {exc}") from exc
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
    base = os.path.dirname(path)
    result = {}
    for name, entry in data["outputs"].items():
        try:
            file = os.path.join(base, name)
            result[name] = _bare(name) and _digest(file)[0] == entry["sha256"]
        except IoFailure:
            result[name] = False
    return result
