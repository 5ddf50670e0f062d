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


# Rows per formatted chunk of a CSV table: enough that numpy's per-call
# setup is amortised, few enough that a tracking.csv chunk's buffers stay
# under glibc's 128 KB mmap threshold (at 2,048 rows, freed buffers raised
# that threshold and a steps run's peak RSS by up to 0.8 MB).
_CHUNK_ROWS = 1024

# The bulk '%.17g' kernel, _render.  A cell's 17 digits are
# N = round-half-even(|x| * 10**(16 - e)), e its decimal exponent, from one
# long-double multiply or divide by an exact power of ten (5**27 < 2**64,
# so |16 - e| <= 27 keeps it exact).  Rounded once, that product is off by
# at most half its ulp, and its fraction is a whole number of ulps, so N is
# proven unless the fraction is exactly 1/2.  Those cells, cells outside
# 1e-11 <= |x| < 1e44, zero, NaN and inf go to '%', and so does every cell
# where long double is not the x87 80-bit format, the one where the kernel
# is tested and measured (on macOS arm64 and Windows it is double, on
# aarch64 Linux a quad computed in software).
_FAST = np.finfo(np.longdouble).nmant == 63
# Every exponent e the kernel meets runs from -13 to 45; the tables below
# are indexed by e + 13.
_E = np.arange(-13, 46)
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_MUL = _POW10[np.clip(16 - _E, 0, 27)]
_DIV = _POW10[np.clip(_E - 16, 0, 27)]
# A cell's text is 24 bytes, three little-endian words, NUL-padded: the
# sign at byte 0, then the 17 digits at bytes 1-17.  At exponent e the
# point goes before digit p = e + 1 in fixed layout and p = 1 in exponent
# layout, after z = -e zeros prefixed in fixed layout below 1 (from
# "0.0001"), and exponent layout ends with 'e+XX' at bytes 19-22.
_FIXED = (_E >= -4) & (_E < 17)
_AT = np.where(_FIXED & (_E >= 0), _E + 1, 1)  # p
_ZEROS = np.where(_FIXED & (_E < 0), -_E, 0)  # z
_START = _AT - _ZEROS  # the first fraction digit
# _FIRST[:, k]: the words of a cell's first k bytes.
_FIRST = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_FIRST = _FIRST[np.clip(np.arange(25) - 8 * np.arange(3)[:, None], 0, 8)]
_BELOW, _ABOVE = _FIRST[:, _AT + 1], np.uint64(2**64 - 1) - _FIRST[:, _AT + 2]
_POINT = (_FIRST[:, _AT + 2] - _BELOW) & np.uint64(0x2E2E2E2E2E2E2E2E)
_PREFIX = _FIRST[0, _ZEROS + 1] & np.uint64(0x3030303030303000)
_SHIFT = (8 * _ZEROS).astype(np.uint64)
_SUFFIX = np.array([int.from_bytes(b"\0\0\0e%+03d" % x, "little") for x in _E.tolist()])
_SUFFIX = np.where(_FIXED, 0, _SUFFIX).astype(np.uint64)
# _QUADS[g]: the text of a 4-digit group g as a little-endian word.  Digits
# 1-16 come in groups j = 0..3, and _LAST[g] + 4 * j counts the digits from
# digit 0 through group j's last non-zero digit (below 1 when the group is
# 0000).  Both are built from the 100 two-digit pairs in the integer types
# the kernel uses, so the import maps no further numpy loops, and each
# 10,000-entry table in one operation, so no temporary of that size is left
# in the heap.  _PAIR counts a pair's digits through its last non-zero one;
# a group's last non-zero digit is in its low pair (_LOW, 4 or 5) unless
# that pair is 00, else in its high pair (_HIGH, 2 or 3).
_TENS, _UNITS = np.arange(100) // 10, np.arange(100) % 10
_QUADS = (_TENS + ord("0") + (_UNITS + ord("0")) * 256).astype(np.uint64)
_QUADS = (_QUADS[:, None] | _QUADS << 16).ravel()
_PAIR = np.where(_UNITS > 0, 2, _TENS > 0)
_HIGH, _LOW = np.where(_PAIR > 0, _PAIR + 1, -12), np.where(_PAIR > 0, _PAIR + 3, -99)
_LAST = np.maximum(_HIGH[:, None], _LOW).ravel()


def _scaled(a, e):
    """a * 10**(16 - e) in long double, rounded once, and its integer part."""
    y = a * _MUL[e]
    if e.max() > 29:
        y /= _DIV[e]
    return y, y.astype(np.int64)


def _digits(a: np.ndarray):
    """N, e + 13 and whether both are proven, for each |x| in a.

    Unproven cells read N = 10**16 and e = 0, so every table index holds.
    a is overwritten.
    """
    fast = (a >= 1e-11) & (a < 1e44) & _FAST
    a[~fast] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.intp) + 13
    a = a.astype(np.longdouble)
    y, n = _scaled(a, e)
    # log10 can miss e by one next to a power of ten.
    low, high = n < 10**16, n >= 10**17
    if low.any() or high.any():
        e += high
        e -= low
        y, n = _scaled(a, e)
        fast &= (n >= 10**16) & (n < 10**17)
    fast &= (e >= 2) & (e <= 56)  # -11 <= e <= 43: no power clipped
    del a, low, high
    y -= n  # the fraction, exact
    fast &= y != 0.5
    n += y > 0.5
    del y
    top = n == 10**17
    n[top] = 10**16
    e += top
    n[~fast] = 10**16
    e[~fast] = 13
    return n, e, fast


def _words(n: np.ndarray, e: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The (len(e), 3) words of the text of 17 digits N at exponent index e."""
    # The digits c0 ... c16 at bytes 1-17, from c0's value and four
    # 4-digit groups.
    lead = n // 10**16
    n -= lead * 10**16
    hi = n // 10**8
    n -= hi * 10**8
    groups = [hi // 10**4, hi, n // 10**4, n]
    hi -= groups[0] * 10**4
    n -= groups[2] * 10**4
    q0, q1 = _QUADS[groups[0]], _QUADS[groups[1]]
    v0 = (lead + ord("0")).astype(np.uint64) << 8 | q0 << 16 | q1 << 48
    del q0, lead
    q2, q3 = _QUADS[groups[2]], _QUADS[groups[3]]
    v1 = q1 >> 16 | q2 << 16 | q3 << 48
    v2 = q3 >> 16
    del q1, q2, q3
    # Fraction digits end with the last non-zero digit; those of a fixed
    # layout start after the units digit.  Keep the sign and the digits
    # up to the later of the two.
    ends = np.maximum(_LAST[groups[0]], 1)
    for j in (1, 2, 3):
        np.maximum(ends, _LAST[groups[j]] + 4 * j, out=ends)
    del groups, hi, n
    start = _START[e]
    keep = np.maximum(start, ends) + 1
    v0 &= _FIRST[0][keep]
    v1 &= _FIRST[1][keep]
    v2 &= _FIRST[2][keep]
    del keep
    b = _SHIFT[e]
    if b.any():
        v2 = v2 << b | (v1 >> 32) >> (32 - b)
        v1 = v1 << b | (v0 >> 32) >> (32 - b)
        v0 = v0 << b | _PREFIX[e]
    dot = ends > start
    words = np.empty((e.size, 3), "<u8")
    shifted = (v0 << 8, v1 << 8 | v0 >> 56, v2 << 8 | v1 >> 56)
    for j, (v, s) in enumerate(zip((v0, v1, v2), shifted)):
        v &= _BELOW[j][e]
        v |= s & _ABOVE[j][e]
        v |= _POINT[j][e] * dot
        words[:, j] = v
    words[:, 0] |= negative.astype(np.uint64) * ord("-")
    words[:, 2] |= _SUFFIX[e]
    return words


def _render(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each float64 v, NaN as empty: (n, 3) words of text."""
    n, e, fast = _digits(np.abs(values))
    words = _words(n, e, values < 0)
    if not fast.all():
        words[~fast] = 0
        rest = np.flatnonzero(~fast & ~np.isnan(values))
        if rest.size:
            text = ("%.17g," * rest.size % tuple(values[rest].tolist())).split(",")
            words[rest] = np.array(text[:-1], dtype="S24").view("<u8").reshape(-1, 3)
    return words


def _text_bytes(column: np.ndarray) -> np.ndarray:
    """The UTF-8 text of a str or object column as (n, width) NUL-padded bytes."""
    if column.dtype.kind == "O":
        texts = list(map(str, column.tolist()))
        if any("\0" in t for t in texts):
            raise ValueError("a CSV text cell holds a NUL character")
        column = np.array(texts, dtype=str)
    # An ASCII column, as transitions.csv's labels, is its code points:
    # np.char.encode goes cell by cell, 0.5 ms a 1,024-row chunk and about
    # 20 ms of a spectrum_fit pass.
    codes = np.ascontiguousarray(column).view(np.uint32).reshape(column.size, -1)
    if codes.max() < 128:
        raw = codes.astype(np.uint8)
    else:
        raw = np.char.encode(column, "utf-8").view(np.uint8).reshape(column.size, -1)
    nul = raw == 0
    if (nul[:, :-1] & ~nul[:, 1:]).any():
        raise ValueError("a CSV text cell holds a NUL character")
    return raw


def csv_chunks(header: str, *columns) -> Iterator[str]:
    """The text of a CSV table: its header line, then its rows in chunks.

    Columns have equal length.  Numbers render as format_float renders
    them and NaN as an empty cell; strings, in a str or an object column,
    as they are (a NUL in one raises ValueError).  Each chunk of up to
    _CHUNK_ROWS rows is one table of NUL-padded cells, those of all its
    numeric columns rendered at once by _render, that bytes.translate
    compacts.
    """
    yield header + "\n"
    columns = [np.asarray(c) for c in columns]
    strings = [j for j, c in enumerate(columns) if c.dtype.kind in "UO"]
    numbers = [j for j in range(len(columns)) if j not in strings]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [c[start : start + _CHUNK_ROWS] for c in columns]
        texts = {j: _text_bytes(chunk[j]) for j in strings}
        width = max([24, *(t.shape[1] for t in texts.values())]) + 1
        table = np.zeros((chunk[0].size, len(chunk), width), np.uint8)
        for j, t in texts.items():
            table[:, j, : t.shape[1]] = t
        if numbers:
            values = np.column_stack([chunk[j] for j in numbers])
            values = values.astype(float, copy=False)
            cells = _render(values.ravel()).view(np.uint8)
            table[:, numbers, :24] = cells.reshape(*values.shape, 24)
            del cells  # before the table's text is copied out
        table[:, :, -1] = ord(",")
        table[:, -1, -1] = ord("\n")
        yield table.tobytes().translate(None, b"\0").decode()


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

    One leading byte-order mark (as a "CSV UTF-8" export starts) and blank
    lines are skipped, and an empty cell reads as NaN, but the first
    `required` columns need a finite number in every row.  The first bad
    cell in file order raises NonNumericCell naming its line, counted by
    "\\n" alone (text mode reads "\\r\\n" as "\\n").
    """
    lines = _read_text(path).removeprefix("\ufeff").split("\n")
    if lines[0] != header:
        got = lines[0] if lines != [""] else "<empty file>"
        raise MalformedHeader(f"{path}: expected header '{header}', got {got!a}")
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
