"""Round trips and failure modes of the on-disk formats."""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import astuple
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmrsim
from odmrsim import (
    FORMAT_VERSION,
    IoFailure,
    MalformedHeader,
    NonMonotoneAxis,
    NonNumericCell,
    PRESETS,
    SchemaViolation,
    SweepRecord,
    config_from_dict,
    load_config,
    load_manifest,
    load_sweep,
    verify_manifest,
    write_map_csv,
    write_run_manifest,
    write_sweep,
)
from odmrsim import io_formats
from odmrsim.io_formats import (
    MAP_HEADER,
    SWEEP_HEADER,
    csv_chunks,
    dump_json,
    format_float,
    manifest_config_json,
)
from odmrsim import svgplot
from odmrsim.svgplot import heatmap, line_plot


def make_record(n=7):
    rng = np.random.default_rng(0)
    freq = np.linspace(90e6, 100e6, n)
    return SweepRecord(
        frequency_hz=freq,
        lockin_v=rng.normal(0, 1e-4, n),
        dc_v=rng.uniform(0.05, 0.07, n),
    )


def test_sweep_round_trip_is_exact(tmp_path):
    record = make_record()
    path = tmp_path / "sweep.csv"
    write_sweep(record, path)
    loaded = load_sweep(path)
    np.testing.assert_array_equal(loaded.frequency_hz, record.frequency_hz)
    np.testing.assert_array_equal(loaded.lockin_v, record.lockin_v)
    np.testing.assert_array_equal(loaded.dc_v, record.dc_v)


def test_sweep_nan_dc_round_trips_as_empty_cell(tmp_path):
    record = make_record()
    record.dc_v[2] = math.nan
    path = tmp_path / "sweep.csv"
    write_sweep(record, path)
    text = path.read_text()
    assert ",\n" in text or text.rstrip().endswith(",")
    loaded = load_sweep(path)
    assert math.isnan(loaded.dc_v[2])
    assert np.isfinite(loaded.dc_v[[0, 1, 3]]).all()


def test_sweep_header_and_cell_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("freq,lockin\n1,2\n")
    expected = f"expected header '{SWEEP_HEADER}', got 'freq,lockin'$"
    with pytest.raises(MalformedHeader, match=expected):
        load_sweep(bad_header)
    # One leading byte-order mark is skipped; a second one is a character
    # of the header, and the message spells it out.
    good = write_sweep(make_record(), tmp_path / "good.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
    for got, want in zip(astuple(load_sweep(marked)), astuple(load_sweep(good))):
        np.testing.assert_array_equal(got, want)
    marked.write_bytes(b"\xef\xbb\xbf" * 2 + good.read_bytes())
    with pytest.raises(MalformedHeader, match=r"got '\\ufeff" + SWEEP_HEADER + "'$"):
        load_sweep(marked)
    for text, got in (("", "<empty file>"), ("\n", "")):
        bad_header.write_text(text)
        with pytest.raises(MalformedHeader, match=f"got '{got}'$"):
            load_sweep(bad_header)

    missing_cell = tmp_path / "b.csv"
    missing_cell.write_text("frequency_hz,lockin_v,dc_v\n1.0,2.0\n")
    with pytest.raises(NonNumericCell):
        load_sweep(missing_cell)

    bad_value = tmp_path / "c.csv"
    bad_value.write_text("frequency_hz,lockin_v,dc_v\n1.0,x,3.0\n")
    with pytest.raises(NonNumericCell) as err:
        load_sweep(bad_value)
    assert "line 2" in str(err.value)

    # The first fault in file order is reported, whichever column holds it.
    path = tmp_path / "e.csv"
    path.write_text(
        "frequency_hz,lockin_v,dc_v\n1.0,2.0,3.0\n\n2.0,2.0,y\n3.0,2.0\n"
    )
    with pytest.raises(NonNumericCell, match="line 4: cannot parse 'y'"):
        load_sweep(path)
    path.write_text("frequency_hz,lockin_v,dc_v\n1.0,2.0\n2.0,,3.0\n")
    with pytest.raises(NonNumericCell, match="line 2: expected 3 cells"):
        load_sweep(path)
    path.write_text("frequency_hz,lockin_v,dc_v\n1.0,2.0,3.0\n2.0,,3.0\n")
    with pytest.raises(NonNumericCell, match="line 3: need a finite number, got ''"):
        load_sweep(path)
    path.write_text("frequency_hz,lockin_v,dc_v\n1.0,2.0,inf\n2.0,nan,3.0\n")
    with pytest.raises(NonNumericCell, match="line 3: need a finite number, got 'nan'"):
        load_sweep(path)


def scan_reference(path, text, header, required):
    """A table as a line-by-line scan reads it, each cell by float(c or "nan").

    Returns the columns, or the NonNumericCell message of the first bad
    cell in file order.
    """
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n")[1:], 2):
        if not line:
            continue
        where = f"{path}: line {lineno}"
        cells = line.split(",")
        if len(cells) != width:
            return f"{where}: expected {width} cells"
        row = []
        for k, cell in enumerate(cells):
            try:
                value = float(cell or "nan")
            except ValueError:
                return f"{where}: cannot parse '{cell}'"
            if k < required and not math.isfinite(value):
                return f"{where}: need a finite number, got '{cell}'"
            row.append(value)
        rows.append(row)
    return [np.array(column, dtype=float) for column in zip(*rows)] or [
        np.array([]) for _ in range(width)
    ]


# Line breaks to str.splitlines that float() strips as whitespace; it
# refuses the other three, \x1c to \x1e, so bad_cells holds those.
line_breaks = ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"]
# A finite number, written in one of several ways, with padding around it.
numbers = (
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:g}"]),
        st.sampled_from(["", " ", "  ", *line_breaks]),
        st.sampled_from(["", " ", *line_breaks]),
    )
    .map(lambda t: t[2] + t[1].format(t[0]) + t[3])
    .filter(lambda cell: math.isfinite(float(cell)))
)
optional_cells = numbers | st.sampled_from(["", "nan", " nan", "inf", "-inf"])
table_rows = st.tuples(numbers, numbers, optional_cells).map(list)
bad_cells = st.sampled_from(
    ["", "nan", "inf", "1e999", "x", "1.0.0", "1,2", "--1", "1\x1c", "\x1d1", "1\x1e2"]
)


@st.composite
def sweep_tables(draw, bad):
    """Sweep CSV text: blank lines, \\n or \\r\\n endings, padded numbers;
    with bad, one to three cells overwritten, added, dropped or moved to
    another row (which keeps the table's cell count)."""
    rows = draw(st.lists(table_rows, max_size=30))
    if bad:
        rows = rows or [draw(table_rows)]
        for _ in range(draw(st.integers(1, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            k = draw(st.integers(0, len(row) - 1))
            change = draw(st.sampled_from(["cell", "drop", "add", "move"]))
            if change == "cell":
                row[k] = draw(bad_cells)
            elif change == "add" or len(row) == 1:
                row.insert(k, draw(numbers))
            elif change == "drop":
                del row[k]
            else:
                rows[draw(st.integers(0, len(rows) - 1))].append(row.pop(k))
    lines = [SWEEP_HEADER]
    for row in rows:
        lines += [""] * draw(st.integers(0, 2)) + [",".join(row)]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def read_both(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = scan_reference(path, text, SWEEP_HEADER, required=2)
        try:
            got = io_formats._read_table(path, SWEEP_HEADER, required=2)
        except NonNumericCell as exc:
            got = str(exc)
    return got, expected


@settings(max_examples=200, deadline=None)
@given(sweep_tables(bad=False))
def test_read_table_columns_are_per_cell_floats_bit_for_bit(text):
    got, expected = read_both(text)
    assert not isinstance(expected, str)
    assert [c.dtype for c in got] == [np.dtype(float)] * 3
    assert [c.tobytes() for c in got] == [c.tobytes() for c in expected]


@settings(max_examples=200, deadline=None)
@given(sweep_tables(bad=True))
def test_read_table_names_the_first_bad_cell_as_the_line_scan(text):
    got, expected = read_both(text)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert [c.tobytes() for c in got] == [c.tobytes() for c in expected]


def test_sweep_requires_monotone_axis(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "frequency_hz,lockin_v,dc_v\n2.0,0.0,1.0\n1.0,0.0,1.0\n"
    )
    with pytest.raises(NonMonotoneAxis):
        load_sweep(path)


def test_sweep_missing_file():
    with pytest.raises(IoFailure):
        load_sweep("/nonexistent/sweep.csv")


def test_non_utf8_files_are_format_errors(tmp_path):
    path = tmp_path / "latin1"
    path.write_bytes("frequency_hz,lockin_v,dc_v\n1.0,2.0,\u00b5\n".encode("latin-1"))
    for load in (load_sweep, load_config, load_manifest):
        with pytest.raises(IoFailure, match="not UTF-8"):
            load(path)


def test_map_round_trip_with_failed_cell(tmp_path):
    cells = [np.array([[v, math.nan]]) for v in (5e5, 0.01, 1e11, 4e-9)]
    path = tmp_path / "map.csv"
    write_map_csv([0.1], [0.5, 1.0], cells, path)
    columns = io_formats._read_table(path, MAP_HEADER, required=2)
    rows = [dict(zip(MAP_HEADER.split(","), row)) for row in zip(*columns)]
    assert rows[0]["eta_t_rthz"] == pytest.approx(4e-9)
    assert math.isnan(rows[1]["eta_t_rthz"])
    assert math.isnan(rows[1]["fwhm_hz"])
    assert rows[1]["p_rf_w"] == pytest.approx(1.0)


def test_map_rows_follow_grid_order(tmp_path):
    # Rows run over p_opt_w, then p_rf_w; cell (1, 0) failed.
    eta = np.array([[1.0, 2.0], [math.nan, 4.0]])
    cells = [np.where(np.isnan(eta), math.nan, v) for v in (5e5, 0.5, 1e11)]
    path = tmp_path / "map.csv"
    write_map_csv(np.array([1.0, 2.0]), np.array([0.5, 1.0]), [*cells, eta], path)
    assert path.read_text().splitlines() == [
        "p_opt_w,p_rf_w,fwhm_hz,contrast,rate_hz,eta_t_rthz",
        "1,0.5,500000,0.5,100000000000,1",
        "1,1,500000,0.5,100000000000,2",
        "2,0.5,,,,",
        "2,1,500000,0.5,100000000000,4",
    ]


def test_config_defaults_and_sections():
    cfg = load_config(None)
    assert cfg.spin.zfs_hz == 70e6
    assert cfg.spin.g_factor == 2.0032
    assert cfg.field.bz_t == 1e-3
    assert cfg.sample_preset.name == "quenched"
    assert cfg.lineshape.fwhm0_hz == PRESETS["quenched"].broadening.fwhm0_hz
    assert cfg.detector.shot_noise is True
    assert cfg.lockin.mode == "am"
    assert cfg.sweep.n_points == 101
    assert cfg.schedule.n_steps == 8
    assert cfg.sweep.grid is None


def test_config_preset_null_override():
    cfg = config_from_dict(
        {
            "sample_preset": {"name": "annealed"},
            "lineshape": {"fwhm0_hz": 9e5, "contrast_max": None},
        }
    )
    assert cfg.lineshape.fwhm0_hz == 9e5
    assert (
        cfg.lineshape.contrast_max
        == PRESETS["annealed"].broadening.contrast_max
    )


def test_config_unknown_key_reports_path():
    with pytest.raises(SchemaViolation) as err:
        config_from_dict({"lineshape": {"bogus": 1.0}})
    assert "lineshape.bogus" in str(err.value)
    with pytest.raises(SchemaViolation) as err:
        config_from_dict({"bogus": {}})
    assert "config.bogus" in str(err.value)


def test_config_type_and_range_errors():
    with pytest.raises(SchemaViolation):
        config_from_dict({"spin": {"zfs_hz": "seventy"}})
    with pytest.raises(SchemaViolation):
        config_from_dict({"spin": {"g_factor": 1.2}})
    with pytest.raises(SchemaViolation):
        config_from_dict({"sweep": {"n_points": 2.5}})
    with pytest.raises(SchemaViolation):
        config_from_dict({"format_version": 99})
    with pytest.raises(SchemaViolation):
        config_from_dict({"sample_preset": {"name": "unknown"}})


def test_config_lockin_constraints():
    with pytest.raises(SchemaViolation):
        config_from_dict(
            {"lockin": {"mod_freq_hz": 1e3, "sample_rate_hz": 5e3}}
        )
    with pytest.raises(SchemaViolation):
        config_from_dict(
            {"lockin": {"mod_freq_hz": 1.3e3, "sample_rate_hz": 1e4}}
        )
    with pytest.raises(SchemaViolation):
        config_from_dict(
            {
                "lockin": {
                    "mod_freq_hz": 1e3,
                    "sample_rate_hz": 1e4,
                    "time_constant_s": 1e-4,
                }
            }
        )


def test_config_grid_requires_all_bounds():
    with pytest.raises(SchemaViolation) as err:
        config_from_dict({"sweep": {"grid": {"p_opt_min_w": 0.1}}})
    assert "required" in str(err.value)
    cfg = config_from_dict(
        {
            "sweep": {
                "grid": {
                    "p_opt_min_w": 0.1,
                    "p_opt_max_w": 0.4,
                    "n_opt": 4,
                    "p_rf_min_w": 0.5,
                    "p_rf_max_w": 1.5,
                    "n_rf": 3,
                }
            }
        }
    )
    grid = cfg.sweep.grid
    assert grid.p_opt_values().size == 4
    np.testing.assert_allclose(grid.p_rf_values(), [0.5, 1.0, 1.5])


def test_config_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaViolation):
        load_config(path)


def test_config_empty_file_means_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.spin.zfs_hz == 70e6


def test_manifest_write_verify_and_tamper(tmp_path):
    out = tmp_path / "file.csv"
    out.write_text("hello\n")
    write_run_manifest(
        tmp_path / "manifest.json",
        command="spectrum",
        seed=3,
        config_json=manifest_config_json({"a": 1}),
        outputs={"file.csv": out},
        duration_s=0.5,
    )
    data = load_manifest(tmp_path / "manifest.json")
    assert data["command"] == "spectrum"
    assert data["seed"] == 3
    assert data["format_version"] == FORMAT_VERSION
    assert verify_manifest(tmp_path / "manifest.json") == {"file.csv": True}
    out.write_text("tampered\n")
    assert verify_manifest(tmp_path / "manifest.json") == {"file.csv": False}
    out.unlink()
    assert verify_manifest(tmp_path / "manifest.json") == {"file.csv": False}


def test_manifest_with_an_encoded_config_is_its_dump_json(tmp_path):
    # The config block goes in through a placeholder: no other value may
    # spell it, whatever its strings hold.
    config = {
        "name": 'a "config": "\0" key',
        "nested": {"x": -0.0, "values": [1, 2.5], "empty": {}},
    }
    out = tmp_path / "file.csv"
    out.write_text("hello\n")
    manifest = write_run_manifest(
        tmp_path / "manifest.json",
        command="\0",
        seed=1,
        config_json=manifest_config_json(config),
        outputs={"file.csv": out},
        duration_s=0.25,
    )
    assert manifest.outputs == {
        "file.csv": {"sha256": hashlib.sha256(b"hello\n").hexdigest(), "bytes": 6}
    }
    assert (tmp_path / "manifest.json").read_text() == dump_json(
        {
            "format_version": FORMAT_VERSION,
            "tool_version": odmrsim.__version__,
            "command": "\0",
            "seed": 1,
            "duration_s": 0.25,
            "config": config,
            "outputs": manifest.outputs,
        }
    )


def test_write_text_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    # The file is overwritten in place and then cut to length.
    path = tmp_path / "file.txt"
    path.write_text("a longer old text\n" * 100)
    inode = path.stat().st_ino
    assert io_formats._write_text(path, ["new\n", "text\n"]) == path
    assert path.read_bytes() == b"new\ntext\n"
    assert path.stat().st_ino == inode


def test_load_manifest_rejects_other_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{\"a\": 1}\n")
    with pytest.raises(SchemaViolation):
        load_manifest(path)
    for outputs in ([1], {"a.csv": {"bytes": 3}}, {"a.csv": {"sha256": 7}}):
        path.write_text(json.dumps({"outputs": outputs}))
        with pytest.raises(SchemaViolation):
            verify_manifest(path)


def test_verify_manifest_opens_only_bare_names(tmp_path, monkeypatch):
    outside = tmp_path / "outside.txt"
    outside.write_text("outside\n")
    run = tmp_path / "run"
    run.mkdir()
    (run / "inside.txt").write_text("inside\n")
    listed = {
        "../outside.txt": outside,
        str(outside): outside,
        "inside.txt": run / "inside.txt",
    }
    outputs = {
        name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for name, p in listed.items()
    }
    (run / "manifest.json").write_text(json.dumps({"outputs": outputs}))
    opened = []
    digest = io_formats._digest

    def recording_digest(path):
        opened.append(Path(path))
        return digest(path)

    monkeypatch.setattr(io_formats, "_digest", recording_digest)
    assert verify_manifest(run / "manifest.json") == {
        "../outside.txt": False,
        str(outside): False,
        "inside.txt": True,
    }
    assert opened == [run / "inside.txt"]


def test_format_float_round_trips():
    rng = np.random.default_rng(5)
    for value in rng.uniform(-1e12, 1e12, 50):
        assert float(format_float(value)) == value
    assert float(format_float(3.8829e-9)) == 3.8829e-9


def _csv_text(header, *columns) -> str:
    return "".join(csv_chunks(header, *columns))


def test_csv_chunks_match_format_float_bytes():
    rng = np.random.default_rng(6)
    numbers = np.concatenate(
        (
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e22, -1e22, 2.0**53],
            [123456789012345678.0, -7.0, -2.5e-9, 3.8829e-9, 0.1],
            rng.uniform(-1e12, 1e12, 20),
            rng.normal(0.0, 1e-6, 20),
        )
    )
    labels = [f"nu{k % 3}" for k in range(numbers.size)]
    whole = np.round(numbers[::-1] * 1e-3)
    expected = "".join(
        f"{format_float(a)},{label},{format_float(b)}\n"
        for a, label, b in zip(numbers, labels, whole)
    )
    assert _csv_text("a,label,b", numbers, labels, whole) == "a,label,b\n" + expected
    assert _csv_text("a", list(numbers)) == "a\n" + "".join(
        f"{format_float(v)}\n" for v in numbers
    )
    holed = numbers.copy()
    holed[[1, 7]] = math.nan
    assert _csv_text("a,label", holed, labels) == "a,label\n" + "".join(
        f"{'' if math.isnan(a) else format_float(a)},{label}\n"
        for a, label in zip(holed, labels)
    )
    ints = np.array([0, -3, 2**53 + 1, 10**18], dtype=np.int64)
    assert _csv_text("m", ints) == "m\n" + "".join(
        f"{format_float(v)}\n" for v in ints.tolist()
    )


def test_csv_chunks_stream_long_tables_in_chunks():
    rng = np.random.default_rng(7)
    n = 2 * io_formats._CHUNK_ROWS + 17
    values = rng.normal(0.0, 1e3, n)
    # NaN only in the last chunk: earlier chunks format the column as numbers.
    holed = rng.uniform(-1.0, 1.0, n)
    holed[n - 5] = math.nan
    labels = np.array([f"s{k % 11}" for k in range(n)])
    chunks = list(csv_chunks("v,h,l", values, holed, labels))
    assert len(chunks) == 1 + 3
    assert chunks[0] == "v,h,l\n"
    assert "".join(chunks) == "v,h,l\n" + "".join(
        f"{format_float(v)},{'' if math.isnan(h) else format_float(h)},{label}\n"
        for v, h, label in zip(values, holed, labels)
    )
    assert list(csv_chunks("v,l", np.empty(0), np.array([], dtype=str))) == ["v,l\n"]


def test_csv_chunks_write_object_text_as_str_text():
    # An object column of str writes the bytes of the same strings in a
    # U column: texts of mixed lengths, across a chunk boundary where the
    # row length changes.
    n = io_formats._CHUNK_ROWS + 5
    shared = [format_float(v) for v in (1e-3, -2.5e-9, 1e-3 + 5e-7, 7.0, 1e22)]
    shared += ["", "nu2_sat_minus" * 3]
    rows = np.array(shared, dtype=object)[np.arange(n) % len(shared)]
    assert len(rows[io_formats._CHUNK_ROWS - 1]) != len(rows[io_formats._CHUNK_ROWS])
    values = np.arange(n) * 0.1
    chunks = list(csv_chunks("l,v", rows, values))
    assert len(chunks) == 1 + 2
    text = rows.astype(str)
    assert text.dtype.kind == "U"
    assert "".join(chunks) == _csv_text("l,v", text, values)
    assert "".join(chunks) == "l,v\n" + "".join(
        f"{label},{format_float(v)}\n" for label, v in zip(shared * n, values)
    )


def _reference_csv(header, *columns) -> str:
    """The CSV text of the chunked-% writer that csv_chunks replaced.

    Each chunk is one % call: '%.17g' for a number, '%s' for text and for
    the format_float text of a float column holding NaN (empty for NaN).
    """
    chunks = [header + "\n"]
    columns = [np.asarray(c) for c in columns]
    for start in range(0, len(columns[0]), 4096):
        chunk = [c[start : start + 4096] for c in columns]
        cells = np.empty((chunk[0].size, len(chunk)), dtype=object)
        specs = []
        for j, column in enumerate(chunk):
            spec = "%s" if column.dtype.kind in "UO" else "%.17g"
            if column.dtype.kind == "f" and np.isnan(column).any():
                spec = "%s"
                column = ["" if v != v else format_float(v) for v in column.tolist()]
            cells[:, j] = column
            specs.append(spec)
        rows = (",".join(specs) + "\n") * len(cells)
        chunks.append(rows % tuple(cells.ravel().tolist()))
    return "".join(chunks)


def _assert_csv_matches_reference(*columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    assert _csv_text(header, *columns) == _reference_csv(header, *columns)


_ROWS = (0, 1, io_formats._CHUNK_ROWS, io_formats._CHUNK_ROWS + 1)
_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\0"), max_size=30
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_ROWS),
    st.lists(st.floats(width=64), min_size=1, max_size=40),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    st.lists(_TEXT, min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_csv_chunks_match_the_chunked_percent_writer(rows, floats, ints, texts, seed):
    # Every column kind the writer takes, each drawn value tiled over 0, 1,
    # a chunk and a chunk and one rows in a drawn order; the holed column
    # has NaN in some chunks only, and one U column is a strided view.
    rng = np.random.default_rng(seed)

    def pick(pool):
        return np.asarray(pool)[rng.integers(len(pool), size=rows)]

    numbers = pick(np.array(floats))
    holed = pick(np.array(floats))
    holed[rng.random(rows) < rng.random() * (rng.random() < 0.7)] = math.nan
    strided = np.stack([pick(np.array(texts, dtype=str))] * 2, axis=1)[:, 1]
    _assert_csv_matches_reference(
        numbers,
        pick(np.array(ints, dtype=np.int64)),
        pick(np.array(texts, dtype=str)),
        strided,
        pick(np.array(texts, dtype=object)),
        holed,
        numbers[::-1].copy(),
    )


def test_csv_chunks_match_near_rounding_ties():
    # For each exponent e the kernel renders, values next to a tie of the
    # 17th digit: the double nearest to the tie and two ulps either side.
    rng = np.random.default_rng(11)
    values = []
    for e in range(-12, 45):
        for digits in rng.integers(10**16, 10**17, 24).tolist():
            tie = float(Decimal(10 * digits + 5).scaleb(e - 17))
            for step in range(-2, 3):
                values.append(tie)
                tie = np.nextafter(tie, math.inf)
            values.append(-tie)
    values = np.array(values)
    _assert_csv_matches_reference(values)
    # The same ties found by search: halves of the scaled value's last ulp.
    for scaled in (2.0**53 + 0.5, 10.0**16 + 0.5, 2.0**56 - 0.5, 10.0**17 - 0.5):
        values = np.array([scaled * 10.0**k for k in range(-27, 28)])
        _assert_csv_matches_reference(values)


def test_csv_chunks_match_powers_of_ten_and_the_kernel_edges():
    powers = 10.0 ** np.arange(-330, 309)
    below, above = np.nextafter(powers, 0), np.nextafter(powers, math.inf)
    _assert_csv_matches_reference(powers, below, above, -powers)
    for edge in (1e-11, 1e44):
        near = [edge]
        for _ in range(6):
            near = [np.nextafter(near[0], 0), *near, np.nextafter(near[-1], math.inf)]
        near = np.array(near)
        _assert_csv_matches_reference(near, -near, near * 10, near / 10)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    specials = np.array(specials)
    _assert_csv_matches_reference(specials, specials[::-1].copy())


def test_csv_chunks_match_a_column_of_many_exponents():
    # One chunk holds every layout: exponent form on both sides of the
    # fixed range, fixed form with and without leading zeros, and numbers
    # whose 17 digits round up to the next power of ten.
    rng = np.random.default_rng(12)
    n = io_formats._CHUNK_ROWS + 100
    values = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-14, 47, n)
    values *= rng.choice([-1.0, 1.0], n)
    values[::7] = np.round(values[::7], 3)
    tens = 10.0 ** rng.integers(-14, 47, n)
    values[::11] = 9.99999999999999999 * tens[::11]
    values[::13] = rng.integers(1, 1000, n)[::13] * tens[::13]
    _assert_csv_matches_reference(values, np.sort(values))


def test_csv_chunks_without_the_fast_path_match_it(monkeypatch):
    # Where long double is double, every cell goes through %: the same bytes.
    rng = np.random.default_rng(13)
    n = 2 * io_formats._CHUNK_ROWS + 3
    values = rng.normal(0, 1, n) * 10.0 ** rng.integers(-20, 50, n)
    holed = values[::-1].copy()
    holed[::5] = math.nan
    labels = np.array([format_float(v) for v in rng.normal(1e-3, 1e-9, 16)])
    labels = labels[np.arange(n) % 16]
    columns = (values, labels, holed, np.arange(n))
    fast = _csv_text("a,b,c,d", *columns)
    monkeypatch.setattr(io_formats, "_FAST", False)
    assert _csv_text("a,b,c,d", *columns) == fast == _reference_csv("a,b,c,d", *columns)


def test_csv_chunks_take_strided_columns():
    text = np.array(["ab", "cd", "ef"])[::2]
    values = np.arange(6.0)[::-3]
    assert not text.flags.contiguous and not values.flags.contiguous
    assert _csv_text("t,v", text, values) == "t,v\nab,5\nef,2\n"


def test_csv_chunks_refuse_a_nul_in_text():
    for column in (np.array(["a", "b\0c"]), np.array(["a", "b\0"], dtype=object)):
        with pytest.raises(ValueError, match="NUL"):
            _csv_text("v,t", np.ones(2), column)


def test_dump_json_rejects_nan():
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})


def test_svg_plots_refuse_mismatched_inputs(tmp_path):
    for x, y in ([0.0, 1.0], [1.0]), ([0.0], [1.0]):
        with pytest.raises(ValueError, match="two equal-length arrays"):
            line_plot(x, y, tmp_path / "line.svg")
    with pytest.raises(ValueError, match="z_grid shape"):
        heatmap([1.0, 2.0, 3.0], [0.1, 0.2], np.zeros((3, 2)), tmp_path / "heat.svg")
    assert not any(tmp_path.iterdir())


def test_svg_bytes_are_pinned(tmp_path):
    # Ticks at 0, at 0.01 <= |v| < 1e4 and at |v| >= 1e4 take the three
    # branches of the tick format; one heatmap cell is NaN.
    line_plot(
        [0.0, 1.2e4, 2.5e4],
        [0.05, 3.0, 1.5],
        tmp_path / "line.svg",
        title="t",
        x_label="x",
        y_label="y",
    )
    heatmap(
        [1.0, 2.0, 3.0],
        [0.1, 0.2],
        [[1.0, math.nan, 3.0], [4.0, 5.0, 6.0]],
        tmp_path / "heat.svg",
        title="h",
        x_label="x",
        y_label="y",
    )
    assert hashlib.sha256((tmp_path / "line.svg").read_bytes()).hexdigest() == (
        "c66008d166f20d38141aa68a050d7a5ab2481d0c3e72b8fe1cf85aa8687f9d12"
    )
    assert hashlib.sha256((tmp_path / "heat.svg").read_bytes()).hexdigest() == (
        "f41c7e100857dce5655aada4ad4a5cd09b4ebc9e4bf6321adad125a6a60d22d8"
    )


def _polyline(path) -> list[str]:
    text = Path(path).read_text()
    return text.split('<polyline points="', 1)[1].split('"', 1)[0].split(" ")


def _full_plot(monkeypatch, x, y, path) -> list[str]:
    """The polyline of line_plot with every point kept."""
    with monkeypatch.context() as m:
        m.setattr(svgplot, "_m4", lambda xa, ya, columns: slice(None))
        line_plot(x, y, path)
    return _polyline(path)


def test_line_plot_keeps_each_pixel_columns_extremes(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    n = 40_000
    x = np.cumsum(rng.uniform(0.5, 1.5, n))
    y = np.cumsum(rng.normal(0.0, 1.0, n)) + rng.normal(0.0, 5.0, n)
    full = _full_plot(monkeypatch, x, y, tmp_path / "full.svg")
    line_plot(x, y, tmp_path / "m4.svg")
    kept = _polyline(tmp_path / "m4.svg")
    width = 640 - 2 * 56
    assert len(kept) <= 4 * width
    columns: dict[int, list[int]] = {}
    for k, xk in enumerate(x):
        col = min(math.floor((xk - x[0]) / (x[-1] - x[0]) * width), width - 1)
        columns.setdefault(col, []).append(k)
    assert len(columns) == width
    wanted = set()
    for members in columns.values():
        ys = y[members]
        low, high = members[int(ys.argmin())], members[int(ys.argmax())]
        wanted.update((members[0], members[-1], low, high))
    # The kept points are the wanted ones, in order, at the full plot's
    # coordinates.
    assert kept == [full[k] for k in sorted(wanted)]


@pytest.mark.parametrize("case", ["at_limit", "x_repeats", "x_falls"])
def test_line_plot_keeps_every_point_otherwise(tmp_path, monkeypatch, case):
    rng = np.random.default_rng(9)
    n = 2112 if case == "at_limit" else 10_000
    x = np.arange(n, dtype=float)
    if case == "x_repeats":
        x[n // 2] = x[n // 2 - 1]
    elif case == "x_falls":
        x = x[::-1]
    y = rng.normal(0.0, 1.0, n)
    _full_plot(monkeypatch, x, y, tmp_path / "full.svg")
    line_plot(x, y, tmp_path / "plot.svg")
    assert (tmp_path / "plot.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()
