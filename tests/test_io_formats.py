"""Round trips and failure modes of the on-disk formats."""

import json
import math

import numpy as np
import pytest

from odmrsim import (
    FORMAT_VERSION,
    IoFailure,
    MalformedHeader,
    NonMonotoneAxis,
    NonNumericCell,
    PRESETS,
    SchemaViolation,
    SensitivityMap,
    SensitivityPoint,
    SweepRecord,
    config_from_dict,
    load_config,
    load_manifest,
    load_map_csv,
    load_sweep,
    verify_manifest,
    write_map_csv,
    write_run_manifest,
    write_sweep,
)
from odmrsim.io_formats import dump_json, format_float, format_rows


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
    with pytest.raises(MalformedHeader):
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
    points = [
        SensitivityPoint(0.1, 0.5, 5e5, 0.01, 1e11, 4e-9),
        SensitivityPoint(0.1, 1.0, math.nan, math.nan, math.nan, math.nan),
    ]
    path = tmp_path / "map.csv"
    write_map_csv(points, path)
    rows = load_map_csv(path)
    assert rows[0]["eta_t_rthz"] == pytest.approx(4e-9)
    assert math.isnan(rows[1]["eta_t_rthz"])
    assert math.isnan(rows[1]["fwhm_hz"])
    assert rows[1]["p_rf_w"] == pytest.approx(1.0)


def test_map_rows_sorted_by_powers(tmp_path):
    points = [
        SensitivityPoint(0.2, 0.5, 5e5, 0.01, 1e11, 4e-9),
        SensitivityPoint(0.1, 1.0, 5e5, 0.01, 1e11, 5e-9),
        SensitivityPoint(0.1, 0.5, 5e5, 0.01, 1e11, 6e-9),
    ]
    path = tmp_path / "map.csv"
    write_map_csv(points, path)
    rows = load_map_csv(path)
    keys = [(r["p_opt_w"], r["p_rf_w"]) for r in rows]
    assert keys == sorted(keys)


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
        tmp_path,
        command="spectrum",
        config={"a": 1},
        seed=3,
        output_paths=[out],
        duration_s=0.5,
    )
    data = load_manifest(tmp_path / "manifest.json")
    assert data["command"] == "spectrum"
    assert data["seed"] == 3
    assert data["format_version"] == FORMAT_VERSION
    assert verify_manifest(tmp_path / "manifest.json") == {"file.csv": True}
    out.write_text("tampered\n")
    assert verify_manifest(tmp_path / "manifest.json") == {"file.csv": False}


def test_load_manifest_rejects_other_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{\"a\": 1}\n")
    with pytest.raises(SchemaViolation):
        load_manifest(path)
    for outputs in ([1], {"a.csv": {"bytes": 3}}, {"a.csv": {"sha256": 7}}):
        path.write_text(json.dumps({"outputs": outputs}))
        with pytest.raises(SchemaViolation):
            verify_manifest(path)


def test_format_float_round_trips():
    rng = np.random.default_rng(5)
    for value in rng.uniform(-1e12, 1e12, 50):
        assert float(format_float(value)) == value
    assert float(format_float(3.8829e-9)) == 3.8829e-9


def test_format_rows_matches_format_float_bytes():
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
    expected = [
        f"{format_float(a)},{label},{format_float(b)}"
        for a, label, b in zip(numbers, labels, whole)
    ]
    assert format_rows(numbers, labels, whole) == expected
    assert format_rows(list(numbers)) == [format_float(v) for v in numbers]
    holed = numbers.copy()
    holed[[1, 7]] = math.nan
    assert format_rows(holed, labels) == [
        f"{'' if math.isnan(a) else format_float(a)},{label}"
        for a, label in zip(holed, labels)
    ]


def test_dump_json_rejects_nan():
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})
