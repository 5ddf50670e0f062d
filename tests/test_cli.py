"""End-to-end checks of the command line interface (in-process)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmrsim
from odmrsim import (
    FormatError,
    IoFailure,
    SpinParams,
    SweepRecord,
    load_config,
    load_sweep,
    verify_manifest,
    write_sweep,
)
from odmrsim.cli import main
from odmrsim import io_formats
from odmrsim.io_formats import MAP_HEADER, dump_json, _read_table
from odmrsim.signal_chain import _dwell_layout

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

MINI_MAP_CONFIG = {
    "detector": {"shot_noise": False},
    "lockin": {
        "mode": "am",
        "mod_freq_hz": 5000.0,
        "time_constant_s": 0.005,
        "sample_rate_hz": 50000.0,
    },
    "sweep": {
        "f_start_hz": 95.5e6,
        "f_stop_hz": 100.5e6,
        "n_points": 21,
        "dwell_s": 0.025,
        "grid": {
            "p_opt_min_w": 0.1,
            "p_opt_max_w": 0.4,
            "n_opt": 3,
            "p_rf_min_w": 0.5,
            "p_rf_max_w": 1.5,
            "n_rf": 3,
        },
    },
}

MINI_STEPS_CONFIG = {
    "lockin": {
        "mode": "fm",
        "mod_freq_hz": 50.0,
        "time_constant_s": 0.5,
        "sample_rate_hz": 500.0,
        "fm_deviation_hz": 1e5,
    },
    "schedule": {
        "step_t": 2e-7,
        "step_period_s": 10.0,
        "n_steps": 2,
        "field_noise_step_sigma_t": 0.0,
        "output_decimation": 10,
    },
}


def read_map(path):
    """map.csv's columns by name, as float arrays."""
    return dict(zip(MAP_HEADER.split(","), _read_table(path, MAP_HEADER, required=2)))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def refusal(tmp_path, capsys, command, data, code, *flags):
    """stderr of a command on config data that exits code and leaves no --out."""
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, data), "--out", str(out)]
    assert main([*argv, *flags]) == code
    assert not out.exists()
    return capsys.readouterr().err


def test_spectrum_outputs_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["spectrum", "--out", str(out), "--svg"])
    assert code == 0
    assert (out / "transitions.csv").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "spectrum.svg").exists()
    checks = verify_manifest(out / "manifest.json")
    assert checks and all(checks.values())
    header = (out / "transitions.csv").read_text().splitlines()[0]
    assert header == "bz_t,label,lower_m,upper_m,frequency_hz,rel_strength"


def test_rerun_removes_outputs_its_predecessor_listed(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--out", str(out), "--svg"]) == 0
    assert main(["spectrum", "--out", str(out)]) == 0
    assert not (out / "spectrum.svg").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json",
        "spectrum.csv",
        "transitions.csv",
    ]
    assert verify_manifest(out / "manifest.json") == {
        "spectrum.csv": True,
        "transitions.csv": True,
    }


def test_rerun_removes_only_bare_listed_names(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    victim = tmp_path / "victim.txt"
    victim.write_text("keep\n")
    (out / ".hidden").write_text("keep\n")
    (out / "notes").mkdir()
    listed = {"sha256": "0" * 64, "bytes": 5}
    names = ("../victim.txt", ".hidden", "notes", "", "a/b")
    (out / "manifest.json").write_text(
        json.dumps({"outputs": {name: listed for name in names}})
    )
    assert main(["spectrum", "--out", str(out)]) == 0
    assert victim.read_text() == "keep\n"
    assert (out / ".hidden").exists() and (out / "notes").is_dir()
    assert all(verify_manifest(out / "manifest.json").values())
    # A manifest that cannot be read lists nothing.
    (out / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main(["spectrum", "--out", str(out)]) == 0
    assert all(verify_manifest(out / "manifest.json").values())


def write_clean_sweep(path):
    freq = np.linspace(95e6, 101e6, 41)
    record = SweepRecord(
        frequency_hz=freq,
        lockin_v=4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12),
        dc_v=np.full(freq.size, 0.0635),
    )
    write_sweep(record, path)
    return str(path)


def read_run(out):
    """Each file in out as bytes, the manifest without its duration."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files["manifest.json"])
    assert manifest.pop("duration_s") >= 0
    files["manifest.json"] = json.dumps(manifest).encode()
    return files


def test_clean_rerun_reads_no_manifest_and_keeps_unlisted_files(
    tmp_path, monkeypatch
):
    argv = ["fit", write_clean_sweep(tmp_path / "sweep.csv"), "--svg"]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    first = read_run(out)
    read = []
    load_manifest = odmrsim.cli.load_manifest

    def counted(path):
        read.append(path)
        return load_manifest(path)

    monkeypatch.setattr("odmrsim.cli.load_manifest", counted)
    # --out holds only this run's names: no listed file can be stale.
    assert main(argv + ["--out", str(out)]) == 0
    assert read == []
    assert read_run(out) == first
    # A file the manifest does not list survives; the manifest is read.
    (out / "notes.txt").write_text("mine\n")
    assert main(argv + ["--out", str(out)]) == 0
    assert len(read) == 1
    assert (out / "notes.txt").read_text() == "mine\n"
    assert read_run(out) == {**first, "notes.txt": b"mine\n"}


def test_rerun_writes_no_file_linked_to_its_old_manifest(tmp_path):
    # The old manifest becomes the new one's stage only when it is a plain
    # file with one link: a hard link or a symlink target keeps its bytes.
    argv = ["fit", write_clean_sweep(tmp_path / "sweep.csv")]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out), "--seed", "1"]) == 0
    old = (out / "manifest.json").read_bytes()
    os.link(out / "manifest.json", tmp_path / "hard.json")
    assert main(argv + ["--out", str(out), "--seed", "2"]) == 0
    assert (tmp_path / "hard.json").read_bytes() == old
    (out / "manifest.json").unlink()
    (out / "manifest.json").symlink_to(tmp_path / "hard.json")
    assert main(argv + ["--out", str(out), "--seed", "3"]) == 0
    assert (tmp_path / "hard.json").read_bytes() == old
    assert not (out / "manifest.json").is_symlink()
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3
    assert sorted(p.name for p in out.iterdir()) == ["fit.json", "manifest.json"]
    assert all(verify_manifest(out / "manifest.json").values())


def test_clean_rerun_rewrites_its_old_manifest_in_place(tmp_path):
    # The old manifest, a plain file with one link, becomes the new one's
    # stage: the rerun's manifest is the same inode, and so keeps its disk
    # block.  The open file holds the old inode, so no new file can take
    # its number.
    out = tmp_path / "run"
    argv = ["fit", write_clean_sweep(tmp_path / "sweep.csv"), "--out", str(out)]
    assert main(argv) == 0
    with open(out / "manifest.json", "rb") as old:
        assert main(argv + ["--seed", "1"]) == 0
        new = (out / "manifest.json").stat()
        assert os.fstat(old.fileno()).st_ino == new.st_ino
        assert json.loads(old.read())["seed"] == 1
    assert sorted(p.name for p in out.iterdir()) == ["fit.json", "manifest.json"]


@pytest.mark.parametrize("command", ["spectrum", "map", "steps"])
def test_no_hyperfine_manifest_config_reproduces_outputs(tmp_path, command):
    data = {"map": MINI_MAP_CONFIG, "steps": MINI_STEPS_CONFIG}.get(command, {})
    cfg = write_config(tmp_path, data)
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main([command, "--config", cfg, "--out", str(first), "--no-hyperfine"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["spin"]["hyperfine_rel_amp"] == 0.0
    recorded = write_config(tmp_path, manifest["config"], "recorded.json")
    assert main([command, "--config", recorded, "--out", str(rerun)]) == 0
    again = json.loads((rerun / "manifest.json").read_text())
    assert again["config"] == manifest["config"]
    assert again["outputs"] == manifest["outputs"]


@pytest.mark.parametrize(
    "config",
    [None, *sorted(p.name for p in CONFIG_DIR.glob("*.json")), "--no-hyperfine"],
)
def test_manifest_is_dump_json_of_its_run_manifest(tmp_path, config):
    # The config block is encoded once per config; the bytes are still
    # dump_json's of the whole manifest, duration_s included.
    argv = ["spectrum", "--out", str(tmp_path / "run")]
    cfg = load_config(None)
    if config == "--no-hyperfine":
        argv.append(config)
        cfg = replace(cfg, spin=replace(cfg.spin, hyperfine_rel_amp=0.0))
    elif config:
        argv += ["--config", str(CONFIG_DIR / config)]
        cfg = load_config(CONFIG_DIR / config)
    assert main(argv) == 0
    text = (tmp_path / "run" / "manifest.json").read_text()
    recorded = json.loads(text)
    assert text == dump_json(
        {
            "format_version": odmrsim.FORMAT_VERSION,
            "tool_version": odmrsim.__version__,
            "command": "spectrum",
            "seed": 0,
            "duration_s": recorded["duration_s"],
            "config": cfg.as_dict(),
            "outputs": recorded["outputs"],
        }
    )


def test_no_hyperfine_run_leaves_the_shared_defaults(tmp_path):
    # --no-hyperfine copies the one default config, so a default run after
    # it, in the same process, still records the default satellites.
    assert main(["spectrum", "--no-hyperfine", "--out", str(tmp_path / "flagged")]) == 0
    assert main(["spectrum", "--out", str(tmp_path / "default")]) == 0
    amps = [
        json.loads((tmp_path / run / "manifest.json").read_text())["config"]["spin"][
            "hyperfine_rel_amp"
        ]
        for run in ("flagged", "default")
    ]
    assert amps == [0.0, SpinParams().hyperfine_rel_amp]
    assert load_config(None) is load_config(None)
    assert load_config(None).spin == SpinParams()


def test_manifests_of_equal_configs_keep_their_own_text(tmp_path):
    # 0.0 == -0.0, so these two configs are equal, yet each manifest
    # records its own zero.
    for zero in ("-0.0", "0.0"):
        path = write_config(tmp_path, {"field": {"bx_t": float(zero)}}, f"{zero}.json")
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / zero)]) == 0
        text = (tmp_path / zero / "manifest.json").read_text()
        assert f'"bx_t": {zero},' in text


def test_spectrum_no_hyperfine_changes_output(tmp_path):
    a = tmp_path / "with"
    b = tmp_path / "without"
    assert main(["spectrum", "--out", str(a)]) == 0
    assert main(["spectrum", "--out", str(b), "--no-hyperfine"]) == 0
    assert (a / "spectrum.csv").read_text() != (b / "spectrum.csv").read_text()
    # The transition table never includes satellites, so it is unchanged.
    assert (
        a / "transitions.csv"
    ).read_text() == (b / "transitions.csv").read_text()


def test_fit_command_on_synthetic_sweep(tmp_path):
    freq = np.linspace(95e6, 101e6, 201)
    half_sq = (0.5e6) ** 2
    lockin = 4e-4 * half_sq / ((freq - 98e6) ** 2 + half_sq)
    record = SweepRecord(
        frequency_hz=freq,
        lockin_v=lockin,
        dc_v=np.full(freq.size, 0.0635),
    )
    sweep_path = tmp_path / "sweep.csv"
    write_sweep(record, sweep_path)
    out = tmp_path / "fitrun"
    assert main(["fit", str(sweep_path), "--out", str(out), "--svg"]) == 0
    assert (out / "fit.svg").exists()
    payload = json.loads((out / "fit.json").read_text())
    assert payload["center_hz"] == pytest.approx(98e6, rel=1e-6)
    assert payload["fwhm_hz"] == pytest.approx(1e6, rel=1e-4)
    assert payload["stop_test"] == "step"
    assert payload["contrast"] == pytest.approx(
        4e-4 / (0.0635 * 2 / np.pi), rel=1e-4
    )
    assert all(verify_manifest(out / "manifest.json").values())


cells = (
    st.floats().map(repr)
    | st.integers(-(10**6), 10**6).map(str)
    | st.sampled_from(["", "nan", "inf", "-0", "1e999", "1_0", " 2 ", "x"])
)
rows = st.lists(cells, min_size=1, max_size=4).map(",".join)


@st.composite
def lorentzian_sweeps(draw):
    """A sweep CSV that fits, or nearly does, with a few bytes overwritten."""
    n = draw(st.integers(0, 40))
    freq = np.linspace(95e6, 101e6, n)
    amp = draw(st.floats(-1e-3, 1e-3))
    noise = np.random.default_rng(draw(st.integers(0, 9))).normal(0, 1e-5, n)
    lockin = amp * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12) + noise
    text = "frequency_hz,lockin_v,dc_v\n" + "".join(
        f"{f!r},{v!r},0.0635\n" for f, v in zip(freq.tolist(), lockin.tolist())
    )
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


sweep_files = (
    st.binary(max_size=200)
    | st.lists(rows, max_size=12).map(
        lambda lines: "\n".join(["frequency_hz,lockin_v,dc_v", *lines]).encode()
    )
    | st.binary(max_size=60).map(lambda tail: b"frequency_hz,lockin_v,dc_v\n" + tail)
    | lorentzian_sweeps()
)


@settings(max_examples=150, deadline=None)
@given(sweep_files)
def test_any_bytes_as_sweep_load_or_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_bytes(data)
        try:
            load_sweep(path)
            loaded = True
        except FormatError:
            loaded = False
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = main(["fit", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if not loaded:
            assert code == 2


def vary(typical, lo, hi, *edges):
    """The typical value three times in four, else a float in [lo, hi] or an
    edge value."""
    other = st.floats(lo, hi) | st.sampled_from(edges) if edges else st.floats(lo, hi)
    return st.one_of(st.just(typical), st.just(typical), st.just(typical), other)


@st.composite
def command_configs(draw):
    """A command with a small config: tau x fs <= 500, at most 2 x 2 cells of
    5 points and 2e4 FM samples; typical values (those of MINI_MAP_CONFIG
    and MINI_STEPS_CONFIG) mixed with values across each key's range."""
    command = draw(st.sampled_from(["spectrum", "map", "steps"]))
    mod = draw(st.sampled_from([50.0, 500.0, 5000.0]))
    fs = mod * draw(st.sampled_from([10, 10, 12, 20]))
    tau = draw(vary(250.0, 15.0, 500.0)) / fs
    f_start = draw(vary(95.5e6, 0.0, 2e8))
    p_opt_min = draw(vary(0.1, 1e-3, 1.0))
    p_rf_min = draw(vary(0.5, 1e-3, 2.0))
    n_steps = draw(st.integers(1, 4))
    data = {
        "sample_preset": {"name": draw(st.sampled_from(["quenched", "annealed"]))},
        "spin": {
            "zfs_hz": draw(vary(70e6, 1e5, 2e8)),
            "hyperfine_offset_hz": draw(vary(5e6, 0.0, 2e7, 0.0)),
            "hyperfine_rel_amp": draw(vary(0.05, 0.0, 0.99, 0.0)),
        },
        "field": {
            "bx_t": draw(vary(0.0, -5e-3, 5e-3, 1e-4)),
            "by_t": draw(vary(0.0, -5e-3, 5e-3)),
            "bz_t": draw(vary(1e-3, -5e-3, 5e-3, 0.0)),
        },
        "lineshape": {
            "fwhm0_hz": draw(vary(900e3, 1e4, 1e7)),
            "contrast_max": draw(vary(0.02, 1e-4, 0.5)),
            "pl_rate_per_w": draw(vary(1e12, 1.0, 1e14, 1e4)),
        },
        "detector": {"shot_noise": draw(st.booleans())},
        "lockin": {
            "mode": "fm" if command == "steps" else "am",
            "mod_freq_hz": mod,
            "time_constant_s": tau,
            "sample_rate_hz": fs,
            "fm_deviation_hz": draw(vary(1e5, 1e3, 2e6)),
        },
        "sweep": {
            "f_start_hz": f_start,
            "f_stop_hz": f_start + draw(vary(5e6, 1e3, 5e7)),
            "n_points": draw(st.sampled_from([5, 5, 5, 2])),
            "dwell_s": draw(vary(5.0, 1.0, 12.0, 4.9)) * tau,
            "p_opt_w": draw(vary(0.4, 0.0, 2.0, 0.0)),
            "p_rf_w": draw(vary(1.0, 0.0, 5.0, 0.0)),
            "bz_start_t": draw(st.floats(-0.01, 0.01)),
            "bz_stop_t": draw(st.floats(-0.01, 0.01)),
            "n_fields": draw(st.integers(1, 5)),
            "grid": {
                "p_opt_min_w": p_opt_min,
                "p_opt_max_w": p_opt_min + draw(vary(0.3, 0.0, 1.0)),
                "n_opt": draw(st.integers(1, 2)),
                "p_rf_min_w": p_rf_min,
                "p_rf_max_w": p_rf_min + draw(vary(1.0, 0.0, 2.0)),
                "n_rf": draw(st.integers(1, 2)),
            },
        },
        "schedule": {
            "step_t": draw(vary(2e-7, -1e-6, 1e-6, 0.0)),
            "step_period_s": draw(vary(1.0, 0.05, 1.0)) * 2e4 / fs / n_steps,
            "n_steps": n_steps,
            "field_noise_step_sigma_t": draw(vary(0.0, 0.0, 1e-7, 7e-8)),
            "output_decimation": draw(st.integers(1, 50)),
        },
    }
    flags = ["--seed", str(draw(st.integers(0, 3)))] + draw(
        st.lists(st.sampled_from(["--svg", "--no-hyperfine"]), unique=True)
    )
    return command, data, flags


@settings(max_examples=60, deadline=None)
@given(command_configs())
def test_commands_on_drawn_configs_exit_0_1_or_2(drawn):
    # Warnings fail the suite, so a numpy warning fails this property too.
    command, data, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            code = main([command, "--config", str(cfg), "--out", str(out), *flags])
        assert code in (0, 1, 2)
        assert code == 0 or not out.exists()


def test_fit_non_convergence_is_domain_error(tmp_path, capsys, monkeypatch):
    # One iteration clears the NoPeakFound gates but no stop test.
    monkeypatch.setattr(odmrsim.analysis, "_MAX_ITER", 1)
    freq = np.linspace(95e6, 101e6, 201)
    lockin = 4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    sweep_path = tmp_path / "sweep.csv"
    write_sweep(SweepRecord(freq, lockin, np.full(freq.size, 0.0635)), sweep_path)
    out = tmp_path / "out"
    assert main(["fit", str(sweep_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no convergence after 1 iterations" in err
    assert "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("seed", [40, 99])
def test_fit_centre_outside_sweep_is_domain_error(tmp_path, capsys, seed):
    # The fit stops on a stop test with its centre outside the sweep (94.4
    # MHz at seed 40, 1.5 THz at seed 99, whose covariance is singular):
    # a domain error that names the centre and writes nothing.
    freq = np.linspace(95e6, 101e6, 201)
    lockin = 4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    lockin += np.random.default_rng(seed).normal(0.0, 8e-4, freq.size)
    sweep_path = tmp_path / "sweep.csv"
    write_sweep(SweepRecord(freq, lockin, np.full(freq.size, 0.0635)), sweep_path)
    out = tmp_path / "out"
    assert main(["fit", str(sweep_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "outside the sweep" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("result", ["raises", "nan"])
def test_fit_singular_covariance_is_domain_error(
    tmp_path, capsys, monkeypatch, result
):
    def inv(jtj):
        if result == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(jtj), np.nan)

    monkeypatch.setattr(np.linalg, "inv", inv)
    freq = np.linspace(95e6, 101e6, 201)
    lockin = 4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    sweep_path = tmp_path / "sweep.csv"
    write_sweep(SweepRecord(freq, lockin, np.full(freq.size, 0.0635)), sweep_path)
    out = tmp_path / "out"
    assert main(["fit", str(sweep_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "singular covariance" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_flat_data_is_domain_error(tmp_path, capsys):
    freq = np.linspace(95e6, 101e6, 101)
    record = SweepRecord(
        frequency_hz=freq,
        lockin_v=np.full(101, 1e-5),
        dc_v=np.full(101, 0.06),
    )
    sweep_path = tmp_path / "flat.csv"
    write_sweep(record, sweep_path)
    assert main(["fit", str(sweep_path), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_fit_edge_data_ends_without_numpy_warnings(tmp_path, capsys):
    # Warnings fail the suite, so these pin that extreme but readable sweeps
    # end in an exit code alone: non-finite cells are format errors, a fit
    # leaving floating-point range is a domain error, and a DC column with
    # no number, or so small a DC level that the contrast overflows, gives
    # no contrast.
    freq = np.linspace(95e6, 101e6, 21)
    lockin = 1e-3 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    cases = {
        "inf.csv": (freq, np.where(freq == freq[5], np.inf, lockin), 0.06, 2),
        "huge.csv": (freq, np.where(freq == freq[5], 1e300, lockin), 0.06, 1),
        "tiny.csv": (np.arange(21) * 5e-324, lockin, 0.06, 1),
        "nodc.csv": (freq, lockin, math.nan, 0),
        "tinydc.csv": (freq, lockin, 5e-324, 0),
    }
    for name, (f, y, dc, expected) in cases.items():
        path = tmp_path / name
        write_sweep(SweepRecord(f, y, np.full(f.size, dc)), path)
        out = tmp_path / name.replace(".csv", "")
        assert main(["fit", str(path), "--out", str(out)]) == expected
        if expected == 0:
            assert json.loads((out / "fit.json").read_text())["contrast"] is None
    assert capsys.readouterr().out.count(", contrast n/a\n") == 2


def test_fit_dc_median_past_the_float_range_is_finite(tmp_path, capsys):
    # 200 rows, so the median averages two middle values, whose sum
    # overflows: np.median's recipe wrote "dc_v": null and warned.
    freq = np.linspace(95e6, 101e6, 200)
    lockin = 4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    path = tmp_path / "huge_dc.csv"
    write_sweep(SweepRecord(freq, lockin, np.full(freq.size, 1.5e308)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert payload["dc_v"] == 1.5e308 and payload["contrast"] > 0
    capsys.readouterr()


def test_fit_malformed_csv_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["fit", str(bad), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"frequency_hz,lockin_v,dc_v\n1.0,\xff,3.0\n")
    assert main(["fit", str(binary), "--out", str(tmp_path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_bad_config_json_is_format_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_config_key_is_format_error(tmp_path):
    cfg = write_config(tmp_path, {"spin": {"zfs_mhz": 70.0}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("spectrum", {"sweep": {"p_opt_w": math.nan}}, "sweep.p_opt_w"),
        ("spectrum", {"field": {"bz_t": math.nan}}, "field.bz_t"),
        (
            "steps",
            {"lockin": {**MINI_STEPS_CONFIG["lockin"], "time_constant_s": math.inf}},
            "lockin.time_constant_s",
        ),
        (
            "spectrum",
            {"detector": {"collection_note": 0.11}},
            "detector.collection_note",
        ),
        # Sample counts beyond MAX_SAMPLES, rejected before any array exists.
        (
            "steps",
            {"lockin": {**MINI_STEPS_CONFIG["lockin"], "time_constant_s": 1e300}},
            "lockin.time_constant_s",
        ),
        (
            "steps",
            {
                **MINI_STEPS_CONFIG,
                "schedule": {**MINI_STEPS_CONFIG["schedule"], "step_period_s": 1e300},
            },
            "schedule.step_period_s",
        ),
        (
            "steps",
            {
                **MINI_STEPS_CONFIG,
                "schedule": {
                    **MINI_STEPS_CONFIG["schedule"],
                    "step_period_s": 1e-12,
                    "n_steps": 10**12,
                },
            },
            "schedule.n_steps",
        ),
        # The lock-in runs one pole at zero reference phase.
        ("spectrum", {"lockin": {"phase_rad": math.pi / 2}}, "lockin.phase_rad"),
        ("spectrum", {"lockin": {"filter_order": 100000000}}, "lockin.filter_order"),
        # The settling discard is always 5 tau, so even 2 x 5 tau is rejected.
        (
            "steps",
            {
                **MINI_STEPS_CONFIG,
                "schedule": {**MINI_STEPS_CONFIG["schedule"], "settle_discard_s": 5.0},
            },
            "schedule.settle_discard_s",
        ),
        # Sizes read from the config, bounded before any array exists.
        ("spectrum", {"sweep": {"n_points": 10**9}}, "sweep.n_points"),
        ("spectrum", {"sweep": {"n_fields": 10**9}}, "sweep.n_fields"),
        (
            "map",
            {
                **MINI_MAP_CONFIG,
                "sweep": {
                    **MINI_MAP_CONFIG["sweep"],
                    "grid": {
                        **MINI_MAP_CONFIG["sweep"]["grid"],
                        "n_opt": 10**6,
                        "n_rf": 10**6,
                    },
                },
            },
            "sweep.grid.n_opt x n_rf",
        ),
        (
            "map",
            {**MINI_MAP_CONFIG, "sweep": {**MINI_MAP_CONFIG["sweep"], "dwell_s": 1e4}},
            "sweep.dwell_s",
        ),
        # Satellites are dropped by hyperfine_rel_amp: 0 or --no-hyperfine.
        ("spectrum", {"spin": {"hyperfine": False}}, "spin.hyperfine: unknown key"),
        # A dwell shorter than the lock-in's 5 tau settling.
        (
            "map",
            {**MINI_MAP_CONFIG, "sweep": {**MINI_MAP_CONFIG["sweep"], "dwell_s": 0.02}},
            "sweep.dwell_s must be at least 5 x lockin.time_constant_s",
        ),
        # Each section's range checks, at a value just outside the range.
        *(
            ("spectrum", {section: {name: value}}, f"{section}.{name} must be")
            for section, name, value in [
                ("lineshape", "pl_rate_per_w", 0.0),
                ("sweep", "f_start_hz", -1.0),
                ("sweep", "p_opt_w", -1.0),
                ("sweep", "p_rf_w", -1.0),
                ("sweep", "n_fields", 0),
                ("sweep", "dwell_s", 0.0),
                ("schedule", "step_period_s", 0.0),
                ("schedule", "n_steps", 0),
                ("schedule", "output_decimation", 0),
                ("schedule", "field_noise_step_sigma_t", -1e-9),
                ("lockin", "mod_freq_hz", 0.0),
                ("spin", "hyperfine_offset_hz", -1.0),
            ]
        ),
        *(
            (
                "map",
                {"sweep": {"grid": {**MINI_MAP_CONFIG["sweep"]["grid"], name: value}}},
                f"sweep.grid.{name} must be",
            )
            for name, value in [("p_opt_min_w", 0), ("p_opt_max_w", 0), ("n_opt", 0)]
        ),
    ],
)
def test_rejected_config_writes_nothing(tmp_path, capsys, command, data, key):
    assert key in refusal(tmp_path, capsys, command, data, 2)


@pytest.mark.parametrize(
    "data",
    [
        {"sweep": {"bz_stop_t": 0.2}},
        {"field": {"bx_t": 0.08}, "sweep": {"bz_stop_t": 0.07}},
    ],
    ids=["axial", "transverse"],
)
def test_spectrum_scan_beyond_field_limit_writes_nothing(tmp_path, capsys, data):
    assert "exceeds 0.1 T" in refusal(tmp_path, capsys, "spectrum", data, 1)


def test_failed_fit_writes_nothing(tmp_path, capsys):
    freq = np.linspace(95e6, 101e6, 6)
    record = SweepRecord(
        frequency_hz=freq, lockin_v=np.full(6, 1e-5), dc_v=np.full(6, 0.06)
    )
    sweep = tmp_path / "flat.csv"
    write_sweep(record, sweep)
    out = tmp_path / "out"
    assert main(["fit", str(sweep), "--out", str(out)]) == 1
    assert "exactly flat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "tau, period", [(0.05, 1.0), (1.0, 10.0)], ids=["tau-0.05", "tau-1"]
)
def test_steps_discards_five_time_constants(tmp_path, tau, period):
    # The discard follows tau: 0.25 s of each 1 s step, 5 s of each 10 s step.
    data = {
        "lockin": {**MINI_STEPS_CONFIG["lockin"], "time_constant_s": tau},
        "schedule": {**MINI_STEPS_CONFIG["schedule"], "step_period_s": period},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["steps", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "steps.json").read_text())
    assert payload["settle_discard_s"] == 5.0 * tau


def test_failed_steps_writes_nothing(tmp_path, capsys):
    lockin = {**MINI_STEPS_CONFIG["lockin"], "fm_deviation_hz": 5e7}
    data = {**MINI_STEPS_CONFIG, "lockin": lockin}
    assert "fm deviation" in refusal(tmp_path, capsys, "steps", data, 1)


@pytest.mark.parametrize(
    "sigma, per_sample", [(1e-2, "0.206 T"), (1e308, "inf T")]
)
def test_out_of_range_field_noise_exits_1_before_drawing(
    tmp_path, capsys, monkeypatch, sigma, per_sample
):
    # The linear calibration asks 20.55 x the requested spread per sample:
    # 1e-2 T would need 0.21 T of field noise and 1e308 T an infinite one.
    from odmrsim import signal_chain

    def unexpected(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(signal_chain.np.random, "default_rng", unexpected)
    data = json.loads((CONFIG_DIR / "field_steps_tracking.json").read_text())
    data["schedule"]["field_noise_step_sigma_t"] = sigma
    err = refusal(tmp_path, capsys, "steps", data, 1)
    assert f"field_noise_step_sigma_t {sigma:g} T" in err
    assert f"per-sample sigma of {per_sample}" in err


def test_staircase_level_out_of_field_range_exits_1_before_drawing(
    tmp_path, capsys, monkeypatch
):
    # 50 mT steps around the 1 mT bias span -174 to +176 mT, beyond the
    # spin model's 0.1 T range: refused before any generator is made,
    # naming the step of largest |bz|, the last of eight 6 s steps.
    from odmrsim import signal_chain

    def unexpected(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(signal_chain.np.random, "default_rng", unexpected)
    data = json.loads((CONFIG_DIR / "shot_noise_tracking.json").read_text())
    data["detector"]["shot_noise"] = False
    data["schedule"].update(step_period_s=6.0, step_t=0.05)
    err = refusal(tmp_path, capsys, "steps", data, 1)
    assert "step 7 at t = 42 s, bz = 0.176 T: |B| = 0.176 T exceeds 0.1 T" in err
    assert "Traceback" not in err


def test_steps_names_the_first_step_dark_in_its_window(tmp_path, capsys, monkeypatch):
    # Step 1 (one block) draws one count in its settling discard and none in
    # its settled window; step 0 is lit.
    from odmrsim import signal_chain

    shot_counts = signal_chain._shot_counts
    blocks = []

    def dark_after_step_0(*args):
        counts = shot_counts(*args)
        blocks.append(counts.size)
        if len(blocks) > 1:
            counts[:] = 0.0
            counts[0] = 1.0
        return counts

    monkeypatch.setattr(signal_chain, "_shot_counts", dark_after_step_0)
    data = {**MINI_STEPS_CONFIG, "detector": {"shot_noise": True}}
    assert "step 1 at t = 10 s drew no photon" in refusal(
        tmp_path, capsys, "steps", data, 1
    )
    assert blocks == [5000, 5000]


@pytest.mark.parametrize(
    "data, message",
    [
        # No RF power: zero contrast, so a zero discriminator slope.
        ({"sweep": {"p_rf_w": 0.0}}, "flat discriminator response"),
        # A transverse field alone: nu2 names one line 1 uT below bz = 0 and
        # another above, so its chord over +-1 uT reads -98 gamma.
        ({"field": {"bx_t": 1e-4, "bz_t": 0.0}}, "field slope is undefined"),
        # A 3 mT transverse field mixes the levels until no line is
        # labelled nu2: two nu1 lines and m2_plus remain.
        ({"field": {"bx_t": 3e-3, "bz_t": 1e-3}}, "no nu2 line to track"),
        # Likewise within 1 uT of bz = 0: the chord reads -2.758e12 Hz/T
        # against an exact slope of 4.146e10 Hz/T.
        ({"field": {"bx_t": 1e-4, "bz_t": 5e-7}}, "field slope is undefined"),
        # A satellite line exists at the bias field but not 1 uT either side.
        (
            {
                "spin": {"zfs_hz": 448729.01740969345},
                "field": {"bx_t": 8.62719589501733e-05, "bz_t": 0.0},
            },
            "lines change within",
        ),
        # 4e-4 photons/s: every count is 0, so the lock-in would read 0 and
        # each estimate the bias, a perfect magnetometer.
        (
            {"lineshape": {"pl_rate_per_w": 1e-3}},
            "step 0 at t = 0 s drew no photon in its settled window "
            "(lineshape.pl_rate_per_w 0.001 per W)",
        ),
    ],
    ids=[
        "no-contrast",
        "no-field-slope",
        "no-nu2-line",
        "nu2-changes-branch",
        "line-set-changes",
        "no-light",
    ],
)
def test_untrackable_steps_scene_writes_nothing(tmp_path, capsys, data, message):
    data = {**MINI_STEPS_CONFIG, **data}
    assert message in refusal(tmp_path, capsys, "steps", data, 1)


@pytest.mark.parametrize(
    "command, data, message",
    [
        # An infinite linewidth would leave every contrast cell empty.
        (
            "spectrum",
            {"sweep": {"p_rf_w": 1e308}},
            "p_rf_w 1e+308 W: the linewidth overflows",
        ),
        # An infinite photon rate would read as a flat discriminator.
        (
            "steps",
            {**MINI_STEPS_CONFIG, "sweep": {"p_opt_w": 1e300}},
            "p_opt_w 1e+300 W: the photon rate overflows",
        ),
    ],
    ids=["spectrum-linewidth", "steps-photon-rate"],
)
def test_overflowing_power_writes_nothing(tmp_path, capsys, command, data, message):
    assert message in refusal(tmp_path, capsys, command, data, 1)


@pytest.mark.parametrize(
    "p_rf_w",
    [
        # The linewidth stays finite, but the discriminator slope underflows
        # to zero.
        1e200,
        # A contrast of about 1e-310: the slope is not zero, but the field
        # estimate divided by it, or its square in the step spread, overflowed.
        1.1125369292536007e-308,
    ],
)
def test_flat_discriminator_names_the_rf_power(tmp_path, capsys, p_rf_w):
    data = json.loads((CONFIG_DIR / "shot_noise_tracking.json").read_text())
    data["sweep"]["p_rf_w"] = p_rf_w
    err = refusal(tmp_path, capsys, "steps", data, 1)
    assert f"flat discriminator response (p_rf_w {p_rf_w:g} W, linewidth " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, base, shot_noise, powers, depth",
    [
        # Cell (1, 1) is the first in grid order to go below zero.
        ("map", MINI_MAP_CONFIG, True, "p_opt_w 0.25 W, p_rf_w 1 W", 1.03),
        ("steps", MINI_STEPS_CONFIG, False, "p_opt_w 0.4 W, p_rf_w 1 W", 1.24),
    ],
    ids=["map", "steps"],
)
def test_negative_photon_rate_writes_nothing(
    tmp_path, capsys, command, base, shot_noise, powers, depth
):
    # Lines 200 MHz wide at 95% contrast overlap to a dip deeper than the PL.
    data = {
        **base,
        "detector": {"shot_noise": shot_noise},
        "lineshape": {"fwhm0_hz": 2e8, "contrast_max": 0.95},
    }
    err = refusal(tmp_path, capsys, command, data, 1)
    assert f"{powers}: the summed dip depth {depth:g} exceeds 1, a negative" in err


# The detector gain enters only the volts steps writes: at every gain each
# case writes the same bytes, apart from those volts. The last entry is the
# largest gain tried; the squared volts of a noise-free map in volts would
# overflow from 1e162 V/A.
GAIN_CASES = {
    "map-quenched-1e165": ("map", "sensitivity_map_quenched.json", {}, 1e165),
    "map-quenched-1e300": ("map", "sensitivity_map_quenched.json", {}, 1e300),
    "map-shot-noise": (
        "map",
        "sensitivity_map_annealed.json",
        {"detector": {"shot_noise": True}},
        1e300,
    ),
    "map-pl-rate-1e28": (
        "map",
        "sensitivity_map_quenched.json",
        {"lineshape": {"pl_rate_per_w": 1e28}},
        1e300,
    ),
    "steps-field-noise": ("steps", "field_steps_tracking.json", {}, 1e300),
}


def gain_config(tmp_path, config, changes, gain):
    data = json.loads((CONFIG_DIR / config).read_text())
    data["detector"]["transimpedance_v_per_a"] = gain
    for section, values in changes.items():
        data.setdefault(section, {}).update(values)
    if "grid" in data["sweep"]:
        data["sweep"]["grid"].update(n_opt=2, n_rf=2)
    return write_config(tmp_path, data, f"gain_{gain:g}.json")


@pytest.mark.parametrize("case", list(GAIN_CASES))
def test_detector_gain_changes_only_the_written_volts(tmp_path, case):
    command, config, changes, top_gain = GAIN_CASES[case]
    gains = (1e-100, 1e6, top_gain)
    runs, slopes = [], []
    for gain in gains:
        cfg = gain_config(tmp_path, config, changes, gain)
        out = tmp_path / f"out_{gain:g}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        if command == "map":
            runs.append([(out / name).read_bytes() for name in ("map.csv", "argmin.json")])
            continue
        steps = json.loads((out / "steps.json").read_text())
        slopes.append(steps.pop("slope_v_per_hz"))
        # lockin_v is the last column of tracking.csv.
        track = (out / "tracking.csv").read_text().splitlines()
        runs.append([steps, [row.rsplit(",", 1)[0] for row in track]])
    assert runs == runs[:1] * len(gains)
    for gain, slope in zip(gains, slopes):
        assert slope / slopes[1] == pytest.approx(gain / gains[1], rel=1e-12)


def test_overflowing_detector_gain_writes_nothing(tmp_path, capsys):
    # At 1e28 photons/s per watt and 1e300 V/A the volts steps writes
    # overflow: the one place the detector gain can fail a run.
    cfg = gain_config(
        tmp_path,
        "field_steps_tracking.json",
        {"lineshape": {"pl_rate_per_w": 1e28}},
        1e300,
    )
    out = tmp_path / "out"
    assert main(["steps", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (
        "detector.transimpedance_v_per_a 1e+300 V/A: the detector voltage overflows"
        in err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "p_opt_min_w",
    [
        # rate0 dt underflows to 0: the counts are read as counts / dt /
        # rate0, never over rate0 dt.
        pytest.param(1e-20, id="rate0-dt-underflows"),
        # rate0 itself underflows to 0: the cell draws no counts.
        pytest.param(1e-30, id="rate0-underflows"),
    ],
)
def test_dark_shot_noise_map_fails_without_a_warning(tmp_path, p_opt_min_w):
    # At 1e-300 photons/s per watt no cell sees a photon, and no 0/0
    # warning becomes a traceback under PYTHONWARNINGS=error.
    data = json.loads((CONFIG_DIR / "sensitivity_map_quenched.json").read_text())
    data["detector"]["shot_noise"] = True
    data["lineshape"] = {"pl_rate_per_w": 1e-300}
    data["sweep"]["grid"].update(n_opt=2, n_rf=2, p_opt_min_w=p_opt_min_w)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    src = str(Path(odmrsim.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "odmrsim.cli", "map", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
    )
    assert proc.returncode == 1
    assert "no map cell produced a fittable resonance" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("zfs_hz", [1e155, 1e200])
def test_lines_whose_detuning_squares_overflow_add_nothing(tmp_path, capsys, zfs_hz):
    # Beyond about 1.3e154 Hz a detuning's square overflows; the line's
    # term is then +0.0, its exact limit, with no warning on the way.
    spectrum = json.loads((CONFIG_DIR / "spectrum_scan.json").read_text())
    spectrum["spin"] = {"zfs_hz": zfs_hz}
    grid = json.loads((CONFIG_DIR / "sensitivity_map_quenched.json").read_text())
    grid["spin"] = {"zfs_hz": zfs_hz}
    grid["sweep"]["grid"].update(n_opt=2, n_rf=2)
    out = tmp_path / "spectrum"
    map_out = tmp_path / "map"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum_cfg = write_config(tmp_path, spectrum, "spectrum.json")
        assert main(["spectrum", "--config", spectrum_cfg, "--out", str(out)]) == 0
        map_cfg = write_config(tmp_path, grid, "map.json")
        assert main(["map", "--config", map_cfg, "--out", str(map_out)]) == 1
    values = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert values.shape == (501, 2) and np.isfinite(values).all()
    err = capsys.readouterr().err
    assert "no map cell produced a fittable resonance" in err
    assert "Traceback" not in err
    assert not map_out.exists()


def test_failed_map_writes_nothing(tmp_path, capsys):
    # Too few photons for any cell's resonance to rise above the shot noise.
    data = json.loads(json.dumps(MINI_MAP_CONFIG))
    data["detector"]["shot_noise"] = True
    data["lineshape"] = {"pl_rate_per_w": 1e4}
    data["sweep"]["grid"].update(n_opt=2, n_rf=2)
    assert "no map cell" in refusal(tmp_path, capsys, "map", data, 1)


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["spectrum", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to") and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def raise_oserror(*args, **kwargs):
    raise OSError(28, "No space left on device")


def test_failed_write_in_stage_leaves_no_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("odmrsim.cli.line_plot", raise_oserror)
    out = tmp_path / "new" / "run"
    assert main(["spectrum", "--out", str(out), "--svg"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def snapshot(out):
    """Each entry of out: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


def test_directory_in_the_way_keeps_every_previous_file(tmp_path, capsys):
    # The rerun writes spectrum.svg, which is new, spectrum.csv, which it
    # replaces, and manifest.json: a directory at any of them is refused
    # before anything in --out changes, the old manifest included.
    for name in ("spectrum.svg", "spectrum.csv", "manifest.json"):
        out = tmp_path / name / "out"
        assert main(["spectrum", "--seed", "1", "--out", str(out)]) == 0
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        before = snapshot(out)
        assert main(["spectrum", "--out", str(out), "--svg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}: ")
        assert err.endswith(f"Is a directory: '{out / name}'\n")
        assert err.count("\n") == 1
        assert snapshot(out) == before
    # The old manifest lists no spectrum.svg, so that run still verifies.
    svg_run = tmp_path / "spectrum.svg" / "out"
    assert all(verify_manifest(svg_run / "manifest.json").values())


def tear_manifest_writes(monkeypatch):
    """Make io_formats._write_text write half of a manifest stage and fail."""
    write = io_formats._write_text

    def torn(path, text):
        if not os.fspath(path).endswith(".manifest.json.tmp"):
            return write(path, text)
        write(path, text[: len(text) // 2])
        raise IoFailure(f"cannot write {path}: [Errno 28] No space left on device")

    monkeypatch.setattr(io_formats, "_write_text", torn)


@pytest.mark.parametrize("failure", ["stage", "digest", "torn", "directory"])
def test_failed_rerun_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, failure):
    # Each way a rerun can fail before its commit: an output stage that
    # cannot be written, a stage that cannot be hashed, a manifest stage
    # written part-way and a directory in the way of an output.  --out,
    # with a file the old manifest does not list, so that it is read,
    # stays byte for byte as it was, its manifest the same file.
    out = tmp_path / "out"
    assert main(["spectrum", "--seed", "1", "--out", str(out)]) == 0
    (out / "notes.txt").write_text("mine\n")
    if failure == "stage":
        monkeypatch.setattr("odmrsim.cli.line_plot", raise_oserror)
    elif failure == "digest":
        monkeypatch.setattr(io_formats, "_digest", raise_oserror)
    elif failure == "torn":
        tear_manifest_writes(monkeypatch)
    else:
        (out / "spectrum.svg").mkdir()
    before = snapshot(out)
    inode = (out / "manifest.json").stat().st_ino
    capsys.readouterr()
    assert main(["spectrum", "--out", str(out), "--svg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert snapshot(out) == before
    assert (out / "manifest.json").stat().st_ino == inode
    monkeypatch.undo()
    assert all(verify_manifest(out / "manifest.json").values())


def test_failed_stage_write_keeps_the_previous_run(tmp_path, capsys):
    # A directory in the way of the spectrum.csv stage fails its write
    # after transitions.csv is staged: that stage goes, the old run stays.
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / ".spectrum.csv.tmp").mkdir()
    assert main(["spectrum", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out / '.spectrum.csv.tmp'}: " in err
    assert "Traceback" not in err
    assert not (out / ".transitions.csv.tmp").exists()
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert after == before


def test_unwritable_manifest_stage_publishes_nothing(tmp_path, capsys):
    # The manifest is staged before any output is renamed: when its stage
    # cannot be written, none of the run's outputs appears.
    out = tmp_path / "out"
    (out / ".manifest.json.tmp").mkdir(parents=True)
    assert main(["spectrum", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / '.manifest.json.tmp'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [".manifest.json.tmp"]


def test_failed_manifest_write_keeps_the_previous_outputs(
    tmp_path, capsys, monkeypatch
):
    # The second sweep's fit.json differs (its source name does), but the
    # manifest fails before any old file is removed or any stage renamed:
    # the old manifest, moved onto the new one's stage, goes back.
    out = tmp_path / "out"
    argv = ["--svg", "--out", str(out)]
    assert main(["fit", write_clean_sweep(tmp_path / "a.csv"), *argv]) == 0
    before = snapshot(out)
    monkeypatch.setattr("odmrsim.cli.write_run_manifest", raise_oserror)
    assert main(["fit", write_clean_sweep(tmp_path / "b.csv"), *argv]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert snapshot(out) == before
    assert all(verify_manifest(out / "manifest.json").values())


def test_interrupted_run_propagates_and_removes_its_out(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    freq = np.linspace(95e6, 101e6, 201)
    lockin = 4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12)
    sweep = tmp_path / "sweep.csv"
    write_sweep(SweepRecord(freq, lockin, np.full(freq.size, 0.0635)), sweep)
    monkeypatch.setattr("odmrsim.cli.write_json_record", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["fit", str(sweep), "--out", str(tmp_path / "new" / "run")])
    assert not (tmp_path / "new").exists()


def test_spectrum_and_fit_load_no_scipy(tmp_path):
    # The package runs on numpy alone: a fresh interpreter in which scipy
    # cannot be imported runs all four commands, and spectrum and fit load
    # no scipy module.
    sweep = write_clean_sweep(tmp_path / "sweep.csv")
    map_cfg = write_config(tmp_path, MINI_MAP_CONFIG, "map.json")
    steps_cfg = write_config(tmp_path, MINI_STEPS_CONFIG, "steps.json")
    runs = [
        ["spectrum", "--out", str(tmp_path / "s")],
        ["fit", sweep, "--out", str(tmp_path / "f")],
        ["map", "--config", map_cfg, "--out", str(tmp_path / "m")],
        ["steps", "--config", steps_cfg, "--out", str(tmp_path / "t")],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from odmrsim.cli import main\n"
        f"codes = [main(argv) for argv in {runs[:2]!r}]\n"
        "loaded = sorted(m for m, mod in sys.modules.items()\n"
        "                if m.split('.')[0] == 'scipy' and mod is not None)\n"
        f"codes += [main(argv) for argv in {runs[2:]!r}]\n"
        "print(codes, loaded)\n"
    )
    src = str(Path(odmrsim.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_map_requires_grid_and_am_mode(tmp_path):
    no_grid = dict(MINI_MAP_CONFIG)
    no_grid["sweep"] = {
        k: v for k, v in MINI_MAP_CONFIG["sweep"].items() if k != "grid"
    }
    cfg = write_config(tmp_path, no_grid, "no_grid.json")
    assert main(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 2

    fm_cfg = json.loads(json.dumps(MINI_MAP_CONFIG))
    fm_cfg["lockin"]["mode"] = "fm"
    fm_cfg["lockin"]["fm_deviation_hz"] = 1e5
    cfg2 = write_config(tmp_path, fm_cfg, "fm.json")
    assert main(["map", "--config", cfg2, "--out", str(tmp_path / "m2")]) == 2


def test_map_mini_grid_outputs(tmp_path):
    cfg = write_config(tmp_path, MINI_MAP_CONFIG)
    out = tmp_path / "maprun"
    assert main(["map", "--config", cfg, "--out", str(out), "--svg"]) == 0
    assert read_map(out / "map.csv")["p_opt_w"].size == 9
    payload = json.loads((out / "argmin.json").read_text())
    assert payload["n_cells"] == 9
    assert payload["n_failed"] == 0
    sim = payload["simulated"]
    ana = payload["analytic"]
    assert (sim["p_opt_w"], sim["p_rf_w"]) == (ana["p_opt_w"], ana["p_rf_w"])
    assert sim["eta_t_rthz"] == pytest.approx(ana["eta_t_rthz"], rel=0.05)
    assert (out / "map.svg").exists()
    assert all(verify_manifest(out / "manifest.json").values())


def test_noise_free_map_demodulates_no_per_cell_samples(tmp_path, monkeypatch):
    # No noise-free reading runs the demodulator: the dwell-response
    # operator, built once per map from the chain's adjoint weights, is the
    # only code that runs the cycle mean, and the cells of a noise-free map
    # reuse it and take dc_v from its closed form, the exact one-cycle mean.
    from odmrsim import signal_chain

    counted = {"demod": [], "comb": []}

    def counting(cls, key):
        process = cls.process

        def wrapper(self, values):
            counted[key][-1] += values.size
            return process(self, values)

        monkeypatch.setattr(cls, "process", wrapper)

    counting(signal_chain._Demodulator, "demod")
    counting(signal_chain._CycleMean, "comb")
    for side in (2, 3):
        data = json.loads(json.dumps(MINI_MAP_CONFIG))
        data["sweep"]["grid"].update(n_opt=side, n_rf=side)
        cfg = write_config(tmp_path, data, f"map{side}.json")
        signal_chain._dwell_response.cache_clear()
        for counts in counted.values():
            counts.append(0)
        out = tmp_path / f"map{side}"
        assert main(["map", "--config", cfg, "--out", str(out)]) == 0
        assert read_map(out / "map.csv")["p_opt_w"].size == side * side
    assert counted["demod"] == [0, 0]
    assert counted["comb"][0] == counted["comb"][1] > 0


def test_map_counts_a_dark_cell_as_failed(tmp_path):
    # At seed 7 the dim cell's shot-noise fit finds a peak but its DC column
    # holds no photon, so its contrast is undefined; the bright cell fits.
    data = json.loads(json.dumps(MINI_MAP_CONFIG))
    data["detector"]["shot_noise"] = True
    data["lineshape"] = {"pl_rate_per_w": 1000.0}
    data["sweep"]["grid"].update(
        p_opt_min_w=0.1, p_opt_max_w=1e9, n_opt=2, p_rf_min_w=1.0, p_rf_max_w=1.0, n_rf=1
    )
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["map", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    columns = read_map(out / "map.csv")
    assert columns["p_opt_w"].tolist() == [0.1, 1e9]
    assert math.isnan(columns["eta_t_rthz"][0])
    assert math.isfinite(columns["eta_t_rthz"][1])
    assert json.loads((out / "argmin.json").read_text())["n_failed"] == 1


def count_chain_samples(monkeypatch):
    """Counts of the samples drawn per sample (_shot_counts) and demodulated
    (_Demodulator.process) from here on, by "shot" and "demod"."""
    from odmrsim import signal_chain

    counted = {"shot": 0, "demod": 0}
    shot_counts = signal_chain._shot_counts
    process = signal_chain._Demodulator.process

    def counting_shot(mean, *streams):
        counted["shot"] += mean.size
        return shot_counts(mean, *streams)

    def counting_demod(self, values):
        counted["demod"] += values.size
        return process(self, values)

    monkeypatch.setattr(signal_chain, "_shot_counts", counting_shot)
    monkeypatch.setattr(signal_chain._Demodulator, "process", counting_demod)
    return counted


@pytest.mark.parametrize("margin, per_sample", [(1.001, False), (0.999, True)])
def test_shot_noise_cell_runs_samples_only_below_gaussian_threshold(
    tmp_path, monkeypatch, margin, per_sample
):
    # One cell whose dimmest sample holds margin x GAUSSIAN_MEAN_THRESHOLD
    # counts.  Above it the cell draws its noise per dwell and no count per
    # sample; below it every sample of the cell's lead-in and sweep draws a
    # count.  Neither side runs the demodulator: below the threshold the
    # counts' residual is weighed with the dwell-response operator's weights.
    from dataclasses import replace

    from odmrsim import signal_chain, synthesize_odmr
    from odmrsim.config import config_from_dict

    counted = count_chain_samples(monkeypatch)
    data = json.loads(json.dumps(MINI_MAP_CONFIG))
    one_cell = dict(p_opt_min_w=0.4, p_opt_max_w=0.4, p_rf_min_w=1.0, p_rf_max_w=1.0)
    data["sweep"]["grid"].update(one_cell, n_opt=1, n_rf=1)
    doc = config_from_dict(data)
    scene = replace(doc.scene(), p_opt_w=0.4, p_rf_w=1.0)
    depth = synthesize_odmr(
        scene.lines(), scene.broadening, 1.0, 0.4, doc.sweep.frequencies()
    ).values
    dimmest = 0.4 * doc.lockin.dt_s * (1.0 - depth.max())
    data["lineshape"] = {
        "pl_rate_per_w": margin * signal_chain.GAUSSIAN_MEAN_THRESHOLD / dimmest
    }
    runs = []
    for shot_noise in (False, True):
        data["detector"]["shot_noise"] = shot_noise
        cfg = write_config(tmp_path, data, f"shot_{shot_noise}.json")
        before = dict(counted)
        out = tmp_path / f"map_{shot_noise}"
        assert main(["map", "--config", cfg, "--out", str(out)]) == 0
        runs.append({key: counted[key] - before[key] for key in counted})
    dwell_n, _, n_dwells = _dwell_layout(doc.sweep, doc.lockin)
    samples = n_dwells * dwell_n if per_sample else 0
    assert runs == [{"shot": 0, "demod": 0}, {"shot": samples, "demod": 0}]


@pytest.mark.parametrize(
    "pl_rate_per_w, per_sample_cells",
    [(None, 0), (1e11, 0), (1e8, 9), (2.5e9, 3)],
    ids=["noise-free", "gaussian", "poisson", "mixed"],
)
def test_map_runs_no_demodulator_in_any_noise_regime(
    tmp_path, monkeypatch, pl_rate_per_w, per_sample_cells
):
    # A 3 x 3 map at 0.1 to 0.4 W: with shot noise at 1e11 photons/s per
    # watt every sample holds over 10,000 mean counts, at 1e8 every one
    # fewer, and at 2.5e9 only the 0.1 W row's do.  The cells that draw
    # their counts per sample say which regime each cell took; no cell, in
    # any regime, runs the demodulator.
    counted = count_chain_samples(monkeypatch)
    data = json.loads(json.dumps(MINI_MAP_CONFIG))
    if pl_rate_per_w is not None:
        data["detector"]["shot_noise"] = True
        data["lineshape"] = {"pl_rate_per_w": pl_rate_per_w}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["map", "--config", cfg, "--out", str(out)]) == 0
    doc = load_config(cfg)
    dwell_n, _, n_dwells = _dwell_layout(doc.sweep, doc.lockin)
    assert counted == {"shot": per_sample_cells * n_dwells * dwell_n, "demod": 0}


# The mini steps run is 2 x 10 s at 500 Hz: 10,000 samples.
ONE_SAMPLE_STEPS_CONFIG = {
    **MINI_STEPS_CONFIG,
    "schedule": {**MINI_STEPS_CONFIG["schedule"], "output_decimation": 10_000},
}


@pytest.mark.parametrize(
    "command, data, flags, simulator, key",
    [
        (
            "map",
            {**MINI_MAP_CONFIG, "sweep": {**MINI_MAP_CONFIG["sweep"], "n_points": 4}},
            [],
            "simulate_am_cells",
            "sweep.n_points",
        ),
        # 5 tau is 2.5 s, so a 2.5 s step keeps no sample after the discard.
        (
            "steps",
            {
                **MINI_STEPS_CONFIG,
                "schedule": {**MINI_STEPS_CONFIG["schedule"], "step_period_s": 2.5},
            },
            [],
            "simulate_fm_tracking",
            "schedule.step_period_s",
        ),
        # A one-sample trace cannot be plotted.
        (
            "steps",
            ONE_SAMPLE_STEPS_CONFIG,
            ["--svg"],
            "simulate_fm_tracking",
            "schedule.output_decimation",
        ),
    ],
    ids=["map-4-points", "steps-within-discard", "steps-svg-of-one-sample"],
)
def test_unanalysable_input_rejected_before_simulating(
    tmp_path, capsys, monkeypatch, command, data, flags, simulator, key
):
    from odmrsim import cli

    def unexpected(*args, **kwargs):
        raise AssertionError(f"{simulator} ran")

    monkeypatch.setattr(cli, simulator, unexpected)
    assert key in refusal(tmp_path, capsys, command, data, 2, *flags)


def test_oversized_operator_window_exits_2_before_building_it(
    tmp_path, capsys, monkeypatch
):
    # A 5 tau dwell of 31.25M samples passes every config bound, but one
    # dwell's response reaches 9 dwells: 281M samples of weights.
    from odmrsim import signal_chain

    def unexpected(*args, **kwargs):
        raise AssertionError("_dwell_response ran")

    monkeypatch.setattr(signal_chain, "_dwell_response", unexpected)
    data = json.loads((CONFIG_DIR / "sensitivity_map_quenched.json").read_text())
    data["lockin"].update(
        time_constant_s=62500.0, sample_rate_hz=100.0, mod_freq_hz=10.0
    )
    data["sweep"]["dwell_s"] = 312500.0
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["map", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sweep.dwell_s: the lock-in response of one dwell spans 9 dwells" in err
    assert not out.exists()


def test_many_step_refusal_holds_no_per_step_tuples(tmp_path, capsys):
    # 1,000,000 steps of 1 ns at 500 Hz: step 0 keeps no settled sample.
    # The windows are checked as arrays, so the refusal's traced peak is
    # about 49 B a step (41 B of it the staircase); building the list of
    # per-step tuples before the check takes 137 B.
    data = json.loads((CONFIG_DIR / "shot_noise_tracking.json").read_text())
    n_steps = 1_000_000
    data["schedule"].update(step_period_s=1e-9, n_steps=n_steps)
    cfg = write_config(tmp_path, data)
    tracemalloc.start()
    try:
        code = main(["steps", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "step at t = 0 s has 0 samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert peak / n_steps < 64


def test_steps_without_svg_writes_a_one_sample_trace(tmp_path):
    cfg = write_config(tmp_path, ONE_SAMPLE_STEPS_CONFIG)
    out = tmp_path / "out"
    assert main(["steps", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "tracking.csv").read_text().splitlines()) == 2


def test_steps_command_tracks_and_reports(tmp_path):
    cfg = write_config(tmp_path, MINI_STEPS_CONFIG)
    out = tmp_path / "stepsrun"
    assert main(["steps", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "steps.json").read_text())
    assert len(payload["step_means_t"]) == 2
    assert payload["sensitivity_t_rthz"] > 0
    assert payload["carrier_hz"] == pytest.approx(98.0373e6, abs=1e3)
    lines = (out / "tracking.csv").read_text().splitlines()
    assert lines[0] == "t_s,bz_true_t,bz_est_t,lockin_v"
    # 10 s at 500 Hz per step, two steps, decimated by ten.
    assert len(lines) - 1 == 1000
    assert all(verify_manifest(out / "manifest.json").values())


def test_steps_row_times_are_sample_indexes_times_dt(tmp_path):
    # Row k of tracking.csv holds sample k * output_decimation of the run,
    # so its t_s reads back as exactly (k * output_decimation) * dt; at a
    # decimation of 13, (dt * 13) * k differs in 417 of the 985 rows.
    data = json.loads((CONFIG_DIR / "shot_noise_tracking.json").read_text())
    data["detector"]["shot_noise"] = False
    data["schedule"].update(step_period_s=3.2, output_decimation=13)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["steps", "--config", cfg, "--out", str(out)]) == 0
    doc = load_config(cfg)
    d, dt = doc.schedule.output_decimation, doc.lockin.dt_s
    rows = (out / "tracking.csv").read_text().splitlines()[1:]
    t = [float(row.split(",")[0]) for row in rows]
    assert len(t) == len(range(0, 8 * 1600, d))  # 8 steps of 1,600 samples
    assert t == [k * d * dt for k in range(len(t))]


def test_steps_rejects_am_config(tmp_path):
    cfg = write_config(tmp_path, MINI_MAP_CONFIG)
    assert main(["steps", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_usage_errors_and_version(capsys):
    assert main([]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "0.1.0" in out


def test_parser_shared_across_calls_keeps_no_state(tmp_path, capsys):
    freq = np.linspace(95e6, 101e6, 101)
    record = SweepRecord(
        frequency_hz=freq,
        lockin_v=4e-4 * 0.25e12 / ((freq - 98e6) ** 2 + 0.25e12),
        dc_v=np.full(freq.size, 0.0635),
    )
    sweep = str(tmp_path / "sweep.csv")
    write_sweep(record, sweep)
    with_svg, without_svg = tmp_path / "a", tmp_path / "b"
    assert main(["fit", sweep, "--out", str(with_svg), "--svg"]) == 0
    assert main(["fit", sweep, "--out", str(without_svg)]) == 0
    assert (with_svg / "fit.svg").exists()
    assert not (without_svg / "fit.svg").exists()
    manifest = json.loads((without_svg / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["fit.json"]
    assert manifest["seed"] == 0

    assert main(["fit", "--seed", "x", sweep]) == 2
    assert main(["spectrum", "--out", str(tmp_path / "s")]) == 0
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out
    assert main(["spectrum", "--out", str(tmp_path / "s2"), "--seed", "3"]) == 0
    assert main(["spectrum", "--out", str(tmp_path / "s3")]) == 0
    assert json.loads((tmp_path / "s3" / "manifest.json").read_text())["seed"] == 0


@pytest.mark.parametrize("command", ["spectrum", "fit", "map", "steps"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--seed", "-1", "--out", str(out)]
    if command == "fit":
        argv.append(str(tmp_path / "sweep.csv"))
    assert main(argv) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_seed_changes_noisy_output(tmp_path):
    noisy = json.loads(json.dumps(MINI_STEPS_CONFIG))
    cfg = write_config(tmp_path, noisy)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["steps", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["steps", "--config", cfg, "--out", str(out_b), "--seed", "1"]) == 0
    assert main(["steps", "--config", cfg, "--out", str(out_c), "--seed", "2"]) == 0
    track_a = (out_a / "tracking.csv").read_bytes()
    assert track_a == (out_b / "tracking.csv").read_bytes()
    assert track_a != (out_c / "tracking.csv").read_bytes()


def per_cell_map(cfg, scene, p_opts, p_rfs, seed):
    """The map one cell at a time: one-cell simulate_am_cells, then
    fit_lorentzian, in units of the cell's unmodulated photon rate."""
    from dataclasses import replace

    from odmrsim import odmr_contrast
    from odmrsim.signal_chain import simulate_am_cells

    maps = np.full((3, p_opts.size, p_rfs.size), math.nan)
    for i, p_opt in enumerate(p_opts):
        for j, p_rf in enumerate(p_rfs):
            cell = replace(scene, p_opt_w=float(p_opt), p_rf_w=float(p_rf))
            seeds = [(seed, i, j)] if cfg.detector.shot_noise else None
            lockin, dc = simulate_am_cells(
                cell, cfg.sweep, cfg.lockin, [cell.p_opt_w], [cell.p_rf_w], seeds
            )
            record = SweepRecord(cfg.sweep.frequencies(), lockin[0], dc[0])
            try:
                fit = odmrsim.fit_lorentzian(record)
            except (odmrsim.NoPeakFound, odmrsim.NonConvergence):
                continue
            dc = float(np.median(record.dc_v))
            rate = cell.photon_rate_hz() * dc
            if rate > 0:
                maps[:, i, j] = fit.fwhm_hz, odmr_contrast(fit, dc), rate
    return maps


MAP_FILES = ("map.csv", "argmin.json", "map.svg")


def map_bytes(cfg, out, seed):
    argv = ["map", "--svg", "--config", cfg, "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    return [(out / name).read_bytes() for name in MAP_FILES]


def shot_noise_map(tmp_path, side, **lineshape):
    data = json.loads((CONFIG_DIR / "sensitivity_map_annealed.json").read_text())
    data["detector"]["shot_noise"] = True
    data["sweep"]["grid"].update(n_opt=side, n_rf=side)
    if lineshape:
        data["lineshape"] = lineshape
    return write_config(tmp_path, data, f"shot_{side}_{len(lineshape)}.json")


@pytest.mark.parametrize(
    "config, seed",
    [
        ("quenched", 0),
        ("annealed", 0),
        # The benchmark's shot-noise grid: long-tail fits, NaN cells and
        # chunk boundaries inside grid rows.
        ("shot-10x10", 1),
        ("shot-10x10", 2),
        # 400-8,000 mean counts a sample: every cell draws per-sample counts.
        ("poisson-3x3", 1),
    ],
)
def test_map_is_the_per_cell_loop_byte_for_byte(tmp_path, monkeypatch, config, seed):
    from odmrsim import cli

    cfg = {
        "quenched": str(CONFIG_DIR / "sensitivity_map_quenched.json"),
        "annealed": str(CONFIG_DIR / "sensitivity_map_annealed.json"),
        "shot-10x10": shot_noise_map(tmp_path, 10),
        "poisson-3x3": shot_noise_map(tmp_path, 3, pl_rate_per_w=1e9),
    }[config]
    stacked = map_bytes(cfg, tmp_path / "stacked", seed)
    monkeypatch.setattr(cli, "_simulated_map", per_cell_map)
    assert stacked == map_bytes(cfg, tmp_path / "per_cell", seed)


def test_map_does_not_depend_on_its_chunk_size(tmp_path, monkeypatch):
    from odmrsim import cli

    cfg = shot_noise_map(tmp_path, 10)
    n_points = 41
    runs = []
    # One grid row, three rows, seven cells (chunks end inside rows) and the
    # whole grid.
    for cells in (10, 30, 7, 100):
        monkeypatch.setattr(cli, "_MAP_CHUNK_VALUES", cells * n_points)
        runs.append(map_bytes(cfg, tmp_path / f"cells_{cells}", 3))
    assert all(run == runs[0] for run in runs[1:])


def test_large_map_holds_one_chunk_at_a_time(tmp_path, monkeypatch):
    # A 50 x 50 grid at 401 points: a whole-grid (cells, points) array takes
    # 8 MB and a (cells, points, 4) Jacobian stack 32 MB.  Every chunk
    # stays within _MAP_CHUNK_VALUES cells x points, and the command's traced
    # peak stays under half of one whole-grid (cells, points) array.  The
    # first chunk runs the full stacked fit and the rest skip it, to keep
    # the test quick.
    import tracemalloc

    from odmrsim import cli

    data = json.loads((CONFIG_DIR / "sensitivity_map_quenched.json").read_text())
    data["sweep"].update(n_points=401, dwell_s=0.025)
    data["sweep"]["grid"].update(n_opt=50, n_rf=50)
    cfg = write_config(tmp_path, data)
    real_fit = cli.fit_lorentzian_rows
    shapes = []

    def first_chunk_only(x, y):
        shapes.append(y.shape)
        if len(shapes) == 1:
            return real_fit(x, y)
        return [odmrsim.NoPeakFound("not fitted")] * len(y)

    monkeypatch.setattr(cli, "fit_lorentzian_rows", first_chunk_only)
    tracemalloc.start()
    try:
        assert main(["map", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows for rows, _ in shapes) == 2500
    assert all(rows * points <= cli._MAP_CHUNK_VALUES for rows, points in shapes)
    assert peak < 2500 * 401 * 8 / 2
