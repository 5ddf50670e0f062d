"""Acceptance suite: eight end-to-end checks with pinned tolerances.

Each check prints a single PASS/FAIL line on the real stdout (capture
temporarily disabled) so the verdict is always visible in the test log.
Shared command-line runs (sensitivity maps, step tracking) execute once
per scenario through module-scoped fixtures and their outputs are
reused by every check that needs them.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from odmrsim import (
    BroadeningModel,
    FieldVector,
    SpinParams,
    SweepRecord,
    axial_frequencies,
    build_hamiltonian,
    eigenlevels,
    fit_lorentzian,
    level_crossing_field,
    load_config,
    load_manifest,
    saturated_contrast,
    saturated_fwhm,
    shot_noise_sensitivity,
    transitions,
    verify_manifest,
    write_sweep,
)
from odmrsim.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BOHR_MAGNETON_HZ_PER_T = 1.39962449171e10


@pytest.fixture
def finish(capfd):
    """Print one PASS/FAIL line for a criterion, then assert it."""

    def _finish(index: int, checks: list) -> None:
        ok = all(flag for flag, _ in checks)
        verdict = "PASS" if ok else "FAIL"
        detail = "; ".join(text for _, text in checks)
        with capfd.disabled():
            print(f"[acceptance {index}] {verdict}: {detail}", flush=True)
        failed = [text for flag, text in checks if not flag]
        assert not failed, " | ".join(failed)

    return _finish


def run_cli(args):
    t0 = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - t0
    assert code == 0, f"command {args} exited with {code}"
    return elapsed


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def map_quenched(workdir):
    out = workdir / "map_quenched"
    cfg = str(CONFIG_DIR / "sensitivity_map_quenched.json")
    elapsed = run_cli(
        ["map", "--config", cfg, "--seed", "0", "--out", str(out)]
    )
    return {"out": out, "elapsed": elapsed, "config": cfg}


@pytest.fixture(scope="module")
def map_quenched_rerun(workdir, map_quenched):
    out = workdir / "map_quenched_rerun"
    elapsed = run_cli(
        ["map", "--config", map_quenched["config"], "--seed", "0", "--out", str(out)]
    )
    return {"out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def map_annealed(workdir):
    out = workdir / "map_annealed"
    cfg = str(CONFIG_DIR / "sensitivity_map_annealed.json")
    elapsed = run_cli(
        ["map", "--config", cfg, "--seed", "0", "--out", str(out)]
    )
    return {"out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def steps_field_noise(workdir):
    out = workdir / "steps_field_noise"
    cfg = str(CONFIG_DIR / "field_steps_tracking.json")
    elapsed = run_cli(["steps", "--config", cfg, "--seed", "0", "--out", str(out)])
    return {"out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def steps_shot_noise(workdir):
    out = workdir / "steps_shot_noise"
    cfg = str(CONFIG_DIR / "shot_noise_tracking.json")
    elapsed = run_cli(["steps", "--config", cfg, "--seed", "0", "--out", str(out)])
    return {"out": out, "elapsed": elapsed, "config": cfg}


@pytest.fixture(scope="module")
def steps_shot_noise_rerun(workdir, steps_shot_noise):
    out = workdir / "steps_shot_noise_rerun"
    elapsed = run_cli(
        [
            "steps",
            "--config",
            steps_shot_noise["config"],
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    return {"out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def spectrum_pair(workdir):
    outs = []
    elapsed = 0.0
    for name in ("spectrum_a", "spectrum_b"):
        out = workdir / name
        elapsed += run_cli(["spectrum", "--out", str(out), "--svg", "--seed", "0"])
        outs.append(out)
    return {"outs": outs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def fit_pair(workdir):
    freq = np.linspace(95e6, 101e6, 201)
    half_sq = (0.5e6) ** 2
    record = SweepRecord(
        frequency_hz=freq,
        lockin_v=4e-4 * half_sq / ((freq - 98e6) ** 2 + half_sq),
        dc_v=np.full(freq.size, 0.0635),
    )
    sweep_path = workdir / "fit_input.csv"
    write_sweep(record, sweep_path)
    outs = []
    elapsed = 0.0
    for name in ("fit_a", "fit_b"):
        out = workdir / name
        elapsed += run_cli(["fit", str(sweep_path), "--out", str(out), "--seed", "0"])
        outs.append(out)
    return {"outs": outs, "elapsed": elapsed}


def test_criterion_1_level_crossing_field(finish):
    t0 = time.perf_counter()
    field_t = level_crossing_field(SpinParams())
    elapsed = time.perf_counter() - t0
    checks = [
        (
            abs(field_t - 1.2483e-3) <= 1.0e-6,
            f"crossing field {field_t * 1e3:.6f} mT (band 1.2483 +/- 0.001 mT)",
        ),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ]
    finish(1, checks)


def test_criterion_2_axial_formula_matches_eigensolver(finish):
    t0 = time.perf_counter()
    params = SpinParams()
    worst = 0.0
    for bz in np.linspace(0.0, 10e-3, 100):
        levels = eigenlevels(build_hamiltonian(params, FieldVector(0.0, 0.0, bz)))
        by_label = {
            line.label: line.frequency_hz
            for line in transitions(levels)
        }
        closed = axial_frequencies(params, bz)
        for label, expected in (
            ("nu1", closed.nu1_hz),
            ("nu2", closed.nu2_hz),
            ("dark", closed.dark_hz),
        ):
            # 1 Hz floor keeps the exactly-zero dark line at B=0 comparable.
            scale = max(abs(expected), 1.0)
            worst = max(worst, abs(by_label[label] - expected) / scale)
    elapsed = time.perf_counter() - t0
    checks = [
        (worst <= 1e-6, f"worst relative mismatch {worst:.2e} <= 1e-6 (100 fields)"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ]
    finish(2, checks)


def test_criterion_3_sensitivity_formula_oracle(finish):
    t0 = time.perf_counter()
    prefactor = 4.0 * math.sqrt(2.0) / (3.0 * math.sqrt(3.0))
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(20):
        fwhm = rng.uniform(1e5, 5e6)
        contrast = rng.uniform(1e-3, 0.05)
        rate = rng.uniform(1e10, 1e13)
        g = rng.uniform(1.9, 2.1)
        gamma_by_hand = g * BOHR_MAGNETON_HZ_PER_T
        by_hand = prefactor * fwhm / (gamma_by_hand * contrast * math.sqrt(rate))
        got = shot_noise_sensitivity(fwhm, contrast, rate, g_factor=g)
        worst = max(worst, abs(got - by_hand) / by_hand)

    spot = shot_noise_sensitivity(1e6, 0.01, 1e12)

    cfg = load_config(None)
    model = BroadeningModel(
        fwhm0_hz=cfg.lineshape.fwhm0_hz,
        rf_sat_w=cfg.lineshape.rf_sat_w,
        contrast_max=cfg.lineshape.contrast_max,
        opt_sat_w=cfg.lineshape.opt_sat_w,
        rf_contrast_sat_w=cfg.lineshape.rf_contrast_sat_w,
    )
    p_opt = cfg.sweep.p_opt_w
    p_rf = cfg.sweep.p_rf_w
    eta_quenched = shot_noise_sensitivity(
        float(saturated_fwhm(model, p_rf)),
        float(saturated_contrast(model, p_rf, p_opt)),
        p_opt * cfg.lineshape.pl_rate_per_w,
        g_factor=cfg.spin.g_factor,
    )
    elapsed = time.perf_counter() - t0
    checks = [
        (worst <= 1e-12, f"20 random inputs vs hand arithmetic, worst {worst:.2e}"),
        (
            abs(spot - 3.88e-9) <= 0.01e-9,
            f"spot value {spot * 1e9:.4f} nT/rtHz (band 3.88 +/- 0.01)",
        ),
        (
            abs(eta_quenched - 3.5e-9) <= 0.35e-9,
            f"quenched operating point {eta_quenched * 1e9:.4f} nT/rtHz "
            "(band 3.5 +/- 10%)",
        ),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ]
    finish(3, checks)


def test_criterion_4_fit_recovery_and_ci_calibration(finish):
    t0 = time.perf_counter()
    freq = np.linspace(95e6, 101e6, 201)
    true_center = 98.0e6
    true_fwhm = 1.0e6
    amplitude = 1.0
    noise_sigma = amplitude / 20.0
    half_sq = (true_fwhm / 2.0) ** 2
    clean = 0.1 + amplitude * half_sq / ((freq - true_center) ** 2 + half_sq)

    n_trials = 500
    fwhm_errors = []
    center_hits = 0
    fwhm_hits = 0
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((815, trial)))
        values = clean + rng.normal(0.0, noise_sigma, freq.size)
        fit = fit_lorentzian(SweepRecord(freq, values, np.full(freq.size, 1.0)))
        fwhm_errors.append(abs(fit.fwhm_hz - true_fwhm) / true_fwhm)
        if fit.center_ci_hz[0] <= true_center <= fit.center_ci_hz[1]:
            center_hits += 1
        if fit.fwhm_ci_hz[0] <= true_fwhm <= fit.fwhm_ci_hz[1]:
            fwhm_hits += 1

    median_err = float(np.median(fwhm_errors))
    center_cov = center_hits / n_trials
    fwhm_cov = fwhm_hits / n_trials
    elapsed = time.perf_counter() - t0
    checks = [
        (
            median_err <= 0.02,
            f"median FWHM error {median_err * 100:.2f}% <= 2% (SNR 20, "
            f"{n_trials} trials)",
        ),
        (
            0.92 <= center_cov <= 0.98,
            f"center CI coverage {center_cov * 100:.1f}% in [92, 98]%",
        ),
        (
            0.92 <= fwhm_cov <= 0.98,
            f"FWHM CI coverage {fwhm_cov * 100:.1f}% in [92, 98]%",
        ),
        (elapsed < 120.0, f"runtime {elapsed:.1f} s < 120 s"),
    ]
    finish(4, checks)


def test_criterion_5_step_tracking_sensitivity(steps_field_noise, finish):
    payload = json.loads((steps_field_noise["out"] / "steps.json").read_text())
    sens = payload["sensitivity_t_rthz"]
    max_resid = max(abs(r) for r in payload["residuals_t"])
    elapsed = steps_field_noise["elapsed"]
    checks = [
        (
            abs(sens - 49.5e-9) <= 3.0e-9,
            f"sensitivity {sens * 1e9:.2f} nT/rtHz (band 49.5 +/- 3)",
        ),
        (
            max_resid < 30e-9,
            f"max step residual {max_resid * 1e9:.2f} nT < 30 nT",
        ),
        (elapsed < 180.0, f"runtime {elapsed:.1f} s < 180 s"),
    ]
    finish(5, checks)


def test_criterion_6_shot_noise_consistency(steps_shot_noise, finish):
    payload = json.loads((steps_shot_noise["out"] / "steps.json").read_text())
    measured = payload["sensitivity_t_rthz"]

    cfg = load_config(steps_shot_noise["config"])
    model = BroadeningModel(
        fwhm0_hz=cfg.lineshape.fwhm0_hz,
        rf_sat_w=cfg.lineshape.rf_sat_w,
        contrast_max=cfg.lineshape.contrast_max,
        opt_sat_w=cfg.lineshape.opt_sat_w,
        rf_contrast_sat_w=cfg.lineshape.rf_contrast_sat_w,
    )
    p_opt = cfg.sweep.p_opt_w
    p_rf = cfg.sweep.p_rf_w
    predicted = shot_noise_sensitivity(
        float(saturated_fwhm(model, p_rf)),
        float(saturated_contrast(model, p_rf, p_opt)),
        p_opt * cfg.lineshape.pl_rate_per_w,
        g_factor=cfg.spin.g_factor,
    )
    ratio = measured / predicted
    elapsed = steps_shot_noise["elapsed"]
    checks = [
        (
            0.75 <= ratio <= 1.25,
            f"measured {measured * 1e9:.3f} vs predicted {predicted * 1e9:.3f} "
            f"nT/rtHz, ratio {ratio:.3f} in [0.75, 1.25]",
        ),
        (elapsed < 300.0, f"runtime {elapsed:.1f} s < 300 s"),
    ]
    finish(6, checks)


def test_criterion_7_map_argmin_and_preset_ratio(map_quenched, map_annealed, finish):
    quenched = json.loads((map_quenched["out"] / "argmin.json").read_text())
    annealed = json.loads((map_annealed["out"] / "argmin.json").read_text())

    def cell(entry):
        return (entry["p_opt_w"], entry["p_rf_w"])

    ratio = annealed["simulated"]["eta_t_rthz"] / quenched["simulated"]["eta_t_rthz"]
    elapsed = map_quenched["elapsed"] + map_annealed["elapsed"]
    checks = [
        (
            cell(quenched["simulated"]) == cell(quenched["analytic"]),
            f"quenched argmin cell {cell(quenched['simulated'])} matches analytic",
        ),
        (
            cell(annealed["simulated"]) == cell(annealed["analytic"]),
            f"annealed argmin cell {cell(annealed['simulated'])} matches analytic",
        ),
        (
            quenched["n_failed"] == 0 and annealed["n_failed"] == 0,
            "no failed grid cells",
        ),
        (
            12.0 <= ratio <= 20.0,
            f"annealed/quenched minima ratio {ratio:.2f} in [12, 20]",
        ),
        (elapsed < 120.0, f"runtime {elapsed:.1f} s < 120 s (20x20 grids)"),
    ]
    finish(7, checks)


def test_criterion_8_determinism(
    finish,
    map_quenched,
    map_quenched_rerun,
    steps_shot_noise,
    steps_shot_noise_rerun,
    spectrum_pair,
    fit_pair,
):
    pairs = [
        (map_quenched["out"], map_quenched_rerun["out"], ("map.csv", "argmin.json")),
        (
            steps_shot_noise["out"],
            steps_shot_noise_rerun["out"],
            ("tracking.csv", "steps.json"),
        ),
        (
            spectrum_pair["outs"][0],
            spectrum_pair["outs"][1],
            ("transitions.csv", "spectrum.csv", "spectrum.svg"),
        ),
        (fit_pair["outs"][0], fit_pair["outs"][1], ("fit.json",)),
    ]
    checks = []
    for dir_a, dir_b, names in pairs:
        identical = all(
            (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            for name in names
        )
        digests_a = load_manifest(dir_a / "manifest.json")["outputs"]
        digests_b = load_manifest(dir_b / "manifest.json")["outputs"]
        verified = all(verify_manifest(dir_a / "manifest.json").values()) and all(
            verify_manifest(dir_b / "manifest.json").values()
        )
        checks.append(
            (
                identical and digests_a == digests_b and verified,
                f"{dir_a.name} rerun byte-identical with matching digests",
            )
        )
    rerun_elapsed = (
        map_quenched_rerun["elapsed"]
        + steps_shot_noise_rerun["elapsed"]
        + spectrum_pair["elapsed"]
        + fit_pair["elapsed"]
    )
    checks.append((rerun_elapsed < 60.0, f"rerun time {rerun_elapsed:.1f} s < 60 s"))
    finish(8, checks)
