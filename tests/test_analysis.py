import math

import numpy as np
import pytest

from odmrsim import (
    EmptyGrid,
    FieldTimeline,
    LockInConfig,
    NonConvergence,
    NonPositiveInput,
    NoPeakFound,
    PRESETS,
    ScheduleMismatch,
    SHOT_NOISE_PREFACTOR,
    SQUARE_AM_GAIN,
    SweepRecord,
    TimeSeries,
    ZeroDC,
    analyze_steps,
    build_sensitivity_map,
    fit_lorentzian,
    odmr_contrast,
    shot_noise_sensitivity,
)
from odmrsim import analysis

TRUE_CENTER = 98.04e6
TRUE_FWHM = 1.0e6


def lorentz(x, center, fwhm, amp, offset):
    half_sq = (0.5 * fwhm) ** 2
    return offset + amp * half_sq / ((x - center) ** 2 + half_sq)


def clean_sweep(amp=1.0, offset=0.1, n=201):
    x = np.linspace(95e6, 101e6, n)
    return x, lorentz(x, TRUE_CENTER, TRUE_FWHM, amp, offset)


def sweep(x, y):
    """A sweep record of lock-in values y over frequencies x."""
    return SweepRecord(frequency_hz=x, lockin_v=y, dc_v=np.ones(np.size(y)))


def test_fit_recovers_clean_parameters():
    x, y = clean_sweep()
    fit = fit_lorentzian(sweep(x, y))
    assert fit.center_hz == pytest.approx(TRUE_CENTER, rel=1e-9)
    assert fit.fwhm_hz == pytest.approx(TRUE_FWHM, rel=1e-8)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-8)
    assert fit.offset == pytest.approx(0.1, rel=1e-7)
    assert fit.rss < 1e-12
    np.testing.assert_allclose(fit.evaluate(x), y, atol=1e-8)


def test_fit_accepts_sweep_record():
    x, y = clean_sweep()
    record = SweepRecord(frequency_hz=x, lockin_v=y, dc_v=np.full_like(x, 2.0))
    fit = fit_lorentzian(record)
    assert fit.center_hz == pytest.approx(TRUE_CENTER, rel=1e-9)


def test_fit_handles_negative_dips():
    x, y = clean_sweep(amp=-0.5, offset=1.0)
    fit = fit_lorentzian(sweep(x, y))
    assert fit.amplitude == pytest.approx(-0.5, rel=1e-7)
    assert fit.fwhm_hz == pytest.approx(TRUE_FWHM, rel=1e-7)


def test_fit_confidence_intervals_shrink_with_noise():
    x, y = clean_sweep()
    rng = np.random.default_rng(0)
    noisy = y + rng.normal(0, 0.05, x.size)
    quieter = y + rng.normal(0, 0.005, x.size)
    loud = fit_lorentzian(sweep(x, noisy))
    quiet = fit_lorentzian(sweep(x, quieter))
    assert (loud.center_ci_hz[1] - loud.center_ci_hz[0]) > 5 * (
        quiet.center_ci_hz[1] - quiet.center_ci_hz[0]
    )


def test_fit_interval_coverage_near_nominal():
    x, clean = clean_sweep()
    hits = 0
    n_trials = 150
    for seed in range(n_trials):
        rng = np.random.default_rng(seed)
        fit = fit_lorentzian(sweep(x, clean + rng.normal(0, 0.05, x.size)))
        if fit.center_ci_hz[0] <= TRUE_CENTER <= fit.center_ci_hz[1]:
            hits += 1
    assert 0.88 <= hits / n_trials <= 0.99


def test_fit_rejects_flat_and_pure_noise_data():
    x = np.linspace(0, 1e6, 101)
    with pytest.raises(NoPeakFound):
        fit_lorentzian(sweep(x, np.full(101, 0.7)))
    rng = np.random.default_rng(1)
    with pytest.raises(NoPeakFound):
        fit_lorentzian(sweep(x, rng.normal(0, 1.0, 101)))


@pytest.mark.parametrize("seed", [40, 99])
def test_fit_rejects_a_centre_outside_the_sweep(seed):
    # A weak 98 MHz line under noise twice its height: the fit stops on a
    # stop test with its centre below the sweep (seed 40, 94.4 MHz) or far
    # above it (seed 99, 1.5 THz), so no resonance was found.
    x = np.linspace(95e6, 101e6, 201)
    y = lorentz(x, 98e6, 1e6, 4e-4, 0.0)
    noisy = y + np.random.default_rng(seed).normal(0.0, 8e-4, x.size)
    with pytest.raises(NoPeakFound, match="outside the sweep"):
        fit_lorentzian(sweep(x, noisy))


def reference_fit(monkeypatch, record):
    """The fit at the relative-step test alone, with ftol and gtol switched off."""
    with monkeypatch.context() as m:
        m.setattr(analysis, "_FTOL", 0.0)
        m.setattr(analysis, "_GTOL", 0.0)
        fit = fit_lorentzian(record)
    assert fit.stop_test == "step"
    return fit


@pytest.mark.parametrize(
    "sigma, tolerances, fired",
    [
        (0.0, {}, "step"),
        (0.05, {}, "gtol"),
        (0.05, {"_GTOL": 0.0}, "ftol"),
    ],
    ids=["step", "gtol", "ftol"],
)
def test_each_stop_test_ends_a_fit_near_the_reference(
    monkeypatch, sigma, tolerances, fired
):
    # A noise-free fit ends at the step test: its residual is rounding noise,
    # whose cosine with the Jacobian columns stays far above _GTOL.  A noisy
    # fit meets the cosine test first, or the stalled rss with that test off.
    x, clean = clean_sweep()
    record = sweep(x, clean + np.random.default_rng(0).normal(0, sigma, x.size))
    ref = reference_fit(monkeypatch, record)
    for name, value in tolerances.items():
        monkeypatch.setattr(analysis, name, value)
    fit = fit_lorentzian(record)
    assert fit.stop_test == fired
    assert fit.n_iter <= ref.n_iter
    for key, ci in (("center_hz", ref.center_ci_hz), ("fwhm_hz", ref.fwhm_ci_hz)):
        half_width = 0.5 * (ci[1] - ci[0])
        assert abs(getattr(fit, key) - getattr(ref, key)) <= 0.01 * half_width


def test_failing_fit_stops_early(monkeypatch):
    # Pure noise holds no resonance.  With the step test alone this fit runs
    # all 200 iterations (397 solves) before its amplitude gate rejects it.
    x = np.linspace(95e6, 101e6, 101)
    noise = sweep(x, np.random.default_rng(3).normal(0.0, 1.0, x.size))
    real_solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append(1)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with pytest.raises(NoPeakFound):
        fit_lorentzian(noise)
    assert 0 < len(calls) <= 80


def test_fit_out_of_iterations_is_non_convergence(monkeypatch):
    # One step from the initial guess clears both NoPeakFound gates but no
    # stop test, so the fit has not converged.
    monkeypatch.setattr(analysis, "_MAX_ITER", 1)
    x, y = clean_sweep()
    with pytest.raises(NonConvergence, match="no convergence after 1 iterations"):
        fit_lorentzian(sweep(x, y))


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_lorentzian(sweep(np.arange(4.0), np.arange(4.0)))
    with pytest.raises(ValueError):
        sweep(np.arange(10.0), np.arange(9.0))


def test_contrast_inverts_demodulation_gain():
    x, y = clean_sweep(amp=SQUARE_AM_GAIN * 0.016 * 0.0636, offset=0.0)
    fit = fit_lorentzian(sweep(x, y))
    assert odmr_contrast(fit, 0.0636) == pytest.approx(0.016, rel=1e-6)
    with pytest.raises(ZeroDC):
        odmr_contrast(fit, 0.0)


def test_sensitivity_prefactor_value():
    assert SHOT_NOISE_PREFACTOR == pytest.approx(
        4 * math.sqrt(2) / (3 * math.sqrt(3)), rel=1e-12
    )
    assert SHOT_NOISE_PREFACTOR == pytest.approx(1.0886621, rel=1e-7)


def test_sensitivity_spot_value():
    # 1 MHz linewidth, 1% contrast, 1e12 detected photons per second.
    eta = shot_noise_sensitivity(1e6, 0.01, 1e12)
    assert eta == pytest.approx(3.8829e-9, rel=1e-4)


def test_sensitivity_scalings():
    base = shot_noise_sensitivity(1e6, 0.01, 1e12)
    assert shot_noise_sensitivity(2e6, 0.01, 1e12) == pytest.approx(2 * base)
    assert shot_noise_sensitivity(1e6, 0.02, 1e12) == pytest.approx(base / 2)
    assert shot_noise_sensitivity(1e6, 0.01, 4e12) == pytest.approx(base / 2)


def test_sensitivity_rejects_non_positive_inputs():
    for bad in (
        (0.0, 0.01, 1e12),
        (1e6, 0.0, 1e12),
        (1e6, 0.01, 0.0),
    ):
        with pytest.raises(NonPositiveInput):
            shot_noise_sensitivity(*bad)


def test_map_optimum_sits_at_exact_rf_balance():
    # For the quenched numbers d(eta)/d(p_rf) = 0 solves
    # 1/(2 (p + 0.25)) + 1/(p + 2/3) = 1/p, whose root is exactly 1 W.
    preset = PRESETS["quenched"]
    grid = build_sensitivity_map(
        preset.broadening,
        preset.pl_rate_per_w,
        p_opt_values=[0.4],
        p_rf_values=np.linspace(0.2, 1.8, 9),
    )
    best = grid.best()
    assert best.p_rf_w == pytest.approx(1.0)
    assert best.eta_t_rthz == pytest.approx(3.525e-9, rel=1e-3)


def test_map_prefers_maximum_optical_power():
    preset = PRESETS["quenched"]
    grid = build_sensitivity_map(
        preset.broadening,
        preset.pl_rate_per_w,
        p_opt_values=np.linspace(0.05, 0.4, 8),
        p_rf_values=[1.0],
    )
    assert grid.best().p_opt_w == pytest.approx(0.4)


def test_map_preset_ratio():
    q = PRESETS["quenched"]
    a = PRESETS["annealed"]
    eta_q = build_sensitivity_map(
        q.broadening, q.pl_rate_per_w, [0.4], [1.0]
    ).best()
    eta_a = build_sensitivity_map(
        a.broadening, a.pl_rate_per_w, [0.4], [1.0]
    ).best()
    # contrast ratio 10, PL ratio 1.5 and linewidth ratio 600/450 combine
    # to 10 * sqrt(1.5) * 4/3.
    expected = 10.0 * math.sqrt(1.5) * (600.0 / 450.0)
    assert eta_a.eta_t_rthz / eta_q.eta_t_rthz == pytest.approx(
        expected, rel=1e-9
    )


def test_map_empty_grid_rejected():
    preset = PRESETS["quenched"]
    with pytest.raises(EmptyGrid):
        build_sensitivity_map(preset.broadening, preset.pl_rate_per_w, [], [1.0])


def steps_config():
    return LockInConfig(
        mode="fm",
        mod_freq_hz=50.0,
        time_constant_s=0.1,
        sample_rate_hz=500.0,
        fm_deviation_hz=1e5,
    )


def test_analyze_steps_statistics():
    cfg = steps_config()
    tl = FieldTimeline.staircase(1e-3, 100e-9, 2.0, 3)
    rng = np.random.default_rng(7)
    dt = cfg.dt_s
    n = int(6.0 / dt)
    t = np.arange(n) * dt
    sigma = 5e-9
    values = tl.value_at(t) + rng.normal(0, sigma, n)
    report = analyze_steps(TimeSeries(0.0, dt, values, "T"), tl, cfg)
    assert report.step_means_t.size == 3
    np.testing.assert_allclose(report.step_true_t, tl.bz_t)
    np.testing.assert_allclose(report.residuals_t, 0.0, atol=1e-9)
    assert report.pooled_std_t == pytest.approx(sigma, rel=0.10)
    assert report.sensitivity_t_rthz == pytest.approx(
        report.pooled_std_t * math.sqrt(cfg.time_constant_s), rel=1e-12
    )


def test_analyze_steps_schedule_mismatch():
    cfg = steps_config()
    tl = FieldTimeline.staircase(1e-3, 0.0, 2.0, 4)
    short = TimeSeries(0.0, cfg.dt_s, np.zeros(int(5.0 / cfg.dt_s)), "T")
    with pytest.raises(ScheduleMismatch):
        analyze_steps(short, tl, cfg)
