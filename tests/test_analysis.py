import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ZeroDC,
    analyze_steps,
    build_sensitivity_map,
    fit_lorentzian,
    map_argmin,
    odmr_contrast,
    saturated_contrast,
    saturated_fwhm,
    shot_noise_sensitivity,
)
from odmrsim import analysis
from odmrsim.analysis import fit_lorentzian_rows
from odmrsim.signal_chain import step_windows

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


def singular_inv(jtj):
    raise np.linalg.LinAlgError("Singular matrix")


def nan_inv(jtj):
    return np.full(np.shape(jtj), math.nan)


@pytest.mark.parametrize("inv", [singular_inv, nan_inv], ids=["raises", "nan"])
def test_fit_with_singular_covariance_finds_no_peak(monkeypatch, inv):
    x, y = clean_sweep()
    monkeypatch.setattr(np.linalg, "inv", inv)
    with pytest.raises(NoPeakFound, match="singular covariance"):
        fit_lorentzian(sweep(x, y))


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


def count_solves(monkeypatch) -> list:
    """A list that grows by one on every np.linalg.solve call.

    Each entry is the rows that call solves: 1, or a stack's leading dimension.
    """
    real_solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append(len(a) if np.ndim(a) == 3 else 1)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


class RecordingTolerance(np.float64):
    """A tolerance that records each value v compared with it as `v <= tol`.

    A subclass of np.float64, and so of float: Python calls its reflected
    __ge__ first for a float or numpy-float v.
    """

    def __ge__(self, other):
        self.seen.append(other)
        return float(self) >= other


@pytest.mark.parametrize(
    "seed, binding", [(3, "actual"), (0, "predicted")], ids=["actual", "predicted"]
)
def test_ftol_stops_where_a_reduction_equals_the_tolerance(monkeypatch, seed, binding):
    # The ftol test is |actual| <= _FTOL and predicted <= _FTOL, in that
    # order, on the trial that ends a fit.  At _FTOL equal to the larger of
    # that trial's two reductions, both loops stop on that same trial.
    x, clean = clean_sweep()
    y = clean + np.random.default_rng(seed).normal(0, 0.05, x.size)
    monkeypatch.setattr(analysis, "_GTOL", 0.0)
    tol = RecordingTolerance(analysis._FTOL)
    tol.seen = []
    monkeypatch.setattr(analysis, "_FTOL", tol)
    calls = count_solves(monkeypatch)
    ref = fit_lorentzian(sweep(x, y))
    n_trials = len(calls)
    actual, predicted = tol.seen[-2:]
    assert ref.stop_test == "ftol"
    assert (actual >= predicted) == (binding == "actual")
    monkeypatch.setattr(analysis, "_FTOL", float(max(actual, predicted)))
    for fit_once in (
        lambda: fit_lorentzian(sweep(x, y)),
        lambda: fit_lorentzian_rows(x, y[None])[0],
    ):
        calls.clear()
        fit = fit_once()
        assert (fit.stop_test, len(calls)) == ("ftol", n_trials)
        assert (fit.n_iter, fit.center_hz, fit.fwhm_hz) == (
            ref.n_iter, ref.center_hz, ref.fwhm_hz
        )


def test_failing_fit_stops_early(monkeypatch):
    # Pure noise holds no resonance.  With the step test alone this fit runs
    # all 200 iterations (397 solves) before its amplitude gate rejects it.
    x = np.linspace(95e6, 101e6, 101)
    noise = sweep(x, np.random.default_rng(3).normal(0.0, 1.0, x.size))
    calls = count_solves(monkeypatch)
    with pytest.raises(NoPeakFound):
        fit_lorentzian(noise)
    assert 0 < len(calls) <= 80


def test_pure_noise_fit_ends_once_its_width_collapses(monkeypatch):
    # The fit follows a spike onto one sample while the rss falls by about
    # 1e-6 relative a step, so no stop test fires: 194 solves before the
    # width-collapse exit, 26 with it.
    x = np.linspace(95e6, 101e6, 201)
    noise = sweep(x, np.random.default_rng(1).normal(0.0, 1.0, x.size))
    calls = count_solves(monkeypatch)
    with pytest.raises(NoPeakFound, match="below the sample spacing"):
        fit_lorentzian(noise)
    assert len(calls) == 26


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


def fit_or_error(x, y):
    """fit_lorentzian on one sweep, or the NoPeakFound or NonConvergence it raises."""
    try:
        return fit_lorentzian(sweep(x, y))
    except (NoPeakFound, NonConvergence) as exc:
        return exc


def assert_rows_match_single_fits(x, y):
    stacked = fit_lorentzian_rows(x, y)
    assert len(stacked) == len(y)
    for row, got in zip(y, stacked):
        want = fit_or_error(x, row)
        assert type(got) is type(want)
        # repr round-trips every float and tells -0.0 from 0.0, so equal
        # reprs are equal bits; an exception's repr holds its message.
        assert repr(got) == repr(want)


@st.composite
def sweep_stacks(draw):
    """Rows of one 41- or 201-point sweep: SNR 20, SNR < 1, flat or 1e300."""
    n = draw(st.sampled_from([41, 201]))
    x = np.linspace(95e6, 101e6, n)
    rows = []
    kinds = st.sampled_from(["snr20", "low", "flat", "huge"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "flat":
            rows.append(np.full(n, draw(st.floats(-1.0, 1.0))))
            continue
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        center = draw(st.floats(95.5e6, 100.5e6))
        fwhm = draw(st.floats(2e5, 2e6))
        snr = 20.0 if kind == "snr20" else draw(st.floats(0.05, 0.99))
        row = lorentz(x, center, fwhm, 4e-4, 1e-4) + rng.normal(0.0, 4e-4 / snr, n)
        if kind == "huge":
            spots = rng.choice(n, size=draw(st.integers(1, 3)), replace=False)
            row[spots] = rng.choice([-1e300, 1e300], size=spots.size)
        rows.append(row)
    return x, np.array(rows)


@settings(max_examples=60, deadline=None)
@given(sweep_stacks())
def test_stacked_fit_rows_equal_single_fits(stack):
    # Each row of the stacked loop ends where fit_lorentzian ends on it
    # alone, with the same bits, or fails with the same class and message.
    assert_rows_match_single_fits(*stack)


@pytest.mark.parametrize("max_iter", [1, 3])
def test_stacked_fit_rows_run_out_of_iterations_as_single_fits(monkeypatch, max_iter):
    monkeypatch.setattr(analysis, "_MAX_ITER", max_iter)
    x, y = clean_sweep()
    noisy = y + np.random.default_rng(5).normal(0.0, 0.05, x.size)
    stack = np.array([y, noisy, np.full(x.size, 0.3), noisy[::-1]])
    assert_rows_match_single_fits(x, stack)
    assert isinstance(fit_lorentzian_rows(x, stack)[0], NonConvergence)


def test_singular_stacked_solve_falls_back_to_single_rows(monkeypatch):
    # On an axis spaced 1e76 Hz the step's 40-sample initial width makes
    # every (dx^2 + (G/2)^2)^2 overflow, so its centre and width columns
    # are zero and every damped matrix of that row is singular: the stacked
    # solve raises, each row is solved alone, and the step row takes the
    # single-row loop's 50 tenfold retries.
    x = np.arange(41) * 1e76
    step = np.repeat([-1.0, 0.0, 1.0], [20, 1, 20])
    noise = np.random.default_rng(0).normal(0.0, 0.01, x.size)
    stack = np.array(
        [
            step,
            lorentz(x, 20e76, 3e76, 1.0, 0.0),
            lorentz(x, 12e76, 4e76, -2.0, 0.0) + noise,
        ]
    )
    real_solve = np.linalg.solve
    raised = []

    def spying_solve(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.ndim(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spying_solve)
    stacked = fit_lorentzian_rows(x, stack)
    # One stacked and one single-row LinAlgError for each of the 50 tries.
    assert raised.count(3) == raised.count(2) == 50
    monkeypatch.setattr(np.linalg, "solve", real_solve)
    assert_rows_match_single_fits(x, stack)
    assert isinstance(stacked[0], NoPeakFound)
    assert all(isinstance(fit, analysis.LorentzFit) for fit in stacked[1:])


def test_stacked_fit_solves_what_single_fits_solve(monkeypatch):
    # Each try solves only the rows still pending, so the stack solves each
    # row exactly as often as fit_lorentzian does on it alone: no solve for
    # a row whose gtol test fired, and no retry for a row that has moved.
    x = np.linspace(95e6, 101e6, 201)
    rng = np.random.default_rng(8)
    rows = [
        lorentz(x, center, 1e6, 4e-4, 1e-4) + rng.normal(0.0, 4e-4 / snr, x.size)
        for center, snr in [(97e6, 20.0), (98.5e6, 20.0), (99e6, 0.4), (96e6, 0.9)]
    ]
    rows.append(np.full(x.size, 0.2))
    for spot, value in (30, 1e300), (150, -1e300):
        huge = lorentz(x, 98e6, 1.2e6, 4e-4, 1e-4) + rng.normal(0.0, 2e-5, x.size)
        huge[spot] = value
        rows.append(huge)
    solved = count_solves(monkeypatch)
    singles = []
    for row in rows:
        solved.clear()
        fit_or_error(x, row)
        singles.append(sum(solved))
    solved.clear()
    fit_lorentzian_rows(x, np.array(rows))
    assert sum(solved) == sum(singles)
    assert min(singles[:4]) > 0 and singles[4] == 0


def test_stacked_inverse_normals_equal_single_inverses():
    # One stacked inverse of the finishing rows rounds as each row's alone;
    # with a singular row (a zero column) in the stack each row is inverted
    # alone, the singular one reads NaN and the others keep their bits.
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(37, 41, 4)) * [1e-6, 1e-5, 1.0, 1.0]
    single = np.array([np.linalg.inv(j.T @ j) for j in jac])
    stacked = analysis._inverse_normals(jac)
    np.testing.assert_array_equal(stacked.view(np.uint64), single.view(np.uint64))
    jac[2, :, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(jac[2].T @ jac[2])
    fallback = analysis._inverse_normals(jac)
    assert np.isnan(fallback[2]).all()
    others = np.delete(np.arange(37), 2)
    np.testing.assert_array_equal(
        fallback[others].view(np.uint64), single[others].view(np.uint64)
    )


def test_stacked_fit_input_validation():
    with pytest.raises(ValueError):
        fit_lorentzian_rows(np.arange(4.0), np.zeros((2, 4)))


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
    assert eta == pytest.approx(3.8829e-9, rel=1e-4, abs=0)


def test_sensitivity_scalings():
    base = shot_noise_sensitivity(1e6, 0.01, 1e12)
    assert shot_noise_sensitivity(2e6, 0.01, 1e12) == pytest.approx(2 * base)
    assert shot_noise_sensitivity(1e6, 0.02, 1e12) == pytest.approx(base / 2)
    assert shot_noise_sensitivity(1e6, 0.01, 4e12) == pytest.approx(base / 2)


def test_sensitivity_on_arrays_matches_scalars_bit_for_bit():
    rng = np.random.default_rng(5)
    fwhm = rng.uniform(1e5, 5e6, (4, 5))
    contrast = rng.uniform(1e-3, 0.05, (4, 5))
    rate = rng.uniform(1e10, 1e13, (4, 5))
    contrast[1, 2] = math.nan
    grid = shot_noise_sensitivity(fwhm, contrast, rate, g_factor=2.01)
    for idx in np.ndindex(grid.shape):
        one = shot_noise_sensitivity(
            float(fwhm[idx]), float(contrast[idx]), float(rate[idx]), g_factor=2.01
        )
        assert type(one) is float
        assert np.array_equal(grid[idx], one, equal_nan=True)
    assert math.isnan(grid[1, 2])


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
    p_opt, p_rf = np.array([0.4]), np.linspace(0.2, 1.8, 9)
    grid = build_sensitivity_map(
        preset.broadening, preset.pl_rate_per_w, p_opt, p_rf
    )
    best = map_argmin(p_opt, p_rf, grid)
    assert best["p_rf_w"] == pytest.approx(1.0)
    assert best["eta_t_rthz"] == pytest.approx(3.525e-9, rel=1e-3)


def test_map_prefers_maximum_optical_power():
    preset = PRESETS["quenched"]
    p_opt, p_rf = np.linspace(0.05, 0.4, 8), np.array([1.0])
    grid = build_sensitivity_map(
        preset.broadening, preset.pl_rate_per_w, p_opt, p_rf
    )
    assert map_argmin(p_opt, p_rf, grid)["p_opt_w"] == pytest.approx(0.4)


def test_map_preset_ratio():
    q = PRESETS["quenched"]
    a = PRESETS["annealed"]
    *_, eta_q = build_sensitivity_map(q.broadening, q.pl_rate_per_w, [0.4], [1.0])
    *_, eta_a = build_sensitivity_map(a.broadening, a.pl_rate_per_w, [0.4], [1.0])
    # contrast ratio 10, PL ratio 1.5 and linewidth ratio 600/450 combine
    # to 10 * sqrt(1.5) * 4/3.
    expected = 10.0 * math.sqrt(1.5) * (600.0 / 450.0)
    assert eta_a.shape == (1, 1)
    assert eta_a[0, 0] / eta_q[0, 0] == pytest.approx(expected, rel=1e-9)


def test_map_grid_matches_per_cell_formulas():
    # The per-cell loop the grid replaced, bit for bit; no eta at zero drive.
    preset = PRESETS["quenched"]
    model, per_w = preset.broadening, preset.pl_rate_per_w
    p_opt, p_rf = [0.0, 0.1, 0.4], [0.0, 0.3, 1.0, 2.0]
    grid = build_sensitivity_map(model, per_w, p_opt, p_rf, g_factor=2.01)
    assert all(a.shape == (3, 4) for a in grid)
    for i, po in enumerate(p_opt):
        for j, pr in enumerate(p_rf):
            fwhm = saturated_fwhm(model, pr)
            contrast = saturated_contrast(model, pr, po)
            rate = per_w * po
            eta = math.nan
            if contrast > 0 and rate > 0:
                eta = shot_noise_sensitivity(fwhm, contrast, rate, g_factor=2.01)
            cell = [a[i, j] for a in grid]
            assert np.array_equal(cell, [fwhm, contrast, rate, eta], equal_nan=True)
    assert np.isnan(grid[3][0]).all() and np.isnan(grid[3][:, 0]).all()


def test_map_argmin_breaks_ties_by_lower_p_opt_then_p_rf():
    p_opt, p_rf = np.array([0.1, 0.2, 0.3]), np.array([0.5, 1.0, 1.5])
    fwhm, contrast, rate = (np.full((3, 3), v) for v in (5e5, 0.01, 1e11))
    # Cells (1, 2) and (2, 0) tie: the lower p_opt wins despite its p_rf.
    eta = np.array([[9.0, math.nan, 8.0], [7.0, 6.0, 5.0], [5.0, math.inf, 6.0]])
    best = map_argmin(p_opt, p_rf, (fwhm, contrast, rate, eta))
    assert (best["p_opt_w"], best["p_rf_w"], best["eta_t_rthz"]) == (0.2, 1.5, 5.0)
    # Within one p_opt row the lower p_rf wins.
    eta[1] = [7.0, 4.0, 4.0]
    best = map_argmin(p_opt, p_rf, (fwhm, contrast, rate, eta))
    assert (best["p_opt_w"], best["p_rf_w"]) == (0.2, 1.0)
    assert list(best) == [
        "p_opt_w", "p_rf_w", "fwhm_hz", "contrast", "rate_hz", "eta_t_rthz"
    ]
    assert all(type(v) is float for v in best.values())


def test_map_argmin_of_no_finite_cell_is_empty_grid():
    cells = [np.full((2, 2), math.nan)] * 3 + [np.array([[math.nan, math.inf]] * 2)]
    with pytest.raises(EmptyGrid, match="no finite"):
        map_argmin(np.array([0.1, 0.2]), np.array([0.5, 1.0]), cells)


def test_map_empty_grid_rejected():
    preset = PRESETS["quenched"]
    with pytest.raises(EmptyGrid):
        build_sensitivity_map(preset.broadening, preset.pl_rate_per_w, [], [1.0])


def test_map_photon_rate_overflow_names_the_power():
    # The same checked rate as Scene.photon_rate_hz: an overflowing cell is
    # refused, not mapped with an infinite rate and a zero sensitivity.
    preset = PRESETS["quenched"]
    message = r"p_opt_w 1e\+300 W: the photon rate overflows"
    with pytest.raises(ValueError, match=message):
        build_sensitivity_map(preset.broadening, 1.2e12, [0.4, 1e300], [1.0])


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
    windows = [values[i0:i1] for i0, i1 in step_windows(tl, n, cfg)]
    means = [np.mean(w) for w in windows]
    stds = [np.std(w, ddof=1) for w in windows]
    report = analyze_steps(means, stds, tl, cfg)
    assert len(report["step_means_t"]) == 3
    np.testing.assert_array_equal(report["step_stds_t"], stds)
    np.testing.assert_allclose(report["step_true_t"], tl.bz_t)
    np.testing.assert_allclose(report["residuals_t"], 0.0, atol=1e-9)
    assert report["pooled_std_t"] == pytest.approx(sigma, rel=0.10)
    assert report["sensitivity_t_rthz"] == pytest.approx(
        report["pooled_std_t"] * math.sqrt(cfg.time_constant_s), rel=1e-12, abs=0
    )


def test_step_windows_schedule_mismatch():
    cfg = steps_config()
    tl = FieldTimeline.staircase(1e-3, 0.0, 2.0, 4)
    # 5 s of samples: the step at 6 s has none.
    with pytest.raises(ScheduleMismatch, match="t = 6 s has 0 samples"):
        step_windows(tl, int(5.0 / cfg.dt_s), cfg)
