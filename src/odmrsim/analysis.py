"""Fitting and sensitivity analysis for demodulated ODMR data.

The fitted amplitude of a demodulated sweep is (2/pi) * contrast * V_dc
under the square-wave AM convention of the signal chain, so
odmr_contrast defaults to dividing that gain back out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyGrid,
    NonConvergence,
    NonPositiveInput,
    NoPeakFound,
    ScheduleMismatch,
    ZeroDC,
)
from .io_formats import SweepRecord
from .lineshape import BroadeningModel, saturated_contrast, saturated_fwhm
from .lineshape import lorentzian_sum
from .signal_chain import (
    FieldTimeline,
    LockInConfig,
    SQUARE_AM_GAIN,
    TimeSeries,
)
from .spin_model import G_FACTOR, gyromagnetic_ratio

# 4 sqrt(2) / (3 sqrt(3)): photon shot-noise prefactor for a Lorentzian
# resonance interrogated at the steepest-slope detuning.
SHOT_NOISE_PREFACTOR = 4.0 * math.sqrt(2.0) / (3.0 * math.sqrt(3.0))

# Levenberg-Marquardt limits: iterations, and MINPACK's three stop tests
# (More 1978), any one of which ends the loop: the largest parameter step
# relative to its parameter (_REL_TOL), the actual and predicted relative
# reductions of the rss (_FTOL), and the largest cosine between the residual
# and a Jacobian column (_GTOL).  At _GTOL = 1e-4 a 201-point sweep at SNR 20
# stops within 0.3% of its 95% half-widths of the optimum; 1e-3 moved some
# FWHMs by 1.5%.
_MAX_ITER = 200
_REL_TOL = 1e-8
_FTOL = 1e-10
_GTOL = 1e-4


@dataclass
class LorentzFit:
    """Least-squares Lorentzian-plus-offset fit with 95% Wald intervals."""

    center_hz: float
    fwhm_hz: float
    amplitude: float
    offset: float
    center_ci_hz: tuple[float, float]
    fwhm_ci_hz: tuple[float, float]
    rss: float
    n_iter: int
    stop_test: str  # the stop test that ended the loop: step, ftol or gtol

    def evaluate(self, frequency_hz) -> np.ndarray:
        return self.offset + lorentzian_sum(
            frequency_hz, [self.center_hz], [self.amplitude], self.fwhm_hz
        )


def _lorentz_model(params: np.ndarray, x: np.ndarray):
    """Model values and the intermediates _lorentz_jac reuses."""
    center, width, amp, offset = params
    half = 0.5 * width
    u = half * half
    dx = x - center
    denom = dx * dx + u
    shape = u / denom
    model = offset + amp * shape
    return model, (amp, half, u, dx, denom, shape)


def _lorentz_jac(parts) -> np.ndarray:
    """Jacobian of the model from the intermediates of _lorentz_model."""
    amp, half, u, dx, denom, shape = parts
    jac = np.empty((dx.size, 4))
    jac[:, 0] = amp * u * 2.0 * dx / (denom * denom)
    jac[:, 1] = amp * half * dx * dx / (denom * denom)
    jac[:, 2] = shape
    jac[:, 3] = 1.0
    return jac


def _initial_guess(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    offset = float(np.median(y))
    dev = y - offset
    idx = int(np.argmax(np.abs(dev)))
    amp = float(dev[idx])
    center = float(x[idx])
    above = np.abs(dev) > 0.5 * abs(amp)
    dx = float(np.median(np.diff(x)))
    width = max(float(np.count_nonzero(above)) * dx, 2.0 * dx)
    return np.array([center, width, amp, offset])


# A trial that leaves floating-point range (a CSV may hold 1e300) has a NaN
# or infinite rss and is rejected like any worse step, without a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_lorentzian(sweep: SweepRecord) -> LorentzFit:
    """Fit a Lorentzian plus constant offset to a sweep's lock-in column.

    Levenberg-Marquardt with MINPACK's three stop tests: the relative
    step (_REL_TOL), tested after each accepted step; the relative rss
    reduction (_FTOL), tested on every trial, so a fit whose rss has stalled
    stops there; and the residual-Jacobian cosine (_GTOL), tested before
    each step.  Wherever the loop ends, NoPeakFound is raised when the
    fitted amplitude does not clear twice the residual scatter, the fitted
    width collapses below the sample spacing (a noise spike, not a
    resonance) or the fitted centre lies outside the swept range.  A fit
    that clears these gates raises NonConvergence only when no stop test
    fired: _MAX_ITER (200) iterations ran out, or 50 tenfold damping
    increases found no step that does not raise the rss.
    """
    x = sweep.frequency_hz
    y = sweep.lockin_v
    if x.size < 5:
        raise ValueError("need at least five samples to fit four parameters")

    params = _initial_guess(x, y)
    if params[2] == 0.0:
        raise NoPeakFound("input data are exactly flat")

    model, parts = _lorentz_model(params, x)
    jac = _lorentz_jac(parts)
    resid = y - model
    rss = float(resid @ resid)
    lam = 1e-3
    stop = None
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        diag = np.diag(jtj)
        # A zero column or residual has no direction: its cosine reads 0.
        scale = np.sqrt(diag * rss)
        if np.max(np.abs(jtr) / np.where(scale > 0.0, scale, np.inf)) <= _GTOL:
            stop = "gtol"
            break
        jtj_diag = np.diag(diag)
        accepted = False
        for _ in range(50):
            damped = jtj + lam * jtj_diag
            try:
                step = np.linalg.solve(damped, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            trial_model, trial_parts = _lorentz_model(trial, x)
            trial_resid = y - trial_model
            trial_rss = float(trial_resid @ trial_resid)
            accepted = trial_rss <= rss
            # Reductions relative to rss, as MINPACK's lmder forms them; a
            # trial that raises the rss a hundredfold or more counts as -1.
            actual = 1.0 - trial_rss / rss if trial_rss < 100.0 * rss else -1.0
            if abs(actual) <= _FTOL:
                damping = 2.0 * lam * (diag * step) @ step
                predicted = (step @ (jtj @ step) + damping) / rss
                if predicted <= _FTOL and actual <= 2.0 * predicted:
                    stop = "ftol"
            if accepted or stop:
                break
            lam *= 10.0
        if accepted:
            rel_step = np.max(np.abs(step) / (np.abs(params) + _REL_TOL))
            # Only an accepted trial needs its Jacobian.
            params, jac = trial, _lorentz_jac(trial_parts)
            resid, rss = trial_resid, trial_rss
            lam = max(lam / 10.0, 1e-12)
            if stop is None and rel_step < _REL_TOL:
                stop = "step"
        if stop or not accepted:
            break

    center, width, amp, offset = params
    width = abs(width)
    dof = max(x.size - 4, 1)
    resid_rms = math.sqrt(rss / dof)
    if abs(amp) < 2.0 * resid_rms:
        raise NoPeakFound(
            f"fitted amplitude {amp:.3g} below twice the residual scatter "
            f"{resid_rms:.3g}"
        )
    spacing = float(np.median(np.diff(x)))
    if width < spacing:
        raise NoPeakFound(
            f"fitted width {width:.3g} Hz is below the sample spacing "
            f"{spacing:.3g} Hz"
        )
    if not x[0] <= center <= x[-1]:
        raise NoPeakFound(
            f"fitted centre {center:.6g} Hz lies outside the sweep "
            f"{x[0]:.6g} to {x[-1]:.6g} Hz"
        )
    if stop is None:
        raise NonConvergence(f"no convergence after {n_iter} iterations")

    jtj = jac.T @ jac
    try:
        cov = resid_rms**2 * np.linalg.inv(jtj)
        sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sigma = np.full(4, math.nan)
    z95 = 1.959963984540054
    return LorentzFit(
        center_hz=float(center),
        fwhm_hz=float(width),
        amplitude=float(amp),
        offset=float(offset),
        center_ci_hz=(
            float(center - z95 * sigma[0]),
            float(center + z95 * sigma[0]),
        ),
        fwhm_ci_hz=(
            float(width - z95 * sigma[1]),
            float(width + z95 * sigma[1]),
        ),
        rss=rss,
        n_iter=n_iter,
        stop_test=stop,
    )


def odmr_contrast(
    fit: LorentzFit, dc_v: float, demod_gain: float = SQUARE_AM_GAIN
) -> float:
    """Physical dip contrast from a demodulated-sweep fit and DC level."""
    if dc_v <= 0:
        raise ZeroDC(f"dc_v must be positive, got {dc_v}")
    if demod_gain <= 0:
        raise ValueError("demod_gain must be positive")
    return abs(fit.amplitude) / (dc_v * demod_gain)


def shot_noise_sensitivity(
    fwhm_hz: float,
    contrast: float,
    rate_hz: float,
    g_factor: float = G_FACTOR,
) -> float:
    """Photon shot-noise limited field sensitivity in T / sqrt(Hz)."""
    for name, value in (
        ("fwhm_hz", fwhm_hz),
        ("contrast", contrast),
        ("rate_hz", rate_hz),
    ):
        if value <= 0:
            raise NonPositiveInput(f"{name} must be positive, got {value}")
    gamma = gyromagnetic_ratio(g_factor)
    return SHOT_NOISE_PREFACTOR * fwhm_hz / (gamma * contrast * math.sqrt(rate_hz))


@dataclass(frozen=True)
class SensitivityPoint:
    p_opt_w: float
    p_rf_w: float
    fwhm_hz: float
    contrast: float
    rate_hz: float
    eta_t_rthz: float


@dataclass
class SensitivityMap:
    points: list[SensitivityPoint] = field(default_factory=list)

    def best(self) -> SensitivityPoint:
        finite = [p for p in self.points if math.isfinite(p.eta_t_rthz)]
        if not finite:
            raise EmptyGrid("no finite sensitivity values in map")
        return min(finite, key=lambda p: (p.eta_t_rthz, p.p_opt_w, p.p_rf_w))


def build_sensitivity_map(
    model: BroadeningModel,
    pl_rate_per_w: float,
    p_opt_values,
    p_rf_values,
    g_factor: float = G_FACTOR,
) -> SensitivityMap:
    """Closed-form sensitivity over a power grid (no signal simulation)."""
    p_opt = np.asarray(p_opt_values, dtype=float)
    p_rf = np.asarray(p_rf_values, dtype=float)
    if p_opt.size == 0 or p_rf.size == 0:
        raise EmptyGrid("power grid must have at least one point per axis")
    points = []
    for po in p_opt:
        for pr in p_rf:
            fwhm = saturated_fwhm(model, pr)
            contrast = saturated_contrast(model, pr, po)
            rate = pl_rate_per_w * po
            if contrast > 0 and rate > 0:
                eta = shot_noise_sensitivity(fwhm, contrast, rate, g_factor)
            else:
                eta = math.nan
            points.append(
                SensitivityPoint(
                    p_opt_w=float(po),
                    p_rf_w=float(pr),
                    fwhm_hz=fwhm,
                    contrast=contrast,
                    rate_hz=rate,
                    eta_t_rthz=eta,
                )
            )
    return SensitivityMap(points=points)


@dataclass
class StepReport:
    """Per-step statistics of a tracked field staircase."""

    step_true_t: np.ndarray
    step_means_t: np.ndarray
    step_stds_t: np.ndarray
    residuals_t: np.ndarray
    pooled_std_t: float
    sensitivity_t_rthz: float
    settle_discard_s: float
    time_constant_s: float

    def to_dict(self) -> dict:
        return {
            "step_true_t": [float(v) for v in self.step_true_t],
            "step_means_t": [float(v) for v in self.step_means_t],
            "step_stds_t": [float(v) for v in self.step_stds_t],
            "residuals_t": [float(v) for v in self.residuals_t],
            "pooled_std_t": float(self.pooled_std_t),
            "sensitivity_t_rthz": float(self.sensitivity_t_rthz),
            "settle_discard_s": float(self.settle_discard_s),
            "time_constant_s": float(self.time_constant_s),
        }


def step_windows(
    timeline: FieldTimeline, n: int, dt: float, t0: float, cfg: LockInConfig
) -> list[tuple[int, int]]:
    """Sample range [i0, i1) of each step of n samples after its 5 tau discard.

    Raises ScheduleMismatch when any step keeps fewer than two samples.
    """
    starts = timeline.starts_s
    ends = np.append(starts[1:], n * dt + t0)
    windows = []
    for start, end in zip(starts, ends):
        i0 = int(math.ceil((start + cfg.settle_discard_s - t0) / dt))
        i1 = min(int(math.floor((end - t0) / dt)), n)
        if i1 - i0 < 2:
            raise ScheduleMismatch(
                f"step at t = {start:.6g} s has {max(i1 - i0, 0)} samples "
                "after the settling discard"
            )
        windows.append((i0, i1))
    return windows


def analyze_steps(
    estimate: TimeSeries, timeline: FieldTimeline, cfg: LockInConfig
) -> StepReport:
    """Per-step mean/std of a field-estimate series against its timeline.

    Discards 5 tau after every step edge, pools the per-step standard
    deviations as an RMS and quotes sensitivity as pooled std times
    sqrt(time constant).  Raises ScheduleMismatch when any step has fewer
    than two samples left after the discard.
    """
    series = np.asarray(estimate.values, dtype=float)
    windows = step_windows(timeline, series.size, estimate.dt_s, estimate.t0_s, cfg)
    means, stds = [], []
    for i0, i1 in windows:
        window = series[i0:i1]
        means.append(float(np.mean(window)))
        stds.append(float(np.std(window, ddof=1)))
    means_arr = np.array(means)
    stds_arr = np.array(stds)
    pooled = float(np.sqrt(np.mean(stds_arr**2)))
    return StepReport(
        step_true_t=np.asarray(timeline.bz_t, dtype=float).copy(),
        step_means_t=means_arr,
        step_stds_t=stds_arr,
        residuals_t=means_arr - np.asarray(timeline.bz_t, dtype=float),
        pooled_std_t=pooled,
        sensitivity_t_rthz=pooled * math.sqrt(cfg.time_constant_s),
        settle_discard_s=cfg.settle_discard_s,
        time_constant_s=float(cfg.time_constant_s),
    )
