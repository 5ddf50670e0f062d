"""Fitting and sensitivity analysis for demodulated ODMR data.

The fitted amplitude of a demodulated sweep is the signal chain's sampled
demodulation gain (0.6472 at n = 10 samples per cycle) times contrast *
V_dc, but odmr_contrast still divides by 2/pi by default, which reads the
contrast 1.0166 x high at n = 10 (ROADMAP item 5).

A sensitivity map is four (n_opt, n_rf) arrays, fwhm_hz, contrast,
rate_hz and eta_t_rthz, rows by optical and columns by RF power.

The Lorentzian fit has two loops of one shape (per iteration, the normal
equations and gtol test, then up to 50 tries: solve, ftol, accept or damp
harder) over the same model, Jacobian, guess and gates.  fit_lorentzian
fits one sweep (odmr fit) in the scalar loop; fit_lorentzian_rows fits a
stack (a map chunk) in the stacked loop until at most _HANDOFF_ROWS rows
are live, then finishes each of those in the scalar loop from its state;
each row ends bit for bit, and with the same solves, as alone.  A one-row
stack costs about 3x the scalar loop (1.3 against 0.43 ms a fit, medians
on the benchmark's seed-1 sweeps), hence the scalar loop for odmr fit and
for the stack's tail.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGrid,
    NonConvergence,
    NonPositiveInput,
    NoPeakFound,
    ZeroDC,
)
from .io_formats import MAP_HEADER, SweepRecord
from .lineshape import BroadeningModel, saturated_contrast, saturated_fwhm
from .lineshape import lorentzian_sum
from .signal_chain import (
    FieldTimeline,
    LockInConfig,
    SQUARE_AM_GAIN,
    photon_rate,
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


def _lorentz_model(params, x: np.ndarray):
    """Model values and the intermediates _lorentz_jac reuses.

    params is (centre, width, amplitude, offset): four floats, or four
    (rows, 1) columns of a stack.
    """
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
    jac = np.empty(dx.shape + (4,))
    denom2 = denom * denom
    jac[..., 0] = amp * u * 2.0 * dx / denom2
    jac[..., 1] = amp * half * dx * dx / denom2
    jac[..., 2] = shape
    jac[..., 3] = 1.0
    return jac


def _median(a: np.ndarray):
    """np.median(a, axis=-1) of a float array, bit for bit.

    It is numpy's own recipe: one partition at numpy's kth (the middle
    index or two, and the last, where NaN sorts), the mean of the middle
    slice (a sum from +0.0, so a -0.0 median reads +0.0) and NaN wherever
    the last partitioned value is NaN.  One departure: two finite middle
    values whose sum overflows (np.median reads inf) give lo/2 + hi/2, their
    exact mean rounded.  On one 201-point row it costs about a quarter of
    np.median (3.7 against 13.6 us on a 2-vCPU host).  The last axis must
    not be empty.
    """
    n = a.shape[-1]
    k = n // 2
    kth = [k] if n % 2 else [k - 1, k]
    part = np.partition(a, kth + [-1], axis=-1)
    if n % 2:
        mid = part[..., k] + 0.0
    else:
        lo, hi = part[..., k - 1], part[..., k]
        with np.errstate(over="ignore"):
            mid = (lo + hi + 0.0) / 2.0
        over = np.isinf(mid)
        if over.any():
            over &= np.isfinite(lo) & np.isfinite(hi)
            mid = np.where(over, lo / 2.0 + hi / 2.0, mid)[()]
    last = part[..., -1]
    if a.ndim == 1:  # numpy scalars, as np.median returns
        return last if math.isnan(last) else mid
    return np.where(np.isnan(last), last, mid)


def _initial_guess(x: np.ndarray, y: np.ndarray, spacing: float) -> np.ndarray:
    """Starting (centre, width, amplitude, offset) of each row of y, (..., 4)."""
    offset = _median(y)[..., None]
    dev = y - offset
    idx = np.argmax(np.abs(dev), axis=-1, keepdims=True)
    amp = np.take_along_axis(dev, idx, axis=-1)
    above = np.abs(dev) > 0.5 * np.abs(amp)
    count = np.count_nonzero(above, axis=-1, keepdims=True)
    width = np.maximum(count * spacing, 2.0 * spacing)
    return np.concatenate((x[idx], width, amp, offset), axis=-1)


# A trial that leaves floating-point range (a CSV may hold 1e300) has a NaN
# or infinite rss and is rejected like any worse step, without a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_lorentzian(sweep: SweepRecord) -> LorentzFit:
    """Fit a Lorentzian plus constant offset to a sweep's lock-in column.

    Levenberg-Marquardt with MINPACK's three stop tests: the relative
    step (_REL_TOL), tested after each accepted step; the relative rss
    reduction (_FTOL), tested on every trial, so a fit whose rss has stalled
    stops there; and the residual-Jacobian cosine (_GTOL), tested before
    each step.  Three accepted steps in a row with |width| below the sample
    spacing (a fit chasing a noise spike) end it too.  Wherever the loop
    ends, NoPeakFound is raised when the fitted amplitude does not clear
    twice the residual scatter, the fitted width is below the sample
    spacing or the fitted centre lies outside the swept range.  A fit
    that clears these gates raises NonConvergence only when no stop test
    fired: _MAX_ITER (200) iterations ran out, or 50 tenfold damping
    increases found no step that does not raise the rss.  A converged fit
    whose covariance inv(J^T J) is singular or not finite raises
    NoPeakFound, since its confidence intervals are undefined.
    """
    x = sweep.frequency_hz
    y = sweep.lockin_v
    if x.size < 5:
        raise ValueError("need at least five samples to fit four parameters")

    spacing = float(_median(np.diff(x)))
    # The parameters, and the tests on 4-vectors, are Python floats: the
    # same IEEE operations as numpy's, without a numpy call per operation.
    params = _initial_guess(x, y, spacing).tolist()
    if params[2] == 0.0:
        raise NoPeakFound("input data are exactly flat")

    model, parts = _lorentz_model(params, x)
    jac = _lorentz_jac(parts)
    resid = y - model
    rss = float(resid @ resid)
    return _fit_from(x, y, spacing, params, jac, resid, rss, 1e-3, 0, 0)


def _fit_from(x, y, spacing, params, jac, resid, rss, lam, narrow, n_iter):
    """fit_lorentzian's loop from its state after n_iter iterations, and its end.

    params is four floats, jac (points, 4) and resid (points,) arrays at
    params, rss, lam and narrow (accepted steps in a row with |width| below
    the spacing) plain numbers.  Returns the LorentzFit of the finished
    loop or raises its NoPeakFound or NonConvergence; it runs under its
    caller's np.errstate.
    """
    stop = None
    for n_iter in range(n_iter + 1, _MAX_ITER + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        diag = jtj.diagonal()
        # A zero column or residual has no direction: its cosine reads 0.
        # A NaN cosine fails the test, as it fails np.max(cosines) <= _GTOL;
        # d and rss are sums of squares, never negative, so math.sqrt does
        # not raise.
        scales = [math.sqrt(d * rss) for d in diag.tolist()]
        if all(
            abs(r) / (s if s > 0.0 else math.inf) <= _GTOL
            for r, s in zip(jtr.tolist(), scales)
        ):
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
            step_list = step.tolist()
            trial = [p + s for p, s in zip(params, step_list)]
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
            # Every relative step below _REL_TOL; a NaN one fails, as in np.max.
            small = all(
                abs(s) / (abs(p) + _REL_TOL) < _REL_TOL
                for s, p in zip(step_list, params)
            )
            # Only an accepted trial needs its Jacobian.
            params, jac = trial, _lorentz_jac(trial_parts)
            resid, rss = trial_resid, trial_rss
            lam = max(lam / 10.0, 1e-12)
            if stop is None and small:
                stop = "step"
            narrow = narrow + 1 if abs(params[1]) < spacing else 0
        if stop or not accepted or narrow == 3:
            break
    inv_jtj = _inverse_normals(jac[None])[0]
    return _fit_result(x, spacing, params, inv_jtj, rss, n_iter, stop)


def _inverse_normals(jac: np.ndarray) -> np.ndarray:
    """inv(J^T J) of each Jacobian of a (rows, points, 4) stack.

    One stacked inverse rounds as each row's alone; when a row is singular,
    each row is inverted alone and a singular one reads all NaN.
    """
    jtj = jac.transpose(0, 2, 1) @ jac
    try:
        return np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        out = np.full(jtj.shape, math.nan)
        for k, a in enumerate(jtj):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = np.linalg.inv(a)
        return out


def _fit_result(x, spacing, params, inv_jtj, rss, n_iter, stop) -> LorentzFit:
    """The gates, covariance and LorentzFit of one finished loop.

    params is four floats and rss a float; inv_jtj is inv(J^T J) at params,
    from _inverse_normals.  Both fit_lorentzian and fit_lorentzian_rows end
    here, so a row fails for the same reasons and with the same messages in
    either.
    """
    center, width, amp, offset = params
    width = abs(width)
    dof = max(x.size - 4, 1)
    resid_rms = math.sqrt(rss / dof)
    if abs(amp) < 2.0 * resid_rms:
        raise NoPeakFound(
            f"fitted amplitude {amp:.3g} below twice the residual scatter "
            f"{resid_rms:.3g}"
        )
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

    # The covariance diagonal, resid_rms**2 inv(J^T J), as plain floats; a
    # NaN passes max and sqrt, as it passes np.maximum and np.sqrt.
    var = resid_rms**2
    sigma = [math.sqrt(max(var * d, 0.0)) for d in inv_jtj.diagonal().tolist()]
    if not all(map(math.isfinite, sigma)):
        raise NoPeakFound("singular covariance: the confidence intervals are undefined")
    half = [1.959963984540054 * s for s in sigma]  # the 95% half-widths
    return LorentzFit(
        center_hz=center,
        fwhm_hz=width,
        amplitude=amp,
        offset=offset,
        center_ci_hz=(center - half[0], center + half[0]),
        fwhm_ci_hz=(width - half[1], width + half[1]),
        rss=rss,
        n_iter=n_iter,
        stop_test=stop,
    )


# A stack hands its live rows to the scalar loop once no more than this many
# are left.  A stacked pass costs 0.14-0.31 ms with 1 to 8 rows, the scalar
# loop about 0.04 ms a row an iteration (a 200-iteration 41-point row, 2-vCPU
# host).  On the benchmark's maps at seeds 1-6 the fits took 0.60-1.02 of
# the all-stacked time at 8 rows; hand-offs at 4 or 16 read within 0.04 of 8.
_HANDOFF_ROWS = 8


def _row_dots(a: np.ndarray) -> np.ndarray:
    """a[k] @ a[k] for each row; matmul on a stack rounds as each row alone."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_lorentzian_rows(x: np.ndarray, y: np.ndarray) -> list:
    """fit_lorentzian on each row of y (rows, points), all swept over x.

    Entry k is the LorentzFit that fit_lorentzian returns on row k alone,
    or the NoPeakFound or NonConvergence it raises, bit for bit: the loop
    is fit_lorentzian's, each pass one iteration of every live row, whose
    tries solve only the rows still pending, and the stacked matmul and
    solve round as the single-row calls do.  A row leaves the stack when
    its loop ends, and once at most _HANDOFF_ROWS rows are live each goes
    on in fit_lorentzian's own loop.  Raises ValueError for fewer than five
    points.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 5:
        raise ValueError("need at least five samples to fit four parameters")
    y = np.asarray(y, dtype=float)
    spacing = float(_median(np.diff(x)))
    params = _initial_guess(x, y, spacing)
    flat = params[:, 2] == 0.0
    results = [NoPeakFound("input data are exactly flat") if f else None for f in flat]
    rows = np.flatnonzero(~flat)
    y, params = y[rows], params[rows]
    model, parts = _lorentz_model(params.T[..., None], x)
    jac, resid = _lorentz_jac(parts), y - model
    del model, parts  # each (rows, points) temporary goes once used
    rss = _row_dots(resid)
    lam = np.full(rows.size, 1e-3)
    # The stop test that ended each row's loop, if any, and its accepted
    # steps in a row with |width| below the spacing.
    stop, narrow = np.full(rows.size, None), np.zeros(rows.size, dtype=int)
    n_iter = 0
    while rows.size > _HANDOFF_ROWS:
        n_iter += 1
        jtj = jac.transpose(0, 2, 1) @ jac
        jtr = (jac.transpose(0, 2, 1) @ resid[..., None])[..., 0]
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        scale = np.sqrt(diag * rss[:, None])
        cosine = np.abs(jtr) / np.where(scale > 0.0, scale, np.inf)
        gtol = np.max(cosine, axis=1) <= _GTOL
        stop[gtol] = "gtol"
        jtj_diag = np.zeros_like(jtj)
        jtj_diag[:, range(4), range(4)] = diag
        p = np.flatnonzero(~gtol)  # the rows still trying a step
        for _ in range(50):
            if not p.size:
                break
            damped = jtj[p] + lam[p, None, None] * jtj_diag[p]
            try:
                step = np.linalg.solve(damped, jtr[p, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # A singular row gets a NaN step: a rejected trial, as the
                # single-row loop's retry after its LinAlgError.
                step = np.full((p.size, 4), math.nan)
                for k in range(p.size):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        step[k] = np.linalg.solve(damped[k], jtr[p[k]])
            trial = params[p] + step
            trial_model, trial_parts = _lorentz_model(trial.T[..., None], x)
            trial_resid = y[p] - trial_model
            del trial_model
            trial_rss = _row_dots(trial_resid)
            accepted = trial_rss <= rss[p]
            reduced = 1.0 - trial_rss / rss[p]
            actual = np.where(trial_rss < 100.0 * rss[p], reduced, -1.0)
            close = np.flatnonzero(np.abs(actual) <= _FTOL)
            if close.size:
                s, c = step[close], p[close]
                # 2 lam (diag * step) @ step and step @ (jtj @ step), in that order.
                scaled = 2.0 * lam[c, None] * (diag[c] * s)
                damping = scaled[:, None] @ s[..., None]
                predicted = (s[:, None] @ (jtj[c] @ s[..., None]) + damping)[:, 0, 0]
                predicted /= rss[c]
                ftol = (predicted <= _FTOL) & (actual[close] <= 2.0 * predicted)
                stop[c[ftol]] = "ftol"
            if accepted.any():
                a = p[accepted]
                shift = np.abs(step[accepted]) / (np.abs(params[a]) + _REL_TOL)
                # Only an accepted trial needs its Jacobian.
                params[a] = trial[accepted]
                jac[a] = _lorentz_jac(tuple(part[accepted] for part in trial_parts))
                resid[a] = trial_resid[accepted]
                rss[a] = trial_rss[accepted]
                lam[a] = np.maximum(lam[a] / 10.0, 1e-12)
                by_step = np.equal(stop[a], None) & (shift.max(axis=1) < _REL_TOL)
                stop[a[by_step]] = "step"
                narrow[a] = np.where(np.abs(params[a, 1]) < spacing, narrow[a] + 1, 0)
            del trial, trial_parts, trial_resid
            p = p[~accepted & np.equal(stop[p], None)]
            lam[p] *= 10.0

        # A row still in p found no step in 50 tries.
        done = stop.astype(bool) | (narrow == 3) | (n_iter == _MAX_ITER)
        done[p] = True
        if not done.any():
            continue
        finished = np.flatnonzero(done)
        for k, inv_jtj in zip(finished, _inverse_normals(jac[finished])):
            try:
                end = params[k].tolist(), inv_jtj, float(rss[k]), n_iter, stop[k]
                results[rows[k]] = _fit_result(x, spacing, *end)
            except (NoPeakFound, NonConvergence) as exc:
                # Without its traceback, which would keep this frame's
                # arrays alive in a reference cycle.
                results[rows[k]] = exc.with_traceback(None)
        live = ~done
        rows, y, params, jac, resid, rss, lam, narrow, stop = (
            v[live] for v in (rows, y, params, jac, resid, rss, lam, narrow, stop)
        )
    # The last few live rows go on in the scalar loop, each from its state.
    for k in range(rows.size):
        try:
            results[rows[k]] = _fit_from(
                x, y[k], spacing, params[k].tolist(), jac[k], resid[k],
                float(rss[k]), float(lam[k]), int(narrow[k]), n_iter,
            )
        except (NoPeakFound, NonConvergence) as exc:
            results[rows[k]] = exc.with_traceback(None)
    return results


def odmr_contrast(
    fit: LorentzFit, dc_v: float, demod_gain: float = SQUARE_AM_GAIN
) -> float:
    """Physical dip contrast from a demodulated-sweep fit and DC level."""
    if dc_v <= 0:
        raise ZeroDC(f"dc_v must be positive, got {dc_v}")
    if demod_gain <= 0:
        raise ValueError("demod_gain must be positive")
    return abs(fit.amplitude) / (dc_v * demod_gain)


def shot_noise_sensitivity(fwhm_hz, contrast, rate_hz, g_factor: float = G_FACTOR):
    """Photon shot-noise limited field sensitivity in T / sqrt(Hz).

    Takes numbers, which give a float, or arrays, where a NaN input gives a
    NaN cell; any input at or below zero raises NonPositiveInput.
    """
    inputs = {"fwhm_hz": fwhm_hz, "contrast": contrast, "rate_hz": rate_hz}
    for name, value in inputs.items():
        if np.any(value <= 0):
            raise NonPositiveInput(f"{name} must be positive, got {np.nanmin(value)}")
    gamma = gyromagnetic_ratio(g_factor)
    out = SHOT_NOISE_PREFACTOR * fwhm_hz / (gamma * contrast * np.sqrt(rate_hz))
    return out if np.ndim(out) else float(out)


def map_argmin(p_opt_w, p_rf_w, arrays) -> dict:
    """The argmin.json record of the best cell of a map's four arrays.

    That is the first least finite eta in grid order, so on ascending axes
    a tie goes to the lowest p_opt_w, then the lowest p_rf_w.  Raises
    EmptyGrid when no cell is finite.
    """
    eta = arrays[-1]
    finite = np.isfinite(eta)
    if not finite.any():
        raise EmptyGrid("no finite sensitivity values in map")
    i, j = np.unravel_index(np.argmin(np.where(finite, eta, np.inf)), eta.shape)
    values = (p_opt_w[i], p_rf_w[j], *(a[i, j] for a in arrays))
    return dict(zip(MAP_HEADER.split(","), map(float, values)))


def build_sensitivity_map(
    model: BroadeningModel,
    pl_rate_per_w: float,
    p_opt_values,
    p_rf_values,
    g_factor: float = G_FACTOR,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form map arrays over a power grid (no signal simulation).

    eta is NaN where the contrast or the rate is zero.
    """
    p_opt = np.asarray(p_opt_values, dtype=float)
    p_rf = np.asarray(p_rf_values, dtype=float)
    if p_opt.size == 0 or p_rf.size == 0:
        raise EmptyGrid("power grid must have at least one point per axis")
    rate = photon_rate(pl_rate_per_w, p_opt[:, None])
    fwhm, contrast, rate = np.broadcast_arrays(
        saturated_fwhm(model, p_rf),
        saturated_contrast(model, p_rf, p_opt[:, None]),
        rate,
    )
    live = (contrast > 0) & (rate > 0)
    eta = shot_noise_sensitivity(
        *(np.where(live, v, math.nan) for v in (fwhm, contrast, rate)), g_factor
    )
    return fwhm, contrast, rate, eta


def analyze_steps(
    step_means_t, step_stds_t, timeline: FieldTimeline, cfg: LockInConfig
) -> dict:
    """The steps.json statistics of a tracked staircase, as Python floats.

    The means and standard deviations (ddof=1) are simulate_fm_tracking's,
    each over its step's settled window, 5 tau after the step edge.  Pools
    the per-step standard deviations as an RMS and quotes sensitivity as
    pooled std times sqrt(time constant).
    """
    means = np.asarray(step_means_t, dtype=float)
    stds = np.asarray(step_stds_t, dtype=float)
    true = np.asarray(timeline.bz_t, dtype=float)
    pooled = float(np.sqrt(np.mean(stds**2)))
    return {
        "step_true_t": true.tolist(),
        "step_means_t": means.tolist(),
        "step_stds_t": stds.tolist(),
        "residuals_t": (means - true).tolist(),
        "pooled_std_t": pooled,
        "sensitivity_t_rthz": pooled * math.sqrt(cfg.time_constant_s),
        "settle_discard_s": float(cfg.settle_discard_s),
        "time_constant_s": float(cfg.time_constant_s),
    }
