"""Phenomenological CW ODMR lineshapes and power broadening/saturation.

Lines are Lorentzian.  The linewidth grows with RF drive as
fwhm0 * sqrt(1 + p_rf / rf_sat_w) and carries no optical-power dependence;
the contrast saturates in both RF and optical power.

lorentzian_sum is the one line formula; the spectrum, the fitted curve and
the FM chain evaluate lines through it.  analysis._lorentz_model keeps its
own because the fit's Jacobian reuses its intermediates, and its rounding
defines every fitted and map value.  The one derivative formula, a line's
analytic derivative in its centre, is simulate_fm_tracking's field-noise
calibration, which weighs each line by its exact field slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTransitionList
from .spin_model import TransitionLine


@dataclass(frozen=True)
class BroadeningModel:
    """Power dependence of linewidth and contrast for one sample.

    fwhm0_hz: zero-RF-power linewidth.
    rf_sat_w: RF power scale of the linewidth broadening.
    contrast_max: asymptotic fractional PL contrast (0 < c < 1).
    opt_sat_w: optical power scale of the contrast saturation.
    rf_contrast_sat_w: RF power scale of the contrast saturation.
    """

    fwhm0_hz: float
    rf_sat_w: float
    contrast_max: float
    opt_sat_w: float
    rf_contrast_sat_w: float

    def __post_init__(self) -> None:
        for name in ("fwhm0_hz", "rf_sat_w", "opt_sat_w", "rf_contrast_sat_w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.contrast_max < 1:
            raise ValueError("contrast_max must lie in (0, 1)")


@dataclass(frozen=True)
class PeakShape:
    """A single resolved Lorentzian line."""

    center_hz: float
    fwhm_hz: float
    contrast: float

    def __post_init__(self) -> None:
        if self.fwhm_hz <= 0:
            raise ValueError("fwhm_hz must be positive")


@dataclass
class SyntheticSpectrum:
    """Fractional PL contrast sampled on a frequency grid."""

    frequency_hz: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SamplePreset:
    """Broadening calibration plus detected-PL rate per watt of pump."""

    broadening: BroadeningModel
    pl_rate_per_w: float


# Calibration presets for the two sample treatments.  The quenched material
# shows 10x the contrast of the annealed material while its PL rate is only
# 1.5x lower; the remaining numbers are fitted so that the sensitivity-map
# minima land near 3.5 and 57 nT/sqrt(Hz) at 0.4 W optical / 1 W RF drive.
PRESETS: dict[str, SamplePreset] = {
    "quenched": SamplePreset(
        broadening=BroadeningModel(
            fwhm0_hz=450e3,
            rf_sat_w=0.25,
            contrast_max=0.04,
            opt_sat_w=0.2,
            rf_contrast_sat_w=2.0 / 3.0,
        ),
        pl_rate_per_w=1.2e12,
    ),
    "annealed": SamplePreset(
        broadening=BroadeningModel(
            fwhm0_hz=600e3,
            rf_sat_w=0.25,
            contrast_max=0.004,
            opt_sat_w=0.2,
            rf_contrast_sat_w=2.0 / 3.0,
        ),
        pl_rate_per_w=0.8e12,
    ),
}


def lorentzian_sum(frequency_hz, centers_hz, amplitudes, fwhm_hz) -> np.ndarray:
    """Sum of a * (G/2)^2 / ((f - f0)^2 + (G/2)^2) over lines, in order.

    A center may be an array of the frequency's shape (a moving line), and
    centers_hz a generator, so such arrays need not all exist at once.  The
    amplitudes and the linewidth may be arrays too, such as (cells, 1)
    columns against a (points,) grid; the sum takes their broadcast shape.
    A detuning whose square overflows (a line beyond about 1.3e154 Hz)
    adds +0.0, the exact limit of its term.
    """
    half = 0.5 * fwhm_hz
    freq = np.asarray(frequency_hz, dtype=float)
    amplitudes = list(amplitudes)
    out = np.zeros(np.broadcast_shapes(freq.shape, *map(np.shape, [half, *amplitudes])))
    for center, amp in zip(centers_hz, amplitudes):
        detune = freq - center
        with np.errstate(over="ignore"):
            square = detune * detune
        out += amp * half * half / (square + half * half)
    return out


def saturated_fwhm(model: BroadeningModel, p_rf_w):
    """RF-power-broadened linewidth; independent of optical power.

    Raises ValueError where the linewidth or its square, which every
    Lorentzian takes, overflows.
    """
    p_rf = np.asarray(p_rf_w, dtype=float)
    if np.any(p_rf < 0):
        raise ValueError("p_rf_w must be non-negative")
    with np.errstate(over="ignore"):
        out = model.fwhm0_hz * np.sqrt(1.0 + p_rf / model.rf_sat_w)
        if not np.all(np.isfinite(out * out)):
            raise ValueError(f"p_rf_w {np.max(p_rf):g} W: the linewidth overflows")
    return out if out.ndim else float(out)


def saturated_contrast(model: BroadeningModel, p_rf_w, p_opt_w):
    """Doubly saturating contrast, zero at zero drive of either kind."""
    p_rf = np.asarray(p_rf_w, dtype=float)
    p_opt = np.asarray(p_opt_w, dtype=float)
    if np.any(p_rf < 0) or np.any(p_opt < 0):
        raise ValueError("powers must be non-negative")
    out = (
        model.contrast_max
        * (p_rf / (p_rf + model.rf_contrast_sat_w))
        * (p_opt / (p_opt + model.opt_sat_w))
    )
    return out if out.ndim else float(out)


def synthesize_odmr(
    lines: list[TransitionLine],
    model: BroadeningModel,
    p_rf_w,
    p_opt_w,
    grid_hz: np.ndarray,
) -> SyntheticSpectrum:
    """Superpose Lorentzians for every transition line on a frequency grid.

    All lines share the saturated linewidth; each line's amplitude is the
    saturated contrast scaled by its rel_strength.  Every given line is
    drawn, hyperfine satellites included; leave them out of lines to drop
    them.  Returns the grid and the summed fractional contrast on it; with
    (cells, 1) columns of powers, one row of contrast per cell.
    """
    if not lines:
        raise EmptyTransitionList("no transition lines to synthesise")
    grid = np.asarray(grid_hz, dtype=float)
    fwhm = saturated_fwhm(model, p_rf_w)
    contrast = saturated_contrast(model, p_rf_w, p_opt_w)
    amps = [contrast * ln.rel_strength for ln in lines]
    values = lorentzian_sum(grid, [ln.frequency_hz for ln in lines], amps, fwhm)
    return SyntheticSpectrum(frequency_hz=grid, values=values)
