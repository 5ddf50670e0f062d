"""Detector, shot noise and lock-in signal chain simulation.

Scaling convention
------------------
The demodulator multiplies the input by a unit-amplitude cosine reference
and low-passes the product with a gain of two, so a square-wave
amplitude-modulated input of depth d * V_dc settles to (2/pi) * d * V_dc
(the amplitude of the fundamental Fourier component).  Analysis code that
wants the physical contrast back multiplies by pi/2.

The low-pass is a one-modulation-period moving average (a synchronous comb
whose nulls sit exactly on the carrier and its harmonics) followed by a
single-pole stage of time constant ``time_constant_s``.  The comb
contributes negligible extra noise bandwidth; without it the carrier
feedthrough of the pole would swamp nanotesla-scale readouts.  It requires
the sample rate to be an integer multiple of the modulation frequency.

Modulation clocks
-----------------
The AM gate drives the RF on while cos(2 pi f_mod t) < 0, the FM switcher
sits at +deviation while cos(2 pi f_mod t) >= 0, and the reference is
cos(2 pi f_mod t) itself, so an ODMR dip demodulates positive and the FM
discriminator has positive slope for a carrier parked above resonance.
Both clocks and the reference are read from one-cycle tables indexed by the
sample number modulo samples_per_cycle, so every cycle is the same: cos
evaluated at large sample numbers would let rounding flip the samples that
sit exactly on cos = 0 when samples_per_cycle is divisible by 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DeviationTooLarge,
    NegativeVoltage,
    SampleRateMismatch,
)
from .lineshape import (
    BroadeningModel,
    PeakShape,
    lorentzian_sum,
    lorentzian_value,
    saturated_contrast,
    saturated_fwhm,
    synthesize_odmr,
)
from .io_formats import SweepRecord
from .spin_model import (
    FieldVector,
    SpinParams,
    TransitionLine,
    build_hamiltonian,
    eigenlevels,
    transitions,
)

# Planck's constant (J s) and the speed of light (m/s): exact SI values,
# as CODATA 2022 lists them.
_PLANCK = 6.62607015e-34
_SPEED_OF_LIGHT = 299792458.0

SQUARE_AM_GAIN = 2.0 / math.pi

# Above this mean count a Gaussian draw replaces the Poisson draw; keeps
# long tracking simulations tractable without visible distortion.
GAUSSIAN_MEAN_THRESHOLD = 1e4

_BLOCK = 1_000_000

# Most samples a run may simulate in one series (8 bytes each per array);
# the sample counts sized by the config are checked against it before
# anything is allocated.
MAX_SAMPLES = 50_000_000

# AM sweeps run whole dwells in blocks of at most this many samples (at
# least one dwell), which bounds the memory a cell needs.
_AM_BLOCK = 2**14


@dataclass(frozen=True)
class DetectorModel:
    """Photodiode plus transimpedance stage; rates count detected photons."""

    responsivity_a_per_w: float = 0.6
    transimpedance_v_per_a: float = 1e6
    effective_wavelength_m: float = 900e-9

    def __post_init__(self) -> None:
        for name in (
            "responsivity_a_per_w",
            "transimpedance_v_per_a",
            "effective_wavelength_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def photon_energy_j(self) -> float:
        return _PLANCK * _SPEED_OF_LIGHT / self.effective_wavelength_m

    @property
    def volts_per_photon_rate(self) -> float:
        """Detector output volts per (photon/s) of detected PL."""
        return (
            self.photon_energy_j
            * self.responsivity_a_per_w
            * self.transimpedance_v_per_a
        )


def photon_rate_from_voltage(v_dc: float, detector: DetectorModel) -> float:
    """Detected photon rate implied by a DC detector voltage."""
    if v_dc < 0:
        raise NegativeVoltage(f"detector voltage must be >= 0, got {v_dc}")
    return v_dc / detector.volts_per_photon_rate


def voltage_from_photon_rate(rate_hz: float, detector: DetectorModel) -> float:
    """Inverse of photon_rate_from_voltage."""
    return rate_hz * detector.volts_per_photon_rate


def _shot_counts(mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised photon counts with the Gaussian switch; returns floats."""
    out = np.empty_like(mean)
    big = mean > GAUSSIAN_MEAN_THRESHOLD
    small = ~big
    if small.any():
        out[small] = rng.poisson(mean[small])
    if big.any():
        mu = mean[big]
        out[big] = np.maximum(rng.normal(mu, np.sqrt(mu)), 0.0)
    return out


@dataclass(frozen=True)
class LockInConfig:
    """Demodulator settings; see the module docstring for conventions."""

    mode: str = "am"
    mod_freq_hz: float = 10e3
    time_constant_s: float = 0.5
    sample_rate_hz: float = 100e3
    fm_deviation_hz: float = 1e5

    def __post_init__(self) -> None:
        if self.mode not in ("am", "fm"):
            raise ValueError(f"mode must be 'am' or 'fm', got {self.mode!r}")
        if self.mod_freq_hz <= 0:
            raise ValueError("mod_freq_hz must be positive")
        if self.sample_rate_hz < 10.0 * self.mod_freq_hz:
            raise ValueError("sample_rate_hz must be at least 10x mod_freq_hz")
        if self.time_constant_s <= 1.0 / self.mod_freq_hz:
            raise ValueError("time_constant_s must exceed one modulation period")
        ratio = self.sample_rate_hz / self.mod_freq_hz
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                "sample_rate_hz must be an integer multiple of mod_freq_hz"
            )
        if self.fm_deviation_hz is None or self.fm_deviation_hz <= 0:
            raise ValueError("fm_deviation_hz must be positive")
        # The FM slope runs simulate 8 tau; the settling discard is 5 tau.
        if 8.0 * self.time_constant_s * self.sample_rate_hz > MAX_SAMPLES:
            raise ValueError(
                "time_constant_s x sample_rate_hz must be at most "
                f"{MAX_SAMPLES // 8} samples"
            )

    @property
    def samples_per_cycle(self) -> int:
        return int(round(self.sample_rate_hz / self.mod_freq_hz))

    @property
    def dt_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def settle_samples(self) -> int:
        """Samples covering the 5 tau settling discard."""
        return int(math.ceil(5.0 * self.time_constant_s * self.sample_rate_hz))


@dataclass
class TimeSeries:
    """Uniformly sampled series with a unit tag."""

    t0_s: float
    dt_s: float
    values: np.ndarray
    unit: str

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self.values = np.asarray(self.values, dtype=float)

    def times(self) -> np.ndarray:
        return self.t0_s + self.dt_s * np.arange(self.values.size)


@dataclass(frozen=True)
class FieldTimeline:
    """Piecewise-constant axial field: starts_s[0] == 0, strictly increasing."""

    starts_s: np.ndarray
    bz_t: np.ndarray

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts_s, dtype=float)
        bz = np.asarray(self.bz_t, dtype=float)
        object.__setattr__(self, "starts_s", starts)
        object.__setattr__(self, "bz_t", bz)
        if starts.size == 0 or starts.size != bz.size:
            raise ValueError("timeline needs equal-length, non-empty arrays")
        if starts[0] != 0.0:
            raise ValueError("timeline must start at t = 0")
        if starts.size >= 2 and not np.all(np.diff(starts) > 0):
            raise ValueError("timeline starts must be strictly increasing")

    def value_at(self, t_s: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts_s, t_s, side="right") - 1
        return self.bz_t[np.clip(idx, 0, self.bz_t.size - 1)]

    @classmethod
    def staircase(
        cls,
        bias_t: float,
        step_t: float,
        period_s: float,
        n_steps: int,
    ) -> "FieldTimeline":
        """Monotone staircase of n_steps levels centred on bias."""
        k = np.arange(n_steps, dtype=float)
        offset = k - 0.5 * (n_steps - 1)
        return cls(starts_s=k * period_s, bz_t=bias_t + step_t * offset)


@dataclass(frozen=True)
class Scene:
    """Everything needed to predict the detector signal at fixed powers."""

    spin: SpinParams
    field: FieldVector
    broadening: BroadeningModel
    detector: DetectorModel
    pl_rate_per_w: float
    p_opt_w: float
    p_rf_w: float
    hyperfine: bool = True

    def photon_rate_hz(self) -> float:
        return self.pl_rate_per_w * self.p_opt_w

    def dc_voltage(self) -> float:
        return voltage_from_photon_rate(self.photon_rate_hz(), self.detector)

    def lines(self) -> list[TransitionLine]:
        levels = eigenlevels(build_hamiltonian(self.spin, self.field))
        return transitions(
            levels, self.spin, include_hyperfine=self.hyperfine
        )


def _cycle_cos(cfg: LockInConfig) -> np.ndarray:
    """cos(2 pi k / n) over one modulation cycle of n samples."""
    n = cfg.samples_per_cycle
    return np.cos(2.0 * math.pi * np.arange(n) / n)


def _periodic(cycle: np.ndarray, index: int, n: int) -> np.ndarray:
    """Samples index .. index + n - 1 of a signal that repeats cycle."""
    start = index % cycle.size
    return np.tile(cycle, (start + n) // cycle.size + 1)[start : start + n]


def _am_gate(cfg: LockInConfig, index: int, n: int) -> np.ndarray:
    """RF-on flags of the AM gate (cos < 0) for samples index .. index + n - 1."""
    return _periodic(_cycle_cos(cfg) < 0, index, n)


def _fm_switch(cfg: LockInConfig, index: int, n: int) -> np.ndarray:
    """FM deviation sign (+1 where cos >= 0) for samples index .. index + n - 1."""
    return _periodic(np.where(_cycle_cos(cfg) >= 0, 1.0, -1.0), index, n)


class _CycleMean:
    """One-period moving average: the ripple-free DC reading and the comb.

    It keeps the last n - 1 inputs rather than partial sums, so each output
    is the same n-term sum however a series is split into blocks.
    """

    def __init__(self, cfg: LockInConfig):
        n = cfg.samples_per_cycle
        self._b = np.full(n, 1.0 / n)
        self._history = np.zeros(n - 1)

    def process(self, values: np.ndarray) -> np.ndarray:
        padded = np.concatenate((self._history, values))
        self._history = padded[values.size :].copy()
        # For an empty block padded is shorter than the kernel, so
        # np.convolve swaps its arguments; the slice keeps the output empty.
        return np.convolve(padded, self._b, mode="valid")[: values.size]


class _Demodulator:
    """Stateful demodulation chain usable on consecutive sample blocks."""

    def __init__(self, cfg: LockInConfig):
        # scipy.signal costs about 1 s and 55 MB to import and only the
        # lock-in needs it, so spectrum and fit never load it.
        from scipy.signal import lfilter

        self._lfilter = lfilter
        self._ref = 2.0 * _cycle_cos(cfg)
        self._comb = _CycleMean(cfg)
        beta = 1.0 - math.exp(-cfg.dt_s / cfg.time_constant_s)
        self._b = np.array([beta])
        self._a = np.array([1.0, beta - 1.0])
        self._zi = np.zeros(1)
        self.index = 0

    def process(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            # lfilter returns a wrong final state for an empty block.
            return np.empty(0)
        prod = values * _periodic(self._ref, self.index, values.size)
        out, self._zi = self._lfilter(
            self._b, self._a, self._comb.process(prod), zi=self._zi
        )
        self.index += values.size
        return out


def lockin_demodulate(raw: TimeSeries, cfg: LockInConfig) -> TimeSeries:
    """Demodulate a raw detector series; output settles over ~5 tau.

    Raises SampleRateMismatch when the series sample interval disagrees
    with the configuration.
    """
    if abs(raw.dt_s * cfg.sample_rate_hz - 1.0) > 1e-9:
        raise SampleRateMismatch(
            f"series dt {raw.dt_s} does not match sample_rate_hz "
            f"{cfg.sample_rate_hz}"
        )
    demod = _Demodulator(cfg)
    demod.index = int(round(raw.t0_s * cfg.sample_rate_hz))
    out = demod.process(raw.values)
    return TimeSeries(t0_s=raw.t0_s, dt_s=raw.dt_s, values=out, unit="V")


@dataclass(frozen=True)
class SweepPlan:
    """Frequency sweep played against the square-wave AM gate."""

    f_start_hz: float
    f_stop_hz: float
    n_points: int
    dwell_s: float

    def __post_init__(self) -> None:
        if self.f_stop_hz <= self.f_start_hz:
            raise ValueError("f_stop_hz must exceed f_start_hz")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if self.dwell_s <= 0:
            raise ValueError("dwell_s must be positive")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start_hz, self.f_stop_hz, self.n_points)


def simulate_am_sweep(
    scene: Scene,
    plan: SweepPlan,
    cfg: LockInConfig,
    seed=0,
    shot_noise: bool = True,
) -> SweepRecord:
    """Simulate a square-wave AM ODMR sweep through the lock-in.

    Each swept point is held for plan.dwell_s (must be at least 5 tau);
    the reading is the demodulated output averaged after the settling
    discard, and dc_v is the cycle-averaged raw voltage over the same
    window.  An extra discarded lead-in dwell at the first frequency
    removes the initial filter transient.  With shot_noise False the
    output equals the 2/pi-scaled synthesized lineshape.  The chain is
    stateful, so running whole dwells in blocks changes no simulated sample.
    """
    if cfg.mode != "am":
        raise ValueError("simulate_am_sweep needs an 'am' lock-in config")
    if plan.dwell_s < 5.0 * cfg.time_constant_s - 1e-12:
        raise ValueError("dwell_s must be at least 5 lock-in time constants")

    freqs = plan.frequencies()
    spectrum = synthesize_odmr(
        scene.lines(),
        scene.broadening,
        scene.p_rf_w,
        scene.p_opt_w,
        freqs,
    )
    depth = spectrum.values
    rate0 = scene.photon_rate_hz()
    k_v = scene.detector.volts_per_photon_rate
    dt = cfg.dt_s
    dwell_n = int(round(plan.dwell_s * cfg.sample_rate_hz))
    settle_n = min(cfg.settle_samples, dwell_n - 1)

    rng = np.random.default_rng(seed)
    demod = _Demodulator(cfg)
    cycle_mean = _CycleMean(cfg)

    # Dwell 0 is the discarded lead-in at the first frequency.
    levels = np.concatenate((depth[:1], depth))
    lockin = np.empty(levels.size)
    dc = np.empty(levels.size)
    per_block = max(1, _AM_BLOCK // dwell_n)
    for first in range(0, levels.size, per_block):
        block = slice(first, first + per_block)
        n_dwells = levels[block].size
        gate = _am_gate(cfg, demod.index, n_dwells * dwell_n)
        rate = rate0 * (1.0 - levels[block, None] * gate.reshape(n_dwells, dwell_n))
        if shot_noise:
            volts = k_v * _shot_counts(rate.ravel() * dt, rng) / dt
        else:
            volts = k_v * rate.ravel()
        smooth_dc = cycle_mean.process(volts).reshape(n_dwells, dwell_n)
        out = demod.process(volts).reshape(n_dwells, dwell_n)
        lockin[block] = out[:, settle_n:].mean(axis=1)
        dc[block] = smooth_dc[:, settle_n:].mean(axis=1)
    return SweepRecord(frequency_hz=freqs, lockin_v=lockin[1:], dc_v=dc[1:])


def _fm_settled_output(
    peak: PeakShape, cfg: LockInConfig, v_dc: float, detuning_hz: float
) -> float:
    """Noise-free settled demodulator output with the carrier detuned."""
    n = int(round(8.0 * cfg.time_constant_s * cfg.sample_rate_hz))
    demod = _Demodulator(cfg)
    sign = _fm_switch(cfg, 0, n)
    nu_inst = peak.center_hz + detuning_hz + cfg.fm_deviation_hz * sign
    volts = v_dc * (1.0 - lorentzian_value(peak, nu_inst))
    out = demod.process(volts)
    return float(np.mean(out[cfg.settle_samples :]))


def fm_discriminator_slope(
    peak: PeakShape, cfg: LockInConfig, v_dc: float
) -> float:
    """Demodulated volts per hertz of carrier detuning, at resonance.

    Computed by symmetric numeric differentiation of the modelled FM
    response so that any discretisation gain of the sampled chain cancels
    when converting readouts back to frequency or field.
    """
    if cfg.fm_deviation_hz >= peak.fwhm_hz:
        raise DeviationTooLarge(
            f"fm deviation {cfg.fm_deviation_hz:.3g} Hz >= linewidth "
            f"{peak.fwhm_hz:.3g} Hz"
        )
    h = peak.fwhm_hz / 100.0
    plus = _fm_settled_output(peak, cfg, v_dc, +h)
    minus = _fm_settled_output(peak, cfg, v_dc, -h)
    return (plus - minus) / (2.0 * h)


@dataclass
class TrackingResult:
    """Output of simulate_fm_tracking."""

    lockin: TimeSeries
    field_estimate: TimeSeries
    carrier_hz: float
    slope_v_per_hz: float
    gamma_eff_hz_per_t: float
    field_noise_sigma_in_t: float


def _line_table(scene: Scene) -> tuple[list[TransitionLine], np.ndarray]:
    """Scene lines at the bias field plus each line's d(freq)/d(bz) slope."""
    lines = scene.lines()
    h = 1e-6
    shifts: dict[str, float] = {}
    for sign in (+1.0, -1.0):
        shifted = replace(
            scene, field=replace(scene.field, bz_t=scene.field.bz_t + sign * h)
        )
        for ln in shifted.lines():
            shifts[ln.label] = shifts.get(ln.label, 0.0) + sign * ln.frequency_hz
    return lines, np.array([shifts[ln.label] / (2.0 * h) for ln in lines])


def _filter_energy_pure(cfg: LockInConfig) -> float:
    """Sum of the squared impulse response of the comb plus the pole alone.

    With a = exp(-dt / tau) and n samples per cycle the response is
    (1 - a^(k+1)) / n for k < n and a^(k-n+1) (1 - a^n) / n after, so the
    sum is [sum_{m=1}^{n-1} (1 - a^m)^2 + (1 - a^n)^2 / (1 - a^2)] / n^2.
    """
    n = cfg.samples_per_cycle
    x = cfg.dt_s / cfg.time_constant_s
    rise = -np.expm1(-x * np.arange(1, n + 1))  # 1 - a^m for m = 1 .. n
    tail = rise[-1] ** 2 / -math.expm1(-2.0 * x)
    return float((np.sum(rise[:-1] ** 2) + tail) / (n * n))


def simulate_fm_tracking(
    timeline: FieldTimeline,
    scene: Scene,
    cfg: LockInConfig,
    duration_s: float,
    seed=0,
    shot_noise: bool = True,
    field_noise_step_sigma_t: float = 0.0,
) -> TrackingResult:
    """Track an axial field timeline with the FM-locked discriminator.

    The RF carrier is parked on the rising (nu2) resonance of the scene's
    bias field and square-wave switched by +-fm_deviation_hz.  The
    demodulated output is converted to a field estimate with the modelled
    discriminator slope and the numeric d(nu2)/d(bz) of the scene, so a
    constant field reads back as the bias.

    field_noise_step_sigma_t, when positive, injects white field noise
    calibrated so the settled field-estimate standard deviation equals the
    requested value.
    """
    if cfg.mode != "fm":
        raise ValueError("simulate_fm_tracking needs an 'fm' lock-in config")
    rate0 = scene.photon_rate_hz()
    if rate0 <= 0:
        raise ValueError("scene photon rate must be positive for tracking")

    lines, slopes = _line_table(scene)
    labels = [ln.label for ln in lines]
    if "nu2" not in labels:
        raise ValueError("scene produces no nu2 line to track")
    nu2 = labels.index("nu2")
    fwhm = saturated_fwhm(scene.broadening, scene.p_rf_w)
    contrast = saturated_contrast(scene.broadening, scene.p_rf_w, scene.p_opt_w)
    amps = np.array([contrast * ln.rel_strength for ln in lines])
    centers = np.array([ln.frequency_hz for ln in lines])
    carrier = lines[nu2].frequency_hz
    gamma_eff = float(slopes[nu2])
    v_dc = scene.dc_voltage()
    k_v = scene.detector.volts_per_photon_rate
    slope_v = fm_discriminator_slope(PeakShape(carrier, fwhm, amps[nu2]), cfg, v_dc)

    sigma_in = 0.0
    if field_noise_step_sigma_t > 0:
        # Field noise sees a gain that varies over a cycle: the field slope
        # of the modulated line times the reference.  The settled output
        # variance is its mean square times the demod filter energy.
        n = cfg.samples_per_cycle
        nu_cycle = carrier + cfg.fm_deviation_hz * _fm_switch(cfg, 0, n)
        eps = 1e-8
        plus = lorentzian_sum(nu_cycle, centers + slopes * eps, amps, fwhm)
        minus = lorentzian_sum(nu_cycle, centers - slopes * eps, amps, fwhm)
        gain = 2.0 * _cycle_cos(cfg) * v_dc * (minus - plus) / (2.0 * eps)
        sigma_out = math.sqrt(np.mean(gain**2) * _filter_energy_pure(cfg))
        field_gain = abs(slope_v * gamma_eff)
        if sigma_out <= 0 or field_gain <= 0:
            raise ValueError("cannot calibrate field noise for a flat response")
        sigma_in = field_noise_step_sigma_t * field_gain / sigma_out

    dt = cfg.dt_s
    n_total = int(round(duration_s * cfg.sample_rate_hz))
    bias = scene.field.bz_t

    rng = np.random.default_rng(seed)
    demod = _Demodulator(cfg)
    out = np.empty(n_total)
    for start in range(0, n_total, _BLOCK):
        stop = min(start + _BLOCK, n_total)
        k = np.arange(start, stop)
        t = k * dt
        db = timeline.value_at(t) - bias
        if sigma_in > 0:
            db = db + rng.normal(0.0, sigma_in, size=db.size)
        nu_inst = carrier + cfg.fm_deviation_hz * _fm_switch(cfg, start, stop - start)
        moving = (center + slope * db for center, slope in zip(centers, slopes))
        depth = lorentzian_sum(nu_inst, moving, amps, fwhm)
        rate = rate0 * (1.0 - depth)
        if shot_noise:
            volts = k_v * _shot_counts(rate * dt, rng) / dt
        else:
            volts = k_v * rate
        out[start:stop] = demod.process(volts)

    estimate = bias - out / (slope_v * gamma_eff)
    return TrackingResult(
        lockin=TimeSeries(t0_s=0.0, dt_s=dt, values=out, unit="V"),
        field_estimate=TimeSeries(t0_s=0.0, dt_s=dt, values=estimate, unit="T"),
        carrier_hz=carrier,
        slope_v_per_hz=slope_v,
        gamma_eff_hz_per_t=gamma_eff,
        field_noise_sigma_in_t=sigma_in,
    )
