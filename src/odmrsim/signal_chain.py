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

The pole a = exp(-1 / (tau fs)) runs in numpy, in chunks of
K = floor(ln 256 tau fs) samples, so a^-K stays at most 256: a chunk's
outputs are one cumulative sum scaled by powers of a, and one short loop
over chunks carries the state (a first-order linear scan; Blelloch,
"Prefix Sums and Their Applications", CMU-CS-90-190, 1990).  It matches
the sample-by-sample recurrence to about 1e-14 relative, and its output
does not depend on how a series is split into blocks.

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

Dwell response
--------------
An AM sweep holds depth level l_d for dwell d and reads the settled mean
of the demodulated output in each dwell.  Without noise the chain is
linear in the levels, so per unit photon rate the means are
base + W @ levels: base is the response to a constant 1 and column d of W
the response to the unit dip gated through dwell d alone.  Because the
chain repeats every cycle, a column depends only on the gate phase at its
dwell start (one phase when a dwell is a whole number of cycles), and
because a dwell is at least 5 tau it reaches only a few later dwells
before it falls below double precision.  So W is stored as a few lags per
start phase, built once per lock-in config and dwell layout.  An interior
column sums to the sampled demodulation gain (2/n) sum_{cos<0} |cos|,
0.6472 at n = 10 samples per cycle, not 2/pi; about 0.14% of it spills
into the next dwell at the shipped 10 tau dwell.  Shot noise adds the
demodulated residual of the drawn counts about the noise-free rate.

Without noise dc_v is exactly k_v rate0 (1 - level m/n), m the RF-on
samples per n-sample cycle: after the settling discard (5 tau, over five
periods) every comb output averages one whole gate cycle at one level.
"""

from __future__ import annotations

import functools
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

# Most samples a run may simulate in one series (8 bytes each per array);
# the sample counts and array sizes a config sets are checked against it
# before anything is allocated.
MAX_SAMPLES = 50_000_000

# AM sweeps and FM tracking run in blocks of at most this many samples (an
# AM block holds whole dwells, at least one), which bounds the memory a run
# needs.  At 2**13 the block's arrays stay under 64 KiB, below which glibc
# frees without trimming the heap, so the heap is not refaulted block after
# block.
_BLOCK = 2**13

# Time constants after which the pole's decay falls below 2^-53; the dwell
# response keeps only the lags that start before that.
_LAG_TAUS = 53.0 * math.log(2.0)


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
    def settle_discard_s(self) -> float:
        """The settling discard, 5 time constants."""
        return 5.0 * self.time_constant_s

    @property
    def settle_samples(self) -> int:
        """Samples covering the settling discard."""
        return int(math.ceil(self.settle_discard_s * self.sample_rate_hz))


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

    def times(self, step: int = 1) -> np.ndarray:
        """Time of every step-th sample, without building the others."""
        return self.t0_s + self.dt_s * np.arange(0, self.values.size, step)


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

    def photon_rate_hz(self) -> float:
        return self.pl_rate_per_w * self.p_opt_w

    def dc_voltage(self) -> float:
        return voltage_from_photon_rate(self.photon_rate_hz(), self.detector)

    def lines(self) -> list[TransitionLine]:
        return list(_solve_lines(self.spin, self.field))


@functools.lru_cache(maxsize=16)
def _solve_lines(spin: SpinParams, field: FieldVector) -> tuple[TransitionLine, ...]:
    """Lines of one field, each nu2 line flanked by hyperfine satellites.

    The satellites sit at +- spin.hyperfine_offset_hz with
    spin.hyperfine_rel_amp of the nu2 strength; none is added at zero
    amplitude or at a frequency <= 0.  Lines are sorted by (frequency_hz,
    label).  Cached, so a map solves its one field once.
    """
    lines = transitions(eigenlevels(build_hamiltonian(spin, field)))
    amp, offset = spin.hyperfine_rel_amp, spin.hyperfine_offset_hz
    for ln in [ln for ln in lines if ln.label == "nu2" and amp > 0]:
        for side, sign in ("plus", 1.0), ("minus", -1.0):
            sat = replace(
                ln,
                label=f"nu2_sat_{side}",
                frequency_hz=ln.frequency_hz + sign * offset,
                rel_strength=ln.rel_strength * amp,
            )
            if sat.frequency_hz > 0:
                lines.append(sat)
    return tuple(sorted(lines, key=lambda ln: (ln.frequency_hz, ln.label)))


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


class _Pole:
    """Single-pole low-pass y[k] = a y[k-1] + beta x[k], in chunks of K samples.

    After state y0, sample j of a chunk is a^(j+1) (y0 + sum_{s<=j} beta
    a^-(s+1) x[s]).  Chunks count from the first sample the stage sees; it
    keeps y0 and the inputs of the partial last chunk, and recomputes that
    chunk on the next call.
    """

    def __init__(self, cfg: LockInConfig):
        x = cfg.dt_s / cfg.time_constant_s
        powers = x * np.arange(1, int(math.log(256.0) / x) + 1)
        self._decay = np.exp(-powers)  # a^(j+1)
        self._gain = -math.expm1(-x) * np.exp(powers)  # beta a^-(s+1)
        self._start = 0.0
        self._partial = np.empty(0)

    def process(self, values: np.ndarray) -> np.ndarray:
        k = self._decay.size
        kept = self._partial.size
        n = kept + values.size
        full, rest = divmod(n, k)
        chunks = np.zeros((full + (rest > 0), k))
        flat = chunks.reshape(-1)
        flat[:kept] = self._partial
        flat[kept:n] = values
        self._partial = flat[full * k : n].copy()
        chunks *= self._gain
        np.cumsum(chunks, axis=1, out=chunks)
        starts = [self._start]
        for total in chunks[:full, -1].tolist():
            starts.append(self._decay[-1] * (starts[-1] + total))
        self._start = starts[full]
        chunks += np.array(starts[: len(chunks)])[:, None]
        chunks *= self._decay
        return flat[kept:n]


class _Demodulator:
    """Stateful demodulation chain usable on consecutive sample blocks."""

    def __init__(self, cfg: LockInConfig):
        self._ref = 2.0 * _cycle_cos(cfg)
        self._comb = _CycleMean(cfg)
        self._pole = _Pole(cfg)
        self.index = 0

    def process(self, values: np.ndarray) -> np.ndarray:
        prod = values * _periodic(self._ref, self.index, values.size)
        self.index += values.size
        return self._pole.process(self._comb.process(prod))


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
        if self.n_points > MAX_SAMPLES:
            raise ValueError(f"n_points must be at most {MAX_SAMPLES}")
        if self.dwell_s <= 0:
            raise ValueError("dwell_s must be positive")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start_hz, self.f_stop_hz, self.n_points)


def _dwell_blocks(n_dwells: int, dwell_n: int):
    """Slices of whole dwells, each at most _BLOCK samples or one dwell.

    With dwell_n = 1 the slices are of samples, as FM tracking runs them.
    """
    per_block = max(1, _BLOCK // dwell_n)
    for first in range(0, n_dwells, per_block):
        yield slice(first, min(first + per_block, n_dwells))


def _settled_means(values: np.ndarray, dwell_n: int, settle_n: int) -> np.ndarray:
    """Mean of each whole dwell of values after its settling discard."""
    return values.reshape(-1, dwell_n)[:, settle_n:].mean(axis=1)


def _dip_response(
    cfg: LockInConfig,
    phase: int,
    dwell_n: int,
    settle_n: int,
    offset: float,
    dips: np.ndarray,
) -> np.ndarray:
    """Settled lock-in mean per dwell of offset - dips[d] * gate.

    The run starts from a fresh demodulator at reference sample phase.
    """
    demod = _Demodulator(cfg)
    demod.index = phase
    means = np.empty(dips.size)
    for block in _dwell_blocks(dips.size, dwell_n):
        gate = _am_gate(cfg, demod.index, (block.stop - block.start) * dwell_n)
        x = offset - dips[block, None] * gate.reshape(-1, dwell_n)
        means[block] = _settled_means(demod.process(x.ravel()), dwell_n, settle_n)
    return means


@functools.lru_cache(maxsize=8)
def _dwell_response(
    cfg: LockInConfig, dwell_n: int, settle_n: int, n_dwells: int
) -> tuple[np.ndarray, np.ndarray]:
    """The dwell-response operator of an AM sweep (module docstring).

    Returns base, the settled means of a constant 1 over n_dwells dwells,
    and lags[p, j], the mean j dwells after a unit dip gated through one
    dwell that starts at the gate phase of dwell p; dwell d takes row
    d mod lags.shape[0].  Both are read-only.
    """
    n = cfg.samples_per_cycle
    n_phases = min(n // math.gcd(dwell_n, n), n_dwells)
    tau_n = cfg.time_constant_s * cfg.sample_rate_hz
    n_lags = min(1 + math.ceil(_LAG_TAUS * tau_n / dwell_n), n_dwells)
    pulse = np.zeros(n_lags)
    pulse[0] = 1.0
    lags = np.array(
        [
            _dip_response(cfg, p * dwell_n % n, dwell_n, settle_n, 0.0, pulse)
            for p in range(n_phases)
        ]
    )
    base = _dip_response(cfg, 0, dwell_n, settle_n, 1.0, np.zeros(n_dwells))
    base.flags.writeable = False
    lags.flags.writeable = False
    return base, lags


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
    reading is the synthesized lineshape times V_dc times the sampled
    demodulation gain (2/n) sum_{cos<0} |cos(2 pi k / n)| (0.6472 at
    n = 10 samples per cycle, 1.0166 x 2/pi), plus the small carry-over of
    the previous dwell.  The noise-free lock-in comes from the shared
    dwell-response operator and the noise-free dc_v is the exact one-cycle
    mean (module docstring), so a noise-free sweep builds no per-sample
    array.  Shot noise adds the demodulated residual of its per-sample
    draws, which keep the order and stream of a seed, and takes dc_v from
    the cycle mean of the drawn volts.
    """
    if cfg.mode != "am":
        raise ValueError("simulate_am_sweep needs an 'am' lock-in config")
    if plan.dwell_s < cfg.settle_discard_s - 1e-12:
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

    # Dwell 0 is the discarded lead-in at the first frequency.
    levels = np.concatenate((depth[:1], depth))
    base, lags = _dwell_response(cfg, dwell_n, settle_n, levels.size)
    n_phases, n_lags = lags.shape
    response = base.copy()
    for p in range(n_phases):
        for j in range(n_lags):
            later = response[p + j :: n_phases]
            later += lags[p, j] * levels[p::n_phases][: later.size]
    scale = k_v * rate0
    lockin = scale * response
    if not shot_noise:
        duty = np.count_nonzero(_cycle_cos(cfg) < 0) / cfg.samples_per_cycle
        # Rounds the small term, not 1 - level * duty, so it stays nearer
        # the exact value.
        dc = scale - scale * duty * levels
        return SweepRecord(frequency_hz=freqs, lockin_v=lockin[1:], dc_v=dc[1:])

    rng = np.random.default_rng(seed)
    demod = _Demodulator(cfg)
    cycle_mean = _CycleMean(cfg)
    dc = np.empty(levels.size)
    for block in _dwell_blocks(levels.size, dwell_n):
        gate = _am_gate(cfg, block.start * dwell_n, (block.stop - block.start) * dwell_n)
        rate = (rate0 * (1.0 - levels[block, None] * gate.reshape(-1, dwell_n))).ravel()
        noisy = k_v * _shot_counts(rate * dt, rng) / dt
        residual = demod.process(noisy - k_v * rate)
        lockin[block] += _settled_means(residual, dwell_n, settle_n)
        dc[block] = _settled_means(cycle_mean.process(noisy), dwell_n, settle_n)
    return SweepRecord(frequency_hz=freqs, lockin_v=lockin[1:], dc_v=dc[1:])


def _fm_settled_output(
    peak: PeakShape, cfg: LockInConfig, v_dc: float, detuning_hz: float
) -> float:
    """Noise-free settled demodulator output with the carrier detuned."""
    n = int(round(8.0 * cfg.time_constant_s * cfg.sample_rate_hz))
    demod = _Demodulator(cfg)
    sign = _fm_switch(cfg, 0, n)
    nu_inst = peak.center_hz + detuning_hz + cfg.fm_deviation_hz * sign
    depth = lorentzian_sum(nu_inst, [peak.center_hz], [peak.contrast], peak.fwhm_hz)
    volts = v_dc * (1.0 - depth)
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


def _line_slopes(scene: Scene, h: float) -> np.ndarray:
    """d(freq)/d(bz) of each scene line: a central difference over +-h.

    At bz +- h each line is paired with the line of its label and its rank
    in frequency among that label's lines, so lines sharing a label each
    get their own slope.
    """
    lines = scene.lines()
    labels = sorted(ln.label for ln in lines)
    # Stable sorts: each label's lines stay in frequency order.
    by_label = sorted(range(len(lines)), key=lambda i: lines[i].label)
    shifts = np.zeros(len(lines))
    for sign in (+1.0, -1.0):
        shifted = replace(
            scene, field=replace(scene.field, bz_t=scene.field.bz_t + sign * h)
        ).lines()
        if sorted(ln.label for ln in shifted) != labels:
            raise ValueError(
                f"the scene's lines change within {h:g} T of bz = "
                f"{scene.field.bz_t:g} T, so their field slopes are undefined"
            )
        for i, ln in zip(by_label, sorted(shifted, key=lambda ln: ln.label)):
            shifts[i] += sign * ln.frequency_hz
    return shifts / (2.0 * h)


def _line_table(scene: Scene) -> tuple[list[TransitionLine], np.ndarray]:
    """Scene lines at the bias field plus each line's d(freq)/d(bz) slope.

    Slopes are central differences over +-1 uT.  In a transverse field
    within 1 uT of bz = 0, the label nu2 can name one line below the bias
    and another above it, and its slope then reads hundreds of gamma.  So
    the tracked (first) nu2 line's slope is also taken over +-0.1 uT; where
    the two differ by more than half of the larger, ValueError says the
    slope is undefined.
    """
    lines = scene.lines()
    slopes = _line_slopes(scene, 1e-6)
    labels = [ln.label for ln in lines]
    if "nu2" in labels:
        nu2 = labels.index("nu2")
        wide, narrow = slopes[nu2], _line_slopes(scene, 1e-7)[nu2]
        if abs(wide - narrow) > 0.5 * max(abs(wide), abs(narrow)):
            raise ValueError(
                f"d(nu2)/d(bz) at bz = {scene.field.bz_t:g} T is "
                f"{wide:.4g} Hz/T over 1 uT but {narrow:.4g} Hz/T over "
                "0.1 uT, so the field slope is undefined there"
            )
    return lines, slopes


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
    field_gain = slope_v * gamma_eff
    if field_gain == 0 or not math.isfinite(field_gain):
        raise ValueError("cannot track the field with a flat discriminator response")

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
        if sigma_out <= 0:
            raise ValueError("cannot calibrate field noise for a flat response")
        sigma_in = field_noise_step_sigma_t * abs(field_gain) / sigma_out

    dt = cfg.dt_s
    n_total = int(round(duration_s * cfg.sample_rate_hz))
    bias = scene.field.bz_t

    # The whole run's field noise is drawn first, then the shot noise block
    # by block, so the field noise does not depend on the block size.
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma_in, n_total) if sigma_in > 0 else None
    demod = _Demodulator(cfg)
    out = np.empty(n_total)
    for block in _dwell_blocks(n_total, 1):
        t = np.arange(block.start, block.stop) * dt
        db = timeline.value_at(t) - bias
        if noise is not None:
            db = db + noise[block]
        nu_inst = carrier + cfg.fm_deviation_hz * _fm_switch(
            cfg, block.start, db.size
        )
        moving = (center + slope * db for center, slope in zip(centers, slopes))
        depth = lorentzian_sum(nu_inst, moving, amps, fwhm)
        rate = rate0 * (1.0 - depth)
        if shot_noise:
            volts = k_v * _shot_counts(rate * dt, rng) / dt
        else:
            volts = k_v * rate
        out[block] = demod.process(volts)

    # bias - out / field_gain, in place: one full-length temporary fewer.
    estimate = out / field_gain
    np.subtract(bias, estimate, out=estimate)
    return TrackingResult(
        lockin=TimeSeries(t0_s=0.0, dt_s=dt, values=out, unit="V"),
        field_estimate=TimeSeries(t0_s=0.0, dt_s=dt, values=estimate, unit="T"),
        carrier_hz=carrier,
        slope_v_per_hz=slope_v,
        gamma_eff_hz_per_t=gamma_eff,
        field_noise_sigma_in_t=sigma_in,
    )
