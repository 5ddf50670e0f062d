"""Detector, shot noise and lock-in signal chain simulation.

Units
-----
simulate_am_cells and simulate_fm_tracking run in units of each cell's or
scene's unmodulated photon rate rate0, so every simulated value is O(1):
a sample reads counts / dt / rate0, its mean 1 - depth.  The detector
gain k_v (DetectorModel.volts_per_photon_rate) cancels from every result,
so it is applied only to volts a caller sees: Scene.in_volts multiplies
by Scene.dc_voltage(), k_v rate0, for the sweep simulate_am_sweep
returns and the lock-in and slope `odmr steps` writes.

Scaling convention
------------------
The demodulator multiplies the input by a unit-amplitude cosine reference
and low-passes the product with a gain of two, so a square-wave
amplitude-modulated input of depth d * V_dc settles to the sampled gain
(2/n) sum_{cos<0} |cos(2 pi k / n)| times d * V_dc, n samples per cycle
(0.6472 at n = 10, tending to the fundamental's 2/pi as n grows).
odmr_contrast still divides by 2/pi to get the physical contrast back,
which reads it 1.0166 x high at n = 10 (ROADMAP item 5).

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
One gate table drives both modes: the gate is on while cos(2 pi f_mod t)
< 0, where AM turns the RF on and FM switches the carrier to -deviation
(+deviation while the gate is off).  The reference is cos(2 pi f_mod t)
itself, so an ODMR dip demodulates positive and the FM discriminator has
positive slope for a carrier parked above resonance.  The gate and the
reference are one-cycle tables indexed by the sample number modulo
samples_per_cycle, so every cycle is the same: cos evaluated at large
sample numbers would let rounding flip the samples that sit exactly on
cos = 0 when samples_per_cycle is divisible by 4.

Dwell response
--------------
An AM sweep holds depth level l_d for dwell d and reads the settled mean
of the demodulated output in each dwell.  The chain is linear, so each
settled mean weighs the input samples with weights w: the chain's
adjoint, 2 ref times the comb-then-pole response summed over the settled
window.  Because the chain repeats every cycle, a dwell's weights depend
only on the gate phase at its start (one phase when a dwell is a whole
number of cycles), and because a dwell is at least 5 tau they reach only
a few later dwells, the lags, before they fall below double precision.
Without noise the means per unit photon rate are base + W @ levels,
built once per lock-in config and dwell layout with no demodulator run.
Column d of W, the unit dip gated through dwell d alone, is minus the sum
of w over its gate-on samples, stored as a few lags per start phase;
base, a constant 1 from a chain started at sample 0, sums the whole-dwell
totals of w over the dwells before, start-up transient included.  An
interior column sums to the sampled demodulation gain
(2/n) sum_{cos<0} |cos|, 0.6472 at n = 10 samples per cycle, not 2/pi;
about 0.14% of it spills into the next dwell at the shipped 10 tau dwell.

Without noise the DC reading is exactly 1 - level m/n, m the RF-on
samples per n-sample cycle: after the settling discard (5 tau, over five
periods) every comb output averages one whole gate cycle at one level.

Shot noise adds the chain's response to the counts' deviation from the
noise-free rate.  A dwell's samples reach its own settled DC mean and the
settled lock-in means of its own and the next lags - 1 dwells, with the
cycle mean's adjoint and with w.  A sample's variance is
s (1 - level gate), s = 1 / (rate0 dt), so those 1 + lags means have
covariance s (1 - level) A_on + s A_off, where A = sum w w^T over the
dwell's gate-on or gate-off samples, stored beside W as triangular factors
R^T R = A.  When every sample's mean count, at least rate0 dt (1 - max
level), is above GAUSSIAN_MEAN_THRESHOLD, every count is a Gaussian draw
and the means are linear in them, so a sweep draws each dwell's noise
from that covariance with 2 (1 + lags) normals: exact in distribution,
with no per-sample array.  Below it the counts are drawn sample by
sample, in blocks of whole dwells, and each dwell's residual about the
noise-free rate is weighed with the same weights, the cycle mean's
adjoint and w, into the same 1 + lags noise values.  Either regime adds
them to the noise-free readings, so no AM reading runs the demodulator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DeviationTooLarge, FieldOutOfRange, SampleRateMismatch
from .errors import ScheduleMismatch
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
    MAX_FIELD_T,
    FieldVector,
    SpinParams,
    TransitionLine,
    build_hamiltonian,
    eigenlevels,
    gyromagnetic_ratio,
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
# AM block holds whole dwells, at least one; an FM block lies in one step),
# which bounds the memory a run needs; no output depends on it.  At 2**13
# the block's arrays stay under 64 KiB, below which glibc frees without
# trimming the heap, so the heap is not refaulted block after block.
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


def photon_rate(pl_rate_per_w: float, p_opt_w):
    """Detected photon rate pl_rate_per_w * p_opt_w, elementwise.

    Raises ValueError naming the first optical power whose rate overflows.
    """
    p_opt = np.asarray(p_opt_w, dtype=float)
    with np.errstate(over="ignore"):
        rate = pl_rate_per_w * p_opt
    bad = ~np.isfinite(rate)
    if bad.any():
        raise ValueError(f"p_opt_w {p_opt[bad][0]:g} W: the photon rate overflows")
    return rate


def _refuse_negative_rate(depth: np.ndarray, p_opt_w, p_rf_w) -> None:
    """Refuse the first row of depth (rows, points) summing above 1, by its powers."""
    deep = np.flatnonzero(depth.max(axis=1) > 1.0)
    if deep.size:
        k = deep[0]
        raise ValueError(
            f"p_opt_w {p_opt_w[k]:g} W, p_rf_w {p_rf_w[k]:g} W: the summed dip "
            f"depth {depth[k].max():.3g} exceeds 1, a negative photon rate"
        )


def _gaussian_counts(mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rng.normal(mu, sqrt(mu)) in bulk, the same draws and arithmetic, at least 0."""
    z = rng.standard_normal(mu.size)
    z *= np.sqrt(mu)
    z += mu
    return np.maximum(z, 0.0, out=z)


def _shot_counts(
    mean: np.ndarray, gauss: np.random.Generator, poisson: np.random.Generator
) -> np.ndarray:
    """Vectorised photon counts with the Gaussian switch; returns floats.

    Gaussian counts draw from gauss and Poisson counts from poisson, each in
    sample order, so block-by-block draws equal the whole draw.  A block
    whose every mean is above the threshold skips the masks.
    """
    if mean.min(initial=math.inf) > GAUSSIAN_MEAN_THRESHOLD:
        return _gaussian_counts(mean, gauss)
    out = np.empty_like(mean)
    big = mean > GAUSSIAN_MEAN_THRESHOLD
    small = ~big
    if small.any():
        out[small] = poisson.poisson(mean[small])
    if big.any():
        out[big] = _gaussian_counts(mean[big], gauss)
    return out


def _noise_streams(seed):
    """The Gaussian-count, Poisson-count and field-noise generators of a seed.

    Gaussian counts draw from default_rng(seed) itself (the generator, if
    seed is one); Poisson counts and field noise each from a spawned child.
    """
    gauss = np.random.default_rng(seed)
    poisson, field = map(np.random.default_rng, gauss.bit_generator.seed_seq.spawn(2))
    return gauss, poisson, field


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
        # The FM slope weighs one 8 tau dwell's samples; the discard is 5 tau.
        self.samples(8.0 * self.time_constant_s, "time_constant_s x 8")

    def samples(self, duration_s: float, name: str) -> int:
        """Samples in duration_s, rounded; ValueError naming name past MAX_SAMPLES."""
        n = duration_s * self.sample_rate_hz
        if n > MAX_SAMPLES:
            raise ValueError(
                f"{name} x lockin.sample_rate_hz must be at most {MAX_SAMPLES} samples"
            )
        return int(round(n))

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
    """Series sampled every dt_s from t0_s, with a unit tag: the input and
    output of lockin_demodulate."""

    t0_s: float
    dt_s: float
    values: np.ndarray
    unit: str

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self.values = np.asarray(self.values, dtype=float)


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

    def first_samples(self, dt_s: float) -> np.ndarray:
        """Each step's first sample, the least i with i dt_s >= its start.

        The one step-edge rule: step_windows and so `odmr steps` use it."""
        first = np.ceil(self.starts_s / dt_s)
        # The quotient may round across an integer: one correction each way.
        first -= (first - 1.0) * dt_s >= self.starts_s
        first += first * dt_s < self.starts_s
        return first.astype(np.int64)

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
        return float(photon_rate(self.pl_rate_per_w, self.p_opt_w))

    def dc_voltage(self) -> float:
        """Detector volts of the unmodulated photon rate, k_v rate0."""
        return self.photon_rate_hz() * self.detector.volts_per_photon_rate

    def in_volts(self, values, out=None) -> np.ndarray:
        """values, in units of the unmodulated photon rate, in detector volts.

        Written into out if given.  Raises ValueError naming the detector
        gain where a volt overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            volts = np.multiply(values, self.dc_voltage(), out=out)
        if not np.isfinite(volts).all():
            gain = self.detector.transimpedance_v_per_a
            raise ValueError(
                f"detector.transimpedance_v_per_a {gain:g} V/A: the detector voltage "
                "overflows"
            )
        return volts

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
    """Slices of whole AM dwells, each at most _BLOCK samples or one dwell."""
    per_block = max(1, _BLOCK // dwell_n)
    for first in range(0, n_dwells, per_block):
        yield slice(first, min(first + per_block, n_dwells))


def _dwell_lags(cfg: LockInConfig, dwell_n: int, n_dwells: int) -> int:
    """Dwells that one dwell's weights reach, its own included."""
    tau_n = cfg.time_constant_s * cfg.sample_rate_hz
    return min(1 + math.ceil(_LAG_TAUS * tau_n / dwell_n), n_dwells)


def _dwell_layout(plan: SweepPlan, cfg: LockInConfig) -> tuple[int, int, int]:
    """dwell_n, settle_n and n_dwells of an AM sweep, lead-in dwell included.

    Raises ValueError, before any array exists, for a dwell over
    MAX_SAMPLES samples, one shorter than the settling discard, or one
    whose dwell-response operator would hold over MAX_SAMPLES weights.
    """
    dwell_n = cfg.samples(plan.dwell_s, "dwell_s")
    if plan.dwell_s < cfg.settle_discard_s - 1e-12:
        raise ValueError("dwell_s must be at least 5 x lockin.time_constant_s")
    n_dwells = plan.n_points + 1
    n_lags = _dwell_lags(cfg, dwell_n, n_dwells)
    if n_lags * dwell_n > MAX_SAMPLES:
        raise ValueError(
            f"dwell_s: the lock-in response of one dwell spans {n_lags} "
            f"dwells of {dwell_n} samples, more than {MAX_SAMPLES} samples"
        )
    return dwell_n, min(cfg.settle_samples, dwell_n - 1), n_dwells


@functools.lru_cache(maxsize=8)
def _dwell_response(
    cfg: LockInConfig, dwell_n: int, settle_n: int, n_dwells: int
) -> tuple[np.ndarray, ...]:
    """The dwell-response operator of an AM sweep (module docstring).

    Returns base, the settled means of a constant 1 over n_dwells dwells,
    and lags[p, j], the mean j dwells after a unit dip gated through one
    dwell that starts at the gate phase of dwell p; dwell d takes row
    d mod lags.shape[0].  r_on[p] and r_off[p] are upper-triangular
    factors, R^T R = sum w w^T over the gate-on and the gate-off samples of
    such a dwell, where w is a sample's weight on the dwell's settled DC
    mean and on its settled lock-in means at lags 0 .. lags.shape[1] - 1:
    dc and lock[j], returned last over one dwell's samples, lock before
    the reference.  All six are read-only.
    """
    n = cfg.samples_per_cycle
    n_phases = min(n // math.gcd(dwell_n, n), n_dwells)
    n_lags = _dwell_lags(cfg, dwell_n, n_dwells)
    # The stages' adjoint, run in reverse order over the last dwell's
    # settled window reversed.
    window = np.zeros(n_lags * dwell_n)
    window[(n_lags - 1) * dwell_n + settle_n :] = 1.0 / (dwell_n - settle_n)
    lock = _CycleMean(cfg).process(_Pole(cfg).process(window[::-1]))[::-1]
    lock = lock.reshape(n_lags, dwell_n)[::-1]
    # The DC window reaches only its own dwell, as settle_n >= n - 1.
    dc = _CycleMean(cfg).process(window[::-1][:dwell_n])[::-1]
    del window  # before the loop's per-phase copies of the weights
    ref = 2.0 * _cycle_cos(cfg)
    lags, totals = np.empty((2, n_phases, n_lags))
    factors = []
    for p in range(n_phases):
        start = p * dwell_n % n
        w = lock * _periodic(ref, start, dwell_n)
        gate = _am_gate(cfg, start, dwell_n)
        lags[p] = -w[:, gate].sum(axis=1)
        totals[p] = w.sum(axis=1)
        w = np.vstack((dc, w))
        factors.append([np.linalg.qr(w[:, g].T, mode="r") for g in (gate, ~gate)])
    # Dwell d of a constant 1 sums what each dwell d - j leaves at lag j.
    base = np.zeros(n_dwells)
    for j in range(n_lags):
        base[j:] += totals[np.arange(n_dwells - j) % n_phases, j]
    r_on, r_off = np.moveaxis(np.array(factors), 1, 0)
    for a in (base, lags, r_on, r_off, lock, dc):
        a.flags.writeable = False
    return base, lags, r_on, r_off, lock, dc


def simulate_am_sweep(
    scene: Scene,
    plan: SweepPlan,
    cfg: LockInConfig,
    seed=0,
    shot_noise: bool = True,
) -> SweepRecord:
    """Simulate a square-wave AM ODMR sweep through the lock-in.

    Each swept point is held for plan.dwell_s (as _dwell_layout bounds it);
    the reading is the demodulated output averaged after the settling
    discard, and dc_v is the cycle-averaged raw voltage over the same
    window.  An extra discarded lead-in dwell at the first frequency
    removes the initial filter transient.  With shot_noise False the
    reading is the synthesized lineshape times V_dc times the sampled
    demodulation gain (2/n) sum_{cos<0} |cos(2 pi k / n)| (0.6472 at
    n = 10 samples per cycle, 1.0166 x 2/pi), plus the small carry-over of
    the previous dwell.  This is simulate_am_cells at one cell, taken to
    volts by Scene.in_volts, which raises ValueError naming the detector
    gain where a volt overflows.
    """
    lockin, dc = scene.in_volts(
        simulate_am_cells(
            scene,
            plan,
            cfg,
            [scene.p_opt_w],
            [scene.p_rf_w],
            seeds=[seed] if shot_noise else None,
        )
    )
    return SweepRecord(frequency_hz=plan.frequencies(), lockin_v=lockin[0], dc_v=dc[0])


def simulate_am_cells(
    scene: Scene, plan: SweepPlan, cfg: LockInConfig, p_opt_w, p_rf_w, seeds=None
) -> tuple[np.ndarray, np.ndarray]:
    """Lock-in and DC readings, (cells, n_points), of one AM sweep per cell.

    Cell k is the scene at optical power p_opt_w[k] and RF power p_rf_w[k],
    swept as simulate_am_sweep sweeps it, in units of the cell's
    unmodulated photon rate rate0 (module docstring), with the same
    arithmetic per element: the noise-free levels, responses and DC
    readings of all cells are built as one array.  The noise-free lock-in
    comes from the shared dwell-response operator and the noise-free DC
    reading is the exact one-cycle mean 1 - duty level, so a noise-free
    sweep builds no per-sample array.

    With seeds None the sweeps are noise-free; otherwise cell k adds its
    shot noise on its settled means from its own streams,
    _noise_streams(seeds[k]).  If every sample's mean count is above
    GAUSSIAN_MEAN_THRESHOLD, it is drawn per dwell from its exact
    covariance, and again no per-sample array is built.  Otherwise the
    counts are drawn per sample, in the order and streams of the seed, from
    the means rate0 unit dt, read as counts / dt / rate0, and their residual
    about the noise-free unit rate is weighed per dwell with the operator's
    weights.  Either way one (dwells, 1 + lags) array of noise is added to
    the noise-free readings, and no demodulator runs.  A cell whose rate0
    is 0 has no counts to draw and keeps its noise-free readings (0 volts,
    as its counts would read).  Lengths of p_opt_w, p_rf_w and seeds that
    differ, a power whose linewidth or photon rate overflows, or a summed
    dip depth above 1 (a negative photon rate) raise ValueError, naming the
    lengths or the first such cell's power, as does a dwell _dwell_layout refuses.
    """
    if cfg.mode != "am":
        raise ValueError("simulate_am_cells needs an 'am' lock-in config")
    dwell_n, settle_n, n_dwells = _dwell_layout(plan, cfg)

    p_opt = np.asarray(p_opt_w, dtype=float)
    p_rf = np.asarray(p_rf_w, dtype=float)
    lengths = [p_opt.size, p_rf.size, *([] if seeds is None else [len(seeds)])]
    if len(set(lengths)) > 1:
        raise ValueError(f"p_opt_w, p_rf_w and seeds differ in length: {lengths}")
    try:
        depth = synthesize_odmr(
            scene.lines(), scene.broadening, p_rf[:, None], p_opt[:, None],
            plan.frequencies(),
        ).values
        rate0 = photon_rate(scene.pl_rate_per_w, p_opt)
    except ValueError:
        # Name the first failing cell's power, as that cell alone would.
        for po, pr in zip(p_opt, p_rf):
            saturated_fwhm(scene.broadening, pr)
            photon_rate(scene.pl_rate_per_w, po)
        raise
    dt = cfg.dt_s
    _refuse_negative_rate(depth, p_opt, p_rf)
    # Dwell 0 is the discarded lead-in at the first frequency.
    levels = np.concatenate((depth[:, :1], depth), axis=1)
    base, lags, r_on, r_off, w_lock, w_dc = _dwell_response(
        cfg, dwell_n, settle_n, n_dwells
    )
    n_phases, n_lags = lags.shape
    lockin = np.repeat(base[None], p_opt.size, axis=0)
    for p in range(n_phases):
        for j in range(n_lags):
            later = lockin[:, p + j :: n_phases]
            later += lags[p, j] * levels[:, p::n_phases][:, : later.shape[1]]
    ref = 2.0 * _cycle_cos(cfg)
    duty = np.count_nonzero(ref < 0) / ref.size
    dc = 1.0 - duty * levels

    for k, (level, rate, seed) in enumerate(zip(levels, rate0, seeds or ())):
        if rate == 0:
            continue  # no photons: no counts to draw, and 0 volts either way
        rng = np.random.default_rng(seed)
        if rate * dt * (1.0 - level.max()) > GAUSSIAN_MEAN_THRESHOLD:
            # Every count is a Gaussian draw: draw each dwell's noise on its
            # settled means from their exact covariance (module docstring).
            z = rng.standard_normal((2, n_dwells, 1 + n_lags))
            phase = np.arange(n_dwells) % n_phases
            s = 1.0 / (rate * dt)
            noise = np.einsum("dk,dkl->dl", z[0], r_on[phase])
            noise *= np.sqrt(s * (1.0 - level))[:, None]
            noise += math.sqrt(s) * np.einsum("dk,dkl->dl", z[1], r_off[phase])
        else:
            # Weigh each dwell's count residual with the chain's weights, as
            # row sums, so no value depends on the dwells a block holds.
            rng, poisson, _ = _noise_streams(rng)
            noise = np.empty((n_dwells, 1 + n_lags))
            for block in _dwell_blocks(n_dwells, dwell_n):
                first, n = block.start * dwell_n, (block.stop - block.start) * dwell_n
                gate = _am_gate(cfg, first, n).reshape(-1, dwell_n)
                unit = 1.0 - level[block, None] * gate
                # Divided by dt first: rate dt can underflow to 0 in a dark cell.
                counts = _shot_counts((rate * unit * dt).ravel(), rng, poisson)
                residual = counts.reshape(unit.shape) / dt / rate - unit
                noise[block, 0] = (residual * w_dc).sum(axis=1)
                residual *= _periodic(ref, first, n).reshape(unit.shape)
                for j in range(n_lags):
                    noise[block, 1 + j] = (residual * w_lock[j]).sum(axis=1)
        dc[k] += noise[:, 0]
        for j in range(n_lags):
            lockin[k, j:] += noise[: n_dwells - j, 1 + j]
    return lockin[:, 1:], dc[:, 1:]


def fm_discriminator_slope(peak: PeakShape, cfg: LockInConfig) -> float:
    """Demodulated output per hertz of carrier detuning, at resonance.

    A symmetric numeric derivative of the modelled FM response, in units
    of the unmodulated level, so that any discretisation gain of the
    sampled chain cancels when readouts are converted back to frequency or
    field.  At detuning d the input is
    1 - L(d + dev) - gate (L(d - dev) - L(d + dev)); the difference at
    d = +-h, offset - dip gate, is read from the dwell-response operator of
    one 8 tau dwell as offset base[0] + dip lags[0, 0].  Its 5 to 8 tau
    window keeps the start-up transient (0.287% low at 10 samples per
    cycle).
    """
    if cfg.fm_deviation_hz >= peak.fwhm_hz:
        raise DeviationTooLarge(
            f"fm deviation {cfg.fm_deviation_hz:.3g} Hz >= linewidth "
            f"{peak.fwhm_hz:.3g} Hz"
        )
    h = peak.fwhm_hz / 100.0
    dev = cfg.fm_deviation_hz * np.array([1.0, -1.0])
    nu = peak.center_hz + np.array([[h], [-h]]) + dev  # rows +-h, columns +-dev
    (up_p, down_p), (up_m, down_m) = lorentzian_sum(
        nu, [peak.center_hz], [peak.contrast], peak.fwhm_hz
    )
    offset, dip = up_m - up_p, (down_p - up_p) - (down_m - up_m)
    n = cfg.samples(8.0 * cfg.time_constant_s, "time_constant_s x 8")
    base, lags = _dwell_response(cfg, n, cfg.settle_samples, 1)[:2]
    return float(offset * base[0] + dip * lags[0, 0]) / (2.0 * h)


@dataclass
class TrackingResult:
    """Output of simulate_fm_tracking.

    lockin and field_estimate keep every decimation-th sample of the run by
    sample index from 0, kept sample k at time k * decimation * cfg.dt_s:
    lockin, like slope_per_hz, in units of the scene's unmodulated photon
    rate (Scene.in_volts takes them to volts), field_estimate in tesla.
    step_means_t and step_stds_t are the mean and std (ddof=1) of the field
    estimate over each step's settled tail, its step_windows range.
    """

    lockin: np.ndarray
    field_estimate: np.ndarray
    step_means_t: np.ndarray
    step_stds_t: np.ndarray
    carrier_hz: float
    slope_per_hz: float
    gamma_eff_hz_per_t: float
    field_noise_sigma_in_t: float


def step_windows(
    timeline: FieldTimeline, n: int, cfg: LockInConfig
) -> list[tuple[int, int]]:
    """Settled sample range [i0, i1) of each step of an n-sample run.

    Window k is [f_k + settle_samples, f_(k+1)), its step's tail, f_k being
    step k's first sample (FieldTimeline.first_samples); the last ends at n.
    Raises ScheduleMismatch when any step keeps fewer than two samples.
    """
    first = np.minimum(timeline.first_samples(cfg.dt_s), n)
    i0, i1 = first + cfg.settle_samples, np.append(first[1:], n)
    short = np.flatnonzero(i1 - i0 < 2)  # checked before any tuple exists
    if short.size:
        k = short[0]
        raise ScheduleMismatch(
            f"step at t = {timeline.starts_s[k]:.6g} s has "
            f"{max(i1[k] - i0[k], 0)} samples after the settling discard"
        )
    return list(zip(i0.tolist(), i1.tolist()))


def _line_table(scene: Scene) -> tuple[list[TransitionLine], np.ndarray, int]:
    """Scene lines, each line's d(freq)/d(bz) and the tracked (first) nu2 line.

    A slope is gyromagnetic_ratio(g) * delta_sz, exact.  ValueError says the
    slopes are undefined where the lines at bz +- 1 uT differ from those at
    bz, or where the first nu2's chord over that step and its slope differ
    by more than half of the larger: in a transverse field within 1 uT of
    bz = 0, nu2 can name one line below the bias and another above it.  A
    scene with no nu2 line raises ValueError too.
    """
    lines = scene.lines()
    labels = [ln.label for ln in lines]
    if "nu2" not in labels:
        raise ValueError("scene produces no nu2 line to track")
    nu2 = labels.index("nu2")
    gamma = gyromagnetic_ratio(scene.spin.g_factor)
    slopes = np.array([gamma * ln.delta_sz for ln in lines])
    h, bz = 1e-6, scene.field.bz_t
    ends = []
    for shift in (h, -h):
        shifted = _solve_lines(scene.spin, replace(scene.field, bz_t=bz + shift))
        if sorted(ln.label for ln in shifted) != sorted(labels):
            raise ValueError(
                f"the scene's lines change within {h:g} T of bz = "
                f"{bz:g} T, so their field slopes are undefined"
            )
        ends.append(next(ln.frequency_hz for ln in shifted if ln.label == "nu2"))
    chord, exact = (ends[0] - ends[1]) / (2.0 * h), slopes[nu2]
    if abs(exact - chord) > 0.5 * max(abs(exact), abs(chord)):
        raise ValueError(
            f"d(nu2)/d(bz) at bz = {bz:g} T is {exact:.4g} Hz/T but "
            f"{chord:.4g} Hz/T over +-1 uT, so the field slope is undefined there"
        )
    return lines, slopes, nu2


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
    decimation: int = 1,
) -> TrackingResult:
    """Track an axial field timeline with the FM-locked discriminator.

    The RF carrier is parked on the rising (nu2) resonance of the scene's
    bias field and square-wave switched by +-fm_deviation_hz.  The
    demodulated output is converted to a field estimate with the modelled
    discriminator slope and the exact d(nu2)/d(bz) of the scene
    (gyromagnetic_ratio(g) * delta_sz), so a constant field reads back as
    the bias.  It runs in units of the scene's unmodulated photon rate
    (module docstring), and so do the lock-in output and slope it returns.

    The run goes step by step: step k runs from the end of step_windows'
    window k - 1 to the end of window k, its settled tail, in blocks of at
    most _BLOCK samples, so a block has one field level.  It keeps every
    decimation-th sample of the lock-in output and of the estimate, by
    global sample index, and each step's settled mean and standard
    deviation, taken at the step's end with np.mean and np.std(ddof=1) on
    one contiguous copy of its window, so they equal those of the full
    series' slices bit for bit; no other array grows with the run.  The
    field and shot noise draw block by block from the seed's streams
    (_noise_streams), so no output depends on the block size.

    field_noise_step_sigma_t, when positive, injects white field noise
    calibrated so the settled field-estimate standard deviation equals the
    requested value; a per-sample sigma beyond MAX_FIELD_T raises
    ValueError.  Before anything is drawn, a step that keeps fewer than two
    settled samples raises ScheduleMismatch (step_windows) and a level
    beyond MAX_FIELD_T FieldOutOfRange, naming the step of largest |bz|:
    its index, start time and level; a summed dip depth above 1, a
    negative photon rate, raises ValueError.  With shot noise, a step whose
    settled window draws no photon raises ValueError naming the step.
    """
    if cfg.mode != "fm":
        raise ValueError("simulate_fm_tracking needs an 'fm' lock-in config")
    if decimation < 1:
        raise ValueError("decimation must be at least 1")
    n_total = cfg.samples(duration_s, "duration_s")
    windows = step_windows(timeline, n_total, cfg)
    # |B| is largest at the level of largest |bz|; FieldVector checks the limit.
    k = int(np.argmax(np.abs(timeline.bz_t)))
    try:
        replace(scene.field, bz_t=float(timeline.bz_t[k]))
    except FieldOutOfRange as exc:
        step = f"step {k} at t = {timeline.starts_s[k]:.6g} s"
        raise FieldOutOfRange(f"{step}, bz = {timeline.bz_t[k]:.6g} T: {exc}") from None
    rate0 = scene.photon_rate_hz()
    if rate0 <= 0:
        raise ValueError("scene photon rate must be positive for tracking")

    lines, slopes, nu2 = _line_table(scene)
    fwhm = saturated_fwhm(scene.broadening, scene.p_rf_w)
    contrast = saturated_contrast(scene.broadening, scene.p_rf_w, scene.p_opt_w)
    amps = np.array([contrast * ln.rel_strength for ln in lines])
    centers = np.array([ln.frequency_hz for ln in lines])
    carrier = lines[nu2].frequency_hz
    gamma_eff = float(slopes[nu2])
    slope = fm_discriminator_slope(PeakShape(carrier, fwhm, amps[nu2]), cfg)
    field_gain = slope * gamma_eff
    # The rounding of the unit DC level alone, eps, reads as eps /
    # |field_gain| tesla: beyond the model's field range, the response is
    # flat, and the field estimate and its spread can overflow.
    flat = not abs(field_gain) * MAX_FIELD_T > np.finfo(float).eps
    if flat or not math.isfinite(field_gain):
        raise ValueError(
            "cannot track the field with a flat discriminator response "
            f"(p_rf_w {scene.p_rf_w:g} W, linewidth {fwhm:.3g} Hz)"
        )

    # The carrier over one FM cycle: -deviation while the gate is on.
    n_cycle = cfg.samples_per_cycle
    sign = np.where(_am_gate(cfg, 0, n_cycle), -1.0, 1.0)
    nu_cycle = carrier + cfg.fm_deviation_hz * sign
    sigma_in = 0.0
    if field_noise_step_sigma_t > 0:
        # Field noise sees a gain that varies over a cycle: the field slope
        # of the modulated depth times the reference.  Each line adds its
        # centre derivative a (G/2)^2 2 (f - f0) / ((f - f0)^2 + (G/2)^2)^2
        # times its own field slope.  The settled output variance is the
        # gain's mean square times the demod filter energy.
        detune = nu_cycle[:, None] - centers
        half2 = 0.25 * fwhm * fwhm
        ddepth = (2.0 * half2 * detune / (detune**2 + half2) ** 2) @ (amps * slopes)
        gain = -2.0 * _cycle_cos(cfg) * ddepth
        sigma_out = math.sqrt(np.mean(gain**2) * _filter_energy_pure(cfg))
        if sigma_out <= 0:
            raise ValueError("cannot calibrate field noise for a flat response")
        sigma_in = field_noise_step_sigma_t * abs(field_gain) / sigma_out
        if not sigma_in <= MAX_FIELD_T:
            raise ValueError(
                f"field_noise_step_sigma_t {field_noise_step_sigma_t:g} T asks for a "
                f"per-sample sigma of {sigma_in:.3g} T, beyond {MAX_FIELD_T:g} T"
            )

    # A line of zero strength adds exactly +0.0 to the depth: skip it.
    live = np.flatnonzero(amps)
    live_centers, live_slopes, live_amps = centers[live], slopes[live], amps[live]

    def rate_at(nu, db):
        """The photon rate in units of rate0, 1 - depth."""
        moving = (c + s * db for c, s in zip(live_centers, live_slopes))
        depth = lorentzian_sum(nu, moving, live_amps, fwhm)
        _refuse_negative_rate(depth[None], [scene.p_opt_w], [scene.p_rf_w])
        return 1.0 - depth

    dt = cfg.dt_s
    bias = scene.field.bz_t
    n_kept = len(range(0, n_total, decimation))
    kept_lockin, kept_estimate = np.empty((2, n_kept))
    step_means, step_stds = np.empty((2, len(windows)))

    gauss, poisson, field = _noise_streams(seed)
    demod = _Demodulator(cfg)
    for k, (i0, i1) in enumerate(windows):
        first = windows[k - 1][1] if k else 0  # where the last window ended
        # Every block of a step takes its level as a scalar, and without
        # field noise its input repeats the step's one-cycle rate.
        db = timeline.bz_t[k] - bias
        cycle_rate = rate_at(nu_cycle, db) if sigma_in == 0 else None
        settled = np.empty(i1 - i0)
        dark = shot_noise  # until a count in its settled window is not 0
        for start in range(first, i1, _BLOCK):
            n = min(_BLOCK, i1 - start)
            if sigma_in == 0:
                rate = _periodic(cycle_rate, start, n)
            else:
                noisy_db = db + field.normal(0.0, sigma_in, n)
                rate = rate_at(_periodic(nu_cycle, start, n), noisy_db)
            if shot_noise:
                rate = _shot_counts(rate0 * rate * dt, gauss, poisson) / dt / rate0
            lockin = demod.process(rate)
            # bias - lockin / field_gain, in place.
            estimate = lockin / field_gain
            np.subtract(bias, estimate, out=estimate)

            # Every decimation-th sample of the run, by global index.
            skip = -start % decimation
            at = (start + skip) // decimation
            for kept, series in (kept_lockin, lockin), (kept_estimate, estimate):
                part = series[skip::decimation]
                kept[at : at + part.size] = part
            # The window is the step's tail: this block's last `tail` samples.
            tail = start + n - i0
            if tail > 0:
                settled[max(tail - n, 0) : tail] = estimate[-tail:]
                dark = dark and not rate[-tail:].any()
        if dark:  # its lock-in would read 0 and every estimate the bias
            raise ValueError(
                f"step {k} at t = {timeline.starts_s[k]:.6g} s drew no photon in its "
                f"settled window (lineshape.pl_rate_per_w {scene.pl_rate_per_w:g} "
                "per W)"
            )
        step_means[k] = np.mean(settled)
        step_stds[k] = np.std(settled, ddof=1)
        del settled  # before the next step allocates its window

    return TrackingResult(
        lockin=kept_lockin,
        field_estimate=kept_estimate,
        step_means_t=step_means,
        step_stds_t=step_stds,
        carrier_hz=carrier,
        slope_per_hz=slope,
        gamma_eff_hz_per_t=gamma_eff,
        field_noise_sigma_in_t=sigma_in,
    )
