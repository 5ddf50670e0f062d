"""Signal chain: detector conversions, shot noise, demodulation, tracking.

Demodulation checks pin the fundamental-amplitude convention: a square
amplitude modulation of depth d on a DC level V settles to (2/pi) d V,
and white input noise of per-sample sigma maps to an output standard
deviation of sigma * sqrt(2 beta / (2 - beta)) with beta the single-pole
update weight.
"""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from odmrsim import (
    DetectorModel,
    DeviationTooLarge,
    FieldTimeline,
    FieldVector,
    LockInConfig,
    PeakShape,
    PRESETS,
    SampleRateMismatch,
    ScheduleMismatch,
    Scene,
    SpinParams,
    SQUARE_AM_GAIN,
    SweepPlan,
    TimeSeries,
    analyze_steps,
    fm_discriminator_slope,
    lockin_demodulate,
    saturated_contrast,
    saturated_fwhm,
    simulate_am_sweep,
    simulate_fm_tracking,
    synthesize_odmr,
)
from odmrsim.config import load_config
from odmrsim.lineshape import lorentzian_sum
from odmrsim.signal_chain import (
    GAUSSIAN_MEAN_THRESHOLD,
    MAX_SAMPLES,
    _am_gate,
    _cycle_cos,
    _CycleMean,
    _Demodulator,
    _dwell_layout,
    _dwell_response,
    _filter_energy_pure,
    _line_table,
    _noise_streams,
    _periodic,
    _Pole,
    _shot_counts,
    simulate_am_cells,
    step_windows,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Planck constant times speed of light, frozen from CODATA.
HC_JM = 6.62607015e-34 * 2.99792458e8


def quenched_scene(p_opt=0.4, p_rf=1.0, bz=1e-3):
    preset = PRESETS["quenched"]
    return Scene(
        spin=SpinParams(),
        field=FieldVector(0.0, 0.0, bz),
        broadening=preset.broadening,
        detector=DetectorModel(),
        pl_rate_per_w=preset.pl_rate_per_w,
        p_opt_w=p_opt,
        p_rf_w=p_rf,
    )


def test_hyperfine_satellites_flank_nu2():
    lines = {ln.label: ln for ln in quenched_scene().lines()}
    nu2 = lines["nu2"]
    plus = lines["nu2_sat_plus"]
    minus = lines["nu2_sat_minus"]
    assert plus.frequency_hz == pytest.approx(nu2.frequency_hz + 5e6, abs=1.0)
    assert minus.frequency_hz == pytest.approx(nu2.frequency_hz - 5e6, abs=1.0)
    assert plus.rel_strength == pytest.approx(0.05 * nu2.rel_strength, rel=1e-9)
    assert minus.rel_strength == pytest.approx(0.05 * nu2.rel_strength, rel=1e-9)


def test_scene_lines_sorted_by_frequency():
    scene = replace(quenched_scene(), field=FieldVector(0.1e-3, 0, 1e-3))
    lines = scene.lines()
    assert {"nu2_sat_plus", "nu2_sat_minus"} <= {ln.label for ln in lines}
    keys = [(ln.frequency_hz, ln.label) for ln in lines]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "offset_in_nu2, rel_amp, satellites",
    [(2.0, 0.05, ["nu2_sat_plus"]), (1.0, 0.05, ["nu2_sat_plus"]), (0.1, 0.0, [])],
    ids=["minus-below-0-hz", "minus-at-0-hz", "zero-amplitude"],
)
def test_satellites_need_positive_frequency_and_amplitude(
    offset_in_nu2, rel_amp, satellites
):
    scene = quenched_scene()
    nu2 = next(ln.frequency_hz for ln in scene.lines() if ln.label == "nu2")
    spin = SpinParams(
        hyperfine_offset_hz=offset_in_nu2 * nu2, hyperfine_rel_amp=rel_amp
    )
    lines = replace(scene, spin=spin).lines()
    assert [ln.label for ln in lines if "_sat_" in ln.label] == satellites


def test_photon_rate_for_one_volt():
    det = DetectorModel()
    # rate = V / (E_photon * responsivity * transimpedance)
    expected = 1.0 / (HC_JM / 900e-9 * 0.6 * 1e6)
    assert expected == pytest.approx(7.5512e12, rel=1e-4)
    assert 1.0 / det.volts_per_photon_rate == pytest.approx(expected, rel=1e-12)


def test_voltage_rate_round_trip():
    # A scene's values in units of its photon rate become volts through
    # dc_voltage, the rate times the detector's volts per photon rate.
    det = DetectorModel(
        responsivity_a_per_w=0.42,
        transimpedance_v_per_a=2.2e5,
        effective_wavelength_m=860e-9,
    )
    scene = replace(quenched_scene(), detector=det, pl_rate_per_w=3.1e11 / 0.4)
    v_dc = scene.dc_voltage()
    assert v_dc / det.volts_per_photon_rate == pytest.approx(3.1e11, rel=1e-12)
    np.testing.assert_array_equal(scene.in_volts([1.0, 0.5]), [v_dc, 0.5 * v_dc])


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(responsivity_a_per_w=0.0)


def test_shot_noise_poisson_regime_statistics():
    mean = 80.0
    draws = _shot_counts(np.full(3000, mean), *_noise_streams(0)[:2])
    assert draws.mean() == pytest.approx(mean, rel=0.05)
    assert draws.var() == pytest.approx(mean, rel=0.15)
    assert np.all(draws == np.round(draws))


def test_shot_noise_gaussian_regime_statistics():
    mean = 4e6
    assert mean > GAUSSIAN_MEAN_THRESHOLD
    draws = _shot_counts(np.full(400, mean), *_noise_streams(0)[:2])
    assert draws.mean() == pytest.approx(mean, rel=0.01)
    assert draws.var() == pytest.approx(mean, rel=0.25)
    # Gaussian draws are not rounded to whole counts.
    assert np.any(draws != np.round(draws))


def test_shot_noise_zero_mean_gives_zero():
    draws = _shot_counts(np.zeros(50), *_noise_streams(0)[:2])
    np.testing.assert_array_equal(draws, np.zeros(50))


def test_shot_counts_match_numpy_normal_bit_for_bit():
    # The bulk draw z * sqrt(mu) + mu must repeat numpy's own
    # normal(mu, sqrt(mu)) exactly; a build whose normal() fused its
    # loc + scale * z into one rounding would differ here.
    rng = np.random.default_rng(11)
    mean = np.concatenate(
        (
            [0.0, 3.0, GAUSSIAN_MEAN_THRESHOLD],
            [np.nextafter(GAUSSIAN_MEAN_THRESHOLD, np.inf)],
            rng.uniform(0.0, 2.0 * GAUSSIAN_MEAN_THRESHOLD, 500),
            rng.uniform(1e4, 1e12, 500),
        )
    )
    rng.shuffle(mean)
    got = _shot_counts(mean, *_noise_streams(12)[:2])
    big = mean > GAUSSIAN_MEAN_THRESHOLD
    gauss, poisson, _ = _noise_streams(12)
    expected = np.empty_like(mean)
    expected[~big] = poisson.poisson(mean[~big])
    mu = mean[big]
    expected[big] = np.maximum(gauss.normal(mu, np.sqrt(mu)), 0.0)
    assert big.sum() > 500 and (~big).sum() > 200
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_lockin_config_validation():
    with pytest.raises(ValueError):
        LockInConfig(mode="pm")
    with pytest.raises(ValueError):
        LockInConfig(mod_freq_hz=1e3, sample_rate_hz=5e3)
    with pytest.raises(ValueError):
        LockInConfig(mod_freq_hz=1e3, sample_rate_hz=1e4, time_constant_s=1e-4)
    with pytest.raises(ValueError):
        LockInConfig(mod_freq_hz=1.3e3, sample_rate_hz=1e4)
    with pytest.raises(ValueError):
        LockInConfig(mode="fm", fm_deviation_hz=None)
    # The FM slope's 8 tau dwell: 8e3 s at 100 kHz is 8e8 samples.
    with pytest.raises(ValueError, match="time_constant_s x 8 x lockin.sample_rate_hz"):
        LockInConfig(time_constant_s=1e3)


def test_lockin_samples_round_and_bound_seconds():
    cfg = LockInConfig()  # 100 kHz
    assert cfg.samples(0.123456, "d") == 12346
    assert cfg.samples(500.0, "d") == MAX_SAMPLES
    # The bound is on the product, before rounding.
    with pytest.raises(ValueError, match="^d x lockin.sample_rate_hz must be at most"):
        cfg.samples(500.000001, "d")


def am_config(**kw):
    base = dict(
        mode="am",
        mod_freq_hz=1e3,
        time_constant_s=0.02,
        sample_rate_hz=1e5,
    )
    base.update(kw)
    return LockInConfig(**base)


def test_square_am_settles_to_two_over_pi():
    cfg = am_config()
    n = int(0.4 * cfg.sample_rate_hz)
    gate = _am_gate(cfg, 0, n)
    depth, v_dc = 0.01, 1.0
    raw = TimeSeries(0.0, cfg.dt_s, v_dc * (1.0 - depth * gate), "V")
    out = lockin_demodulate(raw, cfg)
    settled = out.values[cfg.settle_samples :]
    assert np.mean(settled) == pytest.approx(
        SQUARE_AM_GAIN * depth * v_dc, rel=0.01
    )


def test_unmodulated_input_is_rejected_exactly():
    # The one-cycle comb nulls the reference frequency, so a constant
    # input leaks nothing into the settled output; only the start-up
    # transient remains and it decays with the filter time constant.
    cfg = am_config()
    raw = TimeSeries(0.0, cfg.dt_s, np.full(40000, 2.5), "V")
    out = lockin_demodulate(raw, cfg)
    assert np.max(np.abs(out.values[-2000:])) < 1e-9
    # Compare against a plain single pole, which would leak the carrier
    # at the percent level of the input instead.
    assert np.max(np.abs(out.values[cfg.settle_samples :])) < 1e-4 * 2.5


def test_white_noise_transfer_matches_single_pole_bandwidth():
    cfg = am_config()
    beta = 1.0 - math.exp(-cfg.dt_s / cfg.time_constant_s)
    predicted = math.sqrt(2.0 * beta / (2.0 - beta))
    stds = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        raw = TimeSeries(0.0, cfg.dt_s, rng.normal(0, 1.0, 250000), "V")
        out = lockin_demodulate(raw, cfg)
        stds.append(np.std(out.values[cfg.settle_samples :]))
    assert np.mean(stds) == pytest.approx(predicted, rel=0.10)


@pytest.mark.parametrize("n", [10, 12, 20])
def test_gate_and_switch_repeat_every_cycle(n):
    # Samples that sit exactly on cos = 0 (n divisible by 4) must not flip
    # from one cycle to the next.
    cfg = am_config(mod_freq_hz=5e3, sample_rate_hz=5e3 * n, time_constant_s=1e-3)
    n_cycles = -(-1_000_000 // n)
    gate = _am_gate(cfg, 0, n_cycles * n).reshape(n_cycles, n)
    assert np.all(gate == gate[0])
    assert gate[0].sum() == n // 2


def test_demodulator_output_independent_of_block_split():
    cfg = am_config()
    values = np.random.default_rng(4).normal(1.0, 0.01, 30_000)
    whole = _Demodulator(cfg).process(values)
    demod = _Demodulator(cfg)
    # k is the pole's chunk length (11,090 samples at tau fs = 2000).
    k = _Pole(cfg)._decay.size
    bounds = [0, 1, 8, 2_500, 2_503, k - 1, k, k + 1, 16_384, 29_999, 30_000]
    parts = [demod.process(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("tau_samples", [10.5, 250.0, 2000.0])
def test_pole_matches_lfilter(tau_samples):
    # lfilter runs the recurrence y[k] = a y[k-1] + beta x[k] sample by
    # sample; the chunked pole reassociates it, so they agree to rounding.
    cfg = am_config(mod_freq_hz=1e4, time_constant_s=tau_samples / 1e5)
    x = np.random.default_rng(6).normal(1.0, 0.5, 1_000_000)
    beta = 1.0 - math.exp(-cfg.dt_s / cfg.time_constant_s)
    expected = lfilter([beta], [1.0, beta - 1.0], x)
    got = _Pole(cfg).process(x)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_demodulator_empty_block_keeps_state():
    cfg = am_config()
    values = np.random.default_rng(5).normal(1.0, 0.01, 5_000)
    plain = _Demodulator(cfg)
    expected = [plain.process(values[:1_234]), plain.process(values[1_234:])]
    demod = _Demodulator(cfg)
    first = demod.process(values[:1_234])
    empty = demod.process(values[:0])
    second = demod.process(values[1_234:])
    assert empty.size == 0
    np.testing.assert_array_equal(
        np.concatenate((first, second)), np.concatenate(expected)
    )


@pytest.mark.parametrize(
    "n, tau_samples",
    # tau * fs just above one cycle (the shortest allowed) and at 250.
    [(10, 10.5), (10, 250.0), (12, 12.5), (12, 250.0), (20, 20.5), (20, 250.0)],
)
def test_filter_energy_matches_impulse_response(n, tau_samples):
    cfg = am_config(
        mod_freq_hz=1e3, sample_rate_hz=n * 1e3, time_constant_s=tau_samples / (n * 1e3)
    )
    # The impulse simulation the closed form replaced: at least 30 tau of
    # the comb and the pole through lfilter.
    impulse = np.zeros(max(math.ceil(30.0 * tau_samples), 64 * n))
    impulse[0] = 1.0
    beta = 1.0 - math.exp(-cfg.dt_s / cfg.time_constant_s)
    comb = lfilter(np.full(n, 1.0 / n), [1.0], impulse)
    out = lfilter([beta], [1.0, beta - 1.0], comb)
    assert _filter_energy_pure(cfg) == pytest.approx(np.sum(out**2), rel=1e-13, abs=0)


def test_sample_rate_mismatch_detected():
    cfg = am_config()
    raw = TimeSeries(0.0, 2.0 / cfg.sample_rate_hz, np.zeros(100), "V")
    with pytest.raises(SampleRateMismatch):
        lockin_demodulate(raw, cfg)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(0.0, 0.0, np.zeros(3), "V")


def test_field_timeline_staircase():
    tl = FieldTimeline.staircase(1e-3, 100e-9, 10.0, 4)
    np.testing.assert_allclose(tl.starts_s, [0.0, 10.0, 20.0, 30.0])
    np.testing.assert_allclose(
        tl.bz_t, 1e-3 + 100e-9 * np.array([-1.5, -0.5, 0.5, 1.5])
    )


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.0, 1e6),
    st.lists(st.integers(2, 10**7), min_size=1, max_size=12),
    st.sampled_from(["i * dt", "i / rate", "between samples"]),
)
def test_first_samples_are_the_least_at_or_after_each_start(rate_hz, gaps, form):
    # Sample first[k] is at or after step k's start and the sample before
    # it is before that start.  Steps start on sample i's time, written
    # i * dt or i / rate, where start / dt can round past i either way, or
    # between two samples.
    dt = 1.0 / rate_hz
    i = np.cumsum([0, *gaps])
    starts = {
        "i * dt": i * dt, "i / rate": i / rate_hz, "between samples": (i + 0.37) * dt
    }
    tl = FieldTimeline(np.append(0.0, starts[form][1:]), np.zeros(i.size))
    first = tl.first_samples(dt)
    assert np.all(first * dt >= tl.starts_s)
    assert np.all(tl.starts_s > (first - 1) * dt)


def test_first_samples_keep_each_sample_in_its_step():
    # Step 3 starts at 3 * 3.2 = 9.600000000000001 s, so sample 4800, at
    # 9.6 s, is still step 2's.
    tl = FieldTimeline.staircase(1e-3, 5e-7, 3.2, 8)
    dt = 1.0 / 500.0
    assert tl.starts_s[3] == 9.600000000000001 and 4800 * dt == 9.6
    first = tl.first_samples(dt)
    assert first[3] == 4801
    # Each first sample is at or after its step's edge, the one before it
    # is before that edge.
    assert np.all(first * dt >= tl.starts_s)
    assert np.all(tl.starts_s > (first - 1) * dt)
    # At 3 kHz, 29 / 3000 is sample 29's time though the quotient rounds
    # above 29, and 35 / 3000 lies after sample 35's though it rounds to 35.
    tl = FieldTimeline(np.array([0.0, 29 / 3000, 35 / 3000]), np.zeros(3))
    np.testing.assert_array_equal(tl.first_samples(1 / 3000), [0, 29, 36])


def test_field_timeline_validation():
    with pytest.raises(ValueError):
        FieldTimeline(starts_s=np.array([1.0, 2.0]), bz_t=np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        FieldTimeline(
            starts_s=np.array([0.0, 2.0, 1.0]), bz_t=np.zeros(3)
        )
    for starts, bz in ([], []), ([0.0, 1.0], [0.0]):
        with pytest.raises(ValueError, match="equal-length, non-empty"):
            FieldTimeline(starts_s=np.array(starts), bz_t=np.array(bz))


def sweep_config():
    return LockInConfig(
        mode="am", mod_freq_hz=5e3, time_constant_s=5e-3, sample_rate_hz=5e4
    )


def test_am_sweep_noise_free_matches_lineshape():
    scene = quenched_scene()
    cfg = sweep_config()
    plan = SweepPlan(
        f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=41, dwell_s=0.05
    )
    record = simulate_am_sweep(scene, plan, cfg, shot_noise=False)
    contrast = saturated_contrast(scene.broadening, 1.0, 0.4)
    v_dc = scene.dc_voltage()
    peak = np.max(record.lockin_v)
    # 2.5% covers the discrete demodulation gain at ten samples per cycle.
    assert peak == pytest.approx(SQUARE_AM_GAIN * contrast * v_dc, rel=0.025)
    center_idx = int(np.argmax(record.lockin_v))
    assert record.frequency_hz[center_idx] == pytest.approx(98.04e6, abs=0.2e6)
    # Away from resonance the DC column reads the full PL level.
    assert record.dc_v[0] == pytest.approx(v_dc, rel=0.01)


def reference_am_sweep(scene, plan, cfg, seed, shot_noise):
    """The per-dwell simulator loop: cos per sample, lfilter with state.

    In units of the scene's unmodulated photon rate rate0: a sample reads
    counts / dt / rate0, or its unit rate without noise.  Each sample's cos
    is taken at its phase within the cycle, k mod n, the package's clock:
    cos(omega k) at large k would flip the samples that sit exactly on
    cos = 0 when n is divisible by 4.
    """
    freqs = plan.frequencies()
    depth = synthesize_odmr(
        scene.lines(),
        scene.broadening,
        scene.p_rf_w,
        scene.p_opt_w,
        freqs,
    ).values
    rate0 = scene.photon_rate_hz()
    dt = cfg.dt_s
    dwell_n = int(round(plan.dwell_s * cfg.sample_rate_hz))
    settle_n = min(cfg.settle_samples, dwell_n - 1)
    n = cfg.samples_per_cycle
    comb = np.full(n, 1.0 / n)
    beta = 1.0 - math.exp(-dt / cfg.time_constant_s)
    zi_dc, zi_comb, zi_pole = np.zeros(n - 1), np.zeros(n - 1), np.zeros(1)
    gauss, poisson, _ = _noise_streams(seed)
    lockin, dc = [], []
    for point in range(-1, plan.n_points):
        k = (point + 1) * dwell_n + np.arange(dwell_n)
        cos = np.cos(2.0 * math.pi * (k % n) / n)
        gate = cos < 0
        unit = 1.0 - depth[max(point, 0)] * gate
        if shot_noise:
            unit = _shot_counts(rate0 * unit * dt, gauss, poisson) / dt / rate0
        smooth, zi_dc = lfilter(comb, [1.0], unit, zi=zi_dc)
        prod = 2.0 * unit * cos
        out, zi_comb = lfilter(comb, [1.0], prod, zi=zi_comb)
        out, zi_pole = lfilter([beta], [1.0, beta - 1.0], out, zi=zi_pole)
        if point >= 0:
            lockin.append(np.mean(out[settle_n:]))
            dc.append(np.mean(smooth[settle_n:]))
    return np.array(lockin), np.array(dc)


def am_sweep_case(p_opt, p_rf, dwell_s, time_constant_s, n_points, samples_per_cycle):
    cfg = LockInConfig(
        mode="am",
        mod_freq_hz=5e3,
        time_constant_s=time_constant_s,
        sample_rate_hz=5e3 * samples_per_cycle,
    )
    plan = SweepPlan(
        f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=n_points, dwell_s=dwell_s
    )
    return quenched_scene(p_opt=p_opt, p_rf=p_rf), cfg, plan


AM_SWEEP_CASES = pytest.mark.parametrize(
    "case",  # p_opt, p_rf, dwell_s, time_constant_s, n_points, samples_per_cycle
    [
        # Cells of the shipped 20x20 map: its argmin and a corner.
        pytest.param(
            (0.4, 0.9736842105263158, 0.05, 5e-3, 41, 10),
            id="0.4-0.9736842105263158-0.05-0.005",
        ),
        pytest.param((0.02, 0.05, 0.05, 5e-3, 41, 10), id="0.02-0.05-0.05-0.005"),
        # 617-sample dwells: the gate phase carries across dwells and blocks.
        pytest.param((0.2, 1.0, 0.01234, 2e-3, 41, 10), id="0.2-1.0-0.01234-0.002"),
        # Six 617-sample dwells: fewer dwells than the ten start phases.
        pytest.param((0.2, 1.0, 0.01234, 2e-3, 5, 10), id="617-sample-dwells-5-points"),
        # Whole-cycle dwells at 20 samples per cycle.
        pytest.param(
            (0.4, 0.9736842105263158, 0.05, 5e-3, 41, 20), id="20-samples-per-cycle"
        ),
        # A dwell of exactly 5 tau: the settled window is its last sample.
        pytest.param((0.2, 1.0, 0.01, 2e-3, 41, 10), id="dwell-5-tau-1-settled-sample"),
        # Whole-cycle dwells whose 1,247 settled samples are not whole cycles.
        pytest.param((0.2, 1.0, 0.05, 5.01e-3, 41, 10), id="1247-settled-samples"),
        # Odd n: the gate is on for 6 of 11 samples, and the 679-sample
        # dwells start at every phase.
        pytest.param((0.2, 1.0, 0.01234, 2e-3, 41, 11), id="11-samples-per-cycle"),
    ],
)


@AM_SWEEP_CASES
@pytest.mark.parametrize("shot_noise", [False, True])
def test_am_sweep_matches_per_dwell_reference(case, shot_noise):
    scene, cfg, plan = am_sweep_case(*case)
    if shot_noise:
        # About 50 counts in the brightest sample: below the Gaussian
        # threshold every count is a Poisson draw, which the sweep still
        # takes sample by sample in the reference's order.
        scene = replace(scene, pl_rate_per_w=50.0 / (scene.p_opt_w * cfg.dt_s))
        assert scene.photon_rate_hz() * cfg.dt_s < GAUSSIAN_MEAN_THRESHOLD
    # The sweep in units of rate0: simulate_am_cells at one cell.
    seeds = [np.random.SeedSequence((0, 3, 7))] if shot_noise else None
    got_lockin, got_dc = simulate_am_cells(
        scene, plan, cfg, [scene.p_opt_w], [scene.p_rf_w], seeds
    )
    lockin, dc = reference_am_sweep(
        scene, plan, cfg, np.random.SeedSequence((0, 3, 7)), shot_noise
    )
    if shot_noise:
        # The drawn counts' residual, weighed with the cycle mean's adjoint,
        # added to the exact noise-free DC reading.
        assert np.all(np.abs(got_dc[0] - dc) <= 8 * np.spacing(dc))
    else:
        # Every settled comb output averages one whole gate cycle at one
        # level, so the DC reading is 1 - level m/n exactly; the
        # time-domain reference misses that by a few ulp.
        depth = synthesize_odmr(
            scene.lines(), scene.broadening, scene.p_rf_w, scene.p_opt_w,
            plan.frequencies(),
        ).values
        n = cfg.samples_per_cycle
        duty = Fraction(int(np.sum(np.cos(2.0 * math.pi * np.arange(n) / n) < 0)), n)
        for value, level in zip(got_dc[0], depth):
            exact = 1 - Fraction(level) * duty
            assert abs(Fraction(value) - exact) <= Fraction(np.spacing(value))
    peak = np.max(np.abs(lockin))
    np.testing.assert_allclose(got_lockin[0], lockin, rtol=0, atol=1e-9 * peak)


def impulse_weights(cfg, dwell_n, settle_n, n_lags, start):
    """Rows: each sample's weight on a dwell's settled DC mean, then on its
    settled lock-in means at lags 0 .. n_lags - 1, for a dwell that starts
    at reference sample start; from unit impulses through the chain, each
    weight the direct sum of its window's slice of one impulse response."""
    n = cfg.samples_per_cycle
    m = dwell_n - settle_n
    impulse = np.zeros(n_lags * dwell_n)
    impulse[0] = 1.0

    def windows(response):
        # Row r sums outputs r .. r + m - 1, after dwell_n leading zeros
        # (the outputs before an impulse enters): sample i's window at lag
        # j is row (j + 1) dwell_n + settle_n - i.  Views, not copies.
        return sliding_window_view(np.concatenate((np.zeros(dwell_n), response)), m)

    top = dwell_n + settle_n
    rows = np.empty((1 + n_lags, dwell_n))
    rows[0] = windows(_CycleMean(cfg).process(impulse))[top:settle_n:-1].sum(axis=1)
    for phase in range(n):
        demod = _Demodulator(cfg)
        demod.index = phase
        lock = windows(demod.process(impulse))
        first = (phase - start) % n  # the dwell's first sample at this phase
        count = len(range(first, dwell_n, n))
        for j in range(n_lags):
            row = top + j * dwell_n - first
            rows[1 + j, first::n] = lock[row::-n][:count].sum(axis=1)
    return rows / m


@AM_SWEEP_CASES
def test_dwell_noise_factors_match_impulse_response_grams(case):
    # A Gaussian-regime sweep draws each dwell's noise on its settled means
    # through R_on and R_off; their R^T R must be the Gram matrices of the
    # samples' weights over the gate-on and the gate-off samples.
    _, cfg, plan = am_sweep_case(*case)
    dwell_n, settle_n, n_dwells = _dwell_layout(plan, cfg)
    _, lags, r_on, r_off, _, _ = _dwell_response(cfg, dwell_n, settle_n, n_dwells)
    n_phases, n_lags = lags.shape
    for p in range(n_phases):
        start = p * dwell_n % cfg.samples_per_cycle
        w = impulse_weights(cfg, dwell_n, settle_n, n_lags, start)
        gate = _am_gate(cfg, start, dwell_n)
        for r, side in ((r_on[p], gate), (r_off[p], ~gate)):
            gram = w[:, side] @ w[:, side].T
            # Within 64 ulp of the largest entry (at most 32.5 measured).
            ulp = np.spacing(np.abs(gram).max())
            np.testing.assert_allclose(r.T @ r, gram, rtol=0, atol=64 * ulp)


@AM_SWEEP_CASES
def test_dwell_response_weights_match_impulse_responses(case):
    # A sub-threshold sweep weighs its count residual with the operator's
    # own weights: dc, and lock times the reference at the dwell's start
    # phase.  At every start phase they must be the weights that unit
    # impulses through the chain give, within 16 ulp of the largest weight
    # (at most 9 measured).
    _, cfg, plan = am_sweep_case(*case)
    dwell_n, settle_n, n_dwells = _dwell_layout(plan, cfg)
    _, lags, _, _, lock, dc = _dwell_response(cfg, dwell_n, settle_n, n_dwells)
    n_phases, n_lags = lags.shape
    assert lock.shape == (n_lags, dwell_n) and dc.shape == (dwell_n,)
    ref = 2.0 * _cycle_cos(cfg)
    for p in range(n_phases):
        start = p * dwell_n % cfg.samples_per_cycle
        want = impulse_weights(cfg, dwell_n, settle_n, n_lags, start)
        got = np.vstack((dc, lock * _periodic(ref, start, dwell_n)))
        np.testing.assert_allclose(
            got, want, rtol=0, atol=16 * np.spacing(np.abs(want).max())
        )


def forward_dip_response(cfg, phase, dwell_n, settle_n, offset, dips):
    """Settled lock-in mean per dwell of offset - dips[d] * gate, run
    forward through a fresh demodulator that starts at reference sample
    phase, one whole dwell at a time."""
    demod = _Demodulator(cfg)
    demod.index = phase
    means = []
    for dip in dips:
        x = offset - dip * _am_gate(cfg, demod.index, dwell_n)
        means.append(np.mean(demod.process(x)[settle_n:]))
    return np.array(means)


@AM_SWEEP_CASES
def test_dwell_response_matches_forward_demodulator(case):
    # base and lags come from the chain's adjoint weights; run forward, the
    # demodulator must give the same readings within a few ulp of the
    # largest, base's lead-in transient included.
    _, cfg, plan = am_sweep_case(*case)
    dwell_n, settle_n, n_dwells = _dwell_layout(plan, cfg)
    base, lags = _dwell_response(cfg, dwell_n, settle_n, n_dwells)[:2]
    n_phases, n_lags = lags.shape
    pulse = np.zeros(n_lags)
    pulse[0] = 1.0
    expected = [
        forward_dip_response(
            cfg, p * dwell_n % cfg.samples_per_cycle, dwell_n, settle_n, 0.0, pulse
        )
        for p in range(n_phases)
    ]
    atol = 8 * np.spacing(np.abs(lags).max())
    np.testing.assert_allclose(lags, expected, rtol=0, atol=atol)
    expected = forward_dip_response(cfg, 0, dwell_n, settle_n, 1.0, np.zeros(n_dwells))
    assert np.abs(expected).max() > 1e3 * atol  # a start-up transient to match
    np.testing.assert_allclose(base, expected, rtol=0, atol=atol)


def test_gaussian_am_sweep_noise_matches_per_sample_reference():
    # The per-dwell draw against the per-sample chain over fixed seeds: the
    # means, variances and lag-1 covariances of lockin_v and dc_v agree
    # within 4 standard errors of their difference at this seed count.
    # 617-sample dwells start at six gate phases.
    scene, cfg, plan = am_sweep_case(0.2, 1.0, 0.01234, 2e-3, 5, 10)
    min_count = scene.photon_rate_hz() * cfg.dt_s
    assert min_count * (1.0 - scene.broadening.contrast_max) > GAUSSIAN_MEAN_THRESHOLD
    n_seeds = 600
    drawn = []
    for seed in range(n_seeds):
        record = simulate_am_sweep(scene, plan, cfg, seed=seed)
        drawn.append((record.lockin_v, record.dc_v))
    # Seeds of their own, so the two sets share no stream; in volts.
    reference = [
        scene.in_volts(reference_am_sweep(scene, plan, cfg, seed, True))
        for seed in range(n_seeds, 2 * n_seeds)
    ]
    z = 4.0
    for a, b in zip(np.moveaxis(drawn, 1, 0), np.moveaxis(reference, 1, 0)):
        var_a, var_b = (x.var(axis=0, ddof=1) for x in (a, b))
        cov_a, cov_b = (np.diagonal(np.cov(x.T), 1) for x in (a, b))
        se = np.sqrt((var_a + var_b) / n_seeds)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= z * se)
        se = np.sqrt(2.0 / (n_seeds - 1) * (var_a**2 + var_b**2))
        assert np.all(np.abs(var_a - var_b) <= z * se)
        # Var of a sample covariance: (var_x var_y + cov^2) / (n - 1).
        pair = var_a[1:] * var_a[:-1] + cov_a**2 + var_b[1:] * var_b[:-1] + cov_b**2
        se = np.sqrt(pair / (n_seeds - 1))
        assert np.all(np.abs(cov_a - cov_b) <= z * se)


class BasisNormals(np.random.Generator):
    """A generator whose standard_normal returns scale at one flat index
    and zeros elsewhere, or all zeros for index None; it keeps the size."""

    def __init__(self, index, scale):
        super().__init__(np.random.PCG64(0))
        self.index, self.scale, self.size = index, scale, None

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.size = size
        z = np.zeros(size)
        if self.index is not None:
            z.flat[self.index] = self.scale
        return z


def start_phases(case):
    _, cfg, plan = am_sweep_case(*case.values[0])
    n = cfg.samples_per_cycle
    dwell_n, _, n_dwells = _dwell_layout(plan, cfg)
    return min(n // math.gcd(dwell_n, n), n_dwells)


@pytest.mark.parametrize(
    AM_SWEEP_CASES.args[0],
    [case for case in AM_SWEEP_CASES.args[1] if start_phases(case) > 1],
)
def test_gaussian_am_sweep_noise_covariance_is_exact(case):
    # The per-dwell draw is linear in its normals.  With one normal at a
    # time set to 2^30 and the rest to 0, the sweep less its noise-free
    # output is 2^30 times one column of that linear map, so the covariance
    # it implies for lockin_v and dc_v is known without sampling.  It must
    # be the covariance the per-sample chain gives, from unit impulses
    # through the demodulator and the cycle mean at each dwell's own gate
    # phase, with each sample's variance s (1 - level gate).
    scene, cfg, plan = am_sweep_case(*case)
    # A peak contrast near 0.5, so (1 - level) is far from 1 and differs
    # from dwell to dwell; 4e4 counts per sample keep every dwell Gaussian.
    broadening = replace(
        scene.broadening, contrast_max=0.5, rf_contrast_sat_w=1e-3, opt_sat_w=1e-3
    )
    scene = replace(
        scene, broadening=broadening, pl_rate_per_w=4e4 / (scene.p_opt_w * cfg.dt_s)
    )
    levels = synthesize_odmr(
        scene.lines(), scene.broadening, scene.p_rf_w, scene.p_opt_w,
        plan.frequencies(),
    ).values
    assert 0.4 < levels.max() < 0.5
    assert scene.photon_rate_hz() * cfg.dt_s * (1.0 - levels.max()) > (
        GAUSSIAN_MEAN_THRESHOLD
    )

    def outputs(index, scale):
        rng = BasisNormals(index, scale)
        record = simulate_am_sweep(scene, plan, cfg, seed=rng)
        return np.concatenate((record.lockin_v, record.dc_v)), rng.size

    free, size = outputs(None, 0.0)
    clean = simulate_am_sweep(scene, plan, cfg, shot_noise=False)
    np.testing.assert_array_equal(free, np.concatenate((clean.lockin_v, clean.dc_v)))
    scale = 2.0**30
    columns = [(outputs(k, scale)[0] - free) / scale for k in range(np.prod(size))]
    got = np.transpose(columns) @ np.array(columns)

    dwell_n, settle_n, n_dwells = _dwell_layout(plan, cfg)
    n_lags = _dwell_response(cfg, dwell_n, settle_n, n_dwells)[1].shape[1]
    k_v = scene.detector.volts_per_photon_rate
    s = k_v * k_v * scene.photon_rate_hz() / cfg.dt_s
    # Rows 0 .. n_dwells - 1: lockin_v of each dwell, lead-in first; then dc_v.
    expected = np.zeros((2 * n_dwells, 2 * n_dwells))
    for d, level in enumerate(np.concatenate((levels[:1], levels))):
        start = d * dwell_n % cfg.samples_per_cycle
        w = impulse_weights(cfg, dwell_n, settle_n, n_lags, start)
        reach = np.zeros((2 * n_dwells, dwell_n))
        reach[n_dwells + d] = w[0]
        for j in range(min(n_lags, n_dwells - d)):
            reach[d + j] = w[1 + j]
        var = s * (1.0 - level * _am_gate(cfg, start, dwell_n))
        expected += (reach * var) @ reach.T
    keep = np.r_[1:n_dwells, n_dwells + 1 : 2 * n_dwells]
    expected = expected[np.ix_(keep, keep)]
    # Within 32 ulp of the largest entry (at most 11 measured).
    np.testing.assert_allclose(
        got, expected, rtol=0, atol=32 * np.spacing(np.abs(expected).max())
    )


@pytest.mark.parametrize("n", [10, 20])
def test_dwell_response_column_sum_is_sampled_gain(n):
    # A unit dip held for one whole-cycle dwell demodulates, over that
    # dwell and the ones after it, to the sampled gain of the gate and the
    # reference: (2/n) sum_{cos<0} |cos(2 pi k / n)|, not 2/pi.
    doc = load_config(CONFIG_DIR / "sensitivity_map_quenched.json")
    cfg = replace(doc.lockin, sample_rate_hz=n * doc.lockin.mod_freq_hz)
    _, lags = _dwell_response(cfg, *_dwell_layout(doc.sweep, cfg))[:2]
    cos = np.cos(2.0 * math.pi * np.arange(n) / n)
    gain = (2.0 / n) * np.sum(np.abs(cos[cos < 0]))
    assert lags.shape[0] == 1  # every dwell starts at the same gate phase
    assert np.sum(lags[0]) == pytest.approx(gain, rel=0, abs=1e-10)
    if n == 10:
        # The shipped map: 0.14% of each dwell's response spills into the
        # next dwell, a carry-over the sweep readings keep.
        assert gain == pytest.approx(0.6472135955, rel=0, abs=1e-10)
        assert lags[0, 0] == pytest.approx(0.6463, rel=1e-3)
        assert lags[0, 1] == pytest.approx(8.82e-4, rel=1e-3)


@pytest.mark.parametrize("regime", ["noise-free", "gaussian", "poisson"])
def test_am_cells_are_per_cell_sweeps(regime):
    # Each cell of one stacked call, in volts, is simulate_am_sweep at that
    # cell's powers and seed, bit for bit, in every noise regime.
    cfg = sweep_config()
    plan = SweepPlan(f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=21, dwell_s=0.025)
    scene = quenched_scene()
    if regime == "poisson":
        scene = replace(scene, pl_rate_per_w=1e9)
    p_opt = np.array([0.02, 0.4, 0.1, 0.3, 0.25])
    p_rf = np.array([0.05, 2.0, 1.0, 0.5, 0.05])
    seeds = [(7, k, 4 - k) for k in range(p_opt.size)]
    noisy = regime != "noise-free"
    lockin, dc = simulate_am_cells(
        scene, plan, cfg, p_opt, p_rf, seeds if noisy else None
    )
    assert lockin.shape == dc.shape == (p_opt.size, plan.n_points)
    for k, (po, pr) in enumerate(zip(p_opt, p_rf)):
        cell = replace(scene, p_opt_w=float(po), p_rf_w=float(pr))
        dimmest = cell.photon_rate_hz() * cfg.dt_s * (1.0 - 0.05)
        assert (dimmest > GAUSSIAN_MEAN_THRESHOLD) == (regime != "poisson")
        record = simulate_am_sweep(cell, plan, cfg, seed=seeds[k], shot_noise=noisy)
        assert np.array_equal(cell.in_volts(lockin[k]), record.lockin_v)
        assert np.array_equal(cell.in_volts(dc[k]), record.dc_v)


@pytest.mark.parametrize("pl_rate_per_w", [1.2e12, 1e9], ids=["gaussian", "poisson"])
def test_am_cells_keep_a_dark_cell_noise_free(pl_rate_per_w):
    # A cell at p_opt_w 0 has rate0 0: it draws nothing and keeps its
    # noise-free readings, with no warning, and the others their one-cell runs.
    cfg = sweep_config()
    plan = SweepPlan(f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=21, dwell_s=0.025)
    scene = replace(quenched_scene(), pl_rate_per_w=pl_rate_per_w)
    p_opt, p_rf, seeds = [0.4, 0.0, 0.1], [1.0, 1.0, 0.5], [(3, 0), (3, 1), (3, 2)]
    got = simulate_am_cells(scene, plan, cfg, p_opt, p_rf, seeds)
    for k, own in enumerate([seeds[:1], None, seeds[2:]]):
        one = simulate_am_cells(scene, plan, cfg, [p_opt[k]], [p_rf[k]], own)
        assert all(np.array_equal(a[k], b[0]) for a, b in zip(got, one))


def test_am_cells_name_the_first_overflowing_cell():
    # The stacked synthesis would name the largest RF power; the message
    # names the first failing cell's power, as that cell alone would.
    cfg = sweep_config()
    plan = SweepPlan(f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=5, dwell_s=0.025)
    scene = quenched_scene()
    with pytest.raises(ValueError, match=r"p_rf_w 1e\+307 W: the linewidth"):
        simulate_am_cells(scene, plan, cfg, [0.4, 0.4, 0.4], [1.0, 1e307, 1e308])
    with pytest.raises(ValueError, match=r"p_opt_w 1e\+300 W: the photon rate"):
        simulate_am_cells(scene, plan, cfg, [0.4, 1e300, 0.4], [1.0, 1.0, 1e308])


def test_am_cells_refuse_unequal_lengths():
    # One seed for three cells would leave the later cells noise-free, and
    # unequal power lists would not broadcast: each names the lengths.
    cfg = sweep_config()
    plan = SweepPlan(f_start_hz=95.5e6, f_stop_hz=100.5e6, n_points=5, dwell_s=0.025)
    scene = quenched_scene()
    p = [0.1, 0.2, 0.4]
    with pytest.raises(ValueError, match=r"in length: \[3, 3, 1\]"):
        simulate_am_cells(scene, plan, cfg, p, p, seeds=[5])
    with pytest.raises(ValueError, match=r"in length: \[3, 2\]"):
        simulate_am_cells(scene, plan, cfg, p, p[:2])
    with pytest.raises(ValueError, match=r"in length: \[2, 3, 3\]"):
        simulate_am_cells(scene, plan, cfg, p[:2], p, seeds=[1, 2, 3])


def test_am_sweep_seed_reproducibility():
    scene = quenched_scene(p_opt=0.05)
    cfg = sweep_config()
    plan = SweepPlan(
        f_start_hz=96e6, f_stop_hz=100e6, n_points=9, dwell_s=0.025
    )
    a = simulate_am_sweep(scene, plan, cfg, seed=5)
    b = simulate_am_sweep(scene, plan, cfg, seed=5)
    c = simulate_am_sweep(scene, plan, cfg, seed=6)
    np.testing.assert_array_equal(a.lockin_v, b.lockin_v)
    assert np.any(a.lockin_v != c.lockin_v)


def test_am_sweep_guards():
    scene = quenched_scene()
    plan = SweepPlan(
        f_start_hz=96e6, f_stop_hz=100e6, n_points=5, dwell_s=0.01
    )
    with pytest.raises(ValueError, match="dwell_s must be at least 5 x lockin.time"):
        simulate_am_sweep(scene, plan, sweep_config())
    fm = LockInConfig(
        mode="fm",
        mod_freq_hz=5e3,
        time_constant_s=5e-3,
        sample_rate_hz=5e4,
        fm_deviation_hz=1e5,
    )
    plan_ok = SweepPlan(
        f_start_hz=96e6, f_stop_hz=100e6, n_points=5, dwell_s=0.05
    )
    with pytest.raises(ValueError):
        simulate_am_sweep(scene, plan_ok, fm)


@pytest.mark.parametrize(
    "lockin, dwell_s, message",
    [
        ({}, 1e4, "dwell_s x lockin.sample_rate_hz must be at most 50000000"),
        # A 5 tau dwell of 31.25M samples whose response reaches 9 dwells.
        (
            {"time_constant_s": 62500.0, "sample_rate_hz": 100.0, "mod_freq_hz": 10.0},
            312500.0,
            "dwell_s: the lock-in response of one dwell spans 9 dwells",
        ),
    ],
    ids=["dwell-samples", "operator-window"],
)
def test_am_sweep_bounds_its_dwells_before_building_them(
    monkeypatch, lockin, dwell_s, message
):
    monkeypatch.setattr("odmrsim.signal_chain._dwell_response", None)  # not callable
    cfg = replace(sweep_config(), **lockin)
    plan = SweepPlan(f_start_hz=96e6, f_stop_hz=100e6, n_points=41, dwell_s=dwell_s)
    with pytest.raises(ValueError, match=message):
        simulate_am_sweep(quenched_scene(), plan, cfg)


def test_sweep_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(f_start_hz=2.0, f_stop_hz=1.0, n_points=5, dwell_s=0.1)
    with pytest.raises(ValueError):
        SweepPlan(f_start_hz=1.0, f_stop_hz=2.0, n_points=1, dwell_s=0.1)


def fm_config(deviation=1e5):
    return LockInConfig(
        mode="fm",
        mod_freq_hz=50.0,
        time_constant_s=0.5,
        sample_rate_hz=500.0,
        fm_deviation_hz=deviation,
    )


def test_fm_slope_matches_analytic_derivative():
    peak = PeakShape(center_hz=98.04e6, fwhm_hz=1.0e6, contrast=0.016)
    v_dc = 0.0636
    cfg = fm_config()
    slope = v_dc * fm_discriminator_slope(peak, cfg)
    half = 0.5 * peak.fwhm_hz
    d = cfg.fm_deviation_hz
    lprime = 2 * peak.contrast * d * half**2 / (d**2 + half**2) ** 2
    assert slope == pytest.approx((4 / math.pi) * v_dc * lprime, rel=0.03)
    assert slope > 0


def reference_fm_slope(peak, cfg, v_dc):
    """Per-sample FM slope: two 8 tau runs at detuning +-fwhm/100."""
    n = int(round(8.0 * cfg.time_constant_s * cfg.sample_rate_hz))
    sign = np.resize(np.where(_cycle_cos(cfg) >= 0, 1.0, -1.0), n)
    h = peak.fwhm_hz / 100.0
    settled = []
    for detuning in (h, -h):
        nu_inst = peak.center_hz + detuning + cfg.fm_deviation_hz * sign
        depth = lorentzian_sum(
            nu_inst, [peak.center_hz], [peak.contrast], peak.fwhm_hz
        )
        out = _Demodulator(cfg).process(v_dc * (1.0 - depth))
        settled.append(np.mean(out[cfg.settle_samples :]))
    return (settled[0] - settled[1]) / (2.0 * h)


@pytest.mark.parametrize(
    "deviation, sample_rate_hz", [(1e5, 500.0), (2e5, 500.0), (1e5, 550.0)]
)
def test_fm_slope_matches_per_sample_reference(deviation, sample_rate_hz):
    # n = 10 and 11 samples per cycle.
    peak = PeakShape(center_hz=98.04e6, fwhm_hz=1.0e6, contrast=0.016)
    cfg = replace(fm_config(deviation=deviation), sample_rate_hz=sample_rate_hz)
    expected = reference_fm_slope(peak, cfg, 0.0636)
    assert 0.0636 * fm_discriminator_slope(peak, cfg) == pytest.approx(
        expected, rel=1e-11, abs=0
    )


def test_fm_slope_rejects_large_deviation():
    peak = PeakShape(center_hz=98e6, fwhm_hz=0.5e6, contrast=0.016)
    with pytest.raises(DeviationTooLarge):
        fm_discriminator_slope(peak, fm_config(deviation=0.6e6))


def test_tracking_recovers_constant_field():
    scene = quenched_scene()
    tl = FieldTimeline(starts_s=np.array([0.0]), bz_t=np.array([1e-3]))
    res = simulate_fm_tracking(tl, scene, fm_config(), 30.0, shot_noise=False)
    settled = res.field_estimate[res.lockin.size // 2 :]
    np.testing.assert_allclose(settled, 1e-3, atol=1e-12)
    assert res.carrier_hz == pytest.approx(98.0373e6, abs=1e3)
    assert res.gamma_eff_hz_per_t == pytest.approx(2.8037e10, rel=1e-4)


def test_tracking_recovers_staircase_steps():
    scene = quenched_scene()
    tl = FieldTimeline.staircase(1e-3, 500e-9, 20.0, 4)
    cfg = fm_config()
    res = simulate_fm_tracking(tl, scene, cfg, 80.0, shot_noise=False)
    est = res.field_estimate
    t = cfg.dt_s * np.arange(est.size)
    for k in range(4):
        sel = (t >= k * 20.0 + 10.0) & (t < (k + 1) * 20.0)
        assert np.mean(est[sel]) == pytest.approx(tl.bz_t[k], abs=2e-9)


@pytest.mark.parametrize("field_noise", [0.0, 70e-9])
@pytest.mark.parametrize("block", [64, 7])
def test_tracking_staircase_levels_match_full_series_lookup(
    monkeypatch, block, field_noise
):
    # Step edges at samples 128, 319, 542 and 641, each step run in blocks
    # of 64 or 7 samples from its edge.  The reference is built outside the
    # tracker: each sample's level from first_samples, the line depths at the
    # FM carrier, the seed's field noise and counts, and one demodulator
    # over the whole run.  A 25 ms time constant leaves every step settled
    # samples after its 63-sample discard.
    cfg = replace(fm_config(), time_constant_s=0.025)
    dt, n = cfg.dt_s, 1000
    tl = FieldTimeline(
        starts_s=np.array([0, 128, 319, 542, 641]) * dt,
        bz_t=1e-3 + 500e-9 * np.array([-1.0, 0.5, 2.0, -0.5, 1.0]),
    )
    scene = quenched_scene()
    monkeypatch.setattr("odmrsim.signal_chain._BLOCK", block)
    res = simulate_fm_tracking(
        tl, scene, cfg, n * dt, seed=3, field_noise_step_sigma_t=field_noise
    )

    lines, slopes, _ = _line_table(scene)
    contrast = saturated_contrast(scene.broadening, scene.p_rf_w, scene.p_opt_w)
    gauss, poisson, field = _noise_streams(3)
    first = tl.first_samples(dt)
    np.testing.assert_array_equal(first, [0, 128, 319, 542, 641])
    db = np.repeat(tl.bz_t, np.diff([*first, n])) - scene.field.bz_t
    if field_noise:
        db = db + field.normal(0.0, res.field_noise_sigma_in_t, n)
    sign = np.where(_am_gate(cfg, 0, n), -1.0, 1.0)
    depth = lorentzian_sum(
        res.carrier_hz + cfg.fm_deviation_hz * sign,
        [ln.frequency_hz + s * db for ln, s in zip(lines, slopes)],
        [contrast * ln.rel_strength for ln in lines],
        saturated_fwhm(scene.broadening, scene.p_rf_w),
    )
    rate0 = scene.photon_rate_hz()
    unit = _shot_counts(rate0 * (1.0 - depth) * dt, gauss, poisson) / dt / rate0
    want = _Demodulator(cfg).process(unit)
    np.testing.assert_allclose(res.lockin, want, rtol=1e-12, atol=0)


def test_tracking_blocks_never_straddle_a_step_edge(monkeypatch):
    # Without field noise every block tiles its step's one-cycle rate, so
    # the lines are never evaluated over more than one cycle of carriers.
    # 3.2 s steps at 500 Hz put edges inside 8,192-sample stretches of the
    # run, and step 3 starts one ulp after sample 4800.
    sizes = []

    def spy(frequency_hz, *args):
        sizes.append(np.size(frequency_hz))
        return lorentzian_sum(frequency_hz, *args)

    monkeypatch.setattr("odmrsim.signal_chain.lorentzian_sum", spy)
    cfg = fm_config()
    tl = FieldTimeline.staircase(1e-3, 500e-9, 3.2, 8)
    simulate_fm_tracking(tl, quenched_scene(), cfg, 25.6, seed=2)
    assert len(sizes) == 1 + 8  # the discriminator slope and one per step
    assert max(sizes) <= cfg.samples_per_cycle


def test_step_windows_run_from_settle_samples_after_each_first_sample():
    # Window k is [first_k + settle_samples, first_(k+1)), the last ending
    # at n.  Step 3 of the 3.2 s staircase starts one ulp after sample
    # 4800, so sample 4800 is step 2's and closes its window; a 4.002 s
    # run keeps its last sample, 2000.
    cfg = fm_config()
    assert cfg.settle_samples == 1250
    tl = FieldTimeline.staircase(1e-3, 500e-9, 3.2, 8)
    n = 12800
    first = tl.first_samples(cfg.dt_s).tolist()
    want = [(f + 1250, end) for f, end in zip(first, [*first[1:], n])]
    assert step_windows(tl, n, cfg) == want
    assert want[2] == (4450, 4801)
    one = FieldTimeline(np.array([0.0]), np.array([1e-3]))
    assert step_windows(one, round(4.002 * cfg.sample_rate_hz), cfg) == [(1250, 2001)]

    # The tracker's step statistics are those of the full series over
    # these windows, bit for bit.
    res = simulate_fm_tracking(tl, quenched_scene(), cfg, 25.6, seed=4)
    est = res.field_estimate
    assert est.size == n
    means = [np.mean(est[i0:i1]) for i0, i1 in want]
    stds = [np.std(est[i0:i1], ddof=1) for i0, i1 in want]
    np.testing.assert_array_equal(
        res.step_means_t.view(np.uint64), np.array(means).view(np.uint64)
    )
    np.testing.assert_array_equal(
        res.step_stds_t.view(np.uint64), np.array(stds).view(np.uint64)
    )


@pytest.mark.parametrize("shot_noise", [False, True], ids=["no-shot", "shot"])
@pytest.mark.parametrize("field_noise", [0.0, 70e-9])
@pytest.mark.parametrize("block", [64, 7])
def test_streamed_tracking_equals_full_series(
    monkeypatch, block, field_noise, shot_noise
):
    # Step edges at samples 1500, 2900 and 4333, and settled windows
    # starting 1250 samples (5 tau) after each edge: inside the 64- and
    # 7-sample blocks that each step runs in from its edge.  Every window
    # keeps at least 150 samples.
    cfg = fm_config()
    dt = cfg.dt_s
    n_total = 6000
    tl = FieldTimeline(
        starts_s=np.array([0, 1500, 2900, 4333]) * dt,
        bz_t=1e-3 + 500e-9 * np.array([-1.0, 0.5, 2.0, -0.5]),
    )

    def run(block_n, decimation):
        monkeypatch.setattr("odmrsim.signal_chain._BLOCK", block_n)
        return simulate_fm_tracking(
            tl,
            quenched_scene(),
            cfg,
            n_total * dt,
            seed=3,
            shot_noise=shot_noise,
            field_noise_step_sigma_t=field_noise,
            decimation=decimation,
        )

    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    # Blocks as long as the run: each step in one block.
    full = run(n_total, 1)
    lockin, estimate = full.lockin, full.field_estimate
    assert lockin.size == estimate.size == n_total
    windows = step_windows(tl, n_total, cfg)
    means = [np.mean(estimate[i0:i1]) for i0, i1 in windows]
    stds = [np.std(estimate[i0:i1], ddof=1) for i0, i1 in windows]
    for decimation in (1, 25):
        got = run(block, decimation)
        np.testing.assert_array_equal(bits(got.lockin), bits(lockin[::decimation]))
        np.testing.assert_array_equal(
            bits(got.field_estimate), bits(estimate[::decimation])
        )
        np.testing.assert_array_equal(bits(got.step_means_t), bits(means))
        np.testing.assert_array_equal(bits(got.step_stds_t), bits(stds))


class RecordedNormals(np.random.Generator):
    """A generator on a given bit generator that keeps each standard_normal
    draw it makes."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.drawn = []

    def standard_normal(self, *args, **kwargs):
        z = super().standard_normal(*args, **kwargs)
        self.drawn.append(z.copy())
        return z


def test_tracking_gaussian_counts_ignore_field_noise(monkeypatch):
    # Each noise source draws from its own stream of the seed.  The
    # Gaussian counts are the whole standard_normal draw of
    # default_rng(seed), block by block, with field noise on or off; the
    # field noise comes from a child stream and draws nothing from it.
    cfg = fm_config()
    n_total, seed = 3000, 4
    tl = FieldTimeline.staircase(1e-3, 500e-9, n_total // 2 * cfg.dt_s, 2)
    recorded = []

    def spy(seed):
        gauss, poisson, field = _noise_streams(seed)
        recorded.append(RecordedNormals(gauss.bit_generator))
        return recorded[-1], poisson, field

    monkeypatch.setattr("odmrsim.signal_chain._noise_streams", spy)
    monkeypatch.setattr("odmrsim.signal_chain._BLOCK", 64)
    runs = [
        simulate_fm_tracking(
            tl, quenched_scene(), cfg, n_total * cfg.dt_s, seed=seed,
            field_noise_step_sigma_t=sigma,
        )
        for sigma in (0.0, 70e-9)
    ]
    assert runs[1].field_noise_sigma_in_t > 0
    assert not np.array_equal(runs[0].lockin, runs[1].lockin)
    expected = np.random.default_rng(seed).standard_normal(n_total)
    for rng in recorded:
        # Two 1500-sample steps of 64-sample blocks.
        assert len(rng.drawn) == 2 * math.ceil(n_total / 2 / 64)
        got = np.concatenate(rng.drawn)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class RecordedFieldNormals(np.random.Generator):
    """A generator on a given bit generator that keeps each normal draw it
    makes."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.drawn = []

    def normal(self, *args, **kwargs):
        x = super().normal(*args, **kwargs)
        self.drawn.append(x.copy())
        return x


@pytest.mark.parametrize("shot_noise", [False, True], ids=["no-shot", "shot"])
def test_tracking_field_noise_is_the_seeds_whole_draw(monkeypatch, shot_noise):
    # The field noise is drawn block by block, yet it is the whole
    # normal(0, sigma_in, n_total) draw of its spawned child of the seed,
    # bit for bit.  The Gaussian counts draw the whole standard_normal
    # stream of default_rng(seed) beside it; a run without shot noise
    # draws no counts, and no run here draws a Poisson count.
    cfg = fm_config()
    n_total, seed = 3000, 4
    tl = FieldTimeline.staircase(1e-3, 500e-9, n_total // 2 * cfg.dt_s, 2)
    streams = []

    def spy(seed):
        gauss, poisson, field = _noise_streams(seed)
        streams.extend([
            RecordedNormals(gauss.bit_generator), poisson,
            RecordedFieldNormals(field.bit_generator),
        ])
        return tuple(streams)

    monkeypatch.setattr("odmrsim.signal_chain._noise_streams", spy)
    monkeypatch.setattr("odmrsim.signal_chain._BLOCK", 64)
    res = simulate_fm_tracking(
        tl, quenched_scene(), cfg, n_total * cfg.dt_s, seed=seed,
        shot_noise=shot_noise, field_noise_step_sigma_t=70e-9,
    )
    gauss, poisson, field = streams
    children = np.random.SeedSequence(seed).spawn(2)
    expected = np.random.default_rng(children[1]).normal(
        0.0, res.field_noise_sigma_in_t, n_total
    )
    assert len(field.drawn) == 2 * math.ceil(n_total / 2 / 64)
    got = np.concatenate(field.drawn)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    fresh = np.random.default_rng(children[0]).bit_generator.state
    assert poisson.bit_generator.state == fresh
    if shot_noise:
        counts = np.random.default_rng(seed).standard_normal(n_total)
        got = np.concatenate(gauss.drawn)
        np.testing.assert_array_equal(got.view(np.uint64), counts.view(np.uint64))
    else:
        assert gauss.drawn == []
        assert gauss.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_no_output_depends_on_block_size(monkeypatch):
    # Counts straddle the Gaussian threshold, so blocks mix Poisson and
    # Gaussian counts: an AM sweep at about 1.01e4 counts a sample off
    # resonance and below 1e4 in the dip, and an FM run whose field noise
    # moves its counts across 1e4.  Each regime draws in sample order from
    # its own stream, so every block size gives the same bits.
    mixed = []

    def counting(mean, *streams):
        big = mean > GAUSSIAN_MEAN_THRESHOLD
        mixed.append(big.any() and not big.all())
        return _shot_counts(mean, *streams)

    monkeypatch.setattr("odmrsim.signal_chain._shot_counts", counting)
    scene, am_cfg, plan = am_sweep_case(0.2, 1.0, 0.01234, 2e-3, 41, 10)
    am_scene = replace(scene, pl_rate_per_w=1.01e4 / (0.2 * am_cfg.dt_s))
    fm_cfg = fm_config()
    fm_scene = replace(quenched_scene(), pl_rate_per_w=1.0137e4 / (0.4 * fm_cfg.dt_s))
    n_total = 6000
    tl = FieldTimeline.staircase(1e-3, 500e-9, n_total // 2 * fm_cfg.dt_s, 2)

    def outputs(block_n):
        monkeypatch.setattr("odmrsim.signal_chain._BLOCK", block_n)
        am = simulate_am_sweep(am_scene, plan, am_cfg, seed=5)
        fm = simulate_fm_tracking(
            tl, fm_scene, fm_cfg, n_total * fm_cfg.dt_s, seed=5,
            field_noise_step_sigma_t=70e-9,
        )
        series = (
            am.lockin_v, am.dc_v, fm.lockin, fm.field_estimate,
            fm.step_means_t, fm.step_stds_t,
        )
        return [np.asarray(x, dtype=float).view(np.uint64) for x in series]

    reference = outputs(8192)
    assert any(mixed)
    for block_n in (2500, 64):
        for got, want in zip(outputs(block_n), reference):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "field_noise", [0.0, 70e-9], ids=["no-field-noise", "field-noise"]
)
def test_tracking_memory_is_one_step_window(field_noise):
    # 8 steps of 100k samples, with shot noise where there is field noise.
    # The run keeps its decimated series and one step's settled window at a
    # time, gathered into a buffer that np.std copies once more, plus one
    # block's working set; the field noise is drawn block by block.  That
    # is bounded by a step's window, not by the run: 8 equal steps put 1/8
    # of the run in each window, so it is below half of one series of the
    # run's length, which the full series held three times over.
    cfg = fm_config()
    n_total = 800_000
    tl = FieldTimeline.staircase(1e-3, 500e-9, n_total // 8 * cfg.dt_s, 8)

    def run():
        return simulate_fm_tracking(
            tl, quenched_scene(), cfg, n_total * cfg.dt_s,
            shot_noise=field_noise > 0, field_noise_step_sigma_t=field_noise,
            decimation=25,
        )

    run()  # cached line solves and dwell weights out of the measurement
    tracemalloc.start()
    try:
        res = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = max(i1 - i0 for i0, i1 in step_windows(tl, n_total, cfg)) * 8
    kept = res.lockin.nbytes + res.field_estimate.nbytes
    assert peak < 2 * window + kept + 2**20
    assert peak < n_total * 8 / 2


def test_all_gaussian_shot_counts_match_numpy_normal_bit_for_bit():
    # A block whose every mean is above the threshold skips the masks, and
    # must draw as the masked path and numpy's normal(mu, sqrt(mu)) do.
    rng = np.random.default_rng(11)
    mean = np.concatenate(
        ([np.nextafter(GAUSSIAN_MEAN_THRESHOLD, np.inf)], rng.uniform(1e4, 1e12, 500))
    )
    got = _shot_counts(mean, *_noise_streams(12)[:2])
    expected = np.maximum(np.random.default_rng(12).normal(mean, np.sqrt(mean)), 0.0)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_tracking_field_noise_calibration():
    scene = quenched_scene()
    cfg = fm_config()
    tl = FieldTimeline.staircase(1e-3, 0.0, 40.0, 8)
    res = simulate_fm_tracking(
        tl,
        scene,
        cfg,
        320.0,
        seed=2,
        shot_noise=False,
        field_noise_step_sigma_t=70e-9,
    )
    report = analyze_steps(res.step_means_t, res.step_stds_t, tl, cfg)
    assert report["pooled_std_t"] == pytest.approx(70e-9, rel=0.15)
    assert res.field_noise_sigma_in_t > 70e-9


def assert_slopes_match_richardson(scene):
    """Each line's slope against Richardson extrapolation of its central
    differences over h = 1 uT and 0.5 uT, which cancels their h^2 error."""
    lines, slopes, _ = _line_table(scene)
    bz = scene.field.bz_t

    def positions(b):
        # A line's own position at b: the nearest line of its label.
        others = replace(scene, field=replace(scene.field, bz_t=b)).lines()
        return np.array(
            [
                min(
                    (o.frequency_hz for o in others if o.label == ln.label),
                    key=lambda f: abs(f - ln.frequency_hz),
                )
                for ln in lines
            ]
        )

    def central(h):
        return (positions(bz + h) - positions(bz - h)) / (2.0 * h)

    expected = (4.0 * central(0.5e-6) - central(1e-6)) / 3.0
    assert slopes == pytest.approx(expected, rel=1e-10, abs=0)
    return lines


def test_lines_sharing_a_label_each_get_their_own_slope():
    # Two nu2 lines, at 71.7 and 143.6 MHz, each flanked by satellites.
    scene = replace(
        quenched_scene(),
        spin=SpinParams(zfs_hz=6.3e6, g_factor=2.0996),
        field=FieldVector(1.19e-3, -1.56e-3, -1.46e-3),
    )
    lines = assert_slopes_match_richardson(scene)
    assert [ln.label for ln in lines].count("nu2") == 2


def test_line_slopes_in_a_tilted_field_match_richardson():
    # A 0.1 mT transverse field, where a +-1 uT central difference alone is
    # off by about 2e-8 relative.
    scene = replace(quenched_scene(), field=FieldVector(1e-4, 0.0, 1e-3))
    lines = assert_slopes_match_richardson(scene)
    assert {"nu1", "nu2", "dark", "m2_plus", "m2_minus"} <= {ln.label for ln in lines}


def reference_field_noise_sigma(target, scene, cfg, slope):
    """Reference field-noise input sigma, summing the field slope line by line.

    Each line's field slope is its centre derivative in the normalised
    detuning u = (f - f0) / (G/2), a / (1 + u^2), times its own d(f0)/d(bz).
    The response and slope are in units of the unmodulated photon rate.
    """
    lines, slopes, _ = _line_table(scene)
    fwhm = saturated_fwhm(scene.broadening, scene.p_rf_w)
    contrast = saturated_contrast(scene.broadening, scene.p_rf_w, scene.p_opt_w)
    carrier = next(ln.frequency_hz for ln in lines if ln.label == "nu2")
    gamma_eff = slopes[[ln.label for ln in lines].index("nu2")]
    sign = np.where(_cycle_cos(cfg) >= 0, 1.0, -1.0)
    nu_inst = carrier + cfg.fm_deviation_hz * sign
    half = 0.5 * fwhm
    dv_db = 0.0
    for ln, line_slope in zip(lines, slopes):
        u = (nu_inst - ln.frequency_hz) / half
        d_depth_d_center = contrast * ln.rel_strength * 2.0 * u / half / (1 + u * u) ** 2
        dv_db = dv_db - d_depth_d_center * line_slope
    gain = 2.0 * _cycle_cos(cfg) * dv_db
    sigma_out = math.sqrt(float(np.mean(gain**2)) * _filter_energy_pure(cfg))
    return target * abs(slope * gamma_eff) / sigma_out


def test_field_noise_calibration_matches_per_line_reference():
    cfg = load_config(CONFIG_DIR / "field_steps_tracking.json")
    scene = cfg.scene()
    target = cfg.schedule.field_noise_step_sigma_t
    tl = FieldTimeline(starts_s=np.array([0.0]), bz_t=np.array([cfg.field.bz_t]))
    # 3 s keeps 0.5 s of settled samples after the 2.5 s discard.
    res = simulate_fm_tracking(
        tl, scene, cfg.lockin, 3.0, field_noise_step_sigma_t=target
    )
    expected = reference_field_noise_sigma(
        target, scene, cfg.lockin, res.slope_per_hz
    )
    assert res.field_noise_sigma_in_t == pytest.approx(expected, rel=1e-12, abs=0)


def test_tracking_shot_noise_reproducibility():
    scene = quenched_scene()
    cfg = fm_config()
    tl = FieldTimeline(starts_s=np.array([0.0]), bz_t=np.array([1e-3]))
    a = simulate_fm_tracking(tl, scene, cfg, 10.0, seed=9)
    b = simulate_fm_tracking(tl, scene, cfg, 10.0, seed=9)
    np.testing.assert_array_equal(a.lockin, b.lockin)


def test_tracking_guards():
    scene = quenched_scene()
    tl = FieldTimeline(starts_s=np.array([0.0]), bz_t=np.array([1e-3]))
    with pytest.raises(ValueError):
        simulate_fm_tracking(tl, scene, sweep_config(), 10.0)
    with pytest.raises(DeviationTooLarge):
        simulate_fm_tracking(tl, scene, fm_config(deviation=2e6), 10.0)
    dark_scene = quenched_scene(p_opt=0.0)
    with pytest.raises(ValueError):
        simulate_fm_tracking(tl, dark_scene, fm_config(), 10.0)
    with pytest.raises(ValueError, match="decimation must be at least 1"):
        simulate_fm_tracking(tl, scene, fm_config(), 10.0, decimation=0)


def test_tracking_bounds_its_run_before_solving(monkeypatch):
    # 8 steps over 1e7 s at 500 Hz is 5e9 samples: refused before the
    # lines are solved, so no series is ever sized from it.
    def unexpected(*args, **kwargs):
        raise AssertionError("fm_discriminator_slope ran")

    monkeypatch.setattr("odmrsim.signal_chain.fm_discriminator_slope", unexpected)
    tl = FieldTimeline.staircase(1e-3, 0.0, 1.25e6, 8)
    with pytest.raises(ValueError, match="^duration_s x lockin.sample_rate_hz"):
        simulate_fm_tracking(tl, quenched_scene(), fm_config(), 1e7)


def test_tracking_rejects_a_short_step_before_drawing(monkeypatch):
    # The second step starts 1 s before the run ends, inside its 2.5 s
    # settling discard, so it keeps no settled sample.
    def no_demodulator(cfg):
        raise AssertionError("the demodulator ran")

    monkeypatch.setattr("odmrsim.signal_chain._Demodulator", no_demodulator)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    tl = FieldTimeline.staircase(1e-3, 500e-9, 9.0, 2)
    with pytest.raises(ScheduleMismatch, match="t = 9 s has 0 samples"):
        simulate_fm_tracking(
            tl, quenched_scene(), fm_config(), 10.0, seed=rng,
            field_noise_step_sigma_t=70e-9,
        )
    assert rng.bit_generator.state == state
