import numpy as np
import pytest

from odmrsim import (
    BroadeningModel,
    DetectorModel,
    EmptyTransitionList,
    FieldVector,
    PeakShape,
    PRESETS,
    Scene,
    SpinParams,
    build_hamiltonian,
    eigenlevels,
    lorentzian_value,
    saturated_contrast,
    saturated_fwhm,
    synthesize_odmr,
    transitions,
)
from odmrsim.lineshape import lorentzian_sum

QUENCHED = PRESETS["quenched"].broadening


def lines_at(bz_t=1e-3, hyperfine=False):
    params = SpinParams()
    levels = eigenlevels(build_hamiltonian(params, FieldVector(0, 0, bz_t)))
    return transitions(levels, params, include_hyperfine=hyperfine)


def test_lorentzian_center_and_half_width_points():
    peak = PeakShape(center_hz=98e6, fwhm_hz=1e6, contrast=0.02)
    assert lorentzian_value(peak, 98e6) == pytest.approx(0.02)
    assert lorentzian_value(peak, 98e6 + 0.5e6) == pytest.approx(0.01)
    assert lorentzian_value(peak, 98e6 - 0.5e6) == pytest.approx(0.01)


def test_lorentzian_vectorised():
    peak = PeakShape(center_hz=0.0, fwhm_hz=2.0, contrast=1.0)
    out = lorentzian_value(peak, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(out, [0.5, 1.0, 0.5])


def test_lorentzian_sum_is_the_per_line_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    freq = rng.uniform(97e6, 99e6, 257)
    amps = rng.uniform(-0.02, 0.03, 5)
    fwhm = 7.3e5
    scalar = list(rng.uniform(97e6, 99e6, 5))
    arrays = [c + rng.normal(0.0, 1e4, freq.size) for c in scalar]
    for centers in (scalar, arrays):
        # A line centred on c is the zero-centred line at f - c, bit for bit.
        expected = np.zeros(freq.size)
        for center, amp in zip(centers, amps):
            expected += lorentzian_value(PeakShape(0.0, fwhm, amp), freq - center)
        assert np.array_equal(lorentzian_sum(freq, centers, amps, fwhm), expected)
        generated = (center for center in centers)
        assert np.array_equal(lorentzian_sum(freq, generated, amps, fwhm), expected)
    assert np.array_equal(lorentzian_sum(freq, [], [], fwhm), np.zeros(freq.size))


def test_fwhm_square_root_power_broadening():
    # Half-saturation power doubles the squared width: fwhm0 sqrt(1 + p/p_sat).
    assert saturated_fwhm(QUENCHED, 0.0) == pytest.approx(450e3)
    assert saturated_fwhm(QUENCHED, 0.25) == pytest.approx(450e3 * np.sqrt(2))
    assert saturated_fwhm(QUENCHED, 1.0) == pytest.approx(
        450e3 * np.sqrt(5), rel=1e-12
    )


def test_fwhm_ignores_optical_power():
    rng = np.random.default_rng(3)
    grid = np.linspace(95e6, 101e6, 11)
    for p_opt in rng.uniform(0.0, 5.0, size=10):
        spectrum = synthesize_odmr(lines_at(), QUENCHED, 0.7, p_opt, grid)
        assert spectrum.meta["fwhm_hz"] == saturated_fwhm(QUENCHED, 0.7)


def test_fwhm_rejects_negative_power():
    with pytest.raises(ValueError):
        saturated_fwhm(QUENCHED, -0.1)


def test_contrast_double_saturation_spot_value():
    # 0.04 * (1 / (1 + 2/3)) * (0.4 / 0.6) = 0.016 at 1 W RF, 0.4 W optical.
    assert saturated_contrast(QUENCHED, 1.0, 0.4) == pytest.approx(
        0.016, rel=1e-12
    )


def test_contrast_vanishes_without_drive():
    assert saturated_contrast(QUENCHED, 0.0, 0.4) == 0.0
    assert saturated_contrast(QUENCHED, 1.0, 0.0) == 0.0


def test_contrast_monotone_and_bounded():
    p = np.linspace(0.0, 50.0, 30)
    along_rf = saturated_contrast(QUENCHED, p, 0.4)
    along_opt = saturated_contrast(QUENCHED, 1.0, p)
    assert np.all(np.diff(along_rf) > 0)
    assert np.all(np.diff(along_opt) > 0)
    assert along_rf.max() < QUENCHED.contrast_max
    assert along_opt.max() < QUENCHED.contrast_max


def test_preset_contrast_and_rate_ratios():
    q = PRESETS["quenched"]
    a = PRESETS["annealed"]
    assert q.broadening.contrast_max / a.broadening.contrast_max == pytest.approx(
        10.0
    )
    assert q.pl_rate_per_w / a.pl_rate_per_w == pytest.approx(1.5)
    assert q.broadening.fwhm0_hz == pytest.approx(450e3)
    assert a.broadening.fwhm0_hz == pytest.approx(600e3)


def test_broadening_model_validation():
    with pytest.raises(ValueError):
        BroadeningModel(
            fwhm0_hz=0.0,
            rf_sat_w=0.25,
            contrast_max=0.04,
            opt_sat_w=0.2,
            rf_contrast_sat_w=2 / 3,
        )
    with pytest.raises(ValueError):
        BroadeningModel(
            fwhm0_hz=450e3,
            rf_sat_w=0.25,
            contrast_max=1.2,
            opt_sat_w=0.2,
            rf_contrast_sat_w=2 / 3,
        )


def test_synthesize_peak_heights_scale_with_strength():
    lines = lines_at()
    grid = np.linspace(20e6, 120e6, 4001)
    spectrum = synthesize_odmr(lines, QUENCHED, 1.0, 0.4, grid)
    assert spectrum.unit == "contrast"
    contrast = saturated_contrast(QUENCHED, 1.0, 0.4)
    by_label = {ln.label: ln for ln in lines}
    for label in ("nu1", "nu2", "dark"):
        center = by_label[label].frequency_hz
        idx = np.argmin(np.abs(grid - center))
        expected = contrast * by_label[label].rel_strength
        assert spectrum.values[idx] == pytest.approx(expected, rel=5e-3)


def test_synthesize_hyperfine_toggle():
    grid = np.linspace(101e6, 105e6, 2001)
    with_sat = synthesize_odmr(lines_at(hyperfine=True), QUENCHED, 1.0, 0.4, grid)
    without = synthesize_odmr(lines_at(hyperfine=False), QUENCHED, 1.0, 0.4, grid)
    nu2_plus = 98.0373e6 + 5e6
    idx = np.argmin(np.abs(grid - nu2_plus))
    assert with_sat.values[idx] > 3 * without.values[idx]


def test_synthesize_metadata_and_empty_input():
    lines = lines_at()
    grid = np.linspace(90e6, 100e6, 11)
    spectrum = synthesize_odmr(lines, QUENCHED, 1.0, 0.4, grid)
    assert spectrum.meta["p_rf_w"] == 1.0
    assert spectrum.meta["p_opt_w"] == 0.4
    assert spectrum.meta["n_lines"] == len(lines)
    with pytest.raises(EmptyTransitionList):
        synthesize_odmr([], QUENCHED, 1.0, 0.4, grid)


def test_scene_dc_voltage_consistency():
    preset = PRESETS["quenched"]
    scene = Scene(
        spin=SpinParams(),
        field=FieldVector(0, 0, 1e-3),
        broadening=preset.broadening,
        detector=DetectorModel(),
        pl_rate_per_w=preset.pl_rate_per_w,
        p_opt_w=0.4,
        p_rf_w=1.0,
    )
    assert scene.photon_rate_hz() == pytest.approx(4.8e11)
    assert scene.dc_voltage() > 0
