import numpy as np
import pytest

from odmrsim import (
    BroadeningModel,
    DetectorModel,
    EmptyTransitionList,
    FieldVector,
    PRESETS,
    PeakShape,
    Scene,
    SpinParams,
    saturated_contrast,
    saturated_fwhm,
    synthesize_odmr,
)
from odmrsim.lineshape import lorentzian_sum
from odmrsim.signal_chain import _solve_lines

QUENCHED = PRESETS["quenched"].broadening


def lines_at(bz_t=1e-3, hyperfine=False):
    """A scene's lines at axial field bz_t, with or without satellites."""
    spin = SpinParams(hyperfine_rel_amp=0.05 if hyperfine else 0.0)
    return list(_solve_lines(spin, FieldVector(0, 0, bz_t)))


def test_lorentzian_center_and_half_width_points():
    assert lorentzian_sum(98e6, [98e6], [0.02], 1e6) == pytest.approx(0.02)
    assert lorentzian_sum(98e6 + 0.5e6, [98e6], [0.02], 1e6) == pytest.approx(0.01)
    assert lorentzian_sum(98e6 - 0.5e6, [98e6], [0.02], 1e6) == pytest.approx(0.01)


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
            expected += lorentzian_sum(freq - center, [0.0], [amp], fwhm)
        assert np.array_equal(lorentzian_sum(freq, centers, amps, fwhm), expected)
        generated = (center for center in centers)
        assert np.array_equal(lorentzian_sum(freq, generated, amps, fwhm), expected)
    assert np.array_equal(lorentzian_sum(freq, [], [], fwhm), np.zeros(freq.size))


def test_zero_amplitude_lines_leave_lorentzian_sum_bit_for_bit():
    # FM tracking sums only lines of nonzero strength.  A line of amplitude
    # 0 (or -0) adds exactly +0.0 or -0.0, so every partial sum is unchanged:
    # in the far tails, at detunings of 1e150 Hz, and with the dead lines
    # before, between and after the live ones.
    rng = np.random.default_rng(10)
    fwhm = 7.3e5
    freq = np.concatenate(
        (rng.uniform(97e6, 99e6, 64), [98e6, 98e6 + 1e9, -1e12, 1e150, -1e150])
    )
    db = rng.normal(0.0, 1e-7, freq.size)
    live = [(97.7e6, 0.02), (98.0e6, 0.013), (98.4e6, 0.001)]
    dead = [(-1e150, 0.0), (90e6, -0.0), (97.9e6, 0.0), (110e6, 0.0), (1e150, 0.0)]
    lines = [dead[0], dead[1], live[0], dead[2], live[1], live[2], dead[3], dead[4]]

    def centers(table, moving):
        # A moving line is centre + slope * db, as tracking evaluates it.
        return [c + 2.8e10 * db if moving else c for c, _ in table]

    for moving in (False, True):
        want = lorentzian_sum(freq, centers(live, moving), [a for _, a in live], fwhm)
        got = lorentzian_sum(freq, centers(lines, moving), [a for _, a in lines], fwhm)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lorentzian_sum_broadcasts_column_amplitudes_and_widths():
    # (cells, 1) amplitudes and widths against a (points,) grid give
    # (cells, points), each row the sum at that cell's values alone.
    rng = np.random.default_rng(9)
    freq = rng.uniform(97e6, 99e6, 31)
    centers = list(rng.uniform(97e6, 99e6, 3))
    amps = rng.uniform(-0.02, 0.03, (3, 4, 1))
    fwhm = rng.uniform(3e5, 2e6, (4, 1))
    got = lorentzian_sum(freq, centers, list(amps), fwhm)
    assert got.shape == (4, freq.size)
    for k in range(4):
        want = lorentzian_sum(freq, centers, list(amps[:, k, 0]), float(fwhm[k, 0]))
        assert np.array_equal(got[k], want)
    # A scalar amplitude on a column of widths broadcasts the same way.
    assert lorentzian_sum(freq, centers, [0.01] * 3, fwhm).shape == (4, freq.size)


def test_synthesis_over_power_columns_is_the_per_cell_synthesis():
    # The map's noise-free levels: one synthesis over (cells, 1) power
    # columns equals each cell's own synthesis, bit for bit.
    lines = lines_at(hyperfine=True)
    grid = np.linspace(95.5e6, 100.5e6, 41)
    p_opt = np.repeat(np.linspace(0.02, 0.4, 4), 5)
    p_rf = np.tile(np.linspace(0.05, 2.0, 5), 4)
    levels = synthesize_odmr(lines, QUENCHED, p_rf[:, None], p_opt[:, None], grid)
    assert levels.values.shape == (20, grid.size)
    for row, po, pr in zip(levels.values, p_opt, p_rf):
        cell = synthesize_odmr(lines, QUENCHED, float(pr), float(po), grid)
        assert np.array_equal(row, cell.values)


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
    shapes = [
        synthesize_odmr(lines_at(), QUENCHED, 0.7, p_opt, grid).values
        / saturated_contrast(QUENCHED, 0.7, p_opt)
        for p_opt in rng.uniform(0.0, 5.0, size=10)
    ]
    for shape in shapes[1:]:
        np.testing.assert_allclose(shape, shapes[0], rtol=1e-12)


def test_fwhm_rejects_negative_power():
    with pytest.raises(ValueError):
        saturated_fwhm(QUENCHED, -0.1)


def test_contrast_double_saturation_spot_value():
    # 0.04 * (1 / (1 + 2/3)) * (0.4 / 0.6) = 0.016 at 1 W RF, 0.4 W optical.
    assert saturated_contrast(QUENCHED, 1.0, 0.4) == pytest.approx(
        0.016, rel=1e-12, abs=0
    )


def test_contrast_vanishes_without_drive():
    assert saturated_contrast(QUENCHED, 0.0, 0.4) == 0.0
    assert saturated_contrast(QUENCHED, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="powers must be non-negative"):
        saturated_contrast(QUENCHED, -0.1, 0.4)


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
    with pytest.raises(ValueError, match="fwhm_hz must be positive"):
        PeakShape(center_hz=98e6, fwhm_hz=0.0, contrast=0.016)


def test_synthesize_peak_heights_scale_with_strength():
    lines = lines_at()
    grid = np.linspace(20e6, 120e6, 4001)
    spectrum = synthesize_odmr(lines, QUENCHED, 1.0, 0.4, grid)
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
    np.testing.assert_array_equal(spectrum.frequency_hz, grid)
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
