"""Level structure, transition labels and strengths of the S=3/2 model."""

from dataclasses import replace

import numpy as np
import pytest

from odmrsim import (
    AxialFrequencies,
    ConvergenceFailure,
    FieldOutOfRange,
    FieldVector,
    SpinParams,
    axial_frequencies,
    build_hamiltonian,
    eigenlevels,
    gyromagnetic_ratio,
    level_crossing_field,
    spin_operators,
    transitions,
)
from odmrsim.spin_model import scan_transitions

# g * (Bohr magneton / h), frozen from CODATA 13.996244917 GHz/T.
GAMMA_DEFAULT = 2.0032 * 13.996244917e9

ZFS = 70e6


def axial_scene(bz_t, params=None):
    params = params or SpinParams()
    levels = eigenlevels(build_hamiltonian(params, FieldVector(0.0, 0.0, bz_t)))
    return {ln.label: ln for ln in transitions(levels)}


def test_gyromagnetic_ratio_default_g():
    assert gyromagnetic_ratio() == pytest.approx(GAMMA_DEFAULT, rel=1e-8)


def test_gyromagnetic_ratio_scales_linearly_with_g():
    assert gyromagnetic_ratio(2.0) * 2.0032 / 2.0 == pytest.approx(
        gyromagnetic_ratio(2.0032), rel=1e-12
    )


def test_spin_operators_commutator_algebra():
    sx, sy, sz = spin_operators()
    np.testing.assert_allclose(
        sx @ sy - sy @ sx, 1j * sz, atol=1e-12
    )
    np.testing.assert_allclose(
        sz @ sx - sx @ sz, 1j * sy, atol=1e-12
    )
    # Casimir S(S+1) = 15/4 for S = 3/2.
    np.testing.assert_allclose(
        sx @ sx + sy @ sy + sz @ sz, 3.75 * np.eye(4), atol=1e-12
    )


def test_zero_field_levels_split_by_zfs():
    levels = eigenlevels(build_hamiltonian(SpinParams(), FieldVector(0, 0, 0)))
    np.testing.assert_allclose(
        np.sort(levels.energies_hz), [-35e6, -35e6, 35e6, 35e6], atol=1.0
    )


def test_zero_field_bright_lines_sit_at_zfs():
    # The dark pair is degenerate at zero field, so every line left in the
    # radio-frequency range must sit on the zero-field splitting.
    params = SpinParams()
    levels = eigenlevels(build_hamiltonian(params, FieldVector(0, 0, 0)))
    lines = transitions(levels)
    bright = [
        ln
        for ln in lines
        if ln.rel_strength > 1e-6 and ln.frequency_hz > 1e3
    ]
    assert bright
    for ln in bright:
        assert ln.frequency_hz == pytest.approx(ZFS, abs=1e3)


def test_axial_one_millitesla_branch_frequencies():
    # Closed forms: nu1 = zfs - gamma B, nu2 = zfs + gamma B, dark = gamma B.
    by_label = axial_scene(1e-3)
    gb = GAMMA_DEFAULT * 1e-3
    assert by_label["nu1"].frequency_hz == pytest.approx(ZFS - gb, abs=1e3)
    assert by_label["nu2"].frequency_hz == pytest.approx(ZFS + gb, abs=1e3)
    assert by_label["dark"].frequency_hz == pytest.approx(gb, abs=1e3)
    assert by_label["m2_minus"].frequency_hz == pytest.approx(
        abs(ZFS - 2 * gb), abs=1e3
    )
    assert by_label["m2_plus"].frequency_hz == pytest.approx(ZFS + 2 * gb, abs=1e3)


def test_axial_branch_slopes_against_field():
    b1, b2 = 0.4e-3, 0.9e-3
    lines1 = axial_scene(b1)
    lines2 = axial_scene(b2)
    db = b2 - b1
    slope = {
        label: (lines2[label].frequency_hz - lines1[label].frequency_hz) / db
        for label in ("nu1", "nu2", "dark")
    }
    assert slope["nu1"] == pytest.approx(-GAMMA_DEFAULT, rel=1e-6)
    assert slope["nu2"] == pytest.approx(+GAMMA_DEFAULT, rel=1e-6)
    assert slope["dark"] == pytest.approx(+GAMMA_DEFAULT, rel=1e-6)
    # Each line's own slope, gamma * delta_sz, is exact at axial field.
    for label, sign in (("nu1", -1.0), ("nu2", 1.0), ("dark", 1.0)):
        for lines in (lines1, lines2):
            assert lines[label].delta_sz == pytest.approx(sign, rel=1e-15, abs=0)


def test_axial_frequencies_match_eigensolver_route():
    params = SpinParams()
    for bz in (0.1e-3, 0.7e-3, 2.5e-3):
        closed = axial_frequencies(params, bz)
        assert isinstance(closed, AxialFrequencies)
        by_label = axial_scene(bz, params)
        assert by_label["nu1"].frequency_hz == pytest.approx(
            closed.nu1_hz, rel=1e-9
        )
        assert by_label["nu2"].frequency_hz == pytest.approx(
            closed.nu2_hz, rel=1e-9
        )
        assert by_label["dark"].frequency_hz == pytest.approx(
            closed.dark_hz, rel=1e-9
        )


def test_level_crossing_field_value_and_degeneracy():
    params = SpinParams()
    crossing = level_crossing_field(params)
    assert crossing == pytest.approx(ZFS / (2 * GAMMA_DEFAULT), rel=1e-8)
    assert crossing == pytest.approx(1.2483e-3, rel=1e-4)
    levels = eigenlevels(
        build_hamiltonian(params, FieldVector(0.0, 0.0, crossing))
    )
    gaps = np.diff(np.sort(levels.energies_hz))
    assert gaps.min() == pytest.approx(0.0, abs=1.0)
    # At the crossing the two-quantum difference line reaches zero while
    # the single-quantum branches sit at half the zero-field splitting.
    by_label = axial_scene(crossing, params)
    assert by_label["m2_minus"].frequency_hz == pytest.approx(0.0, abs=1.0)
    assert by_label["nu1"].frequency_hz == pytest.approx(0.5 * ZFS, abs=1e3)


def test_level_crossing_moves_with_g_factor():
    params = SpinParams(g_factor=2.0)
    assert level_crossing_field(params) == pytest.approx(
        35e6 / (2.0 * 13.996244917e9), rel=1e-8
    )


def test_relative_strengths_at_axial_field():
    by_label = axial_scene(1e-3)
    assert by_label["nu1"].rel_strength == pytest.approx(1.0, abs=1e-9)
    assert by_label["nu2"].rel_strength == pytest.approx(1.0, abs=1e-9)
    assert by_label["dark"].rel_strength == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert by_label["m2_minus"].rel_strength == pytest.approx(0.0, abs=1e-9)
    assert by_label["m2_plus"].rel_strength == pytest.approx(0.0, abs=1e-9)


def test_tilted_field_activates_double_quantum_lines():
    params = SpinParams()
    tilt = FieldVector(0.15e-3, 0.0, 1e-3)
    levels = eigenlevels(build_hamiltonian(params, tilt))
    by_label = {ln.label: ln for ln in transitions(levels)}
    assert by_label["m2_minus"].rel_strength > 1e-4
    assert by_label["m2_plus"].rel_strength > 1e-4
    # Single-quantum lines stay near unit strength for a small tilt.
    assert by_label["nu1"].rel_strength == pytest.approx(1.0, abs=0.1)
    assert by_label["nu2"].rel_strength == pytest.approx(1.0, abs=0.1)


def test_eigenvalue_invariants_for_random_fields():
    # trace(H) = 0 and sum(e^2) = zfs^2 + 5 gamma^2 |B|^2, both derived
    # directly from the operator definition.
    params = SpinParams()
    gamma = gyromagnetic_ratio(params.g_factor)
    rng = np.random.default_rng(42)
    for _ in range(25):
        b = rng.uniform(-2e-3, 2e-3, size=3)
        levels = eigenlevels(
            build_hamiltonian(params, FieldVector(b[0], b[1], b[2]))
        )
        e = levels.energies_hz
        assert np.sum(e) == pytest.approx(0.0, abs=1e-2)
        expected_sq = params.zfs_hz**2 + 5.0 * gamma**2 * float(b @ b)
        assert np.sum(e**2) == pytest.approx(expected_sq, rel=1e-10)


def test_field_vector_magnitude_limit():
    with pytest.raises(FieldOutOfRange):
        FieldVector(0.0, 0.0, 0.11)
    with pytest.raises(FieldOutOfRange):
        FieldVector(0.08, 0.08, 0.0)
    ok = FieldVector(0.0, 0.0, 0.1)
    assert ok.magnitude_t() == pytest.approx(0.1)


def test_spin_params_validation():
    with pytest.raises(ValueError):
        SpinParams(zfs_hz=0.0)
    with pytest.raises(ValueError):
        SpinParams(g_factor=1.5)
    with pytest.raises(ValueError):
        SpinParams(hyperfine_rel_amp=1.5)


def test_eigenlevels_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenlevels(np.eye(3))
    h = build_hamiltonian(SpinParams(), FieldVector(0, 0, 1e-3))
    h = h.copy()
    h[0, 1] = 1e9
    with pytest.raises(ValueError):
        eigenlevels(h)


def test_eigenlevels_residual_guard(monkeypatch):
    import odmrsim.spin_model as sm

    def fake_eigh(_):
        return np.zeros(4), np.eye(4)

    monkeypatch.setattr(sm.np.linalg, "eigh", fake_eigh)
    with pytest.raises(ConvergenceFailure):
        sm.eigenlevels(sm.build_hamiltonian(SpinParams(), FieldVector(0, 0, 1e-3)))


def per_field_rows(params, field, bz_values):
    """The scan table the slow way: one eigenlevels + transitions per field."""
    rows = []
    for k, bz in enumerate(bz_values):
        levels = eigenlevels(build_hamiltonian(params, replace(field, bz_t=bz)))
        rows += [
            (
                k,
                ln.label,
                ln.lower_m,
                ln.upper_m,
                ln.frequency_hz,
                ln.rel_strength,
                ln.delta_sz,
            )
            for ln in transitions(levels)
        ]
    return rows


CROSSING = level_crossing_field(SpinParams())


@pytest.mark.parametrize(
    "field, bz_values",
    [
        (FieldVector(0.0, 0.0, 0.0), np.linspace(0.0, 3e-3, 61)),
        (FieldVector(3e-4, -1e-4, 0.0), np.linspace(-2e-3, 3e-3, 601)),
        (FieldVector(0.0, 0.0, 0.0), np.zeros(3)),
        (
            FieldVector(0.0, 0.0, 0.0),
            CROSSING * np.array([0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 1.5]),
        ),
        (FieldVector(1e-5, 0.0, 0.0), CROSSING * np.array([0.999, 1.0, 1.001])),
        # The shipped scan's range at 600 fields in a 0.3 mT transverse
        # field: three blocks of _SCAN_BLOCK (256) fields, the last partial.
        (FieldVector(3e-4, 0.0, 0.0), np.linspace(0.0, 3e-3, 600)),
        (FieldVector(), np.zeros(0)),
    ],
    ids=[
        "axial",
        "tilted",
        "zero_field",
        "axial_crossing",
        "tilted_crossing",
        "tilted_three_blocks",
        "no_fields",
    ],
)
def test_scan_matches_per_field_solves(field, bz_values):
    params = SpinParams()
    t = scan_transitions(params, field, bz_values)
    got = list(
        zip(
            t.field_index.tolist(),
            t.label.tolist(),
            t.lower_m.tolist(),
            t.upper_m.tolist(),
            t.frequency_hz.tolist(),
            t.rel_strength.tolist(),
            t.delta_sz.tolist(),
        )
    )
    assert got == per_field_rows(params, field, bz_values)


def test_scan_rejects_out_of_range_field_before_solving(monkeypatch):
    import odmrsim.spin_model as sm

    def no_solve(_):
        raise AssertionError("solved an out-of-range scan")

    monkeypatch.setattr(sm.np.linalg, "eigh", no_solve)
    with pytest.raises(FieldOutOfRange):
        scan_transitions(SpinParams(), FieldVector(), np.linspace(0.0, 0.2, 5))
    # The transverse field counts: |B| = hypot(0.08, 0.07) T at the scan end.
    with pytest.raises(FieldOutOfRange):
        scan_transitions(
            SpinParams(), FieldVector(0.08, 0.0, 0.0), np.linspace(0.0, 0.07, 5)
        )


def test_scan_residual_guard_fires_for_one_bad_field(monkeypatch):
    import odmrsim.spin_model as sm

    real_eigh = np.linalg.eigh

    def one_bad_field(h):
        energies, states = real_eigh(h)
        states = states.copy()
        states[len(states) // 2] = np.eye(4)
        return energies, states

    monkeypatch.setattr(sm.np.linalg, "eigh", one_bad_field)
    with pytest.raises(ConvergenceFailure):
        scan_transitions(
            SpinParams(), FieldVector(3e-4, 0.0, 0.0), np.linspace(0.0, 1e-3, 9)
        )
