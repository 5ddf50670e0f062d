"""Ground-state spin model of the negatively charged silicon vacancy in 4H-SiC.

The defect carries an S = 3/2 spin whose zero-field splitting between the
m = +-1/2 and m = +-3/2 Kramers doublets is 70 MHz.  All Hamiltonians here
are expressed in frequency units (Hz); matrices use the basis order
m = +3/2, +1/2, -1/2, -3/2.

Branch naming convention
------------------------
ODMR maps of this defect are traditionally drawn with ``nu1`` as the branch
that moves *down* with axial field and ``nu2`` as the branch that moves up,
with ``nu1`` labelled +1/2 -> +3/2 and ``nu2`` labelled -1/2 -> -3/2.  The
absolute sign of the zero-field term is not observable in a CW experiment,
so this module computes eigensystems with a positive zero-field term and
reports level labels mirrored (m -> -m) to match that plotting convention.
Transition strengths are invariant under the mirroring.

``rel_strength`` is |<f|Sx|i>|^2 normalised so the nu1/nu2 lines equal 1 at
exact axial field.  The intra-doublet -1/2 -> +1/2 ("dark") line then
carries 4/3: its RF coupling is nonzero and is reported as computed.  Its
weak appearance in real ODMR traces comes from optical pumping dynamics,
which are out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure, FieldOutOfRange

# Bohr magneton over Planck's constant in Hz/T, CODATA 2022, as a literal
# so results do not depend on any library's CODATA edition.
MU_B_OVER_H = 13996244917.1

MAX_FIELD_T = 0.1

# Electron g-factor of the silicon vacancy, the default wherever one is taken.
G_FACTOR = 2.0032

M_VALUES = (1.5, 0.5, -0.5, -1.5)

# |<m+1|Sx|m>|^2 = 3/4 for the +-1/2 -> +-3/2 lines at axial field; used to
# normalise rel_strength so those lines read 1.0.
_NU_LINE_SX2 = 0.75

_LABEL_BY_M_PAIR = {
    frozenset((0.5, 1.5)): "nu1",
    frozenset((-0.5, -1.5)): "nu2",
    frozenset((-0.5, 0.5)): "dark",
    frozenset((-0.5, 1.5)): "m2_minus",
    frozenset((0.5, -1.5)): "m2_plus",
}


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for S = 3/2 in the m = +3/2..-3/2 basis."""
    m = np.array(M_VALUES)
    sz = np.diag(m).astype(complex)
    # S+|m> = sqrt(S(S+1) - m(m+1)) |m+1>; rows are ordered m descending.
    s = 1.5
    raise_amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((4, 4), dtype=complex)
    for k, amp in enumerate(raise_amp):
        sp[k, k + 1] = amp
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


_SX, _SY, _SZ = spin_operators()


@dataclass(frozen=True)
class SpinParams:
    """Static spin parameters of the defect ensemble.

    zfs_hz is the zero-field transition frequency between the Kramers
    doublets.  hyperfine_offset_hz is the satellite offset from the parent
    line and hyperfine_rel_amp the satellite amplitude relative to it.
    """

    zfs_hz: float = 70e6
    g_factor: float = G_FACTOR
    hyperfine_offset_hz: float = 5e6
    hyperfine_rel_amp: float = 0.05

    def __post_init__(self) -> None:
        if self.zfs_hz <= 0:
            raise ValueError(f"zfs_hz must be positive, got {self.zfs_hz}")
        if not 1.9 <= self.g_factor <= 2.1:
            raise ValueError(f"g_factor {self.g_factor} outside [1.9, 2.1]")
        if self.hyperfine_offset_hz < 0:
            raise ValueError("hyperfine_offset_hz must be non-negative")
        if not 0 <= self.hyperfine_rel_amp < 1:
            raise ValueError("hyperfine_rel_amp must lie in [0, 1)")


@dataclass(frozen=True)
class FieldVector:
    """Static magnetic field in tesla, z along the defect symmetry axis.

    The default is the 1 mT axial bias the simulator runs at.
    """

    bx_t: float = 0.0
    by_t: float = 0.0
    bz_t: float = 1e-3

    def __post_init__(self) -> None:
        if self.magnitude_t() > MAX_FIELD_T:
            raise FieldOutOfRange(
                f"|B| = {self.magnitude_t():.4g} T exceeds {MAX_FIELD_T} T"
            )

    def magnitude_t(self) -> float:
        return math.hypot(self.bx_t, self.by_t, self.bz_t)


@dataclass(frozen=True)
class LevelSet:
    """Eigenlevels in Hz, ascending, with eigenvectors as columns."""

    energies_hz: np.ndarray
    states: np.ndarray
    dominant_m: tuple[float, float, float, float]


@dataclass(frozen=True)
class TransitionLine:
    """A single RF transition between two eigenlevels.

    lower_m/upper_m are the dominant spin projections of the lower and
    upper level in the plotting convention described in the module
    docstring.  rel_strength is dimensionless, >= 0.  delta_sz is
    <u|Sz|u> - <l|Sz|l> over the upper and lower eigenstates, so the line
    moves with axial field at gyromagnetic_ratio(g) * delta_sz Hz/T
    (Hellmann-Feynman; for non-degenerate levels).
    """

    label: str
    lower_m: float
    upper_m: float
    frequency_hz: float
    rel_strength: float
    delta_sz: float


@dataclass(frozen=True)
class AxialFrequencies:
    """Closed-form line positions for B parallel to the symmetry axis."""

    nu1_hz: float
    nu2_hz: float
    dark_hz: float


def gyromagnetic_ratio(g_factor: float = G_FACTOR) -> float:
    """Gyromagnetic ratio g * mu_B / h in Hz/T."""
    return g_factor * MU_B_OVER_H


def _hamiltonian_stack(
    params: SpinParams, bx_t: float, by_t: float, bz_t: np.ndarray
) -> np.ndarray:
    """(n, 4, 4) Hamiltonians, one per axial field in bz_t, in Hz."""
    gamma = gyromagnetic_ratio(params.g_factor)
    h = 0.5 * params.zfs_hz * (_SZ @ _SZ - 1.25 * np.eye(4))
    return h + gamma * (bx_t * _SX + by_t * _SY + bz_t[:, None, None] * _SZ)


def build_hamiltonian(params: SpinParams, field: FieldVector) -> np.ndarray:
    """4x4 Hermitian spin Hamiltonian divided by h, in Hz.

    H/h = (zfs/2) (Sz^2 - 5/4 I) + gamma (Bx Sx + By Sy + Bz Sz).  At zero
    field the diagonal is (+zfs/2, -zfs/2, -zfs/2, +zfs/2) so the doublet
    gap equals zfs_hz.
    """
    bz = np.array([field.bz_t], dtype=float)
    return _hamiltonian_stack(params, field.bx_t, field.by_t, bz)[0]


def _solve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalise a (n, 4, 4) stack of Hamiltonians in one call.

    Returns the ascending energies (n, 4), the eigenvectors as columns
    (n, 4, 4) and the index into M_VALUES of each level's dominant
    component (n, 4).  Raises ValueError for a non-Hermitian matrix and
    ConvergenceFailure when an eigenpair residual exceeds 1e-8 * ||H||.
    """
    scale = np.linalg.norm(h, 2, axis=(-2, -1))
    skew = np.linalg.norm(h - np.conj(np.swapaxes(h, -1, -2)), 2, axis=(-2, -1))
    if np.any((scale > 0) & (skew > 1e-12 * scale)):
        raise ValueError("Hamiltonian is not Hermitian")
    energies, states = np.linalg.eigh(h)
    residual = np.linalg.norm(
        h @ states - states * energies[..., None, :], 2, axis=(-2, -1)
    )
    failed = residual > 1e-8 * np.maximum(scale, 1.0)
    if np.any(failed):
        raise ConvergenceFailure(
            f"eigenpair residual {residual[failed][0]:.3g} exceeds tolerance"
        )
    return energies, states, np.argmax(np.abs(states), axis=-2)


def eigenlevels(hamiltonian_hz: np.ndarray) -> LevelSet:
    """Diagonalise a 4x4 Hermitian Hamiltonian.

    Raises ConvergenceFailure when the eigenpair residual exceeds
    1e-8 * ||H||, and ValueError for a non-Hermitian input.
    """
    h = np.asarray(hamiltonian_hz, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    energies, states, dominant = _solve(h[None])
    return LevelSet(
        energies_hz=energies[0],
        states=states[0],
        dominant_m=tuple(M_VALUES[k] for k in dominant[0].tolist()),
    )


@dataclass(frozen=True)
class LineTable:
    """Transition lines of a stack of fields, one row per line.

    Rows run field by field (field_index ascending); within a field they
    are sorted by (frequency_hz, label), the order transitions() returns.
    """

    field_index: np.ndarray
    label: np.ndarray
    lower_m: np.ndarray
    upper_m: np.ndarray
    frequency_hz: np.ndarray
    rel_strength: np.ndarray
    delta_sz: np.ndarray


# Fields per stacked solve of a scan.  One stack of a whole 3000-field
# scan raised peak RSS by about 4.5 MB in temporaries, and formatting a
# block's rows at a time keeps the per-row Python objects few.
_SCAN_BLOCK = 256

# Level pairs (i, j), i < j, in the order lines are listed before sorting.
_LOWER, _UPPER = np.triu_indices(4, k=1)
# Label of a line between levels whose dominant components are M_VALUES[a]
# and M_VALUES[b], in the mirrored (m -> -m) convention; "" for no line.
_PAIR_LABEL = np.array(
    [
        [_LABEL_BY_M_PAIR.get(frozenset((-a, -b)), "") for b in M_VALUES]
        for a in M_VALUES
    ]
)
_MIRRORED_M = -np.array(M_VALUES)


def _line_table(
    energies: np.ndarray, states: np.ndarray, dominant: np.ndarray
) -> LineTable:
    """Label, weigh and sort every line of a stack of eigensystems.

    The one implementation of the line rules behind transitions() and
    scan_transitions(); the arguments are the output of _solve().
    """
    lower, upper = dominant[:, _LOWER], dominant[:, _UPPER]
    label = _PAIR_LABEL[lower, upper]
    lower_m, upper_m = _MIRRORED_M[lower], _MIRRORED_M[upper]
    freq = np.abs(energies[:, _UPPER] - energies[:, _LOWER])
    sx = np.conj(np.swapaxes(states, -1, -2)) @ _SX @ states
    # pow() per element, as float ** 2 computes it; array ** 2 squares by
    # multiplication and moves the last bit of some strengths.
    strength = np.float_power(np.abs(sx[:, _UPPER, _LOWER]), 2) / _NU_LINE_SX2
    sz = np.array(M_VALUES) @ np.abs(states) ** 2  # <k|Sz|k>, Sz diagonal
    delta_sz = sz[:, _UPPER] - sz[:, _LOWER]

    # Flat indexes of each field's lines in order; the sort is stable, so
    # lines equal in frequency and label keep their listed order.
    n_lines = label.shape[-1]
    order = np.lexsort((label, freq), axis=-1)
    order = (order + n_lines * np.arange(len(order))[:, None]).ravel()
    order = order[label.ravel()[order] != ""]
    return LineTable(
        field_index=order // n_lines,
        label=label.ravel()[order],
        lower_m=lower_m.ravel()[order],
        upper_m=upper_m.ravel()[order],
        frequency_hz=freq.ravel()[order],
        rel_strength=strength.ravel()[order],
        delta_sz=delta_sz.ravel()[order],
    )


def transitions(levels: LevelSet) -> list[TransitionLine]:
    """List the lines of every class between the levels of eigenlevels().

    The classes are nu1, nu2, dark, m2_plus and m2_minus.  The dark
    transition's strength is computed from the eigenvectors, not assumed
    zero.  At exact axial field the |delta m| = 2 lines have zero
    strength; they grow continuously as the field tilts.  Lines are sorted
    by (frequency_hz, label).  Hyperfine satellites are not listed here:
    Scene.lines() adds them to the nu2 lines.
    """
    table = _line_table(
        levels.energies_hz[None],
        levels.states[None],
        np.array([[M_VALUES.index(m) for m in levels.dominant_m]]),
    )
    return [
        TransitionLine(*row)
        for row in zip(
            table.label.tolist(),
            table.lower_m.tolist(),
            table.upper_m.tolist(),
            table.frequency_hz.tolist(),
            table.rel_strength.tolist(),
            table.delta_sz.tolist(),
        )
    ]


def scan_transitions(
    params: SpinParams, field: FieldVector, bz_t: np.ndarray
) -> list[LineTable]:
    """Transition lines of every class at each axial field in bz_t.

    The transverse components come from field.  Returns one table per
    block of up to _SCAN_BLOCK consecutive fields, each solved as one stack
    with the checks of eigenlevels(); field_index counts from the start of
    the scan.  The rows match what eigenlevels() and transitions() give
    field by field.  Raises FieldOutOfRange, before any solve, when any
    field of the scan exceeds MAX_FIELD_T.
    """
    bz = np.asarray(bz_t, dtype=float).reshape(-1)
    if bz.size:
        # |B| is largest at the largest |bz|; FieldVector checks the limit.
        replace(field, bz_t=float(bz[np.argmax(np.abs(bz))]))
    tables = []
    for start in range(0, bz.size, _SCAN_BLOCK):
        block_bz = bz[start : start + _SCAN_BLOCK]
        h = _hamiltonian_stack(params, field.bx_t, field.by_t, block_bz)
        table = _line_table(*_solve(h))
        tables.append(replace(table, field_index=table.field_index + start))
    return tables


def axial_frequencies(params: SpinParams, bz_t: float) -> AxialFrequencies:
    """Closed-form line positions for a field along the symmetry axis.

    nu2 rises as zfs + gamma*B, nu1 falls as |zfs - gamma*B| and the dark
    intra-doublet line sits at gamma*B.
    """
    if abs(bz_t) > MAX_FIELD_T:
        raise FieldOutOfRange(f"|bz| exceeds {MAX_FIELD_T} T")
    gb = gyromagnetic_ratio(params.g_factor) * bz_t
    return AxialFrequencies(
        nu1_hz=abs(params.zfs_hz - gb),
        nu2_hz=params.zfs_hz + gb,
        dark_hz=abs(gb),
    )


def level_crossing_field(params: SpinParams) -> float:
    """Axial field where the falling nu1 branch meets the dark line.

    Solves zfs - gamma*B = gamma*B, i.e. B = zfs / (2 gamma).
    """
    return params.zfs_hz / (2.0 * gyromagnetic_ratio(params.g_factor))
