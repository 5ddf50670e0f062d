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
from dataclasses import dataclass

import numpy as np
from scipy.constants import physical_constants

from .errors import ConvergenceFailure, FieldOutOfRange

MU_B_OVER_H = physical_constants["Bohr magneton in Hz/T"][0]

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

ALL_CLASSES = frozenset(("nu1", "nu2", "dark", "m2_plus", "m2_minus"))


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
    docstring.  rel_strength is dimensionless, >= 0.
    """

    label: str
    lower_m: float
    upper_m: float
    frequency_hz: float
    rel_strength: float


@dataclass(frozen=True)
class AxialFrequencies:
    """Closed-form line positions for B parallel to the symmetry axis."""

    nu1_hz: float
    nu2_hz: float
    dark_hz: float


def gyromagnetic_ratio(g_factor: float = G_FACTOR) -> float:
    """Gyromagnetic ratio g * mu_B / h in Hz/T."""
    return g_factor * MU_B_OVER_H


def build_hamiltonian(params: SpinParams, field: FieldVector) -> np.ndarray:
    """4x4 Hermitian spin Hamiltonian divided by h, in Hz.

    H/h = (zfs/2) (Sz^2 - 5/4 I) + gamma (Bx Sx + By Sy + Bz Sz).  At zero
    field the diagonal is (+zfs/2, -zfs/2, -zfs/2, +zfs/2) so the doublet
    gap equals zfs_hz.
    """
    if field.magnitude_t() > MAX_FIELD_T:
        raise FieldOutOfRange(f"|B| exceeds {MAX_FIELD_T} T")
    gamma = gyromagnetic_ratio(params.g_factor)
    h = 0.5 * params.zfs_hz * (_SZ @ _SZ - 1.25 * np.eye(4))
    h = h + gamma * (field.bx_t * _SX + field.by_t * _SY + field.bz_t * _SZ)
    return h


def eigenlevels(hamiltonian_hz: np.ndarray) -> LevelSet:
    """Diagonalise a 4x4 Hermitian Hamiltonian.

    Raises ConvergenceFailure when the eigenpair residual exceeds
    1e-8 * ||H||, and ValueError for a non-Hermitian input.
    """
    h = np.asarray(hamiltonian_hz, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    scale = np.linalg.norm(h, 2)
    if scale > 0 and np.linalg.norm(h - h.conj().T, 2) > 1e-12 * scale:
        raise ValueError("Hamiltonian is not Hermitian")
    energies, states = np.linalg.eigh(h)
    residual = np.linalg.norm(h @ states - states @ np.diag(energies), 2)
    if residual > 1e-8 * max(scale, 1.0):
        raise ConvergenceFailure(
            f"eigenpair residual {residual:.3g} exceeds tolerance"
        )
    dominant = tuple(M_VALUES[int(k)] for k in np.argmax(np.abs(states), axis=0))
    return LevelSet(energies_hz=energies.real, states=states, dominant_m=dominant)


def transitions(
    levels: LevelSet,
    params: SpinParams,
    classes: frozenset[str] | set[str] | None = None,
    include_hyperfine: bool = False,
    satellite_parents: tuple[str, ...] = ("nu2",),
) -> list[TransitionLine]:
    """List transition lines between eigenlevels for the requested classes.

    Args:
        levels: output of eigenlevels().
        params: spin parameters (used for the hyperfine satellites).
        classes: subset of {"nu1", "nu2", "dark", "m2_plus", "m2_minus"};
            None selects all of them.
        include_hyperfine: append satellite lines at +-hyperfine_offset_hz
            around each parent named in satellite_parents, with amplitude
            hyperfine_rel_amp relative to the parent.
        satellite_parents: parent labels that receive satellites.

    The dark transition's strength is computed from the eigenvectors, not
    assumed zero.  At exact axial field the |delta m| = 2 lines have zero
    strength; they grow continuously as the field tilts.
    """
    if classes is None:
        classes = ALL_CLASSES
    unknown = set(classes) - set(ALL_CLASSES)
    if unknown:
        raise ValueError(f"unknown transition classes: {sorted(unknown)}")

    lines: list[TransitionLine] = []
    for i in range(4):
        for j in range(i + 1, 4):
            # Mirror m -> -m to express labels in the plotting convention.
            mu_i = -levels.dominant_m[i]
            mu_j = -levels.dominant_m[j]
            label = _LABEL_BY_M_PAIR.get(frozenset((mu_i, mu_j)))
            if label is None or label not in classes:
                continue
            amp = levels.states[:, j].conj() @ _SX @ levels.states[:, i]
            strength = float(np.abs(amp) ** 2) / _NU_LINE_SX2
            freq = float(abs(levels.energies_hz[j] - levels.energies_hz[i]))
            lines.append(
                TransitionLine(
                    label=label,
                    lower_m=mu_i,
                    upper_m=mu_j,
                    frequency_hz=freq,
                    rel_strength=strength,
                )
            )

    if include_hyperfine and params.hyperfine_rel_amp > 0:
        satellites: list[TransitionLine] = []
        for parent in lines:
            if parent.label not in satellite_parents:
                continue
            for sign, tag in ((+1.0, "sat_plus"), (-1.0, "sat_minus")):
                freq = parent.frequency_hz + sign * params.hyperfine_offset_hz
                if freq <= 0:
                    continue
                satellites.append(
                    TransitionLine(
                        label=f"{parent.label}_{tag}",
                        lower_m=parent.lower_m,
                        upper_m=parent.upper_m,
                        frequency_hz=freq,
                        rel_strength=parent.rel_strength * params.hyperfine_rel_amp,
                    )
                )
        lines.extend(satellites)

    lines.sort(key=lambda ln: (ln.frequency_hz, ln.label))
    return lines


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
