"""Simulation and analysis of CW ODMR magnetometry with S=3/2 defects."""

from types import ModuleType as _ModuleType

from .errors import (
    ConvergenceFailure,
    DeviationTooLarge,
    EmptyGrid,
    EmptyTransitionList,
    FieldOutOfRange,
    FormatError,
    IoFailure,
    MalformedHeader,
    NonConvergence,
    NonMonotoneAxis,
    NonNumericCell,
    NonPositiveInput,
    NoPeakFound,
    OdmrError,
    SampleRateMismatch,
    ScheduleMismatch,
    SchemaViolation,
    ZeroDC,
)
from .spin_model import (
    AxialFrequencies,
    FieldVector,
    LevelSet,
    SpinParams,
    TransitionLine,
    axial_frequencies,
    build_hamiltonian,
    eigenlevels,
    gyromagnetic_ratio,
    level_crossing_field,
    spin_operators,
    transitions,
)
from .lineshape import (
    BroadeningModel,
    PeakShape,
    PRESETS,
    SamplePreset,
    SyntheticSpectrum,
    saturated_contrast,
    saturated_fwhm,
    synthesize_odmr,
)
from .signal_chain import (
    DetectorModel,
    FieldTimeline,
    LockInConfig,
    SQUARE_AM_GAIN,
    Scene,
    SweepPlan,
    TimeSeries,
    TrackingResult,
    fm_discriminator_slope,
    lockin_demodulate,
    simulate_am_sweep,
    simulate_fm_tracking,
)
from .analysis import (
    LorentzFit,
    SHOT_NOISE_PREFACTOR,
    analyze_steps,
    build_sensitivity_map,
    fit_lorentzian,
    map_argmin,
    odmr_contrast,
    shot_noise_sensitivity,
)
from .config import ConfigDoc, config_from_dict, load_config
from .io_formats import (
    FORMAT_VERSION,
    RunManifest,
    SweepRecord,
    load_manifest,
    load_sweep,
    verify_manifest,
    write_map_csv,
    write_run_manifest,
    write_sweep,
)

__version__ = "0.1.0"

# Every name imported above is public API; the submodules are not.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
