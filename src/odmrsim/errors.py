"""Exception types shared across the package.

Grouped by the stage of the pipeline that raises them.  Everything derives
from OdmrError so callers can catch domain failures with one clause; file
format and schema problems derive from FormatError so the CLI can map them
to a distinct exit code.
"""


class OdmrError(Exception):
    """Base class for all domain errors raised by this package."""


# spin model


class FieldOutOfRange(OdmrError):
    """Magnetic field magnitude outside the supported range."""


class ConvergenceFailure(OdmrError):
    """Eigensolver result failed its residual check."""


# lineshape


class EmptyTransitionList(OdmrError):
    """Spectrum synthesis was asked to render zero transition lines."""


# signal chain


class SampleRateMismatch(OdmrError):
    """Time series sample rate disagrees with the lock-in configuration."""


class DeviationTooLarge(OdmrError):
    """FM deviation is too large relative to the resonance linewidth."""


# analysis


class NoPeakFound(OdmrError):
    """Fit found no resonance, or one whose covariance is singular."""


class NonConvergence(OdmrError):
    """Iterative fit did not converge within the iteration budget."""


class ZeroDC(OdmrError):
    """Contrast normalisation needs a positive DC voltage."""


class NonPositiveInput(OdmrError):
    """Sensitivity inputs (linewidth, contrast, rate) must be positive."""


class EmptyGrid(OdmrError):
    """Sensitivity map construction received no grid cells."""


class ScheduleMismatch(OdmrError):
    """Field time series does not cover the step schedule."""


# file formats


class FormatError(OdmrError):
    """Base class for file format and schema errors."""


class MalformedHeader(FormatError):
    """CSV header line does not match the required column set."""


class NonMonotoneAxis(FormatError):
    """Sweep frequency axis is not strictly increasing."""


class NonNumericCell(FormatError):
    """CSV data cell could not be parsed as a number."""


class SchemaViolation(FormatError):
    """Configuration document violates the schema."""


class IoFailure(FormatError):
    """Underlying file could not be read or written."""
