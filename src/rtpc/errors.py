"""Error types raised by this package.

Every class carries the process exit code used by the command line tool so
that scripted callers can tell input problems from detection failures
without parsing messages. Families:

    3  file format / I-O
    4  flow extraction
    5  cardiac or respiratory event detection
    6  phase-difference analysis
    7  statistics
    8  invalid simulation config
"""


class RtpcError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


# -- file format / I-O --------------------------------------------------------

class IoFailure(RtpcError):
    """Filesystem operation failed (missing file, unwritable path, ...)."""
    exit_code = 3


class BadMagic(RtpcError):
    """File does not start with the velocity-series magic bytes."""
    exit_code = 3


class TruncatedFile(RtpcError):
    """Payload size does not match what the header promises."""
    exit_code = 3


class InvalidHeader(RtpcError):
    """Header fields violate the format invariants."""
    exit_code = 3


class NonFiniteVelocity(RtpcError):
    """Velocity payload contains NaN or infinity."""
    exit_code = 3


class NotPgm(RtpcError):
    """Mask file is not a binary (P5) PGM with maxval <= 255."""
    exit_code = 3


class DimensionMismatch(RtpcError):
    """Mask dimensions differ from the series they should apply to."""
    exit_code = 3


class ParseError(RtpcError):
    """Malformed CSV or JSON content."""
    exit_code = 3


class NonUniformSampling(RtpcError):
    """CSV time column is not uniformly spaced within tolerance."""
    exit_code = 3


class NonMonotoneTime(RtpcError):
    """CSV time column is not strictly increasing."""
    exit_code = 3


class TooShort(RtpcError):
    """Signal has too few samples for the requested operation."""
    exit_code = 3


# -- flow extraction -----------------------------------------------------------

class SeedOutsideVessel(RtpcError):
    """Seed pixel is below the segmentation threshold in every frame."""
    exit_code = 4


class EmptySegmentation(RtpcError):
    """No velocity signal near the seed to segment."""
    exit_code = 4


class InsufficientStationaryTissue(RtpcError):
    """Background band around the ROI has too few quiet pixels."""
    exit_code = 4


class GridMismatch(RtpcError):
    """Signals to be summed live on different sampling grids."""
    exit_code = 4


# -- event detection -----------------------------------------------------------

class NoCyclesFound(RtpcError):
    """No cardiac periodicity or too few cycle boundaries detected."""
    exit_code = 5


class DegenerateCycle(RtpcError):
    """Cycle boundary spans fewer than two samples."""
    exit_code = 5


class NoBreathsDetected(RtpcError):
    """Belt signal contains fewer than one full breath."""
    exit_code = 5


class NonAlternating(RtpcError):
    """Breathing extrema could not be reduced to alternating troughs/peaks."""
    exit_code = 5


# -- phase-difference analysis ---------------------------------------------------

class InsufficientCycles(RtpcError):
    """Too few valid cycles carry the requested phase label."""
    exit_code = 6


class ZeroInspiratoryValue(RtpcError):
    """An inspiratory average is zero; percentage difference undefined."""
    exit_code = 6


# -- statistics ----------------------------------------------------------------

class TooFewSamples(RtpcError):
    """Sample too small for the requested test."""
    exit_code = 7


class ZeroVariance(RtpcError):
    """All values tied in one input; rank correlation undefined."""
    exit_code = 7


class AllZeroDifferences(RtpcError):
    """Every paired difference is zero; signed-rank test undefined."""
    exit_code = 7


# -- simulation ----------------------------------------------------------------

class InvalidConfig(RtpcError):
    """Simulation config violates its invariants."""
    exit_code = 8
