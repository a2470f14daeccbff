"""Exception hierarchy.

All library errors derive from :class:`SectorsumError` so callers can
distinguish numerical-contract failures from programming errors.  Plain
``ValueError`` is reserved for violated input contracts (wrong ranges,
missing certification); the classes below signal conditions detected
*during* a computation.
"""


class SectorsumError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(SectorsumError):
    """Operands have incompatible shapes."""


class SingularShift(SectorsumError):
    """A shifted solve (M + z) hit a pivot below the singularity threshold.

    Numerically this signals that -z is (close to) a spectral point, i.e.
    z is outside the resolvent set as far as the factorization can tell.
    """

    def __init__(self, msg, shift=None):
        super().__init__(msg)
        self.shift = shift


class OverflowRisk(SectorsumError):
    """Matrix exponential input exceeds the configured scaling budget."""


class InvalidContour(SectorsumError):
    """Contour specification violates its invariants."""


class TruncationNotConverged(SectorsumError):
    """Quadrature tail estimate exceeds the requested tolerance."""


class AsymmetryDetected(SectorsumError):
    """Principal-value kernel has a non-odd divergent part at 0."""


class NotSectorialAtAngle(SectorsumError):
    """A sampled shift inside the tested sector was not resolvable."""

    def __init__(self, msg, shift=None):
        super().__init__(msg)
        self.shift = shift


class ExtensionViolated(SectorsumError):
    """Resolvent bound failed on the disk-thickened sector enlargement."""

    def __init__(self, msg, shift=None):
        super().__init__(msg)
        self.shift = shift


class UnboundedSuspected(SectorsumError):
    """Decay probe kept growing with the sampling radius."""


class ClassViolated(SectorsumError):
    """A symbol violated its declared decay-class inequality."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


class DenominatorDegenerate(SectorsumError):
    """Witness-search denominator is numerically zero."""


class AngleOutOfRange(SectorsumError):
    """Rotation angle exceeds the admissible range fixed by the power angle."""


class BoundViolated(SectorsumError):
    """A certified inequality failed beyond the grid tolerance."""


class InvalidRecipe(SectorsumError):
    """Operator recipe has an unknown kind or bad parameters."""


class ConfigInvalid(SectorsumError):
    """Experiment configuration failed schema validation."""


class IncompatibleReports(SectorsumError):
    """Reports describe different operations and cannot be diffed."""


class ReportInvalid(SectorsumError):
    """A report file is missing, unreadable, or not a report's JSON."""
