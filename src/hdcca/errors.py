"""Exception hierarchy shared by all hdcca modules."""


class HdccaError(Exception):
    """Base class for all hdcca errors."""


# --- linear-algebra / CCA errors ---


class DimensionMismatch(HdccaError, ValueError):
    """Panel shapes are incompatible (e.g. observation counts differ)."""


class TooFewObservations(HdccaError, ValueError):
    """K + M > S: the subspaces intersect and unit correlations are forced."""


class RankDeficient(HdccaError):
    """A Gram matrix is singular within tolerance; the data is degenerate."""


class SingularCovariance(HdccaError):
    """A population covariance block is not invertible."""


class ZeroImage(HdccaError, ValueError):
    """A coefficient vector maps to the zero vector under the data panel."""


class ClippingError(HdccaError):
    """A computed eigenvalue lies outside [0, 1] beyond the clipping band."""


# --- ensemble / density errors ---


class ParameterRange(HdccaError, ValueError):
    """Ensemble parameters outside the range where the operation is valid."""


# --- limit-law errors ---


class InvalidParams(HdccaError, ValueError):
    """Limit-distribution parameters violate their validity constraints."""


class PoleOrBranchCut(HdccaError, ValueError):
    """Stieltjes transform evaluated on its branch cut or at a pole."""


class DegenerateLowerEdge(HdccaError):
    """Lower spectral edge sits at 0, so its edge constant is undefined."""


# --- spike errors ---


class Subcritical(HdccaError, ValueError):
    """Signal strength below the detectability threshold."""


class BelowEdge(HdccaError, ValueError):
    """Outlier location does not exceed the upper edge of the bulk."""


class AboveOne(HdccaError):
    """Inversion implies a squared correlation above 1; data inconsistent
    with the signal-plus-noise model (reported, never silently clipped)."""


# --- test / table errors ---


class TableMismatch(HdccaError, ValueError):
    """Quantile table does not match the requested statistic or parameters."""


class InvalidRegime(HdccaError, ValueError):
    """Dimensions outside the asymptotic regime the test is calibrated for."""


class UnitCorrelation(HdccaError):
    """A squared correlation is numerically 1, so log(1 - x) diverges."""


# --- input / CLI errors ---


class InputFormatError(HdccaError, ValueError):
    """Malformed input file; message carries the offending line number."""


class NoSuchExport(HdccaError, AttributeError):
    """The package exports no such name (an AttributeError, so ``hasattr`` and ``from hdcca import`` work)."""
