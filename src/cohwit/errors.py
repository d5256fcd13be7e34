"""Exception and warning types shared across the package."""


class CohwitError(ValueError):
    """Base class for every domain error raised by this package."""


class DimensionMismatchError(CohwitError):
    """Operands or documents disagree on matrix dimension."""


class NotHermitianError(CohwitError):
    """Matrix fails the Hermiticity check at the requested tolerance."""


class IndexOutOfRangeError(CohwitError):
    """Generator index outside 1..d**2-1."""


class LengthMismatchError(CohwitError):
    """Coefficient vector has the wrong length."""


class InvalidStateError(CohwitError):
    """Matrix is not a valid quantum state (trace or positivity violation)."""


class OutOfIntervalError(CohwitError):
    """Requested target value lies outside the witness interval."""


class InvalidIntervalError(CohwitError):
    """Interval endpoints are reversed."""


class NotCoherentError(CohwitError):
    """State has no off-diagonal content to build a detecting witness from."""


class ZeroOperatorError(CohwitError):
    """All qubit witness coefficients vanish."""


class DegenerateFamilyError(CohwitError):
    """A witness family is empty, or qubit pair family coefficients are
    proportional (or a pair is zero)."""


class ZeroCoefficientError(CohwitError):
    """A family coefficient is zero where a nonzero one is required."""


class NonFiniteError(CohwitError):
    """A matrix contains NaN or infinite entries, or a value computed from
    finite ones overflows."""


class InvalidParameterError(CohwitError):
    """A count, grid size, threshold or margin is outside its valid range."""


class DocumentError(CohwitError):
    """A serialized document is malformed or inconsistent."""


class NumericallyMarginalWarning(UserWarning):
    """A quantity is nonzero but too close to zero to be numerically reliable."""
