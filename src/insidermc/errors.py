"""Semantic exception hierarchy shared by every module.

Input-contract violations subclass :class:`ParameterError` (a ``ValueError``)
so callers can catch one base class; range blow-ups subclass the builtin
``OverflowError``.
"""


class ParameterError(ValueError):
    """Base class for violated input contracts."""


class _FieldError(ParameterError):
    """A named field's value breaks the subclass's ``requirement``."""

    requirement: str

    def __init__(self, field: str, value: float):
        super().__init__(f"{field} must be {self.requirement}, got {value!r}")
        self.field = field
        self.value = value

    def __reduce__(self):
        # Rebuilt from (field, value), not from the message, so that an error
        # raised in a pool process reaches the caller as itself.
        return type(self), (self.field, self.value), vars(self)


class NonPositiveError(_FieldError):
    """A field that must be strictly positive is zero or negative."""

    requirement = "> 0"


class NegativeRateError(_FieldError):
    """A rate that must be nonnegative is negative."""

    requirement = ">= 0"


class NotFiniteError(_FieldError):
    """NaN or infinite input where a finite real is required."""

    requirement = "finite"


class OutOfDomainError(ParameterError):
    """Argument outside the mathematical domain of the operation."""


class BadSampleCountError(ParameterError):
    """Monte Carlo estimators need at least two samples."""


class UnknownTraderError(ParameterError):
    """Trader tag not recognized by the estimator dispatch."""


class WealthOverflowError(OverflowError):
    """An exponent left the double-precision range; reported, never saturated."""


class IndexOverflowError(OverflowError):
    """Draw index arithmetic would exceed 2**63 - 1."""


class DegenerateEstimateError(ArithmeticError):
    """z-score requested for a zero-spread estimate that misses its reference."""


# exp(x) for x > EXP_MAX overflows IEEE doubles; anything above is an error,
# not an infinity.
EXP_MAX = 709.0
