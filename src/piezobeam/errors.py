"""Exception hierarchy for the piezobeam package.

Two broad families: :class:`ValidationError` for inputs rejected before any
numerics run, and :class:`NumericalError` for computations that failed or
left the regime where results are trustworthy.  CLI entry points map these
to exit codes 2 and 3; a :class:`ValidationError` is also a ``ValueError``.
"""


class PiezoBeamError(Exception):
    """Base class for all piezobeam errors."""


class ValidationError(PiezoBeamError, ValueError):
    """Invalid input, rejected before computing anything; a ``ValueError``."""


class NumericalError(PiezoBeamError):
    """A numerical procedure failed or lost reliability."""


class NonPositiveParameter(ValidationError):
    """A physical parameter that must be strictly positive is not."""


class DegenerateCoupling(ValidationError):
    """Electromechanical coupling coefficient is zero; the two wave fields decouple."""


class InvalidBudget(ValidationError):
    """Search budget (denominator cap or tolerance) is not usable."""


class MissingKey(ValidationError):
    """Required configuration key absent."""


class DuplicateKey(ValidationError):
    """Configuration key given more than once."""


class MalformedValue(ValidationError):
    """A value of the wrong kind: not a number, not finite, or not an integer."""


class ParityViolation(ValidationError):
    """Numerator and denominator have the wrong parity: both odd where mixed
    parity is required, or not both odd where an odd/odd pair is."""


class NotRational(ValidationError):
    """The wave-speed ratio does not match the supplied fraction."""


class TruncationTooSmall(ValidationError):
    """Requested mode index exceeds the coefficient truncation."""


class ZeroState(ValidationError):
    """Operation undefined for the zero state."""


class CflViolation(ValidationError):
    """``cfl`` outside (0, 1), the fraction of the explicit stability bound."""


class NonPositiveEnergy(ValidationError):
    """Energy series must be strictly positive to fit a log-linear decay."""


class SingularSystem(NumericalError):
    """Discrete boundary-value system was numerically singular."""


class PoleProximity(NumericalError):
    """Evaluation point too close to a transfer-function pole."""


class QuadratureFailure(NumericalError):
    """Quadrature produced non-finite values."""


class NonFiniteState(NumericalError):
    """Time stepping produced NaN or Inf (reported with the step index)."""


class ExhaustedBudget(UserWarning):
    """Search budget ran out before the requested number of results was found."""
