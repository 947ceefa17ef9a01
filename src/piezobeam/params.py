"""Physical parameters, derived wave constants, and stabilizability classification.

The stretching dynamics of a voltage-actuated piezoelectric beam with dynamic
magnetic effects is a pair of coupled wave equations in the longitudinal
displacement ``v`` and the total electric charge ``p``.  The pair supports two
wave families with reciprocal speeds ``zeta1 >= zeta2 > 0``; the arithmetic of
the ratio ``zeta2/zeta1`` (irrational, odd/odd rational, or mixed-parity
rational) decides whether electrical feedback through the electrodes can
stabilize the beam strongly, exponentially, or not at all.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

from .errors import CflViolation, DegenerateCoupling, InvalidBudget, MalformedValue, NonPositiveParameter

__all__ = [
    "BeamParameters",
    "DerivedConstants",
    "StabilityClass",
    "Approximant",
    "StabilityReport",
    "derive_constants",
    "classify_stability",
    "parameters_for_ratio",
]

@dataclass(frozen=True)
class BeamParameters:
    """Material and geometric constants of the beam.

    Attributes
    ----------
    rho : float
        Mass density per unit volume.
    alpha1 : float
        Elastic stiffness.
    beta : float
        Impermittivity (reciprocal permittivity in the polarization direction).
    gamma : float
        Piezoelectric coupling coefficient.
    mu : float
        Magnetic permeability.
    length : float
        Beam length.
    thickness : float
        Beam thickness.  A thin beam (``thickness << length``) is assumed by
        the model but not enforced.

    All fields must be finite and > 0 (``gamma`` and ``mu`` > 0 couple the two
    wave fields); each is checked by its config key's rule at construction (and
    so by ``dataclasses.replace``), and no computation checks an instance again.
    """

    rho: float
    alpha1: float
    beta: float
    gamma: float
    mu: float
    length: float = 1.0
    thickness: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise for the first field, in field order, that :func:`_check_option` rejects."""
        for name in _FIELD_NAMES:
            _check_option(name, getattr(self, name))


_FIELD_NAMES = tuple(f.name for f in fields(BeamParameters))
MIN_CELLS = 16  # the fewest grid cells a time-domain run takes (the key N)
_LEAST = {"J": 1, "N": MIN_CELLS, "qmax": 1}  # the integer run options and their least values
_OPEN = {"cfl": (0.0, 1.0, "lie in (0, 1)"), "k": (-math.inf, math.inf, "be a finite number")}
_POSITIVE = (0.0, math.inf, "be finite and > 0")  # the range of every other float option
_RANGE_ERROR = {"cfl": CflViolation, "qmax": InvalidBudget, "tol": InvalidBudget}


def _integral(value) -> bool:
    """Whether ``value`` is a ``numbers.Integral`` but not a ``bool`` (an exact int skips the ABC)."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _check_integer(value, name: str, minimum: int = 1, error: type[Exception] = NonPositiveParameter) -> None:
    """The rule for every integer argument ``name``: a value that is not a ``numbers.Integral``
    (any float, even ``2.0``, or a ``bool``) raises :class:`MalformedValue`, one < ``minimum``
    raises ``error``."""
    if not (_integral(value) and value >= minimum):
        error = error if _integral(value) else MalformedValue
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_option(key: str, value, where: str = "") -> None:
    """Raise unless ``value`` suits the run option ``key``: one rule for a config line, a
    CLI flag and a library call.  ``J``, ``N``, ``qmax`` take integers >= 1, :data:`MIN_CELLS`,
    1 (:func:`_check_integer`); ``cfl`` lies in (0, 1), ``k`` is finite and the rest are finite
    and > 0.  A value not finite or not an integer raises :class:`MalformedValue`,
    ``gamma = 0`` :class:`DegenerateCoupling` and one out of range :data:`_RANGE_ERROR`
    or :class:`NonPositiveParameter`; the message names ``key`` after ``where`` (``--N``).
    """
    name = f"{where}: {key}" if where else key
    if key in _LEAST:
        return _check_integer(value, name, _LEAST[key], _RANGE_ERROR.get(key, NonPositiveParameter))
    low, high, rule = _OPEN.get(key, _POSITIVE)
    if low < value < high:
        return
    if key == "gamma" and value == 0:
        raise DegenerateCoupling(f"{name} = 0 decouples the displacement and charge waves")
    malformed = not -math.inf < value < math.inf
    error = MalformedValue if malformed else _RANGE_ERROR.get(key, NonPositiveParameter)
    raise error(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class DerivedConstants:
    """Spectral constants derived from :class:`BeamParameters`.

    ``alpha = alpha1 + gamma**2 * beta`` is the open-circuit stiffness,
    ``zeta1 >= zeta2 > 0`` are the reciprocal speeds of the two wave families,
    and ``b1 > 0 > b2`` are the modal mixing coefficients that tie the charge
    component to the displacement component in each family.  They satisfy
    ``b1 * b2 = -rho / mu`` and
    ``rho + bk**2 * mu = zetak**2 * (alpha1 + beta * (gamma - bk)**2)``.
    """

    alpha: float
    zeta1: float
    zeta2: float
    b1: float
    b2: float

    @property
    def ratio(self) -> float:
        """Wave-speed ratio ``zeta2 / zeta1`` in (0, 1]."""
        return self.zeta2 / self.zeta1


def derive_constants(params: BeamParameters) -> DerivedConstants:
    """Compute the spectral constants of the coupled stretching system.

    ``zeta1**2`` and ``zeta2**2`` are the roots of

        z**2 - (gamma**2*mu/alpha1 + mu/beta + rho/alpha1) * z
             + rho*mu/(beta*alpha1) = 0,

    evaluated with the cancellation-free discriminant
    ``(gamma**2*mu/alpha1 + mu/beta - rho/alpha1)**2 + 4*rho*gamma**2*mu/alpha1**2``
    and the product identity for the small root.  ``b1`` comes from
    ``(alpha1*zeta1**2 - rho)/(gamma*mu)`` and ``b2`` from the exact relation
    ``b1*b2 = -rho/mu``.

    ``params`` is valid by construction: ``gamma == 0``, where the equations decouple
    and b1, b2 are undefined, raises :class:`DegenerateCoupling` as it is built.
    """
    rho, a1, beta, gamma, mu = (
        params.rho,
        params.alpha1,
        params.beta,
        params.gamma,
        params.mu,
    )
    trace = gamma**2 * mu / a1 + mu / beta + rho / a1
    det = rho * mu / (beta * a1)
    disc = math.sqrt(
        (gamma**2 * mu / a1 + mu / beta - rho / a1) ** 2
        + 4 * rho * gamma**2 * mu / a1**2
    )
    z1 = 0.5 * (trace + disc)
    z2 = det / z1
    b1 = (a1 * z1 - rho) / (gamma * mu)
    b2 = -rho / (mu * b1)
    return DerivedConstants(
        alpha=a1 + gamma**2 * beta,
        zeta1=math.sqrt(z1),
        zeta2=math.sqrt(z2),
        b1=b1,
        b2=b2,
    )


class StabilityClass(str, Enum):
    """Stabilizability of the beam under electrical (current) feedback."""

    NOT_STRONGLY_STABLE = "NOT_STRONGLY_STABLE"
    STRONGLY_STABLE_NOT_EXP = "STRONGLY_STABLE_NOT_EXP"
    EXPONENTIALLY_STABLE = "EXPONENTIALLY_STABLE"


@dataclass(frozen=True)
class Approximant:
    """Best rational approximation ``p/q`` found for the speed ratio."""

    p: int
    q: int
    error: float


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the rational-resonance search on ``zeta2/zeta1``.

    ``approximant`` is present exactly when a fraction with denominator at
    most ``qmax`` matches the ratio within ``tol``.  For the mixed-parity
    (exponentially stable) case ``gap`` is the uniform spectral gap of the
    eigenfrequency family and ``min_time`` the observation time ``2*pi/gap``
    beyond which the output observes the full state energy.
    """

    ratio: float
    classification: StabilityClass
    approximant: Approximant | None
    gap: float | None
    min_time: float | None
    qmax: int
    tol: float


def _mixed_parity_gap(dc: DerivedConstants, q: int, length: float) -> float:
    """Uniform gap ``(pi/length) * min(1/zeta1, 1/zeta2, 1/(2*zeta2*q))`` of the
    eigenfrequencies when ``zeta2/zeta1 = p/q`` has mixed parity."""
    return (math.pi / length) * min(1.0 / dc.zeta1, 1.0 / dc.zeta2, 1.0 / (2.0 * dc.zeta2 * q))


def classify_stability(
    dc: DerivedConstants,
    qmax: int = 10_000,
    tol: float = 1e-9,
    length: float = 1.0,
) -> StabilityReport:
    """Classify stabilizability from the arithmetic of ``zeta2/zeta1``.

    Every float is rational, so "irrational" here means: no fraction ``p/q``
    with ``q <= qmax`` lies within ``tol`` of the ratio.  The best candidate
    is found through continued-fraction convergents and semiconvergents
    (``fractions.Fraction.limit_denominator``).  If a match is found it is
    classified by the parity of the reduced ``(p, q)``:

    * both odd: an eigenvalue of the damped generator sits on the imaginary
      axis, so the feedback does not even stabilize strongly;
    * exactly one even: the eigenfrequencies keep a uniform gap
      ``gap = (pi/length) * min(1/zeta1, 1/zeta2, 1/(2*zeta2*q))`` and the
      closed loop is exponentially stable, with observation time
      ``min_time = 2*pi/gap``.

    With no match the closed loop is strongly but not exponentially stable.
    ``qmax < 1`` or ``tol <= 0`` raises :class:`InvalidBudget` (:func:`_check_option`).
    """
    _check_option("qmax", qmax)
    _check_option("tol", tol)
    ratio = dc.ratio
    frac = Fraction(ratio).limit_denominator(qmax)
    p, q = frac.numerator, frac.denominator
    err = abs(ratio - float(frac))
    approximant, gap = None, None
    if err > tol or p < 1:
        classification = StabilityClass.STRONGLY_STABLE_NOT_EXP
    else:
        approximant = Approximant(p=p, q=q, error=err)
        if p % 2 == 1 and q % 2 == 1:
            classification = StabilityClass.NOT_STRONGLY_STABLE
        else:
            classification = StabilityClass.EXPONENTIALLY_STABLE
            gap = _mixed_parity_gap(dc, q, length)
    return StabilityReport(
        ratio=ratio,
        classification=classification,
        approximant=approximant,
        gap=gap,
        min_time=None if gap is None else 2.0 * math.pi / gap,
        qmax=qmax,
        tol=tol,
    )


def parameters_for_ratio(ratio: float, length: float = 1.0, thickness: float = 1.0) -> BeamParameters:
    """Build unit-density parameters whose wave-speed ratio is exactly ``ratio``.

    With ``rho = alpha1 = beta = mu = 1`` the characteristic roots satisfy
    ``zeta1**2 * zeta2**2 = 1`` and ``zeta1**2 + zeta2**2 = gamma**2 + 2``,
    so ``gamma = (1 - ratio)/sqrt(ratio)`` pins ``zeta2/zeta1 = ratio``.
    Handy for constructing resonant (odd/odd) and mixed-parity test cases.
    """
    if not 0 < ratio < 1:
        raise NonPositiveParameter(f"ratio must lie in (0, 1), got {ratio}")
    gamma = (1.0 - ratio) / math.sqrt(ratio)
    return BeamParameters(
        rho=1.0,
        alpha1=1.0,
        beta=1.0,
        gamma=gamma,
        mu=1.0,
        length=length,
        thickness=thickness,
    )
