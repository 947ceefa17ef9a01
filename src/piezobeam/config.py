"""Line-based ``key = value`` run configuration.

Seven physical keys are required (rho, alpha1, beta, gamma, mu, length,
thickness); numeric options are optional, defaulting to the fields of
:class:`RunConfig`.  Comments
start with ``#``.  Parsing validates everything before any computation and
reports the offending line in every error: every number must be finite, the
physical keys and ``T``, ``sample_dt``, ``tol`` positive, ``J`` and
``qmax`` at least 1, ``N`` at least :data:`MIN_CELLS`, ``cfl`` inside
(0, 1), and, when no ``k`` is given, the default gain ``1/(2*thickness)``
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CflViolation, DuplicateKey, MalformedValue, MissingKey, NonPositiveParameter
from .params import BeamParameters, _FIELD_NAMES as PHYSICAL_KEYS

__all__ = ["RunConfig", "parse_config", "load_config"]

INT_KEYS = ("J", "N", "qmax")
FLOAT_KEYS = ("T", "k", "cfl", "sample_dt", "tol")
POSITIVE_KEYS = PHYSICAL_KEYS + ("T", "sample_dt", "tol")
MIN_CELLS = 16  # the fewest grid cells a time-domain run takes (the key N)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: beam parameters plus numeric options.

    ``k = None`` (the default) stands for the gain ``1/(2*thickness)``, which
    :func:`piezobeam.timedomain.simulate` resolves for the beam it runs; such
    a matched gain follows the thickness of each point of a sweep, while a
    given ``k`` stays fixed at every point.
    """

    params: BeamParameters
    J: int = 64
    n: int = 2048  # the key N
    T: float = 10.0
    k: float | None = None
    cfl: float = 0.9
    sample_dt: float = 0.05
    qmax: int = 10_000
    tol: float = 1e-9


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`MissingKey`, :class:`DuplicateKey`, :class:`MalformedValue`
    (not a finite number, not an integer, or a ``thickness`` so small that
    the default ``k`` overflows), :class:`NonPositiveParameter` (``N``
    below :data:`MIN_CELLS` too) or :class:`CflViolation` (``cfl`` outside
    (0, 1)); messages carry the line number.
    """
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PHYSICAL_KEYS + INT_KEYS + FLOAT_KEYS:
            raise MalformedValue(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise DuplicateKey(f"line {lineno}: key {key!r} already set on line {entries[key][0]}")
        entries[key] = (lineno, value)

    for key in PHYSICAL_KEYS:
        if key not in entries:
            raise MissingKey(f"missing required key {key!r}")

    def as_number(key: str) -> float | int:
        lineno, value = entries[key]
        try:
            number = float(value)
        except ValueError as exc:
            raise MalformedValue(f"line {lineno}: {key} = {value!r} is not a number") from exc
        if not math.isfinite(number):
            raise MalformedValue(f"line {lineno}: {key} = {value!r} is not a finite number")
        if key in INT_KEYS:
            if number != int(number):
                raise MalformedValue(f"line {lineno}: {key} = {value!r} is not an integer")
            number = int(number)
            least = MIN_CELLS if key == "N" else 1
            if number < least:
                raise NonPositiveParameter(f"line {lineno}: {key} must be >= {least}, got {number}")
        if key in POSITIVE_KEYS and not number > 0:
            raise NonPositiveParameter(f"line {lineno}: {key} must be > 0, got {number}")
        if key == "cfl" and not 0 < number < 1:
            raise CflViolation(f"line {lineno}: cfl must lie in (0, 1), got {number}")
        return number

    params = BeamParameters(**{key: as_number(key) for key in PHYSICAL_KEYS})
    given = [key for key in INT_KEYS + FLOAT_KEYS if key in entries]
    options = {"n" if key == "N" else key: as_number(key) for key in given}
    if "k" not in options and not math.isfinite(1.0 / (2.0 * params.thickness)):
        lineno, value = entries["thickness"]
        raise MalformedValue(f"line {lineno}: thickness = {value!r} gives an infinite default k")
    return RunConfig(params=params, **options)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
