"""Line-based ``key = value`` run configuration.

Seven physical keys are required (rho, alpha1, beta, gamma, mu, length,
thickness); numeric options are optional, defaulting to the fields of
:class:`RunConfig`.  Comments
start with ``#``.  Parsing validates everything before any computation and
reports the offending line in every error: every number must be finite, the
physical keys and ``T``, ``sample_dt``, ``tol`` positive, ``J`` and
``qmax`` at least 1, ``N`` at least :data:`MIN_CELLS`, ``cfl`` inside
(0, 1), and, when no ``k`` is given, the default gain ``1/(2*thickness)``
finite.  A CLI flag that sets a key is checked by the same rule and named
in place of the line.
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

    ``sample_dt`` samples every time-domain run of the configuration: the
    CLI's ``simulate`` and the ``decay_rate`` sweep metric both record every
    ``round(sample_dt/dt)`` steps.  ``k = None`` (the default) stands for the
    gain ``1/(2*thickness)``, which :func:`piezobeam.timedomain.simulate`
    resolves for the beam it runs; such a matched gain follows the thickness
    of each point of a sweep, while a given ``k`` stays fixed at every point.
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


def _number(key: str, text: str, where: str) -> float | int:
    """``text`` as the value of ``key``, checked by the key's rule; each error
    starts with ``where`` (``line 8`` or ``--N``)."""
    try:
        number = float(text)
    except ValueError as exc:
        raise MalformedValue(f"{where}: {key} = {text!r} is not a number") from exc
    if not math.isfinite(number):
        raise MalformedValue(f"{where}: {key} = {text!r} is not a finite number")
    if key in INT_KEYS:
        if number != int(number):
            raise MalformedValue(f"{where}: {key} = {text!r} is not an integer")
        number = int(number)
        least = MIN_CELLS if key == "N" else 1
        if number < least:
            raise NonPositiveParameter(f"{where}: {key} must be >= {least}, got {number}")
    if key in POSITIVE_KEYS and not number > 0:
        raise NonPositiveParameter(f"{where}: {key} must be > 0, got {number}")
    if key == "cfl" and not 0 < number < 1:
        raise CflViolation(f"{where}: cfl must lie in (0, 1), got {number}")
    return number


def _fields(given: dict[str, tuple[str, str]]) -> dict[str, float | int]:
    """The fields that ``{key: (text, where)}`` sets, each checked by :func:`_number`."""
    return {"n" if key == "N" else key: _number(key, *entry) for key, entry in given.items()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`MissingKey`, :class:`DuplicateKey`, :class:`MalformedValue`
    (not a finite number, not an integer, or a ``thickness`` so small that
    the default ``k`` overflows), :class:`NonPositiveParameter` (``N``
    below :data:`MIN_CELLS` too) or :class:`CflViolation` (``cfl`` outside
    (0, 1)); messages carry the line number.
    """
    keys = PHYSICAL_KEYS + INT_KEYS + FLOAT_KEYS  # in the order they are checked
    entries: dict[str, tuple[str, str]] = {}  # key -> (value, "line N")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise MalformedValue(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise DuplicateKey(f"line {lineno}: key {key!r} already set on {entries[key][1]}")
        entries[key] = (value, f"line {lineno}")

    for key in PHYSICAL_KEYS:
        if key not in entries:
            raise MissingKey(f"missing required key {key!r}")

    fields = _fields({key: entries[key] for key in keys if key in entries})
    params = BeamParameters(**{key: fields.pop(key) for key in PHYSICAL_KEYS})
    if "k" not in fields and not math.isfinite(1.0 / (2.0 * params.thickness)):
        value, where = entries["thickness"]
        raise MalformedValue(f"{where}: thickness = {value!r} gives an infinite default k")
    return RunConfig(params=params, **fields)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
