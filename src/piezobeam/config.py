"""Line-based ``key = value`` run configuration.

Seven physical keys are required (rho, alpha1, beta, gamma, mu, length,
thickness); numeric options are optional with documented defaults.  Comments
start with ``#``.  Parsing validates everything before any computation and
reports the offending line in every error: every number must be finite, the
physical keys and ``T``, ``sample_dt``, ``tol`` positive, ``J``, ``N``,
``qmax`` at least 1, ``cfl`` inside (0, 1), and the default gain
``k = 1/(2*thickness)`` finite.
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

DEFAULTS = {
    "J": 64,
    "N": 2048,
    "T": 10.0,
    "cfl": 0.9,
    "sample_dt": 0.05,
    "qmax": 10_000,
    "tol": 1e-9,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: beam parameters plus numeric options.

    ``k = None`` (the default) stands for the gain ``1/(2*thickness)``.
    """

    params: BeamParameters
    J: int = DEFAULTS["J"]
    n: int = DEFAULTS["N"]
    T: float = DEFAULTS["T"]
    k: float | None = None
    cfl: float = DEFAULTS["cfl"]
    sample_dt: float = DEFAULTS["sample_dt"]
    qmax: int = DEFAULTS["qmax"]
    tol: float = DEFAULTS["tol"]

    def __post_init__(self) -> None:
        if self.k is None:
            object.__setattr__(self, "k", 1.0 / (2.0 * self.params.thickness))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`MissingKey`, :class:`DuplicateKey`, :class:`MalformedValue`
    (not a finite number, not an integer, or a ``thickness`` so small that
    the default ``k`` overflows), :class:`NonPositiveParameter`
    or :class:`CflViolation` (``cfl`` outside (0, 1)); messages carry the line
    number.
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
            if number < 1:
                raise NonPositiveParameter(f"line {lineno}: {key} must be >= 1, got {number}")
        if key in POSITIVE_KEYS and not number > 0:
            raise NonPositiveParameter(f"line {lineno}: {key} must be > 0, got {number}")
        if key == "cfl" and not 0 < number < 1:
            raise CflViolation(f"line {lineno}: cfl must lie in (0, 1), got {number}")
        return number

    params = BeamParameters(**{key: as_number(key) for key in PHYSICAL_KEYS})
    options = dict(DEFAULTS)
    for key in INT_KEYS + FLOAT_KEYS:
        if key in entries:
            options[key] = as_number(key)
    cfg = RunConfig(
        params=params,
        J=options["J"],
        n=options["N"],
        T=options["T"],
        k=options.get("k"),
        cfl=options["cfl"],
        sample_dt=options["sample_dt"],
        qmax=options["qmax"],
        tol=options["tol"],
    )
    if not math.isfinite(cfg.k):  # a given k is finite, so this is the default
        lineno, value = entries["thickness"]
        raise MalformedValue(f"line {lineno}: thickness = {value!r} gives an infinite default k")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
