"""Line-based ``key = value`` run configuration.

Seven physical keys are required (rho, alpha1, beta, gamma, mu, length,
thickness); numeric options are optional, defaulting to the fields of
:class:`RunConfig`.  Comments start with ``#``.  Before any computation,
each value must be a finite number (an integer for ``J``, ``N``, ``qmax``)
that passes its key's rule, :func:`piezobeam.params._check_option`; every
error names the line, or the CLI flag that set the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DuplicateKey, MalformedValue, MissingKey, ValidationError
from .params import BeamParameters, _check_option, _FIELD_NAMES as PHYSICAL_KEYS, _LEAST

__all__ = ["RunConfig", "parse_config", "load_config"]

INT_KEYS = ("J", "N", "qmax")
FLOAT_KEYS = ("T", "k", "cfl", "sample_dt", "tol")


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


def _number(key: str, text: str, where: str, integer: bool = False) -> float | int:
    """``text`` as the value of ``key``: a finite number, and an ``int`` when ``integer``;
    each error starts with ``where`` (``line 8`` or ``--N``)."""
    try:
        number = float(text)
    except ValueError as exc:
        raise MalformedValue(f"{where}: {key} = {text!r} is not a number") from exc
    if not math.isfinite(number):
        raise MalformedValue(f"{where}: {key} = {text!r} is not a finite number")
    if integer:
        if number != int(number):
            raise MalformedValue(f"{where}: {key} = {text!r} is not an integer")
        number = int(number)
    return number


def _fields(given: dict[str, tuple[str, str]]) -> dict[str, float | int]:
    """The options that ``{key: (text, where)}`` sets, each read by :func:`_number`, as an
    ``int`` for an integer option of :func:`_check_option`, and checked by it; ``N`` is
    returned as ``n``, the :class:`RunConfig` field."""
    fields = {}
    for key, (text, where) in given.items():
        fields["n" if key == "N" else key] = number = _number(key, text, where, key in _LEAST)
        _check_option(key, number, where)
    return fields


def _beam(entries: dict[str, tuple[str, str]]) -> BeamParameters:
    """The beam of the seven physical entries, checked once, as it is built.

    An error names the line of the first key, in field order, that is not a
    finite number or fails its rule: a value that does not parse stands in as
    ``nan``, which the construction rejects in its turn.
    """
    values, unparsed = {}, {}
    for key in PHYSICAL_KEYS:
        try:
            values[key] = _number(key, *entries[key])
        except MalformedValue as exc:
            values[key], unparsed[key] = math.nan, exc
    try:
        return BeamParameters(**values)
    except ValidationError as exc:
        key = str(exc).split(" ", 1)[0]  # _check_option's message starts with the key
        error = unparsed.get(key) or type(exc)(f"{entries[key][1]}: {exc}")
    raise error


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`MissingKey`, :class:`DuplicateKey`, :class:`MalformedValue`
    (not a finite number, not an integer, or a ``thickness`` so small that
    the default ``k`` overflows) or what :func:`_check_option` raises for a
    value out of its key's range; messages carry the line number.
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

    params = _beam(entries)
    fields = _fields({key: entries[key] for key in INT_KEYS + FLOAT_KEYS if key in entries})
    if "k" not in fields:  # the default gain 1/(2*thickness), named at the thickness line
        _check_option("k", 1.0 / (2.0 * params.thickness), entries["thickness"][1])
    return RunConfig(params=params, **fields)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
