"""Diophantine approximants, near-unobservable states, and Ingham frame bounds.

When the wave-speed ratio ``zeta2/zeta1`` is irrational it admits odd/odd
rational approximants ``p/q`` with error O(q^-2).  Each approximant pairs one
mode of each wave family into a two-mode state whose electrode-current
output nearly cancels: the output energy over a window decays like ``q^-2``
while the state norm stays constant, so no uniform observability estimate
can hold.  For mixed-parity rational ratios the eigenfrequencies keep a
uniform gap and nonharmonic Fourier (Ingham) frame bounds apply; this module
measures both effects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ExhaustedBudget,
    InvalidBudget,
    NotRational,
    ParityViolation,
    TruncationTooSmall,
    ZeroState,
)
from .params import BeamParameters, _check_integer, _check_option, _mixed_parity_gap, derive_constants
from .spectral import (
    ModalCoefficients,
    _frequencies,
    _model,
    _snap_tolerance,
    _snapped,
    _snapped_differences,
    modal_norm_sq,
    output_energy,
    sinc_gram,
)

__all__ = [
    "OddApproximant",
    "odd_odd_approximants",
    "near_unobservable_state",
    "observability_quotient",
    "quotient_bound",
    "ingham_gap",
    "FrameBounds",
    "ingham_frame_bounds",
    "exponent_family",
]


@dataclass(frozen=True)
class OddApproximant:
    """Coprime odd/odd fraction ``p/q`` approximating a target ratio.

    ``err`` is the absolute approximation error and ``cq2 = err * q**2`` the
    quality constant; along a well-behaved sequence ``cq2`` stays bounded.
    """

    p: int
    q: int
    err: float
    cq2: float

    @property
    def exact(self) -> bool:
        return self.err == 0.0


# Odd denominators per screened block: the first block is small so that
# ladders that stop early stay cheap, later ones grow to a fixed cap.
_FIRST_BLOCK = 1 << 10
_MAX_BLOCK = 1 << 16


def _screen(zeta: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, err_lo, err_hi)``: for each odd ``q`` the odd numerators ``lo`` and ``lo + 2``
    around ``zeta * q`` and the errors ``|zeta - p/q|`` of each, coprime or not."""
    lo = 2.0 * np.floor((zeta * q - 1.0) / 2.0) + 1.0
    return lo, np.abs(zeta - lo / q), np.abs(zeta - (lo + 2.0) / q)


def _records(zeta: float, qmax: int):
    """Yield, by increasing odd ``q <= qmax``, each approximant that halves the best error."""
    odd = range(1, qmax + 1, 2)
    best = 1.0
    start, size = 0, _FIRST_BLOCK
    while start < len(odd):
        block = odd[start : start + size]
        lo, err_lo, err_hi = _screen(zeta, np.arange(block.start, block.stop, 2, dtype=float))
        err = np.minimum(err_lo, err_hi)  # a lower bound on the error of the best coprime numerator
        i = 0
        while (hits := np.flatnonzero(err[i:] < 0.5 * best)).size:
            i += int(hits[0])
            q, p, e_lo, e_hi = block[i], int(lo.item(i)), err_lo.item(i), err_hi.item(i)
            coprime = [(e, n) for e, n in ((e_lo, p), (e_hi, p + 2)) if n >= 1 and math.gcd(n, q) == 1]
            if coprime and (pick := min(coprime))[0] < 0.5 * best:  # the smaller error, ties to the smaller p
                best, p = pick
                yield OddApproximant(p=p, q=q, err=best, cq2=best * q * q)
            i += 1
        start += size
        size = min(4 * size, _MAX_BLOCK)


def odd_odd_approximants(
    zeta: float, count: int, qmax: int = 100_000
) -> list[OddApproximant]:
    """Search odd denominators for record odd/odd approximants of ``zeta``.

    For each odd ``q <= qmax`` the best coprime odd numerator is considered,
    and a candidate is kept only when it at least halves the best error so
    far (seeded at 1).  The halving requirement keeps genuine approximation
    records - for badly approximable targets it recovers the classical
    convergent subsequence - and discards incidental near-misses.  The search
    stops at an exact hit.

    The denominators are screened in blocks as float arrays.  For each odd
    ``q`` the screen computes the two odd numerators ``lo, lo + 2`` around
    ``zeta * q`` and the error of each.  The smaller of the two skips the
    coprimality test, so it never exceeds the error of the best coprime odd
    numerator: no ``q`` that could set a record fails the screen.  Each ``q``
    that passes is confirmed from the same two numerators and errors: of
    those with ``p >= 1`` and ``gcd(p, q) = 1`` the smaller error wins, ties
    going to the smaller ``p``, and it is kept only if it halves the best
    error.  While ``zeta * qmax < 2**52`` every ``lo`` is an exact integer,
    so ``lo / q`` is ``p / q`` correctly rounded, as ``int / int`` gives it.
    Blocks start at 1024 denominators and grow fourfold up to 65536, so
    memory stays bounded for any ``qmax``.

    Returns up to ``count`` approximants with strictly increasing ``q``.
    Warns with :class:`ExhaustedBudget` if the budget runs out first.
    Raises :class:`InvalidBudget` unless ``0 < zeta < inf`` and
    ``zeta * qmax < 2**52``; ``count`` is checked by the rule of the CLI's
    ``--count`` and ``qmax`` by its config key's (:func:`_check_option`): a
    ``count`` below 1 is :class:`InvalidBudget`, one that is not an integer
    :class:`MalformedValue`.
    """
    if not 0 < zeta < math.inf:
        raise InvalidBudget(f"target must be finite and > 0, got {zeta}")
    _check_option("count", count)
    _check_option("qmax", qmax)
    if qmax >= 2**52 or zeta * qmax >= 2**52:
        raise InvalidBudget(f"need zeta * qmax < 2**52 for an exact search, got {zeta!r} * {qmax}")
    records: list[OddApproximant] = []
    for record in _records(zeta, qmax):
        records.append(record)
        if record.exact or len(records) >= count:
            break
    if len(records) < count and not (records and records[-1].exact):
        warnings.warn(
            ExhaustedBudget(
                f"found {len(records)} of {count} approximants with q <= {qmax}"
            )
        )
    return records


def _check_pair(p, q) -> None:
    """Raise :class:`InvalidBudget` unless ``p`` and ``q`` are coprime integers >= 1 (a
    non-integer raises :class:`MalformedValue`)."""
    _check_integer(p, "p", error=InvalidBudget)
    _check_integer(q, "q", error=InvalidBudget)
    if math.gcd(p, q) != 1:
        raise InvalidBudget(f"need coprime p, q; got ({p}, {q})")


def _kappa(odd: int) -> float:
    """Sign normalizing ``kappa * sin(odd * pi / 2)`` to +1."""
    return -1.0 if (odd + 1) % 4 == 0 else 1.0


def near_unobservable_state(
    approx: OddApproximant, params: BeamParameters, J: int | None = None
) -> ModalCoefficients:
    """Two-mode state whose output nearly cancels under the approximant.

    Activates the family-1 mode with ``sigma_j = q*pi/(2L)`` at amplitude
    ``kappa1/b1`` and the family-2 mode with ``sigma_j = p*pi/(2L)`` at
    amplitude ``-kappa2/b2``; the sign factors make both boundary traces
    equal to one, so the output is the difference of two unit phasors whose
    frequencies differ by O(err/q).  Its energy norm is
    ``L * (2*mu + rho * (1/b1^2 + 1/b2^2))``, independent of the approximant.

    Raises :class:`MalformedValue` unless ``p``, ``q`` and ``J`` (when given) are
    integers, :class:`InvalidBudget` unless ``p, q >= 1`` are coprime,
    :class:`ParityViolation` unless both are odd, and :class:`TruncationTooSmall`
    unless ``J >= max(j1, j2)``, the larger of the two mode indices.
    """
    p, q = approx.p, approx.q
    _check_pair(p, q)
    if p % 2 == 0 or q % 2 == 0:
        raise ParityViolation(f"({p}, {q}) must both be odd to pair two modes")
    j1 = (q + 1) // 2
    j2 = (p + 1) // 2
    if J is None:
        J = max(j1, j2)
    _check_integer(J, f"J for approximant ({p},{q})", max(j1, j2), TruncationTooSmall)
    b = _model(params).mix[-1]
    branches = np.zeros((2, 2, J), dtype=complex)
    branches[[0, 1], 0, [j1 - 1, j2 - 1]] = np.array([_kappa(q), -_kappa(p)]) / b
    return ModalCoefficients._from_branches(branches)


def observability_quotient(coeffs: ModalCoefficients, params: BeamParameters, T: float) -> float:
    """Output energy over ``[0, T]`` divided by the squared state norm.

    A uniform positive lower bound over all states is exact observability;
    the near-unobservable states drive this quotient to zero like ``q^-2``.
    """
    norm = modal_norm_sq(coeffs, params)
    if norm == 0.0:
        raise ZeroState("observability quotient undefined for the zero state")
    return output_energy(coeffs, params, T) / norm


def quotient_bound(approx: OddApproximant, params: BeamParameters, T: float) -> float:
    """Explicit mean-value bound on the output energy of the approximant state.

    The two active phasors differ in frequency by at most
    ``pi * cq2 / (2 L zeta2 q)``, so the output energy over ``[0, T]`` is at
    most ``pi^2 T^3 cq2^2 / (12 L^2 h^2 zeta2^2 q^2)``.
    A ``T`` <= 0 raises :class:`NonPositiveParameter`, a non-finite one :class:`MalformedValue`.
    """
    _check_option("T", T)
    zeta2 = float(_model(params).zeta[-1])
    L, h = params.length, params.thickness
    return (math.pi**2 * T**3 * approx.cq2**2) / (
        12.0 * L**2 * h**2 * zeta2**2 * approx.q**2
    )


def ingham_gap(params: BeamParameters, p: int, q: int) -> tuple[float, float]:
    """Uniform eigenfrequency gap for a mixed-parity rational speed ratio.

    For ``zeta2/zeta1 = p/q`` in lowest terms with exactly one of ``p, q``
    even, distinct frequencies ``sigma_j/zeta_k`` never come closer than

        gamma = (pi / L) * min(1/zeta1, 1/zeta2, 1/(2 zeta2 q)),

    and the Ingham frame bounds hold for every window longer than
    ``Tmin = 2 pi / gamma``.  Returns ``(gamma, Tmin)``.

    Raises :class:`MalformedValue` unless ``p`` and ``q`` are integers,
    :class:`InvalidBudget` unless they are coprime and >= 1, :class:`ParityViolation`
    for odd/odd fractions (frequencies collide; there is no gap) and
    :class:`NotRational` if the fraction does not match the actual ratio to 1e-9.
    """
    dc = derive_constants(params)
    _check_pair(p, q)
    if p % 2 == 1 and q % 2 == 1:
        raise ParityViolation(
            f"({p}, {q}) are both odd: eigenvalues collide and no gap exists"
        )
    ratio = dc.ratio
    if abs(ratio - p / q) > 1e-9:
        raise NotRational(f"zeta2/zeta1 = {ratio!r} does not equal {p}/{q}")
    gamma = _mixed_parity_gap(dc, q, params.length)
    return gamma, 2.0 * math.pi / gamma


def exponent_family(params: BeamParameters, J: int) -> np.ndarray:
    """Sorted eigenfrequencies ``+/- sigma_j / zeta_k`` for ``j <= J``.

    A ``J`` below 1 raises :class:`NonPositiveParameter`, a non-integer :class:`MalformedValue`.
    """
    _check_option("J", J)
    return np.sort(_frequencies(_model(params).zeta, J, params.length), axis=None)


class FrameBounds(NamedTuple):
    cmin: float
    cmax: float
    has_collisions: bool


def ingham_frame_bounds(exponents, T: float, *, trials: int | None = None) -> FrameBounds:
    """Optimal frame bounds of ``t -> sum g_n exp(i s_n t)`` on ``[0, T]``.

    ``cmin`` and ``cmax`` are the extreme eigenvalues of the Gram matrix
    ``int_0^T exp(i (s_m - s_n) t) dt``, so that
    ``cmin * sum |g_n|^2 <= int_0^T |sum g_n e^{i s_n t}|^2 dt <= cmax * sum |g_n|^2``
    is sharp for the finite family.  They are computed exactly, by
    ``eigvalsh`` of the unitarily similar real matrix :func:`sinc_gram`;
    ``cmin`` is clamped at 0.  Exponents closer than ``1e-12`` times the
    largest are snapped together and flagged in ``has_collisions``; a
    collision shows up as a zero eigenvalue.

    A family of even size whose sorted exponents are their own negation,
    reversed, as every :func:`exponent_family` is, has the Gram
    ``[[A, B], [B, A]]`` in the basis ``(lam, -lam)`` of its positive half
    ``lam``, with ``A = sinc_gram(lam_i - lam_j)`` and
    ``B = sinc_gram(lam_i + lam_j)``.  Its eigenvalues are those of the
    cosine Gram ``A + B`` and the sine Gram ``A - B``, so two ``eigvalsh``
    of half the size replace one, and no full-size matrix is built.  Any
    other family takes the full Gram.  ``trials`` is accepted for
    compatibility and ignored.  Raises ``ValueError`` unless the exponents
    form a non-empty 1-d sequence of finite real values.
    """
    s = np.asarray(exponents)
    if not np.iscomplexobj(s):
        try:
            s = s.astype(float)
        except TypeError:  # an object with no real value, such as a complex number
            pass
    if s.dtype != float or s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError("exponents must be a non-empty 1-d sequence of finite values")
    s, h = np.sort(s), s.size // 2
    if s.size % 2 == 0 and np.array_equal(s, -s[::-1]):
        lam, tol = s[h:], _snap_tolerance(s, T)
        minus = _snapped(lam[:, None] - lam[None, :], tol)
        plus = _snapped(lam[:, None] + lam[None, :], tol)
        a, b = sinc_gram(minus, T), sinc_gram(plus, T)
        cos_eig, sin_eig = np.linalg.eigvalsh(a + b), np.linalg.eigvalsh(a - b)
        lo, hi = min(cos_eig[0], sin_eig[0]), max(cos_eig[-1], sin_eig[-1])
        # each half of the full differences appears twice; the diagonal holds h zeros
        collided = np.count_nonzero(minus == 0) + np.count_nonzero(plus == 0) > h
    else:
        delta = _snapped_differences(s, T)
        eig = np.linalg.eigvalsh(sinc_gram(delta, T))
        lo, hi = eig[0], eig[-1]
        collided = np.count_nonzero(delta == 0) > s.size  # beyond the diagonal
    return FrameBounds(cmin=max(float(lo), 0.0), cmax=float(hi), has_collisions=bool(collided))
