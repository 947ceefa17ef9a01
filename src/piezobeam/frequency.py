"""Transfer-function evaluation for the voltage-to-current boundary channel.

Observed at the driven end, each wave family ``k`` contributes one collocated
term, so ``transfer_closed`` evaluates the modal sum

    G(s) = sum_k r_k tanh(zeta_k s L),   r_k = zeta_k b_k^2 / (h^2 w_k),

with the speed ``1/zeta_k``, mixing column ``(1, b_k)`` and mass weight
``w_k = rho + mu b_k^2`` of each family of :func:`piezobeam.spectral._model`.
Every residue ``r_k`` is positive, so ``G`` is positive-real (``Re tanh > 0`` on
``Re s > 0``), saturates at ``G(inf) = sum_k r_k``, and has its only poles on
the imaginary axis, at the zeros of ``cosh(zeta_k s L)``.

``transfer_closed``, ``transfer_damped`` and ``damped_trace_gain`` take a
scalar ``s`` and return a Python ``complex``, or an array of any shape and
return a complex array of that shape; the residues are memoised per
``params``, so no function takes derived constants (the ``dc`` of
``transfer_closed`` and ``transfer_damped`` is ignored).  ``transfer_bvp``
is an independent oracle that, like ``transfer_damped_bvp``, takes a scalar
``s`` only.  It solves the ``n``-cell finite-difference system of the
boundary-value problem, assembled from the PDE coefficients, exactly and one
wave family at a time,

    G_n(s) = sum_k R_k tanh(2 n phi_k) / cosh(phi_k),   phi_k = asinh(s zeta_k L / (2n)),

at a cost that does not grow with ``n``.  Its families come from the grid's
own 2x2 matrix, decomposed from the raw parameters rather than read from
``_model``, so the oracle shares no code with the closed form it checks.

The damped loop (feedback ``-pdot(L)/(2h)`` plus an external input) has
input-output transfer ``G_d = (1 - G/2) / (1 + G/2)``, a Cayley transform that
maps the positive-real ``G`` into the closed unit disk; the external input
reaches the electrode-current trace through ``G / (1 + G/2)``.  On the grid
the feedback is a rank-one change of the driven end, so the discrete loop is
the same transform of ``G_n``.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from typing import NamedTuple

import numpy as np

from .errors import PoleProximity, SingularSystem
from .params import BeamParameters, DerivedConstants, _check_integer
from .spectral import _model

__all__ = [
    "transfer_closed",
    "transfer_bvp",
    "transfer_damped",
    "damped_trace_gain",
    "transfer_damped_bvp",
    "boundedness_scan",
    "ScanResult",
    "analytic_line_bound",
]

_POLE_TOL = 1e-12


@functools.lru_cache
def _residues(params: BeamParameters) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(zeta_k L, r_k)`` per family, memoised per ``params``."""
    model = _model(params)
    zeta, b = model.zeta, model.mix[-1]
    zl, r = zeta * params.length, zeta * b**2 / (params.thickness**2 * model.w)
    zl.flags.writeable = r.flags.writeable = False
    return zl, r


@functools.lru_cache
def _scalar_residues(params: BeamParameters) -> tuple[tuple[float, ...], ...]:
    """:func:`_residues` as Python floats ``((zeta_k L, ...), (r_k, ...))``."""
    return tuple(tuple(a.tolist()) for a in _residues(params))


def transfer_closed(
    s: complex | np.ndarray, params: BeamParameters, dc: DerivedConstants | None = None
) -> complex | np.ndarray:
    """Closed-form transfer from electrode voltage to electrode current.

    ``s`` is a scalar or an array: a scalar gives a Python ``complex``, an
    array gives a complex array of the same shape.  A finite scalar is
    summed in ``cmath``, which agrees with the array path to rounding
    (about 1e-15 relative) and keeps ``G(conj s) == conj G(s)`` exact.  Intended for
    ``Re s > 0``; on the imaginary axis, an ``s`` next to a pole
    (``|tanh| > 1/_POLE_TOL``, so ``|cosh| < ~_POLE_TOL``) raises
    :class:`PoleProximity` naming the first offending ``s`` (in C order).
    ``dc`` is accepted for compatibility and ignored.
    """
    if isinstance(s, numbers.Number):
        # One point: ``cmath`` on Python floats, with no NumPy dispatch.  A
        # non-finite ``zeta_k L s`` falls through to the array path, which
        # keeps its nan/inf results and warnings.
        s = complex(s)
        zl, r = _scalar_residues(params)
        z = [k * s for k in zl]
        if all(map(cmath.isfinite, z)):
            t = list(map(cmath.tanh, z))
            if max(map(abs, t)) > 1.0 / _POLE_TOL:
                raise PoleProximity(f"s={s} is within tolerance of a pole")
            return sum(map(operator.mul, r, t))
    zl, r = _residues(params)
    s = np.asarray(s, dtype=complex)
    t = np.tanh(np.multiply.outer(zl, s))  # shape (2, *s.shape)
    near = np.abs(t) > 1.0 / _POLE_TOL
    if near.any():
        first = s.ravel()[np.argmax(near.reshape(2, -1).any(axis=0))]
        raise PoleProximity(f"s={complex(first)} is within tolerance of a pole")
    G = (r @ t.reshape(2, s.size)).reshape(s.shape)
    return complex(G) if G.ndim == 0 else G


def _bvp_solve(s: complex, params: BeamParameters, n: int, damped: bool) -> complex:
    """Exact solution of the finite-difference boundary-value system.

    Returns the grid transfer ``G_n`` or, with ``damped``, the damped loop's
    ``(1 - G_n/2) / (1 + G_n/2)``.  With ``K = [[alpha, -gamma beta], [-gamma
    beta, beta]]``, ``alpha = alpha1 + gamma^2 beta``, and ``M = diag(rho,
    mu)``, the unknowns ``u_i = (Y_i, Z_i)`` at the nodes ``i dx``, ``dx =
    L/n``, satisfy

        K (u_{i-1} - 2 u_i + u_{i+1}) / dx^2 = s^2 M u_i      (0 < i < n),
        u_0 = 0,
        2 K (u_{n-1} - u_n) / dx^2 - s^2 M u_n = (0, 2/(h dx)),

    the last row being the driven-end flux condition through a ghost node,
    and ``G_n = -s Z_n / h``.  The eigenvectors ``v_k`` of ``K^-1 M``, with
    eigenvalues ``zeta_k^2`` and scaled to ``v_k^T K v_k = 1`` (so ``v_k^T M
    v_k = zeta_k^2``), decouple the rows.  Family ``k`` is ``A_k sinh(i
    theta_k)`` with ``2 (cosh theta_k - 1) = (s dx zeta_k)^2``, i.e. ``theta_k
    = 2 phi_k``, ``phi_k = asinh(s dx zeta_k / 2)``.  Its end row reads ``-2
    A_k sinh(theta_k) cosh(n theta_k) / dx^2 = (2/(h dx)) v_kZ``: the mass
    term cancels against ``cosh theta_k - 1``, so the 2x2 end system is
    diagonal and

        G_n = sum_k R_k tanh(2 n phi_k) / cosh(phi_k),
        R_k = zeta_k v_kZ^2 / (h^2 (rho v_kY^2 + mu v_kZ^2)).

    A zero of ``sinh(2 n phi_k)`` is harmless, and ``phi_k = 0`` gives
    ``G_n(0) = 0``.  The damped loop's feedback ``-s Z_n / (h^2 dx)`` is a
    rank-one change of the driven end, which maps ``G_n`` to its Cayley
    transform.  :class:`SingularSystem` is raised within ``_POLE_TOL`` of a
    zero of ``cosh(2 n phi_k)`` (undamped) or of ``1 + G_n/2`` (damped).
    """
    _check_integer(n, "n", 64)
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    rho, a1, beta, gamma, mu = params.rho, params.alpha1, params.beta, params.gamma, params.mu
    # K^-1 M = [[a11, a12], [a21, a22]], whose off-diagonal entries are positive.
    a11, a12, a21 = rho / a1, gamma * mu / a1, gamma * rho / a1
    a22 = (a1 + gamma**2 * beta) * mu / (a1 * beta)
    d = a11 - a22
    r = math.hypot(d, 2.0 * math.sqrt(a12 * a21))
    lam = 0.5 * (a11 + a22 + r)  # the larger eigenvalue; their product is rho mu / (a1 beta)
    # w = lam - a22 = a11 - (smaller) if d >= 0, else lam - a11 = a22 - (smaller),
    # formed without cancellation
    w = 0.5 * (abs(d) + r)
    # eigenvectors (v_kY, v_kZ) of the larger and the smaller eigenvalue, up to sign and scale
    large, small = ((w, a21), (a12, w)) if d >= 0 else ((a12, w), (w, a21))
    families = ((lam, large), (rho * mu / (a1 * beta * lam), small))
    half_dx = 0.5 * params.length / n
    g = 0j
    for lam_k, (vy, vz) in families:
        zeta = math.sqrt(lam_k)
        z = s * (half_dx * zeta)
        if not cmath.isfinite(z):
            raise ValueError(f"s={s} is too large: s dx zeta_k overflows")
        phi = cmath.asinh(z)
        t = cmath.tanh(2 * n * phi)
        if not damped and abs(t) > 1.0 / _POLE_TOL:
            raise SingularSystem(f"discrete system singular near s={s}")
        g += zeta * vz**2 / (rho * vy**2 + mu * vz**2) * t / cmath.cosh(phi)
    g /= params.thickness**2
    if not damped:
        return g
    den = 1.0 + 0.5 * g
    if abs(den) <= _POLE_TOL * (1.0 + abs(0.5 * g)):
        raise SingularSystem(f"discrete system singular near s={s}")
    return (1.0 - 0.5 * g) / den


def transfer_bvp(s: complex, params: BeamParameters, n: int = 4096) -> complex:
    """Transfer function of the ``n``-cell finite-difference boundary-value problem.

    The grid system, assembled from the PDE coefficients, is solved exactly
    one wave family at a time (see :func:`_bvp_solve`):

        G_n(s) = sum_k R_k tanh(2 n phi_k) / cosh(phi_k),   phi_k = asinh(s zeta_k L / (2n)),

    a few complex functions per family, so the cost does not grow with ``n``.
    The families are decomposed from the raw parameters, not read from
    :func:`piezobeam.spectral._model` or :func:`derive_constants`, so the
    oracle shares no code with the closed form it checks.  The
    discretization error is O(n^-2), so Richardson steps (doubling ``n``)
    shrink the disagreement by ~4x.  Raises ``ValueError`` unless ``n >= 64``
    is an integer (:class:`MalformedValue` for a non-integer) and ``s`` is
    finite, and :class:`SingularSystem` next to a pole of ``G_n`` (on the
    imaginary axis); ``params`` is valid by construction.
    """
    return _bvp_solve(s, params, n, damped=False)


def transfer_damped(
    s: complex | np.ndarray, params: BeamParameters, dc: DerivedConstants | None = None
) -> complex | np.ndarray:
    """Input-output transfer of the damped loop, ``(1 - G/2) / (1 + G/2)``.

    The loop closes ``V = pdot(L)/(2h) + u`` and reads ``y = pdot(L)/h + u``;
    eliminating the plant gives the Cayley transform of ``G/2``.  Since ``G``
    is positive-real on the open right half-plane, ``|G_d| <= 1`` there,
    including arbitrarily close to the imaginary-axis poles of ``G``.
    ``dc`` is accepted for compatibility and ignored.
    """
    g = transfer_closed(s, params)
    return (1.0 - 0.5 * g) / (1.0 + 0.5 * g)


def damped_trace_gain(s: complex | np.ndarray, params: BeamParameters) -> complex | np.ndarray:
    """Transfer from the damped loop's external input to the current trace.

    ``u -> pdot(L)/h`` has transfer ``G / (1 + G/2)``: zero at ``s = 0`` and
    saturating at ``G_inf / (1 + G_inf/2)`` for large real ``s``.  Unlike the
    full input-output map it is not contractive near the poles of ``G``.
    """
    g = transfer_closed(s, params)
    return g / (1.0 + 0.5 * g)


def transfer_damped_bvp(s: complex, params: BeamParameters, n: int = 4096) -> complex:
    """Damped-loop transfer of the grid system with the feedback in the driven end.

    Cross-check for :func:`transfer_damped`: the discrete loop is exactly
    ``(1 - G_n/2)/(1 + G_n/2)`` for the ``G_n`` of :func:`transfer_bvp`, so it
    reproduces ``(1 - G/2)/(1 + G/2)`` to O(n^-2).  It stays finite at the
    poles of ``G_n`` and raises :class:`SingularSystem` where ``G_n = -2``;
    otherwise it raises as :func:`transfer_bvp` does.
    """
    return _bvp_solve(s, params, n, damped=True)


class ScanResult(NamedTuple):
    sup: float
    argmax: complex
    bound: float


def analytic_line_bound(s1: float, params: BeamParameters) -> float:
    """Explicit bound for ``sup |G|`` on the vertical line ``Re s = s1 > 0``.

    Uses ``|tanh(w)| <= 2 / (1 - exp(-2 Re w))`` term by term; the residues
    ``r_k`` are positive, so no moduli are needed.  Raises ``ValueError``
    unless ``0 < s1 < inf``.
    """
    if not 0 < s1 < np.inf:
        raise ValueError(f"s1 must be > 0 and finite, got {s1}")
    zl, r = _residues(params)
    return float(np.sum(r * 2.0 / (1.0 - np.exp(-2.0 * s1 * zl))))


def boundedness_scan(s1: float, im_max: float, n: int, params: BeamParameters) -> ScanResult:
    """Sample ``|G|`` on the segment ``Re s = s1``, ``|Im s| <= im_max``.

    Returns the supremum over the ``n`` sample points, its location, and the
    analytic line bound, which the supremum is checked against.  Raises
    ``ValueError`` unless ``s1`` is finite and > 0, ``im_max`` is finite and
    >= 0, and ``n`` is an integer >= 1.
    """
    if not 0 <= im_max < np.inf:
        raise ValueError(f"im_max must be finite and >= 0, got {im_max}")
    _check_integer(n, "n")
    bound = analytic_line_bound(s1, params)
    ims = np.linspace(-im_max, im_max, n)
    values = np.abs(transfer_closed(s1 + 1j * ims, params))
    idx = int(np.argmax(values))
    sup = float(values[idx])
    if sup > bound * (1.0 + 1e-9):
        raise SingularSystem(
            f"scan supremum {sup:g} exceeds the analytic bound {bound:g}"
        )
    return ScanResult(sup=sup, argmax=complex(s1, ims[idx]), bound=bound)
