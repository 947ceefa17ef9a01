"""Transfer-function evaluation for the voltage-to-current boundary channel.

``transfer_closed`` evaluates the closed form

    G(s) = [ b2 (b1 g - a/beta)/zeta2 * tanh(zeta2 s L)
           - b1 (b2 g - a/beta)/zeta1 * tanh(zeta1 s L) ] / (alpha1 h^2 (b1 - b2)),

whose only poles sit on the imaginary axis (at the zeros of
``cosh(zeta_k s L)``).  ``transfer_closed``, ``transfer_damped`` and
``damped_trace_gain`` take a scalar ``s`` and return a Python ``complex``,
or take an array of any shape and return a complex array of that shape.
``transfer_bvp`` solves the underlying two-point boundary-value problem by
finite differences and serves as an independent oracle; it and
``transfer_damped_bvp`` take a scalar ``s`` only.  The damped loop (feedback
``-pdot(L)/(2h)`` plus an external input) has input-output transfer
``G_d = (1 - G/2) / (1 + G/2)``, a Cayley transform that maps the
positive-real ``G`` into the closed unit disk; the transfer from the
external input to the electrode-current trace is ``G / (1 + G/2)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded

from .errors import PoleProximity, SingularSystem
from .params import BeamParameters, DerivedConstants, derive_constants

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


def transfer_closed(
    s: complex | np.ndarray, params: BeamParameters, dc: DerivedConstants | None = None
) -> complex | np.ndarray:
    """Closed-form transfer from electrode voltage to electrode current.

    ``s`` is a scalar or an array: a scalar gives a Python ``complex``, an
    array gives a complex array of the same shape.  Intended for
    ``Re s > 0``; evaluation on the imaginary axis works until a pole of
    ``tanh`` is approached, which raises :class:`PoleProximity` naming the
    first offending ``s`` (in C order).
    """
    dc = dc or derive_constants(params)
    L, h, a1 = params.length, params.thickness, params.alpha1
    aob = dc.alpha / params.beta
    g = params.gamma
    s = np.asarray(s, dtype=complex)
    w = np.array((dc.zeta1 * s, dc.zeta2 * s)) * L  # shape (2, *s.shape)
    # |cosh(x+iy)|^2 = sinh(x)^2 + cos(y)^2; |x| >= 1 is far from any zero
    near = np.sinh(np.minimum(np.abs(w.real), 1.0)) ** 2 + np.cos(w.imag) ** 2 < _POLE_TOL**2
    if near.any():
        first = s.ravel()[np.argmax(near.reshape(2, -1).any(axis=0))]
        raise PoleProximity(f"s={complex(first)} is within tolerance of a pole")
    t = np.tanh(w)
    k2 = dc.b2 * (dc.b1 * g - aob) / dc.zeta2
    k1 = dc.b1 * (dc.b2 * g - aob) / dc.zeta1
    G = (k2 * t[1] - k1 * t[0]) / (a1 * h**2 * (dc.b1 - dc.b2))
    return complex(G) if G.ndim == 0 else G


def _bvp_solve(s: complex, params: BeamParameters, n: int, damped: bool) -> complex:
    """Finite-difference solve of the boundary-value problem; returns Z(L).

    Unknowns are interleaved ``(Y_i, Z_i)`` for ``i = 1..n``; the driven-end
    flux conditions enter through ghost nodes.  For the damped loop the
    voltage contains the state feedback ``(s / 2h) Z(L)``, which moves one
    term onto the matrix diagonal.
    """
    if n < 64:
        raise ValueError(f"need n >= 64 cells, got {n}")
    s = complex(s)
    rho, a1, beta, gamma, mu = params.rho, params.alpha1, params.beta, params.gamma, params.mu
    L, h = params.length, params.thickness
    alpha = a1 + gamma**2 * beta
    gb = gamma * beta
    dx = L / n
    fac = 1.0 / dx**2
    size = 2 * n
    # (l, u) = (3, 3) storage: matrix entry (r, c) sits at bands[3 + r - c, c].
    # Y_i is unknown 2(i-1) (even columns), Z_i is 2(i-1)+1 (odd columns).
    bands = np.zeros((7, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    s2 = s * s
    left = np.ones(n - 1)
    left[-1] = 2.0  # at node n the ghost doubles the inner neighbor
    bands[3, 0::2] = -2.0 * alpha * fac - rho * s2
    bands[3, 1::2] = -2.0 * beta * fac - mu * s2
    bands[2, 1::2] = 2.0 * gb * fac  # Y row, own Z
    bands[4, 0::2] = 2.0 * gb * fac  # Z row, own Y
    bands[5, 0:-2:2] = left * alpha * fac  # Y row, Y of node i-1
    bands[4, 1:-2:2] = -left * gb * fac  # Y row, Z of node i-1
    bands[5, 1:-2:2] = left * beta * fac  # Z row, Z of node i-1
    bands[6, 0:-2:2] = -left * gb * fac  # Z row, Y of node i-1
    bands[1, 2::2] = alpha * fac  # Y row, Y of node i+1
    bands[0, 3::2] = -gb * fac  # Y row, Z of node i+1
    bands[1, 3::2] = beta * fac  # Z row, Z of node i+1
    bands[2, 2::2] = -gb * fac  # Z row, Y of node i+1
    # driven end: the Y-row ghost contributions cancel exactly; the Z-row
    # carries the physical flux -V/h with unit input
    zn = size - 1
    rhs[zn] = 2.0 / (h * dx)
    if damped:
        bands[3, zn] += -s / (h**2 * dx)
    try:
        sol = solve_banded((3, 3), bands, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol.view(float))):
        raise SingularSystem(f"discrete system singular near s={s}")
    return complex(sol[zn])


def transfer_bvp(s: complex, params: BeamParameters, n: int = 4096) -> complex:
    """Transfer function via a direct second-order boundary-value solve.

    Independent of the closed form; the discretization error is O(n^-2), so
    Richardson steps (doubling ``n``) shrink the disagreement by ~4x.
    """
    return -complex(s) * _bvp_solve(s, params, n, damped=False) / params.thickness


def transfer_damped(
    s: complex | np.ndarray, params: BeamParameters, dc: DerivedConstants | None = None
) -> complex | np.ndarray:
    """Input-output transfer of the damped loop, ``(1 - G/2) / (1 + G/2)``.

    The loop closes ``V = pdot(L)/(2h) + u`` and reads ``y = pdot(L)/h + u``;
    eliminating the plant gives the Cayley transform of ``G/2``.  Since ``G``
    is positive-real on the open right half-plane, ``|G_d| <= 1`` there,
    including arbitrarily close to the imaginary-axis poles of ``G``.
    """
    g = transfer_closed(s, params, dc)
    return (1.0 - 0.5 * g) / (1.0 + 0.5 * g)


def damped_trace_gain(
    s: complex | np.ndarray, params: BeamParameters, dc: DerivedConstants | None = None
) -> complex | np.ndarray:
    """Transfer from the damped loop's external input to the current trace.

    ``u -> pdot(L)/h`` has transfer ``G / (1 + G/2)``: zero at ``s = 0`` and
    saturating at ``G_inf / (1 + G_inf/2)`` for large real ``s``.  Unlike the
    full input-output map it is not contractive near the poles of ``G``.
    """
    g = transfer_closed(s, params, dc)
    return g / (1.0 + 0.5 * g)


def transfer_damped_bvp(s: complex, params: BeamParameters, n: int = 4096) -> complex:
    """Damped-loop transfer by a direct solve with the feedback in the boundary.

    Cross-check for :func:`transfer_damped`: the discrete loop reproduces
    ``(1 - G/2)/(1 + G/2)`` to O(n^-2).
    """
    return complex(s) * _bvp_solve(s, params, n, damped=True) / params.thickness + 1.0


class ScanResult(NamedTuple):
    sup: float
    argmax: complex
    bound: float


def analytic_line_bound(
    s1: float, params: BeamParameters, dc: DerivedConstants | None = None
) -> float:
    """Explicit bound for ``sup |G|`` on the vertical line ``Re s = s1``.

    Uses ``|tanh(w)| <= 2 / (1 - exp(-2 Re w))`` together with the moduli of
    the closed-form coefficients.
    """
    dc = dc or derive_constants(params)
    L, h, a1 = params.length, params.thickness, params.alpha1
    aob = dc.alpha / params.beta
    g = params.gamma
    denom = a1 * h**2 * abs(dc.b1 - dc.b2)
    total = 0.0
    for b_self, b_other, zeta in ((dc.b2, dc.b1, dc.zeta2), (dc.b1, dc.b2, dc.zeta1)):
        coeff = abs(b_self * (b_other * g - aob)) / zeta
        total += coeff * 2.0 / (1.0 - math.exp(-2.0 * s1 * zeta * L))
    return total / denom


def boundedness_scan(
    s1: float,
    im_max: float,
    n: int,
    params: BeamParameters,
    dc: DerivedConstants | None = None,
) -> ScanResult:
    """Sample ``|G|`` on the segment ``Re s = s1``, ``|Im s| <= im_max``.

    Returns the supremum over the ``n`` sample points, its location, and the
    analytic line bound, which the supremum is checked against.
    """
    if not s1 > 0:
        raise ValueError(f"s1 must be > 0, got {s1}")
    dc = dc or derive_constants(params)
    ims = np.linspace(-im_max, im_max, n)
    values = np.abs(transfer_closed(s1 + 1j * ims, params, dc))
    idx = int(np.argmax(values))
    sup = float(values[idx])
    bound = analytic_line_bound(s1, params, dc)
    if sup > bound * (1.0 + 1e-9):
        raise SingularSystem(
            f"scan supremum {sup:g} exceeds the analytic bound {bound:g}"
        )
    return ScanResult(sup=sup, argmax=complex(s1, ims[idx]), bound=bound)
