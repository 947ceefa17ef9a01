"""Reference computations made apart from the package under test.

Nothing here imports ``piezobeam``.  Each function starts from the physical
constants ``(rho, alpha1, beta, gamma, mu, length, thickness)`` and the
published closed forms, so a check that compares the package against these
values compares two independent computations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Constants(NamedTuple):
    zeta1: float
    zeta2: float
    b1: float
    b2: float
    alpha: float


def wave_constants(rho, alpha1, beta, gamma, mu) -> Constants:
    """Reciprocal wave speeds and mixing coefficients from the characteristic quadratic.

    ``zeta**2`` solves ``z**2 - (gamma**2 mu/alpha1 + mu/beta + rho/alpha1) z
    + rho mu/(beta alpha1) = 0`` (roots taken with ``numpy.roots``), and the
    mode shape ``(1, b)`` of each family satisfies
    ``b = (alpha1 zeta**2 - rho) / (gamma mu)``.
    """
    roots = np.roots(
        [1.0, -(gamma**2 * mu / alpha1 + mu / beta + rho / alpha1), rho * mu / (beta * alpha1)]
    )
    z1, z2 = sorted(np.real(roots), reverse=True)
    b1, b2 = ((alpha1 * z - rho) / (gamma * mu) for z in (z1, z2))
    return Constants(math.sqrt(z1), math.sqrt(z2), b1, b2, alpha1 + gamma**2 * beta)


def _constants_of(p) -> Constants:
    return wave_constants(p.rho, p.alpha1, p.beta, p.gamma, p.mu)


def transfer(s, p) -> np.ndarray:
    """Published closed form of the voltage-to-current transfer ``G(s)``, vectorised.

    ``G = [b2 (b1 g - a/beta)/zeta2 tanh(zeta2 s L) - b1 (b2 g - a/beta)/zeta1
    tanh(zeta1 s L)] / (alpha1 h**2 (b1 - b2))``.
    """
    c = _constants_of(p)
    s = np.asarray(s, dtype=complex)
    aob = c.alpha / p.beta
    term2 = c.b2 * (c.b1 * p.gamma - aob) / c.zeta2 * np.tanh(c.zeta2 * s * p.length)
    term1 = c.b1 * (c.b2 * p.gamma - aob) / c.zeta1 * np.tanh(c.zeta1 * s * p.length)
    return (term2 - term1) / (p.alpha1 * p.thickness**2 * (c.b1 - c.b2))


def closed_loop_abscissa(p, num: int, den: int) -> tuple[float, np.ndarray]:
    """Spectral abscissa of the damped loop for ``zeta2/zeta1 = num/den``.

    The closed-loop eigenvalues are the zeros of ``1 + G(s)/2``.  With
    ``u = exp(-2 zeta1 s L / den)`` both ``tanh`` terms are rational in ``u``
    (``exp(-2 zeta2 s L) = u**num``, ``exp(-2 zeta1 s L) = u**den``), and
    clearing denominators leaves a polynomial of degree ``num + den``.  Each
    root gives ``Re s = -log|u| den / (2 zeta1 L)``.  Returns the largest real
    part and the roots.
    """
    c = _constants_of(p)
    aob = c.alpha / p.beta
    a2 = c.b2 * (c.b1 * p.gamma - aob) / c.zeta2
    a1 = c.b1 * (c.b2 * p.gamma - aob) / c.zeta1
    d = p.alpha1 * p.thickness**2 * (c.b1 - c.b2)
    poly = np.polynomial.Polynomial
    one, up, uq = poly([1.0]), poly([0.0] * num + [1.0]), poly([0.0] * den + [1.0])
    char = 2.0 * d * (one + up) * (one + uq) + a2 * (one - up) * (one + uq) - a1 * (one - uq) * (one + up)
    roots = char.roots()
    re_s = -np.log(np.abs(roots)) * den / (2.0 * c.zeta1 * p.length)
    return float(np.max(re_s)), roots


def exact_decay_rate(p, num: int, den: int) -> float:
    """Energy decay rate ``2 |max Re s|`` of the damped loop."""
    return 2.0 * abs(closed_loop_abscissa(p, num, den)[0])


def exponent_family(p, J: int) -> np.ndarray:
    """Sorted eigenfrequencies ``+/- sigma_j / zeta_k``, ``sigma_j = (2j - 1) pi / (2L)``."""
    c = _constants_of(p)
    sig = (2.0 * np.arange(1, J + 1) - 1.0) * math.pi / (2.0 * p.length)
    freqs = np.concatenate([sig / c.zeta1, sig / c.zeta2])
    return np.sort(np.concatenate([-freqs, freqs]))


def gram_extremes(exponents, T: float) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram matrix ``int_0^T exp(i (s_m - s_n) t) dt``.

    These are the optimal frame bounds of the finite exponential family.
    Equal exponents integrate to exactly ``T``.
    """
    s = np.asarray(exponents, dtype=float)
    delta = s[:, None] - s[None, :]
    zero = delta == 0.0
    safe = np.where(zero, 1.0, delta)
    gram = np.where(zero, T, (np.exp(1j * delta * T) - 1.0) / (1j * safe))
    eig = np.linalg.eigvalsh(gram)
    return float(eig[0]), float(eig[-1])


def standing_wave(p, family: int, j: int, amplitude: complex, sign: int, t: float, x) -> np.ndarray:
    """Exact ``(v, p, vdot, pdot)`` of one real eigenmode at time ``t``.

    The mode has velocity profile ``sin(sigma_j x)``, charge-to-displacement
    ratio ``b_family`` and frequency ``w = sigma_j / zeta_family``; ``sign``
    picks the ``exp(+i w t)`` or ``exp(-i w t)`` branch and the complex
    ``amplitude`` its phase at ``t = 0``.
    """
    c = _constants_of(p)
    zeta, b = (c.zeta1, c.b1) if family == 1 else (c.zeta2, c.b2)
    sig = (2 * j - 1) * math.pi / (2.0 * p.length)
    w = sig / zeta
    phasor = amplitude * np.exp(sign * 1j * w * t)
    profile = np.sin(sig * np.asarray(x, dtype=float))
    v = np.real(phasor / (1j * w)) * profile
    vdot = np.real(sign * phasor) * profile
    return np.array([v, b * v, vdot, b * vdot])


def modal_fields(p, c1, d1, c2, d2, x) -> np.ndarray:
    """Sum of the ``+``/``-`` branch eigenfunctions with the given coefficients at ``t = 0``.

    Branch ``(k, +/-, j)`` contributes ``(1/lam, b_k/lam, +/-1, +/-b_k) sin(sigma_j x)``
    with ``lam = i sigma_j / zeta_k``.
    """
    c = _constants_of(p)
    J = len(c1)
    sig = (2.0 * np.arange(1, J + 1) - 1.0) * math.pi / (2.0 * p.length)
    prof = np.sin(np.outer(np.asarray(x, dtype=float), sig))
    out = np.zeros((4, len(x)), dtype=complex)
    for zeta, b, plus, minus in ((c.zeta1, c.b1, c1, d1), (c.zeta2, c.b2, c2, d2)):
        lam = 1j * sig / zeta
        pos = prof @ ((np.asarray(plus) + np.asarray(minus)) / lam)
        vel = prof @ (np.asarray(plus) - np.asarray(minus))
        out += np.array([pos, b * pos, vel, b * vel])
    return out


def current_energy(p, c1, d1, c2, d2, T: float) -> float:
    """``int_0^T |pdot(L, t)/h|**2 dt`` by composite 16-point Gauss-Legendre quadrature.

    The electrode current is evaluated directly in time from the modal
    coefficients: each branch rotates by ``exp(+/- i sigma_j t / zeta_k)`` and
    contributes ``b_k sin(sigma_j L)`` times its velocity amplitude.
    """
    c = _constants_of(p)
    J = len(c1)
    sig = (2.0 * np.arange(1, J + 1) - 1.0) * math.pi / (2.0 * p.length)
    trace = np.sin(sig * p.length)
    wmax = float(sig[-1] / min(c.zeta1, c.zeta2))
    panels = max(64, math.ceil(wmax * T / math.pi))  # at most half a period per panel
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, T, panels + 1)
    half = 0.5 * np.diff(edges)
    t_all = (edges[:-1, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    wt_all = (half[:, None] * weights[None, :]).ravel()
    total = 0.0
    for start in range(0, t_all.size, 4096):
        t, wt = t_all[start : start + 4096], wt_all[start : start + 4096]
        y = np.zeros(t.size, dtype=complex)
        for zeta, b, plus, minus in ((c.zeta1, c.b1, c1, d1), (c.zeta2, c.b2, c2, d2)):
            rot = np.exp(1j * np.outer(t, sig / zeta))
            y += b * (rot @ (trace * np.asarray(plus)) - np.conj(rot) @ (trace * np.asarray(minus)))
        total += float(np.sum(wt * np.abs(y / p.thickness) ** 2))
    return total


def pair_quotient(p, num: int, den: int, T: float) -> float:
    """Observability quotient of the two-mode state paired by ``num/den``.

    The state puts unit boundary traces on the family-1 mode with
    ``sigma = den pi/(2L)`` and the family-2 mode with ``sigma = num pi/(2L)``,
    so the current is ``(exp(i w1 t) - exp(i w2 t))/h`` and
    ``int_0^T |y|**2 = 2T (1 - sin(dw T)/(dw T)) / h**2``.  The state's squared
    energy norm is ``L (2 mu + rho (1/b1**2 + 1/b2**2))``.
    """
    c = _constants_of(p)
    dw = abs(den / c.zeta1 - num / c.zeta2) * math.pi / (2.0 * p.length)
    x = dw * T
    if x < 1e-3:
        one_minus_sinc = x * x / 6.0 - x**4 / 120.0 + x**6 / 5040.0
    else:
        one_minus_sinc = 1.0 - math.sin(x) / x
    energy = 2.0 * T * one_minus_sinc / p.thickness**2
    norm = p.length * (2.0 * p.mu + p.rho * (1.0 / c.b1**2 + 1.0 / c.b2**2))
    return energy / norm


def mixed_parity_gap(p, den: int) -> float:
    """Uniform gap ``(pi/L) min(1/zeta1, 1/zeta2, 1/(2 zeta2 den))`` of a mixed-parity ratio."""
    c = _constants_of(p)
    return (math.pi / p.length) * min(1.0 / c.zeta1, 1.0 / c.zeta2, 1.0 / (2.0 * c.zeta2 * den))
