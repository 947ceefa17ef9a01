"""Exact eigenstructure of the undamped beam generator and modal calculus.

The undamped generator of the coupled stretching system is skew-adjoint with
purely imaginary eigenvalues ``+/- i * sigma_j / zeta_k`` where
``sigma_j = (2j - 1) * pi / (2L)`` and ``k in {1, 2}`` indexes the wave
family.  Its eigenfunctions are sine profiles mixed across the displacement
and charge components by the coefficients ``b1``, ``b2``.  The mixing vectors
``(1, b_k)`` are orthogonal in the mass ``diag(rho, mu)`` (``b1 b2 = -rho/mu``),
so projection inverts the sine amplitudes family by family in closed form.
This module provides the eigen-decomposition, projection of states onto the
eigenbasis, unitary modal propagation, energy norms, the closed-form output
energy of the electrode-current observation, and the inverse of the damped
generator at zero frequency.

Everything is pure and immutable; all operations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import QuadratureFailure
from .params import BeamParameters, DerivedConstants, derive_constants

__all__ = [
    "ModeIndex",
    "ModalCoefficients",
    "StateFunctions",
    "sigma",
    "eigenvalues",
    "eigenfunction",
    "reconstruct",
    "project",
    "projection_residual",
    "propagate",
    "modal_norm_sq",
    "output_energy",
    "resolvent_at_zero",
]

DEFAULT_QUADRATURE_CELLS = 2048


@dataclass(frozen=True)
class ModeIndex:
    """Label of one eigenmode: wave family (1 or 2), sign branch, index j >= 1."""

    family: int
    sign: int
    j: int

    def __post_init__(self) -> None:
        if self.family not in (1, 2):
            raise ValueError(f"family must be 1 or 2, got {self.family}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.j < 1:
            raise ValueError(f"mode index j must be >= 1, got {self.j}")


class ModalCoefficients:
    """Complex coefficients of a state in the four eigenmode branches.

    ``branches`` is one read-only complex array of shape ``(2, 2, J)``: the
    coefficient of ``ModeIndex(family, sign, j)`` is
    ``branches[family - 1, (1 - sign) // 2, j - 1]``, so axis 1 holds the ``+``
    branch at 0 and the ``-`` branch at 1.  ``c1, d1, c2, d2`` are read-only
    views of the ``+`` and ``-`` branches of families 1 and 2.  Instances are
    immutable; operations return new objects.
    """

    __slots__ = ("branches",)

    def __init__(self, c1, d1, c2, d2):
        arrays = []
        for name, arr in (("c1", c1), ("d1", d1), ("c2", c2), ("d2", d2)):
            a = np.asarray(arr, dtype=complex)
            if a.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arrays.append(a)
        if len({a.shape for a in arrays}) != 1:
            raise ValueError("coefficient arrays must share one length")
        self.branches = np.stack(arrays).reshape(2, 2, *arrays[0].shape)
        self.branches.flags.writeable = False

    c1 = property(lambda self: self.branches[0, 0])
    d1 = property(lambda self: self.branches[0, 1])
    c2 = property(lambda self: self.branches[1, 0])
    d2 = property(lambda self: self.branches[1, 1])

    @property
    def truncation(self) -> int:
        return self.branches.shape[2]

    @classmethod
    def zeros(cls, J: int) -> "ModalCoefficients":
        z = np.zeros(J, dtype=complex)
        return cls(z, z, z, z)

    @classmethod
    def single(cls, mode: ModeIndex, J: int, amplitude: complex = 1.0) -> "ModalCoefficients":
        """Coefficient set with a single active mode."""
        if mode.j > J:
            raise ValueError(f"j={mode.j} exceeds truncation J={J}")
        branches = np.zeros((2, 2, J), dtype=complex)
        branches[mode.family - 1, (1 - mode.sign) // 2, mode.j - 1] = amplitude
        return cls(*branches.reshape(4, J))

class StateFunctions:
    """A beam state ``(v, p, vdot, pdot)`` on ``[0, L]``.

    Components are callables mapping position arrays to values; states given
    as grid samples are wrapped with linear interpolation.  Membership in the
    energy space requires ``v(0) = p(0) = 0``.
    """

    __slots__ = ("v", "p", "vdot", "pdot")

    def __init__(self, v: Callable, p: Callable, vdot: Callable, pdot: Callable):
        self.v, self.p, self.vdot, self.pdot = v, p, vdot, pdot

    @classmethod
    def zero(cls) -> "StateFunctions":
        return cls(*(np.zeros_like,) * 4)

    @classmethod
    def from_samples(cls, x, v, p, vdot, pdot) -> "StateFunctions":
        x = np.asarray(x, dtype=float)
        comps = [np.asarray(a, dtype=float) for a in (v, p, vdot, pdot)]

        def interp(values):
            return lambda xs: np.interp(np.asarray(xs, dtype=float), x, values)

        return cls(*(interp(a) for a in comps))

    @classmethod
    def from_modal(cls, coeffs: "ModalCoefficients", params: BeamParameters) -> "StateFunctions":
        return _ModalState(coeffs, params)

    def sample(self, x) -> np.ndarray:
        """Evaluate all four components; returns an array of shape (4, len(x))."""
        x = np.asarray(x, dtype=float)
        out = np.empty((4, x.size), dtype=complex)
        for i, f in enumerate((self.v, self.p, self.vdot, self.pdot)):
            out[i] = f(x)
        return _real_if_exact(out)


class _ModalState(StateFunctions):
    """A modal state; ``sample`` evaluates all four components with one ``reconstruct``."""

    __slots__ = ("_modal",)

    def __init__(self, coeffs: "ModalCoefficients", params: BeamParameters):
        self._modal = (coeffs, params)
        super().__init__(*(self._component(i) for i in range(4)))

    def _component(self, i: int) -> Callable:
        return lambda xs: reconstruct(*self._modal, xs)[i]

    def sample(self, x) -> np.ndarray:
        return _real_if_exact(reconstruct(*self._modal, np.asarray(x, dtype=float)))


def _real_if_exact(samples: np.ndarray) -> np.ndarray:
    """A real copy of ``samples`` when every imaginary part is 0, else ``samples``."""
    if np.all(samples.imag == 0):
        return samples.real.copy()
    return samples


def sigma(j, length: float):
    """Spatial frequencies ``(2j - 1) * pi / (2 * length)`` of the sine basis."""
    return (2.0 * np.asarray(j) - 1.0) * np.pi / (2.0 * length)


def _families(params: BeamParameters, dc: DerivedConstants):
    """Per-family constants ``zeta``, ``b`` and mass weight ``w = rho + mu * b**2``.

    Each is a length-2 array indexed by ``family - 1``, the layout of axis 0
    of :attr:`ModalCoefficients.branches`.  ``w_k`` is the squared norm of the
    mixing vector ``(1, b_k)`` in the mass ``diag(rho, mu)``.
    """
    zeta = np.array([dc.zeta1, dc.zeta2])
    b = np.array([dc.b1, dc.b2])
    return zeta, b, params.rho + params.mu * b**2


def eigenvalues(
    params: BeamParameters, J: int, dc: DerivedConstants | None = None
) -> list[tuple[ModeIndex, complex]]:
    """Eigenvalues ``sign * i * sigma_j / zeta_family`` for ``j = 1..J``.

    All are purely imaginary and come in conjugate pairs; within a family the
    spacing of the imaginary parts is ``pi / (L * zeta_family)``.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    zeta, _, _ = _families(params, dc or derive_constants(params))
    return [
        (ModeIndex(family, sign, j), sign * 1j * sigma(j, params.length) / zeta[family - 1])
        for j in range(1, J + 1)
        for family in (1, 2)
        for sign in (+1, -1)
    ]


def eigenfunction(
    mode: ModeIndex, params: BeamParameters, x, dc: DerivedConstants | None = None
) -> np.ndarray:
    """Evaluate one eigenfunction at positions ``x``.

    The component vector is ``(1/lam, b/lam, sign, sign*b) * sin(sigma_j x)``
    with ``lam`` the eigenvalue of the ``+`` branch of the mode's family.
    Returns shape ``(4,)`` for scalar ``x`` and ``(4, len(x))`` otherwise.
    """
    zeta, b, _ = (a[mode.family - 1] for a in _families(params, dc or derive_constants(params)))
    s = sigma(mode.j, params.length)
    lam = 1j * s / zeta
    profile = np.sin(s * np.asarray(x, dtype=float))
    vec = np.array([1.0 / lam, b / lam, mode.sign, mode.sign * b], dtype=complex)
    return np.multiply.outer(vec, profile)


def reconstruct(
    coeffs: ModalCoefficients,
    params: BeamParameters,
    x,
    t: float = 0.0,
    derivative: bool = False,
    dc: DerivedConstants | None = None,
) -> np.ndarray:
    """Evaluate the modal sum at positions ``x`` and time ``t``.

    With ``derivative=True`` the x-derivative of each component is returned
    (cosine profiles), which is what the energy quadratures need.
    Returns a complex array of shape ``(4, len(x))``.
    """
    zeta, b, _ = _families(params, dc or derive_constants(params))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = sigma(np.arange(1, coeffs.truncation + 1), params.length)  # (J,)
    profile = np.cos(np.outer(s, x)) * s[:, None] if derivative else np.sin(np.outer(s, x))
    out = np.zeros((4, x.size), dtype=complex)
    for (c, d), b_k, zeta_k in zip(coeffs.branches, b, zeta):
        lam = 1j * s / zeta_k
        phase = np.exp(lam * t)
        cp, dm = c * phase, d / phase
        position = ((cp + dm) / lam) @ profile
        velocity = (cp - dm) @ profile
        out[0] += position
        out[1] += b_k * position
        out[2] += velocity
        out[3] += b_k * velocity
    return out


def project(
    state: StateFunctions,
    params: BeamParameters,
    J: int,
    cells: int = DEFAULT_QUADRATURE_CELLS,
    dc: DerivedConstants | None = None,
) -> ModalCoefficients:
    """Project a state onto the first ``J`` modes of each branch.

    One real product of the samples, real and imaginary parts stacked, with
    the trapezoid-weighted kernel ``(2/L) sin(sigma_j x)`` gives the sine
    amplitudes ``a_v, a_p, a_vd, a_pd`` of all four components.  The rule on
    ``cells`` uniform cells is exact on this family: a product of modes ``j``
    and ``k`` is half the difference of ``cos(m pi x / L)`` at ``m = j - k``
    and ``m = j + k - 1``, which it integrates exactly for ``|m| < 2 * cells``.
    Projecting a state in the span of the first ``J <= cells`` modes is
    therefore exact to rounding.

    Family ``k`` adds ``S_k = (c_k + d_k) / lam_k`` to the position amplitudes
    and ``D_k = c_k - d_k`` to the velocity amplitudes, both along the mixing
    vector ``(1, b_k)``.  These vectors are orthogonal in the mass
    ``diag(rho, mu)`` because ``b1 * b2 = -rho / mu``, so with
    ``w_k = rho + mu * b_k**2``

        S_k = (rho a_v + mu b_k a_p) / w_k,   D_k = (rho a_vd + mu b_k a_pd) / w_k,

    and ``c_k = (lam_k S_k + D_k) / 2``, ``d_k = (lam_k S_k - D_k) / 2``.
    Reconstructing and re-projecting is the identity on the truncated span.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    zeta, b, w = _families(params, dc or derive_constants(params))
    rho, mu, L = params.rho, params.mu, params.length
    x = np.linspace(0.0, L, cells + 1)
    s = sigma(np.arange(1, J + 1), L)
    kernel = np.sin(np.outer(s, x)) * (2.0 / cells)
    kernel[:, -1] *= 0.5  # trapezoid end weight; the sines vanish at x = 0
    samples = state.sample(x)
    # (real, imaginary) pairs from one real product: BLAS sums it more
    # accurately than a complex one, and real division rounds once
    amps = np.vstack((samples.real, samples.imag)) @ kernel.T
    a_v, a_p, a_vd, a_pd = amps.reshape(2, 4, J).swapaxes(0, 1)
    branches = []
    for b_k, zeta_k, w_k in zip(b, zeta, w):
        s_k = (rho * a_v + mu * b_k * a_p) / w_k
        d_k = (rho * a_vd + mu * b_k * a_pd) / w_k
        lam_s = (1j * s / zeta_k) * (s_k[0] + 1j * s_k[1])
        d = d_k[0] + 1j * d_k[1]
        branches += [(lam_s + d) / 2, (lam_s - d) / 2]
    return ModalCoefficients(*branches)


def projection_residual(
    state: StateFunctions,
    coeffs: ModalCoefficients,
    params: BeamParameters,
    cells: int = DEFAULT_QUADRATURE_CELLS,
) -> float:
    """Relative L2 mismatch between a state and its truncated reconstruction."""
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    x = np.linspace(0.0, params.length, cells + 1)
    original = state.sample(x)
    rebuilt = reconstruct(coeffs, params, x)
    diff = np.abs(np.asarray(original, dtype=complex) - rebuilt) ** 2
    denom = np.trapezoid(np.sum(np.abs(original) ** 2, axis=0), x)
    if denom == 0:
        return 0.0
    return float(np.sqrt(np.trapezoid(np.sum(diff, axis=0), x) / denom))


def propagate(
    coeffs: ModalCoefficients,
    params: BeamParameters,
    t: float,
    dc: DerivedConstants | None = None,
) -> ModalCoefficients:
    """Advance modal coefficients by time ``t`` (a group: ``t < 0`` rewinds).

    Each branch picks up a unit-modulus phase, so the modal energy norm is
    conserved exactly.
    """
    zeta, _, _ = _families(params, dc or derive_constants(params))
    J = coeffs.truncation
    phase = np.exp(1j * sigma(np.arange(1, J + 1), params.length) * t / zeta[:, None])
    c, d = coeffs.branches.swapaxes(0, 1)
    return ModalCoefficients(*np.stack((c * phase, d / phase), axis=1).reshape(4, J))


def modal_norm_sq(
    coeffs: ModalCoefficients,
    params: BeamParameters,
    dc: DerivedConstants | None = None,
) -> float:
    """Squared energy norm of the state with the given modal coefficients.

    Orthogonality of the eigenfunctions gives

        N^2 = L * sum_k w_k * sum_j (|c_kj|^2 + |d_kj|^2),   w_k = rho + mu * b_k^2.

    The physical energy is ``(thickness / 2) * N^2``.
    """
    _, _, w = _families(params, dc or derive_constants(params))
    branch_sums = np.sum(np.abs(coeffs.branches) ** 2, axis=2)  # (family, branch)
    return float(params.length * np.sum(w * (branch_sums[:, 0] + branch_sums[:, 1])))


def sinc_gram(delta, T: float) -> np.ndarray:
    """Real symmetric kernel ``T * sinc(delta * T / (2 pi))`` (normalised sinc).

    It is :func:`phase_integral` without its unit phase ``exp(i delta T/2)``,
    which factors as ``exp(i s_m T/2) exp(-i s_n T/2)`` for ``delta = s_m - s_n``:
    a unitary similarity, so both Gram matrices share their eigenvalues.
    """
    return T * np.sinc(np.asarray(delta, dtype=float) * (T / (2.0 * np.pi)))


def phase_integral(delta, T: float) -> np.ndarray:
    """Exact ``int_0^T exp(i * delta * t) dt = exp(i delta T/2) * sinc_gram(delta, T)``.

    One expression for every gap: it does not cancel at small ``delta * T``,
    and coincident frequencies (``delta == 0``) integrate to exactly ``T``.
    """
    return np.exp(0.5j * T * np.asarray(delta, dtype=float)) * sinc_gram(delta, T)


_BRANCH_SIGN = np.array([1.0, -1.0])[:, None]  # the + and - branches of axis 1


def _frequencies(zeta: np.ndarray, J: int, length: float) -> np.ndarray:
    """Frequencies ``sign * sigma_j / zeta_k`` of shape ``(family, branch, j)``."""
    return _BRANCH_SIGN * (sigma(np.arange(1, J + 1), length) / zeta[:, None, None])


def _snapped_differences(freqs: np.ndarray, T: float) -> np.ndarray:
    """Pairwise differences ``freqs[m] - freqs[n]`` for a Gram on ``[0, T]``.

    Differences below ``1e-12 * max(1, max |freqs|)`` are snapped to exactly
    0, so numerically coincident frequencies integrate to exactly ``T``; the
    zero entries are then exactly the coincident pairs.  Raises
    ``ValueError`` unless ``0 < T < inf``.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"T must be finite and > 0, got {T}")
    scale = max(1.0, float(np.max(np.abs(freqs), initial=0.0)))
    delta = freqs[:, None] - freqs[None, :]
    delta[np.abs(delta) < 1e-12 * scale] = 0.0
    return delta


def _output_weights(
    coeffs: ModalCoefficients, params: BeamParameters, dc: DerivedConstants
):
    """Frequencies and complex weights of the electrode-current signal.

    The observation is ``-(1/h) * pdot(L, t)``; evaluated on the modal sum it
    is an exponential polynomial ``sum_n w_n exp(i s_n t)`` with frequencies
    ``+/- sigma_j / zeta_k`` and weights proportional to ``b_k`` and the
    boundary sign ``sin(sigma_j L) = (-1)**(j+1)``.
    """
    zeta, b, _ = _families(params, dc)
    j = np.arange(1, coeffs.truncation + 1)
    bsign = np.where(j % 2 == 1, 1.0, -1.0)  # (-1)**(j+1)
    freqs = _frequencies(zeta, coeffs.truncation, params.length)
    weights = (
        (_BRANCH_SIGN * (bsign * b[:, None, None])) * coeffs.branches * (-1.0 / params.thickness)
    )
    keep = weights != 0
    return freqs[keep], weights[keep]


def output_energy(
    coeffs: ModalCoefficients,
    params: BeamParameters,
    T: float,
    dc: DerivedConstants | None = None,
) -> float:
    """Exact output energy ``int_0^T |current observation|^2 dt``.

    Computed by analytic pairwise integration of the exponential polynomial,
    not by time quadrature, so resonant (coincident-frequency) pairs are
    handled exactly and nothing aliases.
    """
    freqs, weights = _output_weights(coeffs, params, dc or derive_constants(params))
    delta = _snapped_differences(freqs, T)
    if freqs.size == 0:
        return 0.0
    gram = phase_integral(delta, T)
    total = np.real(weights @ gram @ np.conj(weights))
    return max(float(total), 0.0)


def resolvent_at_zero(
    g: StateFunctions,
    params: BeamParameters,
    cells: int = DEFAULT_QUADRATURE_CELLS,
) -> StateFunctions:
    """Solve ``A_d U = G`` for the damped generator at zero frequency.

    The damped generator (electrical feedback with gain ``1/(2h)``) is
    boundedly invertible at zero.  The position components come from the
    kernel ``K(x, r) = min(x, r)`` of the one-dimensional Laplacian with a
    fixed left end and free right end, plus linear boundary corrections
    proportional to ``g2(L)``; the velocity components are copied from the
    position components of ``G``.

    Raises
    ------
    QuadratureFailure
        If the supplied samples produce non-finite integrals.
    """
    dc = derive_constants(params)
    rho, a1, beta, gamma, mu = (
        params.rho,
        params.alpha1,
        params.beta,
        params.gamma,
        params.mu,
    )
    L, h = params.length, params.thickness
    x = np.linspace(0.0, L, cells + 1)
    g1, g2, g3, g4 = g.sample(x)
    g2L = g2[-1]

    def kernel_integral(f):
        # int_0^L min(x, r) f(r) dr = int_0^x r f + x * int_x^L f
        rf = cumulative_trapezoid(x * f, x, initial=0.0)
        tot = cumulative_trapezoid(f, x, initial=0.0)
        return rf + x * (tot[-1] - tot)

    u1 = (1.0 / a1) * kernel_integral(rho * g3 + gamma * mu * g4) - (
        gamma / (2.0 * h**2 * a1)
    ) * g2L * x
    u2 = -(1.0 / a1) * kernel_integral(
        ((dc.alpha + a1) * rho / (gamma * beta)) * g3 + (mu * dc.alpha / beta) * g4
    ) - (1.0 / (2.0 * h**2)) * (gamma**2 / a1 + 1.0 / beta) * g2L * x
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
        raise QuadratureFailure("kernel integrals produced non-finite values")
    return StateFunctions.from_samples(x, u1, u2, g1, g2)
