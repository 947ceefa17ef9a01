"""Exact eigenstructure of the undamped beam generator and modal calculus.

The undamped generator of the coupled stretching system is skew-adjoint with
purely imaginary eigenvalues ``+/- i * sigma_j / zeta_k`` where
``sigma_j = (2j - 1) * pi / (2L)`` and ``k in {1, 2}`` indexes the wave
family.  Its eigenfunctions are sine profiles mixed across the displacement
and charge components by the coefficients ``b1``, ``b2``.  The mixing vectors
``(1, b_k)`` are orthogonal in the mass ``diag(rho, mu)`` (``b1 b2 = -rho/mu``),
so projection inverts the sine amplitudes family by family in closed form.
This module provides the eigen-decomposition, projection of states onto the
eigenbasis, unitary modal propagation, energy norms, the output energy of the
electrode-current observation, and the inverse of the damped generator at
zero frequency.  The wave families are described once, by :func:`_model`.

The spectrum is one table, :func:`_frequencies`: ``sign * sigma_j / zeta_k``
on the ``(family, branch, j)`` axes of :attr:`ModalCoefficients.branches`,
the branch sign a broadcast axis.  :func:`eigenvalues` are ``i`` times it,
:func:`propagate` multiplies by ``exp(i t freq)``, and :func:`reconstruct`
(through :func:`propagate`), :func:`project` and the output energy read it.

The modal sine tables cost no transcendental per entry.  Reconstruction at
arbitrary positions takes its sine and cosine profiles from the waves
``exp(i sigma_j x)``, built by phase doubling from ``log2(J)`` exponentials of
the positions.  On the ``cells + 1`` uniform quadrature nodes, sines go both
ways through one quarter-wave sine transform, a real FFT of length
``4 * cells``: the analysis :func:`_sine_amplitudes` reads the mode
amplitudes of trapezoid-weighted samples from its odd entries, and the
synthesis :func:`_sine_synthesis` places amplitudes there to sample their
sine sums.  :func:`project`, :func:`projection_residual` and
:func:`resolvent_at_zero` read a state on those nodes through
``StateFunctions._quadrature_samples``; a modal state answers with one
synthesis of its field rows instead of a ``(J, cells + 1)`` wave table,
unless its beam length differs or its truncation exceeds ``2 * cells``,
where it falls back to :meth:`StateFunctions.sample`.

The output energy integrates the exponential polynomial of the observation
pair by pair.  Pairs of frequencies closer than ``1/T`` take the exact phase
integral ``exp(i delta T/2) * T * sinc``; all others take
``(exp(i delta T) - 1) / (i delta)``, whose phases factor per frequency, so
the far pairs reduce to one real antisymmetric ``1/delta`` matrix applied to
two real vectors.

Everything is pure and immutable; all operations may run concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonPositiveParameter, QuadratureFailure
from .params import BeamParameters, _check_integer, _check_option, derive_constants

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
        _check_integer(self.family, "family")
        if self.family not in (1, 2):
            raise NonPositiveParameter(f"family must be 1 or 2, got {self.family}")
        _check_integer(self.sign, "sign", minimum=-1)
        if self.sign not in (1, -1):
            raise NonPositiveParameter(f"sign must be +1 or -1, got {self.sign}")
        _check_integer(self.j, "mode index j")


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

    @classmethod
    def _from_branches(cls, branches: np.ndarray) -> "ModalCoefficients":
        """Wrap a fresh complex ``(family, branch, j)`` array, uncopied; it becomes read-only."""
        coeffs = cls.__new__(cls)
        coeffs.branches = branches
        branches.flags.writeable = False
        return coeffs

    c1 = property(lambda self: self.branches[0, 0])
    d1 = property(lambda self: self.branches[0, 1])
    c2 = property(lambda self: self.branches[1, 0])
    d2 = property(lambda self: self.branches[1, 1])

    @property
    def truncation(self) -> int:
        return self.branches.shape[2]

    @classmethod
    def zeros(cls, J: int) -> "ModalCoefficients":
        _check_integer(J, "J", minimum=0)
        return cls._from_branches(np.zeros((2, 2, J), dtype=complex))

    @classmethod
    def single(cls, mode: ModeIndex, J: int, amplitude: complex = 1.0) -> "ModalCoefficients":
        """Coefficient set with a single active mode."""
        _check_integer(J, "J", minimum=0)
        if mode.j > J:
            raise ValueError(f"j={mode.j} exceeds truncation J={J}")
        branches = np.zeros((2, 2, J), dtype=complex)
        branches[mode.family - 1, (1 - mode.sign) // 2, mode.j - 1] = amplitude
        return cls._from_branches(branches)


class StateFunctions:
    """A beam state ``(v, p, vdot, pdot)`` on ``[0, L]``.

    Components are callables mapping position arrays to values; states given
    as samples are wrapped with linear interpolation, complex samples
    staying complex and all others becoming float.  Membership in the
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
        """Interpolate the samples at the nodes ``x`` linearly.

        Raises ``ValueError`` unless all five are finite, 1-d and of one
        length >= 2, with ``x`` strictly increasing.
        """
        x = np.asarray(x, dtype=float)
        fields = [
            np.asarray(a, complex if np.iscomplexobj(a) else float) for a in (v, p, vdot, pdot)
        ]
        if x.ndim != 1 or x.size < 2 or any(a.shape != x.shape for a in fields):
            raise ValueError("samples must be five 1-d arrays of one length >= 2")
        if not all(np.all(np.isfinite(a)) for a in (x, *fields)):
            raise ValueError("samples must be finite")
        if not np.all(np.diff(x) > 0):
            raise ValueError("x must increase strictly")
        return cls(*(functools.partial(np.interp, xp=x, fp=a) for a in fields))

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

    def _quadrature_samples(self, length: float, J: int = 0) -> np.ndarray:
        """:meth:`sample` on ``_quadrature_nodes(length, J)``, shape ``(4, cells + 1)``."""
        return self.sample(_quadrature_nodes(length, J))


class _ModalState(StateFunctions):
    """A modal state; ``sample`` evaluates all four components with one ``reconstruct``.

    On the quadrature nodes of its own beam length it samples itself with one
    :func:`_sine_synthesis` of its field rows instead, while its truncation is
    at most ``2 * cells``; otherwise it falls back to :meth:`sample`.
    """

    __slots__ = ("_modal",)

    def __init__(self, coeffs: "ModalCoefficients", params: BeamParameters):
        self._modal = (coeffs, params)
        super().__init__(*(self._component(i) for i in range(4)))

    def _component(self, i: int) -> Callable:
        return lambda xs: reconstruct(*self._modal, xs)[i]

    def sample(self, x) -> np.ndarray:
        return _real_if_exact(reconstruct(*self._modal, np.asarray(x, dtype=float)))

    def _quadrature_samples(self, length: float, J: int = 0) -> np.ndarray:
        coeffs, params = self._modal
        cells = _quadrature_cells(J)
        if params.length != length or coeffs.truncation > 2 * cells:
            return super()._quadrature_samples(length, J)
        fields = _sine_synthesis(_field_rows(coeffs, params), cells)
        return _real_if_exact(fields[:4] + 1j * fields[4:])


def _real_if_exact(samples: np.ndarray) -> np.ndarray:
    """A real copy of ``samples`` when every imaginary part is 0, else ``samples``."""
    if np.all(samples.imag == 0):
        return samples.real.copy()
    return samples


def sigma(j, length: float):
    """Spatial frequencies ``(2j - 1) * pi / (2 * length)`` of the sine basis."""
    return (2.0 * np.asarray(j) - 1.0) * np.pi / (2.0 * length)


_BRANCH_SIGN = np.array([1.0, -1.0])[:, None]  # the + and - branches of axis 1


def _frequencies(zeta: np.ndarray, J: int, length: float) -> np.ndarray:
    """Frequencies ``sign * sigma_j / zeta_k`` of shape ``(family, branch, j)``."""
    return _BRANCH_SIGN * (sigma(np.arange(1, J + 1), length) / zeta[:, None, None])


def _waves(J: int, x: np.ndarray, length: float) -> np.ndarray:
    """``exp(1j * sigma_j * x)`` for ``j = 1..J``, shape ``(J, len(x))``.

    Built by doubling rather than one transcendental per entry: row 0 is
    ``exp(1j * theta)`` with ``theta = pi * x / (2 * length)``, and rows
    ``n..2n-1`` are rows ``0..n-1`` times ``exp(2j * n * theta)``, whose
    argument is exact because ``n`` is a power of two.  That is ``log2(J)``
    exponentials of ``len(x)`` entries; the error of row ``j`` stays at the
    rounding of its argument, ``eps * |sigma_j * x|``.
    """
    theta = (np.pi / (2.0 * length)) * x
    waves = np.empty((J, x.size), dtype=complex)
    if J:
        waves[0] = np.exp(1j * theta)
    n = 1
    while n < J:
        m = min(n, J - n)
        np.multiply(waves[:m], np.exp((2j * n) * theta), out=waves[n : n + m])
        n *= 2
    return waves


def _sine_sums(c: np.ndarray, n: int) -> np.ndarray:
    """``sum_l c[..., l] * sin(pi * i * l / (2n))`` for ``i = 0..2n``, by one real FFT.

    The quarter-wave sine transform of both :func:`project` and the
    time-domain sine basis; ``c`` holds at most ``4n`` entries per row.
    """
    return -np.fft.rfft(c, 4 * n).imag


def _sine_amplitudes(rows: np.ndarray, n: int, J: int) -> np.ndarray:
    """Amplitudes ``a_j``, ``j = 1..J``, of ``sum_j a_j sin(sigma_j x)`` through ``rows``.

    ``rows[..., l]`` samples ``x_l = l * L / n``, ``l = 0..n``.  Under the
    trapezoid weights, 1/2 on node ``n``, the sines are orthogonal with squared
    norm ``n/2``; node 0, where they vanish, is not read.
    """
    weighted = rows.copy()
    weighted[..., n] *= 0.5  # trapezoid end weight
    return (2.0 / n) * _sine_sums(weighted, n)[..., 1 : 2 * J : 2]


def _sine_synthesis(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """``sum_j a_j sin(sigma_j x_l)`` on ``x_l = l * L / n``, ``l = 0..n``: the inverse of
    :func:`_sine_amplitudes`.

    ``amplitudes[..., j - 1]`` holds the real ``a_j``, ``j = 1..J`` with
    ``J <= 2n``; ``a_j`` sits at index ``2j - 1`` of one :func:`_sine_sums`.
    """
    c = np.zeros((*amplitudes.shape[:-1], 2 * amplitudes.shape[-1]))
    c[..., 1::2] = amplitudes
    return _sine_sums(c, n)[..., : n + 1]


def _quadrature_cells(J: int = 0) -> int:
    """``max(J, DEFAULT_QUADRATURE_CELLS)``: the cells that :func:`project` integrates over."""
    return max(J, DEFAULT_QUADRATURE_CELLS)


def _quadrature_nodes(length: float, J: int = 0) -> np.ndarray:
    """``_quadrature_cells(J) + 1`` uniform nodes on ``[0, length]``."""
    return np.linspace(0.0, length, _quadrature_cells(J) + 1)


class _Model(NamedTuple):
    """The wave families of ``M u_tt = K u_xx``, ``K u_x(L) = -(V/h) c``.

    Family ``k`` sits at index ``k - 1``, as on axis 0 of
    :attr:`ModalCoefficients.branches`: reciprocal speed ``zeta_k``, mixing
    column ``mix[:, k - 1]``, orthogonal in ``M`` with squared norm ``w_k``.
    ``u = P w`` with ``P = mix / sqrt(w)``, ``P^T M P = I``, ``P^T K P = diag(lam)``.
    Coupled, ``u = (v, p)``: ``M = diag(rho, mu)``, ``c = (0, 1)``,
    ``K = [[alpha, -gamma*beta], [-gamma*beta, beta]]``, ``mix = [[1, 1], [b1, b2]]``
    and ``lam = 1 / zeta**2``.  Classical, ``u = (v,)``: ``M = rho``,
    ``K = alpha1``, ``c = gamma``, ``mix = 1`` and ``lam = alpha1 / rho``.
    ``modes[-1]`` is the row fed back, and ``dt <= zeta[-1] * dx``.  Read-only.
    """

    zeta: np.ndarray  # (m,) reciprocal wave speeds
    mix: np.ndarray  # (fields, m) mixing columns
    w: np.ndarray  # (m,) squared M-norms of the mixing columns
    modes: np.ndarray  # P: u = P w
    decouple: np.ndarray  # P^T M: w = P^T M u
    lam: np.ndarray  # (m,) squared modal speeds
    drive: np.ndarray  # P^T c, the modal driven-end vector


@functools.lru_cache
def _model(params: BeamParameters, classical: bool = False) -> _Model:
    """The coupled or the classical :class:`_Model` of ``params``, memoised.

    Callers write ``_model(params)`` or ``_model(params, classical=True)``; a
    :class:`BeamParameters` is valid by construction, so neither form checks it.
    """
    if classical:
        rho = params.rho
        zeta = np.array([math.sqrt(rho / params.alpha1)])
        lam = np.array([params.alpha1 / rho])  # as given, not 1 / zeta**2 rounded twice
        mix, mass, c = [[1.0]], [rho], [params.gamma]
    else:
        dc = derive_constants(params)
        zeta = np.array([dc.zeta1, dc.zeta2])
        lam = 1.0 / zeta**2
        mix, mass, c = [[1.0, 1.0], [dc.b1, dc.b2]], [params.rho, params.mu], [0.0, 1.0]
    mix, mass = np.array(mix), np.array(mass)
    w = np.sum(mass[:, None] * mix**2, axis=0)
    modes = mix / np.sqrt(w)
    model = _Model(zeta, mix, w, modes, modes.T * mass, lam, modes.T @ np.array(c))
    for a in model:
        a.flags.writeable = False
    return model


def eigenvalues(params: BeamParameters, J: int) -> list[tuple[ModeIndex, complex]]:
    """Eigenvalues ``i * sign * sigma_j / zeta_family`` for ``j = 1..J``.

    The imaginary parts are the :func:`_frequencies` table and every real part
    is ``+0.0``.  They come in conjugate pairs; within a family the spacing of
    the imaginary parts is ``pi / (L * zeta_family)``.
    A ``J`` below 1 raises :class:`NonPositiveParameter`, a non-integer :class:`MalformedValue`.
    """
    columns = (column.tolist() for column in _spectrum_columns(params, J))
    return [(ModeIndex(family, sign, j), complex(0.0, im)) for family, sign, j, im in zip(*columns)]


def _spectrum_columns(params: BeamParameters, J: int) -> tuple[np.ndarray, ...]:
    """Columns ``family``, ``sign``, ``j`` and ``im`` of the spectrum, in :func:`eigenvalues`' order.

    ``j`` runs slowest, then the family, then the sign ``+``, ``-``: the
    :func:`_frequencies` table with its ``j`` axis moved first, flattened.
    A ``J`` below 1 raises :class:`NonPositiveParameter`, a non-integer :class:`MalformedValue`.
    """
    _check_option("J", J)
    im = np.moveaxis(_frequencies(_model(params).zeta, J, params.length), 2, 0)  # (j, family, branch)
    j, family, branch = np.indices(im.shape)
    return family.ravel() + 1, 1 - 2 * branch.ravel(), j.ravel() + 1, im.ravel()


def eigenfunction(mode: ModeIndex, params: BeamParameters, x) -> np.ndarray:
    """Evaluate one eigenfunction at positions ``x``.

    The component vector is ``(1/lam, b/lam, sign, sign*b) * sin(sigma_j x)``
    with ``lam`` the eigenvalue of the ``+`` branch of the mode's family.
    Returns shape ``(4,)`` for scalar ``x`` and ``(4, len(x))`` otherwise.
    """
    values = reconstruct(ModalCoefficients.single(mode, mode.j), params, x)
    return values[:, 0] if np.ndim(x) == 0 else values


def reconstruct(
    coeffs: ModalCoefficients,
    params: BeamParameters,
    x,
    t: float = 0.0,
    derivative: bool = False,
) -> np.ndarray:
    """Evaluate the modal sum at positions ``x`` and time ``t``.

    With ``derivative=True`` the x-derivative of each component is returned
    (cosine profiles).  The profiles are the imaginary (sine) or real (cosine)
    parts of :func:`_waves`.  The phase is :func:`propagate`'s, so time ``t`` is
    bitwise ``reconstruct(propagate(coeffs, params, t), params, x)``.  A
    coefficient ``a`` adds ``sign * a / (i * freq)`` to the positions and
    ``sign * a`` to the velocities along its family's mixing column
    ``(1, b_k)``.  The branches are summed and the families mixed into four
    rows, whose real and imaginary parts, stacked, take one real product with
    the profiles.  Returns a complex array of shape ``(4, len(x))``.  Raises
    ``ValueError`` unless ``t`` is finite.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    J = coeffs.truncation
    s = sigma(np.arange(1, J + 1), params.length)  # (J,)
    waves = _waves(J, x, params.length)
    profile = waves.real * s[:, None] if derivative else waves.imag
    fields = _field_rows(coeffs, params, t) @ profile
    return fields[:4] + 1j * fields[4:]


def _field_rows(coeffs: ModalCoefficients, params: BeamParameters, t: float = 0.0) -> np.ndarray:
    """The real ``(8, J)`` sine amplitudes of the four fields at time ``t``.

    Rows 0..3 are the real parts and rows 4..7 the imaginary parts of
    ``(position, b * position, velocity, b * velocity)``; see :func:`reconstruct`.
    """
    model = _model(params)
    J = coeffs.truncation
    velocity = _BRANCH_SIGN * propagate(coeffs, params, t).branches  # (family, branch, J)
    amps = np.stack((velocity / (1j * _frequencies(model.zeta, J, params.length)), velocity))
    # rows (position, b * position, velocity, b * velocity): branches summed, families mixed
    rows = model.mix @ amps.sum(axis=2)
    return np.vstack((rows.real, rows.imag)).reshape(8, J)


def project(state: StateFunctions, params: BeamParameters, J: int) -> ModalCoefficients:
    """Project a state onto the first ``J`` modes of each branch.

    The state is sampled on the :func:`_quadrature_nodes` (a modal state of
    this beam by one :func:`_sine_synthesis` of its field rows, truncations
    above ``2 * cells`` and other states by :meth:`StateFunctions.sample`).
    The samples, real and imaginary parts stacked, go through one
    quarter-wave sine analysis (:func:`_sine_amplitudes`), which gives the
    sine amplitudes of all four components against ``(2/L) sin(sigma_j x)``
    by the trapezoid rule on the ``cells = max(J, DEFAULT_QUADRATURE_CELLS)``
    of :func:`_quadrature_nodes`, exact on this family: a product of modes
    ``j`` and ``k`` is half the difference of ``cos(m pi x / L)`` at
    ``m = j - k`` and ``m = j + k - 1``, which it integrates exactly for
    ``|m| < 2 * cells``.  Since ``J <= cells``, projecting a state in the
    span of the first ``J`` modes is exact to rounding for every ``J``.

    Family ``k`` adds ``S_k = sum sign * a / (i * freq)`` to the position
    amplitudes and ``D_k = sum sign * a`` to the velocity amplitudes along its
    mixing column of :class:`_Model`, summed over its two branches (see
    :func:`reconstruct`); the columns are orthogonal in the mass ``M``, so
    ``(S, D) = (mix^T M / w) (a_pos, a_vel)``, and one broadcast over the
    branch axis inverts the sums: ``a = 0.5 * sign * (i * freq * S_k + D_k)``.
    Reconstructing and re-projecting is the identity on the truncated span.
    A ``J`` below 1 raises :class:`NonPositiveParameter`, a non-integer :class:`MalformedValue`.
    """
    _check_option("J", J)
    model = _model(params)
    L = params.length
    samples = state._quadrature_samples(L, J)
    # real and imaginary parts in real arithmetic: (part, position/velocity, field, j)
    amps = _sine_amplitudes(np.vstack((samples.real, samples.imag)), _quadrature_cells(J), J)
    unmix = model.decouple / np.sqrt(model.w)[:, None]  # mix^T M / w
    re, im = unmix @ amps.reshape(2, 2, 2, J)  # (position/velocity, family, j)
    S, D = (re + 1j * im)[:, :, None]  # broadcast over the branch axis
    branches = 0.5 * _BRANCH_SIGN * (1j * _frequencies(model.zeta, J, L) * S + D)
    return ModalCoefficients._from_branches(branches)


def projection_residual(
    state: StateFunctions, coeffs: ModalCoefficients, params: BeamParameters
) -> float:
    """Relative L2 mismatch between a state and its truncated reconstruction.

    Trapezoid rule on the nodes that :func:`project` samples at the
    truncation ``J`` of ``coeffs``, so no mode of the span aliases another.
    The state and the reconstruction of ``coeffs`` are each sampled there as
    :func:`project` samples: a modal state of this beam, and ``coeffs``
    always, by one :func:`_sine_synthesis`, any other state by
    :meth:`StateFunctions.sample`.
    """
    L, J = params.length, coeffs.truncation
    x = _quadrature_nodes(L, J)
    original = state._quadrature_samples(L, J)
    diff = np.abs(original - _ModalState(coeffs, params)._quadrature_samples(L, J)) ** 2
    denom = np.trapezoid(np.sum(np.abs(original) ** 2, axis=0), x)
    if denom == 0:
        return 0.0
    return float(np.sqrt(np.trapezoid(np.sum(diff, axis=0), x) / denom))


def propagate(coeffs: ModalCoefficients, params: BeamParameters, t: float) -> ModalCoefficients:
    """Advance modal coefficients by time ``t`` (a group: ``t < 0`` rewinds).

    Each branch picks up the unit-modulus phase ``exp(i * t * freq)``, with
    ``freq = sign * sigma_j / zeta_k`` from :func:`_frequencies`, so the modal
    energy norm is conserved exactly.  Raises ``ValueError`` unless ``t`` is
    finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    phase = np.exp(1j * t * _frequencies(_model(params).zeta, coeffs.truncation, params.length))
    return ModalCoefficients._from_branches(coeffs.branches * phase)


def modal_norm_sq(coeffs: ModalCoefficients, params: BeamParameters) -> float:
    """Squared energy norm of the state with the given modal coefficients.

    Orthogonality of the eigenfunctions gives

        N^2 = L * sum_k w_k * sum_j (|c_kj|^2 + |d_kj|^2),   w_k = rho + mu * b_k^2.

    The physical energy is ``(thickness / 2) * N^2``.
    """
    w = _model(params).w
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


def _snap_tolerance(freqs: np.ndarray, T: float) -> float:
    """Differences of ``freqs`` below this modulus count as coincident in a Gram on ``[0, T]``.

    The tolerance is ``1e-12 * max(1, max |freqs|)``; :func:`_snapped` sets
    such differences to exactly 0, so numerically coincident frequencies
    integrate to exactly ``T``.  A ``T`` <= 0 raises
    :class:`NonPositiveParameter`, a non-finite one :class:`MalformedValue`.
    """
    _check_option("T", T)
    return 1e-12 * max(1.0, float(np.max(np.abs(freqs), initial=0.0)))


def _snapped(delta: np.ndarray, tol: float) -> np.ndarray:
    """``delta`` with every entry below ``tol`` in modulus set to exactly 0, in place."""
    np.copyto(delta, 0.0, where=np.abs(delta) < tol)
    return delta


def _snapped_differences(freqs: np.ndarray, T: float) -> np.ndarray:
    """Pairwise differences ``freqs[m] - freqs[n]`` for a Gram on ``[0, T]``, snapped.

    The zero entries are exactly the coincident pairs (:func:`_snap_tolerance`).
    """
    return _snapped(freqs[:, None] - freqs[None, :], _snap_tolerance(freqs, T))


def _output_weights(coeffs: ModalCoefficients, params: BeamParameters):
    """Frequencies and complex weights of the electrode-current signal.

    The observation is ``-(1/h) * pdot(L, t)``; evaluated on the modal sum it
    is an exponential polynomial ``sum_n w_n exp(i s_n t)`` with frequencies
    ``+/- sigma_j / zeta_k`` and weights proportional to ``b_k`` and the
    boundary sign ``sin(sigma_j L) = (-1)**(j+1)``.
    """
    model = _model(params)
    j = np.arange(1, coeffs.truncation + 1)
    bsign = np.where(j % 2 == 1, 1.0, -1.0)  # (-1)**(j+1)
    freqs = _frequencies(model.zeta, coeffs.truncation, params.length)
    b = model.mix[-1][:, None, None]  # the charge row, b_k
    weights = (_BRANCH_SIGN * (bsign * b)) * coeffs.branches * (-1.0 / params.thickness)
    keep = weights != 0
    return freqs[keep], weights[keep]


def _near_pairs(freqs: np.ndarray, T: float, tol: float):
    """Index pairs ``(m, n)`` with ``|delta| * T < 1``, row-major, and their ``delta``.

    ``delta = freqs[m] - freqs[n]`` is snapped at ``tol`` (:func:`_snapped`), so
    the near pairs are the diagonal, every coincident pair and the close
    collisions.  One stable sort of the frequencies bounds the candidates: for
    each frequency, the band of sorted neighbours within
    ``(1 / T) * (1 + 1e-9) + 2 * tol``, wider than either test by more than
    the rounding of the band's ends.  The exact test then keeps the near
    ones, and :func:`numpy.lexsort` puts them in :func:`numpy.nonzero`'s order.
    """
    order = np.argsort(freqs, kind="stable")
    s = freqs[order]
    radius = (1.0 / T) * (1.0 + 1e-9) + 2.0 * tol
    lo = np.searchsorted(s, s - radius, side="left")
    counts = np.searchsorted(s, s + radius, side="right") - lo
    rows = np.repeat(np.arange(s.size), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    m, n = order[rows], order[cols]
    delta = _snapped(freqs[m] - freqs[n], tol)
    near = np.abs(delta) * T < 1.0
    m, n, delta = m[near], n[near], delta[near]
    first = np.lexsort((n, m))
    return m[first], n[first], delta[first]


def output_energy(coeffs: ModalCoefficients, params: BeamParameters, T: float) -> float:
    """Exact output energy ``int_0^T |current observation|^2 dt``.

    The observation is ``sum_n w_n exp(i s_n t)`` (:func:`_output_weights`),
    so the energy is ``sum_{m,n} w_m conj(w_n) int_0^T exp(i delta t) dt`` with
    ``delta = s_m - s_n``: pairwise integration, not time quadrature, so
    nothing aliases.  The pairs split at ``|delta| * T = 1``:

    * near pairs (``|delta| * T < 1``: the diagonal, every snapped coincident
      pair and the close collisions) take the exact :func:`phase_integral`.
      They lie in a band of the sorted frequencies, so :func:`_near_pairs`
      finds them without an ``(n, n)`` mask;
    * far pairs integrate to ``(exp(i delta T) - 1) / (i delta)`` without
      cancellation.  With ``a = w * exp(i s T)`` and ``C`` the real
      antisymmetric matrix ``1 / delta`` on far pairs and 0 elsewhere, their
      sum is ``2 * (Im(a) @ C @ Re(a) - Im(w) @ C @ Re(w))``: one real
      ``(n, n) @ (n, 2)`` product, with no transcendental per pair.  ``C`` is
      the one ``(n, n)`` array: the differences, inverted in place, with the
      near pairs set to 0.

    The result is bitwise that of masking the near pairs with ``(n, n)``
    boolean arrays: the same differences, the same near sum in the same
    order and the same ``C``.
    """
    freqs, weights = _output_weights(coeffs, params)
    tol = _snap_tolerance(freqs, T)
    if freqs.size == 0:
        return 0.0
    m, n, delta = _near_pairs(freqs, T, tol)
    total = np.sum(np.real(weights[m] * np.conj(weights[n]) * phase_integral(delta, T)))
    inverse = freqs[:, None] - freqs[None, :]
    with np.errstate(divide="ignore", over="ignore"):  # near pairs only, zeroed next
        np.divide(1.0, inverse, out=inverse)
    inverse[m, n] = 0.0
    a = weights * np.exp(1j * T * freqs)
    sums = inverse @ np.stack((a.real, weights.real), axis=1)
    total += 2.0 * (a.imag @ sums[:, 0] - weights.imag @ sums[:, 1])
    return max(float(total), 0.0)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)`` along the last axis."""
    s = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros_like(s[..., :1]), s), axis=-1)


def resolvent_at_zero(g: StateFunctions, params: BeamParameters) -> StateFunctions:
    """Solve ``A_d U = G`` for the damped generator at zero frequency.

    With the feedback ``V = pdot(L) / (2h)``, ``(U3, U4) = (g1, g2)`` and
    ``u = (U1, U2)`` solves, with ``M``, ``K`` and ``c`` of :class:`_Model`,

        K u'' = M (g3, g4),   u(0) = 0,   K u'(L) = -(g2(L) / (2 h**2)) c.

    With ``f = P^T M (g3, g4)`` each family solves ``lam_k w_k'' = f_k``,
    ``w_k(0) = 0``, ``lam_k w_k'(L) = flux_k = -(g2(L) / (2 h**2)) (P^T c)_k``,
    so with the kernel ``min(x, r)`` of the fixed-free Laplacian

        w_k = (flux_k x - int_0^L min(x, r) f_k(r) dr) / lam_k,   u = P w.

    The integrals use the trapezoid rule on the :func:`_quadrature_nodes` at
    ``J = 0``; the result interpolates linearly between those nodes.

    Raises
    ------
    QuadratureFailure
        If a sample of ``g`` is not finite, or the integrals overflow.
    """
    model = _model(params)
    x = _quadrature_nodes(params.length)
    g1, g2, g3, g4 = samples = g._quadrature_samples(params.length)
    if not np.all(np.isfinite(samples)):
        raise QuadratureFailure("g has non-finite samples")
    f = model.decouple @ np.stack((g3, g4))
    flux = -(g2[-1] / (2.0 * params.thickness**2)) * model.drive
    # int_0^L min(x, r) f(r) dr = int_0^x r f + x * int_x^L f
    rf, tot = _cumulative_trapezoid(np.stack((x * f, f)), x)
    w = (np.outer(flux, x) - (rf + x * (tot[:, -1:] - tot))) / model.lam[:, None]
    if not np.all(np.isfinite(w)):
        raise QuadratureFailure("kernel integrals produced non-finite values")
    return StateFunctions.from_samples(x, *(model.modes @ w), g1, g2)
