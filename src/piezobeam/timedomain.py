"""Finite-difference time-domain simulation of the coupled and classical models.

Both models step stacked fields ``u`` and ``ud`` of shape ``(m, N+1)``:
``(v, p)`` for the coupled stretching system and ``(v,)`` for the classical
magnetically-static comparison model.  Each is ``M u_tt = K u_xx`` with a
diagonal mass ``M`` and a symmetric stiffness ``K``, a fixed end
``u(0) = 0`` and the flux condition

    K u_x(L) = -(V / h) c

at the driven end.  The coupled model has ``M = diag(rho, mu)``,
``K = [[alpha, -gamma*beta], [-gamma*beta, beta]]`` and ``c = (0, 1)``; the
classical one has ``M = rho``, ``K = alpha1`` and ``c = gamma``.

Space is discretized with second-order centered differences; the driven end
is a ghost node carrying the exact flux, so the voltage enters as a load on
the end node.  Time stepping is velocity Verlet (leapfrog), which conserves
the discrete energy to O(dt^2) when the voltage is off.  Both half-kicks
around ``t_n`` use the same voltage ``V_n = k * trace + f(t_n)``, where
``f`` is the prescribed voltage (open loop, ``k = 0``) or the external input
(closed loop), and ``trace`` is the end velocity at ``t_n`` of the row that
feeds back (``pdot`` coupled, ``vdot`` classical).  The trace after the
second half-kick is linear in ``V_n``, so the loop is closed on it exactly
with one scalar division, which keeps the step stable at any gain ``k >= 0``.
With the impedance-matched gain the classical driven end absorbs incoming
waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eig_banded

from .errors import CflViolation, NonFiniteState, NonPositiveEnergy
from .params import BeamParameters, derive_constants
from .spectral import ModalCoefficients, reconstruct

__all__ = [
    "Grid",
    "GridState",
    "SimConfig",
    "Trajectory",
    "discrete_energy",
    "classical_energy",
    "simulate",
    "energy_balance_residual",
    "decay_rate",
    "operator_eigenvalues",
    "absorbing_gain",
    "grid_state_from_modal",
    "sine_velocity_state",
    "gaussian_velocity_state",
]

MIN_CELLS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with ``n`` cells on ``[0, length]``."""

    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.n < MIN_CELLS:
            raise ValueError(f"grid needs at least {MIN_CELLS} cells, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be > 0, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n + 1)


@dataclass
class GridState:
    """Sampled state ``(v, p, vdot, pdot)`` on the grid nodes at time ``t``.

    The fixed-end constraint ``v[0] = p[0] = 0`` must hold; ``simulate``
    enforces it on its initial data.
    """

    grid: Grid
    v: np.ndarray
    p: np.ndarray
    vdot: np.ndarray
    pdot: np.ndarray
    t: float = 0.0

    def copy(self) -> "GridState":
        return GridState(
            self.grid,
            self.v.copy(),
            self.p.copy(),
            self.vdot.copy(),
            self.pdot.copy(),
            self.t,
        )

    @classmethod
    def zero(cls, grid: Grid) -> "GridState":
        z = np.zeros(grid.n + 1)
        return cls(grid, z.copy(), z.copy(), z.copy(), z.copy())


@dataclass
class SimConfig:
    """Time-integration settings.

    ``mode`` is one of ``"open"`` (prescribed voltage ``voltage(t)``),
    ``"closed"`` (feedback ``V = k * pdot(L)``, optionally plus an external
    input ``forcing(t)``), or ``"classical"`` (magnetically static model with
    ``V = k * vdot(L)``).  Only open mode takes ``voltage`` and only closed
    mode takes ``forcing``; ``k`` is the feedback gain of closed and
    classical mode (default ``1/(2h)``) and is not used in open mode.
    Setting ``voltage`` or ``forcing`` for another mode raises
    ``ValueError``.  ``dt`` may be forced explicitly but must respect
    the stability bound ``dt <= dx * zeta2`` (or ``dx * sqrt(rho/alpha1)``
    for the classical model); otherwise it is ``cfl`` times that bound.
    """

    mode: str = "open"
    T: float = 10.0
    cfl: float = 0.9
    k: float | None = None
    voltage: Callable[[float], float] | None = None
    forcing: Callable[[float], float] | None = None
    dt: float | None = None
    snapshot_dt: float | None = None
    energy_stride: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.voltage is not None and self.mode != "open":
            raise ValueError(f"voltage is an open-loop input, not used in {self.mode} mode")
        if self.forcing is not None and self.mode != "closed":
            raise ValueError(f"forcing is a closed-loop input, not used in {self.mode} mode")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not 0 < self.cfl < 1:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.energy_stride < 1:
            raise ValueError("energy_stride must be >= 1")


@dataclass
class Trajectory:
    """Recorded simulation output.

    ``t``, ``energy`` and ``y`` are aligned per recorded step (every
    ``energy_stride`` steps plus the final one).  ``y`` is the observation:
    ``pdot(L)/h`` for the coupled model (plus the external input in forced
    closed-loop runs) and ``gamma*vdot(L)/h`` for the classical model.
    """

    t: np.ndarray
    energy: np.ndarray
    y: np.ndarray
    dt: float
    initial: GridState
    final: GridState
    snapshots: list[tuple[float, GridState]] = field(default_factory=list)


def _model(params: BeamParameters, classical: bool):
    """Mass vector, stiffness ``K``, driven-end vector ``c`` and feedback row.

    The driven-end flux condition is ``K u_x(L) = -(V/h) c``; the row whose
    end velocity feeds back is the last one, ``p`` or the classical ``v``.
    """
    if classical:
        mass, stiffness, c = [params.rho], [[params.alpha1]], [params.gamma]
    else:
        alpha = params.alpha1 + params.gamma**2 * params.beta
        gb = params.gamma * params.beta
        mass, stiffness, c = [params.rho, params.mu], [[alpha, -gb], [-gb, params.beta]], [0.0, 1.0]
    return np.array(mass), np.array(stiffness), np.array(c), len(mass) - 1


def _energy(u, ud, mass, stiffness, h: float, dx: float) -> float:
    """``(h/2) * int ud.M ud + u_x.K u_x`` for stacked fields of shape ``(m, N+1)``.

    Slopes are those of ``np.gradient``: centered differences inside and
    first-order one-sided differences at the ends, written out because at
    N = 1024 ``np.gradient`` alone takes longer than a whole step.  The
    integral is the trapezoid rule.
    """
    weights = np.full(u.shape[1], dx)
    weights[[0, -1]] *= 0.5
    ux = np.empty_like(u)
    np.subtract(u[:, 2:], u[:, :-2], out=ux[:, 1:-1])
    ux[:, 1:-1] /= 2.0 * dx
    ux[:, 0] = (u[:, 1] - u[:, 0]) / dx
    ux[:, -1] = (u[:, -1] - u[:, -2]) / dx
    kinetic = mass @ ((ud * ud) @ weights)
    strain = np.sum(stiffness * ((ux * weights) @ ux.T))
    return 0.5 * h * float(kinetic + strain)


def _fields(state: GridState, m: int):
    """Stacked copies ``(u, ud)`` of the first ``m`` fields of ``(v, p)``."""
    u = np.array((state.v, state.p)[:m], dtype=float)
    ud = np.array((state.vdot, state.pdot)[:m], dtype=float)
    return u, ud


def _state_energy(state: GridState, params: BeamParameters, classical: bool) -> float:
    mass, stiffness, _, _ = _model(params, classical)
    u, ud = _fields(state, mass.size)
    return _energy(u, ud, mass, stiffness, params.thickness, state.grid.dx)


def discrete_energy(state: GridState, params: BeamParameters) -> float:
    """Stored energy of the coupled model on the grid.

    ``(h/2) * int rho vdot^2 + mu pdot^2 + alpha1 v_x^2 + beta (gamma v_x - p_x)^2``;
    the strain term is ``u_x.K u_x`` with ``u = (v, p)``.
    """
    return _state_energy(state, params, classical=False)


def classical_energy(state: GridState, params: BeamParameters) -> float:
    """Stored energy ``(h/2) * int rho vdot^2 + alpha1 v_x^2`` of the classical model."""
    return _state_energy(state, params, classical=True)


def absorbing_gain(params: BeamParameters) -> float:
    """Feedback gain that makes the classical driven end perfectly absorbing.

    Matching the boundary impedance of right-going d'Alembert waves gives
    ``k = h * sqrt(rho * alpha1) / gamma``.
    """
    return params.thickness * math.sqrt(params.rho * params.alpha1) / params.gamma


def _check_finite(arrays, step: int) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteState(f"non-finite state at step {step}")


def _as_state(grid: Grid, u, ud, t: float) -> GridState:
    """Copy stacked fields into a :class:`GridState`; a missing ``p`` row is zero."""
    pad = np.zeros((2 - len(u), grid.n + 1))
    v, p = np.vstack((u, pad))
    vdot, pdot = np.vstack((ud, pad))
    return GridState(grid, v, p, vdot, pdot, t)


def simulate(initial: GridState, params: BeamParameters, cfg: SimConfig) -> Trajectory:
    """Integrate the beam dynamics from ``initial`` over ``[0, cfg.T]``.

    Returns a :class:`Trajectory` with per-step energies and output samples.
    Raises :class:`CflViolation` for a forced ``dt`` above the stability
    bound and :class:`NonFiniteState` (with the step index) if the update
    blows up.
    """
    params.validate()
    grid = initial.grid
    dx = grid.dx
    h = params.thickness
    classical = cfg.mode == "classical"
    if classical:
        dt_max = dx * math.sqrt(params.rho / params.alpha1)
    else:
        dt_max = dx * derive_constants(params).zeta2
    if cfg.dt is not None:
        if cfg.dt > dt_max:
            raise CflViolation(
                f"dt={cfg.dt:g} exceeds the stability bound {dt_max:g}"
            )
        dt = cfg.dt
    else:
        dt = cfg.cfl * dt_max
    nsteps = max(1, int(math.ceil(cfg.T / dt - 1e-12)))
    dt = cfg.T / nsteps

    mass, stiffness, c, row = _model(params, classical)
    u, ud = _fields(initial, mass.size)
    u[:, 0] = 0.0
    ud[:, 0] = 0.0
    if cfg.mode == "open":
        k, external = 0.0, cfg.voltage
    else:
        k = cfg.k if cfg.k is not None else 1.0 / (2.0 * h)
        external = cfg.forcing
    half = 0.5 * dt
    kick = (half / dx**2) * stiffness / mass[:, None]  # per second difference
    load = -(2.0 * half / (dx * h)) * c / mass  # end-node kick per unit voltage
    trace_gain = 1.0 / (1.0 - load[row] * k)
    d2 = np.zeros_like(u)
    dv = np.zeros_like(u)  # half-step velocity kick, voltage load included

    def stencil_kick():
        np.add(u[:, :-2], u[:, 2:], out=d2[:, 1:-1])
        d2[:, 1:-1] -= 2.0 * u[:, 1:-1]
        np.subtract(u[:, -2], u[:, -1], out=d2[:, -1])
        d2[:, -1] *= 2.0
        np.matmul(kick, d2, out=dv)

    def drive(t):
        return external(t) if external is not None else 0.0

    def observe(f):
        return float(c @ ud[:, -1]) / h + (f if cfg.mode == "closed" else 0.0)

    f = drive(0.0)
    initial_state = _as_state(grid, u, ud, initial.t)
    stride = cfg.energy_stride
    times = [0.0]
    energies = [_energy(u, ud, mass, stiffness, h, dx)]
    ys = [observe(f)]
    snapshots: list[tuple[float, GridState]] = []
    snap_next = cfg.snapshot_dt

    stencil_kick()
    dv[:, -1] += load * (k * ud[row, -1] + f)
    for step in range(1, nsteps + 1):
        ud += dv
        u += dt * ud
        t = step * dt
        stencil_kick()
        f = drive(t)
        # The trace after this half-kick is linear in V: solve for it, so
        # that V feeds back the velocity at t.
        trace = (ud[row, -1] + dv[row, -1] + load[row] * f) * trace_gain
        dv[:, -1] += load * (k * trace + f)
        ud += dv
        if step % stride == 0 or step == nsteps:
            times.append(t)
            energies.append(_energy(u, ud, mass, stiffness, h, dx))
            ys.append(observe(f))
        if snap_next is not None and (t + 1e-12 >= snap_next or step == nsteps):
            snapshots.append((t, _as_state(grid, u, ud, t)))
            snap_next += cfg.snapshot_dt
        if step % 512 == 0:
            _check_finite((u, ud), step)
    _check_finite((u, ud), nsteps)
    return Trajectory(
        t=np.asarray(times),
        energy=np.asarray(energies),
        y=np.asarray(ys),
        dt=dt,
        initial=initial_state,
        final=_as_state(grid, u, ud, nsteps * dt),
        snapshots=snapshots,
    )


def energy_balance_residual(
    traj: Trajectory,
    params: BeamParameters,
    u: Callable[[float], float] | np.ndarray | None = None,
) -> float:
    """Conservativity defect of a damped-form run.

    For the closed loop driven by an external input ``u`` (so that
    ``V = pdot(L)/(2h) + u`` and ``y = pdot(L)/h + u``) the exact balance is

        ||z(T)||^2 + int_0^T |y|^2 = ||z0||^2 + int_0^T |u|^2

    in the energy norm ``||z||^2 = (2/h) * E``.  Returns the left side minus
    the right side, with time integrals by the trapezoid rule; the magnitude
    measures the discretization's conservativity defect.
    """
    h = params.thickness
    t = traj.t
    if u is None:
        u_samples = np.zeros_like(t)
    elif callable(u):
        u_samples = np.asarray([u(tt) for tt in t])
    else:
        u_samples = np.asarray(u, dtype=float)
        if u_samples.shape != t.shape:
            raise ValueError("u samples must align with trajectory times")
    e0 = discrete_energy(traj.initial, params)
    eT = discrete_energy(traj.final, params)
    y_int = float(np.trapezoid(traj.y**2, t))
    u_int = float(np.trapezoid(u_samples**2, t))
    return (2.0 / h) * eT + y_int - (2.0 / h) * e0 - u_int


def decay_rate(energies, times) -> tuple[float, float]:
    """Exponential decay rate fitted on the last half of an energy record.

    Least-squares slope of ``log E`` against ``t``; returns ``(-slope, r2)``.
    A constant record gives rate 0 with r2 reported as 0.

    Raises
    ------
    NonPositiveEnergy
        If any energy in the fitted window is not strictly positive.
    """
    energies = np.asarray(energies, dtype=float)
    times = np.asarray(times, dtype=float)
    if energies.shape != times.shape or energies.size < 10:
        raise ValueError("need aligned series of length >= 10")
    start = energies.size // 2
    e = energies[start:]
    t = times[start:]
    if np.any(e <= 0):
        raise NonPositiveEnergy("energies must be positive to fit log decay")
    logs = np.log(e)
    design = np.vstack([t, np.ones_like(t)]).T
    coef, _, _, _ = np.linalg.lstsq(design, logs, rcond=None)
    fitted = design @ coef
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0, 0.0
    ss_res = float(np.sum((logs - fitted) ** 2))
    return float(-coef[0]), 1.0 - ss_res / ss_tot


def operator_eigenvalues(
    params: BeamParameters, n_cells: int, count: int
) -> np.ndarray:
    """Smallest ``count`` eigenvalues of the discrete spatial operator.

    The operator is the finite-difference stiffness pencil of the coupled
    system (fixed left end, zero-flux right end) against the diagonal mass
    matrix; its spectrum approximates ``(sigma_j / zeta_k)**2`` with O(dx^2)
    error.  The Neumann row is half-weighted so the pencil is symmetric,
    then the generalized problem is reduced to a standard banded one.
    """
    params.validate()
    rho, a1, beta, gamma, mu = (
        params.rho,
        params.alpha1,
        params.beta,
        params.gamma,
        params.mu,
    )
    alpha = a1 + gamma**2 * beta
    gb = gamma * beta
    dx = params.length / n_cells
    fac = 1.0 / dx**2
    n = 2 * n_cells
    weights = np.ones(n_cells)
    weights[-1] = 0.5
    mv = rho * weights
    mp = mu * weights
    sv = np.sqrt(mv)
    sp = np.sqrt(mp)
    iv = np.arange(0, n, 2)
    ip = iv + 1
    band = np.zeros((4, n))
    band[0, iv] = 2.0 * alpha * fac * weights / mv
    band[0, ip] = 2.0 * beta * fac * weights / mp
    band[1, iv] = -2.0 * gb * fac * weights / (sv * sp)
    band[1, ip[:-1]] = gb * fac / (sp[:-1] * sv[1:])
    band[2, iv[:-1]] = -alpha * fac / (sv[:-1] * sv[1:])
    band[2, ip[:-1]] = -beta * fac / (sp[:-1] * sp[1:])
    band[3, iv[:-1]] = gb * fac / (sv[:-1] * sp[1:])
    return eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)
    )


def grid_state_from_modal(
    coeffs: ModalCoefficients, params: BeamParameters, grid: Grid
) -> GridState:
    """Sample the real part of a modal state onto the grid."""
    comps = reconstruct(coeffs, params, grid.nodes).real
    return GridState(grid, *(np.ascontiguousarray(c) for c in comps))


def state_from_samples(grid: Grid, x, v, p, vdot, pdot) -> GridState:
    """Interpolate sampled fields linearly onto the grid nodes."""
    x = np.asarray(x, dtype=float)
    nodes = grid.nodes
    fields = [
        np.interp(nodes, x, np.asarray(a, dtype=float)) for a in (v, p, vdot, pdot)
    ]
    return GridState(grid, *fields)


def sine_velocity_state(grid: Grid, j: int = 1) -> GridState:
    """Zero displacement with ``vdot = sin(sigma_j x)``."""
    s = (2 * j - 1) * math.pi / (2.0 * grid.length)
    state = GridState.zero(grid)
    state.vdot = np.sin(s * grid.nodes)
    return state


def gaussian_velocity_state(
    grid: Grid, center: float = 0.25, width: float = 0.04, amplitude: float = 1.0
) -> GridState:
    """Zero displacement with a Gaussian bump in ``vdot``.

    Defaults keep the bump supported well inside the left half of the beam.
    """
    state = GridState.zero(grid)
    x = grid.nodes
    state.vdot = amplitude * np.exp(-0.5 * ((x - center * grid.length) / (width * grid.length)) ** 2)
    state.vdot[0] = 0.0
    return state
