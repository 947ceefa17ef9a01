"""Finite-difference time-domain simulation of the coupled and classical models.

Both models are ``M u_tt = K u_xx`` for stacked fields ``u``: ``(v, p)`` for
the coupled stretching system and ``(v,)`` for the classical
magnetically-static comparison model.  The mass ``M`` is diagonal, the
stiffness ``K`` symmetric, the end ``u(0) = 0`` fixed, and the driven end
carries the flux condition

    K u_x(L) = -(V / h) c.

The coupled model has ``M = diag(rho, mu)``,
``K = [[alpha, -gamma*beta], [-gamma*beta, beta]]`` and ``c = (0, 1)``; the
classical one has ``M = rho``, ``K = alpha1`` and ``c = gamma``.

*Modal decoupling.*  Write ``u = P w`` with ``P^T M P = I`` and
``P^T K P = diag(lam)``.  For the coupled model the columns of ``P`` are
``(1, b_k) / sqrt(rho + mu * b_k**2)`` and ``lam_k = 1 / zeta_k**2``; for the
classical one ``P = 1/sqrt(rho)`` and ``lam = alpha1/rho``.  Each modal field
then obeys the scalar wave equation ``w_tt = lam_k w_xx``, and the fields
meet only in the driven-end load ``-(V/h) P^T c``.  Space is discretized
with second-order centered differences, which act node by node and so
commute with ``P``: the decoupling is exact on the grid, and the energy
``(h/2) * int ud.M ud + u_x.K u_x`` is
``(h/2) * sum_k int wd_k**2 + lam_k (w_k)_x**2``.  The fixed left end and
the mirrored right end (below) make the sines ``sin(sigma_j x)``,
``sigma_j = (2j - 1) pi / (2L)`` and ``j = 1..N``, exact eigenvectors of the
second difference, so the discrete spectrum is the two decoupled families
``lam_k * ((2/dx) * sin(sigma_j * dx/2))**2``, each within O(dx^2) of
``(sigma_j / zeta_k)**2``.

*Ghost node.*  The ``m`` modal fields lie back to back in one contiguous
``(m, N+2)`` buffer.  Node ``N+1`` of each field is a ghost that mirrors node
``N-1``, so the zero-flux end is part of the bulk three-point stencil and
the voltage enters as a load on node ``N``.  The stencil runs over the
flattened buffer; a per-node coefficient ``dt**2 * lam_k / dx**2`` that is
zero at the fixed nodes and the ghosts keeps the fields apart.

*Staggered velocity.*  Time stepping is leapfrog, velocity Verlet with its
two half-kicks merged: ``q = dt * wd`` lives at half steps, and each step is
one kick of ``q`` followed by ``w += q``.  It conserves the discrete energy
to O(dt^2) when the voltage is off.  The velocity at a whole step, needed
only for recorded steps, snapshots and the final state, is the mean of the
half-step velocities around it.  The kick at ``t_n`` uses the voltage
``V_n = k * trace + f(t_n)``, where ``f`` is the prescribed voltage (open
loop, ``k = 0``) or the external input (closed loop), and ``trace`` is the
end velocity at ``t_n`` of the row that feeds back (``pdot`` coupled,
``vdot`` classical).  That velocity is linear in ``V_n``, so the loop is
closed on it exactly with one scalar division, which keeps the step stable
at any gain ``k >= 0``.  With the impedance-matched gain the classical
driven end absorbs incoming waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import CflViolation, MalformedValue, NonFiniteState, NonPositiveEnergy
from .params import BeamParameters, derive_constants
from .spectral import ModalCoefficients, _families, reconstruct, sigma

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
    "state_from_samples",
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
    ``ValueError``; a non-finite ``k`` raises ``MalformedValue``.  ``dt``
    may be forced explicitly but must respect the stability bound
    ``dt <= dx * zeta2`` (or ``dx * sqrt(rho/alpha1)`` for the classical
    model); otherwise it is ``cfl`` times that bound.
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
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        if not 0 < self.cfl < 1:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.k is not None and not math.isfinite(self.k):
            raise MalformedValue(f"k must be a finite number, got {self.k}")
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


class _Model(NamedTuple):
    """Modal form of one model; see the module docstring."""

    modes: np.ndarray  # P: u = P w
    decouple: np.ndarray  # P^T M: w = P^T M u
    lam: np.ndarray  # squared modal speeds
    drive: np.ndarray  # P^T c, the modal driven-end vector
    feedback: np.ndarray  # the row of P whose end velocity feeds back
    slowness: float  # dt_max / dx


def _model(params: BeamParameters, classical: bool) -> _Model:
    if classical:
        rho = params.rho
        modes = np.array([[1.0 / math.sqrt(rho)]])
        mass, lam = np.array([rho]), np.array([params.alpha1 / rho])
        c, slowness = np.array([params.gamma]), math.sqrt(rho / params.alpha1)
    else:
        zeta, b, w = _families(params, derive_constants(params))
        mass = np.array([params.rho, params.mu])
        modes = np.vstack((np.ones(2), b)) / np.sqrt(w)
        lam = 1.0 / zeta**2
        c, slowness = np.array([0.0, 1.0]), float(zeta[1])
    return _Model(modes, modes.T * mass, lam, modes.T @ c, modes[-1], slowness)


def _modal(decouple: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Modal fields ``P^T M u`` in an ``(m, N+2)`` buffer with a zero ghost column."""
    w = np.zeros((u.shape[0], u.shape[1] + 1))
    np.matmul(decouple, u, out=w[:, :-1])
    return w


def _energy_meter(lam: np.ndarray, h: float, dx: float, n: int):
    """``(h/2) * sum_k int wd_k**2 + lam_k (w_k)_x**2`` on modal ``(m, N+2)`` buffers.

    Slopes are those of ``np.gradient``: centered differences inside and
    first-order one-sided differences at the ends.  The integral is the
    trapezoid rule over nodes ``0..N``; the ghost column has zero weight.
    The buffers are allocated once, so a recorded step allocates nothing.
    """
    weights = np.full(n + 2, 0.5 * h * dx)
    weights[[0, n]] *= 0.5
    weights[n + 1] = 0.0
    slope = np.full(n + 2, 0.25 / dx**2)  # the centered slope is (w[i+1] - w[i-1]) / (2 dx)
    slope[[0, n]] = 1.0 / dx**2
    kinetic = np.tile(weights, lam.size)
    strain = (lam[:, None] * (weights * slope)).ravel()
    diff = np.zeros((lam.size, n + 2))
    flat = diff.ravel()
    square = np.empty_like(flat)

    def energy(w: np.ndarray, wd: np.ndarray) -> float:
        wf = w.ravel()
        np.subtract(wf[2:], wf[:-2], out=flat[1:-1])
        np.subtract(w[:, 1], w[:, 0], out=diff[:, 0])
        np.subtract(w[:, n], w[:, n - 1], out=diff[:, n])
        np.multiply(flat, flat, out=square)
        potential = square.dot(strain)
        np.multiply(wd.ravel(), wd.ravel(), out=square)
        return float(potential + square.dot(kinetic))

    return energy


def _fields(state: GridState, m: int):
    """Stacked copies ``(u, ud)`` of the first ``m`` fields of ``(v, p)``."""
    u = np.array((state.v, state.p)[:m], dtype=float)
    ud = np.array((state.vdot, state.pdot)[:m], dtype=float)
    return u, ud


def _state_energy(state: GridState, params: BeamParameters, classical: bool) -> float:
    model = _model(params, classical)
    u, ud = _fields(state, model.lam.size)
    energy = _energy_meter(model.lam, params.thickness, state.grid.dx, state.grid.n)
    return energy(_modal(model.decouple, u), _modal(model.decouple, ud))


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
    bound and :class:`NonFiniteState` with the step index if the update
    blows up: at the first recorded step whose energy is not finite (step 0
    for bad initial data), or at the latest multiple of 512 steps.
    """
    params.validate()
    grid = initial.grid
    n, dx, h = grid.n, grid.dx, params.thickness
    model = _model(params, cfg.mode == "classical")
    dt_max = dx * model.slowness
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

    if cfg.mode == "open":
        k, external = 0.0, cfg.voltage
    else:
        k = cfg.k if cfg.k is not None else 1.0 / (2.0 * h)
        external = cfg.forcing
    driven = k != 0.0 or external is not None
    forced = cfg.mode == "closed"

    u, ud = _fields(initial, model.lam.size)
    u[:, 0] = 0.0
    ud[:, 0] = 0.0
    initial_state = _as_state(grid, u, ud, initial.t)
    w = _modal(model.decouple, u)
    vel = _modal(model.decouple, ud)  # modal velocity at the latest recorded or snapshot step
    energy = _energy_meter(model.lam, h, dx, n)

    coef = np.zeros_like(w)
    coef[:, 1 : n + 1] = (dt / dx) ** 2 * model.lam[:, None]
    acc = np.zeros_like(w)  # stencil kick of q, zero at fixed nodes and ghosts
    wf, cf, af = w.ravel(), coef.ravel()[1:-1], acc.ravel()[1:-1]
    ghost, mirror, acc_end, vel_end = w[:, n + 1], w[:, n - 1], acc[:, n], vel[:, n]
    load = -(2.0 * dt**2 / (dx * h)) * model.drive  # kick of q at node N per unit voltage
    # The trace is (q + acc/2 + load*V/2)[N] . feedback / dt, linear in V.
    trace_q = model.feedback / dt
    trace_acc = 0.5 * trace_q
    trace_load = float(trace_acc @ load)
    trace_gain = 1.0 / (1.0 - trace_load * k)
    output = model.drive / h

    def stencil():
        np.copyto(ghost, mirror)
        np.add(wf[:-2], wf[2:], out=af)
        np.subtract(af, wf[1:-1], out=af)
        np.subtract(af, wf[1:-1], out=af)
        np.multiply(af, cf, out=af)

    def record(step: int, t: float, f: float) -> None:
        e = energy(w, vel)
        if not math.isfinite(e):
            raise NonFiniteState(f"non-finite state at step {step}")
        times.append(t)
        energies.append(e)
        ys.append(float(output.dot(vel_end)) + (f if forced else 0.0))

    def physical():
        return model.modes @ w[:, : n + 1], model.modes @ vel[:, : n + 1]

    stride = cfg.energy_stride
    times: list[float] = []
    energies: list[float] = []
    ys: list[float] = []
    snapshots: list[tuple[float, GridState]] = []
    snap_next = cfg.snapshot_dt

    f = external(0.0) if external is not None else 0.0
    voltage = k * float(model.feedback @ vel_end) + f
    record(0, 0.0, f)
    stencil()
    q = dt * vel + 0.5 * acc
    q[:, n] += 0.5 * voltage * load
    q_end = q[:, n]
    for step in range(1, nsteps + 1):
        w += q
        stencil()
        t = step * dt
        if driven:
            f = external(t) if external is not None else 0.0
            voltage = f
            if k:
                trace = (trace_q.dot(q_end) + trace_acc.dot(acc_end) + trace_load * f) * trace_gain
                voltage += k * trace
        keep = step % stride == 0 or step == nsteps
        snap = snap_next is not None and (t + 1e-12 >= snap_next or step == nsteps)
        if keep or snap:
            # the velocity at t is the mean of q / dt before and after this kick
            np.multiply(acc, 0.5, out=vel)
            vel += q
            if driven:
                vel_end += 0.5 * voltage * load
            vel /= dt
        if keep:
            record(step, t, f)
        q += acc
        if driven:
            q_end += voltage * load
        if snap:
            snapshots.append((t, _as_state(grid, *physical(), t)))
            snap_next += cfg.snapshot_dt
        if step % 512 == 0:
            _check_finite((w, q), step)
    u, ud = physical()
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
    u: Callable[[float], float] | None = None,
) -> float:
    """Conservativity defect of a damped-form run.

    For the closed loop driven by an external input ``u`` (so that
    ``V = pdot(L)/(2h) + u`` and ``y = pdot(L)/h + u``) the exact balance is

        ||z(T)||^2 + int_0^T |y|^2 = ||z0||^2 + int_0^T |u|^2

    in the energy norm ``||z||^2 = (2/h) * E``.  Returns the left side minus
    the right side, with time integrals by the trapezoid rule; the magnitude
    measures the discretization's conservativity defect.  ``u`` is None (no
    input) or a callable of time, evaluated at ``traj.t``.
    """
    h = params.thickness
    t = traj.t
    u_samples = np.zeros_like(t) if u is None else np.asarray([u(tt) for tt in t])
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
    """Smallest ``count`` eigenvalues of the discrete spatial operator, ascending.

    The operator is the finite-difference stiffness pencil of the coupled
    system (fixed left end, zero-flux right end) against the diagonal mass.
    Its ``2 * n_cells`` eigenvalues are ``lam_k * ((2/dx) * sin(sigma_j * dx/2))**2``
    for ``k = 1, 2`` and ``j = 1..n_cells``, within O(dx^2) of
    ``(sigma_j / zeta_k)**2`` (see *Modal decoupling* in the module
    docstring).  Raises ``ValueError`` unless ``n_cells >= 1`` and
    ``1 <= count <= 2 * n_cells`` are integers.
    """
    if n_cells != int(n_cells) or n_cells < 1:
        raise ValueError(f"n_cells must be an integer >= 1, got {n_cells}")
    if count != int(count) or not 1 <= count <= 2 * n_cells:
        raise ValueError(f"count must be an integer in 1..{2 * n_cells}, got {count}")
    lam = _model(params, classical=False).lam  # validates params
    dx = params.length / n_cells
    s = sigma(np.arange(1, n_cells + 1), params.length)
    wavenumber = (2.0 / dx) * np.sin(0.5 * dx * s)
    return np.sort(np.outer(lam, wavenumber**2), axis=None)[:count]


def grid_state_from_modal(
    coeffs: ModalCoefficients, params: BeamParameters, grid: Grid
) -> GridState:
    """Sample the real part of a modal state onto the grid."""
    comps = reconstruct(coeffs, params, grid.nodes).real
    return GridState(grid, *(np.ascontiguousarray(c) for c in comps))


def state_from_samples(grid: Grid, x, v, p, vdot, pdot) -> GridState:
    """Interpolate sampled fields linearly onto the grid nodes.

    Raises ``ValueError`` unless the five arrays are finite, one-dimensional
    and of one length of at least 2, with ``x`` strictly increasing from
    ``<= 0`` to ``>= L`` (up to a relative ``1e-12``): linear interpolation
    would otherwise extrapolate silently.
    """
    x, *fields = (np.asarray(a, dtype=float) for a in (x, v, p, vdot, pdot))
    if x.ndim != 1 or x.size < 2 or any(a.shape != x.shape for a in fields):
        raise ValueError("samples must be five 1-d arrays of one length >= 2")
    if not all(np.all(np.isfinite(a)) for a in (x, *fields)):
        raise ValueError("samples must be finite")
    if not (np.all(np.diff(x) > 0) and x[0] <= 0 and x[-1] >= grid.length * (1.0 - 1e-12)):
        raise ValueError(f"x must increase strictly from <= 0 to >= L = {grid.length}")
    return GridState(grid, *(np.interp(grid.nodes, x, a) for a in fields))


def sine_velocity_state(grid: Grid, j: int = 1) -> GridState:
    """Zero displacement with ``vdot = sin(sigma_j x)``.

    Raises ``ValueError`` unless ``j >= 1`` is an integer.
    """
    if not (j >= 1 and float(j).is_integer()):
        raise ValueError(f"mode index j must be an integer >= 1, got {j}")
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
