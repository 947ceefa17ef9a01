"""Finite-difference time-domain simulation of the coupled and classical models.

Both models are ``M u_tt = K u_xx`` for stacked fields ``u``: ``(v, p)`` for
the coupled stretching system and ``(v,)`` for the classical
magnetically-static comparison model, with the end ``u(0) = 0`` fixed and
the driven-end flux ``K u_x(L) = -(V / h) c``.

*Modal decoupling.*  :func:`piezobeam.spectral._model` describes the wave
families of both models: ``M``, ``K``, ``c`` and the basis ``u = P w`` with
``P^T M P = I`` and ``P^T K P = diag(lam)``.  Each modal field then obeys the
scalar wave equation ``w_tt = lam_k w_xx``, and the fields meet only in the
driven-end load ``-(V/h) P^T c``.  Space is discretized with second-order
centered differences, which act node by node and so commute with ``P``:
the decoupling is exact on the grid, and the energy
``(h/2) * int ud.M ud + u_x.K u_x`` is
``(h/2) * sum_k int wd_k**2 + lam_k (w_k)_x**2``.  The fixed left end and
the mirrored right end (below) make the sines ``sin(sigma_j x)``,
``sigma_j = (2j - 1) pi / (2L)`` and ``j = 1..N``, exact eigenvectors of the
second difference, so the discrete spectrum is the two decoupled families
``lam_k * ((2/dx) * sin(sigma_j * dx/2))**2``, each within O(dx^2) of
``(sigma_j / zeta_k)**2``.

*Sine modes.*  Time stepping is leapfrog (velocity Verlet), and it is
carried out in the sine basis, where it needs no stencil.  Let
``mu = dt**2 * lam_k * ((2/dx) * sin(sigma_j * dx/2))**2`` be the step's
eigenvalue of mode ``(k, j)`` and ``s = sqrt(mu * (1 - mu/4))``.  With
``a`` the sine amplitude of ``w_k`` and ``p = dt * da/dt`` at a whole step,
one unforced step maps ``s*a - i*p`` to ``lam * (s*a - i*p)``, with the
rotation ``lam = (1 - mu/2) + i*s`` of modulus one: the leapfrog's discrete
phase, built without ``arccos``.  Each of the ``m*N`` modes is thus one
complex amplitude ``xi``, rotated once per step, and each step's voltage
``V_n`` adds one scalar to all of them (below).  So :data:`BLOCK` ``= B``
steps fold into closed form, ``xi <- rotation**B * xi + V @ U`` with ``U``
the rows ``rotation**(B-1) .. rotation**0``: one pass and one
matrix-vector product per block where stepping takes three passes per step.
With no voltage each modulus is conserved, and the recorded energy stays
within O(dt^2) of its start.

*Driven end.*  The zero-flux end mirrors node ``N-1`` onto ``N+1``, so the
voltage enters the second difference as a load ``-(2 dt**2 / (dx h)) P^T c``
on node ``N`` alone, whose sine amplitudes are ``(-1)**(j+1) / N``: a
rank-one load.  Each amplitude is stored divided by its mode's image of a
unit voltage, so a kick by ``V_n`` adds the scalar ``V_n`` to every mode.
``V_n = k * trace + f(t_n)``, where ``f`` is the run's one external input,
``SimConfig.forcing`` (the prescribed voltage in open loop, where ``k = 0``),
and ``trace`` is the end velocity at ``t_n`` of the row that feeds back
(``pdot`` coupled, ``vdot`` classical), one sum over the modes.  The
whole-step velocity holds half of the kick of ``V_n``, so the trace is
linear in ``V_n`` and the loop is closed on it exactly with one scalar
division, which keeps the step stable at any gain ``k >= 0``.  Within a block the trace at step ``l`` is
``F_l . xi``, the trace of ``rotation**l * xi``, plus the earlier kicks of
the block through the kernel ``g_m = trace_xi . Re(rotation**m)``, so the
block's voltages solve a unit lower-triangular Toeplitz system:
``V = A @ xi + w`` with the constant table ``A = c (I - c G)^{-1} F``, ``G``
the strictly lower Toeplitz matrix of ``g`` and ``c`` the closed-loop gain.
The part ``w`` that the input drives is solved by forward substitution, so
a non-finite input leaves the voltages before it finite.  Open loop has
``A = 0`` and ``V = f``.  With the impedance-matched gain the classical
driven end absorbs incoming waves.

*Energy meter.*  The recorded energy is
``(h/2) * sum_k int wd_k**2 + lam_k (w_k)_x**2`` with the trapezoid rule
over nodes ``0..N`` and the slopes of ``np.gradient``: centered inside,
one-sided at the ends.  The sines are orthogonal under these weights, and so
are the cosines of their centered slopes, so the meter is diagonal in the
sine amplitudes, plus one rank-one term per family from the one-sided slope
at node ``N``.  A recorded step reads it from the amplitudes alone: the
amplitudes at a step inside a block follow from the block's start and its
known voltages, and the meter and the output take one square and two
products over a buffer of such rows.  The recorded steps are the run's only
samples: step 0, every ``energy_stride``-th step and the final step.  Kept
snapshots are the states of those same rows, one inverse transform of the
buffer per reading of the meter.
:func:`discrete_energy` and :func:`classical_energy` evaluate the same form.

*Transform.*  States enter and leave the sine basis through a quarter-wave
sine transform pair, a DST-II and its inverse over the ``N`` half-integer
sines ``sin((2j - 1) * pi * l / (2N))``, each taken by one real FFT of
length ``N``.  States enter by the sine analysis that
:func:`piezobeam.spectral.project` shares
(:func:`piezobeam.spectral._sine_amplitudes`) and leave by its inverse, the
synthesis a modal state samples itself with
(:func:`piezobeam.spectral._sine_synthesis`).  The same pair serves every
set of uniform nodes: :func:`grid_state_from_modal` samples a modal state of
any truncation on the grid by that synthesis, positions a caller gives go
through :func:`piezobeam.spectral.reconstruct`, and time through
:func:`piezobeam.spectral.propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import NonFiniteState, NonPositiveEnergy
from .params import BeamParameters, _check_integer, _check_option
from .spectral import ModalCoefficients, StateFunctions, sigma
from .spectral import _Model, _field_rows, _model, _sine_amplitudes, _sine_synthesis

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

BLOCK = 8  # steps that simulate folds into one update; a divisor of 512


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` cells on ``[0, length]``, checked as the keys ``N`` and ``length``."""

    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        _check_option("N", self.n)
        _check_option("length", self.length)

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
        arrays = (self.v, self.p, self.vdot, self.pdot)
        return GridState(self.grid, *(a.copy() for a in arrays), self.t)

    @classmethod
    def zero(cls, grid: Grid) -> "GridState":
        return cls(grid, *(np.zeros(grid.n + 1) for _ in range(4)))


@dataclass
class SimConfig:
    """Time-integration settings.

    ``mode`` is one of ``"open"`` (prescribed voltage ``V = forcing(t)``),
    ``"closed"`` (feedback ``V = k * pdot(L) + forcing(t)``), or
    ``"classical"`` (magnetically static model with ``V = k * vdot(L)``).
    ``forcing`` is the run's one external input, a callable of time or None
    (no input), and :func:`simulate` records it at each recorded step as
    ``Trajectory.forcing``; classical mode takes none, and setting it there
    raises ``ValueError``.  ``k`` is the feedback gain of closed and classical
    mode (default ``1/(2h)``) and is not used in open mode.  ``T``, ``cfl``
    and ``k`` are checked as their config keys.  The energy and output are
    recorded at step 0, every ``energy_stride`` steps (an integer >= 1) and
    at the final step; ``snapshots=True`` also keeps the state at each of
    those steps.  A non-integer stride or a non-bool
    ``snapshots`` raises ``ValueError``.  The time step is ``cfl`` times the
    stability bound ``dx * zeta2`` (or ``dx * sqrt(rho/alpha1)`` for the
    classical model), shortened so that a whole number of steps spans ``T``.
    ``T`` and ``cfl`` default to the run defaults of :class:`RunConfig`.
    """

    mode: str = "open"
    T: float = RunConfig.T
    cfl: float = RunConfig.cfl
    k: float | None = None
    forcing: Callable[[float], float] | None = None
    snapshots: bool = False
    energy_stride: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.forcing is not None and self.mode == "classical":
            raise ValueError("forcing is an input of open and closed mode, not used in classical mode")
        _check_option("T", self.T)
        _check_option("cfl", self.cfl)
        if self.k is not None:
            _check_option("k", self.k)
        if not isinstance(self.snapshots, bool):
            raise ValueError(f"snapshots must be True or False, got {self.snapshots!r}")
        _check_integer(self.energy_stride, "energy_stride")


@dataclass
class Trajectory:
    """Recorded simulation output.

    ``t``, ``energy``, ``y`` and ``forcing`` are aligned per recorded step
    (every ``energy_stride`` steps plus the final one).  ``y`` is the
    observation: ``pdot(L)/h`` for the coupled model (plus the external input
    in closed-loop runs) and ``gamma*vdot(L)/h`` for the classical model.
    ``forcing`` is the run's one external input ``SimConfig.forcing`` at each
    recorded time, and zeros when the run has none.  ``config`` is the
    :class:`SimConfig` the run applied, with ``k`` the gain it used (0.0 in
    open mode).  ``snapshots`` holds the :class:`GridState` of each recorded
    step when ``SimConfig.snapshots`` is set, its ``t`` the row's time, and
    is empty otherwise.
    """

    t: np.ndarray
    energy: np.ndarray
    y: np.ndarray
    forcing: np.ndarray
    config: SimConfig
    dt: float
    initial: GridState
    final: GridState
    snapshots: list[GridState] = field(default_factory=list)


def _half_angles(n: int, length: float) -> np.ndarray:
    """``sigma_j * dx / 2`` for ``j = 1..n`` on ``n`` cells of ``[0, length]``."""
    return (0.5 * length / n) * sigma(np.arange(1, n + 1), length)


def _to_sines(u, ud, model, pos, vel) -> np.ndarray:
    """Flat amplitudes ``vel * adot + 1j * pos * a`` of the modal fields of ``(u, ud)``.

    ``a`` and ``adot`` are the amplitudes in ``sum_j a_j sin(sigma_j x)`` of
    ``P^T M u`` and ``P^T M ud`` on nodes ``0..N``, by :func:`_sine_amplitudes`;
    node 0 is not read.  ``pos`` and ``vel`` are per-mode scales of shape
    ``(m, N)``, or scalars.
    """
    m, n = model.lam.size, u.shape[-1] - 1
    hat = _sine_amplitudes(np.vstack((model.decouple @ u, model.decouple @ ud)), n, n)
    return (vel * hat[m:] + 1j * pos * hat[:m]).ravel()


def _from_sines(z, model, pos, vel):
    """Physical fields ``(u, ud)``, each of shape ``(R, m, N+1)`` on nodes ``0..N``, of the
    rows ``z`` of shape ``(R, m*N)`` of the amplitudes :func:`_to_sines` returns."""
    m = model.lam.size
    z = z.reshape(len(z), m, -1)
    w = _sine_synthesis(np.concatenate((z.imag / pos, z.real / vel), axis=1), z.shape[-1])
    return model.modes @ w[:, :m], model.modes @ w[:, m:]


def _sine_meter(lam: np.ndarray, h: float, grid: Grid, pos, vel, output=0.0):
    """``(h/2) * sum_k int wd_k**2 + lam_k (w_k)_x**2`` on the amplitudes of :func:`_to_sines`.

    The integral is the trapezoid rule over nodes ``0..N`` and the slopes are
    those of ``np.gradient``: centered inside, first-order one-sided at the
    ends.  The kinetic part is ``(h L/4) * sum adot**2``.  The centered slope
    of ``sin(sigma_j x)`` is ``cos(sigma_j x) * sin(sigma_j dx) / dx``, which
    at node 0 equals the one-sided slope, and the cosines are orthogonal with
    squared norm ``N/2`` under the trapezoid weights.  The one-sided
    slope at node ``N`` is ``sum_j (-1)**(j+1) * (1 - cos(sigma_j dx)) / dx * a_j``,
    one rank-one term per family.  Returns ``meter(z)`` for complex ``z`` of
    shape ``(R, m*N)``: the energy of each row and ``Re(z) @ output``, from
    one square and two products.
    """
    m, n, dx = lam.size, grid.n, grid.dx
    theta = _half_angles(n, grid.length)
    quarter = 0.25 * h * grid.length
    weights = np.empty((m, n), dtype=complex)
    weights.real = quarter / vel**2
    weights.imag = quarter * lam[:, None] * (np.sin(2.0 * theta) / dx) ** 2 / pos**2
    weights = weights.ravel().view(np.float64)
    end = (-1.0) ** np.arange(n) * (2.0 * np.sin(theta) ** 2 / dx)  # one-sided slope at node N
    slope = 1j * np.sqrt(0.25 * h * dx * lam)[:, None] * end / pos
    probe = np.zeros((m + 1, m * n), dtype=complex)  # one row per family, then the output
    probe[:m] = (np.eye(m)[:, :, None] * slope).reshape(m, -1)
    probe[m].real = output
    probe = probe.view(np.float64).T

    def meter(z: np.ndarray):
        zf = z.view(np.float64)
        r = zf @ probe
        return (zf * zf) @ weights + (r[:, :m] ** 2).sum(axis=1), r[:, m]

    return meter


def _fields(state: GridState, m: int):
    """Stacked copies ``(u, ud)`` of the first ``m`` fields of ``(v, p)``."""
    u = np.array((state.v, state.p)[:m], dtype=float)
    ud = np.array((state.vdot, state.pdot)[:m], dtype=float)
    return u, ud


def _check_length(grid: Grid, params: BeamParameters) -> None:
    """Raise ``ValueError`` unless the grid spans the beam (relative ``1e-12``)."""
    if not math.isclose(grid.length, params.length, rel_tol=1e-12):
        raise ValueError(f"grid length {grid.length} differs from beam length {params.length}")


def _state_energy(state: GridState, params: BeamParameters, model) -> float:
    _check_length(state.grid, params)
    z = _to_sines(*_fields(state, model.lam.size), model, 1.0, 1.0)
    return float(_sine_meter(model.lam, params.thickness, state.grid, 1.0, 1.0)(z[None])[0][0])


def discrete_energy(state: GridState, params: BeamParameters) -> float:
    """Stored energy of the coupled model on the grid.

    ``(h/2) * int rho vdot^2 + mu pdot^2 + alpha1 v_x^2 + beta (gamma v_x - p_x)^2``;
    the strain term is ``u_x.K u_x`` with ``u = (v, p)``.  It is the meter
    :func:`simulate` records (see *Energy meter* in the module docstring);
    node 0 is the fixed end, and its values are not read.
    """
    return _state_energy(state, params, _model(params))


def classical_energy(state: GridState, params: BeamParameters) -> float:
    """Stored energy ``(h/2) * int rho vdot^2 + alpha1 v_x^2`` of the classical model.

    Evaluated as :func:`discrete_energy` is; node 0 is not read.
    """
    return _state_energy(state, params, _model(params, classical=True))


def absorbing_gain(params: BeamParameters) -> float:
    """Feedback gain that makes the classical driven end perfectly absorbing.

    Matching the boundary impedance of right-going d'Alembert waves gives
    ``k = h * sqrt(rho * alpha1) / gamma``; ``params`` is valid by construction.
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


def _block_tables(rotation: np.ndarray, trace_xi: np.ndarray, gain: float):
    """Constant tables of :data:`BLOCK` closed-loop steps.

    ``powers[l] = rotation**l`` for ``l = 0..BLOCK``, and ``kicks`` holds the
    float views of ``rotation**(BLOCK-1) .. rotation**0``: the amplitudes
    after a block are ``powers[BLOCK] * xi + V @ kicks``.  ``kernel[l]`` is
    ``gain * trace_xi . Re(rotation**l)``, the feedback at a step of a unit
    kick ``l`` steps before.  ``feedback`` is the ``BLOCK x 2mN`` table with
    ``V = feedback @ xi.view(float)`` for an unforced block:
    ``gain * (I - G)^{-1} F``, with ``F`` the traces of ``rotation**l * xi``
    for ``l = 1..BLOCK`` and ``G`` the strictly lower Toeplitz matrix of
    ``kernel``, solved by forward substitution.
    """
    powers = np.empty((BLOCK + 1, rotation.size), dtype=complex)
    powers[0] = 1.0
    for l in range(BLOCK):
        np.multiply(powers[l], rotation, out=powers[l + 1])
    kicks = np.ascontiguousarray(powers[BLOCK - 1 :: -1]).view(np.float64)
    kernel = gain * (powers[:BLOCK].real @ trace_xi)
    feedback = np.empty((BLOCK, rotation.size), dtype=complex)
    feedback.real = gain * trace_xi * powers[1:].real
    feedback.imag = -gain * trace_xi * powers[1:].imag
    feedback = feedback.view(np.float64)
    for l in range(1, BLOCK):
        feedback[l] += kernel[l:0:-1] @ feedback[:l]
    return powers, kicks, kernel, feedback


def _time_step(grid: Grid, params: BeamParameters, cfg: SimConfig) -> tuple[float, int, _Model]:
    """``(dt, nsteps, model)`` of :func:`simulate` on ``grid``: the classical model in
    classical mode and the coupled one otherwise, and ``cfg.cfl`` times the stability
    bound ``dx * zeta`` of its fastest family, shortened so ``nsteps`` steps span ``cfg.T``."""
    model = _model(params, classical=True) if cfg.mode == "classical" else _model(params)
    dt = cfg.cfl * (grid.dx * model.zeta[-1])
    nsteps = max(1, int(math.ceil(cfg.T / dt - 1e-12)))
    return cfg.T / nsteps, nsteps, model


def simulate(initial: GridState, params: BeamParameters, cfg: SimConfig) -> Trajectory:
    """Integrate the beam dynamics from ``initial`` over ``[0, cfg.T]``.

    The step is ``cfg.cfl`` times the stability bound (see
    :class:`SimConfig`), shortened to divide ``cfg.T`` evenly.  The initial
    modal fields are transformed once into their ``m*N`` sine amplitudes.
    Each block of :data:`BLOCK` steps (fewer at the end) solves its voltages
    and advances the amplitudes in closed form (see *Sine modes* and *Driven
    end* in the module docstring).  Recorded steps are built from the
    block's start and its known voltages and only read them, and the final
    step is always metered alone, so ``energy_stride`` and ``snapshots``
    leave the run, ``energy[-1]`` and ``y[-1]`` bitwise unchanged.  Each
    metered batch keeps its times, energies, outputs and inputs as four
    arrays, joined once when the run ends.  With ``cfg.snapshots`` each batch
    is also transformed back to the grid, so the snapshots are the states at
    ``Trajectory.t``.  Returns a :class:`Trajectory` with per-step energies,
    output samples, the one external input ``cfg.forcing`` at each recorded
    step (the value the run applied there, from the one call it makes per
    step) and ``cfg`` with the gain it applied.  Raises
    :class:`NonFiniteState` with the step index if the update blows up: at
    the first recorded step whose energy is not finite (step 0 for bad
    initial data), or at the latest multiple of 512 steps.
    """
    grid = initial.grid
    _check_length(grid, params)
    n, dx, h = grid.n, grid.dx, params.thickness
    dt, nsteps, model = _time_step(grid, params, cfg)

    external = cfg.forcing
    k = 0.0 if cfg.mode == "open" else cfg.k if cfg.k is not None else 1.0 / (2.0 * h)
    _check_option("k", k)  # the default gain of a subnormal thickness overflows
    driven = k != 0.0 or external is not None
    forced = cfg.mode == "closed"

    u, ud = _fields(initial, model.lam.size)
    u[:, 0] = 0.0
    ud[:, 0] = 0.0
    initial_state = _as_state(grid, u, ud, initial.t)

    theta = _half_angles(n, grid.length)
    mu = model.lam[:, None] * ((2.0 * dt / dx) * np.sin(theta)) ** 2
    sine = np.sqrt(mu * (1.0 - 0.25 * mu))
    rotation = ((1.0 - 0.5 * mu) + 1j * sine).ravel()
    load = -(2.0 * dt**2 / (dx * h)) * model.drive  # kick of dt * wd at node N per unit voltage
    image = np.outer(load / n, (-1.0) ** np.arange(n))
    # xi = (dt * adot + 1j * sine * a) / image rotates by `rotation`, and a kick by V adds V
    pos, vel = sine / image, dt / image
    xi = _to_sines(u, ud, model, pos, vel)
    end = np.repeat(load / (n * dt), n)  # end velocity of each family per unit Re(xi)
    trace_xi = end * np.repeat(model.modes[-1], n)  # the row of P that feeds back
    meter = _sine_meter(model.lam, h, grid, pos, vel, end * np.repeat(model.drive / h, n))
    # the whole-step trace holds half the kick of V: trace = trace_xi . Re(xi) + trace_load * V
    trace_load = 0.5 * float(model.modes[-1] @ load) / dt
    gain = k / (1.0 - trace_load * k)  # V = f + gain * (trace_xi . Re(xi) + trace_load * f)
    powers, kicks, kernel, feedback = _block_tables(rotation, trace_xi, gain)
    stride = cfg.energy_stride
    batches: list[tuple[np.ndarray, ...]] = []  # (t, energy, y, forcing) per metered batch
    snapshots: list[GridState] = []
    rows = np.empty((BLOCK, xi.size), dtype=complex)  # recorded whole-step amplitudes not yet metered
    pending: list[int] = []  # their steps
    inputs: list[float] = []  # and the inputs at those steps
    windows = np.arange(BLOCK) + np.arange(BLOCK + 1)[:, None]  # row l: the kicks of steps 1..l, right-aligned

    def record(steps, z, f) -> None:
        e, y = meter(z)
        finite = np.isfinite(e)
        if not finite.all():
            raise NonFiniteState(f"non-finite state at step {steps[int(np.argmin(finite))]}")
        t = np.asarray(steps) * dt
        # a bare y is a view that would keep the meter's whole product alive
        batches.append((t, e, y + f if forced else y.copy(), f))
        if cfg.snapshots:
            us, uds = _from_sines(z, model, pos, vel)
            snapshots.extend(_as_state(grid, u, ud, when) for when, u, ud in zip(t.tolist(), us, uds))

    def flush() -> None:
        if pending:
            record(pending, rows[: len(pending)], np.array(inputs))
            pending.clear()
            inputs.clear()

    f0 = external(0.0) if external is not None else 0.0
    record([0], xi[None], np.array([f0]))
    xi += 0.5 * (k * float(xi.real @ trace_xi) + f0)
    f = np.zeros(BLOCK)  # the inputs of the block's steps
    xf = xi.view(np.float64)
    done = 0
    while done < nsteps:
        span = min(BLOCK, nsteps - done)
        voltage = feedback[:span] @ xf if k else np.zeros(span)
        if external is not None:
            f = np.array([external((done + l) * dt) for l in range(1, span + 1)])
            forcing = (1.0 + gain * trace_load) * f
            if k:  # forward substitution: a non-finite input spoils no earlier voltage
                for l in range(1, span):
                    forcing[l] += kernel[l:0:-1] @ forcing[:l]
            voltage += forcing
        last = span - (done + span == nsteps)  # the final step is recorded after the loop
        at = range(stride - done % stride, last + 1, stride)
        at_end = len(at) > 0 and at[-1] == span
        mid = at[:-1] if at_end else at
        if len(pending) + len(at) > BLOCK:
            flush()
        if mid:  # rotation**l * xi plus the block's kicks of steps 1..l, the last one halved
            out = rows[len(pending) : len(pending) + len(mid)]
            picks = slice(mid.start, mid.stop, mid.step)
            np.multiply(powers[picks], xi, out=out)
            if driven:
                top = BLOCK - mid[-1]
                taps = np.concatenate((np.zeros(BLOCK), voltage))[windows[picks, top:]]
                taps[:, -1] *= 0.5
                out.view(np.float64)[:] += taps @ kicks[top:]
            pending.extend(done + l for l in mid)
            inputs.extend(f[l - 1] for l in mid)
        xi *= powers[span]
        if driven:
            xf += voltage @ kicks[BLOCK - span :]
        done += span
        if at_end:
            np.subtract(xi, 0.5 * voltage[-1], out=rows[len(pending)])
            pending.append(done)
            inputs.append(f[-1])
        if done % 512 == 0:
            flush()
            _check_finite((xi,), done)
    flush()
    now = (xi - 0.5 * voltage[-1])[None]
    record([nsteps], now, f[-1:])
    u, ud = _from_sines(now, model, pos, vel)
    _check_finite((u, ud), nsteps)
    t, energy, y, forcing = (np.concatenate(column) for column in zip(*batches))
    return Trajectory(
        t=t,
        energy=energy,
        y=y,
        forcing=forcing,
        config=replace(cfg, k=k),
        dt=dt,
        initial=initial_state,
        final=_as_state(grid, u[0], ud[0], nsteps * dt),
        snapshots=snapshots,
    )


def _run_config(
    cfg: RunConfig, initial: GridState, mode: str = "closed", snapshots: bool = False
) -> Trajectory:
    """Run ``cfg`` from ``initial``: its ``T``, ``cfl`` and ``k``, recorded every
    ``round(cfg.sample_dt / dt)`` steps (at least 1).  The CLI's ``simulate`` and
    the ``decay_rate`` sweep metric both sample a configuration this way; ``sample_dt``
    follows its config key's rule."""
    _check_option("sample_dt", cfg.sample_dt)
    sim = SimConfig(mode=mode, T=cfg.T, cfl=cfg.cfl, k=cfg.k, snapshots=snapshots)
    stride = max(1, round(cfg.sample_dt / _time_step(initial.grid, cfg.params, sim)[0]))
    return simulate(initial, cfg.params, replace(sim, energy_stride=stride))


def energy_balance_residual(traj: Trajectory, params: BeamParameters) -> float:
    """Conservativity defect of a closed-loop run at the default gain.

    For the closed loop driven by the run's external input
    ``u = SimConfig.forcing`` (so that ``V = pdot(L)/(2h) + u`` and
    ``y = pdot(L)/h + u``) the exact balance is

        ||z(T)||^2 + int_0^T |y|^2 = ||z0||^2 + int_0^T |u|^2

    in the energy norm ``||z||^2 = (2/h) * E``.  Returns the left side minus
    the right side as a Python ``float``, with time integrals by the
    trapezoid rule; the magnitude measures the discretization's
    conservativity defect.  Every term is one the run recorded: ``E(0)`` and
    ``E(T)`` are ``traj.energy[0]`` and ``traj.energy[-1]`` (for a coupled run
    the meter of :func:`discrete_energy`), and ``u`` is ``traj.forcing``, the
    input at each recorded time (zeros for a run without one).  Raises
    ``ValueError`` unless ``traj.config`` is closed mode at the gain
    ``1/(2h)`` of ``params`` (relative ``1e-12``), the run the identity
    describes.
    """
    h = params.thickness
    if traj.config.mode != "closed" or not math.isclose(traj.config.k, 1.0 / (2.0 * h), rel_tol=1e-12):
        raise ValueError(f"the energy balance holds for a closed-loop run at k = 1/(2h) = {1.0 / (2.0 * h)!r}, "
                         f"got a {traj.config.mode} run at k = {traj.config.k!r}")
    t = traj.t
    e0, eT = float(traj.energy[0]), float(traj.energy[-1])
    y_int = float(np.trapezoid(traj.y**2, t))
    u_int = float(np.trapezoid(traj.forcing**2, t))
    return (2.0 / h) * eT + y_int - (2.0 / h) * e0 - u_int


def decay_rate(energies, times) -> tuple[float, float]:
    """Exponential decay rate fitted on the last half of an energy record.

    Least-squares slope of ``log E`` against ``t``; returns ``(-slope, r2)``.
    A constant record gives rate 0 with r2 reported as 0.

    Raises
    ------
    NonPositiveEnergy
        If any energy in the fitted window is not strictly positive (or is NaN).
    ValueError
        If the series are unaligned or shorter than 10, or not finite in the window.
    """
    energies = np.asarray(energies, dtype=float)
    times = np.asarray(times, dtype=float)
    if energies.shape != times.shape or energies.size < 10:
        raise ValueError("need aligned series of length >= 10")
    start = energies.size // 2
    e = energies[start:]
    t = times[start:]
    if not np.all(e > 0):
        raise NonPositiveEnergy("energies must be positive to fit log decay")
    for name, values in (("energies", e), ("times", t)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} in the fitted window must be finite")
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
    _check_integer(n_cells, "n_cells")
    _check_integer(count, "count")
    if count > 2 * n_cells:
        raise ValueError(f"count must be at most 2 * n_cells = {2 * n_cells}, got {count}")
    lam = _model(params).lam
    wavenumber = (2.0 * n_cells / params.length) * np.sin(_half_angles(n_cells, params.length))
    return np.sort(np.outer(lam, wavenumber**2), axis=None)[:count]


def grid_state_from_modal(
    coeffs: ModalCoefficients, params: BeamParameters, grid: Grid
) -> GridState:
    """Sample the real part of a modal state onto the grid nodes, at any truncation.

    One :func:`piezobeam.spectral._sine_synthesis` of its field rows: the
    inverse of the sine analysis :func:`simulate` starts from.  A state at
    time ``t`` is that of :func:`piezobeam.spectral.propagate`.  Raises
    ``ValueError`` unless the grid spans the beam.
    """
    _check_length(grid, params)
    return GridState(grid, *_sine_synthesis(_field_rows(coeffs, params), grid.n)[:4].copy())


def state_from_samples(grid: Grid, x, v, p, vdot, pdot) -> GridState:
    """Interpolate sampled fields linearly onto the grid nodes; keeps real parts.

    Raises ``ValueError`` where :meth:`StateFunctions.from_samples` does, and
    unless ``x`` runs from ``<= 0`` to ``>= L`` (up to a relative ``1e-12``):
    linear interpolation would otherwise extrapolate silently.
    """
    state = StateFunctions.from_samples(x, v, p, vdot, pdot)
    x = np.asarray(x, dtype=float)
    if not (x[0] <= 0 and x[-1] >= grid.length * (1.0 - 1e-12)):
        raise ValueError(f"x must increase strictly from <= 0 to >= L = {grid.length}")
    return GridState(grid, *(np.ascontiguousarray(c) for c in state.sample(grid.nodes).real))


def sine_velocity_state(grid: Grid, j: int = 1) -> GridState:
    """Zero displacement with ``vdot = sin(sigma_j x)``.

    Raises ``ValueError`` unless ``j >= 1`` is an integer.
    """
    _check_integer(j, "mode index j")
    state = GridState.zero(grid)
    state.vdot = np.sin(sigma(j, grid.length) * grid.nodes)
    return state


def gaussian_velocity_state(grid: Grid, center: float = 0.25, width: float = 0.04) -> GridState:
    """Zero displacement with a unit-height Gaussian bump in ``vdot``.

    ``center`` and ``width`` are fractions of the length; defaults keep the
    bump supported well inside the left half of the beam.  Raises
    ``ValueError`` unless ``center`` is finite and ``0 < width < inf``.
    """
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0 < width < math.inf:
        raise ValueError(f"width must be finite and > 0, got {width}")
    state = GridState.zero(grid)
    x = grid.nodes
    state.vdot = np.exp(-0.5 * ((x - center * grid.length) / (width * grid.length)) ** 2)
    state.vdot[0] = 0.0
    return state
