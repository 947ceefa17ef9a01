"""Finite-difference simulation: conservation, dissipation, balance, absorption."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import eig_banded

from piezobeam import (
    BeamParameters,
    DegenerateCoupling,
    Grid,
    GridState,
    ModalCoefficients,
    MalformedValue,
    ModeIndex,
    NonFiniteState,
    NonPositiveEnergy,
    NonPositiveParameter,
    SimConfig,
    StateFunctions,
    absorbing_gain,
    classical_energy,
    decay_rate,
    derive_constants,
    discrete_energy,
    energy_balance_residual,
    gaussian_velocity_state,
    grid_state_from_modal,
    modal_norm_sq,
    operator_eigenvalues,
    parameters_for_ratio,
    propagate,
    reconstruct,
    simulate,
    sine_velocity_state,
    state_from_samples,
)
from piezobeam.config import RunConfig
from piezobeam.spectral import _model
from piezobeam.timedomain import BLOCK, _from_sines
from conftest import exact_sine_sums


def eigenmode_state(params, grid, family=1, j=1):
    coeffs = ModalCoefficients.single(ModeIndex(family, 1, j), J=j)
    return coeffs, grid_state_from_modal(coeffs, params, grid)


def reference_simulate(initial, params, cfg):
    """Velocity Verlet in physical coordinates: the oracle for ``simulate``.

    Steps the stacked fields ``u, ud`` with the full stiffness ``K``, records
    every step, and takes the energy from ``np.gradient`` and
    ``np.trapezoid``.  Returns ``(t, energy, y, u, ud)``.
    """
    h, dx, rho = params.thickness, initial.grid.dx, params.rho
    if cfg.mode == "classical":
        mass, stiff, c, row = np.array([rho]), np.array([[params.alpha1]]), np.array([params.gamma]), 0
        dt_max = dx * math.sqrt(rho / params.alpha1)
    else:
        alpha, gb = params.alpha1 + params.gamma**2 * params.beta, params.gamma * params.beta
        mass, stiff = np.array([rho, params.mu]), np.array([[alpha, -gb], [-gb, params.beta]])
        c, row, dt_max = np.array([0.0, 1.0]), 1, dx * derive_constants(params).zeta2
    nsteps = int(math.ceil(cfg.T / (cfg.cfl * dt_max) - 1e-12))
    dt = cfg.T / nsteps
    k = 0.0 if cfg.mode == "open" else cfg.k if cfg.k is not None else 1.0 / (2.0 * h)
    external = cfg.forcing or (lambda t: 0.0)
    u = np.array((initial.v, initial.p)[: mass.size])
    ud = np.array((initial.vdot, initial.pdot)[: mass.size])
    u[:, 0] = ud[:, 0] = 0.0
    kick = (0.5 * dt / dx**2) * stiff / mass[:, None]
    load = -(dt / (dx * h)) * c / mass

    def stencil_kick():
        d2 = np.zeros_like(u)
        d2[:, 1:-1] = u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]
        d2[:, -1] = 2.0 * (u[:, -2] - u[:, -1])
        return kick @ d2

    def energy():
        ux = np.gradient(u, dx, axis=1)
        density = mass @ ud**2 + np.einsum("ij,in,jn->n", stiff, ux, ux)
        return 0.5 * h * np.trapezoid(density, dx=dx)

    def observe(f):
        return c @ ud[:, -1] / h + (f if cfg.mode == "closed" else 0.0)

    f = external(0.0)
    times, energies, ys = [0.0], [energy()], [observe(f)]
    dv = stencil_kick()
    dv[:, -1] += load * (k * ud[row, -1] + f)
    for step in range(1, nsteps + 1):
        ud += dv
        u += dt * ud
        dv = stencil_kick()
        f = external(step * dt)
        trace = (ud[row, -1] + dv[row, -1] + load[row] * f) / (1.0 - load[row] * k)
        dv[:, -1] += load * (k * trace + f)
        ud += dv
        times.append(step * dt)
        energies.append(energy())
        ys.append(observe(f))
    return np.array(times), np.array(energies), np.array(ys), u, ud


def reference_operator_eigenvalues(params, n_cells, count):
    """Smallest ``count`` eigenvalues of the assembled pencil: the oracle for
    ``operator_eigenvalues``.

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


def rich_state(grid):
    """A bump in ``vdot`` with nonzero ``v``, ``p`` and ``pdot`` as well."""
    state = gaussian_velocity_state(grid, center=0.5, width=0.1)
    x = grid.nodes
    state.v = 0.3 * np.sin(0.5 * np.pi * x)
    state.p = 0.1 * x**2
    state.pdot = 0.2 * np.sin(2.0 * x)
    return state


class TestReferenceStepper:
    @pytest.mark.parametrize(
        "params_name, cfg, n, T",
        [
            ("golden", dict(mode="open", forcing=math.sin), 64, 5.0),
            ("ratio_half", dict(mode="closed", forcing=math.cos, k=20.0), 64, 5.0),
            ("golden", dict(mode="classical", k=0.7), 64, 5.0),
            # about 8,000 steps: long enough to see the rounding of each mode's phase
            ("ratio_half", dict(mode="closed"), 256, 20.0),
        ],
        ids=["open", "closed", "classical", "closed_long"],
    )
    def test_matches_physical_velocity_verlet(self, request, params_name, cfg, n, T):
        """Stepping the sine modes is the physical stepper up to rounding."""
        params = request.getfixturevalue(params_name)
        state = rich_state(Grid(n))
        sim = SimConfig(T=T, **cfg)
        traj = simulate(state, params, sim)
        t, energy, y, u, ud = reference_simulate(state, params, sim)
        np.testing.assert_array_equal(traj.t, t)
        reference = {"v": u[0], "vdot": ud[0]}
        if len(u) == 2:
            reference.update(p=u[1], pdot=ud[1])
        for name, ref in reference.items():
            got = getattr(traj.final, name)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), name
        np.testing.assert_allclose(traj.energy, energy, rtol=1e-11, atol=0)
        np.testing.assert_allclose(traj.y, y, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["open", "closed", "classical"])
    def test_recorded_energy_is_snapshot_energy(self, golden, mode):
        """A snapshot is the state of each recorded row, at its time and with its energy;
        the last one is the final state."""
        state = rich_state(Grid(64))
        traj = simulate(state, golden, SimConfig(mode=mode, T=2.0, energy_stride=3, snapshots=True))
        stored = classical_energy if mode == "classical" else discrete_energy
        steps = np.rint(traj.t / traj.dt).astype(int)
        assert np.any(steps[:-1] % BLOCK)  # rows inside a block
        assert [snap.t for snap in traj.snapshots] == traj.t.tolist()
        for snap, energy in zip(traj.snapshots, traj.energy):
            assert energy == pytest.approx(stored(snap, golden), rel=1e-12)
        last = traj.snapshots[-1]
        for name in ("v", "p", "vdot", "pdot"):
            np.testing.assert_array_equal(getattr(last, name), getattr(traj.final, name))

    @pytest.mark.parametrize("mode", ["open", "closed", "classical"])
    @pytest.mark.parametrize("initial", ["bump", "sine:2"])
    def test_first_snapshot_is_the_initial_state(self, golden, mode, initial):
        """The step-0 snapshot is the run's initial state bit for bit, at ``t = 0``, and
        not a round trip through the sine basis."""
        grid = Grid(64)
        state = gaussian_velocity_state(grid) if initial == "bump" else sine_velocity_state(grid, 2)
        traj = simulate(state, golden, SimConfig(mode=mode, T=0.5, energy_stride=4, snapshots=True))
        first = traj.snapshots[0]
        assert first.t == 0.0 and first is not traj.initial
        for name in ("v", "p", "vdot", "pdot"):
            np.testing.assert_array_equal(getattr(first, name), getattr(traj.initial, name))

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(mode="open", forcing=math.sin),
            dict(mode="closed", forcing=math.cos),
            dict(mode="classical", k=0.7),
        ],
        ids=["open", "closed", "classical"],
    )
    def test_recording_does_not_change_the_run(self, golden, cfg):
        """Energy strides and snapshots only read the state: the final state, energy and output
        are bitwise equal, and a stride records the stride-1 samples."""
        state = rich_state(Grid(64))
        strides = (1, 3, 4, 5, 8, 10**9)
        runs = [
            (stride, simulate(state, golden, SimConfig(T=2.0, energy_stride=stride, snapshots=snap, **cfg)))
            for stride in strides
            for snap in (False, True)
        ]
        first = runs[0][1]
        assert round(2.0 / first.dt) % BLOCK != 0  # the last block is a short one
        for stride, traj in runs[1:]:
            assert len(traj.snapshots) in (0, traj.t.size)
            for name in ("v", "p", "vdot", "pdot"):
                np.testing.assert_array_equal(getattr(traj.final, name), getattr(first.final, name))
            assert traj.energy[-1] == first.energy[-1]
            assert traj.y[-1] == first.y[-1]
            np.testing.assert_array_equal(traj.t[:-1], first.t[::stride][: traj.t.size - 1])
            np.testing.assert_allclose(traj.energy[:-1], first.energy[::stride][: traj.t.size - 1], rtol=1e-13)
            np.testing.assert_allclose(traj.y[:-1], first.y[::stride][: traj.t.size - 1], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("classical", [False, True], ids=["coupled", "classical"])
    def test_leaving_the_sine_basis_is_the_exact_sine_sums(self, golden, classical):
        """``_from_sines`` mixes, by ``model.modes``, the exact sine sums of its scaled
        amplitudes, ``z.imag / pos`` for the positions and ``z.real / vel`` for the
        velocities, to ``1e-14`` of their scale."""
        model = _model(golden, classical=classical)
        m, n, R = model.lam.size, 48, 3
        rng = np.random.default_rng(5)
        z = rng.standard_normal((R, m * n)) + 1j * rng.standard_normal((R, m * n))
        pos, vel = rng.uniform(0.5, 2.0, (2, m, n))
        u, ud = _from_sines(z, model, pos, vel)
        for got, amplitudes in ((u, z.reshape(R, m, n).imag / pos), (ud, z.reshape(R, m, n).real / vel)):
            exact = model.modes @ exact_sine_sums(amplitudes, n)
            assert got.shape == exact.shape
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


class TestNonFiniteState:
    def test_bad_initial_data_named_at_step_zero(self, golden):
        state = gaussian_velocity_state(Grid(64))
        state.vdot[20] = np.nan
        with pytest.raises(NonFiniteState, match=r"step 0$"):
            simulate(state, golden, SimConfig(mode="closed", T=1.0))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_first_bad_step_named_exactly(self, golden, stride):
        """A non-finite input spoils no earlier step of its block: the first
        recorded step at or after it is named."""
        state = gaussian_velocity_state(Grid(64))
        dt = simulate(state, golden, SimConfig(mode="closed", T=1.0)).dt
        bad = lambda t: math.nan if t > 0.5 else 0.0  # noqa: E731
        first = math.floor(0.5 / dt) + 1
        assert first % BLOCK not in (0, 1)  # inside a block, after its first step
        named = -(-first // stride) * stride
        with pytest.raises(NonFiniteState, match=rf"step {named}$"):
            simulate(state, golden, SimConfig(mode="closed", T=1.0, forcing=bad, energy_stride=stride))

    def test_unrecorded_blow_up_named_at_a_multiple_of_512(self, golden):
        state = gaussian_velocity_state(Grid(64))
        bad = lambda t: math.nan if t > 1.0 else 0.0  # noqa: E731
        with pytest.raises(NonFiniteState, match=r"step 512$"):
            simulate(state, golden, SimConfig(mode="closed", T=10.0, forcing=bad, energy_stride=10**9))


class TestInitialData:
    @pytest.mark.parametrize("j", [0, -2, 1.5, math.inf, math.nan, 2.0, np.float64(3.0), True])
    def test_sine_mode_index_must_be_positive_integer(self, j):
        with pytest.raises(ValueError, match="mode index j must be an integer >= 1"):
            sine_velocity_state(Grid(16), j=j)

    def test_sine_mode_accepts_numpy_integers(self):
        state = sine_velocity_state(Grid(16), j=np.int64(3))
        np.testing.assert_array_equal(state.vdot, sine_velocity_state(Grid(16), j=3).vdot)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(width=0.0), "width"),
            (dict(width=-0.1), "width"),
            (dict(width=math.inf), "width"),
            (dict(width=math.nan), "width"),
            (dict(center=math.nan), "center"),
            (dict(center=math.inf), "center"),
        ],
    )
    def test_gaussian_bump_needs_finite_center_and_positive_width(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            gaussian_velocity_state(Grid(16), **kwargs)


    def test_samples_interpolate_onto_the_grid(self):
        grid = Grid(16, length=2.0)
        x = np.linspace(0.0, 2.0, 5)
        state = state_from_samples(grid, x, x, 2 * x, x**2, -x)
        np.testing.assert_array_equal(state.v, grid.nodes)
        np.testing.assert_array_equal(state.p, 2 * grid.nodes)
        np.testing.assert_array_equal(state.pdot, -grid.nodes)

    @pytest.mark.parametrize(
        "x, message",
        [
            ([0.0], "one length >= 2"),
            ([[0.0, 1.0]], "one length >= 2"),
            ([0.0, 0.5, 0.5, 1.0], "increase strictly"),
            ([0.0, 0.7, 0.5, 1.0], "increase strictly"),
            ([1.0, 0.5, 0.0], "increase strictly"),
            ([0.1, 0.5, 1.0], "increase strictly"),
            ([0.0, 0.5, 0.99], "increase strictly"),
            ([0.0, math.nan, 1.0], "finite"),
            ([0.0, 0.5, math.inf], "finite"),
        ],
    )
    def test_samples_must_cover_the_beam(self, x, message):
        x = np.asarray(x)
        with pytest.raises(ValueError, match=message):
            state_from_samples(Grid(16), x, *(np.zeros_like(x),) * 4)

    @pytest.mark.parametrize(
        "x, cut, message",
        [
            ([1.0, 0.75, 0.5, 0.25, 0.0], 0, "x must increase strictly"),
            ([0.0, 0.5, 0.5, 1.0], 0, "x must increase strictly"),
            ([0.0, math.nan, 1.0], 0, "samples must be finite"),
            ([0.0, 0.5, 1.0], 1, "samples must be five 1-d arrays of one length >= 2"),
        ],
    )
    def test_state_functions_check_samples_alike(self, x, cut, message):
        """``StateFunctions.from_samples`` runs the checks of ``state_from_samples``."""
        x = np.asarray(x)
        fields = (x, x, x, x[: x.size - cut])
        with pytest.raises(ValueError, match=message):
            StateFunctions.from_samples(x, *fields)
        with pytest.raises(ValueError, match=message):
            state_from_samples(Grid(16), x, *fields)

    def test_sample_arrays_must_share_one_length(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="one length >= 2"):
            state_from_samples(Grid(16), x, x, x, x, x[:4])
        with pytest.raises(ValueError, match="finite"):
            state_from_samples(Grid(16), x, x, x, np.full(5, math.nan), x)


class TestGridLength:
    @pytest.mark.parametrize(
        "call",
        [
            lambda grid, p: simulate(GridState.zero(grid), p, SimConfig(T=0.1)),
            lambda grid, p: grid_state_from_modal(
                ModalCoefficients.single(ModeIndex(1, 1, 1), J=1), p, grid
            ),
            lambda grid, p: discrete_energy(GridState.zero(grid), p),
            lambda grid, p: classical_energy(GridState.zero(grid), p),
        ],
        ids=["simulate", "grid_state_from_modal", "discrete_energy", "classical_energy"],
    )
    def test_grid_must_span_the_beam(self, call):
        """A unit grid would run or sample a length-2 beam as a length-1 one."""
        long_beam = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0, length=2.0)
        with pytest.raises(ValueError, match="grid length 1.0 differs from beam length 2.0"):
            call(Grid(64), long_beam)
        call(Grid(64, length=2.0 * (1.0 + 1e-13)), long_beam)

    @pytest.mark.parametrize(
        "n, error",
        [(100.0, MalformedValue), (15, NonPositiveParameter), (0, NonPositiveParameter),
         (np.float64(64.0), MalformedValue), ("64", MalformedValue)],
    )
    def test_cell_count_must_be_an_integer_of_at_least_min_cells(self, n, error):
        with pytest.raises(error, match="N must be an integer >= 16"):
            Grid(n)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 0.0, -1.0])
    def test_length_must_be_finite_and_positive(self, length):
        with pytest.raises(ValueError, match="length must be finite and > 0"):
            Grid(64, length)

    def test_numpy_integer_cell_count(self):
        assert Grid(np.int64(16)).nodes.size == 17


class TestSimConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            SimConfig(mode="bogus")

    def test_voltage_is_gone(self):
        """Open and closed mode share one input, ``forcing``; there is no second one to set."""
        with pytest.raises(TypeError, match="voltage"):
            SimConfig(mode="open", voltage=math.sin)

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_forcing_in_open_and_closed_mode(self, mode):
        assert SimConfig(mode=mode, forcing=math.sin).forcing is math.sin

    def test_forcing_not_in_classical_mode(self):
        with pytest.raises(ValueError, match="forcing"):
            SimConfig(mode="classical", forcing=math.sin)

    @pytest.mark.parametrize("snapshots", [0, 1, 0.3, None, "yes", np.True_])
    def test_snapshots_must_be_a_bool(self, snapshots):
        with pytest.raises(ValueError, match="snapshots"):
            SimConfig(snapshots=snapshots)

    def test_snapshot_dt_is_gone(self):
        """Snapshots follow the recorded rows; there is no second schedule to set."""
        with pytest.raises(TypeError, match="snapshot_dt"):
            SimConfig(snapshot_dt=0.5)

    @pytest.mark.parametrize("stride", [0, -1, 2.5, 2.0, math.nan, "2", True])
    def test_energy_stride_must_be_an_integer(self, stride):
        with pytest.raises(ValueError, match="energy_stride"):
            SimConfig(energy_stride=stride)

    @pytest.mark.parametrize("stride", [1, 8, 10**9, np.int64(4)])
    def test_integer_energy_stride_accepted(self, stride):
        assert SimConfig(energy_stride=stride).energy_stride == stride

    def test_run_defaults_are_the_run_configs(self):
        """Library runs and CLI runs share one table of defaults."""
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert (SimConfig().T, SimConfig().cfl) == (defaults["T"], defaults["cfl"])

    def test_step_is_not_an_option(self):
        """``cfl`` sets the step; there is no ``dt`` to force."""
        with pytest.raises(TypeError):
            SimConfig(mode="closed", T=1.0, dt=0.01)


class TestDiscreteEnergy:
    def test_zero_state(self, golden):
        assert discrete_energy(GridState.zero(Grid(64)), golden) == 0.0

    def test_quadratic_scaling(self, golden):
        state = gaussian_velocity_state(Grid(128))
        state.v = np.sin(np.pi * state.grid.nodes / 2.0)
        e1 = discrete_energy(state, golden)
        doubled = state.copy()
        doubled.v *= 2.0
        doubled.vdot *= 2.0
        np.testing.assert_allclose(discrete_energy(doubled, golden), 4.0 * e1, rtol=1e-12)

    def test_eigenmode_matches_modal_norm(self, golden):
        """Grid energy of the real part of an eigenmode matches the modal value."""
        grid = Grid(2048)
        coeffs, state = eigenmode_state(golden, grid)
        # real part keeps the velocity components only: norm (rho + b1^2 mu)/2... via projection
        x = np.linspace(0.0, 1.0, 4097)
        comps = reconstruct(coeffs, golden, x).real
        spectral_e = 0.5 * modal_norm_sq(coeffs, golden)  # complex-mode norm
        # the real part of a +branch mode is (mode - conj-branch)/2 and carries half
        grid_e = discrete_energy(state, golden)
        np.testing.assert_allclose(grid_e, 0.5 * spectral_e, rtol=1e-5)


class TestOpenLoopConservation:
    def test_eigenmode_energy_drift(self, golden):
        grid = Grid(1024)
        _, state = eigenmode_state(golden, grid)
        traj = simulate(state, golden, SimConfig(mode="open", T=5.0))
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
        assert drift < 1e-6

    def test_drift_is_second_order_in_dt(self, golden):
        """Halving dt (grid refinement at fixed CFL) cuts the drift ~4x."""
        drifts = []
        for n in (256, 512):
            _, state = eigenmode_state(golden, Grid(n))
            traj = simulate(state, golden, SimConfig(mode="open", T=4.0))
            drifts.append(np.max(np.abs(traj.energy - traj.energy[0])))
        ratio = drifts[0] / drifts[1]
        assert 3.5 < ratio < 4.5, ratio

    def test_matches_spectral_propagator(self, golden):
        grid = Grid(1024)
        coeffs, state = eigenmode_state(golden, grid)
        traj = simulate(state, golden, SimConfig(mode="open", T=5.0))
        exact = reconstruct(propagate(coeffs, golden, traj.t[-1]), golden, grid.nodes).real
        for sim_arr, exact_arr in (
            (traj.final.v, exact[0]),
            (traj.final.p, exact[1]),
            (traj.final.vdot, exact[2]),
            (traj.final.pdot, exact[3]),
        ):
            assert np.max(np.abs(sim_arr - exact_arr)) < 1e-4

    def test_prescribed_voltage_runs(self, golden):
        grid = Grid(64)
        traj = simulate(
            GridState.zero(grid),
            golden,
            SimConfig(mode="open", T=1.0, forcing=lambda t: math.sin(3.0 * t)),
        )
        assert traj.energy[-1] > 0.0  # boundary input pumps energy in


class TestClosedLoop:
    def test_energy_monotone_up_to_discretization(self, ratio_half):
        """Per-step upticks are integrator noise: tiny and vanishing under refinement."""
        upticks = []
        for n in (256, 512):
            state = gaussian_velocity_state(Grid(n), center=0.5, width=0.08)
            traj = simulate(state, ratio_half, SimConfig(mode="closed", T=8.0))
            upticks.append(np.max(np.diff(traj.energy)) / traj.energy[0])
            assert traj.energy[-1] < 0.1 * traj.energy[0]
        assert upticks[0] < 1e-5
        assert upticks[1] < 0.3 * upticks[0]

    def test_mixed_parity_decay_rate_pinned(self, ratio_half):
        """Golden value recorded from this configuration; repeatable to +-20%."""
        grid = Grid(512)
        state = gaussian_velocity_state(grid, center=0.5, width=0.08)
        traj = simulate(state, ratio_half, SimConfig(mode="closed", T=60.0, energy_stride=4))
        rate, r2 = decay_rate(traj.energy, traj.t)
        assert rate == pytest.approx(0.3832, rel=0.20)
        assert r2 > 0.95
        assert traj.energy[-1] / traj.energy[0] < 0.05

    @pytest.mark.parametrize("k", [2.0, 20.0, 200.0])
    def test_high_gain_stays_finite_and_dissipates(self, ratio_half, k):
        """Feedback closes on the end velocity at each step, so no gain blows up."""
        state = gaussian_velocity_state(Grid(512), center=0.5, width=0.08)
        traj = simulate(state, ratio_half, SimConfig(mode="closed", T=10.0, k=k, energy_stride=4))
        assert np.all(np.isfinite(traj.energy))
        assert traj.energy[-1] < traj.energy[0]


class TestRecordedForcing:
    @pytest.mark.parametrize("stride", [1, 3, 8, 10**9])
    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_forcing_is_the_input_at_each_recorded_time(self, golden, mode, stride):
        """Rows inside blocks, at block ends and the final step record ``f(t)`` bitwise."""
        f = lambda t: math.cos(2.0 * t) + 0.3
        traj = simulate(rich_state(Grid(64)), golden, SimConfig(mode=mode, T=2.0, forcing=f, energy_stride=stride))
        assert traj.forcing.shape == traj.t.shape
        assert traj.forcing.tolist() == [f(t) for t in traj.t.tolist()]

    @pytest.mark.parametrize("mode", ["open", "closed", "classical"])
    def test_unforced_run_records_zeros(self, golden, mode):
        traj = simulate(rich_state(Grid(64)), golden, SimConfig(mode=mode, T=2.0, energy_stride=3))
        np.testing.assert_array_equal(traj.forcing, np.zeros(traj.t.size))


class TestEnergyBalance:
    def test_zero_everything(self, golden):
        grid = Grid(64)
        traj = simulate(GridState.zero(grid), golden, SimConfig(mode="closed", T=1.0))
        assert energy_balance_residual(traj, golden) == pytest.approx(0.0, abs=1e-15)

    def test_forced_balance_converges(self, golden):
        residuals = []
        for n in (512, 1024):
            traj = simulate(
                GridState.zero(Grid(n)),
                golden,
                SimConfig(mode="closed", T=20.0, forcing=math.sin),
            )
            u_energy = np.trapezoid(np.sin(traj.t) ** 2, traj.t)
            residuals.append(abs(energy_balance_residual(traj, golden)) / u_energy)
        assert residuals[0] < 1e-3
        assert residuals[1] < residuals[0]

    @pytest.mark.parametrize(
        "n, stride, f",
        [(128, 1, math.sin), (128, 3, math.sin), (64, 7, lambda t: math.cos(2.0 * t) + 0.3)],
        ids=["sin-1", "sin-3", "cos-7"],
    )
    def test_forced_residual_reads_the_run(self, golden, n, stride, f):
        """The balance integrates the input the run recorded: the one it applied at each row."""
        traj = simulate(GridState.zero(Grid(n)), golden, SimConfig(mode="closed", T=5.0, forcing=f, energy_stride=stride))
        h = golden.thickness
        u = np.asarray([f(t) for t in traj.t])
        applied = (
            (2.0 / h) * float(traj.energy[-1]) + float(np.trapezoid(traj.y**2, traj.t))
            - (2.0 / h) * float(traj.energy[0]) - float(np.trapezoid(u**2, traj.t))
        )
        assert energy_balance_residual(traj, golden) == applied

    def test_input_is_not_given_twice(self, golden):
        traj = simulate(GridState.zero(Grid(64)), golden, SimConfig(mode="closed", T=1.0, forcing=math.sin))
        with pytest.raises(TypeError):
            energy_balance_residual(traj, golden, math.sin)

    @pytest.mark.parametrize(
        "sim, thickness",
        [
            (SimConfig(mode="classical", T=1.0), 1.0),
            (SimConfig(mode="open", T=1.0, forcing=math.sin), 1.0),
            (SimConfig(mode="closed", T=1.0, k=2.0), 1.0),
            (SimConfig(mode="closed", T=1.0), 2.0),
        ],
        ids=["classical", "open", "closed-k2", "other-thickness"],
    )
    def test_refuses_runs_it_does_not_describe(self, golden, sim, thickness):
        """The identity holds for a closed-loop run at ``k = 1/(2h)`` of the beam passed in."""
        traj = simulate(rich_state(Grid(64)), golden, sim)
        applied = 0.0 if sim.mode == "open" else sim.k or 1.0 / (2.0 * golden.thickness)
        assert traj.config == replace(sim, k=applied)
        with pytest.raises(ValueError, match=f"got a {sim.mode} run at k = "):
            energy_balance_residual(traj, replace(golden, thickness=thickness))

    def test_explicit_matched_gain_is_the_default_run(self, golden):
        run = lambda k: simulate(rich_state(Grid(64)), golden, SimConfig(mode="closed", T=1.0, k=k, forcing=math.sin))
        default, explicit = run(None), run(1.0 / (2.0 * golden.thickness))
        assert default.config == explicit.config and default.config.k == 1.0 / (2.0 * golden.thickness)
        assert energy_balance_residual(explicit, golden) == energy_balance_residual(default, golden)

    def test_unforced_residual_is_dissipation_accounting(self, golden):
        grid = Grid(256)
        _, state = eigenmode_state(golden, grid)
        traj = simulate(state, golden, SimConfig(mode="closed", T=5.0))
        manual = (
            (2.0 / golden.thickness) * (traj.energy[-1] - traj.energy[0])
            + np.trapezoid(traj.y**2, traj.t)
        )
        np.testing.assert_allclose(
            energy_balance_residual(traj, golden), manual, rtol=0, atol=1e-12
        )


class TestClassicalModel:
    def test_absorbing_boundary_clears_pulse(self, golden):
        """Impedance-matched gain absorbs a compactly supported pulse."""
        grid = Grid(2048)
        state = gaussian_velocity_state(grid, center=0.25, width=0.04)
        k = absorbing_gain(golden)
        assert k == pytest.approx(math.sqrt(golden.rho * golden.alpha1))
        transit = 2.0 * golden.length * math.sqrt(golden.rho / golden.alpha1)
        traj = simulate(
            state, golden, SimConfig(mode="classical", T=1.2 * transit, k=k)
        )
        after = traj.energy[traj.t > transit]
        assert after.size > 0
        assert np.max(after) < 1e-6 * traj.energy[0]

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("gamma", 0.0, DegenerateCoupling, "gamma = 0"),
            ("rho", -1.0, NonPositiveParameter, "rho must be finite and > 0, got -1.0"),
            ("rho", math.nan, MalformedValue, "rho must be finite and > 0, got nan"),
            ("alpha1", math.inf, MalformedValue, "alpha1 must be finite and > 0, got inf"),
        ],
    )
    def test_absorbing_gain_validates_parameters(self, golden, field, value, error, message):
        with pytest.raises(error, match=message):
            absorbing_gain(replace(golden, **{field: value}))

    def test_energy_constant_before_boundary_contact(self, golden):
        grid = Grid(512)
        state = gaussian_velocity_state(grid, center=0.5, width=0.05)
        traj = simulate(state, golden, SimConfig(mode="classical", T=0.2, k=1.0))
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
        assert drift < 1e-4

    def test_high_gain_stays_finite(self, golden):
        state = gaussian_velocity_state(Grid(512), center=0.5, width=0.08)
        traj = simulate(state, golden, SimConfig(mode="classical", T=10.0, k=20.0, energy_stride=4))
        assert np.all(np.isfinite(traj.energy))
        assert traj.energy[-1] < traj.energy[0]

    def test_snapshots_recorded(self, golden):
        state = gaussian_velocity_state(Grid(64), center=0.5, width=0.1)
        traj = simulate(state, golden, SimConfig(mode="classical", T=1.0, energy_stride=10, snapshots=True))
        assert len(traj.snapshots) == traj.t.size and traj.snapshots[0].t == 0.0
        assert not any(np.any(snap.p) or np.any(snap.pdot) for snap in traj.snapshots)

    def test_classical_energy_definition(self, golden):
        grid = Grid(64)
        state = gaussian_velocity_state(grid)
        assert classical_energy(state, golden) == pytest.approx(
            0.5 * np.trapezoid(state.vdot**2, dx=grid.dx)
        )


class TestDecayRate:
    def test_constant_energy(self):
        t = np.linspace(0.0, 5.0, 50)
        rate, r2 = decay_rate(np.ones_like(t), t)
        assert rate == 0.0 and r2 == 0.0

    def test_pure_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        rate, r2 = decay_rate(np.exp(-2.0 * t), t)
        assert rate == pytest.approx(2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_energy_rejected(self):
        t = np.linspace(0.0, 5.0, 20)
        e = np.exp(-t)
        e[-1] = 0.0
        with pytest.raises(NonPositiveEnergy):
            decay_rate(e, t)

    def test_nan_energy_rejected(self):
        t = np.linspace(0.0, 5.0, 20)
        e = np.exp(-t)
        e[15] = math.nan
        with pytest.raises(NonPositiveEnergy):
            decay_rate(e, t)

    @pytest.mark.parametrize("which, value", [("energies", math.inf), ("times", math.nan), ("times", -math.inf)])
    def test_non_finite_window_rejected(self, which, value):
        series = {"times": np.linspace(0.0, 5.0, 20)}
        series["energies"] = np.exp(-series["times"])
        series[which][15] = value
        with pytest.raises(ValueError, match=f"{which} in the fitted window must be finite"):
            decay_rate(series["energies"], series["times"])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            decay_rate(np.ones(5), np.arange(5.0))


class TestSpatialOperator:
    def test_eigenvalues_match_both_families(self, golden, golden_dc):
        count = 24
        theta = operator_eigenvalues(golden, 512, count)
        j = np.arange(1, 101)
        s = (2 * j - 1) * math.pi / 2.0
        exact = np.sort(
            np.concatenate([(s / golden_dc.zeta1) ** 2, (s / golden_dc.zeta2) ** 2])
        )[:count]
        np.testing.assert_allclose(theta, exact, rtol=2e-3)

    def test_second_order_convergence(self, golden, golden_dc):
        s1 = math.pi / 2.0 / golden_dc.zeta1
        errs = []
        for n in (256, 512):
            theta = operator_eigenvalues(golden, n, 1)
            errs.append(abs(math.sqrt(theta[0]) - s1) / s1)
        assert 3.0 < errs[0] / errs[1] < 5.0

    @pytest.mark.parametrize("n", [64, 257, 512])
    @pytest.mark.parametrize(
        "params",
        [
            BeamParameters(rho=1.0, alpha1=1.0, beta=1.0, gamma=1.0, mu=1.0),
            parameters_for_ratio(0.5),
            BeamParameters(2.0, 0.7, 1.3, 0.4, 0.9, length=2.5, thickness=0.3),
        ],
        ids=["golden", "ratio_half", "scaled"],
    )
    def test_matches_reference_pencil(self, params, n):
        reference = reference_operator_eigenvalues(params, n, 2 * n)
        closed = operator_eigenvalues(params, n, 2 * n)
        assert np.max(np.abs(closed - reference)) <= 1e-13 * np.max(reference)

    @pytest.mark.parametrize(
        "n_cells, count, name",
        [
            (0, 1, "n_cells"),
            (-3, 1, "n_cells"),
            (64.5, 3, "n_cells"),
            (8, 0, "count"),
            (8, 17, "count"),
            (8, 2.5, "count"),
            (math.inf, 1, "n_cells"),
            (math.nan, 1, "n_cells"),
            (8, math.inf, "count"),
            (8, math.nan, "count"),
            (8, 4.0, "count"),
            (64.0, 3, "n_cells"),
            (np.float64(8.0), 3, "n_cells"),
        ],
    )
    def test_invalid_arguments_named(self, golden, n_cells, count, name):
        with pytest.raises(ValueError, match=name):
            operator_eigenvalues(golden, n_cells, count)
