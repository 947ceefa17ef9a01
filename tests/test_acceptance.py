"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

Every criterion is checked at its stated tolerance against an independent
oracle (closed forms, boundary-value solves, quadrature, d'Alembert transit
times) and within its stated runtime budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import piezobeam as pb

GOLDEN = pb.BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0)
HALF = pb.parameters_for_ratio(0.5)
THIRD = pb.parameters_for_ratio(1.0 / 3.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def elapsed_ok(name: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    report(f"{name} runtime", dt < budget, f"{dt:.1f}s (budget {budget:.0f}s)")


def exact_frequencies(params, j_per_family=120):
    dc = pb.derive_constants(params)
    j = np.arange(1, j_per_family + 1)
    s = (2 * j - 1) * math.pi / (2.0 * params.length)
    return dc, np.concatenate([s / dc.zeta1, s / dc.zeta2])


def test_criterion_1_spectral_exactness():
    """Discrete operator eigenvalues track both analytic families, O(N^-2)."""
    t0 = time.perf_counter()
    dc, freqs = exact_frequencies(GOLDEN)
    targets = np.concatenate([freqs[:20], freqs[120 : 120 + 20]])  # j <= 20 each family

    def max_rel_err(n_cells):
        theta = pb.operator_eigenvalues(GOLDEN, n_cells, 80)
        s_num = np.sqrt(theta)
        return max(float(np.min(np.abs(s_num - t)) / t) for t in targets)

    err_2048 = max_rel_err(2048)
    err_4096 = max_rel_err(4096)
    report(
        "criterion 1a",
        err_2048 < 2e-3,
        f"N=2048 worst relative eigenvalue error {err_2048:.2e} < 0.2%",
    )
    ratio = err_2048 / err_4096
    report(
        "criterion 1b",
        2.5 < ratio < 6.0,
        f"error reduction under N-doubling = {ratio:.2f} (expect ~4)",
    )
    elapsed_ok("criterion 1", t0, 30.0)


def test_criterion_2_constant_identities():
    """Product/sum/mixing identities within 1e-12 over 1000 random draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rho, a1, beta, gamma, mu = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 5))
        dc = pb.derive_constants(pb.BeamParameters(rho, a1, beta, gamma, mu))

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b))

        worst = max(
            worst,
            rel(dc.b1 * dc.b2, -rho / mu),
            rel(dc.zeta1**2 * dc.zeta2**2, rho * mu / (beta * a1)),
            rel(dc.zeta1**2 + dc.zeta2**2, gamma**2 * mu / a1 + mu / beta + rho / a1),
            rel(rho + dc.b1**2 * mu, dc.zeta1**2 * (a1 + beta * (gamma - dc.b1) ** 2)),
            rel(rho + dc.b2**2 * mu, dc.zeta2**2 * (a1 + beta * (gamma - dc.b2) ** 2)),
        )
    report("criterion 2", worst < 1e-12, f"worst identity error {worst:.2e} < 1e-12")
    elapsed_ok("criterion 2", t0, 1.0)


def test_criterion_3_conservativity():
    """Eigenmode energy drift and forced-run energy balance."""
    t0 = time.perf_counter()
    grid = pb.Grid(2048)
    coeffs = pb.ModalCoefficients.single(pb.ModeIndex(1, 1, 1), J=1)
    state = pb.grid_state_from_modal(coeffs, GOLDEN, grid)
    traj = pb.simulate(state, GOLDEN, pb.SimConfig(mode="open", T=10.0))
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0])
    report("criterion 3a", drift < 1e-6, f"eigenmode energy drift {drift:.2e} < 1e-6")

    residuals = []
    for n in (512, 1024, 2048):
        forced = pb.simulate(
            pb.GridState.zero(pb.Grid(n)),
            GOLDEN,
            pb.SimConfig(mode="closed", T=20.0, forcing=math.sin, energy_stride=2),
        )
        u_energy = float(np.trapezoid(np.sin(forced.t) ** 2, forced.t))
        residuals.append(
            abs(pb.energy_balance_residual(forced, GOLDEN)) / u_energy
        )
    report(
        "criterion 3b",
        residuals[-1] < 1e-3,
        f"balance residual at N=2048 is {residuals[-1]:.2e} < 1e-3",
    )
    report(
        "criterion 3c",
        residuals[0] > residuals[1] > residuals[2],
        f"residuals decrease under refinement: {[f'{r:.2e}' for r in residuals]}",
    )
    cuts = [coarse / fine for coarse, fine in zip(residuals, residuals[1:])]
    report(
        "criterion 3d",
        all(3.0 < c < 5.0 for c in cuts) and residuals[-1] < 1e-7,
        f"second-order balance: cuts per N-doubling {[f'{c:.2f}' for c in cuts]}, "
        f"N=2048 residual {residuals[-1]:.2e} < 1e-7",
    )
    elapsed_ok("criterion 3", t0, 60.0)


def test_criterion_4_stability_table():
    """Closed-loop behavior across the three arithmetic classes."""
    t0 = time.perf_counter()
    # (a) mixed parity: exponential decay
    state = pb.gaussian_velocity_state(pb.Grid(1024), center=0.5, width=0.08)
    traj = pb.simulate(state, HALF, pb.SimConfig(mode="closed", T=60.0, energy_stride=4))
    rate, r2 = pb.decay_rate(traj.energy, traj.t)
    fraction = traj.energy[-1] / traj.energy[0]
    report(
        "criterion 4a",
        rate > 0 and r2 > 0.95 and fraction < 0.05,
        f"ratio-1/2 run: rate={rate:.3f}, r2={r2:.4f}, E(60)/E(0)={fraction:.2e}",
    )

    # (b) odd/odd resonance: the paired state is invisible and undamped
    dc3 = pb.derive_constants(THIRD)
    phi = pb.near_unobservable_state(pb.odd_odd_approximants(dc3.ratio, 1)[0], THIRD)
    state3 = pb.grid_state_from_modal(phi, THIRD, pb.Grid(4096))
    traj3 = pb.simulate(state3, THIRD, pb.SimConfig(mode="closed", T=20.0, energy_stride=8))
    e_drift = float(np.max(np.abs(traj3.energy - traj3.energy[0])) / traj3.energy[0])
    y_max = float(np.max(np.abs(traj3.y)))
    report(
        "criterion 4b",
        e_drift < 1e-3 and y_max < 1e-3,
        f"ratio-1/3 pair state: energy drift {e_drift:.2e}, max|y| {y_max:.2e}",
    )

    # (c) effectively irrational: decay degrades along the approximant states
    rates = []
    for approx in pb.odd_odd_approximants(pb.derive_constants(GOLDEN).ratio, 3, qmax=100):
        phi_m = pb.near_unobservable_state(approx, GOLDEN)
        st = pb.grid_state_from_modal(phi_m, GOLDEN, pb.Grid(1024))
        tr = pb.simulate(st, GOLDEN, pb.SimConfig(mode="closed", T=60.0, energy_stride=4))
        rates.append(pb.decay_rate(tr.energy, tr.t)[0])
    report(
        "criterion 4c",
        rates[0] > rates[1] > rates[2] and rates[0] > 0.01,
        f"golden-ratio decay degrades along (1,3),(5,13),(21,55): {[f'{r:.2e}' for r in rates]}",
    )
    elapsed_ok("criterion 4", t0, 300.0)


def test_criterion_5_transfer_agreement():
    """Closed form vs boundary-value oracle, limits, damped-loop contraction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
        g_closed = pb.transfer_closed(s, GOLDEN)
        g_bvp = pb.transfer_bvp(s, GOLDEN, 4096)
        worst = max(worst, abs(g_closed - g_bvp) / abs(g_bvp))
    report("criterion 5a", worst < 1e-6, f"closed vs BVP worst relative gap {worst:.2e}")

    g0 = abs(pb.transfer_closed(0.0, GOLDEN))
    ginf = abs(pb.transfer_closed(60.0, GOLDEN) - 3.0 / math.sqrt(5.0))
    report(
        "criterion 5b",
        g0 < 1e-6 and ginf < 1e-6,
        f"limits |G(0)|={g0:.1e}, |G(inf)-3/sqrt(5)|={ginf:.1e}",
    )

    rng = np.random.default_rng(42)
    ss = rng.uniform(0.01, 10.0, 500) + 1j * rng.uniform(-100.0, 100.0, 500)
    sup = float(np.max(np.abs(pb.transfer_damped(ss, GOLDEN))))
    report(
        "criterion 5c",
        sup <= 1.0 + 1e-9,
        f"damped loop contractive on 500 half-plane samples: max {sup:.12f}",
    )
    elapsed_ok("criterion 5", t0, 60.0)


def test_criterion_6_nonobservability_scaling():
    """Quotients fall like q^-2 with the explicit mean-value bound holding."""
    t0 = time.perf_counter()
    T = 10.0
    dc = pb.derive_constants(GOLDEN)
    approx = pb.odd_odd_approximants(dc.ratio, 4, qmax=1000)
    assert [(a.p, a.q) for a in approx] == [(1, 3), (5, 13), (21, 55), (89, 233)]
    quotients, bounds = [], []
    for a in approx:
        state = pb.near_unobservable_state(a, GOLDEN)
        quotients.append(pb.observability_quotient(state, GOLDEN, T))
        bounds.append(pb.quotient_bound(a, GOLDEN, T))
    slope = float(
        np.polyfit(np.log([a.q for a in approx]), np.log(quotients), 1)[0]
    )
    report(
        "criterion 6a",
        -2.3 < slope < -1.7,
        f"log-log quotient slope over (1,3)..(89,233) = {slope:.3f}",
    )
    ok_bounds = all(q <= b for q, b in zip(quotients, bounds))
    report(
        "criterion 6b",
        ok_bounds,
        "mean-value bound holds at every approximant: "
        + ", ".join(f"{q:.2e}<={b:.2e}" for q, b in zip(quotients, bounds)),
    )
    dc3 = pb.derive_constants(THIRD)
    phi3 = pb.near_unobservable_state(pb.odd_odd_approximants(dc3.ratio, 1)[0], THIRD)
    quotient3 = pb.observability_quotient(phi3, THIRD, T)
    report("criterion 6c", quotient3 == 0.0, f"exact odd/odd quotient = {quotient3}")
    elapsed_ok("criterion 6", t0, 30.0)


def test_criterion_7_ingham_lower_frame():
    """Positive stable frame floor above the critical time; collapse on collision;
    exact bounds that do not change with the truncation."""
    t0 = time.perf_counter()
    gap, tmin = pb.ingham_gap(HALF, 1, 2)
    assert tmin == pytest.approx(4.0 * math.sqrt(2.0))
    T = 1.2 * tmin
    bounds = {J: pb.ingham_frame_bounds(pb.exponent_family(HALF, J), T) for J in (10, 20)}
    stable = (
        bounds[10].cmin > 0
        and bounds[20].cmin > 0
        and 0.5 < bounds[20].cmin / bounds[10].cmin < 2.0
    )
    report(
        "criterion 7a",
        stable,
        f"cmin(J=10)={bounds[10].cmin:.4f}, cmin(J=20)={bounds[20].cmin:.4f} (within 2x)",
    )
    freqs = pb.exponent_family(HALF, 20)
    collided = freqs.copy()
    collided[-1] = collided[-2]  # push onto an odd/odd-style coincidence
    crash = pb.ingham_frame_bounds(collided, T)
    report(
        "criterion 7b",
        crash.has_collisions and crash.cmin < 1e-12,
        f"perturbed family collapses: cmin={crash.cmin:.1e}",
    )
    exact = (5.6568542495, 9.8994949366)  # the optimal bounds do not depend on J
    pairs = [(bounds[J].cmin, bounds[J].cmax) for J in (10, 20)]
    same = pairs[1] == pytest.approx(pairs[0], rel=1e-9) and all(
        pair == pytest.approx(exact, rel=1e-9) for pair in pairs
    )
    report(
        "criterion 7c",
        same,
        f"exact bounds J=10 [{bounds[10].cmin:.10f}, {bounds[10].cmax:.10f}], "
        f"J=20 [{bounds[20].cmin:.10f}, {bounds[20].cmax:.10f}]",
    )
    elapsed_ok("criterion 7", t0, 60.0)


def test_criterion_8_classical_absorption():
    """Magnetically-static model with matched gain clears the pulse in one transit."""
    t0 = time.perf_counter()
    grid = pb.Grid(2048)
    state = pb.gaussian_velocity_state(grid, center=0.25, width=0.04)
    k = pb.absorbing_gain(GOLDEN)  # sqrt(rho * alpha1) for unit gamma, thickness
    transit = 2.0 * GOLDEN.length * math.sqrt(GOLDEN.rho / GOLDEN.alpha1)
    traj = pb.simulate(state, GOLDEN, pb.SimConfig(mode="classical", T=1.25 * transit, k=k))
    tail = traj.energy[traj.t > transit] / traj.energy[0]
    report(
        "criterion 8",
        tail.size > 0 and float(np.max(tail)) < 1e-6,
        f"residual energy after transit {float(np.max(tail)):.2e} < 1e-6",
    )
    elapsed_ok("criterion 8", t0, 30.0)


def test_criterion_9_determinism(tmp_path):
    """Identical configs give byte-identical sweep artifacts."""
    cfg = pb.RunConfig(params=GOLDEN)
    values = list(np.linspace(0.25, 2.5, 16))
    blobs = []
    for i in range(2):
        rows = pb.run_sweep(cfg, "gamma", values, "zeta_ratio", workers=4)
        path = tmp_path / f"sweep_{i}.csv"
        from piezobeam.csvio import write_csv

        write_csv(path, ["value", "metric", "error"], columns=zip(*rows))
        blobs.append(path.read_bytes())
    report(
        "criterion 9",
        blobs[0] == blobs[1],
        f"two sweep runs identical ({len(blobs[0])} bytes)",
    )
