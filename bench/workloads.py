"""The three benchmark workloads, one per column of the stability table.

Each workload function takes the imported package, a seed and a scratch directory,
writes its config files, loads them, prepares its initial states and inputs,
and returns the list of operations one round performs.  Every round runs the
same operations on the same inputs.  An operation's ``call`` is the timed
part and goes through the public API or the in-process CLI; its ``check``
is not timed and compares the outputs against ``oracles`` or against
properties the method must have.
"""

from __future__ import annotations

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

PHYSICAL = ("rho", "alpha1", "beta", "gamma", "mu", "length", "thickness")
ENDPOINTS_ONLY = 10**9  # an energy stride longer than any run records only t = 0 and t = T

# Quadratic irrationals in (0, 1) whose continued fractions have small
# partial quotients, so no fraction with q <= 10**4 lies within 1e-9 of them.
IRRATIONALS = {
    "2-phi": (3.0 - math.sqrt(5.0)) / 2.0,
    "sqrt2-1": math.sqrt(2.0) - 1.0,
    "sqrt3-1": math.sqrt(3.0) - 1.0,
    "sqrt5-2": math.sqrt(5.0) - 2.0,
    "sqrt6-2": math.sqrt(6.0) - 2.0,
    "sqrt7-2": math.sqrt(7.0) - 2.0,
    "sqrt10-3": math.sqrt(10.0) - 3.0,
    "(sqrt13-3)/2": (math.sqrt(13.0) - 3.0) / 2.0,
}

# Mixed-parity ratios whose fitted decay rate the N=512, T=30 sweep grid
# resolves to within 2.5% of the exact rate.  1/4 and 1/6 fit 37-61% low at
# that grid and are left out (see README).
SWEEP_RATIOS = ((1, 2), (2, 3), (3, 4))


class CheckFailed(Exception):
    """An output of the package disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.abs(b), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b) / scale))


@dataclass
class Op:
    """One operation of a round.

    ``work`` maps the call's result to the units of work it
    did (cell-steps, transfer evaluations, ...).  ``known_fault`` names a
    fault of the package that makes the check fail on every round.
    ``in_totals`` is false for an operation whose time is reported only per
    layer, because it swings too far between runs to hold to a bound.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    work: Callable[[Any], dict] | None = None
    known_fault: str | None = None
    in_totals: bool = True


class Memo:
    """Reference values computed once per run, the first time a check needs them."""

    def __init__(self):
        self._values: dict[str, Any] = {}

    def __call__(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


def write_config(path: Path, params, **options) -> Path:
    lines = [f"{k} = {getattr(params, k)!r}" for k in PHYSICAL]
    lines += [f"{k} = {v!r}" for k, v in options.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(pb, argv: list[str]) -> str:
    """Run one CLI invocation in process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pb.cli.run(argv)
    if code != 0:
        raise CheckFailed(f"piezobeam {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def summary_field(text: str, key: str) -> str:
    for token in text.split():
        if token.startswith(key + "="):
            return token[len(key) + 1 :]
    raise CheckFailed(f"summary line has no {key}=: {text.strip()!r}")


def load_csv(path: Path, header: list[str], usecols=None) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        got = handle.readline().strip().split(",")
    expect(got == header, f"{path.name}: header {got} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)


def cell_steps(traj) -> int:
    return (traj.initial.grid.n + 1) * round((traj.t[-1] - traj.t[0]) / traj.dt)


def energy_drift(traj) -> float:
    return float(np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0])


def warm_up(pb, work: Path) -> None:
    """One small call into each layer, so first-call costs land in set-up."""
    p = pb.parameters_for_ratio(0.5)
    pb.classify_stability(pb.derive_constants(p))
    coeffs = pb.ModalCoefficients.single(pb.ModeIndex(1, 1, 1), J=2)
    pb.project(pb.StateFunctions.from_modal(coeffs, p), p, 2)
    pb.output_energy(coeffs, p, 1.0)
    traj = pb.simulate(pb.sine_velocity_state(pb.Grid(32)), p, pb.SimConfig(mode="closed", T=0.5))
    pb.decay_rate(traj.energy, traj.t)
    pb.transfer_closed(1.0, p)
    pb.transfer_bvp(1.0, p, 64)
    state = pb.near_unobservable_state(pb.OddApproximant(1, 3, 0.0, 0.0), p)
    pb.observability_quotient(state, p, 1.0)
    pb.ingham_frame_bounds(pb.exponent_family(p, 2), 1.0, trials=2)
    cfg = pb.load_config(write_config(work / "warm.cfg", p))
    pb.run_sweep(cfg, "gamma", [p.gamma], "zeta_ratio")
    run_cli(pb, ["constants", "--config", str(work / "warm.cfg"), "--out", str(work / "warm.csv")])


# --------------------------------------------------------------------------
# closed_loop_table: the time-domain column


def closed_loop_table(pb, seed: int, work: Path, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    memo = Memo()
    half = pb.load_config(write_config(work / "half.cfg", pb.parameters_for_ratio(0.5))).params
    third = pb.load_config(write_config(work / "third.cfg", pb.parameters_for_ratio(1.0 / 3.0))).params
    unit = pb.load_config(write_config(work / "unit.cfg", pb.BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0))).params
    sweep_cfg = pb.load_config(write_config(work / "sweep.cfg", unit, N=512, T=30.0))
    rate_half = lambda: memo("rate 1/2", lambda: oracles.exact_decay_rate(half, 1, 2))  # noqa: E731

    # A smooth bump, negligible at both ends and resolved by the grid: content
    # at the grid scale decays at another rate than the continuum loop.
    bump = pb.gaussian_velocity_state(
        pb.Grid(1024), center=float(rng.uniform(0.4, 0.6)), width=float(rng.uniform(0.06, 0.08))
    )

    def half_decay():
        traj = pb.simulate(bump, half, pb.SimConfig(mode="closed", T=60.0, energy_stride=4))
        rate, r2 = pb.decay_rate(traj.energy, traj.t)
        return traj, rate, r2, pb.energy_balance_residual(traj, half)

    def check_half_decay(out):
        traj, rate, r2, residual = out
        exact = rate_half()
        expect(abs(rate - exact) <= 1e-3 * exact, f"fitted rate {rate:.6f} vs exact {exact:.6f}")
        expect(r2 > 0.99, f"log-linear fit r2={r2:.4f}")
        stored = 2.0 / half.thickness * traj.energy[0]
        expect(abs(residual) <= 1e-6 * stored, f"energy balance residual {residual:.3e} of {stored:.3e}")

    def energy_recording():
        cfg = dict(mode="closed", T=5.0)
        full = pb.simulate(bump, half, pb.SimConfig(energy_stride=4, **cfg))
        ends = pb.simulate(bump, half, pb.SimConfig(energy_stride=ENDPOINTS_ONLY, **cfg))
        return full, ends

    def check_energy_recording(out):
        full, ends = out
        expect(ends.t.size == 2, f"end-point run recorded {ends.t.size} samples")
        for name in ("v", "p", "vdot", "pdot"):
            expect(
                np.array_equal(getattr(full.final, name), getattr(ends.final, name)),
                f"energy recording changed the final {name}",
            )
        expect(full.energy[-1] == ends.energy[-1], "final energies differ between strides")
        expect(full.energy[-1] < full.energy[0], "closed loop did not dissipate")

    pair3 = pb.grid_state_from_modal(
        pb.near_unobservable_state(pb.OddApproximant(1, 3, 0.0, 0.0), third), third, pb.Grid(512)
    )

    def third_pair():
        return pb.simulate(pair3, third, pb.SimConfig(mode="closed", T=10.0, energy_stride=8))

    def check_third_pair(traj):
        drift, ymax = energy_drift(traj), float(np.max(np.abs(traj.y)))
        expect(drift < 1e-3 and ymax < 1e-3, f"ratio-1/3 pair: drift {drift:.2e}, max|y| {ymax:.2e}")

    golden_states = [
        pb.grid_state_from_modal(pb.near_unobservable_state(pb.OddApproximant(p, q, 0.0, 0.0), unit), unit, pb.Grid(512))
        for p, q in ((1, 3), (5, 13), (21, 55))
    ]

    def golden_pairs():
        trajs = [pb.simulate(s, unit, pb.SimConfig(mode="closed", T=10.0, energy_stride=4)) for s in golden_states]
        return trajs, [pb.decay_rate(t.energy, t.t)[0] for t in trajs]

    def check_golden_pairs(out):
        _, rates = out
        expect(
            rates[0] > rates[1] > rates[2] > 0 and rates[0] > 0.01,
            f"golden pair-state rates do not strictly decrease: {rates}",
        )

    sign = int(rng.choice([-1, 1]))
    amplitude = complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    mode = pb.ModalCoefficients.single(pb.ModeIndex(2, sign, 1), J=1, amplitude=amplitude)
    eigen = pb.grid_state_from_modal(mode, unit, pb.Grid(512))

    def open_eigenmode():
        return pb.simulate(eigen, unit, pb.SimConfig(mode="open", T=5.0))

    def check_open_eigenmode(traj):
        drift = energy_drift(traj)
        expect(drift < 1e-6, f"open-loop eigenmode energy drift {drift:.2e}")
        c = oracles.wave_constants(unit.rho, unit.alpha1, unit.beta, unit.gamma, unit.mu)
        sig = math.pi / (2.0 * unit.length)
        w = sig / c.zeta2
        x = traj.final.grid.nodes
        v, p, vd, pd = oracles.standing_wave(unit, 2, 1, amplitude, sign, traj.final.t, x)
        f = traj.final
        err = max(
            w * np.max(np.abs(f.v - v)),
            w * np.max(np.abs(f.p - p)) / abs(c.b2),
            np.max(np.abs(f.vdot - vd)),
            np.max(np.abs(f.pdot - pd)) / abs(c.b2),
        ) / abs(amplitude)
        # leading leapfrog/central-difference phase error after time T
        bound = w * traj.final.t * (sig * traj.final.grid.dx) ** 2 / 24.0
        expect(err <= bound, f"eigenmode off the exact standing wave by {err:.2e} > {bound:.2e}")

    pulse = pb.gaussian_velocity_state(
        pb.Grid(1024), center=float(rng.uniform(0.2, 0.35)), width=float(rng.uniform(0.04, 0.06))
    )
    transit = 2.0 * unit.length * math.sqrt(unit.rho / unit.alpha1)
    gain = pb.absorbing_gain(unit)

    def classical():
        return pb.simulate(pulse, unit, pb.SimConfig(mode="classical", T=1.25 * transit, k=gain))

    def check_classical(traj):
        tail = traj.energy[traj.t > transit] / traj.energy[0]
        expect(tail.size > 0 and float(np.max(tail)) < 1e-6, f"residual energy after transit {np.max(tail):.2e}")

    sine_j = int(rng.choice([2, 3]))
    traj_csv = work / "trajectory.csv"

    def cli_simulate():
        return run_cli(
            pb,
            ["simulate", "--config", str(work / "half.cfg"), "--mode", "closed", "--N", "256",
             "--T", "20", "--initial", f"sine:{sine_j}", "--out", str(traj_csv)],
        )

    def check_cli_simulate(text):
        exact = rate_half()
        rate = float(summary_field(text, "decay_rate"))
        expect(abs(rate - exact) <= 0.01 * exact, f"CLI decay_rate {rate:.6f} vs exact {exact:.6f}")
        rows = load_csv(traj_csv, ["time", "energy", "y"])
        t, e = rows[:, 0], rows[:, 1]
        expect(t[0] == 0.0 and abs(t[-1] - 20.0) < 1e-9 and np.all(np.diff(t) > 0), "trajectory times")
        expect(np.all(e > 0) and e[-1] < e[0], "trajectory energies")
        expect(rel(float(summary_field(text, "E0")), e[0]) < 1e-5, "summary E0 differs from the CSV")

    order = rng.permutation(len(SWEEP_RATIOS))
    ratios = [SWEEP_RATIOS[i] for i in order]
    gammas = [pb.parameters_for_ratio(p / q).gamma for p, q in ratios]
    sweep_csv = work / "sweep.csv"
    shared: dict[str, Any] = {}

    def cli_sweep():
        return run_cli(
            pb,
            ["sweep", "--config", str(work / "sweep.cfg"), "--param", "gamma",
             "--values", ",".join(repr(g) for g in gammas), "--metric", "decay_rate",
             "--workers", str(workers), "--out", str(sweep_csv)],
        )

    def check_cli_sweep(text):
        rows = load_csv(sweep_csv, ["value", "metric", "error"], usecols=(0, 1))
        shared["rows"] = rows
        expect(rows.shape[0] == len(gammas), f"sweep wrote {rows.shape[0]} rows")
        for (p, q), g, (value, rate) in zip(ratios, gammas, rows):
            exact = memo(f"sweep {p}/{q}", lambda: oracles.exact_decay_rate(
                pb.BeamParameters(1.0, 1.0, 1.0, g, 1.0), p, q))
            expect(value == g, f"sweep row order: {value!r} != {g!r}")
            expect(abs(rate - exact) <= 0.025 * exact, f"sweep {p}/{q}: rate {rate:.5f} vs exact {exact:.5f}")

    def serial_sweep():
        return pb.run_sweep(sweep_cfg, "gamma", gammas, "decay_rate", workers=1)

    def check_serial_sweep(rows):
        expect("rows" in shared, "no CLI sweep rows to compare with")
        expect(all(r[2] == "" for r in rows), f"serial sweep errors: {[r[2] for r in rows]}")
        got = np.array([[r[0], r[1]] for r in rows])
        expect(np.array_equal(got, shared["rows"]), "serial sweep differs from the parallel CLI sweep")

    steps = lambda trajs: {"cell_steps": sum(cell_steps(t) for t in trajs)}  # noqa: E731
    return [
        Op("half_decay", half_decay, check_half_decay, lambda o: steps([o[0]])),
        Op("energy_recording", energy_recording, check_energy_recording, steps),
        Op("third_pair", third_pair, check_third_pair, lambda o: steps([o])),
        Op("golden_pairs", golden_pairs, check_golden_pairs, lambda o: steps(o[0])),
        Op("open_eigenmode", open_eigenmode, check_open_eigenmode, lambda o: steps([o])),
        Op("classical_absorption", classical, check_classical, lambda o: steps([o])),
        Op("cli_simulate", cli_simulate, check_cli_simulate),
        # Two sweep threads contend for the interpreter lock, and the sweep's
        # time swings by +-20% between identical calls (see README).
        Op("cli_sweep", cli_sweep, check_cli_sweep, lambda o: {"sweep_points": len(gammas)}, in_totals=False),
        Op("serial_sweep", serial_sweep, check_serial_sweep),
    ]


# --------------------------------------------------------------------------
# frequency_response: the voltage-to-current channel


def frequency_response(pb, seed: int, work: Path, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    memo = Memo()
    unit = pb.load_config(write_config(work / "unit.cfg", pb.BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0))).params
    dc = pb.derive_constants(unit)
    ops: list[Op] = []

    s1 = float(rng.uniform(0.01, 0.05))
    n_points, im_max = 50_001, 200.0
    freq_csv = work / "frequency.csv"

    def cli_transfer():
        return run_cli(
            pb,
            ["transfer", "--config", str(work / "unit.cfg"), "--s1", repr(s1), "--im-max", repr(im_max),
             "--n-points", str(n_points), "--out", str(freq_csv)],
        )

    def check_cli_transfer(text):
        rows = load_csv(freq_csv, ["re_s", "im_s", "re_G", "im_G", "abs_G"])
        expect(rows.shape[0] == n_points, f"transfer wrote {rows.shape[0]} rows")
        re_s, im_s, re_g, im_g, abs_g = rows.T
        expect(np.all(re_s == s1), "transfer rows off the requested line")
        expect(rel(np.hypot(re_g, im_g), abs_g) <= 1e-15, "abs_G != hypot(re_G, im_G)")
        ref = memo("cli line", lambda: oracles.transfer(s1 + 1j * np.linspace(-im_max, im_max, n_points), unit))
        expect(np.max(np.abs(re_g + 1j * im_g - ref) / np.abs(ref)) <= 1e-9, "CSV G differs from the closed form")
        expect(np.all(re_g >= 0.0), "Re G < 0 on the right half-plane")
        expect(rel(float(summary_field(text, "sup|G|")), np.max(abs_g)) < 1e-5, "summary sup differs from the CSV")

    ops.append(Op("cli_transfer", cli_transfer, check_cli_transfer))

    scan_n, scan_im = 20_001, 100.0
    for k, line in enumerate(np.exp(rng.uniform(math.log(0.005), math.log(0.1), 4))):
        line = float(line)

        def scan(line=line):
            return pb.boundedness_scan(line, scan_im, scan_n, unit)

        def check_scan(res, line=line, k=k):
            ref = memo(f"scan {k}", lambda: np.abs(oracles.transfer(line + 1j * np.linspace(-scan_im, scan_im, scan_n), unit)))
            expect(res.sup <= res.bound, f"scan sup {res.sup:.6g} above the line bound {res.bound:.6g}")
            expect(rel(res.sup, np.max(ref)) <= 1e-9, f"scan sup {res.sup:.12g} vs closed form {np.max(ref):.12g}")
            expect(np.max(ref) <= res.bound, "closed-form sup above the line bound")

        ops.append(Op(f"scan_{k}", scan, check_scan, lambda r: {"transfer_evals": scan_n}))

    n_samples = 4000
    damped_s = rng.uniform(1e-3, 10.0, n_samples) + 1j * rng.uniform(-100.0, 100.0, n_samples)

    def damped():
        return np.array([pb.transfer_damped(s, unit, dc) for s in damped_s])

    def check_damped(gd):
        expect(float(np.max(np.abs(gd))) <= 1.0 + 1e-9, f"|G_d| reaches {np.max(np.abs(gd)):.12f}")
        g = memo("damped G", lambda: oracles.transfer(damped_s, unit))
        expect(rel(gd, (1.0 - 0.5 * g) / (1.0 + 0.5 * g)) <= 1e-9, "G_d differs from the Cayley form")

    ops.append(Op("damped_samples", damped, check_damped, lambda r: {"transfer_evals": n_samples}))

    closed_s = rng.uniform(1e-3, 10.0, n_samples) + 1j * rng.uniform(-100.0, 100.0, n_samples)

    def closed():
        return (
            np.array([pb.transfer_closed(s, unit, dc) for s in closed_s]),
            np.array([pb.transfer_closed(s.conjugate(), unit, dc) for s in closed_s]),
        )

    def check_closed(out):
        g, g_conj = out
        expect(bool(np.all(g.real >= -1e-14 * np.abs(g))), f"Re G < 0: min {np.min(g.real):.3e}")
        expect(rel(g_conj, np.conj(g)) <= 1e-14, "G(conj s) != conj G(s)")
        expect(rel(g, memo("closed G", lambda: oracles.transfer(closed_s, unit))) <= 1e-9, "G differs from the closed form")

    ops.append(Op("closed_samples", closed, check_closed, lambda r: {"transfer_evals": 2 * n_samples}))

    def limits():
        return pb.transfer_closed(0.0, unit), pb.transfer_closed(60.0, unit)

    def check_limits(out):
        g0, ginf = out
        expect(abs(g0) <= 1e-15, f"G(0) = {g0}")
        expect(abs(ginf - 3.0 / math.sqrt(5.0)) <= 1e-12, f"G(60) = {ginf} vs 3/sqrt(5)")

    ops.append(Op("limits", limits, check_limits))

    bvp_s = rng.uniform(0.1, 3.0, 8) + 1j * rng.uniform(-3.0, 3.0, 8)
    bvp_n = (2048, 4096)

    def bvp():
        return [
            (pb.transfer_closed(s, unit), [pb.transfer_bvp(s, unit, n) for n in bvp_n],
             pb.transfer_damped(s, unit), [pb.transfer_damped_bvp(s, unit, n) for n in bvp_n])
            for s in bvp_s
        ]

    def richardson(values):
        coarse, fine = values
        return (4.0 * fine - coarse) / 3.0  # the solves converge as n^-2

    def check_bvp(out):
        # At n=4096 alone the solve is off by up to 1.1e-6 relative near Re s = 0.1,
        # |Im s| = 3; one Richardson step brings that under 1e-8 over the whole box,
        # so the closed form must agree to 1e-7.
        # G_d has a zero near s = 0.43 +- 1.0i, where a relative error means
        # nothing; since |G_d| <= 1 its error is measured against 1.
        for s, (g, g_bvp, gd, gd_bvp) in zip(bvp_s, out):
            g_ref, gd_ref = richardson(g_bvp), richardson(gd_bvp)
            expect(abs(g - g_ref) <= 1e-7 * abs(g_ref), f"s={s:.3f}: closed vs BVP {abs(g - g_ref) / abs(g_ref):.2e}")
            expect(abs(gd - gd_ref) <= 1e-7, f"s={s:.3f}: damped vs BVP {abs(gd - gd_ref):.2e}")

    ops.append(Op("bvp_agreement", bvp, check_bvp, lambda r: {"bvp_solves": 2 * len(bvp_n) * len(bvp_s)}))

    ladder_s = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
    # Near s = 0.2 the n^-2 error falls to the solve's round-off (about 1e-9
    # at n=4096), and the last step of a ladder up to 4096 shrinks by only 2.2.
    ladder_n = (256, 512, 1024, 2048)

    def ladder():
        return pb.transfer_closed(ladder_s, unit), [pb.transfer_bvp(ladder_s, unit, n) for n in ladder_n]

    def check_ladder(out):
        g, values = out
        errs = [abs(v - g) for v in values]
        factors = [a / b for a, b in zip(errs, errs[1:])]
        expect(all(2.5 < f < 6.0 for f in factors), f"refinement factors {[f'{f:.2f}' for f in factors]}")

    ops.append(Op("bvp_ladder", ladder, check_ladder))
    return ops


# --------------------------------------------------------------------------
# observability_certificates: the observability column


def check_ladder_records(records, zeta: float, qmax: int) -> None:
    exact_zeta = Fraction(zeta)
    last_q, last_err = 0, 1.0
    for a in records:
        expect(a.p % 2 == 1 and a.q % 2 == 1 and math.gcd(a.p, a.q) == 1, f"({a.p},{a.q}) not odd coprime")
        expect(last_q < a.q <= qmax, f"denominators not increasing within qmax at ({a.p},{a.q})")
        err = abs(exact_zeta - Fraction(a.p, a.q))
        expect(abs(Fraction(a.err) - err) <= Fraction(4 * 2.0**-52) * exact_zeta, f"({a.p},{a.q}) err {a.err!r} vs exact {float(err)!r}")
        expect(a.err < 0.5 * last_err, f"({a.p},{a.q}) does not halve the previous error")
        expect(rel(a.cq2, a.err * a.q * a.q) <= 1e-12, f"({a.p},{a.q}) cq2")
        last_q, last_err = a.q, a.err


def observability_certificates(pb, seed: int, work: Path, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    memo = Memo()
    unit = pb.load_config(write_config(work / "unit.cfg", pb.BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0))).params
    half = pb.parameters_for_ratio(0.5)
    third = pb.parameters_for_ratio(1.0 / 3.0)
    ops: list[Op] = []

    # Every ratio every round: how far a ladder runs depends on the ratio, so
    # drawing the ratios from the seed would make the work depend on it.
    ladder_qmax = 100_000
    for name, zeta in IRRATIONALS.items():

        def ladder(zeta=zeta):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", pb.ExhaustedBudget)
                return pb.odd_odd_approximants(zeta, 12, qmax=ladder_qmax)

        ops.append(Op(f"ladder_{name}", ladder, lambda r, zeta=zeta: check_ladder_records(r, zeta, ladder_qmax)))

    T_obs = float(rng.uniform(8.0, 12.0))
    golden_ladder = pb.odd_odd_approximants(pb.derive_constants(unit).ratio, 6, qmax=10_000)

    def quotients():
        return [
            (pb.observability_quotient(pb.near_unobservable_state(a, unit), unit, T_obs), pb.quotient_bound(a, unit, T_obs))
            for a in golden_ladder
        ]

    def check_quotients(out):
        qs = np.array([q for q, _ in out])
        slope = float(np.polyfit(np.log([a.q for a in golden_ladder]), np.log(qs), 1)[0])
        expect(-2.3 < slope < -1.7, f"log-log quotient slope {slope:.3f}")
        for a, (q, bound) in zip(golden_ladder, out):
            expect(q <= bound, f"({a.p},{a.q}) quotient {q:.3e} above its bound {bound:.3e}")
            ref = oracles.pair_quotient(unit, a.p, a.q, T_obs)
            expect(rel(q, ref) <= 1e-6, f"({a.p},{a.q}) quotient {q:.6e} vs closed form {ref:.6e}")

    ops.append(Op("quotient_scaling", quotients, check_quotients))

    def third_zero():
        state = pb.near_unobservable_state(pb.OddApproximant(1, 3, 0.0, 0.0), third)
        return pb.observability_quotient(state, third, T_obs)

    ops.append(Op("odd_odd_zero", third_zero, lambda q: expect(q == 0.0, f"ratio-1/3 quotient {q!r} != 0")))

    T_factor = float(rng.uniform(1.1, 1.5))

    def frames():
        tmin = pb.ingham_gap(half, 1, 2)[1]
        return tmin, {J: (pb.exponent_family(half, J), pb.ingham_frame_bounds(pb.exponent_family(half, J), T_factor * tmin)) for J in (10, 40, 80)}

    def check_frames(out):
        tmin, bounds = out
        ref_tmin = 2.0 * math.pi / oracles.mixed_parity_gap(half, 2)
        expect(rel(tmin, ref_tmin) <= 1e-12, f"Tmin {tmin!r} vs {ref_tmin!r}")
        for J, (family, fb) in bounds.items():
            expect(rel(family, oracles.exponent_family(half, J)) <= 1e-12, f"J={J}: exponent family differs")
            lo, hi = memo(f"gram {J}", lambda: oracles.gram_extremes(oracles.exponent_family(half, J), T_factor * ref_tmin))
            ok = lo * (1 - 1e-9) <= fb.cmin <= fb.cmax <= hi * (1 + 1e-9) and not fb.has_collisions
            expect(ok, f"J={J}: [{fb.cmin:.4f}, {fb.cmax:.4f}] not inside the Gram extremes [{lo:.4f}, {hi:.4f}]")

    ops.append(Op("frame_bracket", frames, check_frames))

    def frame_optimal():
        tmin = pb.ingham_gap(half, 1, 2)[1]
        return pb.ingham_frame_bounds(pb.exponent_family(half, 40), 1.2 * tmin)

    def check_frame_optimal(fb):
        lo, hi = memo("gram optimal", lambda: oracles.gram_extremes(
            oracles.exponent_family(half, 40), 1.2 * 2.0 * math.pi / oracles.mixed_parity_gap(half, 2)))
        expect(
            rel(fb.cmin, lo) <= 1e-8 and rel(fb.cmax, hi) <= 1e-8,
            f"frame bounds [{fb.cmin:.4f}, {fb.cmax:.4f}] are not the Gram extremes [{lo:.4f}, {hi:.4f}]",
        )

    ops.append(Op("frame_optimal", frame_optimal, check_frame_optimal,
                  known_fault="ingham_frame_bounds returns the extremes of 200 random Rayleigh quotients, an inner bound"))

    def collided():
        family = pb.exponent_family(third, 20)
        return family, pb.ingham_frame_bounds(family, T_obs)

    def check_collided(out):
        family, fb = out
        lo, _ = memo("gram collided", lambda: oracles.gram_extremes(oracles.exponent_family(third, 20), T_obs))
        expect(fb.has_collisions and fb.cmin < 1e-12, f"collided family: cmin={fb.cmin:.2e}, flagged={fb.has_collisions}")
        expect(abs(lo) <= 1e-9 * T_obs, f"collided Gram minimum {lo:.2e} is not zero")

    ops.append(Op("frame_collided", collided, check_collided))

    physical = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 5))
    modal_params = pb.BeamParameters(*(float(v) for v in physical))
    T_energy = float(rng.uniform(2.0, 4.0))
    t_prop = float(rng.uniform(-5.0, 5.0))
    x = np.linspace(0.0, modal_params.length, 513)
    for J in (32, 64, 128, 256):
        coeffs = [rng.standard_normal(J) + 1j * rng.standard_normal(J) for _ in range(4)]
        modal = pb.ModalCoefficients(*coeffs)
        state = pb.StateFunctions.from_modal(modal, modal_params)

        def roundtrip(J=J, modal=modal, state=state):
            projected = pb.project(state, modal_params, J)
            residual = pb.projection_residual(state, projected, modal_params)
            fields = pb.reconstruct(modal, modal_params, x)
            moved = pb.propagate(modal, modal_params, t_prop)
            back = pb.propagate(moved, modal_params, -t_prop)
            norms = pb.modal_norm_sq(modal, modal_params), pb.modal_norm_sq(moved, modal_params)
            return projected, residual, fields, back, norms, pb.output_energy(modal, modal_params, T_energy)

        def check_roundtrip(out, J=J, coeffs=coeffs):
            projected, residual, fields, back, (n0, n1), energy = out
            got = np.concatenate([projected.c1, projected.d1, projected.c2, projected.d2])
            want = np.concatenate(coeffs)
            expect(np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), f"J={J}: projection misses the coefficients")
            expect(residual < 1e-10, f"J={J}: projection residual {residual:.2e}")
            ref = memo(f"fields {J}", lambda: oracles.modal_fields(modal_params, *coeffs, x))
            expect(np.max(np.abs(fields - ref)) <= 1e-10 * np.max(np.abs(ref)), f"J={J}: reconstruct differs from the eigenfunction sum")
            expect(abs(n1 / n0 - 1.0) <= 1e-12, f"J={J}: propagate changed the norm by {n1 / n0 - 1.0:.2e}")
            back_all = np.concatenate([back.c1, back.d1, back.c2, back.d2])
            expect(np.max(np.abs(back_all - want)) <= 1e-12 * np.max(np.abs(want)), f"J={J}: propagate(t) then (-t) is not the identity")
            quad = memo(f"current {J}", lambda: oracles.current_energy(modal_params, *coeffs, T_energy))
            expect(rel(energy, quad) <= 1e-9, f"J={J}: output_energy {energy:.12g} vs quadrature {quad:.12g}")

        ops.append(Op(f"modal_J{J}", roundtrip, check_roundtrip))

    batch = []
    for _ in range(16):
        q = int(rng.integers(1, 25)) * 2 + 1
        p = int(rng.integers(0, (q - 1) // 2)) * 2 + 1
        while math.gcd(p, q) != 1:
            p = (p + 2) % q if p + 2 < q else 1
        batch.append(("NOT_STRONGLY_STABLE", p, q))
    for _ in range(16):
        q = int(rng.integers(2, 50))
        p = int(rng.integers(1, q))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p % 2 == 1 and q % 2 == 1:
            q *= 2
        batch.append(("EXPONENTIALLY_STABLE", p, q))
    for name in rng.choice(sorted(IRRATIONALS), size=16):
        batch.append(("STRONGLY_STABLE_NOT_EXP", str(name), None))
    lengths = np.exp(rng.uniform(math.log(0.5), math.log(2.0), len(batch)))
    batch_params = [
        pb.parameters_for_ratio(IRRATIONALS[p] if q is None else p / q, length=float(length))
        for (_, p, q), length in zip(batch, lengths)
    ]

    def classify():
        return [pb.classify_stability(pb.derive_constants(p), length=p.length) for p in batch_params]

    def check_classify(reports):
        for (label, p, q), params, rep in zip(batch, batch_params, reports):
            expect(rep.classification.value == label, f"{p}/{q}: classified {rep.classification.value}, built as {label}")
            if q is None:
                expect(rep.approximant is None, f"{p}: irrational ratio matched {rep.approximant}")
                continue
            expect((rep.approximant.p, rep.approximant.q) == (p, q), f"{p}/{q}: approximant {rep.approximant}")
            if label == "EXPONENTIALLY_STABLE":
                gap = oracles.mixed_parity_gap(params, q)
                expect(rel(rep.gap, gap) <= 1e-12 and rel(rep.min_time, 2 * math.pi / gap) <= 1e-12, f"{p}/{q}: gap {rep.gap!r} vs {gap!r}")

    ops.append(Op("classify_batch", classify, check_classify))

    draws = np.exp(rng.uniform(math.log(0.2), math.log(5.0), (200, 5)))
    random_params = [pb.BeamParameters(*(float(v) for v in row)) for row in draws]

    def derive():
        return [pb.derive_constants(p) for p in random_params]

    def check_derive(consts):
        for p, dc in zip(random_params, consts):
            ref = oracles.wave_constants(p.rho, p.alpha1, p.beta, p.gamma, p.mu)
            got = (dc.zeta1, dc.zeta2, dc.b1, dc.b2, dc.alpha)
            expect(rel(got, ref) <= 1e-10, f"{p}: constants {got} vs {tuple(ref)}")

    ops.append(Op("derive_batch", derive, check_derive))

    rnd_cfg = write_config(work / "random.cfg", modal_params)
    consts_csv = work / "constants.csv"

    def cli_constants():
        return run_cli(pb, ["constants", "--config", str(rnd_cfg), "--out", str(consts_csv)])

    def check_cli_constants(text):
        row = load_csv(consts_csv, ["alpha", "zeta1", "zeta2", "b1", "b2"])[0]
        c = oracles.wave_constants(modal_params.rho, modal_params.alpha1, modal_params.beta, modal_params.gamma, modal_params.mu)
        expect(rel(row, [c.alpha, c.zeta1, c.zeta2, c.b1, c.b2]) <= 1e-10, f"constants.csv {row} vs {tuple(c)}")

    ops.append(Op("cli_constants", cli_constants, check_cli_constants))

    classify_cases = []
    for label, p, q in (batch[0], batch[16], batch[32]):
        ratio = IRRATIONALS[p] if q is None else p / q
        path = write_config(work / f"classify_{len(classify_cases)}.cfg", pb.parameters_for_ratio(ratio))
        classify_cases.append((label, p, q, path))

    def cli_classify():
        return [run_cli(pb, ["classify", "--config", str(path)]) for _, _, _, path in classify_cases]

    def check_cli_classify(texts):
        for (label, p, q, _), text in zip(classify_cases, texts):
            expect(text.split()[0] == label, f"classify printed {text.strip()!r}, expected {label}")
            if q is not None:
                expect((summary_field(text, "p"), summary_field(text, "q")) == (str(p), str(q)), f"classify {text.strip()!r} for {p}/{q}")

    ops.append(Op("cli_classify", cli_classify, check_cli_classify))

    jmax = 512
    spectrum_csv = work / "spectrum.csv"

    def cli_spectrum():
        return run_cli(pb, ["spectrum", "--config", str(rnd_cfg), "--jmax", str(jmax), "--out", str(spectrum_csv)])

    def check_cli_spectrum(text):
        rows = load_csv(spectrum_csv, ["family", "sign", "j", "im_lambda"])
        expect(rows.shape[0] == 4 * jmax, f"spectrum wrote {rows.shape[0]} rows")
        c = oracles.wave_constants(modal_params.rho, modal_params.alpha1, modal_params.beta, modal_params.gamma, modal_params.mu)
        family, sign, j, im = rows.T
        zeta = np.where(family == 1, c.zeta1, c.zeta2)
        ref = sign * (2 * j - 1) * math.pi / (2.0 * modal_params.length) / zeta
        expect(rel(im, ref) <= 1e-12, "spectrum eigenvalues differ from +/- sigma_j/zeta_k")

    ops.append(Op("cli_spectrum", cli_spectrum, check_cli_spectrum))

    obs_csv = work / "observability.csv"

    def cli_observability():
        return run_cli(pb, ["observability", "--config", str(work / "unit.cfg"), "--count", "6",
                            "--T", repr(T_obs), "--out", str(obs_csv)])

    def check_cli_observability(text):
        rows = load_csv(obs_csv, ["p", "q", "err", "quotient"])
        expect(rows.shape[0] == 6, f"observability wrote {rows.shape[0]} rows")
        zeta2 = oracles.wave_constants(1.0, 1.0, 1.0, 1.0, 1.0).zeta2
        for p, q, err, quotient in rows:
            p, q = int(p), int(q)
            expect(p % 2 == 1 and q % 2 == 1 and math.gcd(p, q) == 1, f"({p},{q}) not odd coprime")
            ref = oracles.pair_quotient(unit, p, q, T_obs)
            expect(rel(quotient, ref) <= 1e-6, f"({p},{q}) quotient {quotient:.6e} vs closed form {ref:.6e}")
            bound = math.pi**2 * T_obs**3 * (err * q * q) ** 2 / (12.0 * zeta2**2 * q * q)
            expect(quotient <= bound, f"({p},{q}) quotient {quotient:.3e} above the mean-value bound {bound:.3e}")

    ops.append(Op("cli_observability", cli_observability, check_cli_observability))
    return ops


BY_NAME = {
    "closed_loop_table": closed_loop_table,
    "frequency_response": frequency_response,
    "observability_certificates": observability_certificates,
}


def build(pb, name: str, seed: int, work: Path, workers: int) -> list[Op]:
    warm_up(pb, work)
    return BY_NAME[name](pb, seed, work, workers)
