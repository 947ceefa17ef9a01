"""Command-line front end.

Subcommands: ``constants``, ``classify``, ``spectrum``, ``simulate``,
``transfer``, ``observability``, ``sweep``.  Each reads the beam description
from a ``key = value`` config file and prints a one-line summary; all but
``classify`` also write a CSV (``simulate`` optionally an SVG and the state
at each row of its CSV).  Exit codes: 0 success, 2 invalid input, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import observability as obs
from . import spectral
from .config import FLOAT_KEYS, INT_KEYS, RunConfig, _fields, load_config
from .csvio import read_csv, write_csv, write_svg
from .errors import (
    MalformedValue,
    NumericalError,
    PiezoBeamError,
    ValidationError,
)
from .frequency import transfer_closed
from .params import StabilityClass, _check_integer, classify_stability, derive_constants
from .sweeps import SWEEP_METRICS, run_sweep
from .timedomain import (
    Grid,
    _run_config,
    decay_rate,
    gaussian_velocity_state,
    grid_state_from_modal,
    sine_velocity_state,
    state_from_samples,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Spectral, time-domain and frequency-domain analysis of a "
        "voltage-actuated piezoelectric beam with magnetic coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", required=True, help="path to key = value config file")
        if out:
            p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("constants", help="derived spectral constants")
    common(p)

    p = sub.add_parser("classify", help="stabilizability class of zeta2/zeta1")
    common(p, out=False)
    p.add_argument("--qmax")
    p.add_argument("--tol")

    p = sub.add_parser("spectrum", help="eigenvalues of the undamped generator")
    common(p)
    p.add_argument("--jmax", dest="J", help="modes per family (the key J)")

    p = sub.add_parser("simulate", help="time-domain simulation")
    common(p)
    p.add_argument("--mode", choices=("open", "closed", "classical"), default="closed")
    p.add_argument("--T")
    p.add_argument("--N")
    p.add_argument("--k")
    p.add_argument("--cfl")
    p.add_argument(
        "--initial",
        default=None,
        help="initial data: eigenmode:F,J | sine:J | bump | oddpair:P,Q | file:STATE.csv",
    )
    p.add_argument("--svg", default=None, help="write an energy-history SVG here")
    p.add_argument("--snapshots", default=None, help="directory for the state at every CSV row")

    p = sub.add_parser("transfer", help="transfer function on a vertical line")
    common(p)
    p.add_argument("--s1", type=float, default=1.0, help="real part of the line")
    p.add_argument("--im-max", type=float, default=100.0)
    p.add_argument("--n-points", type=int, default=2001)

    p = sub.add_parser("observability", help="odd/odd approximants and quotients")
    common(p)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--T")

    p = sub.add_parser("sweep", help="parameter sweep")
    common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--metric", required=True, choices=SWEEP_METRICS)
    p.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility; must be >= 1; points always run serially",
    )
    return parser


def _out_path(args, default_name: str) -> Path:
    return Path(args.out) if args.out else Path(default_name)


def _cmd_constants(args, cfg: RunConfig) -> int:
    dc = derive_constants(cfg.params)
    path = _out_path(args, "constants.csv")
    rows = [(dc.alpha, dc.zeta1, dc.zeta2, dc.b1, dc.b2)]
    write_csv(path, ["alpha", "zeta1", "zeta2", "b1", "b2"], columns=zip(*rows))
    print(
        f"alpha={dc.alpha:.6g} zeta1={dc.zeta1:.6g} zeta2={dc.zeta2:.6g} "
        f"b1={dc.b1:.6g} b2={dc.b2:.6g} -> {path}"
    )
    return EXIT_OK


def _cmd_classify(args, cfg: RunConfig) -> int:
    dc = derive_constants(cfg.params)
    report = classify_stability(dc, qmax=cfg.qmax, tol=cfg.tol, length=cfg.params.length)
    label = report.classification.value
    if report.classification is StabilityClass.EXPONENTIALLY_STABLE:
        a = report.approximant
        print(f"{label} p={a.p} q={a.q} gap={report.gap:.4f} Tmin={report.min_time:.3f}")
    elif report.approximant is not None:
        a = report.approximant
        print(f"{label} p={a.p} q={a.q} err={a.error:.3g}")
    else:
        print(f"{label} ratio={report.ratio:.12g} qmax={cfg.qmax} tol={cfg.tol:g}")
    return EXIT_OK


def _cmd_spectrum(args, cfg: RunConfig) -> int:
    columns = spectral._spectrum_columns(cfg.params, cfg.J)
    path = _out_path(args, "spectrum.csv")
    write_csv(path, ["family", "sign", "j", "im_lambda"], columns=columns)
    print(f"wrote {columns[-1].size} eigenvalues (jmax={cfg.J}) -> {path}")
    return EXIT_OK


def _parse_initial(spec_text: str | None, mode: str, cfg: RunConfig, grid: Grid):
    text = spec_text or ("eigenmode:1,1" if mode == "open" else "bump")
    if text == "bump":
        return gaussian_velocity_state(grid)
    name, _, rest = text.partition(":")
    if name == "file":
        header, rows = read_csv(rest)
        if header != ["x", "v", "p", "vdot", "pdot"] or any(len(row) != 5 for row in rows):
            raise ValidationError(f"{rest}: expected columns x,v,p,vdot,pdot")
        cols = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 5).T
        return state_from_samples(grid, *cols)
    form = {"sine": "sine:J", "eigenmode": "eigenmode:F,J", "oddpair": "oddpair:P,Q"}.get(name)
    if form is None:
        raise ValidationError(f"unknown initial-data preset {text!r}")
    try:  # as many integers as the form has fields; a bare "sine" is sine:1
        values = [int(v) for v in (rest or "1").split(",")]
    except ValueError:
        values = []
    if len(values) != form.count(",") + 1:
        raise MalformedValue(f"--initial {text!r} is not of the form {form}")
    try:  # a field the library rejects keeps its class and is named with the preset
        if name == "sine":
            return sine_velocity_state(grid, j=values[0])
        if name == "eigenmode":
            fam, j = values
            coeffs = spectral.ModalCoefficients.single(spectral.ModeIndex(fam, +1, j), J=max(j, 1))
        else:
            p, q = values
            approx = obs.OddApproximant(p=p, q=q, err=0.0, cq2=0.0)
            coeffs = obs.near_unobservable_state(approx, cfg.params)
        return grid_state_from_modal(coeffs, cfg.params, grid)
    except (PiezoBeamError, ValueError) as exc:
        raise type(exc)(f"--initial {text!r}: {exc}") from exc


def _cmd_simulate(args, cfg: RunConfig) -> int:
    initial = _parse_initial(args.initial, args.mode, cfg, Grid(cfg.n, cfg.params.length))
    traj = _run_config(cfg, initial, args.mode, snapshots=bool(args.snapshots))
    path = _out_path(args, "trajectory.csv")
    write_csv(path, ["time", "energy", "y"], columns=[traj.t, traj.energy, traj.y])
    if traj.energy.size >= 10 and np.all(traj.energy > 0):
        rate, r2 = decay_rate(traj.energy, traj.t)
    else:
        rate, r2 = 0.0, 0.0
    if args.svg:
        write_svg(args.svg, traj.t, traj.energy, title="energy")
    if args.snapshots:
        snap_dir = Path(args.snapshots)
        snap_dir.mkdir(parents=True, exist_ok=True)
        names = [f"state_{i:04d}.csv" for i in range(len(traj.snapshots))]
        for name, (_, state) in zip(names, traj.snapshots):
            write_csv(snap_dir / name, ["x", "v", "p", "vdot", "pdot"],
                      columns=[state.grid.nodes, state.v, state.p, state.vdot, state.pdot])
        write_csv(snap_dir / "index.csv", ["index", "time", "file"], columns=[range(len(names)), traj.t, names])
    print(
        f"mode={args.mode} steps={round(cfg.T / traj.dt)} E0={traj.energy[0]:.6g} "
        f"ET={traj.energy[-1]:.6g} decay_rate={rate:.6g} r2={r2:.4f} "
        f"max|y|={np.max(np.abs(traj.y)):.6g} -> {path}"
    )
    return EXIT_OK


def _cmd_transfer(args, cfg: RunConfig) -> int:
    for flag, value in (("--s1", args.s1), ("--im-max", args.im_max)):
        if not math.isfinite(value):
            raise MalformedValue(f"{flag} must be a finite number, got {value}")
    _check_integer(args.n_points, "--n-points")
    s = np.empty(args.n_points, dtype=complex)
    s.real, s.imag = args.s1, np.linspace(-args.im_max, args.im_max, args.n_points)
    g = transfer_closed(s, cfg.params)
    abs_g = np.abs(g)
    idx = np.argmax(abs_g)
    path = _out_path(args, "frequency.csv")
    write_csv(path, ["re_s", "im_s", "re_G", "im_G", "abs_G"], columns=[s.real, s.imag, g.real, g.imag, abs_g])
    print(f"sup|G|={abs_g[idx]:.6g} at s={s[idx].real:g}{s[idx].imag:+g}j -> {path}")
    return EXIT_OK


def _cmd_observability(args, cfg: RunConfig) -> int:
    params = cfg.params
    dc = derive_constants(params)
    approximants = obs.odd_odd_approximants(dc.ratio, count=args.count, qmax=cfg.qmax)
    rows = []
    for a in approximants:
        state = obs.near_unobservable_state(a, params)
        quotient = obs.observability_quotient(state, params, cfg.T)
        rows.append((a.p, a.q, a.err, quotient))
    path = _out_path(args, "observability.csv")
    write_csv(path, ["p", "q", "err", "quotient"], columns=zip(*rows))
    tail = f"last quotient={rows[-1][3]:.3e}" if rows else "no approximants found"
    print(f"ratio={dc.ratio:.12g} found {len(rows)} approximants; {tail} -> {path}")
    return EXIT_OK


def _cmd_sweep(args, cfg: RunConfig) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    rows = run_sweep(cfg, args.param, values, args.metric, workers=args.workers)
    path = _out_path(args, "sweep.csv")
    write_csv(path, ["value", "metric", "error"], columns=zip(*rows))
    failures = sum(1 for r in rows if r[2])
    print(f"swept {args.param} over {len(rows)} values ({failures} failed) -> {path}")
    return EXIT_OK


_COMMANDS = {
    "constants": _cmd_constants,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "transfer": _cmd_transfer,
    "observability": _cmd_observability,
    "sweep": _cmd_sweep,
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a flag that sets a config key is checked by that key's rule and named in its error
    flags = {key: (text, "--jmax" if key == "J" else f"--{key}")
             for key in INT_KEYS + FLOAT_KEYS if (text := getattr(args, key, None)) is not None}
    try:
        cfg = replace(load_config(args.config), **_fields(flags))
        return _COMMANDS[args.command](args, cfg)
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PiezoBeamError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
