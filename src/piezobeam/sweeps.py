"""Parameter sweeps with deterministic, ordered output.

Each sweep point is an independent pure computation.  Points run serially
unless ``workers > 1`` asks for a thread pool: the metrics are NumPy loops
driven from Python, so threads contend for the interpreter lock, and two of
them take about twice the serial time on the decay-rate sweep.  Results are
assembled in input order either way, so output is byte-identical across
runs and worker counts for a fixed configuration.  Per-point failures become
NaN rows carrying the error message and never abort the sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .config import RunConfig
from .errors import PiezoBeamError
from .frequency import boundedness_scan
from .params import classify_stability, derive_constants
from .timedomain import Grid, SimConfig, decay_rate, gaussian_velocity_state, simulate

__all__ = ["SWEEP_METRICS", "evaluate_metric", "run_sweep"]

SWEEP_METRICS = ("decay_rate", "class", "zeta_ratio", "sup_G")


def evaluate_metric(cfg: RunConfig, metric: str):
    """Evaluate one sweep metric for the configuration's parameters."""
    params = cfg.params
    if metric == "zeta_ratio":
        return derive_constants(params).ratio
    if metric == "class":
        dc = derive_constants(params)
        report = classify_stability(dc, qmax=cfg.qmax, tol=cfg.tol, length=params.length)
        return report.classification.value
    if metric == "sup_G":
        return boundedness_scan(1.0, 50.0, 1001, params).sup
    if metric == "decay_rate":
        grid = Grid(cfg.n, params.length)
        initial = gaussian_velocity_state(grid)
        sim = SimConfig(mode="closed", T=cfg.T, cfl=cfg.cfl, k=cfg.k, energy_stride=8)
        traj = simulate(initial, params, sim)
        rate, _ = decay_rate(traj.energy, traj.t)
        return rate
    raise ValueError(f"unknown metric {metric!r}; choose from {SWEEP_METRICS}")


def run_sweep(
    cfg: RunConfig,
    param_name: str,
    values,
    metric: str,
    workers: int | None = None,
) -> list[tuple]:
    """Evaluate ``metric`` at each parameter value; rows come back in input order.

    Returns rows ``(value, metric, error)`` where failed points carry
    ``nan`` and the error message.  Points run serially unless ``workers``
    is above 1, which runs them on that many threads.
    """
    if param_name not in ("rho", "alpha1", "beta", "gamma", "mu", "length", "thickness"):
        raise ValueError(f"{param_name!r} is not a physical parameter")
    if metric not in SWEEP_METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {SWEEP_METRICS}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    values = list(values)

    def task(value):
        point = replace(cfg, params=replace(cfg.params, **{param_name: value}))
        try:
            return (value, evaluate_metric(point, metric), "")
        except (PiezoBeamError, ValueError) as exc:
            return (value, float("nan"), f"{type(exc).__name__}: {exc}")

    if workers is None or workers == 1 or len(values) <= 1:
        return [task(v) for v in values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, values))
