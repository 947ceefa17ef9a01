"""Parameter sweeps with deterministic, ordered output.

Each sweep point is an independent pure computation, and points run
serially in input order: the metrics are NumPy loops driven from Python, so
threads would contend for the interpreter lock (two of them took about twice
the serial time on the decay-rate sweep).  Output is byte-identical across
runs for a fixed configuration.  Per-point failures become NaN rows carrying
the error message and never abort the sweep.  The ``decay_rate`` metric
samples a point's run as the CLI's ``simulate`` does, by ``sample_dt``.
"""

from __future__ import annotations

from dataclasses import replace

from .config import PHYSICAL_KEYS, RunConfig
from .errors import PiezoBeamError
from .frequency import boundedness_scan
from .params import classify_stability, derive_constants
from .timedomain import Grid, _run_config, decay_rate, gaussian_velocity_state

__all__ = ["SWEEP_METRICS", "evaluate_metric", "run_sweep"]

SWEEP_METRICS = ("decay_rate", "class", "zeta_ratio", "sup_G")


def evaluate_metric(cfg: RunConfig, metric: str):
    """Evaluate one sweep metric for the configuration's parameters; ``decay_rate``
    fits the rows that ``simulate --mode closed`` writes for ``cfg`` from the bump."""
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
        traj = _run_config(cfg, gaussian_velocity_state(Grid(cfg.n, params.length)))
        return decay_rate(traj.energy, traj.t)[0]
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
    ``nan`` and the error message.  A gain left at its default ``None``
    stands for each point's own ``1/(2*thickness)``, so a ``thickness``
    sweep uses each beam's own matched gain; a given ``k`` is held fixed.
    Points always run serially; ``workers`` is accepted for compatibility,
    must be at least 1 and is otherwise ignored.
    """
    if param_name not in PHYSICAL_KEYS:
        raise ValueError(f"{param_name!r} is not a physical parameter")
    if metric not in SWEEP_METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {SWEEP_METRICS}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def task(value):
        try:  # the point's beam is checked as it is built
            point = replace(cfg, params=replace(cfg.params, **{param_name: value}))
            return (value, evaluate_metric(point, metric), "")
        except (PiezoBeamError, ValueError) as exc:
            return (value, float("nan"), f"{type(exc).__name__}: {exc}")

    return [task(v) for v in values]
