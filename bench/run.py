"""Benchmark of the piezobeam stability table: one command, three workloads.

Run from the repository root:

    python3 bench/run.py --workload closed_loop_table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # all three workloads, one after another

Each run sets up (imports the package from ``src/``, writes and loads its
config files, builds its initial states and makes one warm-up call into each
layer), then repeats whole rounds of the workload's operations for about
``--seconds`` seconds, checking every output.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and the JSON holds
the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("closed_loop_table", "frequency_response", "observability_certificates")
SETUP_CHILDREN = 2  # set-up is timed in this process and in this many fresh ones
SETUP_SPEED_SAMPLES = 5  # kernel samples, taken right after set-up, that scale its time

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

LAYER_NAMES = ("params", "config", "spectral", "timedomain", "frequency", "observability", "sweeps", "cli", "csvio")
CLI_COMMANDS = ("constants", "classify", "spectrum", "simulate", "transfer", "observability", "sweep")
PER_CALL = {
    # metric: (layer, function, unit scale, unit)
    "timedomain.decay_rate_ms": ("timedomain", "decay_rate", 1e3, "ms"),
    "timedomain.energy_balance_residual_ms": ("timedomain", "energy_balance_residual", 1e3, "ms"),
    "frequency.transfer_closed_us": ("frequency", "transfer_closed", 1e6, "us"),
    "frequency.transfer_damped_us": ("frequency", "transfer_damped", 1e6, "us"),
    "frequency.boundedness_scan_ms": ("frequency", "boundedness_scan", 1e3, "ms"),
    "frequency.transfer_bvp_ms": ("frequency", "transfer_bvp", 1e3, "ms"),
    "spectral.project_ms": ("spectral", "project", 1e3, "ms"),
    "spectral.reconstruct_ms": ("spectral", "reconstruct", 1e3, "ms"),
    "spectral.propagate_us": ("spectral", "propagate", 1e6, "us"),
    "spectral.output_energy_ms": ("spectral", "output_energy", 1e3, "ms"),
    "observability.odd_odd_approximants_ms": ("observability", "odd_odd_approximants", 1e3, "ms"),
    "observability.observability_quotient_ms": ("observability", "observability_quotient", 1e3, "ms"),
    "observability.ingham_frame_bounds_ms": ("observability", "ingham_frame_bounds", 1e3, "ms"),
    "params.derive_constants_us": ("params", "derive_constants", 1e6, "us"),
    "params.classify_stability_us": ("params", "classify_stability", 1e6, "us"),
    "config.load_config_us": ("config", "load_config", 1e6, "us"),
    "csvio.write_csv_ms": ("csvio", "write_csv", 1e3, "ms"),
}
RATES = {
    # metric: (work unit counted by the operations, unit)
    "timedomain.cell_steps_per_s": ("cell_steps", "cell-steps/s"),
    "sweeps.sweep_points_per_s": ("sweep_points", "points/s"),
    "frequency.transfer_evals_per_s": ("transfer_evals", "evals/s"),
    "frequency.bvp_solves_per_s": ("bvp_solves", "solves/s"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for mode in ("open", "closed", "classical"):
        units[f"timedomain.simulate_ns_per_cell_step.{mode}"] = "ns"
    units["timedomain.energy_recording_ns_per_cell_step"] = "ns"
    units["sweeps.run_sweep_s"] = "s"
    units["sweeps.parallel_efficiency"] = "ratio"
    for command in CLI_COMMANDS:
        units[f"cli.run_ms.{command}"] = "ms"
    units["csvio.bytes_written"] = "B"
    units.update({name: spec[3] for name, spec in PER_CALL.items()})
    units.update({name: spec[1] for name, spec in RATES.items()})
    units["trace.overhead_pct"] = "%"
    units["trace.spans_per_round"] = "count"
    return units


PER_LAYER = per_layer_units()


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_threads(n: int) -> None:
    """Cap BLAS/OpenMP pools at ``n`` threads; must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= n:
            os.environ[var] = str(n)


class Speed:
    """A fixed reference computation, timed during every operation to scale it to one machine speed.

    On a shared host the same code can run up to twice as slow for stretches
    of seconds to minutes, with CPU time growing as fast as wall time: the
    core itself slows down.  The kernel below is timed right before and right
    after each operation and, from a timer signal, every ``TICK_S`` while it
    runs; the time spent in those samples is taken off the operation's time.
    The operation's time is then multiplied by ``REFERENCE_KERNEL_S`` over
    the median of its samples, raised to ``RESPONSE``: the kernel's time
    swings more than the workloads' do, and over ten-seed sets of 30-second
    runs on the reference host the exponent 0.6 left the least spread in
    every workload (1.0 over-corrects).  The kernel is the small-array NumPy
    update that dominates the package's hot loops; it never calls the
    package.  Raw times are kept in the run record.
    """

    REFERENCE_KERNEL_S = 0.005  # the kernel's typical time on the reference 2-core host
    RESPONSE = 0.6
    TICK_S = 0.25

    def __init__(self):
        import numpy

        self._a = numpy.linspace(0.0, 1.0, 1025)
        self._b = numpy.zeros(1025)
        self.samples: list[tuple[float, float]] = []  # (timestamp, kernel seconds)
        self.ticked = 0.0  # seconds spent sampling from the timer since ``start_ticks``

    def sample(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        for _ in range(600):
            b[1:-1] += 0.1 * (a[:-2] - 2.0 * a[1:-1] + a[2:])
        end = time.perf_counter()
        self.samples.append((end, end - start))
        return end - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.ticked += time.perf_counter() - start

    def start_ticks(self) -> None:
        self.ticked = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Scale for a call timed over ``[start, end]``, from the samples just before, during and after it."""
        near = [v for t, v in self.samples if start - self.TICK_S <= t <= end + self.TICK_S]
        return (self.REFERENCE_KERNEL_S / statistics.median(near)) ** self.RESPONSE


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git; ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep_workers": threads,
        "git_sha": git_sha(),
    }


def setup(workload: str, seed: int, work: Path, workers: int):
    """Import the package, build the workload's inputs and warm every layer.

    Returns the set-up time scaled to the reference speed, the package, the
    operations and the ``Speed`` sampler used for the rest of the run.
    """
    start = time.perf_counter()
    import piezobeam as pb
    import piezobeam.cli  # noqa: F401  (the CLI is not imported by the package itself)

    import workloads

    ops = workloads.build(pb, workload, seed, work, workers)
    raw = time.perf_counter() - start
    speed = Speed()
    kernel = statistics.median(speed.sample() for _ in range(SETUP_SPEED_SAMPLES))
    return raw * (Speed.REFERENCE_KERNEL_S / kernel) ** Speed.RESPONSE, pb, ops, speed


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Round:
    """One pass over a workload's operations: raw timings, then times scaled by ``scale``."""

    def __init__(self):
        self.timed: list[tuple] = []  # (op, start, end, work)
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # (op, message, known fault)
        self.raw = self.wall = 0.0
        self.op_seconds: dict[str, float] = {}
        self.op_factor: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self.work_seconds: dict[str, float] = {}

    def scale(self, speed: Speed) -> None:
        for op, start, end, work in self.timed:
            factor = speed.factor(start, end)
            seconds = (end - start) * factor
            self.op_factor[op.name] = factor
            self.op_seconds[op.name] = seconds
            if op.in_totals:
                self.wall += seconds
            for unit, amount in work.items():
                self.work[unit] = self.work.get(unit, 0.0) + amount
                self.work_seconds[unit] = self.work_seconds.get(unit, 0.0) + seconds


def run_round(ops, speed: Speed, tracer=None) -> Round:
    from workloads import CheckFailed

    rnd = Round()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        error, out, work = None, None, {}
        speed.sample()
        if op.in_totals:  # the timer would interrupt the sweep's waiting thread
            speed.start_ticks()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising call is a failed operation, reported with its type
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if op.in_totals:
                speed.stop_ticks()
        end = time.perf_counter() - (speed.ticked if op.in_totals else 0.0)
        speed.sample()
        if tracer is not None:
            tracer.op = ""
        if error is None:
            try:
                op.check(out)
            except CheckFailed as exc:
                error = str(exc)
            if error is None and op.work is not None:
                work = op.work(out)
        rnd.attempted += 1
        if error is not None:
            rnd.failures.append((op.name, error, op.known_fault is not None))
        rnd.timed.append((op, start, end, work))
        rnd.raw += end - start
    return rnd


def rates(rounds: list[Round]) -> dict[str, float]:
    out = {}
    for metric, (unit, _) in RATES.items():
        amount = sum(r.work.get(unit, 0.0) for r in rounds)
        seconds = sum(r.work_seconds.get(unit, 0.0) for r in rounds)
        out[metric] = amount / seconds if seconds > 0 else 0.0
    return out


def layer_metrics(span_rounds, untraced: list[Round], traced: list[Round], workers: int) -> dict[str, float]:
    """Per-layer figures from the spans of the traced rounds, each scaled by its operation's speed factor."""
    from tracing import ancestors, self_times

    n = len(span_rounds)
    calls = {layer: 0 for layer in LAYER_NAMES}
    self_s = {layer: 0.0 for layer in LAYER_NAMES}
    per_func: dict[str, list[float]] = {}
    sim = {mode: [0.0, 0] for mode in ("open", "closed", "classical")}
    recording = {"strided": [0.0, 0], "ends": [0.0, 0]}
    cli_ms: dict[str, list[float]] = {}
    parallel, serial_points, bytes_written, spans_total = [], [], 0, 0
    for spans, rnd in zip(span_rounds, traced):
        spans_total += len(spans)
        selfs = self_times(spans)
        chain = ancestors(spans)
        for s in spans:
            key = f"{s.layer}.{s.func}"
            factor = rnd.op_factor[s.op]
            dur = (s.end - s.start) * factor
            calls[s.layer] += 1
            self_s[s.layer] += selfs[s.sid] * factor
            per_func.setdefault(key, []).append(dur)
            up = chain(s)
            if key == "timedomain.simulate" and s.attrs and not any(a.startswith("sweeps.") for a in up):
                sim[s.attrs["mode"]][0] += dur
                sim[s.attrs["mode"]][1] += s.attrs["cell_steps"]
                if s.op == "energy_recording":
                    slot = recording["ends" if s.attrs["stride"] > 1000 else "strided"]
                    slot[0] += dur
                    slot[1] += s.attrs["cell_steps"]
            elif key == "sweeps.run_sweep":
                if "cli.run" in up:
                    parallel.append(dur)
            elif key == "sweeps.evaluate_metric" and "cli.run" not in up:
                serial_points.append(dur)
            elif key == "cli.run" and s.attrs:
                cli_ms.setdefault(s.attrs["command"], []).append(dur * 1e3)
            elif key == "csvio.write_csv" and s.attrs:
                bytes_written += s.attrs["bytes"]

    m: dict[str, float] = {}
    for layer in LAYER_NAMES:
        m[f"{layer}.calls"] = calls[layer] / n
        m[f"{layer}.self_s"] = self_s[layer] / n
    for mode, (seconds, steps) in sim.items():
        m[f"timedomain.simulate_ns_per_cell_step.{mode}"] = seconds / steps * 1e9 if steps else 0.0
    (s_full, c_full), (s_ends, c_ends) = recording["strided"], recording["ends"]
    m["timedomain.energy_recording_ns_per_cell_step"] = (s_full / c_full - s_ends / c_ends) * 1e9 if c_full and c_ends else 0.0
    m["sweeps.run_sweep_s"] = statistics.median(parallel) if parallel else 0.0
    m["sweeps.parallel_efficiency"] = (
        sum(serial_points) / n / (workers * statistics.mean(parallel)) if parallel and serial_points else 0.0
    )
    for command in CLI_COMMANDS:
        values = cli_ms.get(command)
        m[f"cli.run_ms.{command}"] = statistics.median(values) if values else 0.0
    m["csvio.bytes_written"] = bytes_written / n
    for metric, (layer, func, scale, _) in PER_CALL.items():
        values = per_func.get(f"{layer}.{func}")
        m[metric] = statistics.mean(values) * scale if values else 0.0
    m.update(rates(untraced))
    t_wall = statistics.median(r.wall for r in traced)
    u_wall = statistics.median(r.wall for r in untraced)
    m["trace.overhead_pct"] = (t_wall / u_wall - 1.0) * 100.0  # both scaled, threaded sweep excluded
    m["trace.spans_per_round"] = spans_total / n
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workers: int) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        first, pb, ops, speed = setup(workload, seed, work, workers)
        setups = [first] + [child_setup_seconds(workload, seed) for _ in range(SETUP_CHILDREN)]

        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
        untraced: list[Round] = []
        traced: list[Round] = []
        span_rounds = []
        kept_spans = None
        start = time.perf_counter()
        while True:
            untraced.append(run_round(ops, speed))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_round(ops, speed, tracer))
                finally:
                    tracer.uninstall()
                spans = tracer.take()
                span_rounds.append(spans)
                if kept_spans is None:
                    kept_spans = spans
            elapsed = time.perf_counter() - start
            step = statistics.median(r.raw for r in untraced) + (
                statistics.median(r.raw for r in traced) if traced else 0.0
            )
            if elapsed + 0.5 * step >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = untraced + traced
    for rnd in rounds:
        rnd.scale(speed)
    failures = [f for r in rounds for f in r.failures]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "correct": not any(not known for _, _, known in failures),
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "failures": sorted({(op, msg, known) for op, msg, known in failures}),
        "setup_runs_s": setups,
        "op_median_s": {op.name: statistics.median(r.op_seconds[op.name] for r in untraced) for op in ops},
        "raw_round_median_s": statistics.median(r.raw for r in untraced),
        "op_raw_median_s": {
            op.name: statistics.median(end - start for r in untraced for o, start, end, _ in r.timed if o is op) for op in ops
        },
    }
    if trace:
        result["metrics"] = layer_metrics(span_rounds, untraced, traced, workers)
        result["units"] = {name: PER_LAYER[name] for name in result["metrics"]}
        from tracing import write_spans

        write_spans(str(OUT / f"spans-{workload}.csv"), kept_spans)
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall for r in untraced),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["units"] = END_TO_END
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}, {result['rounds']} rounds)")
    print(f"   attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for op, msg, known in result["failures"]:
        print(f"   {'known fault' if known else 'FAILED'}: {op}: {msg}")
    for name, value in result["metrics"].items():
        print(f"   {name:48s} {value:14.6g} {result['units'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "piezobeam" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workers = cpu_count()
    limit_threads(workers)
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            seconds = setup(args.workload, args.seed, work, workers)[0]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), workers)
        result["environment"] = environment(workers)
        report(result)
        (OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1, default=str))
        results.append(result)

    def line(r):
        return {k: {"value": v, "unit": r["units"][k]} for k, v in r["metrics"].items()}

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = line(results[0])
    else:
        summary["metrics"] = {f"{r['workload']}/{k}": v for r in results for k, v in line(r).items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
