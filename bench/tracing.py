"""In-memory call spans around the public functions of each package layer.

The tracer replaces every public function of the layer modules with a thin
wrapper, in the defining module and in every module that imported the name,
so calls made through ``cli`` and ``sweeps`` nest as parent and child spans.
Spans are plain tuples kept in a list; nothing is written until the caller
asks for it.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from typing import Callable, NamedTuple

PACKAGE = "piezobeam"
LAYERS = ("params", "config", "spectral", "timedomain", "frequency", "observability", "sweeps", "cli", "csvio")


class Span(NamedTuple):
    sid: int
    parent: int | None
    layer: str
    func: str
    start: float
    end: float
    op: str
    attrs: dict | None


def _public_functions(module) -> dict[str, Callable]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _annotate_simulate(args, kwargs, result):
    initial = args[0] if args else kwargs["initial"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    steps = round(cfg.T / result.dt)
    return {"mode": cfg.mode, "stride": cfg.energy_stride, "cell_steps": (initial.grid.n + 1) * steps}


def _annotate_cli_run(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0]}


def _annotate_write_csv(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


ANNOTATE = {
    "timedomain.simulate": _annotate_simulate,
    "cli.run": _annotate_cli_run,
    "csvio.write_csv": _annotate_write_csv,
}


class Tracer:
    """Records one span per call into a public layer function.

    A call made on a worker thread whose own stack is empty is parented to
    the innermost open span of the thread that installed the tracer: the
    sweep's thread pool is the only place the package starts threads, and
    the installing thread waits inside ``run_sweep`` while the pool runs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner: int | None = None
        self._owner_stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        key = f"{layer}.{name}"
        annotate = ANNOTATE.get(key)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._owner and tracer._owner_stack:
                parent = tracer._owner_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            op = tracer.op
            stack.append(sid)
            start = time.perf_counter()
            returned, result = False, None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and returned else None
                tracer.spans.append(Span(sid, parent, layer, name, start, end, op, attrs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self._owner = threading.get_ident()
        self._local.stack = self._owner_stack = []

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def ancestors(spans: list[Span]) -> Callable[[Span], list[str]]:
    """Return a function giving the ``layer.func`` names above a span."""
    by_id = {s.sid: s for s in spans}

    def chain(span: Span) -> list[str]:
        names = []
        parent = span.parent
        while parent is not None and parent in by_id:
            up = by_id[parent]
            names.append(f"{up.layer}.{up.func}")
            parent = up.parent
        return names

    return chain


def write_spans(path: str, spans: list[Span]) -> None:
    """Write spans as CSV rows ``id,parent,name,op,start_us,end_us``, times from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,name,op,start_us,end_us\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            start, end = round((s.start - t0) * 1e6, 1), round((s.end - t0) * 1e6, 1)
            handle.write(f"{s.sid},{parent},{s.layer}.{s.func},{s.op},{start},{end}\n")
