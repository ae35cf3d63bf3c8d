"""Outside-in tracing of em2gm's modules.

The tracer wraps, at run time, every public function (the names in each
module's ``__all__``) of the nine em2gm modules. A wrapper is installed in
every module namespace that binds the function, because that is where its
callers look it up: ``em2gm.experiments.iterate_em`` as well as
``em2gm.sample_em.iterate_em``. No file of the program changes, and leaving
the context manager restores every original binding.

Each call records a span: name, start, end and the span that caused it.
Calls made by sweep worker threads have no open span of their own thread;
their parent is the innermost open span of the thread that installed the
tracer, which is the sweep that started them. Per-layer metrics are derived
from the spans afterwards, so the wrappers only time and count.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("rng", "model", "sample_em", "initializers", "population", "deviation",
          "experiments", "svg", "cli")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("sample_em.iterate_em.busy_s", "s", "lower"),
    ("sample_em.iterate_em.calls", "count", "lower"),
    ("sample_em.iterate_em.steps", "count", "lower"),
    ("sample_em.iterate_em.elem_steps", "count", "lower"),
    ("sample_em.iterate_em.elem_steps_per_s", "1/s", "higher"),
    ("sample_em.iterate_em.bytes_computed", "B", "lower"),
    ("sample_em.iterate_em.ops_per_byte", "ops/B", "higher"),
    ("sample_em.iterate_em.early_stop_frac", "frac", "higher"),
    ("sample_em.run_em.busy_s", "s", "lower"),
    ("sample_em.run_em.self_s", "s", "lower"),
    ("sample_em.run_em.steps", "count", "lower"),
    ("sample_em.em_map.busy_s", "s", "lower"),
    ("sample_em.em_map.calls", "count", "lower"),
    ("model.log_likelihood.busy_s", "s", "lower"),
    ("model.log_likelihood.calls", "count", "lower"),
    ("sample_em.em_map_batch.busy_s", "s", "lower"),
    ("sample_em.em_map_batch.elem_evals", "count", "lower"),
    ("population.busy_s", "s", "lower"),
    ("population.evals", "count", "lower"),
    ("deviation.relative_lipschitz_probe.busy_s", "s", "lower"),
    ("deviation.relative_lipschitz_probe.self_s", "s", "lower"),
    ("deviation.w1_squared_empirical.busy_s", "s", "lower"),
    ("rng.open_uniforms.busy_s", "s", "lower"),
    ("rng.open_uniforms.uniforms", "count", "lower"),
    ("model.sample_dataset.busy_s", "s", "lower"),
    ("model.sample_dataset.self_s", "s", "lower"),
    ("model.sample_dataset.calls", "count", "lower"),
    ("initializers.make_init.busy_s", "s", "lower"),
    ("initializers.spectral_init.busy_s", "s", "lower"),
    ("initializers.spectral_init.calls", "count", "lower"),
    ("experiments.busy_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.threads", "count", "higher"),
    ("experiments.busy_ratio", "frac", "higher"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.files_written", "count", "lower"),
    ("svg.busy_s", "s", "lower"),
    ("svg.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str                 # "<layer>.<function>", e.g. "sample_em.iterate_em"
    start: float
    end: float
    parent: int | None        # index of the causing span in the span list
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counters run after the call returns, outside its span. Each gets the bound
# arguments (defaults applied) and the result, and returns the span's counts.

def _iterate_em_counts(a, result):
    n, d = a["samples"].shape
    steps = result[1]
    itemsize = np.dtype(a["dtype"]).itemsize
    # one step reads the samples twice (S @ theta, then z @ S) and does two
    # multiply-adds per element; bytes are computed from shapes, not measured
    return {"steps": steps, "elem_steps": n * d * steps,
            "bytes_computed": 2 * n * d * itemsize * steps,
            "ops": 4 * n * d * steps,
            "early_stops": int(steps < a["stop"].max_iters)}


def _em_map_batch_counts(a, result):
    n, d = a["samples"].shape
    return {"elem_evals": n * d * result.shape[0]}


def _cli_counts(a, result):
    argv = list(a["argv"])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path("out")
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    return {"files_written": len(files), "bytes_written": sum(p.stat().st_size for p in files)}


_COUNTERS = {
    "sample_em.iterate_em": _iterate_em_counts,
    "sample_em.run_em": lambda a, r: {"steps": len(r) - 1},
    "sample_em.em_map_batch": _em_map_batch_counts,
    "rng.open_uniforms": lambda a, r: {"uniforms": int(np.prod(a["shape"]))},
    "experiments.rate_sweep": lambda a, r: {"threads": a["config"].threads},
    "experiments.risk_compare": lambda a, r: {"threads": a["config"].threads},
    "svg.write_line_chart": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cli.main": _cli_counts,
}


class Tracer:
    """Records spans of calls into em2gm's public functions while installed."""

    def __init__(self, modules: dict):
        # modules: layer name -> imported em2gm module; every one of them is
        # both a source of public functions and a namespace to patch
        self._modules = modules
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            root = self._stacks.get(self._root_thread) or [None]
            parent = stack[-1] if stack else root[-1]
            idx = len(self.spans)
            self.spans.append(Span(name, math.nan, math.nan, parent))
            stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[idx].end = end
            self._stacks[threading.get_ident()].pop()

    def _wrapper(self, name: str, fn):
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        targets = {}
        for layer, mod in self._modules.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if callable(fn) and not isinstance(fn, type):
                    targets[id(fn)] = self._wrapper(f"{layer}.{fname}", fn)
        namespaces = list(self._modules.values())
        # the package re-exports the functions too
        namespaces.append(sys.modules[namespaces[0].__name__.rpartition(".")[0]])
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                # each wrapper keeps its function alive, so an equal id is the same object
                if id(value) in targets:
                    self._patched.append((ns, key, value))
                    setattr(ns, key, targets[id(value)])

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patched):
            setattr(ns, key, value)
        self._patched.clear()


@contextmanager
def tracing(modules: dict):
    """Install a Tracer on the given modules for the body; yield it."""
    tracer = Tracer(modules)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children(spans: list[Span]) -> dict[int, list[int]]:
    """Index of each span's direct children, keyed by the parent's index."""
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span may overlap (sweep threads run side by side); the
    union is subtracted, so overlapping children are not counted twice.
    """
    kids = children(spans)
    return [s.duration - covered([(spans[c].start, spans[c].end) for c in kids.get(i, ())],
                                 s.start, s.end)
            for i, s in enumerate(spans)]


def _layer_outermost(spans: list[Span], i: int) -> bool:
    layer = spans[i].layer
    p = spans[i].parent
    while p is not None:
        if spans[p].layer == layer:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric of METRICS except trace.overhead_s, from one span set.

    ``busy_s`` sums span durations, so time in two sweep threads at once
    counts twice; a layer's ``busy_s`` counts only spans not nested in a
    span of the same layer. ``self_s`` sums self times over all spans of the
    function or layer.
    """
    selfs = self_times(spans)
    kids = children(spans)
    fn: dict[str, dict[str, float]] = {}
    layer: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        f = fn.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        f["busy_s"] += s.duration
        f["self_s"] += selfs[i]
        f["calls"] += 1
        for k, v in s.counts.items():
            f[k] = f.get(k, 0) + v
        g = layer.setdefault(s.layer, {"busy_s": 0.0, "self_s": 0.0})
        g["self_s"] += selfs[i]
        if _layer_outermost(spans, i):
            g["busy_s"] += s.duration

    def get(table, key, metric):
        return table.get(key, {}).get(metric, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for f, metrics in (
        ("sample_em.iterate_em", ("busy_s", "calls", "steps", "elem_steps", "bytes_computed")),
        ("sample_em.run_em", ("busy_s", "self_s", "steps")),
        ("sample_em.em_map", ("busy_s", "calls")),
        ("model.log_likelihood", ("busy_s", "calls")),
        ("sample_em.em_map_batch", ("busy_s", "elem_evals")),
        ("deviation.relative_lipschitz_probe", ("busy_s", "self_s")),
        ("deviation.w1_squared_empirical", ("busy_s",)),
        ("rng.open_uniforms", ("busy_s", "uniforms")),
        ("model.sample_dataset", ("busy_s", "self_s", "calls")),
        ("initializers.make_init", ("busy_s",)),
        ("initializers.spectral_init", ("busy_s", "calls")),
    ):
        for metric in metrics:
            m[f"{f}.{metric}"] = get(fn, f, metric)
    it = fn.get("sample_em.iterate_em", {})
    m["sample_em.iterate_em.elem_steps_per_s"] = ratio(it.get("elem_steps", 0), it.get("busy_s", 0))
    m["sample_em.iterate_em.ops_per_byte"] = ratio(it.get("ops", 0), it.get("bytes_computed", 0))
    m["sample_em.iterate_em.early_stop_frac"] = ratio(it.get("early_stops", 0), it.get("calls", 0))

    m["population.busy_s"] = get(layer, "population", "busy_s")
    m["population.evals"] = (get(fn, "population.F_pop", "calls")
                             + get(fn, "population.G_pop", "calls"))

    # experiments: busy_ratio = sum of child busy time / (span x threads)
    child_busy = capacity = 0.0
    threads = 0
    for i, s in enumerate(spans):
        if s.layer == "experiments" and _layer_outermost(spans, i):
            t = s.counts.get("threads", 1)
            threads = max(threads, t)
            capacity += s.duration * t
            child_busy += sum(spans[c].duration for c in kids.get(i, ()))
    m["experiments.busy_s"] = get(layer, "experiments", "busy_s")
    m["experiments.self_s"] = get(layer, "experiments", "self_s")
    m["experiments.threads"] = threads
    m["experiments.busy_ratio"] = ratio(child_busy, capacity)

    m["cli.busy_s"] = get(layer, "cli", "busy_s")
    m["cli.self_s"] = get(layer, "cli", "self_s")
    m["cli.bytes_written"] = get(fn, "cli.main", "bytes_written")
    m["cli.files_written"] = get(fn, "cli.main", "files_written")
    m["svg.busy_s"] = get(layer, "svg", "busy_s")
    m["svg.bytes"] = get(fn, "svg.write_line_chart", "bytes")
    return m
