"""Per-layer tracer for one invopt command, installed from outside the package.

The tracer replaces names at the sites where invopt's modules import or look
them up (``invopt.cli.replicate``, ``invopt.simengine.RngStream``, ...) with
wrappers that record spans and counts.  No file of the package changes.
Spans stay in memory and are reduced to metrics when the command ends.

A layer's self time is the length of the union of its spans minus the part of
that union covered by spans of deeper layers, in any thread.  Layers nest as
cli > gpbo > objectives > simengine > stochastic, catalog (see LAYER_DEPTH).

When a wrapped name no longer exists, the metrics that need it are reported
as absent and the name is listed; nothing crashes and nothing reads zero.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import tracemalloc
from collections import defaultdict

LAYER_DEPTH = {"cli": 0, "gpbo": 1, "objectives": 2, "simengine": 3,
               "stochastic": 4, "catalog": 4}

# Engine entry points per workload; simengine metrics need all of them.
ENGINE_ENTRIES = {
    "simulate": ("cli.replicate", "cli.replication_samples", "cli.simulate_once"),
    "optimize": ("objectives._batch_over_reps",),
}

# Taken from a command of its own, because tracemalloc slows the others.
ALLOC_METRICS = ("simengine.peak_alloc_mb",)
ALLOC_CALLS = 12

# per-layer metric -> (unit, wrapped names it needs); "engine" expands to the
# workload's ENGINE_ENTRIES.
METRICS = {
    "cli.import_s": ("s", ()),
    "cli.self_s": ("s", ("cli.main",)),
    "catalog.load_s": ("s", ("cli.load_catalog",)),
    "stochastic.streams_built": ("count", ("simengine.RngStream",)),
    "stochastic.streams_drawn": ("count", ("simengine.RngStream",)),
    "stochastic.stream_s": ("s", ("simengine.RngStream",)),
    "stochastic.uniforms": ("count", ("simengine.RngStream",)),
    "stochastic.sample_s": ("s", ("simengine.demand_series", "simengine.lead_time_series")),
    "simengine.calls": ("count", ("engine",)),
    "simengine.runs": ("count", ("engine",)),
    "simengine.run_yield": ("ratio", ("engine",)),
    "simengine.self_s": ("s", ("engine", "simengine.RngStream",
                                "simengine.demand_series", "simengine.lead_time_series")),
    "simengine.peak_alloc_mb": ("MB", ("engine",)),
    "objectives.evals": ("count", ("cli.policy_profit_objective",)),
    "objectives.eval_s": ("s", ("cli.policy_profit_objective",)),
    "objectives.self_s": ("s", ("cli.policy_profit_objective", "objectives._batch_over_reps")),
    "gpbo.propose_calls": ("count", ("gpbo.propose_next",)),
    "gpbo.propose_s": ("s", ("gpbo.propose_next",)),
    "gpbo.acq_calls": ("count", ("gpbo.expected_improvement", "gpbo.probability_of_improvement")),
    "gpbo.lbfgs_runs": ("count", ("gpbo.minimize", "gpbo.propose_next")),
    "gpbo.lbfgs_nfev": ("count", ("gpbo.minimize", "gpbo.propose_next")),
    "gpbo.fit_calls": ("count", ("gpbo.gp_fit",)),
    "gpbo.fit_s": ("s", ("gpbo.gp_fit",)),
    "gpbo.self_s": ("s", ("cli.bo_run", "cli.policy_profit_objective")),
}


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = defaultdict(list)      # layer -> [(start, end), ...]
        self.counts = defaultdict(float)    # counter -> total
        self.lock = threading.Lock()
        self.drawn = set()                  # stream addresses that yielded uniforms
        self.proposing = 0                  # open propose_next calls
        self.missing: list[str] = []

    def add(self, key: str, amount: float = 1) -> None:
        with self.lock:
            self.counts[key] += amount

    def span(self, layer: str, key: str, start: float, end: float) -> None:
        self.spans[layer].append((start, end))
        with self.lock:
            self.counts[key + ".calls"] += 1
            self.counts[key + ".s"] += end - start

    def timed(self, layer: str, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span(layer, key, start, time.perf_counter())
        return wrapper

    def patch(self, module, attr: str, make_wrapper) -> None:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        setattr(module, attr, make_wrapper(original))

    # --- wrappers -------------------------------------------------------

    def stream_class(self, real):
        tracer = self

        def built(start: float) -> None:
            tracer.span("stochastic", "stream", start, time.perf_counter())

        class TracedStream:
            """Proxy that times stream construction and counts draws."""

            __slots__ = ("_inner", "_drawn")

            def __init__(self, *args, _inner=None, **kwargs):
                if _inner is None:
                    start = time.perf_counter()
                    _inner = real(*args, **kwargs)
                    built(start)
                self._inner = _inner
                self._drawn = False

            def derive(self, lane):
                start = time.perf_counter()
                inner = self._inner.derive(lane)
                built(start)
                return TracedStream(_inner=inner)

            def uniform(self, n=None):
                if not self._drawn:
                    self._drawn = True
                    tracer.drawn.add(repr(self._inner))
                tracer.add("uniforms", 1 if n is None else n)
                return self._inner.uniform(n)

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        return TracedStream

    def engine(self, fn, runs_of):
        """Engine entry: simengine span, requested runs and, when self.alloc,
        the tracemalloc peak of the first ALLOC_CALLS calls.  tracemalloc
        slows Python allocation several fold, so the peak is taken in a
        command of its own; later calls of the benchmark's commands repeat
        the shapes of the first ones."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.add("engine.runs", runs_of(bound.arguments))
            sampled = self.alloc and self.counts["engine.calls"] < ALLOC_CALLS
            if sampled:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span("simengine", "engine", start, time.perf_counter())
                if sampled:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counts["engine.peak_bytes"] = max(self.counts["engine.peak_bytes"], peak)
        return wrapper

    def objective(self, factory):
        tracer = self

        class TracedObjective:
            """Proxy that times each objective evaluation."""

            def __init__(self, inner):
                self._inner = inner

            def __call__(self, x):
                return self._evaluate(self._inner, x, 1)

            def evaluate_many(self, x):
                return self._evaluate(self._inner.evaluate_many, x, len(x))

            @staticmethod
            def _evaluate(fn, x, points):
                tracer.add("evals", points)
                start = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    tracer.span("objectives", "objective", start, time.perf_counter())

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return TracedObjective(factory(*args, **kwargs))
        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)
        return wrapper

    def proposer(self, fn):
        """propose_next span; marks it open so that minimizer counts only its runs."""
        timed = self.timed("gpbo", "propose", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.proposing += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self.proposing -= 1
        return wrapper

    def minimizer(self, fn):
        """L-BFGS-B runs inside propose_next; gp_fit's own searches are not counted."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.proposing:
                self.add("lbfgs.runs")
                self.add("lbfgs.nfev", getattr(result, "nfev", 0))
            return result
        return wrapper

    def install(self, modules) -> None:
        """Wrap every traced name; ``modules`` maps short names to modules."""
        cli, sim, gp = (modules[m] for m in ("cli", "simengine", "gpbo"))
        self.patch(cli, "main", lambda f: self.timed("cli", "cli", f))
        self.patch(cli, "load_catalog", lambda f: self.timed("catalog", "catalog", f))
        for module in (sim, cli):
            self.patch(module, "RngStream", self.stream_class)
        for attr in ("demand_series", "lead_time_series"):
            self.patch(sim, attr, lambda f: self.timed("stochastic", "sample", f))
        self.install_engine(modules)
        self.patch(cli, "policy_profit_objective", self.objective)
        self.patch(cli, "bo_run", lambda f: self.timed("gpbo", "bo_run", f))
        self.patch(gp, "gp_fit", lambda f: self.timed("gpbo", "fit", f))
        self.patch(gp, "propose_next", self.proposer)
        for attr in ("expected_improvement", "probability_of_improvement"):
            self.patch(gp, attr, lambda f: self.counted("acq", f))
        self.patch(gp, "minimize", self.minimizer)

    def install_engine(self, modules) -> None:
        """Wrap the simengine entry points that cli and objectives call."""
        def reps(a):
            return a["cfg"].replications

        engine_runs = {
            "replicate": reps,
            "replication_samples": reps,
            "simulate_once": lambda a: 1,
        }
        for attr, runs_of in engine_runs.items():
            self.patch(modules["cli"], attr, lambda f, r=runs_of: self.engine(f, r))
        self.patch(modules["objectives"], "_batch_over_reps",
                   lambda f: self.engine(f, lambda a: len(a["rep_ids"])))

    # --- reduction ------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        merged = {layer: _union(spans) for layer, spans in self.spans.items()}
        out = {}
        for layer, depth in LAYER_DEPTH.items():
            own = merged.get(layer, [])
            deeper = _union([iv for other, d in LAYER_DEPTH.items() if d > depth
                             for iv in merged.get(other, [])])
            out[layer] = _length(own) - _overlap(own, deeper)
        return out

    def metrics(self, kind: str, import_s: float, requested_runs: int) -> dict:
        """Per-layer metrics; those needing a missing name are left out."""
        c = self.counts
        self_s = self.self_seconds()
        values = {
            "cli.import_s": import_s,
            "cli.self_s": self_s["cli"],
            "catalog.load_s": c["catalog.s"],
            "stochastic.streams_built": c["stream.calls"],
            "stochastic.streams_drawn": len(self.drawn),
            "stochastic.stream_s": c["stream.s"],
            "stochastic.uniforms": c["uniforms"],
            "stochastic.sample_s": c["sample.s"],
            "simengine.calls": c["engine.calls"],
            "simengine.runs": c["engine.runs"],
            "simengine.run_yield": requested_runs / c["engine.runs"] if c["engine.runs"] else 0.0,
            "simengine.self_s": self_s["simengine"],
            "simengine.peak_alloc_mb": c["engine.peak_bytes"] / 2**20,
            "objectives.evals": c["evals"],
            "objectives.eval_s": c["objective.s"],
            "objectives.self_s": self_s["objectives"],
            "gpbo.propose_calls": c["propose.calls"],
            "gpbo.propose_s": c["propose.s"],
            "gpbo.acq_calls": c["acq"],
            "gpbo.lbfgs_runs": c["lbfgs.runs"],
            "gpbo.lbfgs_nfev": c["lbfgs.nfev"],
            "gpbo.fit_calls": c["fit.calls"],
            "gpbo.fit_s": c["fit.s"],
            "gpbo.self_s": self_s["gpbo"],
        }
        missing = set(self.missing)
        out = {}
        for name, (unit, needs) in METRICS.items():
            names = [n for need in needs
                     for n in (ENGINE_ENTRIES[kind] if need == "engine" else (need,))]
            if not missing.intersection(names):
                out[name] = {"value": values[name], "unit": unit}
        return out


def _union(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum(end - start for start, end in merged)


def _overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
