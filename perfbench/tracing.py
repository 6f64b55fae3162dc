"""Per-layer tracing for the benchmark, done from outside the program.

``installed(tracer)`` swaps timing wrappers in for modalgap's layer
functions, at every place a modalgap module binds them (the module that
defines a function and every module that imported it by name), and puts the
originals back on exit. Spans stay in memory; ``Tracer.metrics`` folds them
into the per-layer metrics. A layer's time is its self time: the time its
traced children took is subtracted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

from modalgap import analysis, complexity, core, erm, hypotheses, instances, shatter

# (metric name, unit) in the order the benchmark reports them
LAYER_METRICS = (
    ("shatter.construct.calls", "count"),
    ("shatter.construct.ms", "ms"),
    ("hypotheses.construct_per_draw", "ratio"),
    ("hypotheses.sup_oracle.ms", "ms"),
    ("hypotheses.lstsq.calls", "count"),
    ("hypotheses.oracle_batch.ms", "ms"),
    ("complexity.gaussian_average.ms", "ms"),
    ("complexity.mc.draws", "count"),
    ("core.draw.ms", "ms"),
    ("core.draw.points", "count"),
    ("instances.support_enumeration.ms", "ms"),
    ("erm.fit_unimodal.ms", "ms"),
    ("erm.grid.evals", "count"),
    ("erm.fit_multimodal.ms", "ms"),
    ("analysis.excess_risk.ms", "ms"),
    ("analysis.excess_risk.points", "count"),
)

TIMED_LAYERS = ("shatter.construct", "hypotheses.sup_oracle",
                "hypotheses.oracle_batch", "complexity.gaussian_average",
                "core.draw", "instances.support_enumeration",
                "erm.fit_unimodal", "erm.fit_multimodal", "analysis.excess_risk")


class Tracer:
    """Spans and counts of one traced window, kept in memory.

    A span is (operation, layer, start, end, parent layer, self seconds).
    ``op`` is set by the caller before each operation, so the spans of one
    operation share it.
    """

    def __init__(self):
        self.op = 0
        self.spans = []
        self.counts = Counter()
        self._stack = []       # [layer, start, seconds spent in children]
        self._grid_sample = 0  # sample size of the fit_unimodal in progress

    def span(self, layer, fn, after=None):
        """Wrap fn in a span named layer; after(tracer, args, kwargs, result)
        records the layer's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spent = end - frame[1]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += spent
                self.spans.append((self.op, layer, frame[1], end,
                                   parent[0] if parent else None,
                                   spent - frame[2]))
            self.counts[layer + ".calls"] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def inside(self, layer) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def metrics(self, ops: int) -> dict:
        """Per-operation layer metrics over ``ops`` traced operations."""
        self_s = Counter()
        for _op, layer, _start, _end, _parent, own in self.spans:
            self_s[layer] += own
        values = {f"{layer}.ms": 1000.0 * self_s[layer] / ops
                  for layer in TIMED_LAYERS}
        for name in ("shatter.construct.calls", "hypotheses.lstsq.calls",
                     "complexity.mc.draws", "core.draw.points",
                     "erm.grid.evals", "analysis.excess_risk.points"):
            values[name] = self.counts[name] / ops
        draws = self.counts["complexity.mc.draws"]
        values["hypotheses.construct_per_draw"] = (
            self.counts["construct_in_mc"] / draws if draws else 0.0)
        return {name: values[name] for name, _unit in LAYER_METRICS}


def _count_construct(tracer, args, kwargs, result):
    if tracer.inside("complexity.gaussian_average"):
        tracer.counts["construct_in_mc"] += 1


def _count_draws(tracer, args, kwargs, result):
    tracer.counts["complexity.mc.draws"] += result.draws


def _count_points(tracer, args, kwargs, result):
    tracer.counts["core.draw.points"] += sum(len(block) for block in result.tasks)


def _count_risk_points(tracer, args, kwargs, result):
    if result.mc_points is not None:
        tracer.counts["analysis.excess_risk.points"] += result.mc_points * len(result.task_risks)
    else:
        instance = args[1] if len(args) > 1 else kwargs["instance"]
        tracer.counts["analysis.excess_risk.points"] += (
            len(instance.support) * len(result.task_risks))


def _modalgap_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "modalgap" or name.startswith("modalgap.")]


def _replacements(tracer):
    """(owner, attribute, wrapper) for every place a layer is bound."""
    out = []

    def everywhere(fn, wrapper):
        for mod in _modalgap_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    out.append((mod, attr, wrapper))

    everywhere(shatter.construct,
               tracer.span("shatter.construct", shatter.construct, _count_construct))
    everywhere(complexity.gaussian_average,
               tracer.span("complexity.gaussian_average",
                           complexity.gaussian_average, _count_draws))
    for fn in (core.draw_labeled, core.draw_unlabeled):
        everywhere(fn, tracer.span("core.draw", fn, _count_points))
    everywhere(erm.fit_multimodal,
               tracer.span("erm.fit_multimodal", erm.fit_multimodal))
    everywhere(analysis.excess_risk,
               tracer.span("analysis.excess_risk", analysis.excess_risk,
                           _count_risk_points))

    def remember_sample(fn):
        @functools.wraps(fn)
        def wrapper(xz_pairs, *args, **kwargs):
            tracer._grid_sample = len(xz_pairs)
            return fn(xz_pairs, *args, **kwargs)
        return wrapper

    everywhere(erm.fit_unimodal,
               tracer.span("erm.fit_unimodal", remember_sample(erm.fit_unimodal)))

    grid = erm._grid_erm

    @functools.wraps(grid)
    def counted_grid(objective, *args, **kwargs):
        def counted(thetas):
            tracer.counts["erm.grid.evals"] += len(thetas) * tracer._grid_sample
            return objective(thetas)
        return grid(counted, *args, **kwargs)

    everywhere(grid, counted_grid)

    for cls in vars(hypotheses).values():
        if not isinstance(cls, type):
            continue
        if "sup_oracle" in vars(cls):
            out.append((cls, "sup_oracle",
                        tracer.span("hypotheses.sup_oracle", vars(cls)["sup_oracle"])))
        if issubclass(cls, hypotheses.SupOracle) and "batch" in vars(cls):
            out.append((cls, "batch",
                        tracer.span("hypotheses.oracle_batch", vars(cls)["batch"])))
    for cls in vars(instances).values():
        if isinstance(cls, type) and "support_enumeration" in vars(cls):
            out.append((cls, "support_enumeration",
                        tracer.span("instances.support_enumeration",
                                    vars(cls)["support_enumeration"])))

    # counted, not timed: the least-squares solves stay in the oracle build
    lstsq = np.linalg.lstsq

    @functools.wraps(lstsq)
    def counted_lstsq(*args, **kwargs):
        tracer.counts["hypotheses.lstsq.calls"] += 1
        return lstsq(*args, **kwargs)

    out.append((np.linalg, "lstsq", counted_lstsq))
    return out


@contextlib.contextmanager
def installed(tracer):
    """Trace modalgap's layers into tracer for the duration of the block."""
    swaps = _replacements(tracer)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in swaps]
    try:
        for owner, attr, wrapper in swaps:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
