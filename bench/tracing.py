"""Per-layer tracing of expalg from outside the package.

``Tracer.install`` wraps the public functions behind each per-layer metric
at every module binding through which the program calls them (for example
``exp_bounds`` in both ``intervals`` and ``numeric``), and the methods on
their classes.  Each wrapped call records a span (name, start, end,
parent) in compact arrays; ``fold`` turns the spans of finished reports
into call counts and self times (a span's duration minus the time covered
by its child spans) and empties the arrays.  Object counts come from
wrapping ``Interval.__post_init__`` and ``RatInterval.__init__``, without
spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Span name -> functions it wraps, as (module, attribute) or (module, class, method).
SPANS = {
    "numeric.interval_eval": [("numeric", "interval_eval")],
    "numeric.tight_eval": [("numeric", "TightEvaluator", "__call__")],
    "numeric.sample_zero_cells_2d": [("numeric", "sample_zero_cells_2d")],
    "numeric.sign_at_rational": [("numeric", "sign_at_rational")],
    "numeric.isolate_roots_1d": [("numeric", "isolate_roots_1d")],
    "epoly.derivative": [("epoly", "EPoly", "derivative")],
    "epoly.restrict": [("epoly", "EPoly", "restrict")],
    "intervals.exp_bounds": [("intervals", "exp_bounds")],
    "poly.add": [("poly", "Poly", "__add__")],
    "poly.mul": [("poly", "Poly", "__mul__")],
    "hyperplanes.candidate_hyperplanes": [("hyperplanes", "candidate_hyperplanes")],
    "classify.irreducibility_oracle": [("classify", "irreducibility_oracle")],
    "classify.drivers": [("classify", "classify_codim1"), ("classify", "classify_single_exp")],
    "factor.factor_dense": [("factor", "factor_dense")],
    "factor.count_real_roots": [("factor", "count_real_roots")],
    "parsing.parse": [("parsing", "parse_poly"), ("parsing", "parse_epoly")],
    "cli.report": [("cli", "main")],
}
CALLS = [
    "numeric.interval_eval", "numeric.tight_eval", "numeric.sample_zero_cells_2d",
    "epoly.derivative", "intervals.exp_bounds", "numeric.sign_at_rational",
    "numeric.isolate_roots_1d", "epoly.restrict", "poly.add", "poly.mul",
    "hyperplanes.candidate_hyperplanes", "classify.irreducibility_oracle",
    "factor.factor_dense", "factor.count_real_roots", "parsing.parse",
]
SELF = CALLS + ["classify.drivers", "cli.report"]


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the imported expalg package."""
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("expalg.")}
        package_mods = [sys.modules["expalg"], *mods.values()]
        for name, targets in SPANS.items():
            for target in targets:
                if len(target) == 3:
                    cls = getattr(mods[target[0]], target[1])
                    setattr(cls, target[2], self._span(name, getattr(cls, target[2])))
                    continue
                fn = getattr(mods[target[0]], target[1])
                wrapper = self._span(name, fn)
                # Rebind every module global that names the function.
                for m in package_mods:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        self._count_objects(mods["intervals"].Interval, "__post_init__", "intervals.Interval.created")
        self._count_objects(mods["intervals"].RatInterval, "__init__", "intervals.RatInterval.created")

    def _count_objects(self, cls, method: str, key: str) -> None:
        orig = getattr(cls, method)
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[key] += 1
            return orig(obj, *args, **kwargs)

        setattr(cls, method, functools.wraps(orig)(counted))

    def _span(self, name: str, fn):
        code = self.names.index(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self.stack
        clock = time.perf_counter
        extra = getattr(self, "_extra_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- counters measured where the work happens -----------------------------

    def _extra_intervals_exp_bounds(self, args, kwargs, result) -> None:
        bits = args[1] if len(args) > 1 else kwargs.get("bits", 96)
        if bits > 96:
            self.counts["intervals.exp_bounds.calls_above_96_bits"] += 1

    def _extra_classify_irreducibility_oracle(self, args, kwargs, result) -> None:
        if result.status in ("Irreducible", "Reducible"):
            self.counts["classify.irreducibility_oracle.decided"] += 1

    def _extra_numeric_sample_zero_cells_2d(self, args, kwargs, result) -> None:
        self.counts["numeric.quadtree.retained"] += len(result)

    # -- aggregation ----------------------------------------------------------

    def fold(self) -> None:
        """Fold the recorded spans into calls and self times; clear them."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents, codes = self.span_start, self.span_end, self.span_parent, self.span_name
        tight = self.names.index("numeric.tight_eval")
        quad = self.names.index("numeric.sample_zero_cells_2d")
        for i in range(n - 1, -1, -1):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
                # Boxes evaluated by the quadtree: evaluator calls directly under it.
                if codes[i] == tight and codes[p] == quad:
                    self.counts["numeric.quadtree.boxes"] += 1
            name = self.names[codes[i]]
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del arr[:]

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round metric values with units."""
        out: dict[str, tuple[float, str]] = {}
        out["intervals.Interval.created"] = (self._per(self.counts["intervals.Interval.created"], rounds), "count")
        out["intervals.RatInterval.created"] = (self._per(self.counts["intervals.RatInterval.created"], rounds), "count")
        for name in CALLS:
            out[name + ".calls"] = (self._per(self.calls[name], rounds), "count")
        for name in SELF:
            out[name + ".self_s"] = (self.self_s[name] / rounds, "s")
        out["intervals.exp_bounds.calls_above_96_bits"] = (
            self._per(self.counts["intervals.exp_bounds.calls_above_96_bits"], rounds), "count")
        boxes = self.counts["numeric.quadtree.boxes"]
        out["numeric.quadtree.retained_per_box"] = (
            self.counts["numeric.quadtree.retained"] / boxes if boxes else 0.0, "cells/box")
        oracle = self.calls["classify.irreducibility_oracle"]
        out["classify.irreducibility_oracle.decided_per_call"] = (
            self.counts["classify.irreducibility_oracle.decided"] / oracle if oracle else 0.0, "ratio")
        return out

    @staticmethod
    def _per(total: int, rounds: int) -> int:
        if total % rounds:
            raise RuntimeError("a count differs between identical rounds")
        return total // rounds
