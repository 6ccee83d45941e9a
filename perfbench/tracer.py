"""Tracing of the package's public functions from outside the package.

:class:`Tracer.install` replaces each traced function with a wrapper in
every ``branetile`` namespace that binds it, so calls made through
``from .x import y`` bindings are seen as well as calls through module
attributes.  Each call becomes a span (name, start, end, parent span,
op id, raised) kept in memory; :meth:`Tracer.finish` writes the spans
out and :func:`summarize` derives per-function calls and self time.
A function's self time is its span's duration minus the durations of
its direct child spans.

The traced set is the public API (``branetile.__all__``), plus the two
exact kernels of ``rational`` and ``cli.main``.  Arithmetic helpers
below that level are left alone: they run millions of times per op,
and wrapping them would measure the wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from math import comb
from pathlib import Path

EXTRA = ("branetile.rational.dual_cone",
         "branetile.rational.strict_feasible_point",
         "branetile.cli.main")

OP = "op"  # name of the root span the benchmark opens around each op


def traced_functions() -> dict:
    """Qualified name (``module.function``) -> function, for every
    traced function."""
    bt = importlib.import_module("branetile")
    found = {}
    for name in bt.__all__:
        fn = getattr(bt, name)
        if inspect.isfunction(fn):
            found[fn.__module__.rsplit(".", 1)[-1] + "." + name] = fn
    for path in EXTRA:
        module, name = path.rsplit(".", 1)
        fn = getattr(importlib.import_module(module), name)
        found[module.rsplit(".", 1)[-1] + "." + name] = fn
    return found


def _count_dual_cone(counts: dict, args: tuple, result) -> None:
    # dual_cone tries every (d-1)-subset of its g distinct nonzero
    # generators, d being the rank left after the returned lineality.
    from branetile.rational import integerize
    gens, dim = args[0], args[1]
    g = len({integerize(v) for v in gens if any(x != 0 for x in v)})
    rays, lineality = result
    d = dim - len(lineality)
    counts["rational.dual_cone.candidates"] += comb(g, d - 1) if d else 0
    counts["rational.dual_cone.rays"] += len(rays)


def _count_len(key: str):
    def count(counts: dict, args: tuple, result) -> None:
        counts[key] += len(result)
    return count


COUNTERS = {
    "matchings.matching_arrow_sets": _count_len("matchings.found"),
    "stability.chamber_decomposition": _count_len("stability.chambers"),
    "rational.dual_cone": _count_dual_cone,
}
COUNT_NAMES = ("matchings.found", "stability.chambers",
               "rational.dual_cone.candidates", "rational.dual_cone.rays")


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent, op, raised)
        self.counts = {name: 0 for name in COUNT_NAMES}
        self._stack: list = []
        self._op = -1
        self._replaced: list = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, raised)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a branetile module binds
        it.  Import every module to be traced before calling this."""
        wrappers = {id(fn): self.wrap(name, fn)
                    for name, fn in traced_functions().items()}
        for modname, module in list(sys.modules.items()):
            if modname != "branetile" and not modname.startswith("branetile."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def op(self, op_id: int):
        """Context manager for the root span of one op."""
        return _OpSpan(self, op_id)

    def finish(self, path: Path) -> dict:
        """Write the spans to ``path`` (JSON) and return their summary."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "raised"],
                       "spans": self.spans, "counts": self.counts}, out)
        summary = summarize(self.spans)
        summary["counts"] = dict(self.counts)
        return summary


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = t.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        end = t.clock()
        t._stack.pop()
        t.spans[self.index] = (OP, self.start, end, -1, self.op_id,
                               exc_type is not None)
        t._op = -1
        return False


def summarize(spans) -> dict:
    """Per-name ``calls``, ``self_s`` and ``raised`` from a span list.

    ``parent`` is an index into the same list (-1 for a root).  Spans
    nest, so the part of a span covered by its children is the sum of
    their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op, _raised in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for (name, start, end, _parent, _op, raised), child in zip(spans, covered):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child
        entry["raised"] += bool(raised)
    return {"functions": out}
