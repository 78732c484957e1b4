"""Run-time instrumentation of the permres modules for the traced run.

Nothing under src/ knows about this file. `install_spans` wraps every public
function and method of each layer in a span recorder and rebinds the wrapper
under every name that refers to the original, because the modules import
one another's functions by name (structure holds its own reference to
stabchain.normal_closure, search to structure.composition_factors, and so
on). Methods are patched on their class, which every caller shares.

Two kinds of code are not wrapped as spans:

- the element-level value classes: Perm in `perm` and everything in `fq`.
  They run millions of times per workload, and a span on each would swamp
  the layers above; their cost lands in the calling layer's self time.
  `install_counters` counts Perm compositions and inversions instead, in a
  separate pass, so that the per-call cost of counting inflates no self time.
- generator functions, whose call returns before any work is done.

Spans are recorded where a call crosses into a layer (see `Tracer`), kept
in memory as parallel arrays (name, parent, start, end) and written out by
`Tracer.dump`. A span's self time is its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

# permres modules in dependency order; each one is a layer named after it.
LAYERS = ("perm", "stabchain", "structure", "bounds", "search",
          "classical", "constructions", "manifest", "cli")

# Value classes whose methods are element-level kernel calls (see above).
KERNEL_CLASSES = {"perm": {"Perm"}}

# Constructors that do real work, so they get a span of their own.
CONSTRUCTORS = {("stabchain", "StabilizerChain")}


def _modules():
    return [importlib.import_module(f"permres.{name}") for name in LAYERS]


class Tracer:
    """Span store, call counts and result counters for one traced process.

    Every call of a wrapped function is counted. A span is recorded only
    where a call crosses into a layer from outside it (from another layer
    or from code that is not wrapped); calls within one layer are counted
    but not timed separately, so a span covers the work its layer does on
    behalf of the caller.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls = array("q")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()
        self.open_spans = [-1]
        self.open_layers: list[str | None] = [None]

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        self.calls.append(0)
        calls, span_name, span_parent = self.calls, self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_spans, open_layers = self.open_spans, self.open_layers
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if open_layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(span_start)
                span_name.append(nid)
                span_parent.append(open_spans[-1])
                span_end.append(0)
                open_spans.append(idx)
                open_layers.append(layer)
                span_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = clock()
                    open_spans.pop()
                    open_layers.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def aggregate(self) -> dict:
        """Per wrapped name: calls, spans recorded, and self seconds."""
        n = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        spans: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            nid = self.span_name[i]
            spans[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i]
        return {name: {"calls": self.calls[nid], "spans": spans[nid],
                       "self_s": self_ns[nid] / 1e9}
                for nid, name in enumerate(self.names) if self.calls[nid]}

    def dump(self, stem: Path) -> None:
        """Write the raw spans (int32 name and parent, int64 start and end
        in perf_counter nanoseconds) and the name table next to them."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        stem.with_suffix(".names.json").write_text(
            json.dumps({"count": len(self.span_start), "names": self.names}))


# results whose field is summed into a counter: span -> (counter, field)
RESULT_COUNTERS = {"search.base_size_exact": ("search.base_nodes", "nodes"),
                   "search.stabilizer_scan": ("search.scan_classes", "classes")}


def _result_counter(counts: Counter, key: str, field: str):
    def hook(result):
        counts[key] += getattr(result, field)
    return hook


def _rebind(modules, replaced: dict) -> None:
    """Point every module-level name that refers to a replaced function at
    its wrapper."""
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if callable(obj) and id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def install_spans(tracer: Tracer) -> None:
    """Wrap the public surface of every layer."""
    modules = _modules()
    replaced: dict[int, object] = {}
    for mod, layer in zip(modules, LAYERS):
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if inspect.isgeneratorfunction(obj):
                    continue
                span = f"{layer}.{name}"
                hook = (_result_counter(tracer.counts, *RESULT_COUNTERS[span])
                        if span in RESULT_COUNTERS else None)
                replaced[id(obj)] = tracer.wrap(span, obj, hook)
            elif inspect.isclass(obj) and name not in KERNEL_CLASSES.get(layer, ()):
                _wrap_class(tracer, layer, obj)
    _rebind(modules, replaced)


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        span = f"{layer}.{cls.__name__}.{attr}"
        if attr == "__init__" and (layer, cls.__name__) in CONSTRUCTORS:
            setattr(cls, attr, tracer.wrap(f"{layer}.{cls.__name__}", val))
        elif attr.startswith("_"):
            continue
        elif isinstance(val, (classmethod, staticmethod)):
            if not inspect.isgeneratorfunction(val.__func__):
                setattr(cls, attr, type(val)(tracer.wrap(span, val.__func__)))
        elif inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
            setattr(cls, attr, tracer.wrap(span, val))


def install_counters(counts: Counter) -> None:
    """Count Perm compositions and inversions, and nothing else."""
    from permres.perm import Perm

    mul, inv = Perm.__mul__, Perm.inv

    def counted_mul(self, other):
        counts["perm.compose_calls"] += 1
        return mul(self, other)

    def counted_inv(self):
        counts["perm.inv_calls"] += 1
        return inv(self)

    Perm.__mul__ = counted_mul
    Perm.inv = counted_inv
