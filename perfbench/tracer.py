"""Span tracing from outside the library.

`Tracer.wrap()` makes a timing wrapper for every public module-level
function of each layer; `Tracer.patch()` puts it wherever another layer holds
a reference to the function (and, for modules that others reach as
`module.name`, on the module itself). Calls
inside one module are therefore not spans: a span marks a layer boundary.
Generator functions are drained inside their span, so the work of iterating
is charged to the layer that produces the items.

Spans are kept in memory as (name, parent, start, end) arrays and written out
with `dump()`. A span's self time is its duration minus the durations of its
child spans; a layer's self time sums the self times of its spans.
"""
from __future__ import annotations

import gc
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "setcomp", "preposet", "cones", "boolfun", "plates", "sections",
    "points", "opens", "axioms", "_kernels", "jsonio", "cli",
)
BENCH = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.layers = [BENCH] + list(LAYERS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(int)
        self._wrappers: dict[int, object] = {}
        self._owner: dict[int, str] = {}
        self._mods: dict[str, object] = {}
        self._patched: list[tuple] = []
        self._gc_t0 = 0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(self.layers.index(layer))
        return len(self.names) - 1

    def span(self, fn, name: str, layer: str, after=None, drain=False):
        """Wrap fn so each call records one span. `after(args, result, dt)`
        updates counters; `drain` materializes a generator's items."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter_ns
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
            if after is not None:
                after(args, result, t1 - starts[idx])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------------

    def wrap(self, hooks=None):
        """Make a wrapper for every public module-level function of each
        layer. hooks maps 'layer.function' to an `after` callback."""
        hooks = hooks or {}
        self._mods = {name: importlib.import_module(f"permutokit.{name}") for name in LAYERS}
        for layer, mod in self._mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                drain = inspect.isgeneratorfunction(inspect.unwrap(obj))
                self._wrappers[id(obj)] = self.span(obj, qual, layer, hooks.get(qual), drain)
                self._owner[id(obj)] = layer

    def patch(self):
        """Put the wrappers at the layer boundaries and start counting
        garbage collections."""
        mods = self._mods
        reached_as_module = {
            layer for layer, mod in mods.items()
            if any(v is mod for other in mods.values() if other is not mod
                   for v in vars(other).values())
        }
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                w = self._wrappers.get(id(obj))
                if w is None:
                    continue
                if self._owner[id(obj)] != layer or layer in reached_as_module:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def entry(self, fn):
        """The traced form of a library function the benchmark calls."""
        return self._wrappers.get(id(fn), fn)

    def _on_gc(self, phase, info):
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_t0 = now
        else:
            self.counters["python.gc_s"] += (now - self._gc_t0) / 1e9
            self.counters["python.gc_collections"] += 1

    # -- results ---------------------------------------------------------------

    def layer_stats(self):
        """Per-layer self seconds and call counts, plus the root total."""
        n = len(self.starts)
        dur = (np.frombuffer(self.ends, dtype=np.int64, count=n)
               - np.frombuffer(self.starts, dtype=np.int64, count=n)).astype(np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=n)
        nids = np.frombuffer(self.name_ids, dtype=np.int32, count=n)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[nids] if n else np.zeros(0, np.int64)
        k = len(self.layers)
        self_by_layer = np.bincount(layer, weights=self_ns, minlength=k) / 1e9
        calls_by_layer = np.bincount(layer, minlength=k)
        stats = {}
        for i, name in enumerate(self.layers):
            stats[f"{name}.self_s"] = float(self_by_layer[i])
            stats[f"{name}.calls"] = int(calls_by_layer[i])
        stats["root_s"] = float(dur[~has_parent].sum() / 1e9)
        stats["spans"] = n
        return stats

    def dump(self, path):
        n = len(self.starts)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            layer_of=np.asarray(self.layer_of, dtype=np.int32),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parents, dtype=np.int32, count=n),
            start_ns=np.frombuffer(self.starts, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.ends, dtype=np.int64, count=n),
        )
