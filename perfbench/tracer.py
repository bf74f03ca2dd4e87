"""Outside-in tracer: times library layers without editing the library.

The tracer rebinds a function wherever a module of the traced package binds
it (the package's modules import each other with ``from .x import y``, so
one function can sit in several namespaces) and replaces methods on their
classes.  Every call of a timed wrapper records a span; when the call
returns an iterator, each ``next()`` records one more span of the same
layer, so turning a list-returning function into a generator does not move
time between layers.  Spans are kept in memory as parallel arrays with a
parent link, and ``layer_times`` derives each layer's total and self time
(span minus the spans of its children).  ``uninstall`` puts every original
object back.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterator
from time import perf_counter


class _TimedIterator:
    __slots__ = ("_tracer", "_layer", "_it", "_items")

    def __init__(self, tracer: "Tracer", layer: int, it):
        self._tracer = tracer
        self._layer = layer
        self._it = it
        self._items = tracer.layers[layer] + ":items"

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = tracer._open(self._layer)
        try:
            item = next(self._it)
        finally:
            tracer._close(span)
        tracer.counts[self._items] += 1
        return item


class Tracer:
    """Span recorder plus the bookkeeping to patch and restore a package."""

    def __init__(self, package: str):
        self.package = package
        self.layers: list[str] = []
        self.counts: Counter = Counter()
        self._layer_ids: dict[str, int] = {}
        self._span_layer = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def _open(self, layer: int) -> int:
        i = len(self._span_start)
        self._span_layer.append(layer)
        self._span_parent.append(self._stack[-1])
        self._span_end.append(0.0)
        self._stack.append(i)
        self._span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._span_end[i] = perf_counter()
        self._stack.pop()

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per layer: (total seconds, self seconds).

        The total counts only spans with no ancestor of the same layer, so
        recursion is not counted twice; self time is each span's duration
        minus the durations of its direct children.
        """
        n = self.span_count
        layer, parent = self._span_layer, self._span_parent
        dur = [e - s for s, e in zip(self._span_start, self._span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = [0.0] * len(self.layers)
        own = [0.0] * len(self.layers)
        for i in range(n):
            lid = layer[i]
            own[lid] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and layer[p] != lid:
                p = parent[p]
            if p < 0:
                total[lid] += dur[i]
        return {name: (total[i], own[i]) for i, name in enumerate(self.layers)}

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, layer: str, after=None):
        """Wrap fn so that each call is a span of `layer` and is counted.

        `after(args, kwargs, result)` runs once the call has returned; an
        iterator result is handed back wrapped so each step is timed too.
        """
        lid = self._layer_id(layer)
        calls = layer + ":calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            span = self._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            if isinstance(result, Iterator):
                return _TimedIterator(self, lid, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        """Wrap fn so that calls are counted but not timed."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _modules(self):
        pkg = self.package
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == pkg or name.startswith(pkg + "."))
        ]

    def patch_function(self, original, wrapper) -> int:
        """Rebind `original` to `wrapper` in every module of the package."""
        hits = 0
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is bound nowhere in {self.package}")
        return hits

    def patch_method(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
