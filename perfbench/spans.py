"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each learnedcache module
from the outside: while a recording is active, every call through those names
records one span (name, start, end, parent span, op id, item count) into
compact arrays. Nothing in the library changes; the wrappers are installed for
the duration of a recording and removed afterwards, so untraced ops run the
library exactly as shipped.

Functions imported into another module by name (``from .features import
build_dataset``) are rebound in every learnedcache module that holds them, and
in the caller's extra namespaces, so calls through any of those names are
traced.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

LAYERS = ("trace", "features", "discretizer", "ranker", "modelpack", "simcache", "evalstats", "cli")

# before(args) -> ctx runs ahead of the span; after(tracer, i, args, kwargs,
# result, ctx) runs once it is closed and may rename span i or set its items
Hook = tuple[Callable | None, Callable | None]


class Tracer:
    def __init__(self, package: types.ModuleType, hooks: dict[str, Hook] | None = None,
                 extra: tuple[types.ModuleType, ...] = ()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.items = array("q")
        self._stack = [-1]
        self._op = -1
        self.counts: dict[str, int] = {}
        self.state: dict = {}  # free for hooks to keep references in
        self._patches = self._build_patches(package, hooks or {}, extra)

    def __len__(self) -> int:
        return len(self.name)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def rename(self, i: int, span: str) -> None:
        self.name[i] = self.intern(span)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.items.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, span_name: str, hook: Hook) -> Callable:
        nid = self.intern(span_name)
        before, after = hook
        name, parent, op, items, start, end = (
            self.name, self.parent, self.op, self.items, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        # _open/_close inlined: this runs once per traced library call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = before(args) if before is not None else None
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer._op)
            items.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(tracer, i, args, kwargs, result, ctx)
            return result

        return traced

    def _build_patches(self, package: types.ModuleType, hooks: dict[str, Hook],
                       extra: tuple[types.ModuleType, ...]) -> list:
        mods = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        patches = []
        wrapped: dict[int, Callable] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    span = f"{layer}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, span, hooks.get(span, (None, None)))
                elif isinstance(obj, type):
                    for mattr, meth in vars(obj).items():
                        if not mattr.startswith("_") and isinstance(meth, types.FunctionType):
                            span = f"{layer}.{obj.__name__}.{mattr}"
                            hook = hooks.get(span, (None, None))
                            patches.append((obj, mattr, meth, self._wrap(meth, span, hook)))
        for mod in (package, *mods.values(), *extra):
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    patches.append((mod, attr, obj, wrapped[id(obj)]))
        return patches

    @contextmanager
    def recording(self, op_id: int, root: str):
        """Trace library calls made inside the block, tagged with op_id."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        self._op = op_id
        i = self._open(self.intern(root))
        try:
            yield
        finally:
            self._close(i)
            self._op = -1
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def save(self, path: str) -> None:
        t = SpanTable(self)
        np.savez_compressed(
            path, names=np.array(self.names), name=t.name, start=t.start, end=t.end,
            parent=t.parent, op=t.op, items=t.items,
        )


class SpanTable:
    """Array view of the recorded spans with the reductions the metrics use."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.int64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int32).copy()
        self.items = np.frombuffer(tracer.items, dtype=np.int64).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_ns = self.dur - child

    def mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span)

    def durations_ns(self, span: str, items: int | None = None) -> np.ndarray:
        m = self.mask(span)
        if items is not None:
            m &= self.items == items
        return self.dur[m]

    def ns_per_item(self, span: str) -> float:
        m = self.mask(span)
        n = int(self.items[m].sum())
        return float(self.dur[m].sum()) / n if n else 0.0

    def per_op(self, values: np.ndarray, m: np.ndarray, ops: list[int]) -> np.ndarray:
        """Sum of values[m] for each op id in ops (ascending)."""
        sel = m & np.isin(self.op, ops)
        index = np.searchsorted(np.asarray(ops), self.op[sel])
        return np.bincount(index, weights=values[sel], minlength=len(ops))

    def layer_self_ns(self, ops: list[int]) -> dict[str, float]:
        """Total self time per layer over the given ops."""
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        in_ops = np.isin(self.op, ops)
        span_layer = layer_of[self.name[in_ops]]
        self_ns = self.self_ns[in_ops]
        return {layer: float(self_ns[span_layer == layer].sum()) for layer in LAYERS}
