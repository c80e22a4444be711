"""In-memory span tracer for the cotail modules, installed from outside them.

``Tracer.install`` wraps every public module-level function of the cotail
modules.  A name imported with ``from .core import build_margin_index`` is a
separate binding in each importing module, so the wrapper replaces the
function at every module attribute that holds it, not only where it is
defined.  Each call records one span: function, start, end, parent span,
item id and whether it raised.  Spans stay in lists until ``save`` writes
them out once, at the end of a pass.

The tracer keeps one call stack, so it must only trace single-threaded code;
traced passes run ``simulate`` with one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("core", "empirical", "tail_copula", "covar_coes", "models", "oracle", "harness", "data_io", "cli")


class Tracer:
    """Wraps cotail's public functions and records one span per call.

    ``item_root`` names the function ("module.function") whose every call
    starts a new item (a replication, a window, a cell); spans carry the id
    of the item that was current when they started.
    """

    def __init__(self, item_root: str):
        self.item_root = item_root
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        self.item = -1
        self._fn: list[int] = []
        self._parent: list[int] = []
        self._item: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._error: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"cotail.{name}") for name in MODULES}
        holders = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "cotail"]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, bound, wrapper)
                            self._patched.append((holder, bound, fn))
        if self.item_root not in self.names:
            raise ValueError(f"item root {self.item_root!r} is not a traced function")
        return self

    def uninstall(self) -> None:
        for holder, bound, fn in reversed(self._patched):
            setattr(holder, bound, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        fn_id = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        starts_item = name == self.item_root
        fns, parents, items = self._fn, self._parent, self._item
        starts, ends, errors, stack = self._start, self._end, self._error, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_item:
                tracer.item += 1
            index = len(fns)
            fns.append(fn_id)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0)
            errors.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "fn": np.array(self._fn, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "item": np.array(self._item, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
            "error": np.array(self._error, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())


class SpanSummary:
    """Per-function totals over the spans of one or more traced passes.

    Self time is a span's duration minus the durations of its child spans;
    spans of one thread nest, so the children never overlap.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations_ns: dict[str, list[np.ndarray]] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        self.child_errors: dict[tuple[str, str], int] = {}
        self.root_ns = 0
        self.passes: list[dict[str, int]] = []

    def add(self, spans) -> None:
        names = [str(name) for name in spans["names"]]
        fn, parent, error = spans["fn"], spans["parent"], spans["error"]
        duration = spans["end_ns"] - spans["start_ns"]
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        self_ns = duration - child_ns
        self.root_ns += int(duration[~has_parent].sum())
        calls = np.bincount(fn, minlength=len(names))
        selfs = np.bincount(fn, weights=self_ns, minlength=len(names))
        pass_calls = {}
        for fn_id, name in enumerate(names):
            if not calls[fn_id]:
                continue
            pass_calls[name] = int(calls[fn_id])
            self.calls[name] = self.calls.get(name, 0) + int(calls[fn_id])
            self.self_ns[name] = self.self_ns.get(name, 0) + int(selfs[fn_id])
            self.durations_ns.setdefault(name, []).append(duration[fn == fn_id])
        self.passes.append(pass_calls)
        children = np.flatnonzero(has_parent)
        pairs = fn[parent[children]].astype(np.int64) * len(names) + fn[children]
        for tally, selected in ((self.child_calls, pairs), (self.child_errors, pairs[error[children] == 1])):
            for pair, count in zip(*np.unique(selected, return_counts=True)):
                key = (names[pair // len(names)], names[pair % len(names)])
                tally[key] = tally.get(key, 0) + int(count)

    def durations_ms(self, name: str) -> np.ndarray:
        parts = self.durations_ns.get(name)
        if not parts:
            return np.empty(0)
        return np.concatenate(parts) / 1e6

    def self_share(self, name: str) -> float:
        return self.self_ns.get(name, 0) / self.root_ns if self.root_ns else 0.0
