"""Span tracer for the per-layer run.

Wrappers are installed from outside the package: every public function
of each layer module (plus the named emit helpers of ``cli``) and the
LAPACK entry points ``numpy.linalg.eigh``/``eigvalsh``/``svd``. A
wrapper replaces the original in *every* namespace that bound it,
including ``from .x import y`` copies and module-level tables such as
``families.FAMILIES``; :meth:`Tracer.install` then scans again and
refuses to run if any original is still reachable, so a call cannot
bypass the tracer silently.

Spans are kept in memory as parallel arrays ``(name, start, end,
parent, request, work)``; ``request`` is the index of the root span, so
all spans of one ``cli.main`` call share it, and ``work`` is the
operation count of a kernel span (0 elsewhere). A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

#: package modules that do work, in call-graph order; ``errors`` does none
LAYERS = ("cli", "io", "families", "channel", "entcap", "gaussian", "linalg")
#: private helpers traced under their own span names
PRIVATE_SPANS = {"cli": ("_emit_report", "_emit_table")}
#: spans whose time is reported as ``cli.emit``
EMIT_SPANS = tuple(f"cli.{name}" for name in PRIVATE_SPANS["cli"])
#: LAPACK-backed decompositions counted as kernel calls
KERNELS = ("eigh", "eigvalsh", "svd")
KERNEL_LAYER = "lapack"


def kernel_n3(a) -> int:
    """Operation count of one decomposition: batch * m * n * min(m, n).

    For a square side-n matrix this is n^3; a stacked ``(P, n, n)``
    input counts as P such matrices, so batching keeps the count.
    """
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    batch = 1
    for k in shape[:-2]:
        batch *= k
    return batch * m * n * min(m, n)


class Tracer:
    """Installs span-recording wrappers into a package and numpy.linalg."""

    def __init__(self, package_name: str = "negacap"):
        self.package = sys.modules[package_name]
        self.modules = {layer: sys.modules[f"{package_name}.{layer}"] for layer in LAYERS}
        self.names: List[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.work = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, object, object]] = []
        # id(original) -> (original, wrapper)
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, mod in self.modules.items():
            extra = PRIVATE_SPANS.get(layer, ())
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    self._add(f"{layer}.{attr}", value, None)
        for kname in KERNELS:
            self._add(f"{KERNEL_LAYER}.{kname}", getattr(np.linalg, kname), kernel_n3)

    # -- wrappers -----------------------------------------------------

    def _add(self, name: str, fn: Callable, work_of):
        self._wrappers[id(fn)] = (fn, self._wrap(name, fn, work_of))

    def _wrap(self, name: str, fn: Callable, work_of) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent_arr, request, work, stack = self.parent, self.request, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            parent = stack[-1] if stack else -1
            name_id.append(nid)
            parent_arr.append(parent)
            request.append(request[parent] if parent >= 0 else idx)
            work.append(work_of(args[0]) if work_of is not None else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------

    def _namespaces(self) -> List[dict]:
        return [vars(m) for m in self.modules.values()] + [
            vars(self.package),
            vars(np.linalg),
        ]

    def _wrapper_for(self, value):
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def _swap(self, container, key, value) -> bool:
        wrapper = self._wrapper_for(value)
        if wrapper is None:
            return False
        self._patches.append((container, key, value))
        container[key] = wrapper
        return True

    def install(self):
        """Bind every wrapper wherever its original is reachable."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                if self._swap(ns, key, value):
                    continue
                if isinstance(value, dict) and value is not ns:
                    self._install_table(value)
        missed = self.unwrapped()
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer cannot reach: {', '.join(sorted(missed))}")

    def _install_table(self, table: dict):
        for key, value in list(table.items()):
            if self._swap(table, key, value):
                continue
            if isinstance(value, tuple) and any(
                self._wrapper_for(v) is not None for v in value
            ):
                self._patches.append((table, key, value))
                table[key] = tuple(self._wrapper_for(v) or v for v in value)

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def unwrapped(self) -> List[str]:
        """Names of originals still reachable from a namespace or its tables."""
        found = []

        def visit(value, where, depth):
            if self._wrapper_for(value) is not None:
                found.append(where)
            elif depth and isinstance(value, (dict, tuple, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for k, v in items:
                    visit(v, f"{where}[{k!r}]", depth - 1)

        for ns in self._namespaces():
            for key, value in ns.items():
                if value is not ns:
                    visit(value, f"{ns.get('__name__', '?')}.{key}", 3)
        return found

    # -- results ------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def span_count(self) -> int:
        return len(self.name_id)


def self_times(start, end, parent) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def per_name(names: List[str], name_id, self_s) -> Dict[str, Tuple[int, float]]:
    """``{span name: (calls, total self seconds)}``."""
    name_id = np.asarray(name_id)
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=self_s, minlength=len(names))
    return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(names) if calls[i]}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def by_layer(
    stats: Dict[str, Tuple[int, float]], layers: Iterable[str]
) -> Dict[str, Tuple[int, float]]:
    out = {layer: (0, 0.0) for layer in layers}
    for name, (calls, self_s) in stats.items():
        layer = layer_of(name)
        c, s = out.get(layer, (0, 0.0))
        out[layer] = (c + calls, s + self_s)
    return out
