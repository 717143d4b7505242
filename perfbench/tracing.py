"""Span tracing around the calls into each frgeo layer.

The layers are the program's modules (``hpsd``, ``measures``, ``bures``,
``fisher_rao``, ``entropy_flow``, ``schrodinger``, ``io``, ``cli``) plus the
kernel layer ``linalg`` (``numpy.linalg.eigh`` / ``eigvalsh``) underneath
them. ``Tracer.install`` replaces every public function of a layer, in every
``frgeo`` namespace that binds it, with a wrapper that records one span:
name, start, end, parent span and the op it belongs to. Spans are kept in
flat integer arrays in memory and written out by ``Tracer.save`` when the run
ends. Nothing in ``src/`` is modified; ``Tracer.uninstall`` restores the
original bindings.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("hpsd", "measures", "bures", "fisher_rao", "entropy_flow", "schrodinger", "io", "cli")
KERNEL = "linalg"
BENCH = "bench"
# io functions whose first argument is a file the call reads or writes.
IO_READS = {"io.load_measure", "io.load_reference", "io.load_measure_path"}
IO_WRITES = {"io.save_measure", "io.save_reference", "io.save_measure_path", "io.write_csv"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        # Matrices decomposed (linalg spans) or bytes moved (io spans).
        self.amount = array("q")
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.op_id.append(self._op)
        self.amount.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, op: int, kind: str):
        """Root span ``bench.<kind>`` for op ``op``; layer spans are only
        recorded inside a root."""
        self._op = op
        idx = self._open(self._name(f"{BENCH}.{kind}"))
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, fn, name: str, measure=None):
        nid = self._name(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if measure is not None:
                    tracer.amount[idx] = measure(args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, namespaces=()) -> None:
        """Wrap the layers' public functions in every ``frgeo`` module and in
        ``namespaces`` (the benchmark's own modules that import them)."""
        layer_modules = {layer: sys.modules[f"frgeo.{layer}"] for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, mod in layer_modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                measure = None
                if name in IO_READS or name in IO_WRITES:
                    measure = _file_size
                replacements[id(obj)] = self._wrap(obj, name, measure)
        frgeo_modules = [m for key, m in sys.modules.items() if key == "frgeo" or key.startswith("frgeo.")]
        for mod in frgeo_modules + list(namespaces):
            for attr, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, new)
        for attr in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._wrap(orig, f"{KERNEL}.{attr}", _matrix_count))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
            "amount": np.frombuffer(self.amount, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _file_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _matrix_count(args, kwargs) -> int:
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Derived views of a tracer's spans: durations, self times, layers."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.op_id = a["op_id"]
        self.parent = a["parent"]
        self.amount = a["amount"]
        self.dur_ns = a["end_ns"] - a["start_ns"]
        child_ns = np.zeros_like(self.dur_ns)
        has_parent = self.parent >= 0
        np.add.at(child_ns, self.parent[has_parent], self.dur_ns[has_parent])
        self.self_ns = self.dur_ns - child_ns
        self.layers = sorted({layer_of(n) for n in self.names})
        name_layer = np.array([self.layers.index(layer_of(n)) for n in self.names], dtype=np.int64)
        self.layer_id = name_layer[self.name_id]
        # The root kind of each span: follow parents up to the bench root.
        root = np.arange(len(self.parent))
        while True:
            up = self.parent[root]
            moved = up >= 0
            if not moved.any():
                break
            root = np.where(moved, up, root)
        self.root = root

    def own_layer_ns(self, layer: str) -> np.ndarray:
        """Span durations minus the time their descendants spent in other
        layers, for the spans of ``layer`` (other spans keep ``dur_ns``)."""
        own = self.dur_ns.copy()
        if layer not in self.layers:
            return own
        lid = self.layers.index(layer)
        other = np.zeros_like(self.dur_ns)
        has_parent = self.parent >= 0
        under = np.zeros(len(self.parent), dtype=bool)
        under[has_parent] = self.layer_id[self.parent[has_parent]] == lid
        # Children open after their parents, so a reverse sweep sees every
        # child before its parent.
        for k in np.nonzero(under)[0][::-1]:
            p = self.parent[k]
            other[p] += self.dur_ns[k] if self.layer_id[k] != lid else other[k]
        mine = self.layer_id == lid
        own[mine] -= other[mine]
        return own

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def in_ops(self) -> np.ndarray:
        """Spans under a ``bench.op`` root (the timed op, not its check)."""
        if "bench.op" not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id[self.root] == self.names.index("bench.op")

    def per_op(self, values: np.ndarray, mask: np.ndarray, n_ops: int) -> np.ndarray:
        """Sum of ``values`` over the spans in ``mask``, for each op id in
        ``range(n_ops)``."""
        return np.bincount(self.op_id[mask], weights=values[mask].astype(float), minlength=n_ops)[:n_ops]
