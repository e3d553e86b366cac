"""Span tracing around the public functions of the relmech modules.

The tracer wraps, from outside the package, every public function defined in
``geometry``, ``kinematics``, ``lagrangian``, ``dynamics``, ``hamiltonian``,
``checks`` and ``cli``, and rebinds each name in every relmech module that
holds it, so a call is recorded exactly where the program's own callers make
it.  The callables that factory functions return are wrapped too: ``Connection.K``
from ``connection_from`` and ``HamiltonianModel.grad_x``/``grad_p`` from
``standard_hamiltonian`` and ``mass_shell_scalar``.

A span is (name, start, end, parent span, operation id), kept in flat arrays
in memory and written out once at the end of the run.  Self time is a span's
duration minus the durations of its children; in one thread children never
overlap, so that is the time the children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("geometry", "kinematics", "lagrangian", "dynamics", "hamiltonian", "checks", "cli")

# factory function -> attributes of its result that are callables worth a span
_BUILT_CALLABLES = {
    "dynamics.connection_from": ("K",),
    "hamiltonian.standard_hamiltonian": ("grad_x", "grad_p"),
    "hamiltonian.mass_shell_scalar": ("grad_x", "grad_p"),
}
_BUILT_NAMES = {"K": "dynamics.Connection.K",
                "grad_x": "hamiltonian.grad_x", "grad_p": "hamiltonian.grad_p"}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, op = self._stack, self._op
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrap_factory(self, name: str, fn, attrs):
        span = self.wrap(name, fn)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            obj = span(*args, **kwargs)
            return dataclasses.replace(obj, **{a: self.wrap(_BUILT_NAMES[a], getattr(obj, a))
                                              for a in attrs})

        return build

    @contextmanager
    def installed(self, op_id: int):
        """Trace every relmech call made inside the block as operation ``op_id``."""
        self._op[0] = op_id
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"relmech.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in _BUILT_CALLABLES:
                    wrappers[obj] = self._wrap_factory(name, obj, _BUILT_CALLABLES[name])
                else:
                    wrappers[obj] = self.wrap(name, obj)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "relmech" and not modname.startswith("relmech."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)
            self._op[0] = -1

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32), np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path: Path) -> None:
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            op=op, start=start, end=end)


class SpanStats:
    """Per-name totals over all recorded spans."""

    def __init__(self, tracer: Tracer):
        name, parent, _, start, end = tracer.arrays()
        self.names = tracer.names
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        self.calls = np.bincount(name, minlength=n_names)
        self.inclusive = np.bincount(name, weights=dur, minlength=n_names)
        self.self_time = np.bincount(name, weights=self_time, minlength=n_names)
        self._name, self._parent = name, parent

    def _id(self, name: str):
        return self.names.index(name) if name in self.names else None

    def count(self, name: str) -> int:
        i = self._id(name)
        return int(self.calls[i]) if i is not None else 0

    def total(self, name: str) -> float:
        i = self._id(name)
        return float(self.inclusive[i]) if i is not None else 0.0

    def layer_self(self, layer: str) -> float:
        return float(sum(self.self_time[i] for i, n in enumerate(self.names)
                         if n.split(".", 1)[0] == layer))

    def layer_calls(self, layer: str) -> int:
        return int(sum(self.calls[i] for i, n in enumerate(self.names)
                       if n.split(".", 1)[0] == layer))

    def children_of(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose parent span is a ``parent`` span."""
        ci, pi = self._id(child), self._id(parent)
        if ci is None or pi is None:
            return 0
        rows = (self._name == ci) & (self._parent >= 0)
        return int(np.count_nonzero(self._name[self._parent[rows]] == pi))
