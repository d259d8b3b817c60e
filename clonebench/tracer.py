"""Outside-in span recorder for the clonekit benchmark.

The recorder wraps clonekit's public functions from outside, without edits
to the package.  A function is wrapped at every module binding that holds
it, because the package calls through those bindings: ``feasible`` is
imported by name into analysis, protocol, synthesis and cli, so wrapping
only ``clonekit.machine.feasible`` would miss every internal call.
Validating constructors (classes with ``__post_init__``) are wrapped at the
class, which also catches ``dataclasses.replace``.

Each span stores its name, start, end, parent span and task.  Spans stay in
memory in flat arrays and are written out once, after the run.
"""

from __future__ import annotations

import time
import types
from array import array

import numpy as np

MODULES = ("qlinalg", "states", "machine", "protocol", "synthesis", "analysis", "cli")

# Span error codes: 0 returned, 1 raised ValidationError, 2 raised anything else.
_OK, _REJECTED, _RAISED = 0, 1, 2


class Tracer:
    """Records one span per call of every public clonekit function while installed."""

    def __init__(self, package):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.task_id = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        classes: set[int] = set()
        for module in [package] + [getattr(package, name) for name in MODULES]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not getattr(value, "__module__", "").startswith("clonekit"):
                    continue
                short = value.__module__.rsplit(".", 1)[-1]
                if isinstance(value, types.FunctionType):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value, f"{short}.{value.__qualname__}")
                    self._bindings.append((module, attr, value, wrappers[id(value)]))
                elif isinstance(value, type) and "__post_init__" in vars(value) and id(value) not in classes:
                    classes.add(id(value))
                    init = vars(value)["__init__"]
                    self._bindings.append((value, "__init__", init, self._wrap(init, f"{short}.{value.__name__}")))

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        rec = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.task.append(rec.task_id)
            rec.start.append(0)
            rec.end.append(0)
            rec.error.append(_OK)
            rec._stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec.error[idx] = _REJECTED if type(exc).__name__ == "ValidationError" else _RAISED
                raise
            finally:
                t1 = clock()
                rec._stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with each span's self time in ns.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children nest inside parents.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "parent": parent,
            "task": np.frombuffer(self.task, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
            "dur": dur,
            "self": dur - child,
        }

    def nearest_ancestor(self, span_name: str) -> np.ndarray:
        """Per span, the index of the closest enclosing span called ``span_name`` (or -1)."""
        target = self.names.index(span_name)
        out = np.full(len(self.name), -1, dtype=np.int64)
        for i, (nid, par) in enumerate(zip(self.name, self.parent)):
            if nid == target:
                out[i] = i
            elif par >= 0:
                out[i] = out[par]
        return out

    def save(self, path: str) -> None:
        """Write every span to an .npz file, with the name table."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: v for k, v in spans.items() if k not in ("dur", "self")})
