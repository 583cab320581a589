"""Span tracing of the horikawa layers, installed from outside the package.

A ``Tracer`` replaces each layer's public functions, the methods of
``lattice.DivisorClass`` and the codec methods of ``reporting.Report``
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory in flat arrays until
``dump`` writes them out.  A span's self time is its duration minus the
durations of its direct children.

Every module namespace of the package that binds a wrapped function gets
the wrapper, because callers look names up where they imported them
(``cli`` binds ``render_text`` itself).  Fault injection patches the same
module globals, so ``uninstall`` must run after every traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("lattice", "covers", "stable", "catalog", "verify", "faults", "reporting", "cli")

# class -> methods wrapped besides the module-level public functions
_CLASS_METHODS = {
    ("lattice", "DivisorClass"): None,  # every method defined in lattice.py
    ("reporting", "Report"): ("to_json", "from_json", "to_jsonable", "from_jsonable"),
}

# public functions that return a context manager: enter and exit are spanned
_CONTEXT_FACTORIES = {("faults", "injected")}


class _TracedContext:
    __slots__ = ("_enter", "_exit")

    def __init__(self, tracer: "Tracer", name: str, context):
        self._enter = tracer.wrap(name, context.__enter__)
        self._exit = tracer.wrap(name + ".restore", context.__exit__)

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc_info):
        return self._exit(*exc_info)


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def wrap_context(self, name: str, factory):
        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return _TracedContext(self, name, factory(*args, **kwargs))

        return traced

    def reset(self) -> None:
        """Forget the recorded spans; installed wrappers keep recording."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]

    # -- installation ------------------------------------------------------

    def install(self, package: str = "horikawa") -> None:
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == package or name.startswith(package + "."))]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if (layer, attr) in _CONTEXT_FACTORIES:
                    wrapper = self.wrap_context(name, fn)
                else:
                    wrapper = self.wrap(name, fn)
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            self._set(namespace, bound, wrapper)
        for (layer, cls_name), methods in _CLASS_METHODS.items():
            module = modules[LAYERS.index(layer)]
            cls = getattr(module, cls_name)
            for attr, raw in list(vars(cls).items()):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if not inspect.isfunction(fn):
                    continue
                if methods is None:
                    # dataclass-generated methods are compiled from strings
                    if fn.__code__.co_filename != module.__file__ or \
                            (attr.startswith("_") and not attr.startswith("__")):
                        continue
                elif attr not in methods:
                    continue
                wrapper = self.wrap(f"{layer}.{cls_name}.{attr}", fn)
                self._set(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod)
                          else wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                           else vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        result = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                result[p] -= self.end[i] - self.start[i]
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed duration."""
        counts = Counter(self.name_id)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for nid, s, e, own in zip(self.name_id, self.start, self.end, self.self_times()):
            self_s[nid] += own
            total_s[nid] += e - s
        return {name: {"count": counts[i], "self_s": self_s[i], "total_s": total_s[i]}
                for i, name in enumerate(self.names) if counts[i]}

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the four raw columns."""
        columns = (self.name_id, self.parent, self.start, self.end)
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(handle)


def load(path) -> tuple[list[str], tuple[array, array, array, array]]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for _name, code in header["columns"]:
            column = array(code)
            column.fromfile(handle, header["spans"])
            columns.append(column)
    return header["names"], tuple(columns)
