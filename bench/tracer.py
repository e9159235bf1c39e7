"""Span tracer for the qbattery package, installed from outside the package.

`Tracer.install` wraps every public module-level function of the traced
modules, plus the `DensityMatrix` and `HermitianMatrix` constructors, in a
wrapper that records one span per call.  The package imports names with
`from .x import name`, so each importing module holds its own reference; the
tracer rebinds every such copy (module globals and the values of dicts held in
module globals, such as the CLI's mode table) and then verifies that no
reference to an unwrapped original is left, because a missed rebinding would
silently charge that time to the caller.

Spans live in flat in-memory arrays (name index, parent id, start, end) and
are written out once, at the end.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

MODULES = ("linalg", "dynamics", "free_energy", "audit", "config", "jsonio", "cli")
CONSTRUCTORS = (("dynamics", "DensityMatrix"), ("linalg", "HermitianMatrix"))
PACKAGE = "qbattery"


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == mod.__name__:
                out.append((f"{short}.{attr}", mod, attr, value))
    for short, cls_name in CONSTRUCTORS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
        out.append((f"{short}.{cls_name}", cls, "__init__", cls.__dict__["__init__"]))
    return out


class Tracer:
    """Records nested call spans of the traced package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("H")
        self.parents: array = array("q")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for span_name, owner, attr, original in _targets():
            wrapper = self._wrap(span_name, original)
            wrapped[id(original)] = (original, wrapper)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped and wrapped[id(item)][0] is item:
                            self._saved.append((value, key, item))
                            value[key] = wrapped[id(item)][1]
        self._verify(modules, {key: pair[0] for key, pair in wrapped.items()})

    @staticmethod
    def _verify(modules, originals) -> None:
        for mod in modules:
            for attr, value in vars(mod).items():
                items = [value]
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, (list, tuple)):
                    items = list(value)
                for item in items:
                    if id(item) in originals and originals[id(item)] is item:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} still holds untraced {item.__qualname__}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) seconds and self seconds."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_ids[i]]]
            dur = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV: id, parent id, name, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")
