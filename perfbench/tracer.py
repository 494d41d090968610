"""Spans around pstab's public functions, recorded from outside the package.

Modules bind names with ``from .exactmat import det``, so wrapping a
function in its own module alone would miss most calls.  :meth:`install`
replaces every binding of each traced function in every loaded ``pstab``
module, taking modules from ``sys.modules`` (the package attribute
``pstab.compound`` is the function, not the module).  :meth:`uninstall`
puts the originals back.

A span is (function, start, end, parent span, operation).  Spans are kept
in flat arrays while the run goes and written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("exactmat", "compound", "classify", "nests", "stabilize", "spectra", "cli")

# Per-entry helpers, called once for every matrix entry or index set
# handled; their cost stays in the self time of whatever calls them.
UNTRACED = {
    "exactmat": {"as_rational", "check_index_set", "index_sets"},
    "cli": {"entry_str", "frac_str"},
}


class Tracer:
    def __init__(self):
        self.functions = []  # "layer.name" per function id
        self.start = array("d")
        self.end = array("d")
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self._bindings = []  # (module, attribute, original)
        self._wrappers = {}  # original function -> wrapper

    def _wrap(self, fid, func):
        start, end, fn, parent, op, stack = (
            self.start, self.end, self.func, self.parent, self.op, self.stack
        )

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(self.current_op)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self):
        wrappers = self._wrappers
        for layer in LAYERS if not wrappers else ():
            module = sys.modules[f"pstab.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED.get(layer, ())
                ):
                    self.functions.append(f"{layer}.{name}")
                    wrappers[obj] = self._wrap(len(self.functions) - 1, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "pstab" and not modname.startswith("pstab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, original in self._bindings:
            setattr(module, name, original)
        self._bindings = []

    def summary(self):
        """Per function: calls, inclusive seconds and the operations that
        called it; per layer: self seconds, a span's duration less that of
        its child spans."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls, inclusive, self_s, ops = {}, {}, {}, {}
        for i in range(count):
            name = self.functions[self.func[i]]
            layer = name.split(".", 1)[0]
            duration = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_s[layer] = self_s.get(layer, 0.0) + duration - child[i]
            ops.setdefault(name, set()).add(self.op[i])
        return calls, inclusive, self_s, ops

    def write(self, path):
        """One JSON line per span: [function, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        [
                            self.functions[self.func[i]],
                            round(self.start[i], 7),
                            round(self.end[i], 7),
                            self.parent[i],
                            self.op[i],
                        ]
                    )
                    + "\n"
                )
