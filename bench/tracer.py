"""Outside-in span tracer for the lieinv package.

The tracer wraps every public module-level function (a name without a
leading underscore, defined in that module) of the traced layers and rebinds
each wrapper in every ``lieinv.*`` namespace that holds the original object.
Rebinding by identity matters because the package imports functions by name
(``from .expr import make_expr``), so patching only the defining module would
miss most calls.  Methods of classes are not wrapped; they show up as the
self time of the function that called them.

Spans (name, start, end, parent) are appended to flat arrays while tracing,
kept in memory, and written out by ``write_spans`` once the run is over.
``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("expr", "linalg", "algebra", "frame", "normalize", "verify", "families", "io", "cli")


def _is_one(poly):
    return 1 if poly.is_one else 0


# Results worth remembering per span: whether a gcd was trivial, how many
# pivots an elimination used, how many words a symmetrization produced.
OBSERVERS = {
    "expr.poly_gcd": _is_one,
    "normalize.eliminate": lambda res: len(res.pivots),
    "verify.symmetrize": lambda nc: len(nc.terms),
}


class Tracer:
    """Records one span per call of a wrapped lieinv function."""

    def __init__(self):
        self.names = []  # name id -> "layer.function"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.outcome = array("i")  # per span: observed value of the result, else 0
        self.raised = set()  # span indices that ended with an exception
        self._stack = [-1]
        self._bindings = []  # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        outcome, raised = self.outcome, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            outcome.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised.add(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                outcome[idx] = observe(result)
            return result

        return traced

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of the original -> wrapper; the modules keep the originals alive
        for layer in LAYERS:
            mod = sys.modules["lieinv." + layer]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, "%s.%s" % (layer, attr))
        for mname, mod in sorted(sys.modules.items()):
            if mod is None or not (mname == "lieinv" or mname.startswith("lieinv.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._bindings.append((mod, attr, obj))

    def uninstall(self):
        while self._bindings:
            mod, attr, obj = self._bindings.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction --------------------------------------------------------

    def __len__(self):
        return len(self.span_name)

    def summary(self):
        """Per-function calls, self time, exceptions raised and the sum of the
        observed results (see OBSERVERS).

        Self time is a span's duration minus the durations of its direct
        children; parents always precede their children in the arrays.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        observed = [0] * k
        errors = [0] * k
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
            observed[nid] += self.outcome[i]
        for i in self.raised:
            errors[names[i]] += 1
        out = {
            name: {"calls": calls[j], "self_s": self_s[j], "raised": errors[j],
                   "observed": observed[j]}
            for j, name in enumerate(self.names)
        }
        # top-level gcds: no poly_gcd among the ancestors
        gcd = self.names.index("expr.poly_gcd")
        inside = bytearray(n)
        top = trivial = 0
        for i in range(n):
            p = parents[i]
            if p >= 0 and (inside[p] or names[p] == gcd):
                inside[i] = 1
            elif names[i] == gcd:
                top += 1
                trivial += self.outcome[i]
        out["expr.poly_gcd"].update(top_calls=top, trivial=trivial)
        return out

    def write_spans(self, path):
        """Write the spans as one JSON header line followed by raw arrays.

        The header names the functions and the array layout; the arrays are
        span_name (int32), span_parent (int32), span_start and span_end
        (float64, seconds on the perf_counter clock), in that order.
        """
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": ["span_name:i", "span_parent:i", "span_start:d", "span_end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
