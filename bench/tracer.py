"""In-memory span tracer for the homcontract package, installed from outside.

The tracer wraps the public functions of every ``homcontract`` module, and
the public methods of ``Space`` and ``ReductiveDecomposition``, without
editing the package.  Modules import with ``from .x import y``, so one
function can be bound under several names (``contraction.linearize`` is
``fields.linearize``); every binding that refers to a wrapped function is
replaced, or calls through the other names would go unseen.

Spans are kept in flat arrays while the program runs and written out once
at the end.  ``aggregate`` turns them into per-name calls, inclusive time,
self time (duration minus the time covered by child spans) and element
counts.  Because spans nest strictly in one thread, the self times of all
spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array

# Wrapped under ``main`` only: the subcommand bodies, argument parsing and
# JSON writes of the CLI count as the self time of ``cli.main``.
ROOT = "cli.main"
# Methods of these classes are traced as ``<module>.<method>``.
TRACED_CLASSES = {"spaces": ("Space",), "liealg": ("ReductiveDecomposition",)}


def _n_elems(a) -> int:
    """Stacked elements in an array of square matrices (1 for a single one)."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) <= 2:
        return 1
    return math.prod(shape[:-2])


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, out) -> int:
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Element counts recorded on the spans of these functions.
COUNTERS = {
    "smallmat.so3_exp": lambda a, k, out: _n_elems(_arg(a, k, 0, "A")),
    "fields.eval_coeff": lambda a, k, out: _n_elems(_arg(a, k, 1, "g")),
    "reach.integrate": lambda a, k, out: len(out.times) - 1,
    "svgplot.line_plot": _file_bytes,
    "svgplot.heatmap": _file_bytes,
}


SPAN_FIELDS = ("name", "parent", "start", "end", "elems")


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, elements."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.elems = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; results and exceptions pass through."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock, stack = self.clock, self._stack
        names_a, parent_a, start_a, end_a, elems_a = (
            self.name, self.parent, self.start, self.end, self.elems)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names_a)
            names_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            elems_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if count is not None:
                elems_a[idx] = count(args, kwargs, out)
            return out

        return traced

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names, "n": len(self)}) + "\n").encode())
            for key in SPAN_FIELDS:
                getattr(self, key).tofile(fh)


def load(path) -> Tracer:
    """Read spans written by :meth:`Tracer.dump` in the same Python build."""
    t = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        t.names = header["names"]
        for key in SPAN_FIELDS:
            getattr(t, key).fromfile(fh, header["n"])
    return t


def _submodules(package) -> dict:
    """Imported submodules of the package, by short name."""
    prefix = package.__name__ + "."
    return {name[len(prefix):]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None}


def _targets(modules: dict):
    """(traced name, function) for every function to wrap."""
    for short, mod in modules.items():
        if short == "cli":
            yield ROOT, mod.main
            continue
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield f"{short}.{attr}", obj
        for cls_name in TRACED_CLASSES.get(short, ()):
            for attr, obj in sorted(vars(getattr(mod, cls_name)).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    yield f"{short}.{attr}", obj


def install(tracer: Tracer, package):
    """Wrap the package's functions at every binding; return the wrapped root.

    Call it after the package and all its submodules are imported.
    """
    modules = _submodules(package)
    wrapped = {id(fn): (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
               for name, fn in _targets(modules)}
    classes = [getattr(modules[m], c) for m, cs in TRACED_CLASSES.items() for c in cs]
    for owner in [package, *modules.values(), *classes]:
        for attr, obj in list(vars(owner).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(owner, attr, hit[1])
    return modules["cli"].main


def aggregate(t: Tracer) -> dict:
    """Per-name totals: calls, incl_s, self_s, elems, plus tree-wide figures.

    Adds ``root_s`` (summed duration of top-level spans) and
    ``coeff_evals_in_linearize`` (``fields.eval_coeff`` spans with a
    ``fields.linearize`` ancestor).
    """
    n = len(t)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
    lin = t.names.index("fields.linearize") if "fields.linearize" in t.names else -1
    ev = t.names.index("fields.eval_coeff") if "fields.eval_coeff" in t.names else -1
    under_lin = [False] * n
    evals_in_lin = 0
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "elems": 0} for name in t.names}
    root_s = 0.0
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            # parents are recorded before their children
            under_lin[i] = under_lin[p] or t.name[p] == lin
        else:
            root_s += dur[i]
        if t.name[i] == ev and under_lin[i]:
            evals_in_lin += 1
        rec = out[t.names[t.name[i]]]
        rec["calls"] += 1
        rec["incl_s"] += dur[i]
        rec["self_s"] += dur[i] - child[i]
        rec["elems"] += t.elems[i]
    return {"by_name": out, "root_s": root_s, "coeff_evals_in_linearize": evals_in_lin}
