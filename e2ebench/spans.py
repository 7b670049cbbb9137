"""Spans and counts around the program's public callables, installed from
outside the program.

A span target is wrapped once, and the wrapper is bound in place of the
original in every ``graphrothe`` module namespace that bound it (``heat``
and ``vi`` import ``CachedSPD`` by name, ``cli`` imports ``make_domain``
by name, ...). A class target gets a span around ``__init__``, so the
class object itself, and every ``isinstance`` against it, is untouched.
Spans are appended to flat arrays in memory and analysed, or written
out, after the traced invocation; ``uninstall`` restores every binding.

Self time of a span is its duration minus the durations of the spans
directly nested in it, so the self times of all spans add up to the
duration of the outermost ones, recursion included.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "graphrothe"

# Callables timed with a span; a dotted ``Class.method`` wraps that method.
SPANS = (
    "cli.load_config",
    "cli.PreparedRun",
    "fileio.read_graph_file",
    "fileio.read_field_file",
    "fileio.read_trajectory_csv",
    "fileio.write_trajectory_csv",
    "fileio.write_csv",
    "fileio.write_field_file",
    "fileio.write_manifest",
    "graph.build_finite_graph",
    "graph.make_domain",
    "graph.exhaust_generative",
    "calculus.norms",
    "calculus.integrate",
    "kernels.seq_sum",
    "kernels.psor_sweep",
    "operators.DirichletOperator",
    "operators.CachedSPD",
    "operators.CachedSPD.solve",
    "heat.run_rothe",
    "heat.run_exhaustion",
    "heat.monitor_estimates",
    "vi.run_vi",
    "vi.lipschitz_validate",
    "vi.vi_monotonicity_monitor",
    "spectral.dirichlet_eigenbasis",
    "spectral.exact_p1_solution",
)

# Callables only counted: they run per vertex or per basis function, and
# their time stays with the span that called them.
COUNTS = (
    "calculus.gamma",
    "spectral.w12_coefficients",
)

# Every file the program writes goes through this function.
BYTES = ("fileio.atomic_write_text", "fileio.bytes_written")


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = {}
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        """``fn`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        """``fn`` wrapped so that every call adds one to ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_bytes(self, name, fn):
        """``fn(path, ...)`` wrapped so that the size of the file it wrote
        is added to ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            counts[name] += os.path.getsize(path)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Bind ``wrapper`` wherever a package module bound ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _wrap(self, target, make):
        modname, _, rest = target.partition(".")
        obj = sys.modules[f"{PACKAGE}.{modname}"]
        parts = rest.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        original = getattr(obj, parts[-1])
        if isinstance(original, type):
            init = original.__init__
            setattr(original, "__init__", make(init))
            self._undo.append((original, "__init__", init))
        elif isinstance(obj, type):
            setattr(obj, parts[-1], make(original))
            self._undo.append((obj, parts[-1], original))
        else:
            self._rebind(original, make(original))

    def install(self):
        for target in COUNTS:
            self._wrap(target, functools.partial(self.count, target))
        target, name = BYTES
        self._wrap(target, functools.partial(self.count_bytes, name))
        for target in SPANS:
            self._wrap(target, functools.partial(self.span, target))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def summary(self):
        """{name: (calls, self seconds)} over every recorded span."""
        return summarize(self.names, *self.arrays())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end,
                 count_names=np.array(sorted(self.counts)),
                 count_values=np.array([self.counts[k]
                                        for k in sorted(self.counts)],
                                       dtype=np.int64))


def self_times(parent, start, end):
    """Per-span self time: duration minus the direct children's durations."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=dur.size)
    return dur - covered


def summarize(names, name, parent, start, end):
    selfs = self_times(parent, start, end)
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=selfs, minlength=len(names))
    return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(names)}
