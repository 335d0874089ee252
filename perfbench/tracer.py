"""Span tracer that wraps the program's functions from outside.

A traced name such as ``ao.rmo_phase_opt`` is wrapped at every module of the
``actris`` package that holds a reference to the function, not only at its
definition, because ``from .ao import rmo_phase_opt`` copies the reference
into the importing module. A name that no longer exists is recorded as
absent and skipped.

Spans are kept in memory as flat arrays (name, parent, start, end) and are
turned into per-name call counts, total time and self time at the end. A
span's self time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import pkgutil
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def package_modules(package):
    """The package and every module directly inside it, by dotted name."""
    modules = {package.__name__: package}
    for info in pkgutil.iter_modules(package.__path__):
        name = f"{package.__name__}.{info.name}"
        modules[name] = importlib.import_module(name)
    return modules


def span_stats(name_id, parent, start, end, n_names):
    """Per-name (calls, total time, self time) from flat span arrays.

    parent holds the index of the enclosing span, or -1 for a root span.
    Spans are assumed properly nested, as they are on one thread.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    calls = np.bincount(name_id, minlength=n_names)
    total = np.bincount(name_id, weights=dur, minlength=n_names)
    own = np.bincount(name_id, weights=dur - child, minlength=n_names)
    return calls, total, own


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = defaultdict(float)
        self.sites = {}
        self.absent = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = self.clock()
        try:
            yield
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def _spanned(self, name, fn, on_return):
        nid = self._id(name)
        clock, start, end, stack = self.clock, self.start, self.end, self._stack
        counters, open_span = self.counters, self._open
        raised_key = f"{name}.raised"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[raised_key] += 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapped

    def _counted(self, name, fn):
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def wrap_function(self, name, modules, module_name, attr, on_return=None):
        """Wrap module_name.attr at every module in modules that binds it."""
        original = getattr(modules.get(module_name), attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._spanned(name, original, on_return)
        sites = []
        for mod_name, mod in modules.items():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                    sites.append(f"{mod_name}.{key}")
        self.sites[name] = sorted(sites)

    def wrap_method(self, name, owner, attr, span=True, on_return=None):
        """Wrap a method on its class; span=False only counts calls."""
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        if span:
            wrapper = self._spanned(name, original, on_return)
        else:
            wrapper = self._counted(name, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.sites[name] = [f"{owner.__module__}.{owner.__qualname__}.{attr}"]

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def stats(self):
        """{name: (calls, total_s, self_s)} over every recorded span."""
        calls, total, own = span_stats(
            self.name_id, self.parent, self.start, self.end, len(self.names)
        )
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write the raw spans out as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
