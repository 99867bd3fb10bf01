"""In-memory span tracer that wraps bihsurf's public functions from outside.

Each public module-level function of a layer module, and each public method
of ``Immersion``, is replaced by a timing wrapper in every bihsurf module
whose globals refer to it, so the wrapper sits where callers look the name
up. ``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span is ``(id, parent, op, name, start, end)``: ``parent`` is the span that
was open when it started and ``op`` the benchmark operation (request) it
belongs to. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("core", "parameters", "immersion", "geometry", "periodicity", "admissibility", "cli")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """Records spans around calls into bihsurf; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.op, name, start, end)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an op, a CLI example)."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start)

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper for fn; count(args, kwargs, result) may add to counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, name, start)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self, package, counters=None):
        """Wrap every public function of the layer modules of ``package``.

        counters maps a span name to a count hook (see ``wrap``).
        """
        counters = counters or {}
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for fname, fn in list(_public_functions(mod)):
                name = "%s.%s" % (layer, fname)
                wrapped = self.wrap(name, fn, counters.get(name))
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, attr, fn))
                            setattr(target, attr, wrapped)
        cls = package.immersion.Immersion
        for mname, meth in list(vars(cls).items()):
            if not mname.startswith("_") and inspect.isfunction(meth):
                name = "immersion.Immersion.%s" % mname
                self._patches.append((cls, mname, meth))
                setattr(cls, mname, self.wrap(name, meth, counters.get(name)))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans of that name, so
        recursion is not double counted) and self_s (busy time not covered
        by child spans)."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, parent, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[sid]
            anc = parent
            while anc is not None and self.spans[anc][3] != name:
                anc = self.spans[anc][1]
            if anc is None:
                row["busy_s"] += end - start
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s, "parent": p, "op": op, "name": n, "start": a, "end": b}
            for s, p, op, n, a, b in self.spans
        ]
