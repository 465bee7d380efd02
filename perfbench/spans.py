"""Outside-in span tracer: wraps public functions of splitsim from outside.

Every wrapped call appends one span (name, parent span, start, end) to flat
arrays kept in memory; ``summary`` derives calls, inclusive time and self
time (duration minus the time covered by child spans) from those arrays and
``save`` writes them out once the traced call has finished. Count-only hooks
bump a counter without opening a span, for functions called too often to
time individually.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def replace_everywhere(original, replacement, owners) -> None:
    """Point every attribute of ``owners`` that holds ``original`` at
    ``replacement``, so callers that imported the name directly see it too."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure(counts, args, kwargs, result)`` runs after the span closes,
        for counts derived from the call's arguments (flops, bytes).
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._open.pop()
            if measure is not None:
                measure(self.counts, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict[str, float]:
        """``<name>.calls``, ``<name>.s`` and ``<name>.self_s`` per span name,
        plus the counters."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - child, minlength=n)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out.update(self.counts)
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
