"""Spans and taps recorded from outside the package under test.

A span times one call the benchmark makes into a package module.  A tap
wraps a callable the benchmark hands to the package (dense output, a
wavefunction, a bracket operand) and counts its calls, points and time.
Taps fire hundreds of thousands of times per run, so they are summed into
the enclosing span instead of each becoming a span of its own; the
enclosing span's self time excludes them.

With tracing off, ``NullTracer`` hands every callable back unchanged, so an
untraced run executes exactly the calls a user would make.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Tracing off: spans are empty contexts and taps are the identity."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def tap(self, name, fn, points=None):
        return fn

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans kept in memory: name, start, end, parent, run id, child time."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "run": self.run_id, "name": name,
               "parent": parent["id"] if parent else None,
               "start": time.perf_counter(), "end": None, "child_s": 0.0, "taps": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def tap(self, name: str, fn, points=None):
        """Wrap fn; ``points(*args)`` gives the work size of one call."""

        def tapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            n = points(*args) if points else 1
            self.count(name + ".calls")
            self.count(name + ".points", n)
            self.count(name + ".s", dt)
            self.counts[name + ".max_points"] = max(self.counts.get(name + ".max_points", 0), n)
            if self._stack:
                top = self._stack[-1]
                top["child_s"] += dt
                calls, secs = top["taps"].get(name, (0, 0.0))
                top["taps"][name] = (calls + 1, secs + dt)
            return out

        return tapped

    def calls(self, name: str) -> int:
        """Number of spans with this name."""
        return sum(1 for s in self.spans if s["name"] == name)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_total(self, name: str) -> float:
        """Summed self time (duration minus children and taps) of these spans."""
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans, "counts": self.counts}, fh)


def array_points(*args) -> int:
    """Work size of a call: the element count of its first argument."""
    return int(np.size(args[0]))
