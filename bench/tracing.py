"""Timing wrappers around the public functions of each isoptic layer.

``installed(tracer)`` swaps every listed function for a wrapper that records
a span, in the defining module and in every ``isoptic`` module that
imported the name, and wraps the entries of ``verify.INVARIANTS``.  Spans
live in flat arrays (name, start, end, parent span, op id) until the run
ends; a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "isoptic"
OP = "op"

# layer -> public functions that get a span
LAYER_FUNCTIONS = {
    "kernel": ("circumcircle", "intersect", "circle_of_similitude", "invert_point",
               "invert_circle", "isogonal_conjugate_triangle", "orthocenter"),
    "quad": ("classify", "triad_circles", "similarity_ratio", "next_generation",
             "prev_generation", "isoptic_point", "simson_point",
             "isoptic_point_via_limit", "isoptic_point_via_inversion",
             "isoptic_point_via_inv_iso", "analyze"),
    "verify": ("random_quadrilateral",),
    "render": ("render_svg",),
}


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self.draws = 0  # rejection-sampling draws attempted
        self.skips: dict[str, int] = {}  # invariant -> cases skipped

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        idx = self._open(self.name_id(OP))
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_invariant(self, name: str, fn):
        """Span plus a skip count: the invariant returned None or raised."""
        traced = self.wrap(name, fn)
        self.skips.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(ctx):
            try:
                result = traced(ctx)
            except Exception:
                self.skips[name] += 1
                raise
            if result is None:
                self.skips[name] += 1
            return result
        return counted

    def count_draws(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.draws += 1
            return fn(*args, **kwargs)
        return counted

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[int]:
        """Self time of every span in ns."""
        n = len(self)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, self ns]."""
        out = {name: [0, 0] for name in self.names}
        for nid, own in zip(self.name, self.self_times()):
            acc = out[self.names[nid]]
            acc[0] += 1
            acc[1] += own
        return out

    def dump(self, path) -> None:
        """Write the spans as one JSON document."""
        doc = {"names": self.names, "name": list(self.name), "start": list(self.start),
               "end": list(self.end), "parent": list(self.parent), "op": list(self.op),
               "draws": self.draws, "skips": self.skips}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def absorb(self, doc: dict, op_id: int) -> None:
        """Append the spans of a dumped tracer (a traced child process),
        re-rooted under op ``op_id``."""
        base = len(self)
        ids = [self.name_id(name) for name in doc["names"]]
        for nid, start, end, parent in zip(doc["name"], doc["start"], doc["end"],
                                           doc["parent"]):
            self.name.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
        self.draws += doc["draws"]
        for name, n in doc["skips"].items():
            self.skips[name] = self.skips.get(name, 0) + n


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


@contextmanager
def installed(tracer: Tracer):
    """Swap the layer functions for tracing wrappers; restore them on exit."""
    patches = []  # (namespace, attribute, original)
    verify = sys.modules[f"{PACKAGE}.verify"]
    registry = verify.INVARIANTS
    saved = dict(registry)
    draw = verify._draw
    try:
        modules = _modules()
        for layer, fnames in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapped = tracer.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for name, (fn, classes) in saved.items():
            registry[name] = (tracer.wrap_invariant(f"verify.{name}", fn), classes)
        verify._draw = tracer.count_draws(draw)
        yield tracer
    finally:
        verify._draw = draw
        for name, entry in saved.items():
            registry[name] = entry
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
