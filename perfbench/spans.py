"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the calls into each solver layer by rebinding the
layer functions at the names their callers look them up under
(``stepper.fluid_sweep``, ``fluid.face_to_center``, ``fluid.parallel_for``,
...).  No solver file changes; ``uninstall`` restores the original bindings,
so untraced cycles run the unmodified code.

A span is (id, name, start, end, parent, run); ``run`` is the cycle index the
span belongs to.  Fork-join spans (``parallel.*``) overlay the compute they
enclose: the slab bodies run the calling module's code, so they do not count
as children when a compute layer's self time is taken.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans; nested spans are opened only from the calling thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()  # slab spans arrive from pool threads
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(Span(sid, name, start, end, parent, self.run))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_parallel_for(self, parallel_for):
        def traced(part, body):
            with self.span("parallel.fork") as fork:
                def slab(i, lo, hi):
                    start = time.perf_counter()
                    try:
                        body(i, lo, hi)
                    finally:
                        self._record(Span(next(self._ids), "parallel.slab", start,
                                          time.perf_counter(), fork, self.run))
                parallel_for(part, slab)
        return traced

    def install(self, stepper, fluid, magnetic, grid) -> None:
        """Rebind the layer entry points of the given solver modules to traced wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(stepper, "cfl_timestep", "fluid.cfl"),
                   (stepper, "fluid_sweep", "fluid.sweep"),
                   (stepper, "magnetic_sweep", "magnetic.sweep"),
                   (stepper, "transpose", "grid.transpose"),
                   (fluid, "face_to_center", "grid.face_to_center")]
        for module, attr, name in targets:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        for module in (fluid, magnetic, grid):
            self._saved.append((module, "parallel_for", module.parallel_for))
            module.parallel_for = self._wrap_parallel_for(module.parallel_for)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line; times are seconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent,
                                     "run": s.run}) + "\n")


def per_cycle(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per cycle: wall ms, self ms and call count per span name, plus fork-join waits.

    Only runs holding a ``stepper.cycle`` span (the traced cycles) are kept.
    Keys: ``<name>.ms``, ``<name>.self_ms``, ``<name>.calls``,
    ``parallel.join_wait_ms``
    (per slab, the time from its end to its fork's end) and
    ``parallel.capacity_ms`` (per fork, slabs x fork wall).
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    cycles = {s.run for s in spans if s.name == "stepper.cycle"}
    out: dict[int, dict[str, float]] = {run: defaultdict(float) for run in cycles}
    for s in spans:
        if s.run not in out:
            continue
        row = out[s.run]
        nested = sum(c.ms for c in children[s.id] if not c.name.startswith("parallel."))
        row[f"{s.name}.ms"] += s.ms
        row[f"{s.name}.self_ms"] += s.ms - nested
        row[f"{s.name}.calls"] += 1
        if s.name == "parallel.slab":
            row["parallel.join_wait_ms"] += (by_id[s.parent].end - s.end) * 1e3
        elif s.name == "parallel.fork":
            row["parallel.capacity_ms"] += len(children[s.id]) * s.ms
    return out
