"""Span tracing installed from the benchmark's side.

Nothing under ``src/`` knows about this module.  :class:`Tracer.installed`
wraps the public entry points listed in :data:`SPANS` with timing
wrappers and removes them again on exit; class attributes are patched so
every caller is reached, module-level functions are patched under the
name the *consuming* module binds.  A span records name, start, end,
thread id and its parent on the same thread (per-thread stack).  A
layer's figure is its **self time**: duration minus the time covered by
its direct children.

Spans that run on executor threads (maze search under the ``threaded``
policy) have no parent on the main thread; summing them gives
thread-busy time, not wall time, and the metrics built on them say so.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

#: The benchmark's own span around each public routing call; the root of
#: every main-thread span tree.
ROOT = "core.route"

#: (module, owner class or None, attribute, span name).  One row per
#: wrapped entry point; this table is the whole instrumentation surface.
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.pattern.batch", "BatchPatternRouter", "make_job", "tree.plan"),
    ("repro.core.flow", "PatternStage", "__init__", "sched.pattern_plan"),
    ("repro.sched.pipeline", "StageRunner", "schedule", "sched.schedule"),
    ("repro.sched.pipeline", "StageRunner", "run", "sched.run"),
    ("repro.core.flow", "PatternStage", "run_task", "sched.task"),
    ("repro.core.flow", "PatternStage", "run_batch", "sched.task"),
    ("repro.core.flow", "RerouteStage", "run_task", "sched.task"),
    ("repro.core.flow", "RerouteStage", "run_batch", "sched.task"),
    ("repro.grid.cost", "CostQuery", "rebuild", "grid.rebuild"),
    # Route.uncommit is commit(-amount), so one wrapper sees both.
    ("repro.grid.route", "Route", "commit", "grid.commit"),
    ("repro.pattern.batch", "BatchPatternRouter", "route_batch", "pattern.route_batch"),
    ("repro.pattern.batch", "BatchPatternRouter", "route_jobs", "pattern.kernels"),
    ("repro.pattern.batch", None, "reconstruct_route", "pattern.reconstruct"),
    ("repro.core.flow", None, "find_violating_nets", "maze.scan"),
    # WavefrontMazeRouter inherits route_net and adds route_batch.
    ("repro.maze.router", "MazeRouter", "route_net", "maze.search"),
    ("repro.maze.wavefront", "WavefrontMazeRouter", "route_batch", "maze.search"),
    ("repro.maze.ripup", "RipupReroute", "rip_and_reroute", "maze.ripup"),
    ("repro.maze.ripup", "RipupReroute", "rip_and_reroute_batch", "maze.ripup"),
    ("repro.maze.ripup", "RipupReroute", "rip_and_reroute_cached", "maze.ripup"),
    ("repro.eval.metrics", "RoutingMetrics", "measure", "eval.measure"),
    # The stages import these from repro.session.cache at call time.
    ("repro.session.cache", None, "demand_signature", "session.hash"),
    ("repro.session.cache", None, "pattern_net_key", "session.hash"),
    ("repro.session.cache", None, "maze_task_key", "session.hash"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    tid: int
    parent: int  # index into the tracer's span list, -1 for a thread root


class _ThreadState(threading.local):
    """Per-thread span list and open-span stack (no lock on the hot path)."""

    def __init__(self) -> None:
        self.spans: Optional[List[list]] = None
        self.stack: List[int] = []


class Tracer:
    """In-memory span recorder; written out after the run, never during."""

    def __init__(self) -> None:
        self._threads: List[List[list]] = []
        self._lock = threading.Lock()
        self._local = _ThreadState()

    def _begin(self, name: str) -> list:
        state = self._local
        spans = state.spans
        if spans is None:
            spans = state.spans = []
            with self._lock:
                self._threads.append(spans)
        stack = state.stack
        # [name, start, end, thread id, parent index in this thread's list]
        record = [name, 0.0, 0.0, threading.get_ident(), stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call (root, input generation)."""
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def _wrap(self, fn, name: str):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every :data:`SPANS` entry; restore all of them on exit."""
        undo = []
        try:
            for owner, attr, span_name in _entry_points():
                raw = inspect.getattr_static(owner, attr)
                undo.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(raw.__func__, span_name))
                else:
                    patched = self._wrap(raw, span_name)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def spans(self) -> List[Span]:
        """Every recorded span; a parent always precedes its children."""
        out: List[Span] = []
        with self._lock:
            threads = list(self._threads)
        for records in threads:
            offset = len(out)
            for name, start, end, tid, parent in records:
                out.append(
                    Span(name, start, end, tid, parent + offset if parent >= 0 else -1)
                )
        return out


def _entry_points() -> Iterator[Tuple[object, str, str]]:
    for module_name, owner_name, attr, span_name in SPANS:
        module = importlib.import_module(module_name)
        yield (getattr(module, owner_name) if owner_name else module), attr, span_name


def is_installed() -> bool:
    """True while any :data:`SPANS` entry point still carries a wrapper."""
    for owner, attr, _ in _entry_points():
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if hasattr(fn, "__wrapped__"):
            return True
    return False


# --------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------- #
def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span: duration minus its direct children's."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


class LayerTotals(NamedTuple):
    calls: int
    self_s: float  # self time, summed over every thread
    total_s: float  # inclusive duration, summed over every thread


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name."""
    acc: Dict[str, List[float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = acc.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_s
        row[2] += span.end - span.start
    return {name: LayerTotals(int(r[0]), r[1], r[2]) for name, r in acc.items()}


def coverage(totals: Dict[str, LayerTotals]) -> float:
    """Share of the timed region attributed to a named layer below ROOT.

    ROOT spans live on the calling thread only, so this is the sum of the
    main-thread self times of every layer over the region's wall time.
    """
    root = totals.get(ROOT)
    if root is None or root.total_s <= 0:
        return 0.0
    return 1.0 - root.self_s / root.total_s


def write_chrome_trace(spans: List[Span], path) -> None:
    """Write Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    if not spans:
        events = []
    else:
        origin = min(span.start for span in spans)
        tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in spans))}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": tids[span.tid],
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
            }
            for span in spans
        ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def selftest() -> List[str]:
    """Check the span arithmetic on a synthetic nested + threaded tree."""
    main, worker = 1, 2
    spans = [
        Span(ROOT, 0.0, 10.0, main, -1),
        Span("sched.run", 1.0, 9.0, main, 0),
        Span("grid.rebuild", 2.0, 3.0, main, 1),
        Span("grid.commit", 3.0, 3.5, main, 1),
        Span("maze.search", 2.0, 6.0, worker, -1),
        Span("grid.rebuild", 2.5, 3.5, worker, 4),
        Span("maze.search", 6.0, 8.0, worker, -1),
    ]
    problems = []
    expected_self = [2.0, 6.5, 1.0, 0.5, 3.0, 1.0, 2.0]
    if self_times(spans) != expected_self:
        problems.append(f"self times {self_times(spans)} != {expected_self}")
    totals = layer_totals(spans)
    checks = {
        "maze.search thread-busy": (totals["maze.search"].total_s, 6.0),
        "maze.search self": (totals["maze.search"].self_s, 5.0),
        "grid.rebuild calls": (totals["grid.rebuild"].calls, 2),
        "coverage": (coverage(totals), 0.8),
    }
    for label, (got, want) in checks.items():
        if abs(got - want) > 1e-12:
            problems.append(f"{label}: {got} != {want}")

    # Live nesting and parent links through the real recorder.
    tracer = Tracer()

    def on_other_thread() -> None:
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        thread = threading.Thread(target=on_other_thread)
        thread.start()
        thread.join()
    live = {span.name: span for span in tracer.spans()}
    names = [span.name for span in tracer.spans()]
    if live["inner"].parent != names.index("outer"):
        problems.append("inner span is not parented to outer")
    if live["other"].parent != -1 or live["other"].tid == live["outer"].tid:
        problems.append("span on another thread must be a root of that thread")
    return problems
