"""The counters/timers store a routing run reports into.

:class:`Tracker` holds named monotone counters plus named accumulating
timers, handed out on demand via ``tracker.get_counter(NAME)`` /
``tracker.get_timer(NAME)`` with the names declared in
:mod:`repro.metrics`.  One tracker per run: ``route_design`` creates it
and hands it to both stages.  Producers (the cost snapshot, the pattern
engine and stage, the rip-up engine) increment what they know about;
consumers take a :meth:`Tracker.snapshot` before a span of work and a
:meth:`Tracker.delta` after it (``run_rrr_stage`` slices per-iteration
``IterationStats`` that way), or read the totals at the end of the run
— no producer ever resets anything, so concurrent readers always see
consistent values.  The stage wall clock (PATTERN and MAZE runtimes,
Tables V, VII, VIII) is two of its timers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple


class Counter:
    """A named monotone counter (thread-safe increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current total."""
        return self._value


class TimerMetric:
    """A named accumulating wall-clock timer (thread-safe)."""

    __slots__ = ("name", "_seconds", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._seconds = 0.0
        self._lock = threading.Lock()

    @contextmanager
    def time(self) -> Iterator[None]:
        """Time the enclosed block and accumulate its duration."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(time.perf_counter() - start)

    def add(self, seconds: float) -> None:
        """Accumulate ``seconds`` (must be non-negative) directly."""
        if seconds < 0:
            raise ValueError(f"timer {self.name!r} cannot accumulate negative time")
        with self._lock:
            self._seconds += seconds

    @property
    def seconds(self) -> float:
        """Accumulated seconds."""
        return self._seconds


class Tracker:
    """Registry of named counters and timers with snapshot/delta reads.

    >>> from repro import metrics
    >>> tracker = Tracker()
    >>> tracker.get_counter(metrics.MAZE_BATCHES).increment()
    >>> before = tracker.snapshot()
    >>> tracker.get_counter(metrics.MAZE_BATCHES).increment(2)
    >>> tracker.delta(before)[0][metrics.MAZE_BATCHES]
    2
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, TimerMetric] = {}
        self._lock = threading.Lock()

    def get_counter(self, name: str) -> Counter:
        """Return (creating on first use) the counter called ``name``."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def get_timer(self, name: str) -> TimerMetric:
        """Return (creating on first use) the timer called ``name``."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = TimerMetric(name)
            return timer

    def counters(self) -> Dict[str, int]:
        """Return a point-in-time copy of all counter totals."""
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def timers(self) -> Dict[str, float]:
        """Return a point-in-time copy of all timer totals."""
        with self._lock:
            return {name: t.seconds for name, t in self._timers.items()}

    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Return ``(counters, timers)`` totals for later :meth:`delta`."""
        return self.counters(), self.timers()

    def delta(
        self, snapshot: Tuple[Dict[str, int], Dict[str, float]]
    ) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Return per-name growth since ``snapshot`` (monotone, so >= 0)."""
        base_counters, base_timers = snapshot
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in self.counters().items()
        }
        timers = {
            name: value - base_timers.get(name, 0.0)
            for name, value in self.timers().items()
        }
        return counters, timers
