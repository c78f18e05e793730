"""Small shared utilities: timers, counters bus, disjoint sets, RNG."""

from repro.utils.timing import Counter, StageTimer, TimerMetric, Tracker
from repro.utils.unionfind import UnionFind
from repro.utils.rng import make_rng

__all__ = [
    "Counter",
    "StageTimer",
    "TimerMetric",
    "Tracker",
    "UnionFind",
    "make_rng",
]
