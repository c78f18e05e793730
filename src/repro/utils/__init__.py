"""Small shared utilities: timers, counters bus, disjoint sets, RNG."""

from repro.utils.timing import Counter, TimerMetric, Tracker
from repro.utils.unionfind import UnionFind
from repro.utils.rng import make_rng

__all__ = [
    "Counter",
    "TimerMetric",
    "Tracker",
    "UnionFind",
    "make_rng",
]
