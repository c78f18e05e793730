"""Warm-state routing sessions (the routing-as-a-service core).

The flow's state splits into three layers:

* :class:`~repro.session.handle.DesignHandle` — **immutable**,
  content-hash-keyed design data (grid capacities, netlist) shared
  across every job that routes the same design;
* :class:`~repro.session.session.RoutingSession` — **per-job mutable**
  state: the demand-carrying :class:`~repro.grid.graph.GridGraph`, the
  route caches and the last :class:`~repro.core.result.RoutingResult`,
  kept warm between runs so an ECO delta re-routes incrementally;
* :class:`~repro.session.store.SessionStore` — an LRU of warm sessions
  plus the **shared caches** (generated benchmark handles, Steiner
  trees, conflict schedules).

`core/flow.py`'s stages accept a :class:`SessionContext` and consult
its caches; without one they behave exactly as before — the
:class:`~repro.core.router.GlobalRouter` API is unchanged.
"""

from repro.session.cache import (
    RouteCache,
    SteinerTreeCache,
    demand_signature,
    maze_task_key,
    pattern_net_key,
)
from repro.session.context import SessionContext
from repro.session.handle import DesignHandle
from repro.session.session import EcoResult, RoutingSession
from repro.session.store import SessionStore

__all__ = [
    "DesignHandle",
    "RoutingSession",
    "EcoResult",
    "SessionContext",
    "SessionStore",
    "RouteCache",
    "SteinerTreeCache",
    "demand_signature",
    "pattern_net_key",
    "maze_task_key",
]
