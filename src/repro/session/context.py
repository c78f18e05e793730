"""The cache bundle a session threads through the flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.session.cache import RouteCache, SteinerTreeCache


@dataclass
class SessionContext:
    """Everything warm a session lends to the stages of one run.

    ``core/flow.py``'s stage drivers accept a context and consult its
    caches; every field is optional-by-behaviour — a ``None`` context
    reproduces the pre-session flow exactly.

    * ``cache`` — content-addressed task results (pattern chunks, maze
      re-routes); the ECO replay's speed lever.
    * ``steiner_cache`` — unshifted Steiner topologies, shared across
      sessions through the :class:`~repro.session.store.SessionStore`.
    * ``schedule_cache`` — :class:`~repro.sched.pipeline.StageSchedule`
      objects keyed by task footprints (a schedule is a pure function
      of its boxes and bin size, so it is shareable and replayable).
    """

    cache: RouteCache = field(default_factory=RouteCache)
    steiner_cache: SteinerTreeCache = field(default_factory=SteinerTreeCache)
    schedule_cache: Dict[tuple, object] = field(default_factory=dict)

    def stats(self) -> dict:
        return {
            "route_cache": self.cache.stats(),
            "steiner_cache": self.steiner_cache.stats(),
            "schedules": len(self.schedule_cache),
        }


__all__ = ["SessionContext"]
