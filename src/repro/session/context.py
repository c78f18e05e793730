"""The warm state a session threads through the flow.

One :class:`SessionContext` per session holds everything a run lends
the next: the pattern stage's structural replay state, the maze
stage's content-addressed route cache, and the Steiner and schedule
caches (shareable across sessions — both are pure functions of their
keys).  The pattern stage decides which nets to recompute from
:class:`~repro.session.replay.PatternReplay` alone and hashes nothing;
the content key it replaced survives as the tests' oracle for those
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.session.cache import RouteCache, SteinerTreeCache
from repro.session.replay import PatternReplay


@dataclass
class SessionContext:
    """Everything warm a session lends to the stages of one run.

    ``core/flow.py``'s stage drivers accept a context; a ``None``
    context reproduces the pre-session flow exactly.

    * ``replay`` — the last pattern stage's routes, pins and oriented
      overlap pairs; the next pattern stage replays every net they
      prove clean (see :mod:`repro.session.replay`).  A run replaces
      it with its successor when its pattern stage completes.
    * ``cache`` — content-addressed maze re-routes.
    * ``steiner_cache`` — unshifted Steiner topologies, shared across
      sessions through the :class:`~repro.session.store.SessionStore`.
    * ``schedule_cache`` — :class:`~repro.sched.pipeline.StageSchedule`
      objects keyed by task footprints (a schedule is a pure function
      of its boxes and bin size, so it is shareable and replayable).
    """

    replay: PatternReplay = field(default_factory=PatternReplay)
    cache: RouteCache = field(default_factory=RouteCache)
    steiner_cache: SteinerTreeCache = field(default_factory=SteinerTreeCache)
    schedule_cache: Dict[tuple, object] = field(default_factory=dict)

    def stats(self) -> dict:
        return {
            "pattern_replay": self.replay.stats(),
            "route_cache": self.cache.stats(),
            "steiner_cache": self.steiner_cache.stats(),
            "schedules": len(self.schedule_cache),
        }


__all__ = ["SessionContext"]
