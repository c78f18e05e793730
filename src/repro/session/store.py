"""LRU store of warm sessions plus the caches shared across them."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.config import RouterConfig
from repro.session.cache import SteinerTreeCache
from repro.session.context import SessionContext
from repro.session.handle import DesignHandle
from repro.session.session import RoutingSession


def config_key(config: RouterConfig) -> str:
    """A deterministic identity string for a router configuration."""
    return repr(config)


class SessionStore:
    """Warm sessions (LRU) + shared caches for a routing service.

    Three tiers of sharing:

    * **handles** — generated benchmark designs, content-keyed; one
      generation serves every job on that design;
    * **cross-session caches** — Steiner topologies and conflict
      schedules, pure functions of net pins / task boxes, shared by
      every session the store creates;
    * **sessions** — warm per-``(design, config)`` state, LRU-evicted
      (eviction closes the session).

    Replay state and route caches stay *per-session*: they embed demand
    context, which only replays within one session's deterministic
    trajectory.
    """

    def __init__(self, max_sessions: int = 4, max_handles: int = 32) -> None:
        self.max_sessions = max_sessions
        self.max_handles = max_handles
        self.steiner_cache = SteinerTreeCache()
        self.schedule_cache: Dict[tuple, object] = {}
        self._sessions: "OrderedDict[Tuple[str, str], RoutingSession]" = (
            OrderedDict()
        )
        self._handles: "OrderedDict[Tuple[str, float, int], DesignHandle]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Handles (immutable tier)
    # ------------------------------------------------------------------ #
    def handle(
        self, name: str, scale: float = 1.0, seed: int = 0
    ) -> DesignHandle:
        """Return the (cached) handle of a generated benchmark design."""
        key = (name, float(scale), int(seed))
        with self._lock:
            cached = self._handles.get(key)
            if cached is not None:
                self._handles.move_to_end(key)
                return cached
        from repro.netlist.benchmarks import load_benchmark

        handle = DesignHandle.from_design(
            load_benchmark(name, scale=scale, seed=seed)
        )
        with self._lock:
            self._handles[key] = handle
            self._handles.move_to_end(key)
            while len(self._handles) > self.max_handles:
                self._handles.popitem(last=False)
        return handle

    def add_handle(self, handle: DesignHandle) -> DesignHandle:
        """Register an externally built handle (e.g. from a design file)."""
        key = (handle.key, 1.0, 0)
        with self._lock:
            self._handles[key] = handle
            self._handles.move_to_end(key)
        return handle

    # ------------------------------------------------------------------ #
    # Sessions (warm tier)
    # ------------------------------------------------------------------ #
    def session(
        self, handle: DesignHandle, config: Optional[RouterConfig] = None
    ) -> RoutingSession:
        """Return the warm session for ``(handle, config)``, creating it.

        Creation may evict the least-recently-used session (closing
        it).
        """
        config = config or RouterConfig.fastgr_l()
        key = (handle.key, config_key(config))
        with self._lock:
            session = self._sessions.get(key)
            if session is not None and not session.closed:
                self._sessions.move_to_end(key)
                return session
            context = SessionContext(
                steiner_cache=self.steiner_cache,
                schedule_cache=self.schedule_cache,
            )
            session = RoutingSession(handle, config, context=context)
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            evicted = []
            while len(self._sessions) > self.max_sessions:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
        for old in evicted:
            old.close()
        return session

    def close(self) -> None:
        """Close every warm session (idempotent)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "n_sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "n_handles": len(self._handles),
                "evictions": self.evictions,
                "steiner_cache": self.steiner_cache.stats(),
                "n_schedules": len(self.schedule_cache),
                "sessions": [s.stats() for s in self._sessions.values()],
            }


__all__ = ["SessionStore", "config_key"]
