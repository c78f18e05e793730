"""Warm per-job routing state: :class:`RoutingSession`.

A session owns the mutable half of a routing job — ONE demand-carrying
:class:`~repro.grid.graph.GridGraph` built from its immutable
:class:`~repro.session.handle.DesignHandle`, the warm
:class:`~repro.session.context.SessionContext` (pattern replay state,
maze route cache, Steiner cache), and the last
:class:`~repro.core.result.RoutingResult`.

ECO model
---------
:meth:`RoutingSession.eco` checks a
:class:`~repro.netlist.delta.NetlistDelta` against the netlist and the
grid, swaps in the edited netlist, resets demand and re-drives the
*exact* deterministic stage pipeline with the warm state armed — the
replay re-commits every route, so nothing is uncommitted first.  The
pattern stage decides by structure which nets can have changed
(:mod:`repro.session.replay`): a net whose pins, earlier overlapping
nets and their routes are all unchanged commits its last route with no
hash and no DP; only the edit's blast radius recomputes.  Maze
re-routes replay from the content-addressed
:class:`~repro.session.cache.RouteCache`.  The outcome is asserted — by
the tests, ``bench_eco.py`` and :meth:`RoutingSession.verify_cold`
(``repro eco --verify``, the service's ``verify``) — equal to a cold
full route of the edited design, digest for digest
(:meth:`~repro.core.result.RoutingResult.digest`): the replay can only
change speed, never results, and the content key survives as the test
oracle of every clean verdict.

A run that raises leaves the session as it was: netlist, demand, last
result and replay state are restored before the exception propagates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.config import RouterConfig
from repro.core.result import IterationStats, RoutingResult
from repro.netlist.delta import NetlistDelta
from repro.netlist.design import Design, check_pins
from repro.session.context import SessionContext
from repro.session.handle import DesignHandle

ProgressFn = Callable[[IterationStats], None]


@dataclass
class EcoResult:
    """What one ECO re-route did, and what it cost.

    ``result`` is a full :class:`RoutingResult` for the edited design
    (bit-identical to a cold route); the remaining fields quantify the
    incremental work: the delta's edit counts, the old and new boxes of
    the edited nets, and how many tasks were replayed versus recomputed
    (pattern nets plus maze re-routes).
    """

    result: RoutingResult
    n_removed: int
    n_added: int
    n_moved: int
    dirty_windows: List[Tuple[int, int, int, int]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed: float = 0.0

    @property
    def n_edits(self) -> int:
        return self.n_removed + self.n_added + self.n_moved

    @property
    def reuse_fraction(self) -> float:
        """Fraction of the replayed tasks served from the warm state."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> dict:
        return {
            "n_removed": self.n_removed,
            "n_added": self.n_added,
            "n_moved": self.n_moved,
            "n_dirty_windows": len(self.dirty_windows),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "reuse_fraction": self.reuse_fraction,
            "elapsed": self.elapsed,
            "score": self.result.metrics.score,
        }


class RoutingSession:
    """Warm, reusable routing state over one immutable design handle.

    Usable as a context manager; after :meth:`close`, ``run``/``eco``
    raise.  ``run``/``eco`` are serialized per session — a session is
    one job's state, not a concurrency unit.
    """

    def __init__(
        self,
        handle: DesignHandle,
        config: Optional[RouterConfig] = None,
        context: Optional[SessionContext] = None,
    ) -> None:
        self.handle = handle
        self.config = config or RouterConfig.fastgr_l()
        self.graph = handle.fresh_graph()
        self.netlist = handle.netlist
        self.context = context or SessionContext()
        self.result: Optional[RoutingResult] = None
        self.n_runs = 0
        self.n_ecos = 0
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "RoutingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the session closed (idempotent)."""
        with self._lock:
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def design(self) -> Design:
        """The session's current design view (shared graph + netlist)."""
        return Design(
            self.handle.name, self.graph, self.netlist,
            dict(self.handle.metadata),
        )

    def cold_design(self) -> Design:
        """A fresh-graph design carrying the session's current netlist.

        The cold-route baseline every warm result is asserted
        bit-identical against (tests, ``bench_eco.py`` and
        :meth:`verify_cold` all route this).
        """
        return Design(
            self.handle.name,
            self.handle.fresh_graph(),
            self.netlist,
            dict(self.handle.metadata),
        )

    def run(self, on_iteration: Optional[ProgressFn] = None) -> RoutingResult:
        """Route the current netlist from scratch; keep the state warm.

        The first run fills the caches; repeat runs (and ECO re-routes)
        replay them.  Results are bit-identical to a cold
        :class:`~repro.core.router.GlobalRouter` run on the same
        design, caches warm or cold.
        """
        with self._lock:
            self._check_open()
            return self._route(on_iteration)

    def _route(self, on_iteration: Optional[ProgressFn]) -> RoutingResult:
        from repro.core.router import route_design

        saved = self.graph.demand_snapshot(), self.context.replay
        self.graph.reset_demand()
        try:
            result = route_design(
                self.design,
                self.config,
                context=self.context,
                on_iteration=on_iteration,
            )
        except BaseException:
            self.graph.restore_demand(saved[0])
            self.context.replay = saved[1]
            raise
        self.result = result
        self.n_runs += 1
        return result

    def _reuse_counts(self) -> Tuple[int, int]:
        """Replayed and recomputed tasks so far: pattern nets + maze
        re-routes."""
        replay, cache = self.context.replay, self.context.cache
        return replay.replayed + cache.hits, replay.recomputed + cache.misses

    def eco(
        self,
        delta: NetlistDelta,
        on_iteration: Optional[ProgressFn] = None,
    ) -> EcoResult:
        """Apply ``delta`` to the warm state and re-route incrementally.

        Requires a warm route (:meth:`run` first).  A delta that names
        unknown nets or puts a pin off the grid raises ``ValueError``
        before anything changes.  See the module docstring for the
        replay mechanism and its exactness argument.
        """
        with self._lock:
            self._check_open()
            if self.result is None:
                raise RuntimeError(
                    "session has no warm route to edit; call run() first"
                )
            delta.validate(self.netlist)
            check_pins(tuple(delta.moved) + tuple(delta.added), self.graph)
            start = time.perf_counter()

            # The blast-radius record reported back to the caller: the
            # old and new boxes of every edited net.
            windows: List[Tuple[int, int, int, int]] = []
            old_nets = {net.name: net for net in self.netlist}
            for name in tuple(delta.removed) + tuple(
                net.name for net in delta.moved
            ):
                windows.append(old_nets[name].bbox.as_tuple())
            for net in tuple(delta.moved) + tuple(delta.added):
                windows.append(net.bbox.as_tuple())

            netlist = self.netlist
            self.netlist = delta.apply(netlist)
            hits_before, misses_before = self._reuse_counts()
            try:
                result = self._route(on_iteration)
            except BaseException:
                self.netlist = netlist
                raise
            hits, misses = self._reuse_counts()
            self.n_ecos += 1
            return EcoResult(
                result=result,
                n_removed=len(delta.removed),
                n_added=len(delta.added),
                n_moved=len(delta.moved),
                dirty_windows=windows,
                cache_hits=hits - hits_before,
                cache_misses=misses - misses_before,
                elapsed=time.perf_counter() - start,
            )

    def verify_cold(self) -> Tuple[bool, RoutingResult]:
        """Cold-route the current netlist on a fresh graph; return whether
        the warm state matches it bit for bit — the last result's route
        digest and score, and the session's demand — and the cold
        result."""
        from repro.core.router import GlobalRouter

        with self._lock:
            self._check_open()
            if self.result is None:
                raise RuntimeError("session has no route to verify; call run() first")
            cold_design = self.cold_design()
            cold = GlobalRouter(cold_design, self.config).run()
            same = (
                self.result.digest() == cold.digest()
                and self.graph.demand_equals(cold_design.graph)
                and self.result.metrics.score == cold.metrics.score
            )
            return same, cold

    def stats(self) -> dict:
        """Session-level counters (exposed by the service's /sessions)."""
        return {
            "design": self.handle.name,
            "key": self.handle.key,
            "config": self.config.name,
            "n_runs": self.n_runs,
            "n_ecos": self.n_ecos,
            "warm": self.result is not None,
            "closed": self._closed,
            **self.context.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"RoutingSession({self.handle.name!r}, {self.config.name!r}, "
            f"runs={self.n_runs}, ecos={self.n_ecos}, "
            f"warm={self.result is not None})"
        )


__all__ = ["RoutingSession", "EcoResult"]
