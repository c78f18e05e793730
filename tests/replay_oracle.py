"""The content key as the oracle of the structural pattern replay.

:class:`ReplayOracle` wraps ``PatternStage._route_nets`` while
:meth:`ReplayOracle.armed` is active.  Every group a session's pattern
stage routes is then hashed at group start, exactly as the
content-addressed replay did (``pattern_net_key`` over
``demand_signature``), and the structural verdicts — read off the
replay pass before the real method runs — are scored against the keys
of the *previous* pattern stage: the same memory the structural state
keeps, so both sides are compared on equal terms (a key cache with a
longer history can also hit on a window that returned to an older
state).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Sequence
from unittest import mock

from repro.core.flow import PatternStage
from repro.grid.route import Route
from repro.session.cache import demand_signature, pattern_net_key


class ReplayOracle:
    def __init__(self) -> None:
        self._stage = None
        self._previous: Dict[str, Route] = {}
        self._current: Dict[str, Route] = {}
        #: Clean verdicts the key did not confirm (a soundness bug).
        self.unsound = 0
        #: Nets whose key missed: what content addressing recomputes.
        self.content_misses = 0
        #: Clean verdicts checked.
        self.clean = 0

    def _begin(self, stage) -> None:
        """A new pattern stage: the last stage's keys become the cache."""
        self._stage = stage
        if self._current:
            self._previous, self._current = self._current, {}

    def _check(self, keys: List[str], routes: Sequence[Route], clean: Sequence[bool]) -> None:
        """Score one group's verdicts, then record its routes by key."""
        for key, route, was_clean in zip(keys, routes, clean):
            cached = self._previous.get(key)
            self.content_misses += cached is None
            if was_clean:
                self.clean += 1
                self.unsound += not (cached is not None and cached.same_geometry(route))
            self._current[key] = route

    @contextmanager
    def armed(self):
        """Score every replayed pattern group routed inside the block."""
        real = PatternStage._route_nets
        oracle = self

        def route_nets(stage, positions):
            replay = stage.replay
            if replay is None:
                return real(stage, positions)
            if stage is not oracle._stage:
                oracle._begin(stage)
            keys = []
            for p in positions:
                box = stage._net_boxes[p]
                signature = demand_signature(stage._graph, [box])
                keys.append(pattern_net_key(stage.nets[p], box, signature))
            clean = (~replay.dirty[replay.nid[positions]]).tolist()
            routes = real(stage, positions)
            oracle._check(keys, [routes[stage.nets[p].name] for p in positions], clean)
            return routes

        with mock.patch.object(PatternStage, "_route_nets", route_nets):
            yield self
