"""Structural ECO replay of the pattern stage: decide clean nets by
what changed, not by hashing what they read.

What one net's pattern route depends on
---------------------------------------
A net's DP (and the edge shifting before it) reads the cost snapshot
and demand only inside its bounding box's incident-edge window, over a
stage-start reference that is a session constant.  The demand in that
window at the net's turn is the sum of the routes committed before it
(in earlier scheduler groups) that write into the window — and a route
writes only edges with both endpoints inside its own box, so only nets
whose box *overlaps* this one's can.  So the route is a pure function
of

(a) the net's pins (its box follows from them),
(b) the set of overlapping nets committed before it, and
(c) those nets' routes.

:class:`PatternReplay` keeps exactly that per session: each net's last
pattern-stage route and pins, and every overlap pair *oriented* by the
group order of the last replay.  A :class:`ReplayPass` (one pattern
stage run) calls a net **clean** — it commits the old route with no
hash and no DP — unless its pins changed, a pair on its earlier side
appeared, vanished or flipped, or an earlier overlapping net came out
of this replay with a different route.  A recomputed route equal to the
old one dirties nothing.

Pairs are net-id codes ``earlier << 32 | later``: the flips are
two sorted set differences, and propagating a changed route is a slice
of the later ends per changed net.  Ids are dense over the nets of the
last replay plus the ones new to this one, so the state follows the
size of the design, not the history of the session.

Replays hash nothing.  The content key
(:func:`~repro.session.cache.pattern_net_key` over
:func:`~repro.session.cache.demand_signature`) is the oracle the tests
hold every clean verdict to (``tests/replay_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.grid.route import H_WIRE, V_WIRE, Route, edges_at
from repro.netlist.net import Net
from repro.utils.arrays import unique_sorted

_SHIFT = np.int64(32)
_LOW = np.int64((1 << 32) - 1)


class PatternReplay:
    """What the last pattern stage of a session left behind (immutable
    once built: a pass builds its successor, so a failed run leaves the
    session on the previous one)."""

    def __init__(
        self,
        ids: Optional[Dict[str, int]] = None,
        nets: Optional[Dict[int, Net]] = None,
        routes: Optional[Dict[int, Route]] = None,
        pairs: Optional[np.ndarray] = None,
        replayed: int = 0,
        recomputed: int = 0,
    ) -> None:
        #: Net ids by name, dense over this state's nets.
        self.ids: Dict[str, int] = ids if ids is not None else {}
        #: Id -> the net and its route as the last replay routed it.
        self.nets: Dict[int, Net] = nets if nets is not None else {}
        self.routes: Dict[int, Route] = routes if routes is not None else {}
        #: Sorted oriented overlap codes ``earlier << 32 | later``.
        self.pairs = pairs if pairs is not None else np.empty(0, dtype=np.int64)
        #: Nets committed from the replay state / recomputed, cumulative.
        self.replayed = replayed
        self.recomputed = recomputed

    def stats(self) -> dict:
        return {
            "nets": len(self.nets),
            "pairs": int(self.pairs.size),
            "replayed": self.replayed,
            "recomputed": self.recomputed,
        }


class ReplayPass:
    """One pattern stage's replay over ``nets`` (the stage's sorted
    order) against the ``previous`` state, on ``graph``'s grid;
    :meth:`finish` returns the successor state.

    Conditions (b) and (c) are applied per *contribution*: an earlier
    net ``e`` changes a later net ``l``'s window only where the unit
    edges ``e`` adds or drops meet it — its whole route when the pair
    appeared or flipped towards ``l`` (checked once ``e``'s route of
    this replay is known), its old route when the pair vanished or
    flipped away, the symmetric difference of old and new route when a
    persisting ``e`` was recomputed into a different route.
    """

    def __init__(self, previous: PatternReplay, nets: Sequence[Net], graph) -> None:
        self.previous = previous
        self.nets = nets
        ids = dict(previous.ids)
        for net in nets:
            ids.setdefault(net.name, len(ids))
        self.ids = ids
        #: Stable id of each stage position.
        self.nid = np.array([ids[net.name] for net in nets], dtype=np.int64)
        self._graph = graph
        #: Id -> current box ``(x0, y0, x1, y1)``.
        self._box = np.zeros((len(ids), 4), dtype=np.int64)
        self._box[self.nid] = [net.bbox.as_tuple() for net in nets]
        old_nets = previous.nets
        # (a): new nets and nets whose pins changed start dirty, the rest clean.
        self.dirty = np.ones(len(ids), dtype=bool)
        for net, i in zip(nets, self.nid.tolist()):
            old = old_nets.get(i)
            if old is not None and (old is net or old.pins == net.pins):
                self.dirty[i] = False
        self.routes: Dict[int, Route] = {}
        self.pairs = np.empty(0, dtype=np.int64)
        self._later = self._fresh = self.pairs
        self._starts = np.zeros(len(ids) + 1, dtype=np.int64)
        self._has_fresh = np.zeros(len(ids), dtype=bool)
        self._oriented = False
        self.replayed = self.recomputed = 0

    # ------------------------------------------------------------------ #
    def orient(self, positions: np.ndarray, rank: np.ndarray) -> None:
        """Take this replay's overlap pairs and apply what vanished.

        ``positions`` is ``(2, P)`` stage positions of overlapping nets
        and ``rank[p]`` orders the commits: of two overlapping nets, the
        one with the lower rank commits first (they never tie).  Must
        run once, before the first :meth:`split`.
        """
        self._oriented = True
        a, b = self.nid[positions[0]], self.nid[positions[1]]
        first = rank[positions[0]] < rank[positions[1]]
        earlier = np.where(first, a, b)
        pairs = np.sort((earlier << _SHIFT) | np.where(first, b, a))
        old = self.previous.pairs
        # Pairs new on the earlier side of their later end (appeared or
        # flipped): checked against the earlier net's route of this
        # replay when it is recorded.
        self._fresh = ~np.isin(pairs, old, assume_unique=True)
        self.pairs = pairs
        self._later = pairs & _LOW
        self._starts = np.searchsorted(
            pairs >> _SHIFT, np.arange(len(self.ids) + 1, dtype=np.int64)
        )
        self._has_fresh[pairs[self._fresh] >> _SHIFT] = True
        # Gone from an earlier side (vanished or flipped): the old route
        # left the later net's window.
        gone = np.setdiff1d(old, pairs, assume_unique=True)
        live = np.zeros(len(self.ids), dtype=bool)
        live[self.nid] = True
        gone = gone[live[gone & _LOW]]
        gone_earlier = gone >> _SHIFT
        for e in unique_sorted(gone_earlier).tolist():
            self._touch(self.previous.routes[e], gone[gone_earlier == e] & _LOW)

    def split(self, positions: Sequence[int]):
        """Split one group into ``(clean, dirty)`` stage positions; the
        clean ones come with the routes to commit."""
        if not self._oriented:
            raise RuntimeError("replay pass used before orient()")
        ids = self.nid[positions]
        clean = ~self.dirty[ids]
        old = self.previous.routes
        kept = [(p, old[i]) for p, i, c in zip(positions, ids.tolist(), clean.tolist()) if c]
        redo = [p for p, c in zip(positions, clean.tolist()) if not c]
        return kept, redo

    def record(self, position: int, route: Route, recomputed: bool) -> None:
        """Keep ``position``'s route of this replay and dirty the later
        overlapping nets whose window it changed — (b) and (c)."""
        i = int(self.nid[position])
        self.routes[i] = route
        if recomputed:
            self.recomputed += 1
        else:
            self.replayed += 1
        old = self.previous.routes.get(i)
        changed = old is None or not old.same_geometry(route)
        if not (changed or self._has_fresh[i]):
            return
        lo, hi = self._starts[i], self._starts[i + 1]
        later, fresh = self._later[lo:hi], self._fresh[lo:hi]
        open_ = ~self.dirty[later]
        self._touch(route, later[open_ & fresh])
        if changed and old is not None:
            self._touch(route, later[open_ & ~fresh], old)

    def _touch(self, route: Route, later: np.ndarray, old: Optional[Route] = None) -> None:
        """Dirty the nets ``later`` whose incident-edge window holds a
        unit edge of ``route`` (of its symmetric difference with
        ``old``, when given)."""
        if not later.size:
            return
        cells = route._demand_index(self._graph)
        if old is not None:
            cells = np.setxor1d(cells, old._demand_index(self._graph), assume_unique=True)
        if not cells.size:
            return
        kind, _, x, y = edges_at(self._graph, cells)
        # An x-edge (x, y)-(x+1, y) is incident to a box whose x-range
        # reaches x + 1, a y-edge to one whose y-range reaches y + 1.
        x0, y0, x1, y1 = (c[None, :] for c in self._box[later].T)
        hit = (
            (x[:, None] + (kind == H_WIRE)[:, None] >= x0)
            & (x[:, None] <= x1)
            & (y[:, None] + (kind == V_WIRE)[:, None] >= y0)
            & (y[:, None] <= y1)
        ).any(axis=0)
        self.dirty[later[hit]] = True

    def finish(self) -> PatternReplay:
        """The successor state: this replay's nets, routes and pairs,
        renumbered densely (order-preserving, so the pair codes stay
        sorted) when nets left the design."""
        previous = self.previous
        ids, nid, routes, pairs = self.ids, self.nid, self.routes, self.pairs
        if nid.size != len(ids):
            new_id = np.full(len(ids), -1, dtype=np.int64)
            new_id[np.sort(nid)] = np.arange(nid.size, dtype=np.int64)
            ids = {net.name: int(new_id[i]) for net, i in zip(self.nets, nid.tolist())}
            nid = new_id[nid]
            routes = {int(new_id[i]): route for i, route in routes.items()}
            pairs = (new_id[pairs >> _SHIFT] << _SHIFT) | new_id[pairs & _LOW]
        return PatternReplay(
            ids=ids,
            nets={i: net for i, net in zip(nid.tolist(), self.nets)},
            routes=routes,
            pairs=pairs,
            replayed=previous.replayed + self.replayed,
            recomputed=previous.recomputed + self.recomputed,
        )


__all__ = ["PatternReplay", "ReplayPass"]
