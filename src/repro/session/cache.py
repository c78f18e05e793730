"""Content keys and caches: the maze replay's lever, the pattern
replay's oracle.

A content key hashes everything a task reads:

* a **pattern net**'s DP output is a pure function of the net (name +
  pins), its bounding box, the demand inside the box's incident-edge
  footprint, and the stage-start zero-demand cost reference (a session
  constant) — :func:`pattern_net_key` over :func:`demand_signature`;
* a **maze re-route** is a pure function of the net, its clipped
  search region, and the demand inside the region's incident-edge
  footprint (captured *after* the net's old route is ripped up) —
  :func:`maze_task_key`.

The maze stage looks its keys up in a :class:`RouteCache`: a hit
commits the cached route and skips the search; a miss recomputes and
stores.  The pattern stage no longer hashes: it decides which nets are
clean by structure (:mod:`repro.session.replay`), and the pattern key
survives as that decision's test oracle (``tests/replay_oracle.py``) —
every clean verdict must be a key hit with the same route.  Either way results are
bit-identical to a cold run; only speed changes.

The hashed windows are the boxes' *incident-edge* slices (edges with
at least one endpoint inside the box) plus the box's via pillars —
exactly the demand the DP's masked rebuild and the edge-shifting
probes (``_local_demand`` reads edges at ``x-1``/``x``, ``y-1``/``y``)
can observe.

Routing itself runs on one thread; the caches keep their locks because
the job service's HTTP threads read ``stats()`` (and share the store's
Steiner cache) while its worker thread routes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Iterable, Sequence, Tuple

from repro.grid.graph import GridGraph
from repro.netlist.net import Net
from repro.tree.steiner import SteinerTree, TreeNode

#: ``(xlo, ylo, xhi, yhi)`` G-cell window (a Rect works too).
Window = Tuple[int, int, int, int]


def _as_window(box) -> Window:
    if hasattr(box, "as_tuple"):
        return box.as_tuple()
    return tuple(box)


def demand_signature(graph: GridGraph, boxes: Iterable) -> str:
    """Hash the demand a task restricted to ``boxes`` can read.

    For each G-cell box this covers every wire edge *incident* to a
    box cell (one endpoint may lie just outside — the edge-shifting
    probe's reach) and the box's via pillars.  16-byte blake2b: a
    collision is negligible against the cost of a spurious hit, and a
    spurious *miss* merely recomputes.
    """
    h = blake2b(digest_size=16)
    nx, ny = graph.nx, graph.ny
    for box in boxes:
        x0, y0, x1, y1 = _as_window(box)
        x0, y0 = max(x0, 0), max(y0, 0)
        x1, y1 = min(x1, nx - 1), min(y1, ny - 1)
        h.update(b"%d,%d,%d,%d;" % (x0, y0, x1, y1))
        for layer in range(graph.n_layers):
            dem = graph.wire_demand[layer]
            if graph.stack.is_horizontal(layer):
                sl = dem[max(x0 - 1, 0) : min(x1 + 1, nx - 1), y0 : y1 + 1]
            else:
                sl = dem[x0 : x1 + 1, max(y0 - 1, 0) : min(y1 + 1, ny - 1)]
            h.update(sl.tobytes())
        h.update(graph.via_demand[:, x0 : x1 + 1, y0 : y1 + 1].tobytes())
    return h.hexdigest()


def _net_token(net: Net) -> tuple:
    return (net.name, net.pins)


def pattern_net_key(net: Net, box, signature: str) -> str:
    """Key of one net's pattern route (net + box + demand context).

    Per-net, not per-task: task-mates have disjoint boxes and share a
    cost snapshot frozen at task start, so a net's DP output depends
    only on its own box's demand context — not on which task the
    batch extractor happened to place it in.  That is what lets an ECO
    replay reuse routes even though an edit reshuffles the global
    sort/batch decomposition.
    """
    h = blake2b(digest_size=16)
    h.update(b"pattern:")
    h.update(repr(_net_token(net)).encode())
    h.update(repr(_as_window(box)).encode())
    h.update(signature.encode())
    return h.hexdigest()


def maze_task_key(net: Net, region: Window, signature: str) -> str:
    """Key of one maze re-route task (net + region + demand context)."""
    h = blake2b(digest_size=16)
    h.update(b"maze:")
    h.update(repr(_net_token(net)).encode())
    h.update(repr(tuple(region)).encode())
    h.update(signature.encode())
    return h.hexdigest()


class RouteCache:
    """Thread-safe LRU of task results keyed by content digests.

    Values are maze re-routes: a :class:`~repro.grid.route.Route`, or
    ``None`` for a search failure.  Routes are geometry-immutable after
    construction, so entries are shared, not copied.
    """

    def __init__(self, max_entries: int = 65_536) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(found, value)``; ``value`` may legitimately be None."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class SteinerTreeCache:
    """Shared cache of *unshifted* Steiner trees keyed by net content.

    Tree topology depends only on the pins; edge shifting then mutates
    node positions against live demand, so :meth:`tree` always hands
    out a fresh clone of the cached topology.
    """

    def __init__(self, max_entries: int = 65_536) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, SteinerTree]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _clone(tree: SteinerTree) -> SteinerTree:
        return SteinerTree(
            [
                TreeNode(n.index, n.point, n.pin_layers, list(n.neighbors))
                for n in tree.nodes
            ]
        )

    def tree(self, net: Net) -> SteinerTree:
        """Return a private copy of ``net``'s Steiner tree."""
        key = _net_token(net)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._clone(cached)
            self.misses += 1
        from repro.tree.steiner import build_steiner_tree

        tree = build_steiner_tree(net)
        with self._lock:
            self._entries[key] = self._clone(tree)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return tree

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


__all__ = [
    "RouteCache",
    "SteinerTreeCache",
    "demand_signature",
    "pattern_net_key",
    "maze_task_key",
]
