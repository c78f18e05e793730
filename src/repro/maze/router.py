"""3-D maze routing: goal-directed multi-source search on the grid graph.

The maze router is the quality workhorse of the rip-up-and-reroute
iterations: unlike pattern routing it may take any monotone or
non-monotone path, so it can escape congestion the patterns cannot.
Search is restricted to the net's bounding box plus a margin (standard
practice; keeps the search region proportional to the net).

A multi-pin net is routed by growing a connected component: start from
one pin, search from every node of the component to the nearest
unconnected pin, splice the found path in, repeat.  Each search is
ordered by distance so far plus a lower bound on the remainder and
returns exactly the path plain Dijkstra would (DESIGN.md §5,
"Goal-directed scalar maze search").

This module also defines the engine seams the wavefront engine
(:mod:`repro.maze.wavefront`) plugs into: :meth:`MazeRouter.route_net`
drives the multi-pin loop through ``_build_tables`` (per-net region
cost tables) and ``_search`` (one splice search), both overridable.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.geometry import Rect
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.netlist.net import Net
from repro.pattern.commit import normalize_route

GridNode = Tuple[int, int, int]
#: ``(moves, width, height, wire_min, via_min)`` of one search region.
MoveTables = Tuple[List[Tuple[int, List[float]]], int, int, float, float]

# Relative slack on the incumbent bound: covers the last-ULP rounding of
# ``g + h`` so every node of an optimal path is still expanded.
_BOUND_SLACK = 1.0 + 1e-9


class MazeRoutingError(RuntimeError):
    """Raised when no path exists inside the search region."""


def search_box(net: Net, margin: int, graph: GridGraph) -> Rect:
    """The net's maze search window: bounding box plus margin, clipped.

    The one definition of the window — the search, the windowed cost
    refresh, the session cache key and the scheduler footprint of a
    reroute task all derive from it.
    """
    return net.bbox.expanded(margin).clipped(graph.nx, graph.ny)


class MazeRouter:
    """Dijkstra-based 3-D router over a cost snapshot."""

    engine_name = "dijkstra"

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        margin: int = 6,
        query: Optional[CostQuery] = None,
        cost_engine: str = "full",
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model or CostModel()
        self.query = query or CostQuery(graph, self.cost_model, engine=cost_engine)
        self.margin = margin
        # Search scratch (dist), grown to the largest region seen and
        # reused across splice searches *and* route_net calls:
        # per-search cleanup touches only the entries a search dirtied,
        # so reuse costs O(touched) instead of O(region) per search.
        self._scratch_size = 0
        self._dist: List[float] = []
        # Node expansions since the last consume_visited() call (a node
        # re-expanded after an improvement counts again).
        self._visited_nodes = 0

    def route_net(self, net: Net, rebuild: bool = True) -> Route:
        """Route ``net`` from scratch against current demand.

        The caller must have ripped up any previous route of the net
        (its demand must not be in the graph).  With ``rebuild=True``
        the cost snapshot is refreshed first so the search sees the
        demand left by previously rerouted nets.
        """
        pins = sorted({pin.as_node() for pin in net.pins})
        region = self._region(net)
        if rebuild:
            # The incremental engine refreshes only dirty regions that
            # intersect this net's search window; the rest stay pending
            # (and guarded) for whichever net's window reaches them.
            self.query.rebuild(window=region)
        if len(pins) == 1:
            return Route()
        # Costs are frozen per net: build the region cost tables once
        # and share them across the per-pin splice searches.
        tables = self._build_tables(region)
        component = {pins[0]}
        remaining = set(pins[1:])
        route = Route()
        while remaining:
            path, reached = self._search(component, remaining, region, tables)
            self._splice(route, path)
            component.update(path)
            remaining.discard(reached)
        return normalize_route(route)

    def consume_visited(self) -> int:
        """Return and reset the visited-node tally of this router."""
        visited = self._visited_nodes
        self._visited_nodes = 0
        return visited

    # ------------------------------------------------------------------ #
    # Engine seams (the wavefront engine overrides these)
    # ------------------------------------------------------------------ #
    def _build_tables(self, region: Tuple[int, int, int, int]):
        """Build the per-net region cost tables the searches share."""
        return self._move_tables(region)

    def _search(
        self,
        sources: set,
        targets: set,
        region: Tuple[int, int, int, int],
        tables,
    ) -> Tuple[List[GridNode], GridNode]:
        """One splice search: shortest source-set -> target-set path."""
        return self._dijkstra(sources, targets, region, tables)

    # ------------------------------------------------------------------ #
    # Search internals
    # ------------------------------------------------------------------ #
    def _region(self, net: Net) -> Tuple[int, int, int, int]:
        """Return the search window as ``(x0, y0, x1, y1)``."""
        return search_box(net, self.margin, self.graph).as_tuple()

    def _move_tables(
        self, region: Tuple[int, int, int, int]
    ) -> MoveTables:
        """Precompute per-node move costs for a region as Python lists.

        Returns ``(moves, width, height, wire_min, via_min)`` where
        ``moves`` pairs an index offset with a flat cost list (``inf``
        marks a forbidden move).  The hot search loop then runs on plain
        lists — scalar indexing into NumPy arrays is an order of
        magnitude slower.  ``wire_min`` / ``via_min`` are the smallest
        wire / via step in the region (0.0 when a 1x1 region has no wire
        step): the per-step lower bounds behind the search's ``h``.
        """
        x0, y0, x1, y1 = region
        width = x1 - x0 + 1
        height = y1 - y0 + 1
        n_layers = self.graph.n_layers
        plane = width * height
        stack = self.graph.stack

        pos_x = np.full((n_layers, width, height), np.inf)
        neg_x = np.full((n_layers, width, height), np.inf)
        pos_y = np.full((n_layers, width, height), np.inf)
        neg_y = np.full((n_layers, width, height), np.inf)
        for layer in range(n_layers):
            cost = self.query.wire_cost[layer]
            if stack.is_horizontal(layer):
                # Edge (x, y)-(x+1, y) has cost[x, y].
                sub = cost[x0:x1, y0 : y1 + 1]
                pos_x[layer, : width - 1, :] = sub
                neg_x[layer, 1:, :] = sub
            else:
                sub = cost[x0 : x1 + 1, y0:y1]
                pos_y[layer, :, : height - 1] = sub
                neg_y[layer, :, 1:] = sub
        via = self.query.via_cost[:, x0 : x1 + 1, y0 : y1 + 1]
        pos_z = np.full((n_layers, width, height), np.inf)
        neg_z = np.full((n_layers, width, height), np.inf)
        pos_z[: n_layers - 1] = via
        neg_z[1:] = via

        moves = [
            (height, pos_x.reshape(-1).tolist()),
            (-height, neg_x.reshape(-1).tolist()),
            (1, pos_y.reshape(-1).tolist()),
            (-1, neg_y.reshape(-1).tolist()),
            (plane, pos_z.reshape(-1).tolist()),
            (-plane, neg_z.reshape(-1).tolist()),
        ]
        # A 1x1 window has no wire step; a stack always has a via step.
        wire_min = float(min(pos_x.min(), pos_y.min()))
        if wire_min == np.inf:
            wire_min = 0.0
        return moves, width, height, wire_min, float(via.min())

    def _acquire_scratch(self, size: int) -> List[float]:
        """Return the shared dist buffer, grown to ``size``."""
        if self._scratch_size < size:
            self._dist = [float("inf")] * size
            self._scratch_size = size
        return self._dist

    def _dijkstra(
        self,
        sources: set,
        targets: set,
        region: Tuple[int, int, int, int],
        tables: Optional[MoveTables] = None,
    ) -> Tuple[List[GridNode], GridNode]:
        """Shortest path from any source node to any target node.

        Goal-directed: the heap is ordered by ``g + h`` where ``h`` is a
        consistent lower bound on the remaining distance, and the search
        stops once nothing left can beat the best target found.  The
        returned ``(path, reached)`` is the one a plain ``(dist, idx)``
        -ordered Dijkstra with first-relaxer parents returns, bit for
        bit (DESIGN.md §5, "the equal-cost tie-break contract").
        """
        x0, y0, x1, y1 = region
        moves, width, height, wire_min, via_min = (
            tables if tables is not None else self._move_tables(region)
        )
        n_layers = self.graph.n_layers
        size = n_layers * width * height

        def encode(node: GridNode) -> int:
            x, y, layer = node
            return (layer * width + (x - x0)) * height + (y - y0)

        def decode(idx: int) -> GridNode:
            y = idx % height
            rest = idx // height
            x = rest % width
            layer = rest // width
            return (x + x0, y + y0, layer)

        inf = float("inf")
        seeds = [
            encode(s) for s in sources if x0 <= s[0] <= x1 and y0 <= s[1] <= y1
        ]
        in_region = [t for t in targets if x0 <= t[0] <= x1 and y0 <= t[1] <= y1]
        # Validate before dirtying the shared scratch: raising after
        # seeding would leave stale zeros for the next search.
        if not in_region or not seeds:
            raise MazeRoutingError("pins outside search region")
        target_idx = {encode(t) for t in in_region}

        # h[idx]: cheapest conceivable remainder to the nearest target —
        # every wire step costs >= wire_min, every via step >= via_min.
        # One (targets, layers, width, height) broadcast, flattened in
        # encode() order.
        tx, ty, tl = (
            np.array(axis)[:, None, None, None] for axis in zip(*in_region)
        )
        wire_steps = np.abs(np.arange(x0, x1 + 1)[:, None] - tx) + np.abs(
            np.arange(y0, y1 + 1) - ty
        )
        via_steps = np.abs(np.arange(n_layers)[:, None, None] - tl)
        h: List[float] = (
            (wire_min * wire_steps + via_min * via_steps)
            .min(axis=0)
            .reshape(-1)
            .tolist()
        )

        dist = self._acquire_scratch(size)
        touched: List[int] = list(seeds)
        for idx in seeds:
            dist[idx] = 0.0
        heap: List[Tuple[float, float, int]] = [(h[idx], 0.0, idx) for idx in seeds]
        heapq.heapify(heap)

        heappush = heapq.heappush
        heappop = heapq.heappop
        bound = inf
        n_expanded = 0
        try:
            while heap:
                f, g, idx = heappop(heap)
                if f > bound:
                    break
                if g > dist[idx]:
                    continue  # stale: idx was improved after this push
                n_expanded += 1
                for offset, costs in moves:
                    cost = costs[idx]
                    if cost != inf:
                        nxt = idx + offset
                        nd = g + cost
                        if nd < dist[nxt]:
                            nf = nd + h[nxt]
                            if nf <= bound:
                                if dist[nxt] == inf:
                                    touched.append(nxt)
                                dist[nxt] = nd
                                if nxt in target_idx:
                                    # Targets tighten the bound and are
                                    # never expanded.
                                    if nd * _BOUND_SLACK < bound:
                                        bound = nd * _BOUND_SLACK
                                else:
                                    heappush(heap, (nf, nd, nxt))

            best, reached = min((dist[t], t) for t in target_idx)
            if best == inf:
                raise MazeRoutingError("maze search exhausted without reaching a pin")

            # Canonical descent: the predecessor is the optimal one with
            # the smallest (dist, idx) — the first relaxer under plain
            # Dijkstra order.  Window-border wraps of ``idx - offset``
            # land on ``inf`` table entries or outside ``[0, size)``.
            path = [decode(reached)]
            idx = reached
            while dist[idx] != 0.0:
                d = dist[idx]
                pred_d, pred = inf, -1
                for offset, costs in moves:
                    p = idx - offset
                    if 0 <= p < size:
                        dp = dist[p]
                        if dp + costs[p] == d and (dp, p) < (pred_d, pred):
                            pred_d, pred = dp, p
                assert pred >= 0, "descent lost the optimal predecessor"
                idx = pred
                path.append(decode(idx))
            path.reverse()
            return path, decode(reached)
        finally:
            self._visited_nodes += n_expanded
            # Undo only what this search dirtied, so the next search
            # starts from a clean buffer without an O(size) refill.
            for idx in touched:
                dist[idx] = inf

    @staticmethod
    def _splice(route: Route, path: Sequence[GridNode]) -> None:
        """Convert a node path into wire/via segments appended to ``route``."""
        if len(path) < 2:
            return
        run_start = path[0]
        prev = path[0]
        prev_kind = None  # 'H', 'V', or 'Z' (via)

        def flush(last: GridNode) -> None:
            if prev_kind is None or run_start == last:
                return
            if prev_kind == "Z":
                route.add_via(ViaSegment(last[0], last[1], run_start[2], last[2]))
            else:
                route.add_wire(
                    WireSegment(last[2], run_start[0], run_start[1], last[0], last[1])
                )

        for node in path[1:]:
            if node[2] != prev[2]:
                kind = "Z"
            elif node[1] == prev[1]:
                kind = "H"
            else:
                kind = "V"
            if kind != prev_kind and prev_kind is not None:
                flush(prev)
                run_start = prev
            elif prev_kind is None:
                run_start = prev
            prev_kind = kind
            prev = node
        flush(prev)


__all__ = ["MazeRouter", "MazeRoutingError", "search_box"]
