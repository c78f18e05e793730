"""3-D maze routing: goal-directed multi-source search on the grid graph.

The maze router is the quality workhorse of the rip-up-and-reroute
iterations: unlike pattern routing it may take any monotone or
non-monotone path, so it can escape congestion the patterns cannot.
Search is restricted to the net's bounding box plus a margin (standard
practice; keeps the search region proportional to the net).

A multi-pin net is routed by growing a connected component: start from
one pin, search from every node of the component to the nearest
unconnected pin, add the found path to it, repeat; the route is the
unit edges of the found paths
(:func:`~repro.grid.route.routes_from_paths`).  Each search is ordered
by distance so far plus a lower bound on the remainder — a two-plane
congestion field per pin, built once per net — and returns exactly the
path plain Dijkstra would (DESIGN.md §5, "Goal-directed scalar maze
search").

A search expands a few dozen nodes of a window of hundreds, so what a
reroute pays around the heap loop is kept to calls whose number does
not grow with the window: the window is priced in one stacked call
(:meth:`~repro.grid.cost.CostModel.window_steps`), the search reads its
move tables and bound row as ``memoryview`` rows of float64 arrays (no
conversion to lists), and the route is keyed and indexed from the
paths' unit steps as arrays.

This module also defines the engine seams the wavefront engine
(:mod:`repro.maze.wavefront`) plugs into: :meth:`MazeRouter.route_net`
drives the multi-pin loop through ``_build_tables`` (per-net region
cost tables) and ``_search`` (one splice search, returning a node
path), both overridable; either engine builds its routes of those paths
with :func:`~repro.grid.route.routes_from_paths`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.grid.cost import CostModel
from repro.grid.graph import GridGraph
from repro.grid.geometry import Rect
from repro.grid.route import Route, routes_from_paths
from repro.netlist.net import Net

GridNode = Tuple[int, int, int]
#: Per-node moves of one search region: ``(index offset, flat costs)``
#: pairs in the order ``+x, -x, +y, -y, +layer, -layer``, the costs a
#: ``memoryview`` of float64 in the search's node order; ``inf`` marks
#: a forbidden move.
Moves = List[Tuple[int, memoryview]]


class SearchTables(NamedTuple):
    """Per-net region tables shared by the splice searches of one net.

    ``bounds[rows[pin]]`` is a lower bound on the distance from every
    region node to ``pin``, flattened in the search's node order
    (``(layer, x, y)``, row-major); every in-window pin the tables were
    built for has a row.
    """

    moves: Moves
    width: int
    height: int
    bounds: np.ndarray
    rows: Dict[GridNode, int]


# Relative slack on the incumbent bound: covers the last-ULP rounding of
# ``g + h`` so every node of an optimal path is still expanded.
_BOUND_SLACK = 1.0 + 1e-9
# The bound field's fixpoint stops at the first round whose V->H plane
# switch lowers no entry by more than this relative amount.
_FIELD_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


class MazeRoutingError(RuntimeError):
    """Raised when no path exists inside the search region."""


def search_box(net: Net, margin: int, graph: GridGraph) -> Rect:
    """The net's maze search window: bounding box plus margin, clipped.

    The one definition of the window — the search, the edge costs it
    prices, the session cache key and the scheduler footprint of a
    reroute task all derive from it.
    """
    return net.bbox.expanded(margin).clipped(graph.nx, graph.ny)


class MazeRouter:
    """Dijkstra-based 3-D router; each net's search window is priced
    from current demand."""

    engine_name = "dijkstra"

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        margin: int = 6,
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model or CostModel()
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
        # Bound-field plane of each layer: 0 = H, 1 = V.
        self._layer_plane = [int(not horizontal) for horizontal in graph.horizontal]
        # 0, 1, 2, ...: window coordinates are slices of it.
        self._ticks = np.arange(max(graph.nx, graph.ny, graph.n_layers))

    def route_net(self, net: Net) -> Route:
        """Route ``net`` from scratch against current demand.

        The caller must have ripped up any previous route of the net
        (its demand must not be in the graph).
        """
        pins = sorted({pin.as_node() for pin in net.pins})
        if len(pins) == 1:
            return Route()
        # Costs are frozen per net: price the search window from the
        # demand left by previously rerouted nets, build the region cost
        # tables and the bound fields of every pin but the start once,
        # and share them across the per-pin splice searches.
        region = self._region(net)
        tables = self._build_tables(region, pins[1:])
        component = {pins[0]}
        remaining = set(pins[1:])
        paths = []
        while remaining:
            path, reached = self._search(component, remaining, region, tables)
            paths.append(path)
            component.update(path)
            remaining.discard(reached)
        return routes_from_paths(self.graph, [paths])[0]

    def consume_visited(self) -> int:
        """Return and reset the visited-node tally of this router."""
        visited = self._visited_nodes
        self._visited_nodes = 0
        return visited

    # ------------------------------------------------------------------ #
    # Engine seams (the wavefront engine overrides these)
    # ------------------------------------------------------------------ #
    def _build_tables(
        self, region: Tuple[int, int, int, int], pins: Sequence[GridNode]
    ) -> SearchTables:
        """Build the per-net region tables the searches share: the move
        tables and a bound field for each in-window pin of ``pins``.

        The window is priced once, into a ``(3, L + 1, W, H)`` buffer:
        family ``k`` (``+x``, ``+y``, ``+layer``) holds a layer of
        ``inf`` and then its forward step costs on the ``L`` layers.
        The move tables are views of it: the
        ``-offset`` move out of ``idx`` is the ``+offset`` move out of
        ``idx - offset``, so its table is the forward row shifted back
        by ``offset <= W * H``, and where that node lies in another row,
        column or layer its ``+offset`` entry is the ``inf`` of the
        window's far side, or of the padding for the first ``offset``
        entries.  The hot search loop indexes ``memoryview`` rows —
        scalar indexing into NumPy arrays is an order of magnitude
        slower — and the search reads a few dozen entries of a window
        of hundreds, so nothing is converted to lists.
        """
        x0, y0, x1, y1 = region
        width = x1 - x0 + 1
        height = y1 - y0 + 1
        plane = width * height
        n_layers = self.graph.n_layers
        size = n_layers * plane
        row = plane + size
        table = np.empty((3, n_layers + 1, width, height))
        table[:, 0] = np.inf
        steps = self.cost_model.window_steps(self.graph, region, out=table[:, 1:])
        flat = memoryview(table.reshape(-1))
        moves: Moves = []
        for start, offset in zip((plane, row + plane, 2 * row + plane), (height, 1, plane)):
            moves.append((offset, flat[start : start + size]))
            moves.append((-offset, flat[start - offset : start - offset + size]))
        bounds, rows = self._bound_fields(region, steps, pins)
        return SearchTables(moves, width, height, bounds, rows)

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

    def _bound_fields(
        self,
        region: Tuple[int, int, int, int],
        steps: np.ndarray,
        pins: Sequence[GridNode],
    ) -> Tuple[np.ndarray, Dict[GridNode, int]]:
        """Lower bounds on the distance from every node to each pin.

        Returns ``(bounds, rows)``: row ``rows[pin]`` of the
        ``(pins, L * W * H)`` array ``bounds`` bounds the distance to
        ``pin`` for every node of the region, in search order.  Pins
        outside the region get no row.

        The bound is the exact distance on a two-plane relaxation of
        the window: plane H keeps, per x-edge, the cheapest wire cost
        over the horizontal layers, plane V the same for y-edges over
        the vertical layers, and switching planes costs the cheapest
        via step at that G-cell.  Every real path maps onto a relaxed
        path that costs no more, so the relaxed distance is a lower
        bound.  All pins go through one stacked ``(2, pins, W, H)``
        fixpoint of prefix-sum/``cummin`` run sweeps (the wavefront
        recurrence ``d' = P + cummin(d - P)``), updated in place.
        Each entry is then max'd with the Manhattan term
        ``wire_min·(|dx| + |dy|) + via_min·|dl|`` and shrunk by a
        margin that covers the stopping tolerance and the rounding of
        the sweeps (DESIGN.md §5, "the bound field").
        """
        x0, y0, x1, y1 = region
        n_layers, width, height = steps.shape[1:]
        in_window = [p for p in pins if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
        rows = {pin: row for row, pin in enumerate(in_window)}
        n_pins = len(in_window)
        if not n_pins:
            return np.empty((0, n_layers * width * height)), rows

        # Plane costs: vertical layers are inf in the x steps,
        # horizontal ones in the y steps and the top layer in the via
        # steps, so a min over all layers keeps the cheapest step of
        # each kind.
        least = np.minimum.reduce
        cheapest = least(steps, axis=1)
        step_x = cheapest[0, :-1]
        step_y = cheapest[1, :, :-1]
        step_z = cheapest[2]
        min_x, min_y, via_min = least(cheapest, axis=(1, 2)).tolist()
        # A 1x1 window has no wire step; a stack always has a via step.
        wire_min = min(min_x, min_y)
        if wire_min == np.inf:
            wire_min = 0.0
        # Every plane the fixpoint touches is one of nine of a single
        # block, all at the stacked shape: same-shape in-place ops skip
        # the broadcasting machinery.  Run prefixes and switch costs
        # first (pin 0's row, copied to the others), then the scratch.
        shape = (n_pins, width, height)
        block = np.empty((9,) + shape)
        prefix, prefix2 = block[0:2], block[2:4]
        prefix_x, prefix_y = prefix
        prefix_x[0, 0] = 0.0
        np.cumsum(step_x, axis=0, out=prefix_x[0, 1:])
        prefix_y[0, :, 0] = 0.0
        np.cumsum(step_y, axis=1, out=prefix_y[0, :, 1:])
        prefix[:, 1:] = prefix[:, :1]
        np.add(prefix, prefix, out=prefix2)
        prefix_x2, prefix_y2 = prefix2
        switch_cost, switch, limit = block[4:7]
        switch_cost[:] = step_z
        # Each pin's field is 0 at the pin, on its layer's plane.
        field = block[7:9]
        field.fill(np.inf)
        plane_of = self._layer_plane
        field.put(
            [
                ((plane_of[layer] * n_pins + i) * width + x - x0) * height + y - y0
                for i, (x, y, layer) in enumerate(in_window)
            ],
            0.0,
        )
        field_h, field_v = field
        # A backward run is the forward sweep on a reversed view.
        field_h_rev = field_h[:, ::-1]
        field_v_rev = field_v[:, :, ::-1]
        lowered = np.empty(shape, dtype=bool)
        cummin = np.minimum.accumulate
        rounds = 0
        while True:
            rounds += 1
            field_h -= prefix_x
            cummin(field_h, axis=1, out=field_h)
            field_h += prefix_x2
            cummin(field_h_rev, axis=1, out=field_h_rev)
            field_h -= prefix_x
            np.add(field_h, switch_cost, out=switch)
            np.minimum(field_v, switch, out=field_v)
            field_v -= prefix_y
            cummin(field_v, axis=2, out=field_v)
            field_v += prefix_y2
            cummin(field_v_rev, axis=2, out=field_v_rev)
            field_v -= prefix_y
            # Convergence is read off the V->H switch: when it lowers
            # nothing (beyond the tolerance), another round cannot.
            np.add(field_v, switch_cost, out=switch)
            np.multiply(field_h, 1.0 - _FIELD_TOL, out=limit)
            np.less(switch, limit, out=lowered)
            np.minimum(field_h, switch, out=field_h)
            if not lowered.any():
                break

        # |dx|, |dy| and |dl| of every pin, side by side.
        ticks = self._ticks
        span = np.abs(
            np.concatenate((ticks[x0 : x1 + 1], ticks[y0 : y1 + 1], ticks[:n_layers]))
            - np.array(in_window).repeat((width, height, n_layers), axis=1)
        )
        dx, dy, dl = span[:, :width], span[:, width:-n_layers], span[:, -n_layers:]
        wire = wire_min * (dx[:, :, None] + dy[:, None, :])
        manhattan = wire[:, None] + (via_min * dl)[:, :, None, None]
        bounds = field.transpose(1, 0, 2, 3)[:, self._layer_plane]
        np.maximum(bounds, manhattan, out=bounds)
        # Stopping early over-estimates an entry by at most 2·W·H·tol
        # of itself; each of the <= 10 float ops per round an entry's
        # value passes through errs by < eps·(max field + 2·max prefix).
        bounds *= 1.0 - 2 * width * height * _FIELD_TOL
        most = np.maximum.reduce
        bounds -= 16 * rounds * _EPS * (
            most(field, axis=None) + most(prefix_x2[0, -1]) + most(prefix_y2[0, :, -1])
        )
        return bounds.reshape(n_pins, -1), rows

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
        tables: Optional[SearchTables] = None,
    ) -> Tuple[List[GridNode], GridNode]:
        """Shortest path from any source node to any target node.

        Goal-directed: the heap is ordered by ``g + h`` where ``h`` is
        an admissible lower bound on the remaining distance (the
        remaining targets' bound fields), and the search stops once
        nothing left can beat the best target found.  The returned
        ``(path, reached)`` is the one a plain ``(dist, idx)``-ordered
        Dijkstra with first-relaxer parents returns, bit for bit
        (DESIGN.md §5, "the equal-cost tie-break contract").  Without
        ``tables`` they are built for ``targets``.
        """
        x0, y0, x1, y1 = region
        starts = [s for s in sources if x0 <= s[0] <= x1 and y0 <= s[1] <= y1]
        in_region = [t for t in targets if x0 <= t[0] <= x1 and y0 <= t[1] <= y1]
        # Validate before dirtying the shared scratch: raising after
        # seeding would leave stale zeros for the next search.
        if not in_region or not starts:
            raise MazeRoutingError("pins outside search region")
        if tables is None:
            tables = self._build_tables(region, in_region)
        moves, width, height, bounds, rows = tables
        size = self.graph.n_layers * width * height

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
        seeds = [encode(s) for s in starts]
        target_idx = {encode(t) for t in in_region}
        # h[idx]: a lower bound on the remainder to the nearest target.
        if len(in_region) == 1:
            h = memoryview(bounds[rows[in_region[0]]])
        else:
            h = memoryview(bounds[[rows[t] for t in in_region]].min(axis=0))

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


__all__ = ["MazeRouter", "MazeRoutingError", "search_box"]
