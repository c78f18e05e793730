"""The list-table maze search oracle.

:class:`~repro.maze.router.MazeRouter` prices a net's window in one
stacked call (:meth:`~repro.grid.cost.CostModel.window_steps`), searches
it through ``memoryview`` move tables and bound rows, and builds the
route from the path steps as arrays.  Its contract is that routes,
search paths and node expansions are those of the plain list-table
search this module keeps:

* :func:`window_costs` prices the window layer by layer, one
  ``congestion`` call per layer and one for the vias;
* :func:`list_move_tables` lays those costs out as Python lists, the
  backward lists shifted copies of the forward ones;
* :func:`bound_fields` is the two-plane bound field, written out call by
  call;
* :class:`ListMazeRouter` runs the goal-directed search on those lists
  (the bound as a list too) and builds its routes from one Python row
  per path step, through :func:`~repro.grid.route.normalize_table` and
  :func:`~repro.grid.route.demand_positions`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.grid.cost import CostModel
from repro.grid.graph import GridGraph
from repro.grid.route import (
    H_WIRE,
    V_WIRE,
    VIA,
    Route,
    _assign_index,
    demand_positions,
    normalize_table,
    routes_from_table,
)
from repro.maze.router import (
    _BOUND_SLACK,
    _EPS,
    _FIELD_TOL,
    MazeRouter,
    MazeRoutingError,
    SearchTables,
)

GridNode = Tuple[int, int, int]
Region = Tuple[int, int, int, int]


def window_costs(
    model: CostModel, graph: GridGraph, region: Region
) -> Tuple[List[np.ndarray], np.ndarray]:
    """``(wire, via)`` of the window ``(x0, y0, x1, y1)``: ``wire[layer]``
    the layer's edges with both ends in the window — ``(W-1, H)`` on a
    horizontal layer, ``(W, H-1)`` on a vertical one, edge ``[i, j]``
    leaving G-cell ``(x0+i, y0+j)`` — and ``via`` the ``(L-1, W, H)``
    via edges, each layer priced on its own."""
    x0, y0, x1, y1 = region
    wire = []
    for layer, horizontal in enumerate(graph.horizontal):
        window = (
            (slice(x0, x1), slice(y0, y1 + 1))
            if horizontal
            else (slice(x0, x1 + 1), slice(y0, y1))
        )
        wire.append(model.unit_wire_cost + model.congestion(
            graph.wire_demand[layer][window], graph.wire_capacity[layer][window]
        ))
    window = (slice(None), slice(x0, x1 + 1), slice(y0, y1 + 1))
    via = model.unit_via_cost + model.congestion(
        graph.via_demand[window], graph.via_capacity[window]
    )
    return wire, via


def list_move_tables(graph: GridGraph, model: CostModel, region: Region):
    """``(moves, width, height, steps)``: ``moves`` the ``(offset, cost
    list)`` pairs ``+x, -x, +y, -y, +layer, -layer`` of the window, and
    ``steps`` the ``+x, +y, +layer`` costs as one ``(3, L, W, H)``
    array (``inf`` where a step has no edge in the window)."""
    x0, y0, x1, y1 = region
    width = x1 - x0 + 1
    height = y1 - y0 + 1
    wire, via = window_costs(model, graph, region)
    steps = np.full((3, graph.n_layers, width, height), np.inf)
    pos_x, pos_y, pos_z = steps
    for layer, horizontal in enumerate(graph.horizontal):
        if horizontal:
            pos_x[layer, :-1] = wire[layer]
        else:
            pos_y[layer, :, :-1] = wire[layer]
    pos_z[:-1] = via
    plane = width * height
    inf = float("inf")
    moves = []
    for offset, costs in zip((height, 1, plane), steps.reshape(3, -1).tolist()):
        moves.append((offset, costs))
        moves.append((-offset, [inf] * offset + costs[:-offset]))
    return moves, width, height, steps


def bound_fields(
    graph: GridGraph, region: Region, steps: np.ndarray, pins: Sequence[GridNode]
) -> Tuple[np.ndarray, Dict[GridNode, int]]:
    """``(bounds, rows)`` of the two-plane bound field: row ``rows[pin]``
    of ``bounds`` bounds the distance to ``pin`` from every node of the
    window, in search order; pins outside the window get no row."""
    x0, y0, x1, y1 = region
    n_layers, width, height = steps.shape[1:]
    in_window = [p for p in pins if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
    rows = {pin: row for row, pin in enumerate(in_window)}
    n_pins = len(in_window)
    if not n_pins:
        return np.empty((0, n_layers * width * height)), rows
    cheapest = steps.min(axis=1)
    step_x = cheapest[0, :-1]
    step_y = cheapest[1, :, :-1]
    step_z = cheapest[2]
    wire_min = float(cheapest[:2].min())
    if wire_min == np.inf:
        wire_min = 0.0
    via_min = float(step_z.min())
    shape = (n_pins, width, height)
    prefix_x = np.zeros(shape)
    np.cumsum(step_x, axis=0, out=prefix_x[0, 1:])
    prefix_y = np.zeros(shape)
    np.cumsum(step_y, axis=1, out=prefix_y[0, :, 1:])
    switch_cost = np.empty(shape)
    switch_cost[:] = step_z
    prefix_x[1:] = prefix_x[0]
    prefix_y[1:] = prefix_y[0]
    prefix_x2 = prefix_x + prefix_x
    prefix_y2 = prefix_y + prefix_y

    tx, ty, tl = np.array(in_window).T
    layer_plane = (~graph.horizontal).astype(int)
    field = np.full((2,) + shape, np.inf)
    field[layer_plane[tl], np.arange(n_pins), tx - x0, ty - y0] = 0.0
    field_h, field_v = field
    field_h_rev = field_h[:, ::-1]
    field_v_rev = field_v[:, :, ::-1]
    switch = np.empty(shape)
    limit = np.empty(shape)
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
        np.add(field_v, switch_cost, out=switch)
        np.multiply(field_h, 1.0 - _FIELD_TOL, out=limit)
        np.less(switch, limit, out=lowered)
        np.minimum(field_h, switch, out=field_h)
        if not lowered.any():
            break

    dx = np.abs(np.arange(x0, x1 + 1) - tx[:, None])
    dy = np.abs(np.arange(y0, y1 + 1) - ty[:, None])
    dl = np.abs(np.arange(n_layers) - tl[:, None])
    wire = wire_min * (dx[:, :, None] + dy[:, None, :])
    manhattan = wire[:, None] + (via_min * dl)[:, :, None, None]
    bounds = field.transpose(1, 0, 2, 3)[:, layer_plane]
    np.maximum(bounds, manhattan, out=bounds)
    bounds *= 1.0 - 2 * width * height * _FIELD_TOL
    bounds -= 16 * rounds * _EPS * (
        field.max() + prefix_x2[0, -1].max() + prefix_y2[0, :, -1].max()
    )
    return bounds.reshape(n_pins, -1), rows


def routes_from_rows(
    graph: GridGraph, paths: Sequence[Sequence[Sequence[GridNode]]]
) -> List[Route]:
    """One route per entry of ``paths`` (node paths of unit steps): one
    segment-table row per step, normalised, with the demand index of
    every route filled."""
    rows = []
    for j, group in enumerate(paths):
        for path in group:
            for (x, y, layer), (x2, y2, layer2) in zip(path, path[1:]):
                if abs(x2 - x) + abs(y2 - y) + abs(layer2 - layer) != 1:
                    raise ValueError(f"no unit step: {(x, y, layer)} -> {(x2, y2, layer2)}")
                if layer != layer2:
                    rows.append((VIA, j, x, y, min(layer, layer2), max(layer, layer2)))
                elif y == y2:
                    rows.append((H_WIRE, j, layer, y, min(x, x2), max(x, x2)))
                else:
                    rows.append((V_WIRE, j, layer, x, min(y, y2), max(y, y2)))
    raw = np.array(rows, dtype=np.intp).reshape(-1, 6).T
    table = normalize_table(raw, len(paths))
    routes = routes_from_table(table, len(paths))
    _assign_index(graph, routes, demand_positions(graph, table))
    return routes


class ListMazeRouter(MazeRouter):
    """:class:`MazeRouter` on list tables: the same multi-pin loop, with
    the tables, the search and the route build of this module.  Each
    splice search's ``(path, reached)`` is appended to ``searches``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.searches: List[Tuple[List[GridNode], GridNode]] = []

    def route_net(self, net) -> Route:
        pins = sorted({pin.as_node() for pin in net.pins})
        if len(pins) == 1:
            return Route()
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
        return routes_from_rows(self.graph, [paths])[0]

    def _build_tables(self, region: Region, pins: Sequence[GridNode]) -> SearchTables:
        moves, width, height, steps = list_move_tables(self.graph, self.cost_model, region)
        bounds, rows = bound_fields(self.graph, region, steps, pins)
        return SearchTables(moves, width, height, bounds, rows)

    def _dijkstra(self, sources, targets, region, tables=None):
        found = list_search(self, sources, targets, region, tables)
        self.searches.append(found)
        return found


def list_search(router: MazeRouter, sources, targets, region: Region, tables=None):
    """The goal-directed search of :meth:`MazeRouter._dijkstra` on list
    tables: ``(path, reached)``, with the expansions added to
    ``router._visited_nodes``."""
    x0, y0, x1, y1 = region
    starts = [s for s in sources if x0 <= s[0] <= x1 and y0 <= s[1] <= y1]
    in_region = [t for t in targets if x0 <= t[0] <= x1 and y0 <= t[1] <= y1]
    if not in_region or not starts:
        raise MazeRoutingError("pins outside search region")
    if tables is None:
        tables = router._build_tables(region, in_region)
    moves, width, height, bounds, rows = tables
    size = router.graph.n_layers * width * height

    def encode(node):
        x, y, layer = node
        return (layer * width + (x - x0)) * height + (y - y0)

    def decode(idx):
        rest, y = divmod(idx, height)
        layer, x = divmod(rest, width)
        return (x + x0, y + y0, layer)

    inf = float("inf")
    seeds = [encode(s) for s in starts]
    target_idx = {encode(t) for t in in_region}
    h = bounds[[rows[t] for t in in_region]].min(axis=0).tolist()
    dist = [inf] * size
    for idx in seeds:
        dist[idx] = 0.0
    heap = [(h[idx], 0.0, idx) for idx in seeds]
    heapq.heapify(heap)
    bound = inf
    n_expanded = 0
    try:
        while heap:
            f, g, idx = heapq.heappop(heap)
            if f > bound:
                break
            if g > dist[idx]:
                continue
            n_expanded += 1
            for offset, costs in moves:
                cost = costs[idx]
                if cost != inf:
                    nxt = idx + offset
                    nd = g + cost
                    if nd < dist[nxt]:
                        nf = nd + h[nxt]
                        if nf <= bound:
                            dist[nxt] = nd
                            if nxt in target_idx:
                                if nd * _BOUND_SLACK < bound:
                                    bound = nd * _BOUND_SLACK
                            else:
                                heapq.heappush(heap, (nf, nd, nxt))
        best, reached = min((dist[t], t) for t in target_idx)
        if best == inf:
            raise MazeRoutingError("maze search exhausted without reaching a pin")
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
        router._visited_nodes += n_expanded
