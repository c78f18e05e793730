"""Tests for the 3-D maze router."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.netlist.net import Net, Pin


def fresh_grid(nx=14, ny=14, n_layers=5, capacity=4.0):
    return GridGraph(nx, ny, LayerStack(n_layers), wire_capacity=capacity)


def reference_dijkstra(graph, query, sources, targets):
    """Slow but obviously-correct Dijkstra over the whole grid."""
    dist = {}
    heap = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    targets = set(targets)
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, np.inf):
            continue
        if node in targets:
            return d
        x, y, layer = node
        neighbours = []
        if graph.stack.is_horizontal(layer):
            if x > 0:
                neighbours.append(((x - 1, y, layer), query.wire_cost[layer][x - 1, y]))
            if x < graph.nx - 1:
                neighbours.append(((x + 1, y, layer), query.wire_cost[layer][x, y]))
        else:
            if y > 0:
                neighbours.append(((x, y - 1, layer), query.wire_cost[layer][x, y - 1]))
            if y < graph.ny - 1:
                neighbours.append(((x, y + 1, layer), query.wire_cost[layer][x, y]))
        if layer > 0:
            neighbours.append(((x, y, layer - 1), query.via_cost[layer - 1, x, y]))
        if layer < graph.n_layers - 1:
            neighbours.append(((x, y, layer + 1), query.via_cost[layer, x, y]))
        for nbr, cost in neighbours:
            nd = d + float(cost)
            if nd < dist.get(nbr, np.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return np.inf


def heap_dijkstra_oracle(router, sources, targets, region):
    """The search ``MazeRouter._dijkstra`` must reproduce bit for bit.

    Plain multi-source Dijkstra over the router's region move tables:
    heap ordered by ``(dist, idx)``, done flags, parent recorded by the
    first strict improvement, stop at the first target popped.  Returns
    ``(path, reached, n_settled)``.
    """
    x0, y0, x1, y1 = region
    moves, width, height = router._move_tables(region)[:3]
    size = router.graph.n_layers * width * height

    def encode(node):
        x, y, layer = node
        return (layer * width + (x - x0)) * height + (y - y0)

    def decode(idx):
        rest, y = divmod(idx, height)
        layer, x = divmod(rest, width)
        return (x + x0, y + y0, layer)

    inf = float("inf")
    seeds = [encode(s) for s in sources if x0 <= s[0] <= x1 and y0 <= s[1] <= y1]
    target_idx = {
        encode(t) for t in targets if x0 <= t[0] <= x1 and y0 <= t[1] <= y1
    }
    if not target_idx or not seeds:
        raise MazeRoutingError("pins outside search region")
    dist = [inf] * size
    parent = [-1] * size
    done = bytearray(size)
    heap = [(0.0, idx) for idx in seeds]
    for idx in seeds:
        dist[idx] = 0.0
    heapq.heapify(heap)

    reached = -1
    n_settled = 0
    while heap:
        d, idx = heapq.heappop(heap)
        if done[idx]:
            continue
        done[idx] = 1
        n_settled += 1
        if idx in target_idx:
            reached = idx
            break
        for offset, costs in moves:
            cost = costs[idx]
            if cost != inf:
                nxt = idx + offset
                nd = d + cost
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    parent[nxt] = idx
                    heapq.heappush(heap, (nd, nxt))
    if reached < 0:
        raise MazeRoutingError("maze search exhausted without reaching a pin")
    path = []
    idx = reached
    while idx >= 0:
        path.append(decode(idx))
        idx = parent[idx]
    path.reverse()
    return path, decode(reached), n_settled


def route_cost(route, query):
    """Price a route under a cost snapshot."""
    total = 0.0
    for wire in route.wires:
        total += query.wire_segment_cost(wire.layer, wire.x1, wire.y1, wire.x2, wire.y2)
    for via in route.vias:
        total += query.via_stack_cost(via.x, via.y, via.lo, via.hi)
    return total


class TestBasics:
    def test_two_pin_connectivity(self):
        grid = fresh_grid()
        route = MazeRouter(grid).route_net(Net("n", [Pin(2, 3, 0), Pin(9, 9, 1)]))
        assert route.connects([(2, 3, 0), (9, 9, 1)])

    def test_single_pin_net_empty_route(self):
        grid = fresh_grid()
        route = MazeRouter(grid).route_net(Net("n", [Pin(4, 4, 0)]))
        assert route.is_empty()

    def test_same_cell_pins_use_vias(self):
        grid = fresh_grid()
        route = MazeRouter(grid).route_net(Net("n", [Pin(4, 4, 0), Pin(4, 4, 3)]))
        assert route.connects([(4, 4, 0), (4, 4, 3)])
        assert route.wirelength == 0

    def test_multipin_connectivity(self):
        grid = fresh_grid()
        net = Net(
            "n", [Pin(1, 1, 0), Pin(11, 2, 1), Pin(4, 10, 0), Pin(12, 12, 2)]
        )
        route = MazeRouter(grid).route_net(net)
        assert route.connects([p.as_node() for p in net.pins])

    def test_wires_respect_preferred_direction(self):
        grid = fresh_grid()
        net = Net("n", [Pin(1, 1, 0), Pin(11, 2, 1), Pin(4, 10, 0)])
        route = MazeRouter(grid).route_net(net)
        for wire in route.wires:
            assert wire.is_horizontal == grid.stack.is_horizontal(wire.layer)

    def test_route_commits_cleanly(self):
        grid = fresh_grid()
        net = Net("n", [Pin(1, 1, 0), Pin(11, 2, 1), Pin(4, 10, 0)])
        route = MazeRouter(grid).route_net(net)
        route.commit(grid)  # would raise on direction violations
        route.uncommit(grid)
        assert grid.total_overflow() == 0.0


class TestOptimality:
    def test_two_pin_cost_matches_reference(self):
        """The maze route's cost equals the true shortest-path cost."""
        rng = np.random.default_rng(3)
        grid = fresh_grid()
        for layer in range(grid.n_layers):
            grid.wire_demand[layer][:] = rng.integers(
                0, 5, grid.wire_demand[layer].shape
            )
        router = MazeRouter(grid, margin=20)
        net = Net("n", [Pin(1, 1, 0), Pin(12, 11, 0)])
        route = router.route_net(net)
        query = router.query
        expected = reference_dijkstra(
            grid, query, [(1, 1, 0)], [(12, 11, 0)]
        )
        assert route_cost(route, query) == pytest.approx(expected)

    def test_detours_around_saturated_corridor(self):
        grid = fresh_grid(capacity=2.0)
        # Saturate the straight row between the pins on every H layer.
        for layer in (1, 3):
            for _ in range(12):
                grid.add_wire_demand(layer, 0, 5, 13, 5)
        router = MazeRouter(grid)
        route = router.route_net(Net("n", [Pin(1, 5, 1), Pin(12, 5, 1)]))
        assert route.connects([(1, 5, 1), (12, 5, 1)])
        rows = {w.y1 for w in route.wires if w.is_horizontal}
        assert rows != {5}  # some horizontal wire left the congested row


class TestRegionAndErrors:
    def test_region_limits_search(self):
        grid = fresh_grid()
        router = MazeRouter(grid, margin=2)
        net = Net("n", [Pin(5, 5, 0), Pin(7, 7, 0)])
        region = router._region(net)
        assert region == (3, 3, 9, 9)

    def test_region_clipped_at_boundary(self):
        grid = fresh_grid()
        router = MazeRouter(grid, margin=5)
        net = Net("n", [Pin(0, 0, 0), Pin(2, 2, 0)])
        assert router._region(net) == (0, 0, 7, 7)

    def test_unreachable_raises(self):
        grid = fresh_grid(n_layers=2)
        # With two layers, M1 vertical + M2 horizontal; cut all M2
        # capacity so the congestion cost is huge but finite — routing
        # still succeeds.  True unreachability needs a region miss:
        router = MazeRouter(grid)
        with pytest.raises(MazeRoutingError):
            router._dijkstra({(0, 0, 0)}, {(50, 50, 0)}, (0, 0, 5, 5))

    def test_rebuild_false_keeps_snapshot(self):
        grid = fresh_grid()
        router = MazeRouter(grid)
        router.query.rebuild()
        before = router.query.wire_cost[1].copy()
        for _ in range(5):
            grid.add_wire_demand(1, 0, 5, 13, 5)
        router.route_net(Net("n", [Pin(1, 1, 0), Pin(3, 3, 0)]), rebuild=False)
        assert np.array_equal(router.query.wire_cost[1], before)


class TestScratchReuse:
    def test_repeated_route_net_identical(self):
        """Reused dist scratch never leaks across searches."""
        rng = np.random.default_rng(9)
        grid = fresh_grid()
        for layer in range(grid.n_layers):
            grid.wire_demand[layer][:] = rng.integers(
                0, 5, grid.wire_demand[layer].shape
            )
        shared = MazeRouter(grid)
        nets = [
            Net("a", [Pin(1, 1, 0), Pin(12, 11, 2)]),
            Net("b", [Pin(0, 9, 1), Pin(9, 0, 3), Pin(5, 5, 0)]),
            Net("c", [Pin(2, 2, 0), Pin(3, 3, 4)]),
        ]
        for net in nets:
            expected = MazeRouter(grid).route_net(net)  # fresh scratch
            got = shared.route_net(net)
            assert got.wires == expected.wires
            assert got.vias == expected.vias
            assert all(d == float("inf") for d in shared._dist)

    def test_scratch_grows_to_largest_region(self):
        grid = fresh_grid()
        router = MazeRouter(grid)
        router.route_net(Net("s", [Pin(1, 1, 0), Pin(2, 2, 0)]))
        small = router._scratch_size
        router.route_net(Net("l", [Pin(0, 0, 0), Pin(13, 13, 4)]))
        assert router._scratch_size > small
        assert len(router._dist) == router._scratch_size

    def test_scratch_clean_after_failed_search(self):
        grid = fresh_grid()
        router = MazeRouter(grid)
        router.route_net(Net("warm", [Pin(0, 0, 0), Pin(5, 5, 1)]))  # allocate
        with pytest.raises(MazeRoutingError, match="pins outside search region"):
            router._dijkstra({(0, 0, 0)}, {(50, 50, 0)}, (0, 0, 5, 5))
        assert router._dist and all(d == float("inf") for d in router._dist)

    def test_scratch_clean_after_search_cut_short_by_bound(self):
        """Entries pushed but never popped are reset too."""
        grid = fresh_grid()
        router = MazeRouter(grid, margin=20)
        router.query.rebuild()
        region = (0, 0, 13, 13)
        source, target = (6, 6, 0), (8, 6, 1)
        path, reached = router._dijkstra({source}, {target}, region)
        assert reached == target and path[0] == source
        # The bound stopped the search well short of the whole window
        # (the oracle settles more, and the window is larger still) ...
        expanded = router.consume_visited()
        _, _, settled = heap_dijkstra_oracle(router, {source}, {target}, region)
        assert expanded < settled < grid.n_layers * 14 * 14
        # ... and every relaxed-but-unpopped entry went back to inf.
        assert all(d == float("inf") for d in router._dist)
