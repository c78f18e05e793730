"""Tests for the batched wavefront maze engine.

The contract under test: on every registered backend the sweep fixpoint
equals the Dijkstra distance field (floats may differ in the last ULPs
because the sweeps associate additions per straight run), and routes
found by greedy descent are equal-cost to the scalar engine's.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.backend import available_backends
from repro.grid.cost import CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.gpu.device import Device
from repro.maze import MAZE_ENGINES, make_maze_router
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.maze.wavefront import WavefrontMazeRouter
from repro.netlist.net import Net, Pin


def fresh_grid(nx=9, ny=9, n_layers=3, capacity=3.0, demand_seed=None):
    graph = GridGraph(nx, ny, LayerStack(n_layers), wire_capacity=capacity)
    if demand_seed is not None:
        rng = np.random.default_rng(demand_seed)
        for layer in range(n_layers):
            shape = graph.wire_demand[layer].shape
            graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
        graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    return graph


def reference_field(graph, query, sources, region):
    """Full-region multi-source Dijkstra with per-edge accumulation."""
    x0, y0, x1, y1 = region
    width, height = x1 - x0 + 1, y1 - y0 + 1
    field = np.full((graph.n_layers, width, height), np.inf)
    heap = []
    for x, y, layer in sources:
        field[layer, x - x0, y - y0] = 0.0
        heap.append((0.0, (x, y, layer)))
    heapq.heapify(heap)
    while heap:
        d, (x, y, layer) = heapq.heappop(heap)
        if d > field[layer, x - x0, y - y0]:
            continue
        moves = []
        if graph.stack.is_horizontal(layer):
            if x > x0:
                moves.append(((x - 1, y, layer), query.wire_cost[layer][x - 1, y]))
            if x < x1:
                moves.append(((x + 1, y, layer), query.wire_cost[layer][x, y]))
        else:
            if y > y0:
                moves.append(((x, y - 1, layer), query.wire_cost[layer][x, y - 1]))
            if y < y1:
                moves.append(((x, y + 1, layer), query.wire_cost[layer][x, y]))
        if layer > 0:
            moves.append(((x, y, layer - 1), query.via_cost[layer - 1, x, y]))
        if layer < graph.n_layers - 1:
            moves.append(((x, y, layer + 1), query.via_cost[layer, x, y]))
        for (nx_, ny_, nl), cost in moves:
            nd = d + float(cost)
            if nd < field[nl, nx_ - x0, ny_ - y0]:
                field[nl, nx_ - x0, ny_ - y0] = nd
                heapq.heappush(heap, (nd, (nx_, ny_, nl)))
    return field


def route_cost(route, query):
    total = 0.0
    for wire in route.wires:
        total += query.wire_segment_cost(
            wire.layer, wire.x1, wire.y1, wire.x2, wire.y2
        )
    for via in route.vias:
        total += query.via_stack_cost(via.x, via.y, via.lo, via.hi)
    return total


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


class TestDistanceField:
    def test_matches_reference_dijkstra(self, backend_name):
        """Sweep fixpoint == Dijkstra distances on every backend."""
        for seed in (0, 1, 2):
            graph = fresh_grid(demand_seed=seed)
            router = WavefrontMazeRouter(graph, backend=backend_name)
            region = (0, 0, graph.nx - 1, graph.ny - 1)
            tables = router._build_tables(region)
            seeds = [(1, 1, 0)]
            field = router._distance_field(seeds, region, tables)
            query = CostQuery(graph, router.cost_model)
            expected = reference_field(graph, query, seeds, region)
            assert np.all(np.isfinite(field) == np.isfinite(expected))
            assert np.allclose(field, expected, rtol=1e-12, atol=1e-9)

    def test_multi_source_field(self, backend_name):
        graph = fresh_grid(demand_seed=7)
        router = WavefrontMazeRouter(graph, backend=backend_name)
        region = (1, 1, 7, 7)
        tables = router._build_tables(region)
        seeds = [(2, 2, 0), (6, 6, 2), (4, 3, 1)]
        field = router._distance_field(seeds, region, tables)
        query = CostQuery(graph, router.cost_model)
        expected = reference_field(graph, query, seeds, region)
        assert np.allclose(field, expected, rtol=1e-12, atol=1e-9)

    def test_pass_count_recorded(self):
        graph = fresh_grid()
        router = WavefrontMazeRouter(graph)
        router.route_net(Net("n", [Pin(1, 1, 0), Pin(7, 7, 1)]))
        assert router.last_n_passes >= 1


class TestRouteEquivalence:
    def test_two_pin_routes_equal_cost(self, backend_name):
        """Per-splice searches are exact: 2-pin costs match Dijkstra."""
        for seed in (0, 3, 11):
            graph = fresh_grid(demand_seed=seed)
            scalar = MazeRouter(graph)
            wave = WavefrontMazeRouter(graph, backend=backend_name)
            query = CostQuery(graph, scalar.cost_model)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                (x1, y1, x2, y2) = rng.integers(0, graph.nx, 4)
                (l1, l2) = rng.integers(0, graph.n_layers, 2)
                net = Net("n", [Pin(x1, y1, l1), Pin(x2, y2, l2)])
                r1 = scalar.route_net(net)
                r2 = wave.route_net(net)
                assert route_cost(r2, query) == pytest.approx(
                    route_cost(r1, query), rel=1e-12, abs=1e-9
                )

    def test_multipin_routes_connect_and_commit(self, backend_name):
        graph = fresh_grid(demand_seed=5)
        wave = WavefrontMazeRouter(graph, backend=backend_name)
        net = Net(
            "n", [Pin(1, 1, 0), Pin(7, 2, 1), Pin(3, 7, 0), Pin(6, 6, 2)]
        )
        route = wave.route_net(net)
        assert route.connects([p.as_node() for p in net.pins])
        route.commit(graph)  # raises on preferred-direction violations
        route.uncommit(graph)

    def test_single_pin_net_empty_route(self):
        graph = fresh_grid()
        route = WavefrontMazeRouter(graph).route_net(Net("n", [Pin(4, 4, 0)]))
        assert route.is_empty()

    def test_visited_counter_accumulates_and_resets(self):
        graph = fresh_grid()
        wave = WavefrontMazeRouter(graph)
        wave.route_net(Net("n", [Pin(1, 1, 0), Pin(7, 7, 1)]))
        visited = wave.consume_visited()
        assert visited > 0
        assert wave.consume_visited() == 0


class TestFailurePaths:
    def test_target_outside_region_raises(self):
        graph = fresh_grid()
        router = WavefrontMazeRouter(graph)
        tables = router._build_tables((0, 0, 4, 4))
        with pytest.raises(MazeRoutingError, match="outside search region"):
            router._search({(1, 1, 0)}, {(8, 8, 0)}, (0, 0, 4, 4), tables)

    def test_source_outside_region_raises(self):
        graph = fresh_grid()
        router = WavefrontMazeRouter(graph)
        tables = router._build_tables((0, 0, 4, 4))
        with pytest.raises(MazeRoutingError, match="outside search region"):
            router._search({(8, 8, 0)}, {(1, 1, 0)}, (0, 0, 4, 4), tables)


class TestEngineDispatch:
    def test_factory_builds_both_engines(self):
        graph = fresh_grid()
        assert type(make_maze_router("dijkstra", graph)) is MazeRouter
        assert isinstance(
            make_maze_router("wavefront", graph), WavefrontMazeRouter
        )

    def test_factory_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown maze engine"):
            make_maze_router("bfs", fresh_grid())

    def test_engine_names_registered(self):
        assert MAZE_ENGINES == ("dijkstra", "wavefront")
        assert MazeRouter.engine_name == "dijkstra"
        assert WavefrontMazeRouter.engine_name == "wavefront"

    def test_config_validates_engine(self):
        from repro.core.config import RouterConfig

        config = RouterConfig(maze_engine="wavefront")
        assert config.maze_engine == "wavefront"
        with pytest.raises(ValueError, match="unknown maze engine"):
            RouterConfig(maze_engine="bfs")


class TestDeviceMetering:
    def test_kernel_launches_recorded(self):
        graph = fresh_grid(demand_seed=2)
        device = Device()
        router = WavefrontMazeRouter(graph, device=device)
        router.route_net(Net("n", [Pin(1, 1, 0), Pin(7, 7, 1)]))
        kernels = device.per_kernel_elements()
        assert "wavefront_setup" in kernels
        assert "wavefront_relax" in kernels
        assert device.n_launches >= 2
