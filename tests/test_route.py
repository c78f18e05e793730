"""Tests for repro.grid.route: segments, via stacks, routes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.route import Route, ViaSegment, WireSegment, commit_routes
from tests.cost_oracle import FullRebuildCostQuery


class TestWireSegment:
    def test_normalises_reversed_horizontal(self):
        seg = WireSegment(1, 8, 3, 2, 3)
        assert (seg.x1, seg.y1, seg.x2, seg.y2) == (2, 3, 8, 3)

    def test_normalises_reversed_vertical(self):
        seg = WireSegment(0, 4, 9, 4, 1)
        assert (seg.x1, seg.y1, seg.x2, seg.y2) == (4, 1, 4, 9)

    def test_diagonal_raises(self):
        with pytest.raises(ValueError):
            WireSegment(0, 0, 0, 3, 3)

    def test_zero_length_raises(self):
        with pytest.raises(ValueError):
            WireSegment(0, 2, 2, 2, 2)

    def test_length(self):
        assert WireSegment(1, 2, 3, 8, 3).length == 6
        assert WireSegment(0, 4, 1, 4, 9).length == 8

    def test_is_horizontal(self):
        assert WireSegment(1, 2, 3, 8, 3).is_horizontal
        assert not WireSegment(0, 4, 1, 4, 9).is_horizontal

    def test_nodes_cover_inclusive_span(self):
        seg = WireSegment(2, 1, 5, 4, 5)
        assert list(seg.nodes()) == [(1, 5, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2)]


class TestViaSegment:
    def test_normalises_reversed_layers(self):
        via = ViaSegment(1, 1, 4, 2)
        assert (via.lo, via.hi) == (2, 4)

    def test_zero_height_raises(self):
        with pytest.raises(ValueError):
            ViaSegment(1, 1, 3, 3)

    def test_n_vias(self):
        assert ViaSegment(0, 0, 1, 4).n_vias == 3

    def test_nodes(self):
        assert list(ViaSegment(2, 3, 0, 2).nodes()) == [
            (2, 3, 0),
            (2, 3, 1),
            (2, 3, 2),
        ]


class TestRoute:
    def test_wirelength_and_vias(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 4, 0), WireSegment(0, 4, 0, 4, 3)],
            vias=[ViaSegment(4, 0, 0, 1)],
        )
        assert route.wirelength == 7
        assert route.n_vias == 1

    def test_empty(self):
        assert Route().is_empty()
        assert not Route(vias=[ViaSegment(0, 0, 0, 1)]).is_empty()

    def test_extend(self):
        a = Route(wires=[WireSegment(1, 0, 0, 2, 0)])
        b = Route(vias=[ViaSegment(2, 0, 0, 1)])
        a.extend(b)
        assert a.wirelength == 2 and a.n_vias == 1

    def test_commit_uncommit_roundtrip(self, grid):
        route = Route(
            wires=[WireSegment(1, 0, 0, 4, 0), WireSegment(0, 4, 0, 4, 3)],
            vias=[ViaSegment(4, 0, 0, 1)],
        )
        route.commit(grid)
        assert np.sum(grid.wire_demand[1][0:4, 0]) == 4.0
        assert np.sum(grid.via_demand[0]) == 1.0
        route.uncommit(grid)
        assert grid.total_overflow() == 0.0
        for layer in range(grid.n_layers):
            assert np.all(grid.wire_demand[layer] == 0.0)
        assert np.all(grid.via_demand == 0.0)

    def test_commit_wrong_direction_raises(self, grid):
        route = Route(wires=[WireSegment(0, 0, 0, 4, 0)])  # H wire on V layer
        with pytest.raises(ValueError):
            route.commit(grid)

    def test_nodes_union(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 2, 0)], vias=[ViaSegment(2, 0, 0, 1)]
        )
        assert route.nodes() == {(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 0, 0)}


class TestConnects:
    def test_connected_two_pin(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 3, 0), WireSegment(0, 3, 0, 3, 2)],
            vias=[ViaSegment(0, 0, 0, 1), ViaSegment(3, 0, 0, 1)],
        )
        assert route.connects([(0, 0, 0), (3, 2, 0)])

    def test_missing_pin_not_connected(self):
        route = Route(wires=[WireSegment(1, 0, 0, 3, 0)])
        assert not route.connects([(0, 0, 1), (5, 0, 1)])

    def test_two_components_not_connected(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 1, 0), WireSegment(1, 5, 0, 6, 0)]
        )
        assert not route.connects([(0, 0, 1), (6, 0, 1)])

    def test_single_pin_trivially_connected(self):
        route = Route(vias=[ViaSegment(1, 1, 0, 1)])
        assert route.connects([(1, 1, 0)])

    def test_vias_provide_layer_connectivity(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 3, 0), WireSegment(3, 0, 0, 3, 0)],
            vias=[ViaSegment(3, 0, 1, 3)],
        )
        assert route.connects([(0, 0, 1), (0, 0, 3)])


def random_routes(rng, graph, count):
    """Routes of random legal wires and via stacks; they overlap often."""
    routes = []
    for _ in range(count):
        route = Route()
        for _ in range(int(rng.integers(0, 4))):
            layer = int(rng.integers(0, graph.n_layers))
            if graph.stack.is_horizontal(layer):
                y = int(rng.integers(0, graph.ny))
                x1, x2 = sorted(rng.choice(graph.nx, 2, replace=False).tolist())
                route.add_wire(WireSegment(layer, x1, y, x2, y))
            else:
                x = int(rng.integers(0, graph.nx))
                y1, y2 = sorted(rng.choice(graph.ny, 2, replace=False).tolist())
                route.add_wire(WireSegment(layer, x, y1, x, y2))
        for _ in range(int(rng.integers(0, 3))):
            lo, hi = sorted(rng.choice(graph.n_layers, 2, replace=False).tolist())
            x, y = int(rng.integers(0, graph.nx)), int(rng.integers(0, graph.ny))
            route.add_via(ViaSegment(x, y, lo, hi))
        routes.append(route)
    return routes


def commit_per_segment(graph, route, amount=1.0):
    """The reference: one ``add_*_demand`` call per wire and via stack."""
    for w in route.wires:
        graph.add_wire_demand(w.layer, w.x1, w.y1, w.x2, w.y2, amount)
    for v in route.vias:
        graph.add_via_demand(v.x, v.y, v.lo, v.hi, amount)


def demand_of(graph):
    return [d.copy() for d in graph.wire_demand] + [graph.via_demand.copy()]


def assert_same_demand(a, b):
    for x, y in zip(demand_of(a), demand_of(b)):
        assert np.array_equal(x, y)


class TestCommitRoutes:
    """``commit_routes`` (and ``Route.commit``, its one-route case) adds
    what one ``add_*_demand`` call per segment adds, in one write per
    layer."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_segment_commits(self, stack5, seed):
        rng = np.random.default_rng(seed)
        batched, single, reference = (GridGraph(12, 10, stack5) for _ in range(3))
        routes = random_routes(rng, batched, 25)
        commit_routes(batched, routes)
        for route in routes:
            route.commit(single)
            commit_per_segment(reference, route)
        assert_same_demand(batched, reference)
        assert_same_demand(single, reference)
        # Uncommit half again (amount=-1), as a batch and route by route.
        commit_routes(batched, routes[::2], amount=-1.0)
        for route in routes[::2]:
            route.uncommit(single)
            commit_per_segment(reference, route, -1.0)
        assert_same_demand(batched, reference)
        assert_same_demand(single, reference)
        # Recommitting reuses the cached cells.
        commit_routes(batched, routes[::2])
        for route in routes[::2]:
            commit_per_segment(reference, route)
        assert_same_demand(batched, reference)

    def test_dirty_records_cover_every_touched_edge(self, stack5):
        """An incremental snapshot drained after batch commits equals the
        from-scratch oracle."""
        rng = np.random.default_rng(11)
        graph = GridGraph(12, 10, stack5, wire_capacity=2.0, via_capacity=3.0)
        model = CostModel()
        incremental = CostQuery(graph, model)
        routes = random_routes(rng, graph, 40)
        for chunk in (routes[:15], routes[15:], routes[5:30]):
            commit_routes(graph, chunk)
            incremental.rebuild()
            incremental.sync()
            oracle = FullRebuildCostQuery(graph, model)
            for name in ("_h_prefix", "_v_prefix", "_via_prefix"):
                assert np.array_equal(getattr(incremental, name), getattr(oracle, name))

    @pytest.mark.parametrize(
        "bad",
        [
            WireSegment(1, 3, 0, 12, 0),  # runs off the 12-column grid
            WireSegment(0, 3, 0, 7, 0),  # horizontal on vertical layer 0
            WireSegment(7, 0, 2, 5, 2),  # no such layer
        ],
    )
    def test_invalid_wire_raises_before_any_write(self, grid, bad):
        good = Route([WireSegment(1, 0, 1, 6, 1)], [ViaSegment(2, 2, 0, 3)])
        before, log_end = demand_of(grid), grid.dirty.end
        with pytest.raises(ValueError):
            commit_routes(grid, [good, Route([bad])])
        assert all(np.array_equal(x, y) for x, y in zip(before, demand_of(grid)))
        assert grid.dirty.end == log_end

    def test_off_grid_via_raises_before_any_write(self, grid):
        before = demand_of(grid)
        with pytest.raises(ValueError):
            commit_routes(grid, [Route([WireSegment(1, 0, 1, 6, 1)]),
                                 Route(vias=[ViaSegment(12, 2, 0, 3)])])
        assert all(np.array_equal(x, y) for x, y in zip(before, demand_of(grid)))

    def test_segment_added_after_a_commit_is_seen(self, grid):
        route = Route([WireSegment(1, 0, 1, 6, 1)])
        commit_routes(grid, [route])
        route.add_via(ViaSegment(2, 2, 0, 3))
        commit_routes(grid, [route])
        assert grid.wire_demand[1][0:6, 1].tolist() == [2.0] * 6
        assert grid.via_demand[0:3, 2, 2].tolist() == [1.0] * 3
