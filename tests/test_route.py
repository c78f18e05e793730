"""Tests for repro.grid.route: segments, via stacks, routes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import (
    H_WIRE, V_WIRE, VIA, Route, ViaSegment, WireSegment, commit_routes, edges_at,
    routes_from_paths,
)


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
        wires, vias = [], []
        for _ in range(int(rng.integers(0, 4))):
            layer = int(rng.integers(0, graph.n_layers))
            if graph.stack.is_horizontal(layer):
                y = int(rng.integers(0, graph.ny))
                x1, x2 = sorted(rng.choice(graph.nx, 2, replace=False).tolist())
                wires.append(WireSegment(layer, x1, y, x2, y))
            else:
                x = int(rng.integers(0, graph.nx))
                y1, y2 = sorted(rng.choice(graph.ny, 2, replace=False).tolist())
                wires.append(WireSegment(layer, x, y1, x, y2))
        for _ in range(int(rng.integers(0, 3))):
            lo, hi = sorted(rng.choice(graph.n_layers, 2, replace=False).tolist())
            x, y = int(rng.integers(0, graph.nx)), int(rng.integers(0, graph.ny))
            vias.append(ViaSegment(x, y, lo, hi))
        routes.append(Route(wires, vias))
    return routes


def unit_edges(route):
    """``(kind, layer, x, y)`` of every unit edge of ``route``, once per
    segment that covers it."""
    edges = []
    for w in route.wires:
        if w.is_horizontal:
            edges += [(H_WIRE, w.layer, x, w.y1) for x in range(w.x1, w.x2)]
        else:
            edges += [(V_WIRE, w.layer, w.x1, y) for y in range(w.y1, w.y2)]
    for v in route.vias:
        edges += [(VIA, layer, v.x, v.y) for layer in range(v.lo, v.hi)]
    return edges


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

    @pytest.mark.parametrize(
        "seed, n_layers",
        [pytest.param(seed, 5, id=str(seed)) for seed in range(4)]
        + [pytest.param(4, 9, id="9-layers"), pytest.param(5, 2, id="2-layers")],
    )
    def test_equals_per_segment_commits(self, seed, n_layers):
        rng = np.random.default_rng(seed)
        stack = LayerStack(n_layers)
        batched, single, reference = (GridGraph(12, 10, stack) for _ in range(3))
        routes = random_routes(rng, batched, 25)
        # Each index maps back to its route's unit edges.
        for route in routes:
            edges = zip(*(c.tolist() for c in edges_at(batched, route._demand_index(batched))))
            assert sorted(edges) == sorted(unit_edges(route))
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
        before = demand_of(grid)
        with pytest.raises(ValueError):
            commit_routes(grid, [good, Route([bad])])
        assert all(np.array_equal(x, y) for x, y in zip(before, demand_of(grid)))

    def test_off_grid_via_raises_before_any_write(self, grid):
        before = demand_of(grid)
        with pytest.raises(ValueError):
            commit_routes(grid, [Route([WireSegment(1, 0, 1, 6, 1)]),
                                 Route(vias=[ViaSegment(12, 2, 0, 3)])])
        assert all(np.array_equal(x, y) for x, y in zip(before, demand_of(grid)))


@pytest.mark.parametrize(
    "path, message",
    [
        pytest.param([(1, 1, 1), (3, 1, 1)], "no unit step", id="two-cells"),
        pytest.param([(1, 1, 1), (2, 2, 1)], "no unit step", id="diagonal"),
        pytest.param([(1, 1, 1), (1, 1, 1)], "no unit step", id="standing"),
        pytest.param([(-1, 1, 1), (0, 1, 1)], "off grid", id="below-grid"),
        pytest.param([(9, 1, 1), (10, 1, 1)], "off grid", id="past-grid"),
        pytest.param([(1, 1, 1), (1, 2, 1)], "preferred direction", id="against-layer"),
        pytest.param([(1, 1, 4), (1, 1, 5)], "via layers out of range", id="above-stack"),
    ],
)
def test_routes_from_paths_rejects_bad_steps(path, message):
    """A path step that is not one unit edge of the grid raises, after
    a good path in the same call."""
    grid = GridGraph(10, 10, LayerStack(5))
    assert grid.stack.is_horizontal(1) and not grid.stack.is_horizontal(0)
    good = [(2, 2, 1), (3, 2, 1), (3, 2, 0)]
    with pytest.raises(ValueError, match=message):
        routes_from_paths(grid, [[good], [good, path]])


@pytest.mark.parametrize(
    "paths",
    [
        pytest.param([], id="no-routes"),
        pytest.param([[[(2, 2, 1)]]], id="one-single-node"),
        pytest.param([[[(2, 2, 1)]], [[(4, 5, 0)], [(4, 5, 0)]]], id="two-single-node"),
        pytest.param([[], [], []], id="three-pathless"),
    ],
)
def test_routes_from_paths_without_a_step(paths):
    """Paths that step nowhere give one empty route each, with an empty
    demand index — however many routes there are."""
    grid = GridGraph(10, 10, LayerStack(5))
    routes = routes_from_paths(grid, paths)
    assert len(routes) == len(paths)
    for route in routes:
        assert route.is_empty()
        assert route._demand_index(grid).size == 0
