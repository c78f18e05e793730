"""Tests for rip-up-and-reroute bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.maze.ripup import (
    RipupReroute,
    find_violating_nets,
    route_has_violation,
)
from repro.netlist.net import Net, Pin


def fresh_grid(capacity=2.0):
    return GridGraph(14, 14, LayerStack(5), wire_capacity=capacity)


def reroute_all(engine, routes, names):
    """Rip up and reroute ``names`` in order; return how many failed."""
    failed = 0
    for name in names:
        new_route = engine.rip_and_reroute(routes, name)
        if new_route is None:
            failed += 1
        else:
            routes[name] = new_route
    return failed


class TestViolationDetection:
    def test_clean_route_no_violation(self):
        grid = fresh_grid()
        route = Route(wires=[WireSegment(1, 0, 0, 5, 0)])
        route.commit(grid)
        assert not route_has_violation(route, grid)

    def test_wire_overflow_detected(self):
        grid = fresh_grid(capacity=1.0)
        routes = [Route(wires=[WireSegment(1, 0, 0, 5, 0)]) for _ in range(3)]
        for route in routes:
            route.commit(grid)
        assert all(route_has_violation(r, grid) for r in routes)

    def test_via_overflow_detected(self):
        grid = fresh_grid()
        grid.via_capacity[:] = 1.0
        routes = [Route(vias=[ViaSegment(3, 3, 0, 2)]) for _ in range(3)]
        for route in routes:
            route.commit(grid)
        assert route_has_violation(routes[0], grid)

    def test_bystander_not_violating(self):
        grid = fresh_grid(capacity=1.0)
        hot = [Route(wires=[WireSegment(1, 0, 0, 5, 0)]) for _ in range(3)]
        cold = Route(wires=[WireSegment(1, 0, 9, 5, 9)])
        for route in hot + [cold]:
            route.commit(grid)
        assert not route_has_violation(cold, grid)

    def test_find_violating_nets_names(self):
        grid = fresh_grid(capacity=1.0)
        routes = {
            "hot1": Route(wires=[WireSegment(1, 0, 0, 5, 0)]),
            "hot2": Route(wires=[WireSegment(1, 0, 0, 5, 0)]),
            "cold": Route(wires=[WireSegment(1, 0, 9, 5, 9)]),
        }
        for route in routes.values():
            route.commit(grid)
        assert sorted(find_violating_nets(routes, grid)) == ["hot1", "hot2"]

    def test_matches_an_edge_by_edge_walk(self):
        """Random multi-segment routes crowded onto a small grid: a net
        violates exactly when one of its edges, wherever it sits in the
        route, is over capacity."""
        rng = np.random.default_rng(5)
        grid = GridGraph(8, 8, LayerStack(4), wire_capacity=2.0, via_capacity=2.0)
        routes = {}
        for i in range(30):
            wires = []
            for _ in range(3):
                layer = int(rng.integers(0, 4))
                a, b = sorted(int(v) for v in rng.choice(8, 2, replace=False))
                c = int(rng.integers(0, 8))
                if grid.stack.is_horizontal(layer):
                    wires.append(WireSegment(layer, a, c, b, c))
                else:
                    wires.append(WireSegment(layer, c, a, c, b))
            lo, hi = sorted(int(v) for v in rng.choice(4, 2, replace=False))
            route = Route(wires, [ViaSegment(int(rng.integers(0, 8)), int(rng.integers(0, 8)), lo, hi)])
            route.commit(grid)
            routes[f"n{i}"] = route

        def over(route):
            for w in route.wires:
                demand, capacity = grid.wire_demand[w.layer], grid.wire_capacity[w.layer]
                for x in range(w.x1, w.x2 + (w.x1 == w.x2)):
                    for y in range(w.y1, w.y2 + (w.y1 == w.y2)):
                        if demand[x, y] > capacity[x, y]:
                            return True
            return any(
                grid.via_demand[l, v.x, v.y] > grid.via_capacity[l, v.x, v.y]
                for v in route.vias for l in range(v.lo, v.hi)
            )

        expected = [name for name, route in routes.items() if over(route)]
        assert 0 < len(expected) < len(routes)
        assert find_violating_nets(routes, grid) == expected
        assert [n for n, r in routes.items() if route_has_violation(r, grid)] == expected

    def test_no_overflow_walks_no_route(self, monkeypatch):
        """An overflow-free grid answers [] from the overflow mask alone:
        no route's demand index is looked at."""
        grid = fresh_grid()
        routes = {
            f"n{i}": Route(
                wires=[WireSegment(1, 0, i, 5, i)], vias=[ViaSegment(0, i, 0, 1)]
            )
            for i in range(4)
        }
        for route in routes.values():
            route.commit(grid)

        def no_walk(route, graph):
            raise AssertionError("route looked up on an overflow-free grid")

        monkeypatch.setattr(Route, "_demand_index", no_walk)
        assert find_violating_nets(routes, grid) == []


class TestReroute:
    def test_reroute_reduces_overflow(self):
        grid = fresh_grid(capacity=1.0)
        nets = {
            f"n{i}": Net(f"n{i}", [Pin(0, i, 1), Pin(8, i, 1)]) for i in range(3)
        }
        # All three nets initially piled onto row 0.
        routes = {}
        for i, name in enumerate(nets):
            route = Route(wires=[WireSegment(1, 0, 0, 8, 0)])
            if i > 0:
                route.wires.append(WireSegment(0, 0, 0, 0, i))
                route.wires.append(WireSegment(0, 8, 0, 8, i))
            route.commit(grid)
            routes[name] = route
        before = grid.total_overflow()
        assert before > 0
        assert reroute_all(RipupReroute(grid, nets), routes, list(nets)) == 0
        assert grid.total_overflow() < before
        for name, net in nets.items():
            assert routes[name].connects([p.as_node() for p in net.pins])

    def test_demand_consistent_after_reroute(self):
        """Ripping and recommitting keeps graph demand == sum of routes."""
        grid = fresh_grid(capacity=1.0)
        nets = {
            f"n{i}": Net(f"n{i}", [Pin(0, i, 1), Pin(8, i, 1)]) for i in range(3)
        }
        routes = {}
        for name in nets:
            route = Route(wires=[WireSegment(1, 0, 0, 8, 0)])
            route.commit(grid)
            routes[name] = route
        reroute_all(RipupReroute(grid, nets), routes, list(nets))
        reference = GridGraph(14, 14, LayerStack(5), wire_capacity=1.0)
        for route in routes.values():
            route.commit(reference)
        for layer in range(grid.n_layers):
            assert np.array_equal(
                grid.wire_demand[layer], reference.wire_demand[layer]
            )
        assert np.array_equal(grid.via_demand, reference.via_demand)
