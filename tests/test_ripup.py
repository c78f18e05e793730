"""Tests for rip-up-and-reroute bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.maze.router import MazeRoutingError
from repro.maze.ripup import (
    RipupReroute,
    find_violating_nets,
    route_has_violation,
)
from repro.netlist.net import Net, Pin
from repro.session.cache import RouteCache


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
            route = piled_route(i)
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


def piled_route(i):
    """Net ``i``'s route piled onto row 0: along it, and for ``i > 0``
    down to row ``i`` at both ends."""
    wires = [WireSegment(1, 0, 0, 8, 0)]
    if i > 0:
        wires += [WireSegment(0, 0, 0, 0, i), WireSegment(0, 8, 0, 8, i)]
    return Route(wires)


def piled_scene(capacity=1.0):
    """Three nets whose routes all pile onto row 0 of a small grid."""
    grid = fresh_grid(capacity=capacity)
    nets = {f"n{i}": Net(f"n{i}", [Pin(0, i, 1), Pin(8, i, 1)]) for i in range(3)}
    routes = {}
    for i, name in enumerate(nets):
        route = piled_route(i)
        route.commit(grid)
        routes[name] = route
    return grid, nets, routes


def demand_copy(grid):
    return [layer.copy() for layer in grid.wire_demand], grid.via_demand.copy()


def assert_demand_equal(grid, copy):
    wires, vias = copy
    for layer in range(grid.n_layers):
        assert np.array_equal(grid.wire_demand[layer], wires[layer])
    assert np.array_equal(grid.via_demand, vias)


class TestCachedReroute:
    """``rip_and_reroute`` with a :class:`RouteCache`: misses store, hits
    replay the stored outcome without a search."""

    def test_miss_stores_and_repeat_hits(self):
        grid, nets, routes = piled_scene()
        engine = RipupReroute(grid, nets)
        cache = RouteCache()
        first = engine.rip_and_reroute(routes, "n1", cache)
        assert first is not None
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        routes["n1"] = first
        after_first = demand_copy(grid)
        # Ripping ``first`` restores the demand its search read, so the
        # same key comes back and the stored route is served.
        again = engine.rip_and_reroute(routes, "n1", cache)
        assert again is first
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert_demand_equal(grid, after_first)

    def test_cached_failure_restores_the_old_route(self, monkeypatch):
        grid, nets, routes = piled_scene()
        engine = RipupReroute(grid, nets)
        cache = RouteCache()
        before = demand_copy(grid)
        searches = []

        def fail(net):
            searches.append(net.name)
            raise MazeRoutingError(net.name)

        monkeypatch.setattr(engine.maze, "route_net", fail)
        assert engine.rip_and_reroute(routes, "n2", cache) is None
        assert_demand_equal(grid, before)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        # The stored failure is served without a second search.
        assert engine.rip_and_reroute(routes, "n2", cache) is None
        assert searches == ["n2"]
        assert cache.hits == 1
        assert_demand_equal(grid, before)


class TestCachedRerouteBatch:
    """On a conflict-free group, the stacked cached reroute equals the
    per-name cached reroute in order: routes, demand and cache counts."""

    @staticmethod
    def scene():
        rng = np.random.default_rng(21)
        grid = GridGraph(16, 16, LayerStack(3), wire_capacity=3.0)
        for layer in range(grid.n_layers):
            grid.wire_demand[layer][:] = rng.integers(0, 6, grid.wire_demand[layer].shape)
        nets, routes = {}, {}
        engine = RipupReroute(grid, nets, margin=2, engine="wavefront")
        # Disjoint tiles: the margin-expanded search regions do not meet.
        for i, (tx, ty) in enumerate([(0, 0), (10, 0), (0, 10)]):
            net = Net(f"t{i}", [Pin(tx, ty, 0), Pin(tx + 3, ty + 3, 2), Pin(tx + 1, ty + 3, 1)])
            nets[net.name] = net
            routes[net.name] = engine.maze.route_net(net)
            routes[net.name].commit(grid)
        return grid, engine, routes

    def test_batch_equals_per_name_in_order(self):
        (g1, e1, r1), (g2, e2, r2) = self.scene(), self.scene()
        c1, c2 = RouteCache(), RouteCache()
        names = ["t0", "t1", "t2"]
        # Pass 1 misses every key, pass 2 (same in-region demand) hits.
        for expected_hits in (0, 3):
            for name in names:
                r1[name] = e1.rip_and_reroute(r1, name, c1)
            found = e2.rip_and_reroute_batch(r2, names, c2)
            for name in names:
                assert found[name] is not None
                r2[name] = found[name]
                assert r1[name].wires == r2[name].wires
                assert r1[name].vias == r2[name].vias
            assert g1.demand_equals(g2)
            assert (c1.hits, c1.misses) == (c2.hits, c2.misses) == (expected_hits, 3)
