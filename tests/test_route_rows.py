"""A route is its rows of one segment table.

Routes come out of the pattern backtrace and the maze as slices of a
segment table, with their wirelength and via count computed once for
the whole table; the ``wires``/``vias`` segment views are built only
when something asks for them.  These tests hold the three ways a route
is built to one another, the run path to building no segment object,
and the metrics and the result checks to what the rows say.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ECO_PRESETS,
    DesignHandle,
    GlobalRouter,
    RouterConfig,
    RoutingSession,
    load_benchmark,
    perturb_design,
)
from repro.eval.metrics import RoutingMetrics, score
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment, commit_routes, routes_from_paths
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import HpwlSelector, PatternMode
from repro.service.jobs import _result_payload
from tests.test_golden_counters import congested_design

N, LAYERS = 16, 5


def measure_per_segment(routes, graph) -> RoutingMetrics:
    """The oracle of :meth:`RoutingMetrics.measure`: wirelength and via
    cuts summed segment by segment over the ``wires``/``vias`` views."""
    wirelength = sum(w.length for route in routes.values() for w in route.wires)
    n_vias = sum(v.n_vias for route in routes.values() for v in route.vias)
    shorts = graph.total_overflow()
    return RoutingMetrics(wirelength, n_vias, shorts, score(wirelength, n_vias, shorts))


def fresh_graph() -> GridGraph:
    return GridGraph(N, N, LayerStack(LAYERS), wire_capacity=2.0)


# ---------------------------------------------------------------------- #
# Three sources of routes
# ---------------------------------------------------------------------- #
cell = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, LAYERS - 1))


@st.composite
def batch_routes(draw):
    """A multi-net ``route_batch`` under a mixed mode selector."""
    nets = [
        Net(f"n{i}", [Pin(*p) for p in pins])
        for i, pins in enumerate(draw(st.lists(st.lists(cell, min_size=1, max_size=5), min_size=2, max_size=6)))
    ]
    graph = fresh_graph()
    router = BatchPatternRouter(graph, backend="numpy")
    routes = router.route_batch(nets, HpwlSelector(PatternMode.HYBRID, 3, 6))
    return graph, routes


@st.composite
def walk(draw):
    """A node path of legal unit steps; one node for a step-less path."""
    graph = fresh_graph()
    x, y, layer = draw(cell)
    path = [(x, y, layer)]
    for _ in range(draw(st.integers(0, 8))):
        moves = [(x, y, layer + d) for d in (-1, 1) if 0 <= layer + d < LAYERS]
        if graph.stack.is_horizontal(layer):
            moves += [(x + d, y, layer) for d in (-1, 1) if 0 <= x + d < N]
        else:
            moves += [(x, y + d, layer) for d in (-1, 1) if 0 <= y + d < N]
        x, y, layer = draw(st.sampled_from(moves))
        path.append((x, y, layer))
    return path


@st.composite
def path_routes(draw):
    """``routes_from_paths`` over groups of walks, empty groups included."""
    groups = draw(st.lists(st.lists(walk(), max_size=3), max_size=5))
    graph = fresh_graph()
    routes = routes_from_paths(graph, groups)
    assert len(routes) == len(groups)
    return graph, {f"p{j}": route for j, route in enumerate(routes)}


@st.composite
def segment(draw, graph):
    layer = draw(st.integers(0, LAYERS - 1))
    lo, hi = sorted(draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2, unique=True)))
    at = draw(st.integers(0, N - 1))
    if draw(st.booleans()):
        x, y = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        lo, hi = sorted(draw(st.lists(st.integers(0, LAYERS - 1), min_size=2, max_size=2, unique=True)))
        return ViaSegment(x, y, lo, hi)
    if graph.stack.is_horizontal(layer):
        return WireSegment(layer, lo, at, hi, at)
    return WireSegment(layer, at, lo, at, hi)


@st.composite
def hand_routes(draw):
    """``Route(wires, vias)`` built by hand, overlaps and repeats kept."""
    graph = fresh_graph()
    routes = {}
    for j in range(draw(st.integers(1, 4))):
        segments = draw(st.lists(segment(graph), max_size=6))
        routes[f"h{j}"] = Route(
            [s for s in segments if isinstance(s, WireSegment)],
            [s for s in segments if isinstance(s, ViaSegment)],
        )
    return graph, routes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(batch_routes(), path_routes(), hand_routes()))
def test_a_route_rebuilt_from_its_views_is_the_same_route(case):
    """``Route(r.wires, r.vias)`` has ``r``'s rows, wirelength, via
    count, demand index and digest bytes; ``measure`` equals the
    per-segment oracle."""
    graph, routes = case
    for name, route in routes.items():
        rebuilt = Route(route.wires, route.vias)
        assert np.array_equal(rebuilt.table(), route.table())
        assert rebuilt.same_geometry(route) and route.same_geometry(rebuilt)
        assert (rebuilt.wirelength, rebuilt.n_vias) == (route.wirelength, route.n_vias)
        assert type(route.wirelength) is int and type(route.n_vias) is int
        assert rebuilt.is_empty() == route.is_empty() == (not route.wires and not route.vias)
        assert np.array_equal(rebuilt._demand_index(graph), route._demand_index(graph))
        assert rebuilt.digest_bytes(name) == route.digest_bytes(name)
    assert RoutingMetrics.measure(routes, graph) == measure_per_segment(routes, graph)


def test_same_geometry_reads_every_row_but_the_route_row():
    route = Route([WireSegment(1, 0, 1, 6, 1)], [ViaSegment(2, 2, 0, 3)])
    assert route.same_geometry(Route(route.wires, route.vias))
    for other in (
        Route([WireSegment(1, 0, 1, 5, 1)], route.vias),
        Route([WireSegment(3, 0, 1, 6, 1)], route.vias),
        Route(route.wires, [ViaSegment(2, 3, 0, 3)]),
        Route(route.wires, [ViaSegment(2, 2, 0, 2)]),
        Route(route.wires),
        Route(route.vias[:0], route.vias),
    ):
        assert not route.same_geometry(other) and not other.same_geometry(route)
    # Routes 0 and 1 of one table carry different route rows.
    path = [(0, 1, 1), (1, 1, 1), (1, 1, 2)]
    first, second = routes_from_paths(fresh_graph(), [[path], [path]])
    assert first.same_geometry(second)


def test_routes_are_immutable():
    route = Route([WireSegment(1, 0, 1, 6, 1)], [ViaSegment(2, 2, 0, 3)])
    with pytest.raises(AttributeError):
        route.wires.append(WireSegment(1, 0, 2, 6, 2))
    with pytest.raises(AttributeError):
        route.vias = ()
    (built,) = routes_from_paths(fresh_graph(), [[[(0, 1, 1), (1, 1, 1)]]])
    for rows in (route._rows, built._rows):
        with pytest.raises(ValueError):
            rows[4, 0] = 3


# ---------------------------------------------------------------------- #
# The run path builds no segment object
# ---------------------------------------------------------------------- #
def live_segments() -> int:
    return sum(isinstance(o, (WireSegment, ViaSegment)) for o in gc.get_objects())


def test_a_run_builds_no_segment_object(monkeypatch):
    """A one-shot run (with rip-up), a session run and an ECO, their
    metrics and digests, create no ``WireSegment``/``ViaSegment``; the
    views are built on first access, once."""
    built = []
    for cls in (WireSegment, ViaSegment):
        original = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, _f=original: built.append(self) or _f(self)
        )
    gc.collect()
    before = live_segments()
    checked = []

    def check(result, graph):
        assert result.metrics == RoutingMetrics.measure(result.routes, graph)
        result.digest()
        checked.append(result)

    design = load_benchmark("18test5", scale=0.05)
    check(GlobalRouter(design, RouterConfig.fastgr_l()).run(), design.graph)
    congested = congested_design()
    check(GlobalRouter(congested, RouterConfig.fastgr_l()).run(), congested.graph)
    assert checked[-1].nets_to_ripup > 0
    handle = DesignHandle.from_design(load_benchmark("18test5", scale=0.05))
    with RoutingSession(handle, RouterConfig.fastgr_l()) as session:
        check(session.run(), session.graph)
        delta = perturb_design(session.design, ECO_PRESETS["small"], seed=1)
        check(session.eco(delta).result, session.graph)
    gc.collect()
    assert built == [] and live_segments() == before
    route = next(r for r in checked[0].routes.values() if r.wirelength)
    wires = route.wires
    assert wires and route.wires is wires and route.vias is route.vias
    assert len(built) == len(wires) + len(route.vias)


# ---------------------------------------------------------------------- #
# What the metrics and the result checks read
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def routed():
    design = congested_design()
    return design, GlobalRouter(design, RouterConfig.fastgr_l()).run()


def test_result_payload_is_json_safe(routed):
    """The service dumps the metrics straight into JSON: they stay
    Python ints and floats, never NumPy scalars."""
    _, result = routed
    metrics = result.metrics
    assert type(metrics.wirelength) is int and type(metrics.n_vias) is int
    assert type(metrics.shorts) is float and type(metrics.score) is float
    payload = _result_payload(result)
    assert json.loads(json.dumps(payload)) == payload


def test_a_dropped_wire_fails_the_replay_and_the_metrics(routed):
    """The checks a result meets from outside — its routes replayed onto
    a fresh grid equal the routed demand, its metrics recompute — fail
    once one route loses a wire."""
    design, result = routed
    graph = design.graph

    def replay(routes):
        fresh = GridGraph(graph.nx, graph.ny, graph.stack)
        commit_routes(fresh, list(routes.values()))
        return fresh

    assert replay(result.routes).demand_equals(graph)
    assert RoutingMetrics.measure(result.routes, graph) == result.metrics
    name, route = next((n, r) for n, r in result.routes.items() if r.wirelength)
    broken = {**result.routes, name: Route(route.wires[:-1], route.vias)}
    assert not replay(broken).demand_equals(graph)
    assert RoutingMetrics.measure(broken, graph) != result.metrics
