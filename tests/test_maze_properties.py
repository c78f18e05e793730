"""Property-based tests for maze routing and the rip-up loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.netlist.net import Net, Pin
from tests.test_maze import heap_dijkstra_oracle

GRID = 12


def pins_strategy(max_pins=5):
    return st.lists(
        st.tuples(
            st.integers(0, GRID - 1),
            st.integers(0, GRID - 1),
            st.integers(0, 2),
        ),
        min_size=2,
        max_size=max_pins,
    )


def make_graph(demand_seed=None, n_layers=5):
    graph = GridGraph(GRID, GRID, LayerStack(n_layers), wire_capacity=3.0)
    if demand_seed is not None:
        rng = np.random.default_rng(demand_seed)
        for layer in range(graph.n_layers):
            shape = graph.wire_demand[layer].shape
            graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
        graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    return graph


@settings(max_examples=40, deadline=None)
@given(pins=pins_strategy(), demand_seed=st.integers(0, 200))
def test_maze_routes_connect_random_nets(pins, demand_seed):
    net = Net("prop", [Pin(*p) for p in pins])
    graph = make_graph(demand_seed)
    route = MazeRouter(graph, margin=GRID).route_net(net)
    assert route.connects([p.as_node() for p in net.pins])


@st.composite
def search_cases(draw):
    """A demand field, a search window and source/target node sets.

    Covers what the goal-directed search must not get wrong: random
    and uniform (all-ties) cost fields, several sources and targets,
    targets clipped by the window, 1-wide / 1-tall / 1x1 windows, pins
    stacked on one cell and pins on the window border.
    """
    n_layers = draw(st.sampled_from([2, 3, 5]))
    demand_seed = draw(st.one_of(st.none(), st.integers(0, 200)))
    # Coordinates come from a seeded generator, not from integer
    # strategies: those favour small values, which piles every pin into
    # one corner and keeps the paths two nodes long.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0, x1 = sorted(int(v) for v in rng.integers(0, GRID, 2))
    y0, y1 = sorted(int(v) for v in rng.integers(0, GRID, 2))
    shape = draw(
        st.sampled_from(["full", "full", "random", "random", "wide1", "tall1", "cell"])
    )
    if shape == "full":
        x0, y0, x1, y1 = 0, 0, GRID - 1, GRID - 1
    if shape in ("wide1", "cell"):
        x1 = x0
    if shape in ("tall1", "cell"):
        y1 = y0

    def node(xlo, xhi, ylo, yhi):
        return (
            int(rng.integers(xlo, xhi + 1)),
            int(rng.integers(ylo, yhi + 1)),
            int(rng.integers(0, n_layers)),
        )

    def corner():
        return (
            (x0, x1)[rng.integers(2)],
            (y0, y1)[rng.integers(2)],
            int(rng.integers(0, n_layers)),
        )

    sources = {node(x0, x1, y0, y1) for _ in range(draw(st.integers(1, 3)))}
    targets = {node(x0, x1, y0, y1) for _ in range(draw(st.integers(1, 3)))}
    extra = draw(st.sampled_from(["none", "border", "clipped", "stacked", "overlap"]))
    if extra == "border":
        sources.add(corner())
        targets.add(corner())
    elif extra == "clipped":
        # Anywhere on the grid: usually outside a small window.
        targets.update(node(0, GRID - 1, 0, GRID - 1) for _ in range(2))
    elif extra == "stacked":
        # Same-cell pin on another layer: a pure via search.
        x, y, layer = min(sources)
        targets.add((x, y, (layer + 1) % n_layers))
    if extra != "overlap":
        # route_net passes disjoint sets; overlap is legal all the same.
        targets = (targets - sources) or targets
    return n_layers, demand_seed, (x0, y0, x1, y1), sources, targets


def outcome(search):
    try:
        return search()
    except MazeRoutingError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
def test_search_matches_heap_dijkstra_oracle(case):
    """The goal-directed search returns the oracle's path and pin, bit
    for bit, and fails exactly when (and how) the oracle fails."""
    n_layers, demand_seed, region, sources, targets = case
    router = MazeRouter(make_graph(demand_seed, n_layers), margin=GRID)
    router.query.rebuild()
    expected = outcome(
        lambda: heap_dijkstra_oracle(router, sources, targets, region)[:2]
    )
    assert outcome(lambda: router._dijkstra(sources, targets, region)) == expected
    assert all(d == float("inf") for d in router._dist)


class OracleMazeRouter(MazeRouter):
    """``MazeRouter`` with every splice search answered by the oracle."""

    def _search(self, sources, targets, region, tables):
        return heap_dijkstra_oracle(self, sources, targets, region)[:2]


@settings(max_examples=40, deadline=None)
@given(
    pins=pins_strategy(max_pins=6),
    demand_seed=st.one_of(st.none(), st.integers(0, 200)),
    margin=st.integers(0, 4),
)
def test_route_net_matches_oracle_router(pins, demand_seed, margin):
    """Multi-pin routes are equal wire for wire, via for via."""
    net = Net("prop", [Pin(*p) for p in pins])
    got = MazeRouter(make_graph(demand_seed), margin=margin).route_net(net)
    expected = OracleMazeRouter(make_graph(demand_seed), margin=margin).route_net(net)
    assert got.wires == expected.wires
    assert got.vias == expected.vias


@settings(max_examples=30, deadline=None)
@given(pins=pins_strategy(max_pins=3), demand_seed=st.integers(0, 200))
def test_maze_route_commits_legally(pins, demand_seed):
    """Every maze route obeys preferred directions (commit validates)."""
    net = Net("prop", [Pin(*p) for p in pins])
    graph = make_graph(demand_seed)
    route = MazeRouter(graph, margin=GRID).route_net(net)
    route.commit(graph)
    route.uncommit(graph)


@settings(max_examples=30, deadline=None)
@given(
    src=st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
    dst=st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
    demand_seed=st.integers(0, 200),
)
def test_maze_never_beaten_by_pattern(src, dst, demand_seed):
    """Maze explores a superset of the pattern search space: for a
    two-pin net its path cost is <= the L-shape DP optimum."""
    from repro.pattern.batch import BatchPatternRouter
    from repro.pattern.twopin import PatternMode, constant_mode

    net = Net("prop", [Pin(src[0], src[1], 0), Pin(dst[0], dst[1], 0)])
    graph = make_graph(demand_seed)
    maze = MazeRouter(graph, margin=GRID)
    route = maze.route_net(net)
    query = maze.query
    maze_cost = 0.0
    for wire in route.wires:
        maze_cost += query.wire_segment_cost(
            wire.layer, wire.x1, wire.y1, wire.x2, wire.y2
        )
    for via in route.vias:
        maze_cost += query.via_stack_cost(via.x, via.y, via.lo, via.hi)

    pattern = BatchPatternRouter(graph, edge_shift=False)
    job = pattern.make_job(net)
    pattern.route_jobs([job], constant_mode(PatternMode.LSHAPE))
    assert maze_cost <= job.total_cost + 1e-6


@settings(max_examples=15, deadline=None)
@given(
    src=st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)
    ),
    dst=st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)
    ),
    demand_seed=st.integers(0, 100),
)
def test_wavefront_matches_dijkstra_two_pin(src, dst, demand_seed):
    """Property: both engines find equal-cost routes for any two-pin
    net under random congestion (the wavefront fixpoint is exact)."""
    from repro.maze.wavefront import WavefrontMazeRouter

    graph = GridGraph(7, 7, LayerStack(3), wire_capacity=3.0)
    rng = np.random.default_rng(demand_seed)
    for layer in range(graph.n_layers):
        shape = graph.wire_demand[layer].shape
        graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
    graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    net = Net("prop", [Pin(*src), Pin(*dst)])

    def cost(route, query):
        total = 0.0
        for w in route.wires:
            total += query.wire_segment_cost(w.layer, w.x1, w.y1, w.x2, w.y2)
        for v in route.vias:
            total += query.via_stack_cost(v.x, v.y, v.lo, v.hi)
        return total

    scalar = MazeRouter(graph, margin=7)
    wave = WavefrontMazeRouter(graph, margin=7)
    r1 = scalar.route_net(net)
    r2 = wave.route_net(net)
    assert cost(r2, wave.query) == pytest.approx(
        cost(r1, scalar.query), rel=1e-12, abs=1e-9
    )
