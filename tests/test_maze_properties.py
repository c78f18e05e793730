"""Property-based tests for maze routing and the rip-up loop."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.cost import CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.netlist.net import Net, Pin
from tests.maze_oracle import ListMazeRouter, list_move_tables
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


def make_graph(demand_seed=None, n_layers=5, wall=None):
    """A ``GRID x GRID`` graph: uniform demand, or random demand from
    ``demand_seed``; ``wall = (x, gap)`` then overflows every x-edge
    ``(x, y)-(x+1, y)`` but the one at ``y = gap``."""
    graph = GridGraph(GRID, GRID, LayerStack(n_layers), wire_capacity=3.0)
    if demand_seed is not None:
        rng = np.random.default_rng(demand_seed)
        for layer in range(graph.n_layers):
            shape = graph.wire_demand[layer].shape
            graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
        graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    if wall is not None:
        x, gap = wall
        for layer in range(graph.n_layers):
            if graph.stack.is_horizontal(layer):
                column = graph.wire_demand[layer][x]
                column[:] = 20.0
                column[gap] = 0.0
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

    Covers what the goal-directed search and its bound fields must not
    get wrong: random and uniform (all-ties) cost fields, an overflow
    wall with one gap (where the Manhattan bound is loosest), 2-, 3-
    and 5-layer stacks, several sources and targets, targets clipped
    by the window, 1-wide / 1-tall / 1x1 windows, pins stacked on one
    cell (a plane switch only) and pins on the window border.
    """
    n_layers = draw(st.sampled_from([2, 3, 5]))
    demand_seed = draw(st.one_of(st.none(), st.integers(0, 200)))
    wall = draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, GRID - 2), st.integers(0, GRID - 1)),
        )
    )
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
    graph = (demand_seed, n_layers, wall)
    return graph, (x0, y0, x1, y1), sources, targets


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
    graph, region, sources, targets = case
    router = MazeRouter(make_graph(*graph), margin=GRID)
    expected = outcome(
        lambda: heap_dijkstra_oracle(router, sources, targets, region)[:2]
    )
    # Without tables the search builds the bound fields for ``targets``;
    # with a net's tables it reads the fields of the targets it is given.
    assert outcome(lambda: router._dijkstra(sources, targets, region)) == expected
    tables = router._build_tables(region, sorted(targets | sources))
    assert (
        outcome(lambda: router._dijkstra(sources, targets, region, tables))
        == expected
    )
    assert all(d == float("inf") for d in router._dist)


def remaining_distances(router, target, region):
    """Exact distance from every region node to ``target``: a reverse
    heap Dijkstra over the region's list move tables (node ``p`` reaches
    ``n = p + offset`` at ``costs[p]``), in search order."""
    x0, y0 = region[:2]
    moves, width, height = list_move_tables(router.graph, router.cost_model, region)[:3]
    size = router.graph.n_layers * width * height
    x, y, layer = target
    start = (layer * width + (x - x0)) * height + (y - y0)
    dist = [float("inf")] * size
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, idx = heapq.heappop(heap)
        if d > dist[idx]:
            continue
        for offset, costs in moves:
            pred = idx - offset
            if 0 <= pred < size and d + costs[pred] < dist[pred]:
                dist[pred] = d + costs[pred]
                heapq.heappush(heap, (dist[pred], pred))
    return np.array(dist)


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
def test_bound_fields_are_admissible(case):
    """Every bound-field entry is at most the exact remaining distance
    to its pin; pins outside the window get no field."""
    graph, region, sources, targets = case
    router = MazeRouter(make_graph(*graph), margin=GRID)
    pins = sorted(targets)
    tables = router._build_tables(region, pins)
    x0, y0, x1, y1 = region
    inside = [p for p in pins if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
    assert sorted(tables.rows) == inside
    assert tables.bounds.shape == (
        len(inside), router.graph.n_layers * (x1 - x0 + 1) * (y1 - y0 + 1)
    )
    for pin in inside:
        exact = remaining_distances(router, pin, region)
        assert (tables.bounds[tables.rows[pin]] <= exact).all()


class OracleMazeRouter(MazeRouter):
    """``MazeRouter`` with every splice search answered by the oracle."""

    def _search(self, sources, targets, region, tables):
        return heap_dijkstra_oracle(self, sources, targets, region)[:2]


@settings(max_examples=40, deadline=None)
@given(
    pins=pins_strategy(max_pins=6),
    demand_seed=st.one_of(st.none(), st.integers(0, 200)),
    wall=st.one_of(
        st.none(), st.tuples(st.integers(0, GRID - 2), st.integers(0, GRID - 1))
    ),
    margin=st.integers(0, 4),
)
def test_route_net_matches_oracle_router(pins, demand_seed, wall, margin):
    """Multi-pin routes are equal wire for wire, via for via."""
    net = Net("prop", [Pin(*p) for p in pins])
    graph = (demand_seed, 5, wall)
    got = MazeRouter(make_graph(*graph), margin=margin).route_net(net)
    expected = OracleMazeRouter(make_graph(*graph), margin=margin).route_net(net)
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
    query = CostQuery(graph, maze.cost_model)
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
    query = CostQuery(graph, scalar.cost_model)
    assert cost(r2, query) == pytest.approx(
        cost(r1, query), rel=1e-12, abs=1e-9
    )


class RecordingMazeRouter(MazeRouter):
    """``MazeRouter`` that appends each splice search's ``(path,
    reached)`` to ``searches``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.searches = []

    def _dijkstra(self, *args, **kwargs):
        found = super()._dijkstra(*args, **kwargs)
        self.searches.append(found)
        return found


@st.composite
def oracle_cases(draw):
    """A small grid with random (or uniform, all-ties) demand, a margin
    and a net: pins anywhere, in one column or one row with no margin
    (1-wide / 1-tall windows), on the corners of their own box with no
    margin (pins on window corners), or on the grid's border (windows
    the grid clips)."""
    n_layers = draw(st.sampled_from([2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = (int(v) for v in rng.integers(2, 11, 2))
    uniform = draw(st.booleans())
    shape = draw(st.sampled_from(["free", "wide1", "tall1", "corners", "border"]))
    margin = 0 if shape in ("wide1", "tall1", "corners") else draw(st.sampled_from([0, 1, 2, 6]))
    n_pins = draw(st.integers(2, 5))

    def layer():
        return int(rng.integers(0, n_layers))

    if shape == "corners":
        x0, x1 = sorted(int(v) for v in rng.integers(0, nx, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(0, ny, 2))
        corners = [(x0, y0), (x1, y1), (x0, y1), (x1, y0)]
        pins = [(*corners[i % 4], layer()) for i in range(n_pins)]
    elif shape == "border":
        pins = []
        for _ in range(n_pins):
            x, y = int(rng.integers(0, nx)), int(rng.integers(0, ny))
            if rng.integers(2):
                x = (0, nx - 1)[rng.integers(2)]
            else:
                y = (0, ny - 1)[rng.integers(2)]
            pins.append((x, y, layer()))
    else:
        column, row = int(rng.integers(0, nx)), int(rng.integers(0, ny))
        pins = [
            (
                column if shape == "wide1" else int(rng.integers(0, nx)),
                row if shape == "tall1" else int(rng.integers(0, ny)),
                layer(),
            )
            for _ in range(n_pins)
        ]
    graph = GridGraph(nx, ny, LayerStack(n_layers), wire_capacity=3.0, via_capacity=2.0)
    if not uniform:
        for demand in graph.wire_demand:
            demand[...] = rng.integers(0, 7, demand.shape)
        graph.via_demand[...] = rng.integers(0, 5, graph.via_demand.shape)
    return graph, margin, Net("oracle", [Pin(*p) for p in pins])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=oracle_cases())
def test_route_net_matches_list_table_oracle(case):
    """The production reroute — stacked window price, ``memoryview``
    search tables, array route build — reads the list-table oracle's
    move costs and bound field bit for bit, finds its paths with the
    same node expansions, and builds the same route with the same
    demand index."""
    graph, margin, net = case
    router = RecordingMazeRouter(graph, margin=margin)
    oracle = ListMazeRouter(graph, margin=margin)
    region = router._region(net)
    pins = sorted({pin.as_node() for pin in net.pins})[1:]
    tables = router._build_tables(region, pins)
    expected_tables = oracle._build_tables(region, pins)
    assert tables.rows == expected_tables.rows
    assert np.array_equal(tables.bounds, expected_tables.bounds)
    for (offset, costs), (want_offset, want) in zip(tables.moves, expected_tables.moves):
        assert offset == want_offset
        assert np.array_equal(np.asarray(costs), want)
    route = router.route_net(net)
    expected = oracle.route_net(net)
    assert router.searches == oracle.searches
    assert router.consume_visited() == oracle.consume_visited()
    assert (route.wires, route.vias) == (expected.wires, expected.vias)
    assert np.array_equal(route._demand_index(graph), expected._demand_index(graph))
    assert route.connects([p.as_node() for p in net.pins])
