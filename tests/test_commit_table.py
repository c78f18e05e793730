"""Committing a batch's segment table against committing its routes.

:func:`~repro.grid.route.commit_table` writes a whole batch's demand with
one scatter straight from the backtrace's segment table.  It must leave
the graph exactly as :func:`~repro.grid.route.commit_routes` over the
same routes does — demand and dirty-log records — and, before writing
anything, refuse what the per-route checks refuse with the same error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import (
    H_WIRE, V_WIRE, VIA, Route, ViaSegment, WireSegment, commit_routes, commit_table,
    routes_from_table,
)
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.commit import reconstruct_table
from repro.pattern.twopin import HpwlSelector, PatternMode

N, LAYERS = 20, 5


def segment_table(routes) -> np.ndarray:
    """The segment table of ``routes``, sorted by ``(kind, route)`` and
    in each route's own order."""
    rows = []
    for j, route in enumerate(routes):
        for w in route.wires:
            if w.y1 == w.y2:
                rows.append((H_WIRE, j, w.layer, w.y1, w.x1, w.x2))
            else:
                rows.append((V_WIRE, j, w.layer, w.x1, w.y1, w.y2))
        rows.extend((VIA, j, v.x, v.y, v.lo, v.hi) for v in route.vias)
    rows.sort(key=lambda row: row[:2])
    return np.array(rows, dtype=np.intp).reshape(-1, 6).T


def mixed_batch(seed: int):
    """A routed level of 1- to 6-cell nets under L, Z and hybrid
    patterns, as the backtrace's segment table and its routes."""
    rng = np.random.default_rng(seed)
    nets = []
    for i, (x0, y0) in enumerate((x, y) for x in range(0, N - 5, 6) for y in range(0, N - 5, 6)):
        n_pins = int(rng.integers(1, 7))
        nets.append(Net(f"n{i}", [
            Pin(x0 + int(rng.integers(0, 5)), y0 + int(rng.integers(0, 5)),
                int(rng.integers(0, LAYERS)))
            for _ in range(n_pins)
        ]))
    graph = GridGraph(N, N, LayerStack(LAYERS))
    router = BatchPatternRouter(graph, backend="numpy")
    mode_fn = HpwlSelector(PatternMode.HYBRID, 3, 6) if seed % 2 else HpwlSelector(
        PatternMode.ZSHAPE, 2, 8
    )
    states = router.plan_nets(nets, mode_fn)
    router.query.rebuild()
    (state,) = router.route_jobs([], mode_fn, states)
    table = reconstruct_table(state)
    return table, routes_from_table(table, len(nets))


def twin_graphs():
    graphs = [GridGraph(N, N, LayerStack(LAYERS)) for _ in range(2)]
    for graph in graphs:  # some demand to begin with
        graph.add_wire_demand(1, 2, 3, 9, 3)
        graph.add_via_demand(4, 4, 0, 3)
    return graphs


@pytest.mark.parametrize("seed", range(4))
def test_table_commit_equals_route_commit(seed):
    table, routes = mixed_batch(seed)
    assert np.array_equal(segment_table(routes), table)
    mine, theirs = twin_graphs()
    commit_table(mine, table, routes)
    commit_routes(theirs, routes)
    for a, b in zip(mine.wire_demand + [mine.via_demand], theirs.wire_demand + [theirs.via_demand]):
        assert np.array_equal(a, b)
    # Rip-up indexes the routes lazily and takes the demand back out.
    commit_table(mine, table, routes, amount=-1.0)
    for route in routes:
        route.uncommit(theirs)
    assert np.array_equal(mine.demand_flat, theirs.demand_flat)


BAD_WIRES = {
    "off the grid": WireSegment(1, N - 2, 4, N + 1, 4),  # layer 1 is horizontal
    "wrong direction": WireSegment(2, 3, 4, 7, 4),  # layer 2 is vertical
    "off the stack": WireSegment(LAYERS, 3, 4, 7, 4),
}


@pytest.mark.parametrize("bad", sorted(BAD_WIRES))
def test_a_bad_segment_raises_before_anything_is_written(bad):
    table, routes = mixed_batch(1)
    routes[2].wires.insert(0, BAD_WIRES[bad])
    table = segment_table(routes)
    mine, theirs = twin_graphs()
    with pytest.raises(ValueError) as expected:
        commit_routes(theirs, routes)
    before = mine.demand_flat.copy()
    with pytest.raises(ValueError) as raised:
        commit_table(mine, table, routes)
    assert str(raised.value) == str(expected.value)
    assert np.array_equal(mine.demand_flat, before)


def test_a_bad_via_raises_like_its_route():
    routes = [Route(vias=[ViaSegment(3, 3, 1, LAYERS)])]
    graph = GridGraph(N, N, LayerStack(LAYERS))
    with pytest.raises(ValueError, match="via layers out of range"):
        commit_table(graph, segment_table(routes), routes)
    assert not graph.demand_flat.any()


def test_routes_from_table_refuses_an_unsorted_or_empty_segment():
    table, _ = mixed_batch(0)
    with pytest.raises(ValueError):
        routes_from_table(table[:, ::-1], table[1].max() + 1)
    flat = table.copy()
    flat[5, 0] = flat[4, 0]  # zero length
    with pytest.raises(ValueError):
        routes_from_table(flat, table[1].max() + 1)
