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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import (
    H_WIRE, V_WIRE, VIA, Route, ViaSegment, WireSegment, commit_routes, commit_table,
    normalize_table, routes_from_table,
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


@st.composite
def raw_rows(draw):
    """``(raw, n_routes)``: raw segment rows as a backtrace or a maze
    path emits them — overlapping, repeated and empty (``lo == hi``)
    rows in any order."""
    n_routes = draw(st.integers(1, 4))
    coordinate = st.integers(0, 6)
    rows = draw(st.lists(
        st.tuples(
            st.integers(H_WIRE, VIA), st.integers(0, n_routes - 1),
            coordinate, coordinate, coordinate, st.integers(0, 3),
        ).map(lambda r: (*r[:5], r[4] + r[5])),
        max_size=24,
    ))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    rows = draw(st.permutations(rows))
    return np.array(rows, dtype=np.intp).reshape(-1, 6).T, n_routes


def units(table: np.ndarray):
    """The set of ``(kind, route, a, b, unit)`` a table's rows cover."""
    return {
        (kind, route, a, b, unit)
        for kind, route, a, b, lo, hi in table.T.tolist()
        for unit in range(lo, hi)
    }


@settings(max_examples=200, deadline=None)
@given(raw_rows())
def test_normalize_table_holds_what_routes_from_table_assumes(case):
    """:func:`routes_from_table` checks nothing: every table it is given
    is :func:`normalize_table` output, which is sorted by ``(kind,
    route)``, keeps every route in range and has ``lo < hi`` on every
    row — and covers exactly the unit edges of its raw rows."""
    raw, n_routes = case
    table = normalize_table(raw, n_routes)
    kind, route, _, _, lo, hi = table
    group = kind * n_routes + route
    assert (group[1:] >= group[:-1]).all()
    assert ((0 <= kind) & (kind <= VIA) & (0 <= route) & (route < n_routes)).all()
    assert (lo < hi).all()
    assert units(table) == units(raw)
    routes = routes_from_table(table, n_routes)
    assert len(routes) == n_routes
    assert sum(r.wirelength + r.n_vias for r in routes) == len(units(raw))
