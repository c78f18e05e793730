"""Tests for route reconstruction and normalisation.

:func:`walk_route_oracle` is the recursive per-net walker the batch
backtrace replaced, kept here as its reference: it descends one job node
by node with :func:`best_layer_in_interval`, emits raw segments and
leaves de-duplication to :func:`normalize_route`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RouterConfig
from repro.core.selection import make_mode_selector
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment, routes_from_paths
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.commit import (
    best_layer_in_interval,
    normalize_route,
    reconstruct_route,
    reconstruct_routes,
)
from repro.pattern.twopin import NetRoutingJob, PatternMode, constant_mode


def walk_route_oracle(job: NetRoutingJob) -> Route:
    """Rebuild ``job``'s route one tree node at a time (the reference)."""
    state, ordered, nodes = job.state, job.ordered, job.tree.nodes
    wires, vias = [], []

    def wire(a, b, layer):
        if a != b:
            wires.append(WireSegment(layer, a[0], a[1], b[0], b[1]))

    def via(p, lo, hi):
        if lo != hi:
            vias.append(ViaSegment(p[0], p[1], min(lo, hi), max(lo, hi)))

    root = nodes[ordered.root].point
    lo, hi = job.root_interval
    via((root.x, root.y), lo, hi)
    pending = [(child, lo, hi) for child in ordered.children(ordered.root)]
    while pending:
        node, lo, hi = pending.pop()
        row = job.row0 + node
        arrival = best_layer_in_interval(state.values[row], lo, hi)
        source_layer, mid_layer, bsx, bsy, btx, bty = state.path[row, arrival].tolist()
        src = (nodes[node].point.x, nodes[node].point.y)
        parent = nodes[ordered.parent[node]].point
        wire(src, (bsx, bsy), source_layer)
        via((bsx, bsy), source_layer, mid_layer)
        wire((bsx, bsy), (btx, bty), mid_layer)
        via((btx, bty), mid_layer, arrival)
        wire((btx, bty), (parent.x, parent.y), arrival)
        stack_lo, stack_hi = state.stack[row, source_layer].tolist()
        via(src, stack_lo, stack_hi)
        pending.extend((c, stack_lo, stack_hi) for c in ordered.children(node))
    return normalize_route(Route(wires, vias))


class TestBestLayerInInterval:
    def test_picks_minimum(self):
        vec = np.array([9.0, 3.0, 7.0, 1.0, 5.0])
        assert best_layer_in_interval(vec, 0, 4) == 3
        assert best_layer_in_interval(vec, 0, 2) == 1
        assert best_layer_in_interval(vec, 4, 4) == 4

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            best_layer_in_interval(np.zeros(5), 3, 2)


class TestNormalize:
    def test_dedupes_overlapping_wires(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 5, 0), WireSegment(1, 3, 0, 8, 0)]
        )
        normal = normalize_route(route)
        assert len(normal.wires) == 1
        assert normal.wirelength == 8

    def test_merges_adjacent_wires(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 3, 0), WireSegment(1, 3, 0, 6, 0)]
        )
        normal = normalize_route(route)
        assert len(normal.wires) == 1
        assert normal.wires[0].length == 6

    def test_keeps_disjoint_wires_apart(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 2, 0), WireSegment(1, 4, 0, 6, 0)]
        )
        normal = normalize_route(route)
        assert len(normal.wires) == 2

    def test_different_layers_not_merged(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 3, 0), WireSegment(3, 0, 0, 3, 0)]
        )
        normal = normalize_route(route)
        assert len(normal.wires) == 2

    def test_different_rows_not_merged(self):
        route = Route(
            wires=[WireSegment(1, 0, 0, 3, 0), WireSegment(1, 0, 1, 3, 1)]
        )
        assert len(normalize_route(route).wires) == 2

    def test_dedupes_via_stacks(self):
        route = Route(
            vias=[ViaSegment(2, 2, 0, 3), ViaSegment(2, 2, 1, 4)]
        )
        normal = normalize_route(route)
        assert len(normal.vias) == 1
        assert (normal.vias[0].lo, normal.vias[0].hi) == (0, 4)

    def test_vertical_wires_merge(self):
        route = Route(
            wires=[WireSegment(0, 4, 0, 4, 3), WireSegment(0, 4, 2, 4, 7)]
        )
        normal = normalize_route(route)
        assert len(normal.wires) == 1
        assert normal.wirelength == 7

    def test_preserves_coverage(self):
        route = Route(
            wires=[
                WireSegment(1, 0, 0, 5, 0),
                WireSegment(1, 3, 0, 8, 0),
                WireSegment(0, 8, 0, 8, 4),
            ],
            vias=[ViaSegment(8, 0, 0, 2), ViaSegment(8, 0, 1, 3)],
        )
        assert normalize_route(route).nodes() == route.nodes()

    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from([1, 3]),  # H layers of a 5-layer stack
                st.integers(0, 8),
                st.integers(0, 8),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=12,
        ),
        paths=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 4)),
                st.lists(st.sampled_from(["along", "back", "up", "down"]), max_size=12),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_coverage_and_minimality(self, segments, paths):
        """Normalisation preserves covered nodes and never grows length;
        maze paths come out as exactly their unit edges, normalised."""
        wires = [
            WireSegment(layer, x, y, x + length, y)
            for layer, x, y, length in segments
        ]
        route = Route(wires=wires)
        normal = normalize_route(route)
        assert normal.nodes() == route.nodes()
        assert normal.wirelength <= route.wirelength
        # Unit-edge count equals the deduped set size.
        unit_edges = set()
        for layer, x, y, length in segments:
            for step in range(length):
                unit_edges.add((layer, x + step, y))
        assert normal.wirelength == len(unit_edges)

        grid = GridGraph(10, 10, LayerStack(5))
        node_paths = [unit_step_path(grid, start, moves) for start, moves in paths]
        (built,) = routes_from_paths(grid, [node_paths])
        wires, vias = [], []  # one segment per step of every path
        for path in node_paths:
            for (x, y, layer), nxt in zip(path, path[1:]):
                if nxt[2] != layer:
                    vias.append(ViaSegment(x, y, layer, nxt[2]))
                else:
                    wires.append(WireSegment(layer, x, y, nxt[0], nxt[1]))
        steps = Route(wires, vias)
        want = normalize_route(steps)
        assert (built.wires, built.vias) == (want.wires, want.vias)
        assert built.nodes() == steps.nodes()
        assert built.wirelength + built.n_vias == len(
            {frozenset(step) for path in node_paths for step in zip(path, path[1:])}
        )


def unit_step_path(grid, start, moves):
    """The node path from ``start`` taking each of ``moves`` that stays
    on the grid: ``along``/``back`` the layer's direction, ``up``/``down``
    a layer."""
    path = [start]
    for move in moves:
        x, y, layer = path[-1]
        sign = 1 if move in ("along", "up") else -1
        if move in ("up", "down"):
            layer += sign
        elif grid.stack.is_horizontal(layer):
            x += sign
        else:
            y += sign
        if 0 <= x < grid.nx and 0 <= y < grid.ny and 0 <= layer < grid.n_layers:
            path.append((x, y, layer))
    return path


class TestReconstructSharing:
    def test_sibling_paths_share_edges_once(self):
        """Two children across a common trunk must not double demand."""
        grid = GridGraph(16, 16, LayerStack(5), wire_capacity=4.0)
        # Three collinear pins: the two outer ones route through the middle.
        net = Net("n", [Pin(2, 5, 0), Pin(8, 5, 0), Pin(14, 5, 0)])
        router = BatchPatternRouter(grid, edge_shift=False)
        job = router.make_job(net)
        router.route_jobs([job], constant_mode(PatternMode.LSHAPE))
        route = reconstruct_route(job)
        route.commit(grid)
        for layer in range(grid.n_layers):
            assert np.all(grid.wire_demand[layer] <= 1.0)


MODE_FNS = {
    "L": lambda graph: constant_mode(PatternMode.LSHAPE),
    "Z": lambda graph: constant_mode(PatternMode.ZSHAPE),
    "H": lambda graph: constant_mode(PatternMode.HYBRID),
    "fastgr_h": lambda graph: make_mode_selector(RouterConfig.fastgr_h(), graph),
}

# Small coordinate and layer ranges on purpose: pins sharing a G-cell,
# collinear pins and sibling paths over the same edges are then common.
pins = st.builds(Pin, st.integers(0, 9), st.integers(0, 9), st.integers(0, 3))
nets = st.one_of(
    st.lists(pins, min_size=1, max_size=8),
    st.lists(st.builds(Pin, st.just(4), st.integers(0, 9), st.integers(0, 3)),
             min_size=2, max_size=5),  # collinear
    st.lists(st.builds(Pin, st.just(6), st.just(2), st.integers(0, 3)),
             min_size=1, max_size=4),  # one G-cell
)


class TestBatchBacktrace:
    @given(
        batch=st.lists(nets, min_size=1, max_size=6),
        mode=st.sampled_from(sorted(MODE_FNS)),
        load=st.lists(
            st.tuples(st.sampled_from([1, 3]), st.integers(0, 8), st.integers(0, 9)),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_walker_job_by_job(self, batch, mode, load):
        grid = GridGraph(10, 10, LayerStack(5), wire_capacity=2.0)
        for layer, x, y in load:  # congestion, so argmins are not all ties
            grid.add_wire_demand(layer, x, y, x + 1, y, 3.0)
        router = BatchPatternRouter(grid, edge_shift=False)
        jobs = [router.make_job(Net(f"n{i}", p)) for i, p in enumerate(batch)]
        (state,) = router.route_jobs(jobs, MODE_FNS[mode](grid))
        expected = [walk_route_oracle(job) for job in jobs]
        for route, want in zip(reconstruct_routes(state), expected):
            assert route.wires == want.wires
            assert route.vias == want.vias
        # One job of a batch comes out the same on its own.
        alone = reconstruct_route(jobs[-1])
        assert (alone.wires, alone.vias) == (expected[-1].wires, expected[-1].vias)
