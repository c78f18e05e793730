"""Incremental cost engine vs the full-rebuild oracle.

The contract under test: the incremental engine's snapshot — edge
costs, all three prefix tables, and their device twins — is *bit
identical* to a from-scratch full rebuild after any sequence of
commits, uncommits, direct demand writes, and window-limited refreshes,
on every registered backend, masked and unmasked.  And when a
window-limited rebuild leaves a region pending, querying it raises
:class:`~repro.grid.cost.StaleCostError` instead of serving stale costs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import available_backends, get_backend
from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.grid.cost import (
    COST_ENGINES,
    CostModel,
    CostQuery,
    StaleCostError,
)
from repro.grid.geometry import Rect, rect_union_area, rects_overlap
from repro.grid.graph import DirtyLog, GridGraph
from repro.grid.layers import Direction, LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.netlist.benchmarks import load_benchmark

NX, NY, L = 20, 16, 5


def make_graph() -> GridGraph:
    return GridGraph(NX, NY, LayerStack(L, Direction.VERTICAL),
                     wire_capacity=4.0, via_capacity=8.0)


def random_route(rng: np.random.Generator, stack: LayerStack) -> Route:
    route = Route()
    for _ in range(int(rng.integers(1, 4))):
        layer = int(rng.integers(0, L))
        if stack.is_horizontal(layer):
            y = int(rng.integers(0, NY))
            x1, x2 = sorted(int(v) for v in rng.integers(0, NX, 2))
            if x1 != x2:
                route.add_wire(WireSegment(layer, x1, y, x2, y))
        else:
            x = int(rng.integers(0, NX))
            y1, y2 = sorted(int(v) for v in rng.integers(0, NY, 2))
            if y1 != y2:
                route.add_wire(WireSegment(layer, x, y1, x, y2))
    if rng.random() < 0.7:
        lo, hi = sorted(int(v) for v in rng.integers(0, L, 2))
        if lo != hi:
            route.add_via(
                ViaSegment(int(rng.integers(0, NX)), int(rng.integers(0, NY)),
                           lo, hi)
            )
    return route


def assert_snapshots_equal(inc: CostQuery, full: CostQuery, context="") -> None:
    """Bitwise comparison of every table, host and device."""
    for layer in range(L):
        assert np.array_equal(inc.wire_cost[layer], full.wire_cost[layer]), (
            f"wire_cost[{layer}] diverged {context}"
        )
    assert np.array_equal(inc.via_cost, full.via_cost), context
    for name in ("_h_prefix", "_v_prefix", "_via_prefix"):
        assert np.array_equal(getattr(inc, name), getattr(full, name)), (
            f"{name} diverged {context}"
        )
    xp = inc.backend
    for name in ("_h_prefix_dev", "_v_prefix_dev", "_via_prefix_dev"):
        assert np.array_equal(
            xp.to_numpy(getattr(inc, name)),
            full.backend.to_numpy(getattr(full, name)),
        ), f"{name} diverged {context}"


@pytest.mark.parametrize("backend_name", available_backends())
class TestUnmaskedParity:
    def test_random_commit_uncommit_sequence(self, backend_name):
        """Random commits/uncommits: bit-identical to a fresh oracle."""
        rng = np.random.default_rng(42)
        graph = make_graph()
        model = CostModel()
        inc = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="incremental"
        )
        committed = []
        for step in range(30):
            if committed and rng.random() < 0.4:
                committed.pop(int(rng.integers(0, len(committed)))).uncommit(graph)
            else:
                route = random_route(rng, graph.stack)
                route.commit(graph)
                committed.append(route)
            inc.rebuild()
            inc.sync()
            oracle = CostQuery(
                graph, model, backend=get_backend(backend_name), engine="full"
            )
            assert_snapshots_equal(inc, oracle, f"at step {step}")

    def test_direct_demand_write_via_mark_all(self, backend_name):
        """Bulk demand writes with mark_all_demand_dirty stay exact."""
        graph = make_graph()
        model = CostModel()
        inc = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="incremental"
        )
        rng = np.random.default_rng(3)
        graph.wire_demand[0][:] = rng.integers(0, 7, graph.wire_demand[0].shape)
        graph.via_demand[:] = rng.integers(0, 9, graph.via_demand.shape)
        graph.mark_all_demand_dirty()
        inc.rebuild()
        inc.sync()
        oracle = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="full"
        )
        assert_snapshots_equal(inc, oracle)

    def test_restore_demand_invalidates(self, backend_name):
        """restore_demand logs an ALL record: the next rebuild is exact."""
        graph = make_graph()
        model = CostModel()
        inc = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="incremental"
        )
        snapshot = graph.demand_snapshot()
        route = random_route(np.random.default_rng(5), graph.stack)
        route.commit(graph)
        inc.rebuild()
        graph.restore_demand(snapshot)
        inc.rebuild()
        inc.sync()
        oracle = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="full"
        )
        assert_snapshots_equal(inc, oracle)


def rect_strategy():
    """Any on-grid box: border-touching and zero-area ones included."""
    xs = st.sampled_from([0, NX - 1]) | st.integers(0, NX - 1)
    ys = st.sampled_from([0, NY - 1]) | st.integers(0, NY - 1)
    flat = st.booleans()
    return st.builds(
        lambda x0, x1, y0, y1, flat_x, flat_y: Rect(
            min(x0, x1),
            min(y0, y1),
            min(x0, x1) if flat_x else max(x0, x1),
            min(y0, y1) if flat_y else max(y0, y1),
        ),
        xs, xs, ys, ys, flat, flat,
    )


@st.composite
def level_boxes(draw, min_size=12):
    """A level-sized batch: dozens of pairwise-disjoint boxes (one per
    tile of a coarse tiling, shrunk at random inside its tile)."""
    tile = draw(st.integers(2, 4))
    inner = st.integers(0, tile - 1)
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, NX // tile - 1), st.integers(0, NY // tile - 1),
                inner, inner, inner, inner,
            ),
            unique_by=lambda pick: pick[:2],
            min_size=min_size,
            max_size=40,
        )
    )
    return [
        Rect(
            tx * tile + min(a, b), ty * tile + min(c, d),
            tx * tile + max(a, b), ty * tile + max(c, d),
        )
        for tx, ty, a, b, c, d in picks
    ]


@st.composite
def box_lists(draw):
    """Small arbitrary lists (overlaps likely, empty possible), the
    same with duplicates appended, or a disjoint level-sized batch."""
    kind = draw(st.sampled_from(["small", "duplicates", "level"]))
    if kind == "level":
        return draw(level_boxes())
    boxes = draw(st.lists(rect_strategy(), max_size=5))
    if kind == "duplicates" and boxes:
        boxes = boxes + draw(st.lists(st.sampled_from(boxes), min_size=1, max_size=3))
    return boxes


FULL_GRID = Rect(0, 0, NX - 1, NY - 1)


@pytest.mark.parametrize("backend_name", available_backends())
@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.tuples(box_lists(), st.booleans()), min_size=2, max_size=5),
    seed=st.integers(0, 2**16),
)
@example(  # every named shape once, deterministically
    steps=[
        ([Rect(2, 2, 8, 8), Rect(5, 5, 12, 12)], False),
        ([Rect(5, 5, 12, 12), Rect(2, 2, 8, 8), Rect(5, 5, 12, 12)], False),
        ([], False),
        ([FULL_GRID, Rect(0, 0, 0, 0), Rect(NX - 1, 3, NX - 1, 9)], False),
        ([Rect(4, 0, 9, 0), Rect(0, NY - 1, NX - 1, NY - 1)], True),
        ([Rect(3 * i, 4 * j, 3 * i + 2, 4 * j + 3)
          for i in range(6) for j in range(4)], False),
        ([Rect(1, 1, 3, 3)], False),
    ],
    seed=7,
)
def test_masked_parity(backend_name, steps, seed):
    """Masked rebuilds (the scheduler's pinned-reference path) match the
    oracle bit for bit — tables *and* tallies — over box lists of every
    shape: level-sized disjoint batches, overlapping and duplicate
    boxes, border-touching and zero-area boxes, the empty list, and a
    reference change mid-sequence.

    Tallies: ``last_upload_bytes`` counts the fresh boxes only, as the
    oracle does.  ``refreshed_*`` also counts the cells the incremental
    engine copies back from the reference (the previous rebuild's
    boxes), so the oracle is asked for its tally of both box lists; a
    rebuild that reseeds (new reference) tallies the whole grid, like
    the oracle's own full rebuild.
    """
    rng = np.random.default_rng(seed)
    graph = make_graph()
    model = CostModel()
    backend = get_backend(backend_name)
    inc = CostQuery(graph, model, backend=backend, engine="incremental")
    full = CostQuery(graph, model, backend=backend, engine="full")
    whole_grid = full.stats.copy()
    reference = inc.snapshot_reference()
    previous, reseed = [], True
    for step, (boxes, new_reference) in enumerate(steps):
        # Dense enough that live and reference costs differ in most
        # boxes: which of two overlapping boxes owns a prefix entry
        # then shows in its bits.
        for _ in range(20):
            random_route(rng, graph.stack).commit(graph)
        if new_reference:
            reference = CostQuery(graph, model, engine="full").snapshot_reference()
            previous, reseed = [], True
        before = inc.stats.copy()
        inc.rebuild(boxes=boxes, reference=reference)
        inc.sync()
        delta = inc.stats.delta(before)

        before = full.stats.copy()
        full.rebuild(boxes=previous + boxes, reference=reference)
        expected = whole_grid if reseed else full.stats.delta(before)
        assert delta.refreshed_wire_edges == expected.refreshed_wire_edges, step
        assert delta.refreshed_via_edges == expected.refreshed_via_edges, step
        full.rebuild(boxes=boxes, reference=reference)
        if reseed:
            assert inc.last_upload_bytes == (
                whole_grid.refreshed_edges * inc.via_cost.itemsize
            )
        else:
            assert inc.last_upload_bytes == full.last_upload_bytes, step
        assert delta.masked_rebuilds == 1
        assert_snapshots_equal(inc, full, f"at step {step}")
        previous, reseed = boxes, False
    # Masked -> unmasked transition falls back to a clean full refresh.
    inc.rebuild()
    inc.sync()
    oracle = CostQuery(graph, model, backend=backend, engine="full")
    assert_snapshots_equal(inc, oracle, "after mode switch")


@pytest.mark.parametrize("backend_name", available_backends())
@settings(max_examples=25, deadline=None)
@given(boxes=level_boxes(min_size=2), position=st.integers(0, 39),
       seed=st.integers(0, 2**16))
def test_in_box_queries_ignore_mask_mates(backend_name, boxes, position, seed):
    """What the session's per-net route cache relies on: a query that
    stays inside one box returns the same bits whether that box is
    masked alone or together with any other disjoint boxes."""
    rng = np.random.default_rng(seed)
    graph = make_graph()
    model = CostModel()
    reference = CostQuery(graph, model).snapshot_reference()
    for _ in range(12):
        random_route(rng, graph.stack).commit(graph)
    box, mates = boxes[0], boxes[1:]
    position %= len(boxes)
    together = mates[:position] + [box] + mates[position:]
    xs, ys = np.arange(box.xlo, box.xhi + 1), np.arange(box.ylo, box.yhi + 1)
    x_grid, y_grid = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    answers = []
    for mask in ([box], together):
        query = CostQuery(
            graph, model, backend=get_backend(backend_name), engine="incremental"
        )
        query.rebuild(boxes=mask, reference=reference)
        to_numpy = query.backend.to_numpy
        answers.append((
            # Every horizontal / vertical run from the box's low face.
            to_numpy(query.segment_cost_layers(
                np.full_like(x_grid, box.xlo), y_grid, x_grid, y_grid)),
            to_numpy(query.segment_cost_layers(
                x_grid, np.full_like(y_grid, box.ylo), x_grid, y_grid)),
            to_numpy(query.via_prefix_at(x_grid, y_grid)),
        ))
    for alone, shared in zip(*answers):
        assert np.array_equal(alone, shared)


class TestWindowedRefresh:
    def test_stale_region_raises(self):
        """A window-limited rebuild leaves out-of-window regions guarded:
        querying them raises instead of serving stale costs."""
        graph = make_graph()
        inc = CostQuery(graph, CostModel(), engine="incremental")
        # Dirty a horizontal run far from the refresh window.
        graph.add_wire_demand(1, 10, 8, 18, 8)
        inc.rebuild(window=(0, 0, 4, 4))
        assert inc._pending_wire, "expected the far region to stay pending"
        with pytest.raises(StaleCostError):
            inc.wire_segment_cost(1, 10, 8, 18, 8)
        with pytest.raises(StaleCostError):
            inc.segment_cost_layers([10], [8], [18], [8])

    def test_in_window_queries_served_fresh(self):
        graph = make_graph()
        model = CostModel()
        inc = CostQuery(graph, model, engine="incremental")
        graph.add_wire_demand(1, 0, 2, 5, 2)   # inside the window
        graph.add_wire_demand(1, 10, 8, 18, 8)  # outside
        inc.rebuild(window=(0, 0, 6, 4))
        oracle = CostQuery(graph, model, engine="full")
        assert inc.wire_segment_cost(1, 0, 2, 5, 2) == oracle.wire_segment_cost(
            1, 0, 2, 5, 2
        )
        # Draining the log without a window clears the guard and
        # converges to the oracle.
        inc.rebuild()
        inc.sync()
        assert_snapshots_equal(inc, oracle)

    def test_via_stale_raises(self):
        graph = make_graph()
        inc = CostQuery(graph, CostModel(), engine="incremental")
        graph.add_via_demand(15, 12, 0, 3)
        inc.rebuild(window=(0, 0, 4, 4))
        with pytest.raises(StaleCostError):
            inc.via_stack_cost(15, 12, 0, 3)
        with pytest.raises(StaleCostError):
            inc.via_prefix_at([15], [12])


def test_log_compaction_falls_back_to_full_refresh():
    """A cursor that predates the compacted window triggers a full
    refresh instead of silently missing records."""
    graph = make_graph()
    graph.dirty = DirtyLog(max_records=8)
    model = CostModel()
    inc = CostQuery(graph, model, engine="incremental")
    full_before = inc.stats.full_rebuilds
    for i in range(40):  # far beyond the log capacity
        graph.add_wire_demand(1, 0, i % NY, 3, i % NY)
    inc.rebuild()
    inc.sync()
    assert inc.stats.full_rebuilds > full_before
    oracle = CostQuery(graph, model, engine="full")
    assert_snapshots_equal(inc, oracle)


def test_unknown_engine_rejected():
    graph = make_graph()
    with pytest.raises(ValueError):
        CostQuery(graph, CostModel(), engine="nope")
    with pytest.raises(ValueError):
        RouterConfig.fastgr_l(cost_engine="nope")
    assert set(COST_ENGINES) == {"full", "incremental"}


def test_upload_bytes_deduplicate_overlapping_boxes():
    """Overlapping masked boxes are counted once (the old per-box sum
    overcounted shared cells)."""
    graph = make_graph()
    model = CostModel()
    query = CostQuery(graph, model, engine="full")
    reference = query.snapshot_reference()
    box = Rect(2, 2, 8, 8)
    query.rebuild(boxes=[box], reference=reference)
    once = query.last_upload_bytes
    query.rebuild(boxes=[box, box, box], reference=reference)
    assert query.last_upload_bytes == once
    inc = CostQuery(graph, model, engine="incremental")
    inc.rebuild(boxes=[box, box], reference=inc.snapshot_reference())
    inc.rebuild(boxes=[box, box], reference=reference)  # reference change reseeds
    assert inc.last_upload_bytes >= once


def test_rect_union_area_helpers():
    assert rect_union_area([(0, 0, 1, 1), (0, 0, 1, 1)]) == 4
    assert rect_union_area([(0, 0, 1, 1), (2, 2, 3, 3)]) == 8
    assert rect_union_area([(0, 0, 2, 2), (1, 1, 3, 3)]) == 14
    assert rect_union_area([(0, 0, -1, 5)]) == 0
    assert rects_overlap((0, 0, 2, 2), (2, 2, 4, 4))
    assert not rects_overlap((0, 0, 1, 1), (2, 2, 4, 4))


def test_stats_counters_accumulate():
    graph = make_graph()
    inc = CostQuery(graph, CostModel(), engine="incremental")
    before = inc.stats.copy()
    graph.add_wire_demand(1, 0, 0, 5, 0)
    inc.rebuild()
    delta = inc.stats.delta(before)
    assert delta.incremental_rebuilds == 1
    assert delta.refreshed_wire_edges == 5
    assert delta.seconds >= 0.0
    assert inc.last_upload_bytes == 5 * inc.via_cost.itemsize


@pytest.mark.parametrize("preset", ["cugr", "fastgr_l", "fastgr_h"])
def test_router_parity_full_vs_incremental(preset):
    """End-to-end: full and incremental engines route bit-identically."""
    results = {}
    for engine in ("full", "incremental"):
        design = load_benchmark("18test5", scale=0.05)
        config = getattr(RouterConfig, preset)(
            cost_engine=engine, n_rrr_iterations=2
        )
        result = GlobalRouter(design, config).run()
        results[engine] = (
            {
                name: (
                    tuple((w.layer, w.x1, w.y1, w.x2, w.y2) for w in r.wires),
                    tuple((v.x, v.y, v.lo, v.hi) for v in r.vias),
                )
                for name, r in result.routes.items()
            },
            result.metrics.wirelength,
            result.metrics.n_vias,
            result.metrics.shorts,
        )
    assert results["full"] == results["incremental"]


def test_result_carries_cost_observability():
    design = load_benchmark("18test5", scale=0.05)
    config = RouterConfig.fastgr_l(n_rrr_iterations=2)
    result = GlobalRouter(design, config).run()
    assert result.cost_engine == "incremental"
    assert result.cost_stats["rebuilds"] >= 1
    assert result.cost_stats["refreshed_edges"] > 0
    assert "cost_rebuilds" in result.summary()
    for it in result.iterations:
        assert it.cost_rebuilds >= 0
        assert it.cost_time >= 0.0
