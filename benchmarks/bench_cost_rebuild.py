"""Cost-snapshot maintenance — incremental dirty-region engine vs full
rebuilds.

The claim under benchmark: under a realistic rip-up-and-reroute commit
stream (rip up one net, rebuild the snapshot for its search window,
reroute, commit), the incremental engine — which drains the grid's
dirty-rect log, recomputes edge costs only inside dirty regions, and
patches only the affected prefix suffixes — maintains the snapshot
>= 3x faster than recomputing the full grid per net, while staying *bit
identical* to the full oracle.

The stream mirrors what ``RipupReroute`` actually does per net: the
full engine pays O(L*nx*ny) per rebuild regardless of how little demand
the previous commit touched; the incremental engine pays O(dirty).

A second case measures the *masked* rebuild the pattern stage issues
once per dependency level: a 9-layer grid, ~100 rebuilds that each mask
dozens of disjoint net boxes over a pinned reference, one route
committed inside every box in between.  There the full engine copies
the reference and loops over the boxes; the incremental engine turns
the box list into one index plan and runs a fixed number of array
operations over it.

Quick mode: set ``REPRO_COST_QUICK=1`` (the CI smoke step) to shrink
the grids and streams; the speedup bars drop to 1.5x — the smoke run
exercises the engine end to end, not the headline ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import register_table

from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.eval.report import format_table
from repro.grid.cost import CostModel, CostQuery
from repro.grid.geometry import Rect
from repro.grid.graph import GridGraph
from repro.grid.layers import Direction, LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.netlist.benchmarks import load_benchmark

QUICK = os.environ.get("REPRO_COST_QUICK", "") not in ("", "0")

SCALE = 0.5 if QUICK else 1.0
N_REROUTES = 80 if QUICK else 200
MIN_SPEEDUP = 1.5 if QUICK else 3.0

LEVEL_GRID = 36 if QUICK else 72
LEVEL_LAYERS = 9
N_LEVELS = 30 if QUICK else 100
LEVEL_TILE = 6 if QUICK else 9


def routed_commit_stream():
    """A preset-scale routed design plus the RRR-style reroute stream.

    Routes a benchmark with the pattern stage only, then yields the
    committed routes largest-first — the nets rip-up iterations would
    touch.
    """
    design = load_benchmark("18test10m", scale=SCALE)
    config = RouterConfig.fastgr_l(n_rrr_iterations=0)
    result = GlobalRouter(design, config).run()
    routes = result.routes
    names = sorted(
        routes, key=lambda name: routes[name].wirelength, reverse=True
    )[:N_REROUTES]
    # Cycle if the design has fewer routed nets than the stream length.
    while len(names) < N_REROUTES:
        names = (names + names)[:N_REROUTES]
    return design, routes, names


def replay_stream(query: CostQuery, graph, routes, names, windows) -> float:
    """Replay rip-up -> rebuild -> recommit; return snapshot-maintenance
    seconds (the rebuild calls only, not the commits)."""
    seconds = 0.0
    for name, window in zip(names, windows):
        route = routes[name]
        route.uncommit(graph)
        start = time.perf_counter()
        query.rebuild(window=window)
        seconds += time.perf_counter() - start
        route.commit(graph)
    # Final drain so both engines end on an identical, fully-refreshed
    # snapshot (also what the parity assertion below compares).
    start = time.perf_counter()
    query.rebuild()
    query.sync()
    seconds += time.perf_counter() - start
    return seconds


def assert_bit_equal(inc: CostQuery, full: CostQuery) -> None:
    """Edge costs and all three prefix tables agree in every bit."""
    for mine, oracle in zip(inc.wire_cost, full.wire_cost):
        assert np.array_equal(mine, oracle)
    assert np.array_equal(inc.via_cost, full.via_cost)
    assert np.array_equal(inc._h_prefix, full._h_prefix)
    assert np.array_equal(inc._v_prefix, full._v_prefix)
    assert np.array_equal(inc._via_prefix, full._via_prefix)


def test_incremental_beats_full_on_rrr_stream():
    design, routes, names = routed_commit_stream()
    graph = design.graph
    model = CostModel()
    margin = 6
    nets = {net.name: net for net in design.netlist}
    windows = []
    for name in names:
        box = nets[name].bbox.expanded(margin).clipped(graph.nx, graph.ny)
        windows.append((box.xlo, box.ylo, box.xhi, box.yhi))

    full = CostQuery(graph, model, engine="full")
    full_time = replay_stream(full, graph, routes, names, windows)

    inc = CostQuery(graph, model, engine="incremental")
    inc_time = replay_stream(inc, graph, routes, names, windows)

    # The streams leave identical demand, so the final snapshots must
    # be bit-identical — the speedup is not bought with staleness.
    full.rebuild()
    assert_bit_equal(inc, full)

    speedup = full_time / inc_time
    grid_edges = sum(int(a.size) for a in inc.wire_cost) + int(inc.via_cost.size)
    metrics = {
        "grid_edges": float(grid_edges),
        "n_reroutes": float(len(names)),
        "full_seconds": full_time,
        "incremental_seconds": inc_time,
        "full_refreshed_edges": float(full.stats.refreshed_edges),
        "incremental_refreshed_edges": float(inc.stats.refreshed_edges),
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "quick": float(QUICK),
    }
    register_table(
        "cost_rebuild_speedup",
        format_table(
            ["engine", "time(s)", "rebuilds", "edges refreshed"],
            [
                ["full", full_time, full.stats.rebuilds, full.stats.refreshed_edges],
                ["incremental", inc_time, inc.stats.rebuilds,
                 inc.stats.refreshed_edges],
                ["speedup", speedup, "", ""],
            ],
            title=(
                f"Cost-snapshot maintenance under an RRR commit stream "
                f"({graph.nx}x{graph.ny}x{graph.n_layers} grid, "
                f"{grid_edges} edges, {len(names)} reroutes)"
            ),
        ),
        metrics=metrics,
    )
    assert inc.stats.refreshed_edges < full.stats.refreshed_edges
    assert speedup >= MIN_SPEEDUP


def level_stream(graph: GridGraph):
    """The pattern stage's rebuild stream: per dependency level, dozens
    of disjoint net boxes and the route each net then commits inside
    its box (an L through two adjacent layers).

    Boxes sit one per tile of a coarse tiling whose origin shifts from
    level to level, so consecutive levels overlap each other's boxes
    the way consecutive scheduler levels do.
    """
    rng = np.random.default_rng(2022)
    stack = graph.stack
    h_layers = [l for l in range(1, graph.n_layers) if stack.is_horizontal(l)]
    levels = []
    for _ in range(N_LEVELS):
        ox, oy = (int(v) for v in rng.integers(0, LEVEL_TILE, 2))
        boxes, routes = [], []
        for tx in range(ox, graph.nx - LEVEL_TILE + 1, LEVEL_TILE):
            for ty in range(oy, graph.ny - LEVEL_TILE + 1, LEVEL_TILE):
                if rng.random() < 0.25:
                    continue
                x1, x2 = sorted(int(v) for v in tx + rng.integers(0, LEVEL_TILE, 2))
                y1, y2 = sorted(int(v) for v in ty + rng.integers(0, LEVEL_TILE, 2))
                boxes.append(Rect(x1, y1, x2, y2))
                layer = int(rng.choice(h_layers))
                route = Route()
                if x1 != x2:
                    route.add_wire(WireSegment(layer, x1, y1, x2, y1))
                if y1 != y2:
                    route.add_wire(WireSegment(layer - 1, x2, y1, x2, y2))
                route.add_via(ViaSegment(x2, y1, layer - 1, layer))
                routes.append(route)
        levels.append((boxes, routes))
    return levels


def test_masked_level_stream():
    stack = LayerStack(LEVEL_LAYERS, Direction.VERTICAL)
    graph = GridGraph(
        LEVEL_GRID, LEVEL_GRID, stack, wire_capacity=3.0, via_capacity=4.0
    )
    model = CostModel()
    full = CostQuery(graph, model, engine="full")
    inc = CostQuery(graph, model, engine="incremental")
    reference = full.snapshot_reference()
    levels = level_stream(graph)

    # Lockstep on one graph: both engines see identical demand, and
    # parity is checked (outside the timed regions) after every level.
    times = {"full": 0.0, "incremental": 0.0}
    for boxes, routes in levels:
        for name, query in (("full", full), ("incremental", inc)):
            start = time.perf_counter()
            query.rebuild(boxes=boxes, reference=reference)
            query.sync()
            times[name] += time.perf_counter() - start
        assert_bit_equal(inc, full)
        for route in routes:
            route.commit(graph)

    speedup = times["full"] / times["incremental"]
    n_boxes = sum(len(boxes) for boxes, _ in levels)
    metrics = {
        "grid_edge": float(LEVEL_GRID),
        "n_layers": float(LEVEL_LAYERS),
        "n_levels": float(len(levels)),
        "boxes_per_level": n_boxes / len(levels),
        "full_seconds": times["full"],
        "incremental_seconds": times["incremental"],
        "incremental_ms_per_rebuild": 1e3 * times["incremental"] / len(levels),
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "quick": float(QUICK),
    }
    register_table(
        "cost_rebuild_masked",
        format_table(
            ["engine", "time(s)", "ms/rebuild", "masked rebuilds"],
            [
                [name, seconds, 1e3 * seconds / len(levels),
                 query.stats.masked_rebuilds]
                for (name, seconds), query in zip(times.items(), (full, inc))
            ]
            + [["speedup", speedup, "", ""]],
            title=(
                f"Masked per-level snapshot rebuilds ({LEVEL_GRID}x{LEVEL_GRID}x"
                f"{LEVEL_LAYERS} grid, {len(levels)} levels, "
                f"{n_boxes / len(levels):.0f} disjoint boxes each, "
                f"commits in between)"
            ),
        ),
        metrics=metrics,
    )
    assert speedup >= MIN_SPEEDUP
