"""Maze engine comparison — batched wavefront sweeps vs the scalar search.

Three claims are benchmarked:

* **Speed** — on a large congested stress region (the regime where the
  rip-up stage dominates, Fig. 3) the scalar heap search is at least as
  fast as the wavefront engine's dense prefix-sum/``cummin`` sweeps on
  the numpy backend, and both find equal-cost routes.  The stress grid
  is near-uniformly over capacity with smooth hotspot gradients, which
  a Manhattan bound (cheapest step x remaining steps) could not see:
  the scalar search then expanded most of the region and the sweeps won
  by 2-3x.  The per-net two-plane bound fields see the congestion and
  cut the expansions over a hundredfold, so the scalar engine now wins.
* **Goal direction** — on a moderately congested region (most edges
  under capacity, as in a routable design) the scalar engine expands
  well under a sixth of the nodes plain heap Dijkstra settles and
  returns the same paths.
* **Quality neutrality** — switching ``maze_engine`` on the paper's
  three presets leaves routing quality unchanged: equal-cost searches
  can pick different equal-cost paths (which cascades through RRR
  iterations), so scores match to well under 1% and overflow is never
  worse, rather than bit-identical.

Quick mode: set ``REPRO_MAZE_QUICK=1`` (the CI smoke step) to shrink
the stress region and preset sweep.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SCALE, register_table, routed_with_design

from repro.core.config import RouterConfig
from repro.eval.report import format_table
from repro.grid.cost import CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import routes_from_paths
from repro.maze.router import MazeRouter
from repro.maze.wavefront import WavefrontMazeRouter
from repro.netlist.net import Net, Pin

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_maze import heap_dijkstra_oracle  # noqa: E402

QUICK = os.environ.get("REPRO_MAZE_QUICK", "") not in ("", "0")

# Stress region: mostly over-capacity with smooth hotspot gradients.
STRESS_N = 80 if QUICK else 100
STRESS_NETS = 4 if QUICK else 6
STRESS_BASE_DEMAND = 8.0  # capacity is 3 — the whole region is congested
# Goal direction: the scalar search may expand at most this share of the
# nodes plain heap Dijkstra settles (0.112 quick / 0.098 full measured).
MAX_EXPANDED_RATIO = 0.15

PRESETS = {
    # cugr's preset backend is pure-python (the scalar baseline); the
    # engines' outputs are backend-independent, so compare on numpy.
    "cugr": lambda engine: RouterConfig.cugr(
        backend="numpy", maze_engine=engine
    ),
    "fastgr_l": lambda engine: RouterConfig.fastgr_l(maze_engine=engine),
    "fastgr_h": lambda engine: RouterConfig.fastgr_h(maze_engine=engine),
}
PRESET_DESIGNS = ("18test10m",) if QUICK else ("18test10m", "19test7m")
PRESET_NAMES = ("fastgr_l",) if QUICK else tuple(PRESETS)


def stress_case(seed: int = 42):
    """A congested stress grid and long cross-region two-pin nets."""
    n = STRESS_N
    graph = GridGraph(n, n, LayerStack(5), wire_capacity=3.0)
    rng = np.random.default_rng(seed)
    xx, yy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    blob = np.full((n, n), STRESS_BASE_DEMAND)
    for _ in range(16):
        cx, cy = rng.integers(0, n, 2)
        radius = rng.integers(8, 20)
        amp = rng.uniform(4.0, 8.0)
        blob += amp * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * radius * radius)
        )
    for layer in range(graph.n_layers):
        shape = graph.wire_demand[layer].shape
        graph.wire_demand[layer][:] = blob[: shape[0], : shape[1]]
    vshape = graph.via_demand.shape
    graph.via_demand[:] = (blob * 0.5)[None, : vshape[1], : vshape[2]]

    nets = []
    for k in range(STRESS_NETS):
        x1, y1 = rng.integers(0, n // 4, 2)
        x2, y2 = rng.integers(3 * n // 4, n, 2)
        nets.append(
            Net(f"stress{k}", [Pin(int(x1), int(y1), 0), Pin(int(x2), int(y2), 1)])
        )
    return graph, nets


def total_route_cost(routes, query) -> float:
    total = 0.0
    for route in routes:
        for wire in route.wires:
            total += query.wire_segment_cost(
                wire.layer, wire.x1, wire.y1, wire.x2, wire.y2
            )
        for via in route.vias:
            total += query.via_stack_cost(via.x, via.y, via.lo, via.hi)
    return total


def test_dijkstra_keeps_pace_with_wavefront_on_congested_region():
    """The scalar engine vs wavefront sweeps on the stress region.

    The scalar search is at least as fast, with equal route costs
    (0.041 s against 0.093 s in quick mode, 721 expansions against the
    90 481 a Manhattan bound needed).
    """
    graph, nets = stress_case()
    dijkstra = MazeRouter(graph, margin=8)
    wavefront = WavefrontMazeRouter(graph, margin=8, backend="numpy")

    # Nothing is committed: both engines search the same demand.
    start = time.perf_counter()
    dj_routes = [dijkstra.route_net(net) for net in nets]
    dj_time = time.perf_counter() - start

    start = time.perf_counter()
    wf_routes = [wavefront.route_net(net) for net in nets]
    wf_time = time.perf_counter() - start

    query = CostQuery(graph, dijkstra.cost_model)
    dj_cost = total_route_cost(dj_routes, query)
    wf_cost = total_route_cost(wf_routes, query)
    ratio = wf_time / dj_time
    dj_visited = dijkstra.consume_visited()
    wf_visited = wavefront.consume_visited()

    region = STRESS_N * STRESS_N * graph.n_layers
    register_table(
        "maze_engine_speedup",
        format_table(
            ["engine", "time(s)", "nodes visited", "route cost"],
            [
                ["dijkstra", dj_time, dj_visited, dj_cost],
                ["wavefront", wf_time, wf_visited, wf_cost],
                ["wavefront / dijkstra time", ratio, "", ""],
            ],
            title=(
                f"Maze engines on a congested {STRESS_N}x{STRESS_N}x"
                f"{graph.n_layers} stress region ({STRESS_NETS} nets, "
                f"{region} cells, numpy backend)"
            ),
        ),
        metrics={
            "region_cells": float(region),
            "n_nets": float(STRESS_NETS),
            "dijkstra_seconds": dj_time,
            "wavefront_seconds": wf_time,
            "dijkstra_visited": float(dj_visited),
            "wavefront_visited": float(wf_visited),
            "dijkstra_route_cost": dj_cost,
            "wavefront_route_cost": wf_cost,
            "wavefront_over_dijkstra": ratio,
            "quick": float(QUICK),
        },
    )

    # Both engines find equal-cost routes (ULP-level float slack).
    assert wf_cost == pytest.approx(dj_cost, rel=1e-9)
    assert dj_time <= wf_time


def moderate_case(seed: int = 7):
    """A routable region and two-pin nets: most edges well under
    capacity, a handful of over-capacity hotspots to route around."""
    n = STRESS_N
    graph = GridGraph(n, n, LayerStack(5), wire_capacity=3.0)
    rng = np.random.default_rng(seed)
    xx, yy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    blob = np.zeros((n, n))
    for _ in range(8):
        cx, cy = rng.integers(0, n, 2)
        radius = rng.integers(4, 9)
        blob += 4.0 * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * radius * radius)
        )
    for layer in range(graph.n_layers):
        shape = graph.wire_demand[layer].shape
        graph.wire_demand[layer][:] = np.floor(
            blob[: shape[0], : shape[1]] + rng.integers(0, 2, shape)
        )
    graph.via_demand[:] = rng.integers(0, 3, graph.via_demand.shape)
    nets = []
    for k in range(10 * STRESS_NETS):
        # Net-sized spans (a few to ~25 cells), not cross-region ones.
        x1, y1 = (int(v) for v in rng.integers(0, n, 2))
        x2, y2 = (
            int(np.clip(v + rng.integers(-25, 26), 0, n - 1)) for v in (x1, y1)
        )
        nets.append(Net(f"mod{k}", [Pin(x1, y1, 0), Pin(x2, y2, 1)]))
    return graph, nets


def test_goal_directed_expands_fewer_nodes():
    """Same paths as plain heap Dijkstra from a fraction of the nodes.

    Beside the search times it reports the fixed cost a reroute pays
    around its searches, per net: building the window's tables (the
    stacked price, the move tables and the bound field) plus building
    the route of the found path.
    """
    graph, nets = moderate_case()
    router = MazeRouter(graph, margin=8)
    expanded = settled = 0
    search_s = oracle_s = fixed_s = 0.0
    for net in nets:
        source, target = (pin.as_node() for pin in net.pins)
        region = router._region(net)
        # Both timings include building the search's tables.
        start = time.perf_counter()
        got = router._dijkstra({source}, {target}, region)
        search_s += time.perf_counter() - start
        expanded += router.consume_visited()
        start = time.perf_counter()
        router._build_tables(region, [target])
        routes_from_paths(graph, [[got[0]]])
        fixed_s += time.perf_counter() - start
        start = time.perf_counter()
        path, reached, n_settled = heap_dijkstra_oracle(
            router, {source}, {target}, region
        )
        oracle_s += time.perf_counter() - start
        settled += n_settled
        assert got == (path, reached)

    n = len(nets)
    register_table(
        "maze_goal_directed",
        format_table(
            ["search", "nodes", "ms per search"],
            [
                ["heap Dijkstra (oracle), settled", settled, 1e3 * oracle_s / n],
                ["goal-directed (production), expanded", expanded, 1e3 * search_s / n],
                ["ratio", expanded / settled, search_s / oracle_s],
                ["fixed cost per net: tables + route build", "", 1e3 * fixed_s / n],
            ],
            title=(
                f"Goal-directed search on a moderately congested {STRESS_N}x"
                f"{STRESS_N}x{graph.n_layers} region ({n} two-pin "
                f"searches, identical paths)"
            ),
        ),
        metrics={
            "n_searches": float(n),
            "oracle_settled": float(settled),
            "expanded": float(expanded),
            "ratio": expanded / settled,
            "max_ratio": MAX_EXPANDED_RATIO,
            "oracle_ms_per_search": 1e3 * oracle_s / n,
            "search_ms_per_search": 1e3 * search_s / n,
            "fixed_ms_per_net": 1e3 * fixed_s / n,
            "quick": float(QUICK),
        },
    )
    assert expanded <= MAX_EXPANDED_RATIO * settled


@pytest.mark.parametrize("preset_name", PRESET_NAMES)
def test_presets_equivalent_under_wavefront(preset_name):
    """Full-flow quality is engine-neutral on the paper's presets."""
    rows = []
    for design_name in PRESET_DESIGNS:
        results = {}
        for engine in ("dijkstra", "wavefront"):
            config = PRESETS[preset_name](engine)
            _, results[engine] = routed_with_design(
                design_name, config, scale=BENCH_SCALE
            )
        dj, wf = results["dijkstra"].metrics, results["wavefront"].metrics
        rows.append(
            [
                design_name,
                preset_name,
                dj.score,
                wf.score,
                dj.shorts,
                wf.shorts,
                results["wavefront"].maze_nodes_visited,
            ]
        )
        # Equal-cost searches may take different equal-cost paths, and
        # the divergence cascades through RRR iterations — scores agree
        # to well under 1%; overflow must never get worse.
        assert wf.score == pytest.approx(dj.score, rel=1e-2)
        assert wf.shorts <= dj.shorts + 1e-9
    register_table(
        f"maze_engine_presets_{preset_name}",
        format_table(
            [
                "design",
                "preset",
                "score(dij)",
                "score(wave)",
                "shorts(dij)",
                "shorts(wave)",
                "visited(wave)",
            ],
            rows,
            title="Preset quality under both maze engines",
        ),
        config=PRESETS[preset_name]("wavefront"),
        metrics={
            f"{row[0]}.{column}": float(value)
            for row in rows
            for column, value in zip(
                ("score_dijkstra", "score_wavefront", "shorts_dijkstra",
                 "shorts_wavefront", "visited_wavefront"),
                row[2:],
            )
        } | {"quick": float(QUICK)},
    )
