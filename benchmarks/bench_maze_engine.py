"""Maze engine comparison — batched wavefront sweeps vs the scalar search.

Three claims are benchmarked:

* **Speed** — on a large congested stress region (the regime where the
  rip-up stage dominates, Fig. 3), the wavefront engine's dense
  prefix-sum/``cummin`` sweeps on the numpy backend beat the scalar
  heap search by >= 2x while finding equal-cost routes.  The stress
  grid is near-uniformly over capacity with smooth hotspot gradients:
  every step costs far more than the region's cheapest one, so the
  scalar engine's distance bound prunes little there and it still
  expands most of the region, while the sweep fixpoint arrives in a
  few dozen passes.
* **Goal direction** — on a moderately congested region (most edges
  under capacity, as in a routable design) the scalar engine expands
  at most half the nodes plain heap Dijkstra settles and returns the
  same paths.  Counts only, no timing.
* **Quality neutrality** — switching ``maze_engine`` on the paper's
  three presets leaves routing quality unchanged: equal-cost searches
  can pick different equal-cost paths (which cascades through RRR
  iterations), so scores match to well under 1% and overflow is never
  worse, rather than bit-identical.

Quick mode: set ``REPRO_MAZE_QUICK=1`` (the CI smoke step) to shrink
the stress region and preset sweep; the speedup bar drops to 1.2x —
the point of the smoke run is exercising both engines end to end, not
re-measuring the headline ratio.
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
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
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
MIN_SPEEDUP = 1.2 if QUICK else 2.0

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


def test_wavefront_beats_dijkstra_on_congested_region():
    """Wavefront sweeps vs the scalar engine on the stress region.

    The bar is unchanged by the scalar engine's goal direction: the
    stress grid is near-uniformly over capacity, so the distance bound
    (cheapest step x remaining steps) is far below every real
    remainder and prunes little (2.8x measured in quick mode).
    """
    graph, nets = stress_case()
    dijkstra = MazeRouter(graph, margin=8)
    wavefront = WavefrontMazeRouter(graph, margin=8, backend="numpy")
    dijkstra.query.rebuild()
    wavefront.query.rebuild()

    start = time.perf_counter()
    dj_routes = [dijkstra.route_net(net, rebuild=False) for net in nets]
    dj_time = time.perf_counter() - start

    start = time.perf_counter()
    wf_routes = [wavefront.route_net(net, rebuild=False) for net in nets]
    wf_time = time.perf_counter() - start

    dj_cost = total_route_cost(dj_routes, dijkstra.query)
    wf_cost = total_route_cost(wf_routes, wavefront.query)
    speedup = dj_time / wf_time
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
                ["speedup", speedup, "", ""],
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
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "quick": float(QUICK),
        },
    )

    # Both engines find equal-cost routes (ULP-level float slack).
    assert wf_cost == pytest.approx(dj_cost, rel=1e-9)
    assert speedup >= MIN_SPEEDUP


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
    """Same paths as plain heap Dijkstra from at most half the nodes."""
    graph, nets = moderate_case()
    router = MazeRouter(graph, margin=8)
    router.query.rebuild()
    expanded = settled = 0
    for net in nets:
        source, target = (pin.as_node() for pin in net.pins)
        region = router._region(net)
        got = router._dijkstra({source}, {target}, region)
        expanded += router.consume_visited()
        path, reached, n_settled = heap_dijkstra_oracle(
            router, {source}, {target}, region
        )
        settled += n_settled
        assert got == (path, reached)

    register_table(
        "maze_goal_directed",
        format_table(
            ["search", "nodes"],
            [
                ["heap Dijkstra (oracle), settled", settled],
                ["goal-directed (production), expanded", expanded],
                ["ratio", expanded / settled],
            ],
            title=(
                f"Goal-directed search on a moderately congested {STRESS_N}x"
                f"{STRESS_N}x{graph.n_layers} region ({len(nets)} two-pin "
                f"searches, identical paths)"
            ),
        ),
        metrics={
            "n_searches": float(len(nets)),
            "oracle_settled": float(settled),
            "expanded": float(expanded),
            "ratio": expanded / settled,
            "quick": float(QUICK),
        },
    )
    assert 2 * expanded <= settled


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
        },
    )
