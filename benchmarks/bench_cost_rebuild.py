"""Masked cost-snapshot rebuilds vs from-scratch rebuilds.

The claim under benchmark: the *masked* rebuild the pattern stage
issues once per dependency level — a 9-layer grid, ~100 rebuilds that
each mask dozens of disjoint net boxes over the snapshot's last full
rebuild, one
route committed inside every box in between — is >= 3x faster in
``CostQuery`` than in the from-scratch oracle (``tests/cost_oracle.py``)
while staying *bit identical* to it after every level.  The oracle
copies the reference and loops over the boxes; the snapshot turns the
box list into one index plan and runs a fixed number of array
operations over it.

Quick mode: set ``REPRO_COST_QUICK=1`` (the CI smoke step) to shrink
the grid and stream; the speedup bar drops to 1.5x — the smoke run
exercises the engine end to end, not the headline ratio.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from conftest import register_table

from repro.eval.report import format_table
from repro.grid.cost import CostModel, CostQuery
from repro.grid.geometry import Rect
from repro.grid.graph import GridGraph
from repro.grid.layers import Direction, LayerStack
from repro.grid.route import Route, ViaSegment, WireSegment
from repro.metrics import COST_MASKED_REBUILDS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.cost_oracle import FullRebuildCostQuery  # noqa: E402

QUICK = os.environ.get("REPRO_COST_QUICK", "") not in ("", "0")

MIN_SPEEDUP = 1.5 if QUICK else 3.0

LEVEL_GRID = 36 if QUICK else 72
LEVEL_LAYERS = 9
N_LEVELS = 30 if QUICK else 100
LEVEL_TILE = 6 if QUICK else 9


def assert_bit_equal(inc: CostQuery, full: CostQuery) -> None:
    """Edge costs and all three prefix tables agree in every bit."""
    for mine, oracle in zip(inc.wire_cost, full.wire_cost):
        assert np.array_equal(mine, oracle)
    assert np.array_equal(inc.via_cost, full.via_cost)
    assert np.array_equal(inc._h_prefix, full._h_prefix)
    assert np.array_equal(inc._v_prefix, full._v_prefix)
    assert np.array_equal(inc._via_prefix, full._via_prefix)


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
                wires = []
                if x1 != x2:
                    wires.append(WireSegment(layer, x1, y1, x2, y1))
                if y1 != y2:
                    wires.append(WireSegment(layer - 1, x2, y1, x2, y2))
                routes.append(Route(wires, [ViaSegment(x2, y1, layer - 1, layer)]))
        levels.append((boxes, routes))
    return levels


def test_masked_level_stream():
    stack = LayerStack(LEVEL_LAYERS, Direction.VERTICAL)
    graph = GridGraph(
        LEVEL_GRID, LEVEL_GRID, stack, wire_capacity=3.0, via_capacity=4.0
    )
    model = CostModel()
    # Both pin the empty grid as their reference.
    full = FullRebuildCostQuery(graph, model)
    inc = CostQuery(graph, model)
    levels = level_stream(graph)

    # Lockstep on one graph: both engines see identical demand, and
    # parity is checked (outside the timed regions) after every level.
    times = {"full": 0.0, "incremental": 0.0}
    for boxes, routes in levels:
        for name, query in (("full", full), ("incremental", inc)):
            start = time.perf_counter()
            query.rebuild(boxes=boxes)
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
                 query.tracker.counters()[COST_MASKED_REBUILDS]]
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
