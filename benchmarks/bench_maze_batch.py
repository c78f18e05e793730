"""Batched wavefront dispatch — one stacked sweep vs per-net launches.

The claim under benchmark (ISSUE 9 tentpole): relaxing a conflict-free
group of nets as ONE stacked ``(B, L, nx, ny)`` cummin fixpoint beats
dispatching the same nets one at a time.  The per-net path pays the
full python/numpy op-dispatch overhead of a fixpoint loop per net; the
stacked path pays it once for the whole group while the extra lanes
ride along inside each vectorised sweep.  The regime where this
matters is exactly the RRR loop's: MANY small congested search regions
(one per violating net), each a few thousand cells — per-op dispatch
dominates the arithmetic.

The nets live in pairwise-disjoint tiles, the same precondition the
scheduler's dependency levels guarantee, so batched results must be
**bit-identical** to per-net runs — asserted unconditionally, in quick
mode too.  The >= 2x speedup bar applies to the full configuration on
the numpy backend; quick mode (``REPRO_MAZE_QUICK=1``, the CI smoke
step) shrinks the tile sweep and only requires the batch not to lose,
since the point of the smoke run is exercising both dispatch paths.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import register_table

from repro.core.config import RouterConfig
from repro.eval.report import format_table
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.wavefront import WavefrontMazeRouter
from repro.netlist.net import Net, Pin

QUICK = os.environ.get("REPRO_MAZE_QUICK", "") not in ("", "0")

TILE = 10          # cells per tile edge
TILES = 4 if QUICK else 8   # tiles per grid edge -> TILES**2 nets
MARGIN = 2
MIN_SPEEDUP = 1.0 if QUICK else 2.0
REPEATS = 1 if QUICK else 3


def tiled_case(seed: int = 7):
    """A congested grid with one small multi-pin net per disjoint tile.

    Margin-expanded search regions stay inside their tile, so the whole
    net population forms one conflict-free level — the best case the
    reroute task graph hands to ``batch_plan``.
    """
    n = TILE * TILES
    graph = GridGraph(n, n, LayerStack(5), wire_capacity=2.0)
    rng = np.random.default_rng(seed)
    for layer in range(graph.n_layers):
        shape = graph.wire_demand[layer].shape
        graph.wire_demand[layer][:] = rng.integers(0, 5, shape)
    graph.via_demand[:] = rng.integers(0, 3, graph.via_demand.shape)

    nets = []
    for tx in range(TILES):
        for ty in range(TILES):
            # Pins stay MARGIN cells off the tile border so the
            # expanded region cannot leak into a neighbouring tile.
            x0, y0 = tx * TILE + MARGIN, ty * TILE + MARGIN
            span = TILE - 2 * MARGIN - 1
            pins = []
            for _ in range(3):
                pins.append(
                    Pin(
                        x0 + int(rng.integers(0, span + 1)),
                        y0 + int(rng.integers(0, span + 1)),
                        int(rng.integers(0, graph.n_layers)),
                    )
                )
            nets.append(Net(f"t{tx}_{ty}", pins))
    return graph, nets


def routes_bit_equal(a, b) -> bool:
    return a.wires == b.wires and a.vias == b.vias


def test_batched_dispatch_beats_per_net():
    graph, nets = tiled_case()

    per_net_router = WavefrontMazeRouter(graph, margin=MARGIN, backend="numpy")
    batch_router = WavefrontMazeRouter(graph, margin=MARGIN, backend="numpy")

    # Neither dispatch path commits, so both search the same demand;
    # both price each net's window the same way, inside the timing.
    per_net_time = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        solo = {net.name: per_net_router.route_net(net) for net in nets}
        per_net_time = min(per_net_time, time.perf_counter() - start)

    batch_time = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        batched = batch_router.route_batch(nets)
        batch_time = min(batch_time, time.perf_counter() - start)

    # Parity is unconditional: stacked relaxation must return the
    # routes per-net dispatch returns, bit for bit.
    for net in nets:
        assert batched[net.name] is not None
        assert routes_bit_equal(batched[net.name], solo[net.name]), net.name

    speedup = per_net_time / batch_time
    config = RouterConfig.fastgr_l(maze_engine="wavefront")
    metrics = {
        "n_nets": float(len(nets)),
        "grid_edge": float(TILE * TILES),
        "per_net_seconds": per_net_time,
        "batched_seconds": batch_time,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "quick": float(QUICK),
    }
    register_table(
        "maze_batch",
        format_table(
            ["dispatch", "time(s)", "nets", "speedup"],
            [
                ["per-net", per_net_time, len(nets), ""],
                ["batched", batch_time, len(nets), speedup],
            ],
            title=(
                f"Wavefront dispatch on {len(nets)} nets in disjoint "
                f"{TILE}x{TILE} tiles ({TILE * TILES}x{TILE * TILES}x"
                f"{graph.n_layers} grid, numpy backend, best of "
                f"{REPEATS})"
            ),
        ),
        config=config,
        metrics=metrics,
    )
    assert speedup >= MIN_SPEEDUP
