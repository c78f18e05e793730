"""Stacked pattern dispatch — one fused level vs per-net launches.

The claim under benchmark (ISSUE 10 tentpole): evaluating a
conflict-free level of pattern tasks as ONE ``route_batch`` call — the
two-pin waves of every member net merged by subtree height into padded
cross-net kernel launches — beats dispatching the same nets one call at
a time.  The per-net path pays the full wave-loop overhead (combine +
L/Z/hybrid kernel dispatch, masked cost rebuild) once per net; the
fused path pays it once per wave depth for the whole level while the
extra rows ride along inside each stacked kernel.  The regime where
this matters is exactly the pattern stage's: MANY small nets whose
two-pin DP slabs are a few hundred cells each — per-op dispatch
dominates the arithmetic.

The nets live in pairwise-disjoint tiles, the same precondition the
scheduler's dependency levels guarantee, so fused results must be
**bit-identical** to per-net dispatch — asserted unconditionally, in
quick mode too.  The >= 2x speedup bar applies to the full
configuration on the numpy backend; quick mode
(``REPRO_PATTERN_QUICK=1``, the CI smoke step) shrinks the tile sweep
and only requires the fused path not to lose, since the point of the
smoke run is exercising both dispatch paths.

The per-net side doubles as the record of what one call costs when it
routes one net — all fixed cost: the masked rebuild, a combine and a
pattern launch per wave, the root combine, the backtrace.  The "one-net
call" row is the median wall of those calls over the tail half of the
nets (the head warms caches), beside the figure the parent of ISSUE 23
gave on the machine that wrote ``results/pattern_batch.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from conftest import register_table

from repro.core.config import RouterConfig
from repro.core.selection import make_mode_selector
from repro.eval.report import format_table
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter

QUICK = os.environ.get("REPRO_PATTERN_QUICK", "") not in ("", "0")

TILE = 8           # cells per tile edge
TILES = 4 if QUICK else 8   # tiles per grid edge -> TILES**2 nets
MIN_SPEEDUP = 1.0 if QUICK else 2.0
REPEATS = 1 if QUICK else 3
# Median one-net call at the parent of ISSUE 23 (per-net walker, four
# cost queries per L wave): median of 7 (full) / 5 (quick) runs
# alternating with this code on the machine that wrote the committed
# results, where this code gave 1.10e-3 / 1.52e-3.
ONE_NET_BEFORE = 1.50e-3 if QUICK else 1.30e-3


def tiled_case(seed: int = 7):
    """A congested grid with one small multi-pin net per disjoint tile.

    Bounding boxes stay strictly inside their tile, so the whole net
    population forms one conflict-free level — the best case the
    pattern task graph hands to ``batch_plan``.
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
            x0, y0 = tx * TILE + 1, ty * TILE + 1
            span = TILE - 3
            pins = [
                Pin(
                    x0 + int(rng.integers(0, span + 1)),
                    y0 + int(rng.integers(0, span + 1)),
                    int(rng.integers(0, graph.n_layers)),
                )
                for _ in range(3)
            ]
            nets.append(Net(f"t{tx}_{ty}", pins))
    return graph, nets


def routes_bit_equal(a, b) -> bool:
    return a.wires == b.wires and a.vias == b.vias


def test_fused_dispatch_beats_per_net():
    graph, nets = tiled_case()
    boxes = [net.bbox for net in nets]
    config = RouterConfig.fastgr_h(cost_engine="incremental")
    mode_fn = make_mode_selector(config, graph)

    # Neither side commits (``commit=False``), so demand is static
    # across repeats and both sides replay the exact same masked DP.
    # The incremental cost engine keeps the per-call rebuild
    # proportional to the dispatched boxes — the same maintenance
    # PatternStage pays per chunk / per fused level.
    per_net = BatchPatternRouter(
        graph, backend="numpy", cost_engine="incremental"
    )
    reference = per_net.query.snapshot_reference()
    per_net_time = float("inf")
    for _ in range(REPEATS):
        solo, walls = {}, []
        for net, box in zip(nets, boxes):
            start = time.perf_counter()
            solo.update(
                per_net.route_batch(
                    [net],
                    mode_fn,
                    cost_boxes=[box],
                    cost_reference=reference,
                    commit=False,
                )
            )
            walls.append(time.perf_counter() - start)
        if sum(walls) < per_net_time:
            per_net_time = sum(walls)
            one_net = statistics.median(walls[len(walls) // 2 :])

    fused = BatchPatternRouter(
        graph, backend="numpy", cost_engine="incremental"
    )
    reference = fused.query.snapshot_reference()
    fused_time = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        stacked = fused.route_batch(
            nets,
            mode_fn,
            cost_boxes=boxes,
            cost_reference=reference,
            commit=False,
        )
        fused_time = min(fused_time, time.perf_counter() - start)

    # Parity is unconditional: the fused level must return the routes
    # per-net dispatch returns, bit for bit.
    for net in nets:
        assert routes_bit_equal(stacked[net.name], solo[net.name]), net.name

    speedup = per_net_time / fused_time
    metrics = {
        "n_nets": float(len(nets)),
        "grid_edge": float(TILE * TILES),
        "per_net_seconds": per_net_time,
        "fused_seconds": fused_time,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "one_net_call_seconds": one_net,
        "one_net_call_seconds_before": ONE_NET_BEFORE,
        "quick": float(QUICK),
    }
    register_table(
        "pattern_batch",
        format_table(
            ["dispatch", "time(s)", "nets", "speedup"],
            [
                ["per-net", per_net_time, len(nets), ""],
                ["fused", fused_time, len(nets), speedup],
                ["one-net call, median (ms)", one_net * 1e3, 1, ""],
                ["  before ISSUE 23 (ms)", ONE_NET_BEFORE * 1e3, 1, ONE_NET_BEFORE / one_net],
            ],
            title=(
                f"Pattern dispatch on {len(nets)} nets in disjoint "
                f"{TILE}x{TILE} tiles ({TILE * TILES}x{TILE * TILES}x"
                f"{graph.n_layers} grid, numpy backend, best of "
                f"{REPEATS})"
            ),
        ),
        config=config,
        metrics=metrics,
    )
    assert speedup >= MIN_SPEEDUP
