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
**bit-identical** to per-net dispatch and to the fused level on the
from-scratch cost oracle (``tests/cost_oracle.py``) — asserted
unconditionally, in quick mode too.  The >= 2x speedup bar applies to the full
configuration on the numpy backend; quick mode
(``REPRO_PATTERN_QUICK=1``, the CI smoke step) shrinks the tile sweep
and only requires the fused path not to lose, since the point of the
smoke run is exercising both dispatch paths.

The per-net side doubles as the record of what one call costs when it
routes one net — all fixed cost: the masked rebuild, a combine and a
pattern launch per wave, the root combine, the backtrace.  The "one-net
call" row is the median wall of those calls over the tail half of the
nets (the head warms caches), beside the figure whole-box masked
rebuilds gave on the machine that wrote ``results/pattern_batch.txt``.
The tiles are small, so the kernels read most lines of each box: the
read-footprint rebuild saves little here and its bookkeeping is paid.

``test_lone_call_fixed_price`` records the same fixed cost on the two
lone nets whose op counts tier-1 pins: the minimum of 200 calls each,
the two nets alternating in one process, beside the parent's figure.

``test_level_planning_as_arrays`` times planning the largest pattern task
of the ``open3k`` design (the end-to-end ``pattern_*`` workloads' input)
with the array planner against the per-net oracle
(``tests/plan_oracle.py``) and asserts both give the same batch state.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from conftest import register_table

from repro.core.config import RouterConfig
from repro.core.flow import PatternStage
from repro.core.selection import make_mode_selector
from repro.eval.report import format_table
from repro.gpu.device import Device
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.plan import plan_level
from repro.sched.pipeline import StageRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.cost_oracle import full_rebuild_engine  # noqa: E402
from tests.plan_oracle import assert_states_equal, plan_per_net  # noqa: E402

QUICK = os.environ.get("REPRO_PATTERN_QUICK", "") not in ("", "0")

TILE = 8           # cells per tile edge
TILES = 4 if QUICK else 8   # tiles per grid edge -> TILES**2 nets
MIN_SPEEDUP = 1.0 if QUICK else 2.0
REPEATS = 1 if QUICK else 3
# Median one-net call with whole-box masked rebuilds: median of 6 runs
# alternating with this code on the machine that wrote the committed
# results, where this code gave 0.97e-3 (quick) / 1.16e-3 (full).
ONE_NET_BEFORE = 1.06e-3 if QUICK else 1.01e-3


def tiled_case(seed: int = 7):
    """A congested grid with one small multi-pin net per disjoint tile.

    Bounding boxes stay strictly inside their tile, so the whole net
    population forms one conflict-free Algorithm-1 batch — the best
    case a pattern task routes in one ``route_batch`` call.
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
    config = RouterConfig.fastgr_h()
    mode_fn = make_mode_selector(config, graph)

    # Neither side commits (``commit=False``), so demand is static
    # across repeats and both sides replay the exact same masked DP.
    # The cost snapshot keeps the per-call rebuild proportional to the
    # dispatched boxes — the same maintenance PatternStage pays per
    # fused level.
    per_net = BatchPatternRouter(graph, backend="numpy")
    per_net_time = float("inf")
    for _ in range(REPEATS):
        solo, walls = {}, []
        for net, box in zip(nets, boxes):
            start = time.perf_counter()
            solo.update(
                per_net.route_batch([net], mode_fn, cost_boxes=[box], commit=False)
            )
            walls.append(time.perf_counter() - start)
        if sum(walls) < per_net_time:
            per_net_time = sum(walls)
            one_net = statistics.median(walls[len(walls) // 2 :])

    fused = BatchPatternRouter(graph, backend="numpy")
    fused_time = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        stacked = fused.route_batch(nets, mode_fn, cost_boxes=boxes, commit=False)
        fused_time = min(fused_time, time.perf_counter() - start)

    # Parity is unconditional: the fused level must return the routes
    # per-net dispatch returns, bit for bit, and the routes the same
    # level gets on the from-scratch oracle (untimed).
    with full_rebuild_engine():
        oracle = BatchPatternRouter(graph, backend="numpy")
    expected = oracle.route_batch(nets, mode_fn, cost_boxes=boxes, commit=False)
    for net in nets:
        assert routes_bit_equal(stacked[net.name], solo[net.name]), net.name
        assert routes_bit_equal(stacked[net.name], expected[net.name]), net.name

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
                ["  whole-box rebuild (ms)", ONE_NET_BEFORE * 1e3, 1, ONE_NET_BEFORE / one_net],
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


#: The lone nets of ``tests/test_gpu.py::TestOpTally``.
LONE_NETS = (
    Net("two", [Pin(3, 4, 0), Pin(11, 9, 2)]),
    Net("five", [Pin(2, 2, 0), Pin(17, 5, 1), Pin(6, 15, 0),
                 Pin(18, 16, 2), Pin(10, 9, 0)]),
)
LONE_CALLS = 200


def lone_call_minimum(preset: str = "fastgr_l"):
    """Minimum wall of ``LONE_CALLS`` calls of ``route_batch`` on each
    lone net, the nets alternating in one process (no commit, so the
    grid stays empty and every call replays the same DP)."""
    config = getattr(RouterConfig, preset)()
    graph = GridGraph(24, 24, LayerStack(9), wire_capacity=4.0)
    router = BatchPatternRouter(
        graph, config.cost_model, edge_shift=config.edge_shift, backend=config.backend
    )
    mode_fn = make_mode_selector(config, graph)
    best = [float("inf")] * len(LONE_NETS)
    for _ in range(LONE_CALLS):
        for i, net in enumerate(LONE_NETS):
            start = time.perf_counter()
            routes = router.route_batch(
                [net], mode_fn, cost_boxes=[net.bbox], commit=False
            )
            best[i] = min(best[i], time.perf_counter() - start)
            assert routes[net.name].connects([p.as_node() for p in net.pins])
    return best


def test_lone_call_fixed_price():
    """What one ``route_batch`` call costs when it routes one net.

    A lone call is all fixed cost — the masked rebuild, a combine and a
    pattern launch per wave, the root combine, the backtrace — and an
    ECO replay makes dozens of them.  The row records the minimum over
    ``LONE_CALLS`` calls (compare two commits by running this on each,
    alternating, on one machine); the backend-op and masked-rebuild call
    counts that gate it repeat exactly and live in tier-1
    (``tests/test_gpu.py``, ``tests/test_cost_engine.py``).
    """
    two, five = lone_call_minimum()
    register_table(
        "pattern_lone_call",
        format_table(
            ["lone net", "min call (ms)"],
            [["2-pin", two * 1e3], ["5-pin", five * 1e3]],
            title=(
                f"One route_batch call on a lone net (24x24x9 grid, fastgr_l, "
                f"numpy backend, min of {LONE_CALLS} alternating calls)"
            ),
        ),
        config=RouterConfig.fastgr_l(),
        metrics={"two_pin_s": two, "five_pin_s": five, "quick": float(QUICK)},
    )



#: The ``open3k`` design of the end-to-end ``pattern_*`` workloads.
OPEN3K = DesignSpec(
    name="open3k", nx=72, ny=72, n_layers=9, n_nets=3000,
    wire_capacity=9.0, hotspot_fraction=0.2,
)
PLAN_REPEATS = 5 if QUICK else 20


def best_of(repeats: int, call):
    """Minimum wall of ``repeats`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_level_planning_as_arrays():
    """Plan ``open3k``'s largest pattern task as arrays and per net.

    Both sides plan the same nets on the same (empty) grid: the array
    planner with the stage's pin cells, closed forms for nets with at
    most three pin G-cells and ``make_job`` for the rest; the oracle
    with ``make_job`` for every net and a per-node layout loop.  The
    batch states must be equal (footprints as sets per box and line).
    """
    design = generate_design(OPEN3K)
    config = RouterConfig.fastgr_l()
    stage = PatternStage(design, config, Device())
    StageRunner().schedule(stage)
    positions = max(stage.tasks, key=len)
    nets = [stage.nets[p] for p in positions]
    router, graph, mode_fn = stage.engine, design.graph, stage.mode_fn
    cells = stage.net_cells.take(positions)
    array_s, state = best_of(PLAN_REPEATS, lambda: plan_level(
        nets, mode_fn, graph.n_layers, graph.ny, router.make_job, cells=cells
    ))
    oracle_s, expected = best_of(PLAN_REPEATS, lambda: plan_per_net(router, nets, mode_fn))
    assert_states_equal(state, expected)

    n_closed = int((cells.count <= 3).sum())
    speedup = oracle_s / array_s
    register_table(
        "pattern_plan",
        format_table(
            ["planner", "time(ms)", "nets", "speedup"],
            [
                ["per-net (oracle)", oracle_s * 1e3, len(nets), ""],
                ["array", array_s * 1e3, len(nets), speedup],
            ],
            title=(
                f"Planning open3k's largest pattern task ({len(nets)} nets, "
                f"{n_closed} with <= 3 pin G-cells; fastgr_l, best of {PLAN_REPEATS})"
            ),
        ),
        config=config,
        metrics={
            "n_nets": float(len(nets)),
            "n_closed_form": float(n_closed),
            "array_seconds": array_s,
            "oracle_seconds": oracle_s,
            "speedup": speedup,
            "quick": float(QUICK),
        },
    )
