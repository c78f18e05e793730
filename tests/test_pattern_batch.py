"""Stacked cross-net pattern dispatch: parity, bucketing, counters.

The contract under test (ISSUE 10): fusing a conflict-free dependency
level of pattern chunks into ONE ``route_batch`` call — one masked cost
rebuild over the union of boxes, two-pin waves merged across every
member net — produces **bit-identical** routes and demand to per-chunk
dispatch, on every registered backend, for ragged levels, degenerate
members, and mixed L/Z/hybrid stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.core.selection import make_mode_selector
from repro.gpu.device import Device
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import PatternMode


def fresh_grid(nx=18, ny=18, n_layers=4, capacity=3.0, demand_seed=None):
    graph = GridGraph(nx, ny, LayerStack(n_layers), wire_capacity=capacity)
    if demand_seed is not None:
        rng = np.random.default_rng(demand_seed)
        for layer in range(n_layers):
            shape = graph.wire_demand[layer].shape
            graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
        graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    return graph


def tiled_nets(rng, graph, tile=5, gap=3, max_pins=4):
    """One net per disjoint tile — a conflict-free level, ragged sizes.

    Tiles are separated by ``gap`` cells so no member's bounding box
    (or any edge-shifting halo probe) can touch a level-mate's box.
    """
    nets = []
    step = tile + gap
    i = 0
    for x0 in range(0, graph.nx - tile, step):
        for y0 in range(0, graph.ny - tile, step):
            n_pins = int(rng.integers(2, max_pins + 1))
            span = int(rng.integers(1, tile))
            pins = [
                Pin(
                    x0 + int(rng.integers(0, span + 1)),
                    y0 + int(rng.integers(0, span + 1)),
                    int(rng.integers(0, graph.n_layers)),
                )
                for _ in range(n_pins)
            ]
            nets.append(Net(f"n{i}", pins))
            i += 1
    return nets


def mixed_mode(src, dst):
    """Deterministic selector guaranteed to mix L/Z/hybrid in one stack."""
    hpwl = abs(src.x - dst.x) + abs(src.y - dst.y)
    if hpwl <= 1:
        return PatternMode.LSHAPE
    if (src.x + src.y) % 2:
        return PatternMode.ZSHAPE
    return PatternMode.HYBRID


def routes_bit_equal(a, b):
    return a.wires == b.wires and a.vias == b.vias


def demand_equal(g1, g2):
    for layer in range(g1.n_layers):
        if not np.array_equal(g1.wire_demand[layer], g2.wire_demand[layer]):
            return False
    return np.array_equal(g1.via_demand, g2.via_demand)


def route_twice(nets, mode_fn, backend, demand_seed, **engine_kw):
    """Per-net dispatch vs one stacked call, on twin graphs.

    Both sides mask every rebuild to the dispatched nets' boxes against
    the same stage-start reference — exactly what ``PatternStage`` does
    for chunk tasks (per-net) and fused levels (stacked).
    """
    boxes = [net.bbox for net in nets]

    g_solo = fresh_grid(demand_seed=demand_seed)
    solo_engine = BatchPatternRouter(g_solo, backend=backend, **engine_kw)
    reference = solo_engine.query.snapshot_reference()
    solo = {}
    for net, box in zip(nets, boxes):
        solo.update(
            solo_engine.route_batch(
                [net], mode_fn, cost_boxes=[box], cost_reference=reference
            )
        )

    g_stack = fresh_grid(demand_seed=demand_seed)
    stack_engine = BatchPatternRouter(g_stack, backend=backend, **engine_kw)
    reference = stack_engine.query.snapshot_reference()
    stacked = stack_engine.route_batch(
        nets, mode_fn, cost_boxes=boxes, cost_reference=reference
    )
    return solo, stacked, g_solo, g_stack, stack_engine


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


class TestStackedEngineParity:
    """Stacked route_batch == per-net route_batch, bit for bit."""

    def test_ragged_level_bit_identical_to_per_net(self, backend_name):
        for seed in (0, 1, 2):
            graph = fresh_grid(demand_seed=seed)
            rng = np.random.default_rng(seed + 50)
            nets = tiled_nets(rng, graph)
            assert len(nets) >= 4
            mode_fn = make_mode_selector(RouterConfig.fastgr_h(), graph)
            solo, stacked, g1, g2, _ = route_twice(
                nets, mode_fn, backend_name, seed
            )
            assert set(stacked) == set(solo)
            for name in solo:
                assert routes_bit_equal(stacked[name], solo[name]), (
                    f"{name} diverged (seed {seed}, backend {backend_name})"
                )
            assert demand_equal(g1, g2)

    def test_degenerate_members_in_stack(self, backend_name):
        """Single-pin and zero-area nets ride a stack without perturbing it."""
        nets = [
            Net("lonely", [Pin(2, 2, 0)]),
            Net("stack0", [Pin(10, 2, 0), Pin(10, 2, 3)]),  # zero-area
            Net("pair", [Pin(2, 10, 0), Pin(5, 13, 2), Pin(4, 11, 1)]),
        ]
        mode_fn = mixed_mode
        solo, stacked, g1, g2, _ = route_twice(nets, mode_fn, backend_name, 4)
        for name in solo:
            assert routes_bit_equal(stacked[name], solo[name]), name
        assert stacked["lonely"].wires == []
        assert stacked["stack0"].wires == []
        assert stacked["stack0"].vias  # the via stack connecting the pins
        assert demand_equal(g1, g2)

    def test_mixed_modes_in_one_stack(self, backend_name):
        graph = fresh_grid(demand_seed=6)
        rng = np.random.default_rng(8)
        nets = tiled_nets(rng, graph, max_pins=3)
        solo, stacked, g1, g2, engine = route_twice(
            nets, mixed_mode, backend_name, 6
        )
        for name in solo:
            assert routes_bit_equal(stacked[name], solo[name]), name
        assert demand_equal(g1, g2)
        # The stack genuinely mixed pattern kernels: at least two of the
        # three shape kernels launched during the stacked call.
        shapes = {
            k.name
            for k in engine.device.launches
            if k.name in ("lshape", "zshape", "hybrid")
        }
        assert len(shapes) >= 2, shapes

    def test_incremental_cost_engine_parity(self, backend_name):
        graph = fresh_grid(demand_seed=9)
        rng = np.random.default_rng(12)
        nets = tiled_nets(rng, graph)
        mode_fn = make_mode_selector(RouterConfig.fastgr_l(), graph)
        solo, stacked, g1, g2, _ = route_twice(
            nets, mode_fn, backend_name, 9, cost_engine="incremental"
        )
        for name in solo:
            assert routes_bit_equal(stacked[name], solo[name]), name
        assert demand_equal(g1, g2)


def congested_design():
    return generate_design(
        DesignSpec(
            name="pattern-batch",
            nx=20,
            ny=20,
            n_layers=5,
            n_nets=140,
            wire_capacity=1.5,
            hotspot_fraction=0.6,
            seed=11,
        )
    )


def synthetic_design(graph, nets):
    from repro.netlist.design import Design
    from repro.netlist.net import Netlist

    return Design("synthetic", graph, Netlist(nets))


class TestPatternStageSeam:
    """batch_plan/run_batch on PatternStage: gating, bucketing, counters."""

    def test_batch_plan_gated_by_config(self):
        from repro.core.flow import PatternStage
        from repro.gpu.zerocopy import ZeroCopyArena
        from repro.sched.pipeline import StageRunner

        runner = StageRunner()
        design = congested_design()
        on = PatternStage(
            design, RouterConfig.fastgr_l(), Device(), ZeroCopyArena()
        )
        schedule = runner.schedule(on)
        plan = on.batch_plan(schedule)
        assert plan is not None
        # Bucketing permutes within levels only: flattening the plan
        # level by level yields each level's members exactly once.
        flat = [task for group in plan for task in group]
        assert sorted(flat) == sorted(
            t for level in schedule.task_graph.levels() for t in level
        )

        off = PatternStage(
            design,
            RouterConfig.fastgr_l(pattern_batching=False),
            Device(),
            ZeroCopyArena(),
        )
        assert off.batch_plan(runner.schedule(off)) is None

    def test_plan_buckets_split_ragged_levels(self):
        """A level mixing a huge chunk with small ones splits by area."""
        from repro.core.flow import PatternStage
        from repro.gpu.zerocopy import ZeroCopyArena
        from repro.sched.pipeline import StageRunner

        graph = fresh_grid(nx=40, ny=40)
        nets = [
            Net("small0", [Pin(0, 0, 0), Pin(2, 2, 1)]),
            Net("small1", [Pin(36, 0, 0), Pin(38, 2, 1)]),
            Net("huge", [Pin(0, 10, 0), Pin(39, 39, 1)]),
        ]
        design = synthetic_design(graph, nets)
        stage = PatternStage(
            design,
            RouterConfig.fastgr_l(max_batch_tasks=1),
            Device(),
            ZeroCopyArena(),
        )
        schedule = StageRunner().schedule(stage)
        levels = schedule.task_graph.levels()
        plan = stage.batch_plan(schedule)
        assert len(plan) > len(levels)
        # The small chunks stack together; the huge one rides alone.
        areas = [
            max(box.area for box in boxes) for boxes in stage.task_boxes()
        ]
        for group in plan:
            base = areas[group[0]]
            assert all(areas[t] <= 4.0 * max(base, 1) for t in group)

    def test_stage_counters_only_under_fused_dispatch(self):
        design_on = congested_design()
        design_off = congested_design()
        on = GlobalRouter(
            design_on, RouterConfig.fastgr_l(n_rrr_iterations=1)
        ).run()
        off = GlobalRouter(
            design_off,
            RouterConfig.fastgr_l(pattern_batching=False, n_rrr_iterations=1),
        ).run()
        assert on.pattern_batches > 0
        assert on.pattern_batched_nets >= on.pattern_batches
        assert on.pattern_kernel_launches > 0
        # Per-chunk dispatch still issues kernels — the counter
        # meters the stage's launches under either dispatch mode.
        assert off.pattern_kernel_launches > 0
        assert off.pattern_batches == 0
        assert off.pattern_batched_nets == 0
        for key in ("pattern_batches", "pattern_batched_nets",
                    "pattern_kernel_launches"):
            assert key in on.summary()


class TestFlowPatternBatchingParity:
    """route_design with pattern batching on == off, bit for bit."""

    @pytest.mark.parametrize(
        "preset",
        [RouterConfig.cugr, RouterConfig.fastgr_l, RouterConfig.fastgr_h],
        ids=lambda p: p.__name__,
    )
    def test_batched_flow_bit_identical(self, preset):
        results = {}
        for batching in (True, False):
            design = congested_design()
            config = preset(
                pattern_batching=batching,
                n_rrr_iterations=2,
            )
            results[batching] = GlobalRouter(design, config).run()
        on, off = results[True], results[False]
        assert set(on.routes) == set(off.routes)
        for name in on.routes:
            assert routes_bit_equal(on.routes[name], off.routes[name]), name
        assert on.metrics.wirelength == off.metrics.wirelength
        assert on.metrics.n_vias == off.metrics.n_vias
        assert on.metrics.score == off.metrics.score
        assert on.pattern_batches > 0
        assert on.pattern_batched_nets >= on.pattern_batches
        assert off.pattern_batches == 0

    def test_backend_parity_with_batching(self):
        results = {}
        for backend in ("numpy", "python"):
            design = congested_design()
            config = RouterConfig.fastgr_l(
                backend=backend, n_rrr_iterations=1
            )
            results[backend] = GlobalRouter(design, config).run()
        a, b = results["numpy"], results["python"]
        for name in a.routes:
            assert routes_bit_equal(a.routes[name], b.routes[name]), name
        assert a.pattern_batches == b.pattern_batches
        assert a.pattern_batched_nets == b.pattern_batched_nets
