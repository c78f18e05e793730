"""Stacked cross-net pattern dispatch: parity, task grouping, counters.

The contract under test: a pattern task — a group of conflict-free
nets routed by ONE ``route_batch`` call, one masked cost rebuild over
the union of boxes, two-pin waves merged across every member net —
produces **bit-identical** routes and demand to routing its nets one
``route_batch`` call at a time, on every registered backend, for ragged
groups, degenerate members, and mixed L/Z/hybrid stacks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core import flow
from repro.core.config import RouterConfig
from repro.core.flow import PatternStage
from repro.core.router import GlobalRouter
from repro.core.selection import make_mode_selector
from repro.gpu.device import Device
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import PatternMode
from repro.sched.batching import extract_batches
from tests.cost_oracle import full_rebuild_engine


def _route_each_net(self, task):
    routes = {}
    for p in self.tasks[task]:
        routes.update(self._route_nets([p]))
    return routes


def per_net_dispatch():
    """Run every pattern task one net (one ``route_batch`` call) at a
    time: the oracle the grouped tasks are held to."""
    return mock.patch.object(PatternStage, "run_task", _route_each_net)


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


def route_twice(nets, mode_fn, backend, demand_seed):
    """Per-net dispatch vs one stacked call, on twin graphs.

    Both sides mask every rebuild to the dispatched nets' boxes over
    the engine's own stage-start snapshot — exactly what
    ``PatternStage`` does for one net (per-net) and for a task
    (stacked).
    """
    boxes = [net.bbox for net in nets]

    g_solo = fresh_grid(demand_seed=demand_seed)
    solo_engine = BatchPatternRouter(g_solo, backend=backend)
    solo = {}
    for net, box in zip(nets, boxes):
        solo.update(solo_engine.route_batch([net], mode_fn, cost_boxes=[box]))

    g_stack = fresh_grid(demand_seed=demand_seed)
    stack_engine = BatchPatternRouter(g_stack, backend=backend)
    stacked = stack_engine.route_batch(nets, mode_fn, cost_boxes=boxes)
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
            assert g1.demand_equals(g2)

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
        assert stacked["lonely"].is_empty()
        assert stacked["stack0"].wirelength == 0
        assert stacked["stack0"].n_vias  # the via stack connecting the pins
        assert g1.demand_equals(g2)

    def test_mixed_modes_in_one_stack(self, backend_name):
        graph = fresh_grid(demand_seed=6)
        rng = np.random.default_rng(8)
        nets = tiled_nets(rng, graph, max_pins=3)
        solo, stacked, g1, g2, engine = route_twice(
            nets, mixed_mode, backend_name, 6
        )
        for name in solo:
            assert routes_bit_equal(stacked[name], solo[name]), name
        assert g1.demand_equals(g2)
        # The stack genuinely mixed pattern kernels: at least two of the
        # three shape kernels launched during the stacked call.
        shapes = {
            k.name
            for k in engine.device.launches
            if k.name in ("lshape", "zshape", "hybrid")
        }
        assert len(shapes) >= 2, shapes

    def test_incremental_cost_engine_parity(self, backend_name):
        """Both dispatches equal their run on the from-scratch oracle."""
        graph = fresh_grid(demand_seed=9)
        rng = np.random.default_rng(12)
        nets = tiled_nets(rng, graph)
        mode_fn = make_mode_selector(RouterConfig.fastgr_l(), graph)
        solo, stacked, g1, g2, _ = route_twice(nets, mode_fn, backend_name, 9)
        with full_rebuild_engine():
            o_solo, o_stacked, o1, o2, _ = route_twice(nets, mode_fn, backend_name, 9)
        for name in solo:
            assert routes_bit_equal(solo[name], o_solo[name]), name
            assert routes_bit_equal(stacked[name], o_stacked[name]), name
        assert g1.demand_equals(o1) and g2.demand_equals(o2)


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


class TestPatternStageTasks:
    """A pattern task is a bucketed group of one Algorithm-1 batch's
    pieces, routed by one ``route_batch`` call."""

    def test_tasks_are_bucketed_pieces_of_the_batches(self, monkeypatch):
        monkeypatch.setattr(flow, "PIECE_NETS", 8)
        design = congested_design()
        stage = PatternStage(design, RouterConfig.fastgr_l(), Device())
        boxes = [net.bbox for net in stage.nets]
        batches = extract_batches([[box] for box in boxes], design.graph.nx, design.graph.ny)
        batch_of = {p: b for b, batch in enumerate(batches) for p in batch}

        def area(piece):
            return max(boxes[p].area for p in piece)

        # Tasks come in batch order, each inside one batch, and the
        # tasks of a batch are its nets cut into 8-net pieces in sort
        # order, grouped by ascending largest area.
        task_batches = [batch_of[task[0]] for task in stage.tasks]
        assert task_batches == sorted(task_batches)
        assert len(stage.tasks) > len(batches)
        for b, batch in enumerate(batches):
            pieces = [batch[lo : lo + 8] for lo in range(0, len(batch), 8)]
            grouped = [t for t, tb in zip(stage.tasks, task_batches) if tb == b]
            assert sorted(p for task in grouped for p in task) == sorted(batch)
            order = sorted(range(len(pieces)), key=lambda i: (area(pieces[i]), i))
            assert [p for task in grouped for p in task] == [
                p for i in order for p in pieces[i]
            ]
            for task in grouped:
                members = [pieces[i] for i in order if pieces[i][0] in task]
                assert task == [p for piece in members for p in piece]
                assert area(task) <= 4.0 * max(area(members[0]), 1)

    def test_ragged_batch_splits_by_area(self, monkeypatch):
        """A batch mixing a huge net with small ones is two tasks."""
        monkeypatch.setattr(flow, "PIECE_NETS", 1)
        graph = fresh_grid(nx=40, ny=40)
        nets = [
            Net("small0", [Pin(0, 0, 0), Pin(2, 2, 1)]),
            Net("small1", [Pin(36, 0, 0), Pin(38, 2, 1)]),
            Net("huge", [Pin(0, 10, 0), Pin(39, 39, 1)]),
        ]
        stage = PatternStage(
            synthetic_design(graph, nets), RouterConfig.fastgr_l(), Device()
        )
        assert [[stage.nets[p].name for p in task] for task in stage.tasks] == [
            ["small0", "small1"],
            ["huge"],
        ]

    def test_one_route_batch_call_per_task(self, monkeypatch):
        # Small pieces, so batches hold several pieces to group.
        monkeypatch.setattr(flow, "PIECE_NETS", 8)
        config = RouterConfig.fastgr_l(n_rrr_iterations=1)
        on = GlobalRouter(congested_design(), config).run()
        with per_net_dispatch():
            off = GlobalRouter(congested_design(), config).run()
        n_nets = len(on.routes)
        assert on.pattern_batches == on.pattern_report.n_tasks
        assert len(on.pattern_report.task_durations) == on.pattern_report.n_tasks
        # Every net goes through exactly one call either way; tasks
        # make fewer, wider calls than one per net.
        assert on.pattern_batched_nets == off.pattern_batched_nets == n_nets
        assert off.pattern_batches == n_nets
        assert 0 < on.pattern_batches < off.pattern_batches
        assert 0 < on.pattern_kernel_launches < off.pattern_kernel_launches
        for key in ("pattern_batches", "pattern_batched_nets",
                    "pattern_kernel_launches"):
            assert key in on.summary()


class TestFlowPatternBatchingParity:
    """route_design with grouped tasks == one net at a time."""

    @pytest.mark.parametrize(
        "preset",
        [RouterConfig.cugr, RouterConfig.fastgr_l, RouterConfig.fastgr_h],
        ids=lambda p: p.__name__,
    )
    def test_batched_flow_bit_identical(self, preset):
        config = preset(n_rrr_iterations=2)
        on = GlobalRouter(congested_design(), config).run()
        with per_net_dispatch():
            off = GlobalRouter(congested_design(), config).run()
        assert on.digest() == off.digest()
        assert set(on.routes) == set(off.routes)
        for name in on.routes:
            assert routes_bit_equal(on.routes[name], off.routes[name]), name
        assert on.metrics.wirelength == off.metrics.wirelength
        assert on.metrics.n_vias == off.metrics.n_vias
        assert on.metrics.score == off.metrics.score
        assert on.pattern_batched_nets == off.pattern_batched_nets
        assert 0 < on.pattern_batches <= off.pattern_batches

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
