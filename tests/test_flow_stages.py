"""Tests for the flow stages in isolation (repro.core.flow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import metrics
from repro.core import flow
from repro.core.config import RouterConfig
from repro.core.flow import PatternStage, run_pattern_stage, run_rrr_stage
from repro.gpu.device import Device
from repro.grid import route as route_module
from repro.maze.ripup import find_violating_nets
from repro.netlist.generator import DesignSpec, generate_design
from repro.sched.batching import extract_batches
from repro.sched import pipeline
from repro.sched.pipeline import StageRunner
from repro.sched.sorting import sort_nets
from repro.utils.timing import Tracker


def design(congested=False, seed=21, n_nets=80):
    return generate_design(
        DesignSpec(
            name="flow-unit",
            nx=20,
            ny=20,
            n_layers=5,
            n_nets=n_nets,
            wire_capacity=1.6 if congested else 3.5,
            hotspot_fraction=0.6 if congested else 0.3,
            seed=seed,
        )
    )


class TestPatternStage:
    def test_routes_every_net(self):
        d = design()
        routes, _ = run_pattern_stage(d, RouterConfig.fastgr_l(), Device())
        assert set(routes) == {net.name for net in d.netlist}

    def test_demand_committed(self):
        d = design()
        routes, _ = run_pattern_stage(d, RouterConfig.fastgr_l(), Device())
        total_wl = sum(route.wirelength for route in routes.values())
        committed = sum(float(d.graph.wire_demand[l].sum()) for l in range(d.n_layers))
        assert committed == pytest.approx(total_wl)

    def test_routes_come_indexed(self, monkeypatch):
        """The stage's commit fills every route's demand index: the
        rip-up scan after it, with an overflow to look for, builds none."""
        d = design()
        routes, _ = run_pattern_stage(d, RouterConfig.fastgr_l(), Device())
        builds = []
        build = route_module.demand_positions
        monkeypatch.setattr(
            route_module, "demand_positions", lambda *args: builds.append(args) or build(*args)
        )
        graph = d.graph
        name, route = next((n, r) for n, r in routes.items() if r.wires)
        cell = route._demand_index(graph)[0]
        graph.demand_flat[cell] = graph.capacity_flat[cell] + 1.0
        assert name in find_violating_nets(routes, graph)
        assert builds == []

    def test_batches_cover_sorted_nets(self):
        d = design()
        nets = sort_nets(list(d.netlist), "hpwl_asc")
        batches = extract_batches([n.bbox for n in nets], d.graph.nx, d.graph.ny)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(nets)))

    def test_one_algorithm_1_pass_per_stage(self, monkeypatch):
        """The stage's schedule runs Algorithm 1 once, over the net
        boxes; the tasks regroup its batches."""
        calls = []
        real = pipeline.extract_batches

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (pipeline, flow):
            monkeypatch.setattr(module, "extract_batches", counted, raising=False)
        d = design()
        run_pattern_stage(d, RouterConfig.fastgr_l(), Device())
        assert len(calls) == 1
        assert len(calls[0][0]) == len(d.netlist)

    @pytest.mark.parametrize("cap", [64, 8])
    @pytest.mark.parametrize("congested", [False, True])
    def test_levels_are_the_algorithm_1_batches(self, congested, cap, monkeypatch):
        """Pattern tasks run Algorithm 1's batches in order: the task
        graph's root batch is the tasks of the first batch of
        :func:`extract_batches`, its dependency levels are those
        batches, each regrouped into its tasks (DESIGN.md Sec. 2), and
        its topological order is the task order."""
        monkeypatch.setattr(flow, "PIECE_NETS", cap)
        d = design(congested=congested, n_nets=140)
        stage = PatternStage(d, RouterConfig.fastgr_l(), Device())
        graph = StageRunner().schedule(stage).task_graph
        batches = extract_batches([net.bbox for net in stage.nets], d.graph.nx, d.graph.ny)
        assert len(batches) > 3

        def nets_of(tasks):
            return sorted(p for task in tasks for p in stage.tasks[task])

        assert nets_of(graph.root_batch) == sorted(batches[0])
        levels = graph.levels()
        assert [nets_of(level) for level in levels] == [sorted(b) for b in batches]
        assert levels[0] == graph.root_batch
        assert graph.topological_order() == list(range(len(stage.tasks)))

    def test_pattern_report_covers_all_chunks(self, monkeypatch):
        monkeypatch.setattr(flow, "PIECE_NETS", 8)
        d = design()
        _routes, report = run_pattern_stage(d, RouterConfig.fastgr_l(), Device())
        assert report.stage == "pattern"
        assert report.n_tasks >= len(d.netlist) / 8
        assert len(report.task_durations) == report.n_tasks

    def test_device_records_when_batch_engine(self):
        d = design()
        device = Device()
        run_pattern_stage(d, RouterConfig.fastgr_l(), device)
        assert device.n_launches > 0
        kernels = set(device.per_kernel_elements())
        assert "combine" in kernels and "lshape" in kernels

    def test_hybrid_config_uses_hybrid_kernel(self):
        d = design()
        device = Device()
        run_pattern_stage(
            d, RouterConfig.fastgr_h(t1=1, t2=40), device
        )
        assert "hybrid" in device.per_kernel_elements()

    def test_cost_uploads_are_counted(self):
        d = design()
        tracker = Tracker()
        run_pattern_stage(d, RouterConfig.fastgr_l(), Device(), tracker)
        counters = tracker.counters()
        assert counters[metrics.COST_UPLOAD_BYTES] > 0
        assert counters[metrics.COST_UPLOADS] > 0


class TestRRRStage:
    def _pattern_routed(self, config, n_nets=80):
        d = design(congested=True, n_nets=n_nets)
        routes, _ = run_pattern_stage(d, config, Device())
        return d, routes

    def test_reports_initial_violations(self):
        config = RouterConfig.fastgr_l()
        d, routes = self._pattern_routed(config)
        expected = len(find_violating_nets(routes, d.graph))
        initial, _iterations = run_rrr_stage(d, config, routes)
        assert initial == expected

    def test_improves_or_holds_overflow(self):
        config = RouterConfig.fastgr_l()
        d, routes = self._pattern_routed(config)
        before = d.graph.total_overflow()
        run_rrr_stage(d, config, routes)
        assert d.graph.total_overflow() <= before

    def test_routes_stay_connected_after_rrr(self):
        config = RouterConfig.fastgr_l()
        d, routes = self._pattern_routed(config)
        run_rrr_stage(d, config, routes)
        for net in d.netlist:
            assert routes[net.name].connects([p.as_node() for p in net.pins])

    def test_zero_iterations_noop(self):
        config = RouterConfig.fastgr_l(n_rrr_iterations=0)
        d, routes = self._pattern_routed(config)
        snapshot = d.graph.demand_snapshot()
        initial, iterations = run_rrr_stage(d, config, routes)
        assert iterations == []
        wire, via = snapshot
        for layer in range(d.n_layers):
            assert np.array_equal(d.graph.wire_demand[layer], wire[layer])

    def test_no_violations_returns_zero_without_stats(self):
        spec = DesignSpec(
            name="flow-sparse", nx=20, ny=20, n_layers=5, n_nets=10,
            wire_capacity=10.0, hotspot_fraction=0.0, seed=5,
        )
        d = generate_design(spec)
        config = RouterConfig.fastgr_l()
        routes, _ = run_pattern_stage(d, config, Device())
        assert find_violating_nets(routes, d.graph) == []
        initial, iterations = run_rrr_stage(d, config, routes)
        assert initial == 0
        assert iterations == []

    def test_iteration_numbering_consecutive(self):
        config = RouterConfig.fastgr_l()
        work = []
        for _repeat in range(2):
            d, routes = self._pattern_routed(config, n_nets=140)
            _initial, iterations = run_rrr_stage(d, config, routes)
            assert [it.iteration for it in iterations] == list(
                range(len(iterations))
            )
            for it in iterations:
                assert it.report is not None
                assert it.report.stage == "maze"
                assert it.report.n_tasks == it.n_ripped
            work.append(
                [(it.n_ripped, it.n_failed, it.nodes_visited) for it in iterations]
            )
        # One thread, the same demand: the work counts repeat exactly.
        assert work[0] and work[0] == work[1]

    def test_rrr_scheme_override_changes_order(self):
        config_a = RouterConfig.fastgr_l(rrr_sorting_scheme="hpwl_asc")
        config_b = RouterConfig.fastgr_l(rrr_sorting_scheme="hpwl_desc")
        d_a, routes_a = self._pattern_routed(config_a)
        d_b, routes_b = self._pattern_routed(config_b)
        _i_a, it_a = run_rrr_stage(d_a, config_a, routes_a)
        _i_b, it_b = run_rrr_stage(d_b, config_b, routes_b)
        # Same nets ripped in iteration 1 regardless of order.
        assert it_a[0].n_ripped == it_b[0].n_ripped
