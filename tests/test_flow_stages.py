"""Tests for the flow stages in isolation (repro.core.flow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RouterConfig
from repro.core.flow import run_pattern_stage, run_rrr_stage
from repro.gpu.device import Device
from repro.gpu.zerocopy import ZeroCopyArena
from repro.maze.ripup import find_violating_nets
from repro.netlist.generator import DesignSpec, generate_design
from repro.sched.batching import extract_batches
from repro.sched.sorting import sort_nets


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
        routes, _ = run_pattern_stage(d, RouterConfig.fastgr_l(), Device(), ZeroCopyArena())
        assert set(routes) == {net.name for net in d.netlist}

    def test_demand_committed(self):
        d = design()
        routes, _ = run_pattern_stage(d, RouterConfig.fastgr_l(), Device(), ZeroCopyArena())
        total_wl = sum(route.wirelength for route in routes.values())
        committed = sum(float(d.graph.wire_demand[l].sum()) for l in range(d.n_layers))
        assert committed == pytest.approx(total_wl)

    def test_batches_cover_sorted_nets(self):
        d = design()
        nets = sort_nets(list(d.netlist), "hpwl_asc")
        batches = extract_batches([n.bbox for n in nets], d.graph.nx, d.graph.ny)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(nets)))

    def test_pattern_report_covers_all_chunks(self):
        d = design()
        config = RouterConfig.fastgr_l(max_batch_tasks=8)
        _routes, report = run_pattern_stage(d, config, Device(), ZeroCopyArena())
        assert report.stage == "pattern"
        assert report.n_tasks >= len(d.netlist) / 8
        assert len(report.task_durations) == report.n_tasks

    def test_device_records_when_batch_engine(self):
        d = design()
        device = Device()
        run_pattern_stage(d, RouterConfig.fastgr_l(), device, ZeroCopyArena())
        assert device.n_launches > 0
        kernels = set(device.per_kernel_elements())
        assert "combine" in kernels and "lshape" in kernels

    def test_hybrid_config_uses_hybrid_kernel(self):
        d = design()
        device = Device()
        run_pattern_stage(
            d, RouterConfig.fastgr_h(t1=1, t2=40), device, ZeroCopyArena()
        )
        assert "hybrid" in device.per_kernel_elements()

    def test_arena_accounts_uploads(self):
        d = design()
        arena = ZeroCopyArena()
        run_pattern_stage(d, RouterConfig.fastgr_l(), Device(), arena)
        assert arena.bytes_to_device > 0


class TestRRRStage:
    def _pattern_routed(self, config, n_nets=80):
        d = design(congested=True, n_nets=n_nets)
        routes, _ = run_pattern_stage(d, config, Device(), ZeroCopyArena())
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
        routes, _ = run_pattern_stage(d, config, Device(), ZeroCopyArena())
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
                [
                    (it.cost_rebuilds, it.cost_refreshed_edges, it.nodes_visited)
                    for it in iterations
                ]
            )
        # One thread, one cost snapshot: the work counts repeat exactly.
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
