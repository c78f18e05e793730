"""End-to-end integration tests of the full global-routing flow."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.ripup import find_violating_nets
from repro.netlist.benchmarks import load_benchmark
from repro.netlist.generator import DesignSpec, generate_design


def fresh_design(congested=False, seed=7):
    if congested:
        spec = DesignSpec(
            name="it-congested",
            nx=20,
            ny=20,
            n_layers=5,
            n_nets=140,
            wire_capacity=1.5,
            hotspot_fraction=0.6,
            seed=11,
        )
    else:
        spec = DesignSpec(
            name="it-small",
            nx=24,
            ny=24,
            n_layers=5,
            n_nets=60,
            wire_capacity=3.0,
            seed=seed,
        )
    return generate_design(spec)


ALL_CONFIGS = [
    RouterConfig.cugr(),
    RouterConfig.fastgr_l(),
    RouterConfig.fastgr_h(),
    RouterConfig.fastgr_h_no_selection(),
]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
class TestAllPresets:
    def test_every_net_connected(self, config):
        design = fresh_design()
        result = GlobalRouter(design, config).run()
        for net in design.netlist:
            pins = [p.as_node() for p in net.pins]
            assert result.routes[net.name].connects(pins), net.name

    def test_demand_matches_routes(self, config):
        """Graph demand must equal the sum of all final routes."""
        design = fresh_design(congested=True)
        result = GlobalRouter(design, config).run()
        reference = GridGraph(
            design.graph.nx, design.graph.ny, LayerStack(design.n_layers)
        )
        for route in result.routes.values():
            route.commit(reference)
        for layer in range(design.n_layers):
            assert np.array_equal(
                design.graph.wire_demand[layer], reference.wire_demand[layer]
            )
        assert np.array_equal(design.graph.via_demand, reference.via_demand)

    def test_metrics_consistent(self, config):
        design = fresh_design()
        result = GlobalRouter(design, config).run()
        assert result.metrics.wirelength == sum(
            r.wirelength for r in result.routes.values()
        )
        assert result.metrics.n_vias == sum(
            r.n_vias for r in result.routes.values()
        )
        assert result.metrics.shorts == design.graph.total_overflow()

    def test_runs_once_only(self, config):
        design = fresh_design()
        router = GlobalRouter(design, config)
        router.run()
        with pytest.raises(RuntimeError):
            router.run()


class TestDeterminism:
    @pytest.mark.parametrize(
        "config_fn", [RouterConfig.fastgr_l, RouterConfig.fastgr_h]
    )
    def test_identical_runs(self, config_fn):
        r1 = GlobalRouter(fresh_design(congested=True), config_fn()).run()
        r2 = GlobalRouter(fresh_design(congested=True), config_fn()).run()
        assert r1.metrics == r2.metrics
        assert r1.nets_to_ripup == r2.nets_to_ripup
        for name, route in r1.routes.items():
            other = r2.routes[name]
            assert sorted(map(repr, route.wires)) == sorted(map(repr, other.wires))
            assert sorted(map(repr, route.vias)) == sorted(map(repr, other.vias))


    @pytest.mark.parametrize(
        "preset, digest",
        [
            ("fastgr_l", "94944a59c43109fb0846d98a7f255376abeaaf40cd7816b9a92e0f317d39f1cd"),
            ("fastgr_h", "e202d29a314c201283c4eb1d9c4f6c432711b41cbb725dc26e5f62c95a6a8b96"),
        ],
    )
    def test_routes_match_recorded_digest(self, preset, digest):
        """Every net's wire and via lists on ``18test5`` at scale 0.2, as
        recorded before the batch-level backtrace replaced the per-net
        walker (sha256 over ``(name, wires, vias)`` in netlist order)."""
        design = load_benchmark("18test5", scale=0.2)
        result = GlobalRouter(design, getattr(RouterConfig, preset)()).run()
        sha = hashlib.sha256()
        for net in design.netlist:
            route = result.routes[net.name]
            sha.update(
                repr((
                    net.name,
                    [(w.layer, w.x1, w.y1, w.x2, w.y2) for w in route.wires],
                    [(v.x, v.y, v.lo, v.hi) for v in route.vias],
                )).encode()
            )
        assert sha.hexdigest() == digest


class TestRRRBehaviour:
    def test_congested_design_triggers_ripup(self):
        design = fresh_design(congested=True)
        result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
        assert result.nets_to_ripup > 0
        assert len(result.iterations) >= 1

    def test_rrr_reduces_violations(self):
        design = fresh_design(congested=True)
        config = RouterConfig.fastgr_l()
        result = GlobalRouter(design, config).run()
        remaining = len(find_violating_nets(result.routes, design.graph))
        assert remaining < result.nets_to_ripup

    def test_ripup_trend_decreases(self):
        """RRR may oscillate slightly but must trend downward."""
        design = fresh_design(congested=True)
        result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
        ripped = [it.n_ripped for it in result.iterations]
        assert ripped[0] == max(ripped)
        if len(ripped) > 1:
            assert ripped[-1] < ripped[0]

    def test_zero_iterations_config(self):
        design = fresh_design(congested=True)
        config = RouterConfig.fastgr_l(n_rrr_iterations=0)
        result = GlobalRouter(design, config).run()
        assert result.iterations == []
        assert result.maze_time == 0.0

    def test_makespans_bounded_by_sequential(self):
        design = fresh_design(congested=True)
        result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
        for it in result.iterations:
            assert it.taskgraph_makespan <= it.sequential_time + 1e-9
            assert it.batch_makespan <= it.sequential_time + 1e-9
            assert it.makespan == it.taskgraph_makespan

    def test_cugr_uses_batch_makespan(self):
        design = fresh_design(congested=True)
        result = GlobalRouter(design, RouterConfig.cugr()).run()
        for it in result.iterations:
            assert it.makespan == it.batch_makespan


class TestResultFields:
    def test_stage_times_present(self):
        result = GlobalRouter(fresh_design(), RouterConfig.fastgr_l()).run()
        assert result.pattern_time > 0
        assert "pattern" in result.stage_times
        assert result.total_time > 0

    def test_device_stats_for_batch_engine(self):
        result = GlobalRouter(fresh_design(), RouterConfig.fastgr_l()).run()
        assert result.device_stats["n_launches"] > 0
        assert result.device_stats["simulated_speedup"] > 1.0

    def test_device_records_sequential_engine(self):
        # The sequential baseline runs the same kernels (on the scalar
        # python backend), one net at a time — the device records its
        # launches too, so both engines feed the same speedup tables.
        result = GlobalRouter(fresh_design(), RouterConfig.cugr()).run()
        assert result.device_stats["n_launches"] > 0

    def test_transfer_stats_for_batch_engine(self):
        result = GlobalRouter(fresh_design(), RouterConfig.fastgr_l()).run()
        assert result.transfer_stats["bytes_to_device"] > 0
        assert result.transfer_stats["transfer_time"] < 1.0

    def test_summary_flat_dict(self):
        result = GlobalRouter(fresh_design(), RouterConfig.fastgr_l()).run()
        summary = result.summary()
        for key in ("pattern_time", "maze_time", "total_time", "score", "shorts"):
            assert key in summary


class TestQualityParity:
    def test_cugr_and_fastgr_l_same_quality(self):
        """Paper claim: FastGR_L accelerates CUGR 'without any quality
        degradation' — same DP, same order, same results."""
        r_cugr = GlobalRouter(fresh_design(seed=3), RouterConfig.cugr()).run()
        r_fast = GlobalRouter(fresh_design(seed=3), RouterConfig.fastgr_l()).run()
        assert r_cugr.metrics.wirelength == r_fast.metrics.wirelength
        assert r_cugr.metrics.n_vias == r_fast.metrics.n_vias
        assert r_cugr.metrics.shorts == r_fast.metrics.shorts
