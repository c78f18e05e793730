"""Batched multi-net wavefront relaxation: parity and device residency.

The contract under test (ISSUE 9): stacking a batch of nets into one
``(B, L, nx, ny)`` cummin fixpoint produces **bit-identical** routes to
per-net dispatch on every registered backend — padding isolation plus
freeze-at-first-stable-pass make each member's distance field exactly
the field a ``B = 1`` run computes — and the relaxation loop keeps all
planes device-resident: ``wavefront_relax`` kernel scopes move zero
host<->device bytes, convergence syncs download only ``B`` flags per
pass, and exactly one field download happens per splice search.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.config import RouterConfig
from repro.core.flow import RerouteStage
from repro.core.router import GlobalRouter
from repro.gpu.device import Device
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.maze.ripup import RipupReroute
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.maze.wavefront import WavefrontMazeRouter
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Pin


def fresh_grid(nx=12, ny=12, n_layers=3, capacity=3.0, demand_seed=None):
    graph = GridGraph(nx, ny, LayerStack(n_layers), wire_capacity=capacity)
    if demand_seed is not None:
        rng = np.random.default_rng(demand_seed)
        for layer in range(n_layers):
            shape = graph.wire_demand[layer].shape
            graph.wire_demand[layer][:] = rng.integers(0, 6, shape)
        graph.via_demand[:] = rng.integers(0, 4, graph.via_demand.shape)
    return graph


def ragged_nets(rng, graph, count):
    """Nets with deliberately varied region sizes and pin counts."""
    nets = []
    for i in range(count):
        n_pins = int(rng.integers(2, 5))
        # Vary the bbox span so stacked slabs are ragged.
        span = int(rng.integers(2, max(3, graph.nx - 1)))
        cx = int(rng.integers(0, graph.nx - span))
        cy = int(rng.integers(0, graph.ny - span))
        pins = []
        for _ in range(n_pins):
            x = cx + int(rng.integers(0, span + 1))
            y = cy + int(rng.integers(0, span + 1))
            layer = int(rng.integers(0, graph.n_layers))
            pins.append(Pin(x, y, layer))
        nets.append(Net(f"n{i}", pins))
    return nets


def routes_bit_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.wires == b.wires and a.vias == b.vias


def route_cost(route, query):
    total = 0.0
    for wire in route.wires:
        total += query.wire_segment_cost(
            wire.layer, wire.x1, wire.y1, wire.x2, wire.y2
        )
    for via in route.vias:
        total += query.via_stack_cost(via.x, via.y, via.lo, via.hi)
    return total


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


class TestBatchedParity:
    """route_batch == per-net route_net, bit for bit, every backend."""

    def test_ragged_batch_bit_identical_to_per_net(self, backend_name):
        for seed in (0, 1, 2):
            graph = fresh_grid(demand_seed=seed)
            rng = np.random.default_rng(seed + 100)
            nets = ragged_nets(rng, graph, 6)

            solo = WavefrontMazeRouter(graph, backend=backend_name)
            expected = {}
            for net in nets:
                try:
                    expected[net.name] = solo.route_net(net)
                except MazeRoutingError:
                    expected[net.name] = None

            batched = WavefrontMazeRouter(graph, backend=backend_name)
            found = batched.route_batch(nets)

            assert set(found) == set(expected)
            for name in expected:
                assert routes_bit_equal(found[name], expected[name]), (
                    f"{name} diverged (seed {seed}, backend {backend_name})"
                )

    def test_single_net_degenerate_batch(self, backend_name):
        graph = fresh_grid(demand_seed=3)
        net = Net("n", [Pin(1, 1, 0), Pin(9, 8, 2), Pin(4, 7, 1)])
        solo = WavefrontMazeRouter(graph, backend=backend_name).route_net(net)
        found = WavefrontMazeRouter(graph, backend=backend_name).route_batch(
            [net]
        )
        assert routes_bit_equal(found["n"], solo)

    def test_single_pin_members_get_empty_routes(self, backend_name):
        graph = fresh_grid()
        nets = [
            Net("lonely", [Pin(4, 4, 0)]),
            Net("pair", [Pin(1, 1, 0), Pin(6, 6, 1)]),
        ]
        found = WavefrontMazeRouter(graph, backend=backend_name).route_batch(
            nets
        )
        assert found["lonely"].is_empty()
        assert not found["pair"].is_empty()

    def test_batched_matches_dijkstra_cost(self, backend_name):
        """Batched 2-pin routes are equal-cost to the scalar reference.

        Two-pin nets only: multi-pin greedy splicing may legitimately
        pick a different (equally exact) splice target per engine, so
        total-cost parity with the heap engine is a 2-pin property —
        same scope as the per-net equivalence tests.  Multi-pin parity
        against per-net wavefront dispatch is bitwise, tested above.
        """
        graph = fresh_grid(demand_seed=5)
        rng = np.random.default_rng(17)
        nets = []
        for i in range(6):
            x1, y1, x2, y2 = rng.integers(0, graph.nx, 4)
            l1, l2 = rng.integers(0, graph.n_layers, 2)
            nets.append(
                Net(f"p{i}", [Pin(int(x1), int(y1), int(l1)),
                              Pin(int(x2), int(y2), int(l2))])
            )
        scalar = MazeRouter(graph)
        wave = WavefrontMazeRouter(graph, backend=backend_name)
        found = wave.route_batch(nets)
        for net in nets:
            reference = scalar.route_net(net)
            assert found[net.name] is not None
            assert route_cost(found[net.name], wave.query) == pytest.approx(
                route_cost(reference, scalar.query), rel=1e-12, abs=1e-9
            )

    def test_batch_counts_visited_work(self):
        graph = fresh_grid(demand_seed=4)
        rng = np.random.default_rng(9)
        wave = WavefrontMazeRouter(graph)
        wave.route_batch(ragged_nets(rng, graph, 3))
        assert wave.consume_visited() > 0
        assert wave.consume_visited() == 0
        assert wave.last_n_passes >= 1


class TestRipupBatchParity:
    """rip_and_reroute_batch == sequential rip_and_reroute on a level."""

    @staticmethod
    def _tiled_scene(backend):
        """Two graphs in the same state with routed nets in disjoint tiles."""
        scenes = []
        for _ in range(2):
            graph = fresh_grid(nx=16, ny=16, demand_seed=21)
            nets = {}
            routes = {}
            engine = RipupReroute(
                graph, nets, margin=2, engine="wavefront", backend=backend
            )
            # Three nets in disjoint tiles: their margin-expanded search
            # regions do not overlap (conflict-free level).
            corners = [(0, 0), (10, 0), (0, 10)]
            for i, (tx, ty) in enumerate(corners):
                net = Net(
                    f"t{i}",
                    [Pin(tx, ty, 0), Pin(tx + 3, ty + 3, 2), Pin(tx + 1, ty + 3, 1)],
                )
                nets[net.name] = net
                route = engine.maze.route_net(net)
                route.commit(graph)
                routes[net.name] = route
            scenes.append((graph, engine, routes))
        return scenes

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_batch_equals_sequential_interleaving(self, backend):
        (g1, e1, r1), (g2, e2, r2) = self._tiled_scene(backend)
        names = ["t0", "t1", "t2"]

        for name in names:
            new = e1.rip_and_reroute(r1, name)
            assert new is not None
            r1[name] = new

        found = e2.rip_and_reroute_batch(r2, names)
        for name in names:
            assert found[name] is not None
            r2[name] = found[name]

        for name in names:
            assert routes_bit_equal(r1[name], r2[name]), name
        for layer in range(g1.n_layers):
            assert np.array_equal(
                g1.wire_demand[layer], g2.wire_demand[layer]
            )
        assert np.array_equal(g1.via_demand, g2.via_demand)

    def test_tracker_counters_flow(self):
        (_, engine, routes), _ = self._tiled_scene("numpy")
        before = engine.tracker.snapshot()
        engine.rip_and_reroute_batch(routes, ["t0", "t1", "t2"])
        counters, timers = engine.tracker.delta(before)
        assert counters["maze.batches"] == 1
        assert counters["maze.batched_nets"] == 3
        assert counters["maze.nets"] == 3
        assert counters["maze.visited"] > 0
        assert timers["maze.batch_search"] > 0.0


def congested_design():
    return generate_design(
        DesignSpec(
            name="batch-congested",
            nx=20,
            ny=20,
            n_layers=5,
            n_nets=140,
            wire_capacity=1.5,
            hotspot_fraction=0.6,
            seed=11,
        )
    )


class TestFlowBatchingParity:
    """route_design with stacked levels == per-net dispatch, per preset."""

    @pytest.mark.parametrize(
        "preset",
        [RouterConfig.cugr, RouterConfig.fastgr_l, RouterConfig.fastgr_h],
        ids=lambda p: p.__name__,
    )
    def test_batched_flow_bit_identical(self, preset):
        config = preset(maze_engine="wavefront", n_rrr_iterations=2)
        on = GlobalRouter(congested_design(), config).run()
        # Per-net dispatch, the oracle: no fused levels.
        with mock.patch.object(
            RerouteStage, "batch_plan", lambda self, schedule: None
        ):
            off = GlobalRouter(congested_design(), config).run()
        assert set(on.routes) == set(off.routes)
        for name in on.routes:
            assert routes_bit_equal(on.routes[name], off.routes[name]), name
        assert on.metrics.wirelength == off.metrics.wirelength
        assert on.metrics.n_vias == off.metrics.n_vias
        assert on.metrics.score == off.metrics.score
        # The batched run actually fused multi-net levels; the per-net
        # run never did.
        assert on.nets_to_ripup > 0
        assert on.maze_batches > 0
        assert on.maze_batched_nets >= on.maze_batches
        assert off.maze_batches == 0

    def test_backend_parity_with_batching(self):
        results = {}
        for backend in ("numpy", "python"):
            design = congested_design()
            config = RouterConfig.fastgr_l(
                maze_engine="wavefront", backend=backend, n_rrr_iterations=2
            )
            results[backend] = GlobalRouter(design, config).run()
        a, b = results["numpy"], results["python"]
        for name in a.routes:
            assert routes_bit_equal(a.routes[name], b.routes[name]), name
        assert a.maze_batches == b.maze_batches
        assert a.maze_batched_nets == b.maze_batched_nets


class TestDeviceResidency:
    """Transfer-bytes accounting: the relax loop stays on the device."""

    def test_relax_scopes_move_zero_bytes(self):
        graph = fresh_grid(demand_seed=2)
        device = Device()
        router = WavefrontMazeRouter(graph, device=device)
        rng = np.random.default_rng(3)
        nets = ragged_nets(rng, graph, 4)
        router.route_batch(nets)

        launches = device.launches
        relax = [k for k in launches if k.name == "wavefront_relax"]
        sync = [k for k in launches if k.name == "wavefront_sync"]
        gather = [k for k in launches if k.name == "wavefront_gather"]
        assert relax and sync and gather
        # The tentpole invariant: pure compute passes move NOTHING
        # across the seam — demand, cost prefixes and distance slabs
        # stay device-resident for the whole fixpoint.
        for kernel in relax:
            assert kernel.bytes_to_device == 0
            assert kernel.bytes_to_host == 0
        # Convergence syncs download one flag-vector (B doubles) and
        # occasionally upload a (B, 1, 1, 1) freeze mask — never a
        # plane.  B <= 4 members here.
        plane_bytes = graph.n_layers * graph.nx * graph.ny * 8
        for kernel in sync:
            assert kernel.bytes_to_host <= 4 * 8
            assert kernel.bytes_to_device <= 4 * 8
            assert kernel.bytes_to_host < plane_bytes
        # Exactly one stacked field download per splice round.
        for kernel in gather:
            assert kernel.bytes_to_host > 0
            assert kernel.bytes_to_device == 0

    def test_per_net_path_has_same_residency(self):
        graph = fresh_grid(demand_seed=6)
        device = Device()
        router = WavefrontMazeRouter(graph, device=device)
        router.route_net(Net("n", [Pin(1, 1, 0), Pin(9, 9, 2)]))
        relax = [k for k in device.launches if k.name == "wavefront_relax"]
        assert relax
        for kernel in relax:
            assert kernel.bytes_to_device == 0
            assert kernel.bytes_to_host == 0

    def test_iteration_stats_carry_transfer_counters(self):
        design = congested_design()
        config = RouterConfig.fastgr_l(
            maze_engine="wavefront", n_rrr_iterations=2
        )
        result = GlobalRouter(design, config).run()
        assert result.nets_to_ripup > 0
        assert result.iterations
        totals = result.device_stats
        assert totals["bytes_to_device"] > 0
        assert totals["bytes_to_host"] > 0
        stats = result.iterations[0]
        assert stats.kernel_launches > 0
        assert stats.maze_batches > 0
        assert stats.bytes_to_device > 0
        # Downloads are flag vectors + final fields only — far below
        # uploading/downloading whole demand planes every stage hop.
        assert stats.bytes_to_host < stats.bytes_to_device

    def test_cost_rebuilds_never_read_back_from_device(self):
        """Cost rebuilds feed the device without device->host readback.

        Host prefix twins are recomputed host-side (``np.cumsum`` is
        bit-identical to the device scan by backend contract), so cost
        maintenance is upload-only on a simulated-device backend — the
        old ``to_numpy`` round-trips between RRR stages are gone.
        """
        from repro.backend import get_backend
        from repro.grid.cost import CostModel, CostQuery

        graph = fresh_grid(demand_seed=9)
        device = Device()
        backend = device.wrap(get_backend("python"))
        query = CostQuery(graph, CostModel(), backend=backend)
        query.rebuild()
        graph.add_wire_demand(1, 2, 2, 6, 2, 1.0)
        query.rebuild()
        query.sync()  # uploads are lazy: the first query would flush them
        assert backend.bytes_to_device_total > 0
        assert backend.bytes_to_host_total == 0


class TestCostScratchReuse:
    """Satellite: rebuilds reuse preallocated device prefix planes."""

    def test_rebuild_reuses_device_buffers_on_device_backend(self):
        from repro.backend import get_backend
        from repro.grid.cost import CostModel, CostQuery

        graph = fresh_grid(demand_seed=8)
        query = CostQuery(graph, CostModel(), backend=get_backend("python"))
        query.rebuild()
        query.sync()
        first = (
            query._h_prefix_dev,
            query._v_prefix_dev,
            query._via_prefix_dev,
        )
        graph.add_wire_demand(1, 2, 2, 6, 2, 1.0)
        query.rebuild()
        query.sync()
        second = (
            query._h_prefix_dev,
            query._v_prefix_dev,
            query._via_prefix_dev,
        )
        for a, b in zip(first, second):
            assert a is b
        # And the reused buffers hold the refreshed values.
        expected = CostQuery(graph, CostModel(), backend=get_backend("python"))
        expected.sync()
        for mine, fresh in zip(
            second,
            (
                expected._h_prefix_dev,
                expected._v_prefix_dev,
                expected._via_prefix_dev,
            ),
        ):
            assert np.array_equal(
                query.backend.to_numpy(mine),
                expected.backend.to_numpy(fresh),
            )

    def test_host_aliasing_preserved_on_numpy(self):
        from repro.backend import get_backend
        from repro.grid.cost import CostModel, CostQuery

        graph = fresh_grid()
        query = CostQuery(graph, CostModel(), backend=get_backend("numpy"))
        query.rebuild()
        assert query._h_prefix is query._h_prefix_dev
        assert query._v_prefix is query._v_prefix_dev
        assert query._via_prefix is query._via_prefix_dev


class TestBatchedSchedulerDispatch:
    """The pipeline seam: levels dispatch preserves per-task semantics."""

    def test_reroute_stage_exposes_levels_only_when_batching(self):
        """Levels when the engine can stack searches, else no plan."""
        from repro.sched.pipeline import StageRunner

        graph = fresh_grid(nx=16, ny=16, demand_seed=21)
        nets = {}
        engine = RipupReroute(
            graph, nets, margin=2, engine="wavefront", backend="numpy"
        )
        ordered = []
        routes = {}
        for i, (tx, ty) in enumerate([(0, 0), (10, 0), (0, 10)]):
            net = Net(f"t{i}", [Pin(tx, ty, 0), Pin(tx + 3, ty + 3, 2)])
            nets[net.name] = net
            ordered.append(net)
            route = engine.maze.route_net(net)
            route.commit(graph)
            routes[net.name] = route

        runner = StageRunner()
        on = RerouteStage(engine, dict(routes), ordered, 2)
        dijkstra = RipupReroute(graph, nets, margin=2, engine="dijkstra")
        off = RerouteStage(dijkstra, dict(routes), ordered, 2)
        schedule = runner.schedule(on)
        assert on.batch_plan(schedule) == schedule.task_graph.levels()
        assert off.batch_plan(schedule) is None

        # Disjoint tiles -> one conflict-free level with all three.
        assert schedule.task_graph.levels() == [[0, 1, 2]]
        report = runner.run(on, schedule=schedule)
        assert report.n_tasks == 3
        assert all(d > 0 for d in report.task_durations)

    def test_dijkstra_engine_never_batches(self):
        graph = fresh_grid()
        engine = RipupReroute(graph, {}, engine="dijkstra")
        assert not engine.supports_batch


class TestBucketedPassCounts:
    """Satellite: size-bucketed level stacking bounds fixpoint passes.

    A stacked relaxation runs until its slowest member freezes, so a
    bucket's pass count never exceeds the per-net maximum over its
    members — freeze-at-first-stable settles each member exactly when
    its solo run would, and bucketing keeps slabs of similar size
    together so a grid-spanning region cannot stretch (and pad) every
    small mate's fixpoint.
    """

    @staticmethod
    def _ragged_scene():
        """Three small nets and one grid-spanning net, margin-2 search
        regions pairwise disjoint — ONE conflict-free level, ragged."""
        graph = fresh_grid(nx=32, ny=32, demand_seed=3)
        nets = [
            Net("s0", [Pin(2, 2, 0), Pin(5, 4, 2)]),
            Net("s1", [Pin(14, 2, 0), Pin(17, 4, 1)]),
            Net("s2", [Pin(25, 2, 1), Pin(28, 4, 2)]),
            Net("huge", [Pin(2, 14, 0), Pin(29, 29, 2)]),
        ]
        return graph, nets

    def test_bucket_passes_never_exceed_member_max(self):
        from repro.sched.batching import bucket_by_area

        margin = 2
        graph, nets = self._ragged_scene()
        boxes = [
            net.bbox.expanded(margin).clipped(graph.nx, graph.ny)
            for net in nets
        ]
        buckets = bucket_by_area(
            list(range(len(nets))), [box.area for box in boxes]
        )
        # The grid-spanning region rides alone; the small ones stack.
        assert len(buckets) == 2
        assert [nets[i].name for i in buckets[-1]] == ["huge"]

        solo = WavefrontMazeRouter(graph, margin=margin, backend="numpy")
        solo.query.rebuild()
        solo_passes = []
        for net in nets:
            solo.route_net(net, rebuild=False)
            solo_passes.append(solo.last_n_passes)

        batch = WavefrontMazeRouter(graph, margin=margin, backend="numpy")
        batch.query.rebuild()
        for bucket in buckets:
            batch.route_batch([nets[i] for i in bucket], rebuild=False)
            assert batch.last_n_passes <= max(
                solo_passes[i] for i in bucket
            ), bucket

    def test_reroute_stage_plan_splits_ragged_levels(self):
        graph, nets = self._ragged_scene()
        from repro.sched.pipeline import StageRunner

        nets_by_name = {net.name: net for net in nets}
        engine = RipupReroute(
            graph, nets_by_name, margin=2, engine="wavefront", backend="numpy"
        )
        routes = {}
        for net in nets:
            route = engine.maze.route_net(net)
            route.commit(graph)
            routes[net.name] = route
        stage = RerouteStage(engine, routes, nets, 2)
        schedule = StageRunner().schedule(stage)
        levels = schedule.task_graph.levels()
        plan = stage.batch_plan(schedule)
        assert plan is not None
        # Bucketing refines levels without dropping or reordering work
        # across them...
        assert sorted(t for g in plan for t in g) == sorted(
            t for level in levels for t in level
        )
        # ...and actually split at least one ragged level.
        assert len(plan) > len(levels)
