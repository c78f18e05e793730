"""Tests of the warm-state session core: handles, sessions, the store.

The load-bearing property throughout: a warm session's results —
first run, repeat runs, and ECO re-routes — are **bit-identical** to a
cold :class:`~repro.core.router.GlobalRouter` run on the same design.
Caches may only change speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.netlist.delta import NetlistDelta
from repro.netlist.generator import (
    ECO_PRESETS,
    DesignSpec,
    generate_design,
    perturb_design,
)
from repro.netlist.net import Net, Pin
from repro.session import DesignHandle, RoutingSession, SessionStore


def demand_equal(g1, g2) -> bool:
    return all(
        np.array_equal(g1.wire_demand[layer], g2.wire_demand[layer])
        for layer in range(g1.n_layers)
    ) and np.array_equal(g1.via_demand, g2.via_demand)


def routes_equal(r1, r2) -> bool:
    if set(r1) != set(r2):
        return False
    return all(
        r1[name].wires == r2[name].wires and r1[name].vias == r2[name].vias
        for name in r1
    )


class TestDesignHandle:
    def test_content_key_is_stable(self, small_design):
        k1 = DesignHandle.from_design(small_design).key
        k2 = DesignHandle.from_design(small_design).key
        assert k1 == k2

    def test_key_tracks_netlist_content(self, small_design):
        base = DesignHandle.from_design(small_design)
        other_spec = DesignSpec(
            name="unit-small", nx=24, ny=24, n_layers=5, n_nets=60,
            wire_capacity=3.0, seed=8,
        )
        other = DesignHandle.from_design(generate_design(other_spec))
        assert base.key != other.key

    def test_fresh_graph_has_zero_demand(self, small_design):
        handle = DesignHandle.from_design(small_design)
        graph = handle.fresh_graph()
        assert all(
            not graph.wire_demand[layer].any()
            for layer in range(graph.n_layers)
        )
        assert not graph.via_demand.any()


class TestRoutingSession:
    def test_run_matches_cold_router(self, small_design):
        config = RouterConfig.fastgr_l()
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, config) as session:
            warm = session.run()
            cold_design = session.cold_design()
            cold = GlobalRouter(cold_design, config).run()
            assert warm.metrics.score == cold.metrics.score
            assert routes_equal(warm.routes, cold.routes)
            assert demand_equal(session.graph, cold_design.graph)

    def test_repeat_run_replays_caches_bitwise(self, congested_design):
        config = RouterConfig.fastgr_l()
        handle = DesignHandle.from_design(congested_design)
        with RoutingSession(handle, config) as session:
            first = session.run()
            cache = session.context.cache
            assert cache.misses > 0
            hits_before = cache.hits
            second = session.run()
            assert second.metrics.score == first.metrics.score
            assert routes_equal(second.routes, first.routes)
            # The replay must actually hit the warm cache.
            assert cache.hits > hits_before
            assert session.n_runs == 2

    def test_eco_requires_warm_state(self, small_design):
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, RouterConfig.fastgr_l()) as session:
            delta = perturb_design(small_design, ECO_PRESETS["tiny"], seed=1)
            with pytest.raises(RuntimeError, match="no warm route"):
                session.eco(delta)

    def test_closed_session_rejects_work(self, small_design):
        handle = DesignHandle.from_design(small_design)
        session = RoutingSession(handle, RouterConfig.fastgr_l())
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run()

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("cost_engine", ["full", "incremental"])
    def test_eco_bitwise_vs_cold(self, small_design, backend, cost_engine):
        """The headline guarantee, across backends and cost engines."""
        config = RouterConfig.fastgr_l(backend=backend, cost_engine=cost_engine)
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, config) as session:
            session.run()
            delta = perturb_design(
                session.design, ECO_PRESETS["small"], seed=5
            )
            eco = session.eco(delta)
            assert eco.cache_hits > 0  # replay reused warm results
            cold_design = session.cold_design()
            cold = GlobalRouter(cold_design, config).run()
            assert eco.result.metrics.score == cold.metrics.score
            assert routes_equal(eco.result.routes, cold.routes)
            assert demand_equal(session.graph, cold_design.graph)

    def test_routing_starts_no_thread(self, congested_design, monkeypatch):
        """Warm run, ECO and cold run (RRR iterations included) all
        drain their stages on the calling thread."""
        import threading

        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        config = RouterConfig.fastgr_l()
        handle = DesignHandle.from_design(congested_design)
        with RoutingSession(handle, config) as session:
            session.run()
            delta = perturb_design(
                session.design, ECO_PRESETS["small"], seed=9
            )
            eco = session.eco(delta)
            cold_design = session.cold_design()
            cold = GlobalRouter(cold_design, config).run()
            assert cold.iterations and cold.nets_to_ripup > 0
            assert routes_equal(eco.result.routes, cold.routes)
            assert demand_equal(session.graph, cold_design.graph)
        assert started == []

    def test_consecutive_ecos_stay_bitwise(self, small_design):
        config = RouterConfig.fastgr_l()
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, config) as session:
            session.run()
            for seed in (1, 2, 3):
                delta = perturb_design(
                    session.design, ECO_PRESETS["tiny"], seed=seed
                )
                eco = session.eco(delta)
                cold_design = session.cold_design()
                cold = GlobalRouter(cold_design, config).run()
                assert eco.result.metrics.score == cold.metrics.score
                assert demand_equal(session.graph, cold_design.graph)
            assert session.n_ecos == 3

    def test_eco_remove_move_add_equals_cold(self, small_design):
        """One net removed, one moved, one added: the replay commits every
        route onto reset demand (no uncommit of the old ones first) and
        still lands on the cold route, demand grid for demand grid."""
        config = RouterConfig.fastgr_l()
        nets = list(small_design.netlist)
        moved = Net(nets[5].name, [Pin(p.y, p.x, p.layer) for p in nets[5].pins])
        delta = NetlistDelta(
            removed=(nets[2].name,),
            moved=(moved,),
            added=(Net("eco_added", [Pin(3, 4, 0), Pin(17, 15, 1), Pin(9, 20, 0)]),),
        )
        with RoutingSession(DesignHandle.from_design(small_design), config) as session:
            session.run()
            eco = session.eco(delta)
            assert eco.dirty_windows == [
                nets[2].bbox.as_tuple(),
                nets[5].bbox.as_tuple(),
                moved.bbox.as_tuple(),
                delta.added[0].bbox.as_tuple(),
            ]
            cold_design = session.cold_design()
            cold = GlobalRouter(cold_design, config).run()
            assert nets[2].name not in eco.result.routes
            assert routes_equal(eco.result.routes, cold.routes)
            assert demand_equal(session.graph, cold_design.graph)

    def test_eco_reports_edit_counts(self, small_design):
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, RouterConfig.fastgr_l()) as session:
            session.run()
            delta = perturb_design(session.design, ECO_PRESETS["tiny"], seed=1)
            eco = session.eco(delta)
            assert eco.n_edits == (
                len(delta.removed) + len(delta.added) + len(delta.moved)
            )
            assert eco.dirty_windows
            assert 0.0 <= eco.reuse_fraction <= 1.0
            summary = eco.summary()
            assert summary["cache_hits"] == eco.cache_hits


class TestSessionStore:
    def test_handle_is_cached(self):
        store = SessionStore()
        h1 = store.handle("18test5", scale=0.1)
        h2 = store.handle("18test5", scale=0.1)
        assert h1 is h2
        assert store.handle("18test5", scale=0.1, seed=2) is not h1

    def test_session_reuse_and_lru_eviction(self):
        config = RouterConfig.fastgr_l()
        with SessionStore(max_sessions=2) as store:
            handles = [
                store.handle("18test5", scale=0.1, seed=seed)
                for seed in (1, 2, 3)
            ]
            s1 = store.session(handles[0], config)
            assert store.session(handles[0], config) is s1
            store.session(handles[1], config)
            store.session(handles[2], config)  # evicts s1
            assert store.evictions == 1
            assert s1.closed
            s1b = store.session(handles[0], config)
            assert s1b is not s1 and not s1b.closed

    def test_sessions_share_steiner_cache(self):
        config = RouterConfig.fastgr_l()
        with SessionStore() as store:
            handle = store.handle("18test5", scale=0.1)
            session = store.session(handle, config)
            assert session.context.steiner_cache is store.steiner_cache
            session.run()
            assert store.steiner_cache.stats()["entries"] > 0

    def test_close_is_idempotent(self):
        store = SessionStore()
        handle = store.handle("18test5", scale=0.1)
        session = store.session(handle, RouterConfig.fastgr_l())
        store.close()
        assert session.closed
        store.close()

    def test_stats_shape(self):
        with SessionStore() as store:
            handle = store.handle("18test5", scale=0.1)
            store.session(handle, RouterConfig.fastgr_l())
            stats = store.stats()
            assert stats["n_sessions"] == 1
            assert stats["n_handles"] == 1
            assert len(stats["sessions"]) == 1
