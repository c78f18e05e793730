"""Tests of the warm-state session core: handles, sessions, the store.

The load-bearing property throughout: a warm session's results —
first run, repeat runs, and ECO re-routes — are **bit-identical** to a
cold :class:`~repro.core.router.GlobalRouter` run on the same design.
Caches may only change speed.
"""

from __future__ import annotations

from contextlib import nullcontext

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
from repro.session import DesignHandle, RoutingSession, SessionContext, SessionStore
from repro.session.replay import PatternReplay, ReplayPass
from tests.cost_oracle import full_rebuild_engine
from tests.test_pattern_batch import per_chunk_dispatch


def routes_equal(r1, r2) -> bool:
    if set(r1) != set(r2):
        return False
    return all(
        r1[name].wires == r2[name].wires and r1[name].vias == r2[name].vias
        for name in r1
    )


def _graph_with(design, demand):
    """A copy of ``design``'s grid carrying a saved demand snapshot."""
    graph = DesignHandle.from_design(design).fresh_graph()
    graph.restore_demand(demand)
    return graph


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
            assert session.graph.demand_equals(cold_design.graph)

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

    def test_verify_cold_compares_digest_demand_and_score(self, small_design):
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, RouterConfig.fastgr_l()) as session:
            with pytest.raises(RuntimeError, match="no route to verify"):
                session.verify_cold()
            session.run()
            same, cold = session.verify_cold()
            assert same and cold.digest() == session.result.digest()
            session.graph.via_demand[0, 0, 0] += 1.0
            assert session.verify_cold()[0] is False

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
        """The headline guarantee, across backends, on the cost snapshot
        and on its from-scratch oracle."""
        config = RouterConfig.fastgr_l(backend=backend)
        handle = DesignHandle.from_design(small_design)
        oracle = full_rebuild_engine() if cost_engine == "full" else nullcontext()
        with oracle, RoutingSession(handle, config) as session:
            session.run()
            delta = perturb_design(
                session.design, ECO_PRESETS["small"], seed=5
            )
            eco = session.eco(delta)
            assert eco.cache_hits > 0  # replay reused warm results
            cold_design = session.cold_design()
            cold = GlobalRouter(cold_design, config).run()
            assert eco.result.digest() == cold.digest()
            assert eco.result.metrics.score == cold.metrics.score
            assert routes_equal(eco.result.routes, cold.routes)
            assert session.graph.demand_equals(cold_design.graph)

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
            assert session.graph.demand_equals(cold_design.graph)
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
                assert eco.result.digest() == cold.digest()
                assert eco.result.metrics.score == cold.metrics.score
                assert session.graph.demand_equals(cold_design.graph)
            assert session.n_ecos == 3

    def test_congested_ecos_rip_up_and_stay_bitwise(self, congested_design):
        """ECOs whose maze stage rips nets and reschedules every
        iteration still equal a cold route of the edited design."""
        config = RouterConfig.fastgr_l()
        handle = DesignHandle.from_design(congested_design)
        with RoutingSession(handle, config) as session:
            session.run()
            for seed in (1, 2, 3):
                delta = perturb_design(
                    session.design, ECO_PRESETS["small"], seed=seed
                )
                eco = session.eco(delta)
                assert eco.result.nets_to_ripup > 0
                cold_design = session.cold_design()
                cold = GlobalRouter(cold_design, config).run()
                assert eco.result.digest() == cold.digest()
                assert session.graph.demand_equals(cold_design.graph)

    def test_eco_recomputes_are_pinned(self, small_design, monkeypatch):
        """What a replay recomputes, as counts that repeat exactly.

        Three ``small`` ECOs (3 edits each) on the 60-net design: the
        pattern stage recomputes 10, 7 and 7 nets, as many as the
        content-keyed replay did (the coarser "any earlier overlapping
        net changed" rule recomputed 10, 7 and 8), and computes no
        content key; only the maze stage still hashes its tasks.  The
        counts may fall; they must not rise.
        """
        import repro.session.cache as cache

        calls = {name: 0 for name in ("demand_signature", "pattern_net_key", "maze_task_key")}
        for name in calls:
            def counted(*args, _fn=getattr(cache, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cache, name, counted)
        config = RouterConfig.fastgr_l()
        with RoutingSession(DesignHandle.from_design(small_design), config) as session:
            base = session.run()
            assert base.pattern_batched_nets == len(small_design.netlist)
            recomputed = []
            for seed in (1, 2, 3):
                delta = perturb_design(session.design, ECO_PRESETS["small"], seed=seed)
                recomputed.append(session.eco(delta).result.pattern_batched_nets)
        assert all(n <= pinned for n, pinned in zip(recomputed, (10, 7, 7))), recomputed
        assert calls["pattern_net_key"] == 0
        assert calls["demand_signature"] == calls["maze_task_key"]

    def test_eco_verdicts_do_not_depend_on_dispatch(self, small_design):
        """Per-chunk dispatch (the fused levels' oracle) replays the same
        nets as fused dispatch and stays equal to a cold route."""
        config = RouterConfig.fastgr_l()
        recomputed = []
        for dispatch in (nullcontext, per_chunk_dispatch):
            context = SessionContext()
            handle = DesignHandle.from_design(small_design)
            with dispatch(), RoutingSession(handle, config, context=context) as session:
                session.run()
                for seed in (1, 2):
                    delta = perturb_design(session.design, ECO_PRESETS["small"], seed=seed)
                    eco = session.eco(delta)
                    cold = GlobalRouter(session.cold_design(), config).run()
                    assert eco.result.digest() == cold.digest()
            recomputed.append((context.replay.recomputed, context.replay.replayed))
        assert recomputed[0] == recomputed[1]

    def test_unoriented_replay_refuses_to_split(self, small_design):
        nets = list(small_design.netlist)
        replay = ReplayPass(PatternReplay(), nets, small_design.graph)
        with pytest.raises(RuntimeError, match="orient"):
            replay.split([0])

    def test_replay_state_follows_the_design_not_the_history(self, small_design):
        """Removed nets leave the replay state; ids stay dense."""
        config = RouterConfig.fastgr_l()
        context = SessionContext()
        handle = DesignHandle.from_design(small_design)
        with RoutingSession(handle, config, context=context) as session:
            session.run()
            for step in range(3):
                names = [net.name for net in session.netlist]
                delta = NetlistDelta(
                    removed=tuple(names[step : step + 2]),
                    added=(
                        Net(f"eco{step}_a", [Pin(2 + step, 3, 0), Pin(12, 9 + step, 1)]),
                        Net(f"eco{step}_b", [Pin(20, 4, 0), Pin(9 + step, 18, 0)]),
                    ),
                )
                eco = session.eco(delta)
                cold = GlobalRouter(session.cold_design(), config).run()
                assert eco.result.digest() == cold.digest()
                state = context.replay
                n = len(session.netlist)
                assert sorted(state.ids.values()) == list(range(n))
                assert set(state.nets) == set(state.routes) == set(range(n))
                assert {state.nets[i].name for i in state.nets} == set(state.ids)
                if state.pairs.size:
                    assert int(state.pairs.max() >> 32) < n
                    assert int((state.pairs & 0xFFFFFFFF).max()) < n
                    assert np.all(np.diff(state.pairs) > 0)

    @pytest.mark.parametrize("where", ["added", "moved"])
    def test_malformed_delta_leaves_session_untouched(self, small_design, where):
        """A pin off the grid is refused before the session changes."""
        config = RouterConfig.fastgr_l()
        with RoutingSession(DesignHandle.from_design(small_design), config) as session:
            base = session.run()
            netlist, replay = session.netlist, session.context.replay
            demand = session.graph.demand_snapshot()
            victim = next(iter(small_design.netlist)).name
            bad = Net(
                "eco_bad" if where == "added" else victim,
                [Pin(1, 1, 0), Pin(small_design.graph.nx + 3, 2, 0)],
            )
            with pytest.raises(ValueError, match="off the"):
                session.eco(NetlistDelta(**{where: (bad,)}))
            assert session.netlist is netlist
            assert session.context.replay is replay
            assert session.result is base
            assert session.graph.demand_equals(_graph_with(small_design, demand))
            # The session still takes valid edits, and stays exact.
            delta = perturb_design(session.design, ECO_PRESETS["tiny"], seed=4)
            eco = session.eco(delta)
            cold = GlobalRouter(session.cold_design(), config).run()
            assert eco.result.digest() == cold.digest()

    def test_failed_route_restores_the_session(self, small_design, monkeypatch):
        """Whatever raises inside the re-route, the session rolls back."""
        import repro.core.router as router

        config = RouterConfig.fastgr_l()
        with RoutingSession(DesignHandle.from_design(small_design), config) as session:
            base = session.run()
            netlist, replay = session.netlist, session.context.replay
            demand = session.graph.demand_snapshot()

            def broken(*args, **kwargs):
                raise RuntimeError("injected")

            monkeypatch.setattr(router, "run_rrr_stage", broken)
            delta = perturb_design(session.design, ECO_PRESETS["tiny"], seed=4)
            with pytest.raises(RuntimeError, match="injected"):
                session.eco(delta)
            assert session.netlist is netlist
            assert session.context.replay is replay
            assert session.result is base
            assert session.graph.demand_equals(_graph_with(small_design, demand))
            monkeypatch.undo()
            eco = session.eco(delta)
            cold = GlobalRouter(session.cold_design(), config).run()
            assert eco.result.digest() == cold.digest()

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
            assert session.graph.demand_equals(cold_design.graph)

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
