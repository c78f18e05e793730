"""ECO delta re-route — warm-session replay vs cold full re-route.

The claim under benchmark: applying a handful-of-nets engineering
change order to a **warm** :class:`~repro.session.RoutingSession`
re-routes the edited design at least 2x faster than a cold
:class:`~repro.core.router.GlobalRouter` run, while producing a
**bit-identical** result (same demand grids, same routes, same score).

The warm path replays the deterministic stage pipeline from zero
demand: a pattern net whose pins, earlier overlapping nets and their
routes are unchanged commits its last route in O(route length) with no
hash and no DP, and maze re-routes whose demand contexts are unchanged
replay from a content-addressed cache; only the edit's blast radius
recomputes.  The record carries the ECO's recomputed pattern nets and
its content-key calls; the parity assertions — route digest, demand
grids, score — and "no content key on the pattern path" are
unconditional: the speedup is never bought with approximation.

The workload is an ECO-shaped design: a 96x96 six-layer grid at
moderate congestion (pattern-dominated, like the paper's uncongested
majority) and a three-edit delta — real ECOs touch a handful of nets,
not a fixed fraction of the netlist.

Quick mode: ``REPRO_ECO_QUICK=1`` (the CI smoke step) keeps the same
design but relaxes the speedup bar; the smoke run proves exactness and
end-to-end wiring, not the headline ratio.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from conftest import register_table

from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.eval.report import format_table
from repro.netlist.generator import DesignSpec, PerturbSpec, perturb_design
from repro.session import DesignHandle, RoutingSession

QUICK = os.environ.get("REPRO_ECO_QUICK", "") not in ("", "0")

MIN_SPEEDUP = 1.2 if QUICK else 2.0

#: Moderate-congestion, pattern-dominated ECO target (the design name
#: seeds the generator; changing it changes the workload).
ECO_DESIGN = DesignSpec(
    name="eco3k",
    nx=96,
    ny=96,
    n_layers=6,
    n_nets=3000,
    wire_capacity=7.0,
    hotspot_fraction=0.25,
)

#: A three-edit delta: 1 moved, 1 added, 1 removed net.
ECO_EDIT = PerturbSpec("handful", 0.0004, 0.0002, 0.0002, max_shift=3.0)
ECO_SEED = 7


@contextmanager
def counted_hashes():
    """Count the content-key calls made inside the block, by name."""
    import repro.session.cache as cache

    calls = {name: 0 for name in ("demand_signature", "pattern_net_key", "maze_task_key")}
    real = {name: getattr(cache, name) for name in calls}

    def counter(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)

        return counted

    for name in calls:
        setattr(cache, name, counter(name))
    try:
        yield calls
    finally:
        for name, fn in real.items():
            setattr(cache, name, fn)


def test_eco_replay_beats_cold_reroute():
    from repro.netlist.generator import generate_design

    config = RouterConfig.fastgr_l()
    handle = DesignHandle.from_design(generate_design(ECO_DESIGN))

    with RoutingSession(handle, config) as session:
        start = time.perf_counter()
        base = session.run()
        warm_time = time.perf_counter() - start

        delta = perturb_design(session.design, ECO_EDIT, seed=ECO_SEED)
        with counted_hashes() as hashes:
            start = time.perf_counter()
            eco = session.eco(delta)
            eco_time = time.perf_counter() - start

        cold_design = session.cold_design()
        start = time.perf_counter()
        cold = GlobalRouter(cold_design, config).run()
        cold_time = time.perf_counter() - start

        # Exactness first, unconditionally: the warm ECO result must be
        # bit-identical to the cold route of the edited design.  The
        # pattern stage decides clean nets by structure: no content key.
        assert eco.result.digest() == cold.digest()
        assert hashes["pattern_net_key"] == 0, hashes
        assert session.graph.demand_equals(cold_design.graph)
        assert eco.result.metrics.score == cold.metrics.score
        assert set(eco.result.routes) == set(cold.routes)
        for name, route in cold.routes.items():
            warm_route = eco.result.routes[name]
            assert warm_route.wires == route.wires, name
            assert warm_route.vias == route.vias, name

        speedup = cold_time / eco_time
        metrics = {
            "warm_route_s": warm_time,
            "eco_s": eco_time,
            "cold_s": cold_time,
            "speedup": speedup,
            "n_edits": eco.n_edits,
            "cache_hits": eco.cache_hits,
            "cache_misses": eco.cache_misses,
            "recomputed_nets": eco.result.pattern_batched_nets,
            "content_hashes": sum(hashes.values()),
            "pattern_hashes": hashes["pattern_net_key"],
            "reuse_fraction": eco.reuse_fraction,
            "score": eco.result.metrics.score,
            "min_speedup": MIN_SPEEDUP,
            "quick": int(QUICK),
        }
        register_table(
            "eco",
            format_table(
                ["phase", "time(s)", "tasks replayed", "tasks recomputed"],
                [
                    ["base route (warm-up)", warm_time, "", ""],
                    ["eco re-route (warm)", eco_time, eco.cache_hits,
                     eco.cache_misses],
                    ["cold re-route", cold_time, 0,
                     eco.cache_hits + eco.cache_misses],
                    ["speedup", speedup, "", ""],
                ],
                title=(
                    f"ECO re-route vs cold full route "
                    f"({ECO_DESIGN.nx}x{ECO_DESIGN.ny}x{ECO_DESIGN.n_layers}, "
                    f"{ECO_DESIGN.n_nets} nets, {eco.n_edits} edits, "
                    f"{eco.reuse_fraction:.0%} replayed, bit-identical)"
                ),
            ),
            config=config,
            metrics=metrics,
        )
        assert eco.reuse_fraction > 0.5
        assert speedup >= MIN_SPEEDUP, (
            f"eco {eco_time:.2f}s vs cold {cold_time:.2f}s "
            f"= {speedup:.2f}x < {MIN_SPEEDUP}x"
        )
