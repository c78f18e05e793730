"""The five workloads: inputs from a seed, one timed routing region each.

Inputs
------
Every workload routes a *placement revision* of a fixed base design: the
base comes from the repository's generator with its default seed, and
the input seed draws a :func:`perturb_design` delta (one net in a
thousand re-placed within a G-cell) that is applied before routing.
Seeds are therefore near-replicates of one congestion layout, on
purpose.  The seed is not handed to the generator because the generator
derives hotspot and blockage geometry from it: on ``18test10m`` seeds
0/1/2 rip 726/407/288 nets and score 124k/52k/47k, which makes each seed
a different workload rather than another sample of the same one.  The
router only ever sees the generated :class:`Design`.

One ``--seed`` stands for :data:`REVISIONS` input seeds, which the
repeats of a run cycle through (see ``run.py``): the rip-up loop is
chaotic, and about one revision in eight of the congested design ends in
another attractor whose score is 1-7 % off.

Regions
-------
Only calls into public functions are timed: ``GlobalRouter(...).run()``,
or ``RoutingSession.run()`` plus six ``RoutingSession.eco()`` calls on
``eco_warm``.  Presets are built exactly as ``repro route --preset``
builds them (``executor="threaded"``, ``n_workers=8``); the only
override is the one that defines a workload (``maze_engine="wavefront"``).
"""

from __future__ import annotations

import gc
import os
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import (
    Design,
    DesignHandle,
    DesignSpec,
    EcoResult,
    GlobalRouter,
    PerturbSpec,
    RouterConfig,
    RoutingResult,
    RoutingSession,
    generate_design,
    load_benchmark,
    perturb_design,
)

import trace as tracing

#: The input seed's placement revision: 0.1 % of the nets (one on the
#: 910-net congested design) re-scattered around a centre at most one
#: G-cell away.  Adding and removing a net as well sent more seeds of the
#: congested design into another rip-up attractor (3 of 12 against 3 of
#: 20 under the wavefront engine).
REVISION = PerturbSpec("revision", 0.001, 0.0, 0.0, max_shift=1.0)

#: Input seeds per ``--seed``: input seed = REVISIONS * seed + repeat % REVISIONS.
REVISIONS = 3

#: The three-edit ECO of ``eco_warm`` (one net moved, added, removed).
ECO = PerturbSpec("handful", 0.0004, 0.0002, 0.0002, max_shift=3.0)
N_ECOS = 6


# One base design per workload family, sized so that one capped run holds
# several repeats, and a tiny twin that only ``--smoke`` routes.
def _open(smoke: bool) -> Design:
    if smoke:
        return generate_design(DesignSpec(
            name="open", nx=28, ny=28, n_layers=9, n_nets=300,
            wire_capacity=9.0, hotspot_fraction=0.2))
    return generate_design(DesignSpec(
        name="open3k", nx=72, ny=72, n_layers=9, n_nets=3000,
        wire_capacity=9.0, hotspot_fraction=0.2))


def _congested(smoke: bool) -> Design:
    if smoke:
        return load_benchmark("18test10m", scale=0.12)
    return generate_design(DesignSpec(
        name="cong900", nx=51, ny=51, n_layers=5, n_nets=910, wire_capacity=3.9))


def _eco(smoke: bool) -> Design:
    if smoke:
        return generate_design(DesignSpec(
            name="eco", nx=28, ny=28, n_layers=6, n_nets=300,
            wire_capacity=7.0, hotspot_fraction=0.25))
    return generate_design(DesignSpec(
        name="eco1500", nx=68, ny=68, n_layers=6, n_nets=1500,
        wire_capacity=7.0, hotspot_fraction=0.25))


@dataclass(frozen=True)
class Workload:
    name: str
    base: Callable[[bool], Design]  # base(smoke)
    config: Callable[[], RouterConfig]
    session: bool = False


#: Why each one exists is recorded once, in BENCHMARK.json (and README.md).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pattern_l", _open, RouterConfig.fastgr_l),
        Workload("pattern_h", _open, RouterConfig.fastgr_h),
        Workload("maze_dijkstra", _congested, RouterConfig.fastgr_l),
        Workload(
            "maze_wavefront",
            _congested,
            lambda: RouterConfig.fastgr_l(maze_engine="wavefront"),
        ),
        Workload("eco_warm", _eco, RouterConfig.fastgr_l, session=True),
    )
}


@dataclass
class Prepared:
    """Everything set up before the timed region of one repeat."""

    design: Design
    session: Optional[RoutingSession]
    setup_s: float


@dataclass
class RunRecord:
    """One repeat: set-up, timed region, and what came out of it."""

    design: Design  # the design the last result routed
    session: Optional[RoutingSession]  # closed after the region; kept for the cold check
    setup_s: float
    route_s: float = 0.0
    cpu_s: float = 0.0
    call_s: List[float] = field(default_factory=list)  # wall of each public call
    results: List[RoutingResult] = field(default_factory=list)
    ecos: List[EcoResult] = field(default_factory=list)
    session_stats: Optional[dict] = None
    rss_delta_mb: float = 0.0
    error: Optional[str] = None

    @property
    def nets_routed(self) -> int:
        return sum(len(result.routes) for result in self.results)

    @property
    def nets_attempted(self) -> int:
        """Nets offered to the router, also when the run raised early."""
        return max(self.nets_routed, len(self.design.netlist))

    @property
    def maze_failures(self) -> int:
        """Nets a rip-up iteration gave up on (old route restored)."""
        return sum(it.n_failed for result in self.results for it in result.iterations)


def warm_up(workload: Workload) -> None:
    """Untimed tiny route so imports and NumPy set-up bill nobody."""
    GlobalRouter(load_benchmark("18test5", scale=0.1), workload.config()).run()


def _span(tracer: Optional[tracing.Tracer], name: str):
    return tracer.span(name) if tracer else nullcontext()


def prepare(
    workload: Workload, smoke: bool, seed: int, tracer: Optional[tracing.Tracer] = None
) -> Prepared:
    """Generate the input seed's design (and the warm session on ``eco_warm``)."""
    start = time.perf_counter()
    with _span(tracer, "netlist.generate"):
        base = workload.base(smoke)
        revision = perturb_design(base, REVISION, seed=seed)
        design = Design(
            base.name, base.graph, revision.apply(base.netlist), dict(base.metadata)
        )
    session = None
    if workload.session:
        session = RoutingSession(DesignHandle.from_design(design), workload.config())
    return Prepared(design, session, time.perf_counter() - start)


class _RssSampler:
    """Peak resident set over the region, sampled every 50 ms."""

    _PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

    def __init__(self) -> None:
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="e2e-rss-sampler")
        self.peak = 0.0
        self.baseline = 0.0

    @classmethod
    def _rss_mb(cls) -> float:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * cls._PAGE_MB

    def _loop(self) -> None:
        while not self._stop.wait(0.05):
            self.peak = max(self.peak, self._rss_mb())

    def __enter__(self) -> "_RssSampler":
        gc.collect()
        self.baseline = self.peak = self._rss_mb()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss_mb())


def route(
    workload: Workload,
    prepared: Prepared,
    seed: int,
    tracer: Optional[tracing.Tracer] = None,
) -> RunRecord:
    """Run the workload's timed region once.

    Each public call is timed on its own and the walls are summed, so
    drawing the next ECO delta (which needs the session's current
    design) stays outside the region.  A raised exception is recorded,
    not propagated: the run then counts every net as failed.
    """
    session = prepared.session
    record = RunRecord(prepared.design, session, prepared.setup_s)

    def timed(call):
        cpu0, t0 = time.process_time(), time.perf_counter()
        with _span(tracer, tracing.ROOT):
            out = call()
        wall = time.perf_counter() - t0
        record.call_s.append(wall)
        record.route_s += wall
        record.cpu_s += time.process_time() - cpu0
        return out

    try:
        with _RssSampler() if tracer else nullcontext() as sampler:
            if session is None:
                router = GlobalRouter(prepared.design, workload.config())
                record.results.append(timed(router.run))
            else:
                record.results.append(timed(session.run))
                for k in range(N_ECOS):
                    delta = perturb_design(session.design, ECO, seed=1000 * seed + k)
                    eco = timed(lambda: session.eco(delta))
                    record.ecos.append(eco)
                    record.results.append(eco.result)
                record.design = session.design
                record.session_stats = session.stats()
        if sampler is not None:
            record.rss_delta_mb = sampler.peak - sampler.baseline
    except Exception:
        record.error = traceback.format_exc()
    finally:
        if session is not None:
            session.close()
    return record
