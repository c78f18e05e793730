"""The public entry point: :class:`GlobalRouter`.

>>> from repro import GlobalRouter, RouterConfig, load_benchmark
>>> design = load_benchmark("18test5", scale=0.1)
>>> result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
>>> result.metrics.score > 0
True
"""

from __future__ import annotations

from typing import Optional

from repro import metrics
from repro.core.config import RouterConfig
from repro.core.flow import run_pattern_stage, run_rrr_stage
from repro.core.result import RoutingResult
from repro.eval.metrics import RoutingMetrics
from repro.gpu.device import Device
from repro.netlist.design import Design
from repro.utils.timing import Tracker


def route_design(
    design: Design,
    config: RouterConfig,
    device: Optional[Device] = None,
    context=None,
    on_iteration=None,
) -> RoutingResult:
    """Run the two-stage flow over ``design`` and return the result.

    The single driver behind both :class:`GlobalRouter` (one-shot, no
    warm state) and :class:`~repro.session.session.RoutingSession`
    (which passes its warm ``context`` and a progress callback).
    Mutates the design's grid demand; the caller owns resetting it
    between runs.  The run's one ``Tracker`` is created here, so the
    result's counter views (:mod:`repro.metrics`) hold this run only.
    """
    device = device or Device()
    design.validate()
    tracker = Tracker()

    with tracker.get_timer(metrics.PATTERN_STAGE_S).time():
        routes, pattern_report = run_pattern_stage(
            design, config, device, tracker, context=context
        )
    with tracker.get_timer(metrics.MAZE_STAGE_S).time():
        nets_to_ripup, iterations = run_rrr_stage(
            design, config, routes, device=device, context=context,
            on_iteration=on_iteration, tracker=tracker,
        )

    counters, timers = tracker.snapshot()
    return RoutingResult(
        design_name=design.name,
        config_name=config.name,
        routes=routes,
        metrics=RoutingMetrics.measure(routes, design.graph),
        stage_times=metrics.stage_times(timers),
        nets_to_ripup=nets_to_ripup,
        maze_engine=config.maze_engine,
        cost_stats=metrics.cost_stats(counters, timers),
        iterations=iterations,
        pattern_report=pattern_report,
        pattern_stats=metrics.pattern_stats(counters),
        device_stats={
            "n_launches": float(device.n_launches),
            "total_elements": float(device.total_elements),
            "simulated_gpu_time": device.simulated_gpu_time(),
            "simulated_sequential_time": device.simulated_sequential_time(),
            "simulated_speedup": device.simulated_speedup(),
            "bytes_to_device": float(device.total_bytes_to_device),
            "bytes_to_host": float(device.total_bytes_to_host),
            **{
                f"elements_{kernel}": float(count)
                for kernel, count in device.per_kernel_elements().items()
            },
        },
        transfer_stats=metrics.transfer_stats(counters, device.spec),
    )


class GlobalRouter:
    """Two-stage global router over a :class:`~repro.netlist.Design`.

    The router mutates the design's grid demand (committed routes) and
    returns a :class:`~repro.core.result.RoutingResult`.  Run each
    router instance once; to compare configurations, generate a fresh
    design per run (generation is deterministic, so designs are
    identical across runs).  For repeat traffic over one design, use a
    :class:`~repro.session.session.RoutingSession` instead — it keeps
    demand and caches warm between runs.
    """

    def __init__(self, design: Design, config: Optional[RouterConfig] = None) -> None:
        self.design = design
        self.config = config or RouterConfig.fastgr_l()
        self.device = Device()
        self._ran = False

    def run(self) -> RoutingResult:
        """Execute pattern routing then rip-up-and-reroute; return results."""
        if self._ran:
            raise RuntimeError(
                "this GlobalRouter already ran; build a new router on a "
                "fresh design for another run"
            )
        self._ran = True
        return route_design(self.design, self.config, device=self.device)


__all__ = ["GlobalRouter", "route_design"]
