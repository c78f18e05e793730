"""The public entry point: :class:`GlobalRouter`.

>>> from repro import GlobalRouter, RouterConfig, load_benchmark
>>> design = load_benchmark("18test5", scale=0.1)
>>> result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
>>> result.metrics.score > 0
True
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RouterConfig
from repro.core.flow import run_pattern_stage, run_rrr_stage
from repro.core.result import RoutingResult
from repro.eval.metrics import RoutingMetrics
from repro.gpu.device import Device
from repro.gpu.zerocopy import ZeroCopyArena
from repro.netlist.design import Design
from repro.utils.timing import StageTimer


def route_design(
    design: Design,
    config: RouterConfig,
    device: Optional[Device] = None,
    arena: Optional[ZeroCopyArena] = None,
    context=None,
    on_iteration=None,
) -> RoutingResult:
    """Run the two-stage flow over ``design`` and return the result.

    The single driver behind both :class:`GlobalRouter` (one-shot, no
    warm state) and :class:`~repro.session.session.RoutingSession`
    (which passes its warm ``context`` and a progress callback).
    Mutates the design's grid demand; the caller owns resetting it
    between runs.
    """
    device = device or Device()
    arena = arena or ZeroCopyArena()
    design.validate()
    timer = StageTimer()

    pattern_cost: dict = {}
    maze_cost: dict = {}
    pattern_stats: dict = {}
    with timer.stage("pattern"):
        routes, pattern_report = run_pattern_stage(
            design, config, device, arena,
            cost_stats=pattern_cost, context=context,
            stage_stats=pattern_stats,
        )
    with timer.stage("maze"):
        nets_to_ripup, iterations = run_rrr_stage(
            design, config, routes, device=device,
            cost_stats=maze_cost, context=context,
            on_iteration=on_iteration,
        )

    cost_stats = dict(pattern_cost)
    for key, value in maze_cost.items():
        cost_stats[key] = cost_stats.get(key, 0.0) + value
    metrics = RoutingMetrics.measure(routes, design.graph)
    return RoutingResult(
        design_name=design.name,
        config_name=config.name,
        routes=routes,
        metrics=metrics,
        stage_times=timer.totals(),
        nets_to_ripup=nets_to_ripup,
        maze_engine=config.maze_engine,
        cost_stats=cost_stats,
        iterations=iterations,
        pattern_report=pattern_report,
        pattern_stats=pattern_stats,
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
        transfer_stats={
            "bytes_to_device": float(arena.bytes_to_device),
            "bytes_to_host": float(arena.bytes_to_host),
            "transfer_time": arena.simulated_transfer_time(),
            "zero_copy_saving": arena.saving_vs_explicit_copy(),
        },
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
        self.arena = ZeroCopyArena()
        self._ran = False

    def run(self) -> RoutingResult:
        """Execute pattern routing then rip-up-and-reroute; return results."""
        if self._ran:
            raise RuntimeError(
                "this GlobalRouter already ran; build a new router on a "
                "fresh design for another run"
            )
        self._ran = True
        return route_design(
            self.design, self.config, device=self.device, arena=self.arena
        )


__all__ = ["GlobalRouter", "route_design"]
