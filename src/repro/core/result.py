"""Routing results: routes, quality metrics, per-stage runtimes.

A :class:`RoutingResult` carries everything the paper's tables report:

* quality — wirelength, vias, shorts, score (Tables V/VI/VII/IX);
* runtime — PATTERN / MAZE / TOTAL breakdown (Tables V/VII/VIII), where
  MAZE time is reported both as measured sequential time and as the
  modelled parallel makespans under the task-graph scheduler and the
  batch-barrier baseline (DESIGN.md Sec. 2 substitution);
* scale — nets to rip up after the pattern stage (Table VIII);
* device — kernel launches and the simulated GPU speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.eval.metrics import RoutingMetrics
from repro.grid.route import Route
from repro.sched.pipeline import StageReport


@dataclass
class IterationStats:
    """One rip-up-and-reroute iteration."""

    iteration: int
    n_ripped: int
    n_failed: int
    sequential_time: float
    taskgraph_makespan: float
    batch_makespan: float
    # Makespan under the strategy the router was configured with
    # ("taskgraph" for FastGR, "batch" for the CUGR baseline).
    makespan: float = 0.0
    # Which search engine rerouted this iteration's nets.
    engine: str = "dijkstra"
    # Node expansions (dijkstra; a re-expanded node counts again) /
    # cells relaxed (wavefront) this iteration, summed over all
    # reroute tasks.
    nodes_visited: int = 0
    # Cost-snapshot maintenance of the maze router this iteration:
    # rebuild calls, edge costs actually recomputed, seconds.
    cost_rebuilds: int = 0
    cost_refreshed_edges: int = 0
    cost_time: float = 0.0
    # Batched maze dispatch this iteration: stacked relaxations run and
    # how many nets they fused (0/0 under per-net dispatch).
    maze_batches: int = 0
    batched_nets: int = 0
    # Device traffic this iteration (wavefront engine with an attached
    # device): kernel launches and the host<->device bytes attributed to
    # them.  On a device_is_host backend the bytes are the would-be
    # traffic — the residency metric the paper's Fig. 9 motivates.
    kernel_launches: int = 0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    # Full pipeline execution record (durations, makespans, schedule).
    report: Optional[StageReport] = None

    @property
    def scheduler_speedup(self) -> float:
        """Batch-barrier / task-graph makespan (the Table VIII ratio)."""
        if self.taskgraph_makespan <= 0:
            return 1.0
        return self.batch_makespan / self.taskgraph_makespan


@dataclass
class RoutingResult:
    """Complete outcome of one global-routing run."""

    design_name: str
    config_name: str
    routes: Dict[str, Route]
    metrics: RoutingMetrics
    stage_times: Dict[str, float]
    nets_to_ripup: int
    # Search engine of the rip-up stage ("dijkstra" | "wavefront").
    maze_engine: str = "dijkstra"
    # Cost-snapshot maintenance engine ("full" | "incremental") and its
    # run-wide counters (pattern + maze stages combined).
    cost_engine: str = "full"
    cost_stats: Dict[str, float] = field(default_factory=dict)
    iterations: List[IterationStats] = field(default_factory=list)
    device_stats: Dict[str, float] = field(default_factory=dict)
    transfer_stats: Dict[str, float] = field(default_factory=dict)
    # Pipeline execution record of the pattern stage (chunk tasks).
    pattern_report: Optional[StageReport] = None
    # Batched pattern dispatch counters ("pattern.*" tracker totals):
    # fused cross-net launches run, nets routed through them, and
    # kernel invocations the stage issued (0/0 under per-chunk
    # dispatch).
    pattern_stats: Dict[str, float] = field(default_factory=dict)

    def stage_reports(self) -> List[StageReport]:
        """All pipeline reports, pattern stage first then per iteration."""
        reports = [self.pattern_report] if self.pattern_report else []
        reports.extend(it.report for it in self.iterations if it.report)
        return reports

    # ------------------------------------------------------------------ #
    # Runtime views (the table columns)
    # ------------------------------------------------------------------ #
    @property
    def pattern_time(self) -> float:
        """Wall-clock seconds of the pattern routing stage."""
        return self.stage_times.get("pattern", 0.0)

    @property
    def maze_time_sequential(self) -> float:
        """Measured one-worker seconds of all reroute tasks."""
        return sum(it.sequential_time for it in self.iterations)

    @property
    def maze_time(self) -> float:
        """Modelled parallel MAZE seconds under the configured strategy."""
        return sum(it.makespan for it in self.iterations)

    @property
    def maze_nodes_visited(self) -> int:
        """Total maze search work (node expansions / cells relaxed)."""
        return sum(it.nodes_visited for it in self.iterations)

    @property
    def maze_batches(self) -> int:
        """Total stacked maze dispatches across all iterations."""
        return sum(it.maze_batches for it in self.iterations)

    @property
    def maze_batched_nets(self) -> int:
        """Total nets routed through stacked dispatches."""
        return sum(it.batched_nets for it in self.iterations)

    @property
    def pattern_batches(self) -> int:
        """Fused cross-net pattern dispatches run by the stage."""
        return int(self.pattern_stats.get("batches", 0))

    @property
    def pattern_batched_nets(self) -> int:
        """Nets routed through fused pattern dispatches."""
        return int(self.pattern_stats.get("batched_nets", 0))

    @property
    def pattern_kernel_launches(self) -> int:
        """Kernel invocations the pattern stage issued."""
        return int(self.pattern_stats.get("kernel_launches", 0))

    @property
    def maze_time_taskgraph(self) -> float:
        """Modelled parallel MAZE seconds under the task-graph scheduler."""
        return sum(it.taskgraph_makespan for it in self.iterations)

    @property
    def maze_time_batch_parallel(self) -> float:
        """Modelled parallel MAZE seconds under the batch baseline."""
        return sum(it.batch_makespan for it in self.iterations)

    @property
    def total_time(self) -> float:
        """PATTERN + modelled MAZE + remaining measured stages."""
        other = sum(
            seconds
            for stage, seconds in self.stage_times.items()
            if stage not in ("pattern", "maze")
        )
        return self.pattern_time + self.maze_time + other

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the benchmark harnesses."""
        data: Dict[str, float] = {
            "pattern_time": self.pattern_time,
            "maze_time": self.maze_time,
            "maze_time_sequential": self.maze_time_sequential,
            "maze_time_batch_parallel": self.maze_time_batch_parallel,
            "total_time": self.total_time,
            "nets_to_ripup": float(self.nets_to_ripup),
            "maze_nodes_visited": float(self.maze_nodes_visited),
            "maze_batches": float(self.maze_batches),
            "maze_batched_nets": float(self.maze_batched_nets),
            "pattern_batches": float(self.pattern_batches),
            "pattern_batched_nets": float(self.pattern_batched_nets),
            "pattern_kernel_launches": float(self.pattern_kernel_launches),
        }
        if self.pattern_report is not None:
            data["pattern_tasks"] = float(self.pattern_report.n_tasks)
            data["pattern_scheduler_speedup"] = (
                self.pattern_report.scheduler_speedup
            )
        data.update(self.metrics.as_dict())
        data.update({f"device_{k}": v for k, v in self.device_stats.items()})
        data.update({f"cost_{k}": v for k, v in self.cost_stats.items()})
        return data


__all__ = ["IterationStats", "RoutingResult"]
