"""Metric definitions: what each name in ``BENCHMARK.json`` is computed from.

Group A comes from public result fields and exists for every repeat.
Group B comes from the spans of a traced repeat (see ``trace.py``).
Counts are summed over the results of a repeat (seven on ``eco_warm``),
quality figures are those of the last result.
"""

from __future__ import annotations

from statistics import median
from typing import Dict

from trace import LayerTotals, coverage
from workloads import RunRecord

#: Figures that come out of a model (simulated device, simulated
#: makespans), printed in their own block and never mixed with wall clock.
MODELLED = (
    "sched.modelled_maze_makespan_s",
    "sched.modelled_scheduler_speedup",
    "gpu.modelled_speedup",
)


def end_to_end(record: RunRecord) -> Dict[str, float]:
    return {
        "setup_s": record.setup_s,
        "route_s": record.route_s,
        "nets_per_s": record.nets_routed / record.route_s,
        "score": record.results[-1].metrics.score,
    }


def group_a(record: RunRecord) -> Dict[str, float]:
    results = record.results
    last = results[-1]
    iterations = [it for result in results for it in result.iterations]
    reports = [r.pattern_report for r in results if r.pattern_report is not None]

    def total(fn) -> float:
        return sum(fn(result) for result in results)

    pattern_s = total(lambda r: r.stage_times.get("pattern", 0.0))
    maze_s = total(lambda r: r.stage_times.get("maze", 0.0))
    taskgraph = sum(it.taskgraph_makespan for it in iterations)
    hits = sum(eco.cache_hits for eco in record.ecos)
    misses = sum(eco.cache_misses for eco in record.ecos)
    eco_s = record.call_s[1:]
    stats = record.session_stats or {}
    return {
        "core.pattern_stage_s": pattern_s,
        "core.maze_stage_s": maze_s,
        "core.other_s": record.route_s - pattern_s - maze_s,
        "core.cpu_s": record.cpu_s,
        "netlist.nets": len(record.design.netlist),
        "netlist.pins": record.design.netlist.total_pins(),
        "sched.pattern_tasks": sum(r.n_tasks for r in reports),
        "sched.pattern_conflicts": sum(r.n_conflicts for r in reports),
        "sched.pattern_batches": sum(r.n_batches for r in reports),
        "sched.modelled_maze_makespan_s": total(lambda r: r.maze_time),
        "sched.modelled_scheduler_speedup": (
            sum(it.batch_makespan for it in iterations) / taskgraph
            if taskgraph > 0
            else 1.0
        ),
        "grid.cost_s": total(lambda r: r.cost_stats.get("seconds", 0.0)),
        "grid.cost_rebuilds": total(lambda r: r.cost_stats.get("rebuilds", 0.0)),
        "grid.cost_refreshed_edges": total(
            lambda r: r.cost_stats.get("refreshed_edges", 0.0)
        ),
        "pattern.batches": total(lambda r: r.pattern_batches),
        "pattern.batched_nets": total(lambda r: r.pattern_batched_nets),
        "pattern.kernel_launches": total(lambda r: r.pattern_kernel_launches),
        "maze.nets_to_ripup": total(lambda r: r.nets_to_ripup),
        "maze.ripped_total": sum(it.n_ripped for it in iterations),
        "maze.iterations": len(iterations),
        "maze.failed": sum(it.n_failed for it in iterations),
        "maze.nodes_visited": total(lambda r: r.maze_nodes_visited),
        "maze.batches": total(lambda r: r.maze_batches),
        "maze.batched_nets": total(lambda r: r.maze_batched_nets),
        "maze.kernel_launches": sum(it.kernel_launches for it in iterations),
        "eval.wirelength": last.metrics.wirelength,
        "eval.vias": last.metrics.n_vias,
        "eval.shorts": last.metrics.shorts,
        "gpu.launches": total(lambda r: r.device_stats["n_launches"]),
        "gpu.elements": total(lambda r: r.device_stats["total_elements"]),
        "gpu.bytes_to_device": total(lambda r: r.device_stats["bytes_to_device"]),
        "gpu.bytes_to_host": total(lambda r: r.device_stats["bytes_to_host"]),
        "gpu.modelled_speedup": last.device_stats["simulated_speedup"],
        "session.base_s": record.call_s[0] if record.session else 0.0,
        "session.eco_median_s": median(eco_s) if eco_s else 0.0,
        "session.eco_max_s": max(eco_s, default=0.0),
        "session.cache_hits": hits,
        "session.cache_misses": misses,
        "session.reuse_fraction": hits / (hits + misses) if hits + misses else 0.0,
        "session.steiner_hits": stats.get("steiner_cache", {}).get("hits", 0),
    }


def group_b(
    record: RunRecord, totals: Dict[str, LayerTotals], untraced_route_s: float
) -> Dict[str, float]:
    """Per-layer self times of one traced repeat.

    ``*_s`` figures are self time summed over every thread; for spans
    that run on executor threads (``maze.*``, ``grid.*`` under per-net
    dispatch) that is thread-busy time, not wall time.
    """
    zero = LayerTotals(0, 0.0, 0.0)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, zero)

    run, task = layer("sched.run"), layer("sched.task")
    return {
        "core.rss_delta_mb": record.rss_delta_mb,
        "netlist.generate_s": layer("netlist.generate").total_s,
        "tree.plan_s": layer("tree.plan").self_s,
        "tree.plan_calls": layer("tree.plan").calls,
        "sched.pattern_plan_s": layer("sched.pattern_plan").self_s,
        "sched.schedule_s": layer("sched.schedule").self_s,
        "sched.schedule_calls": layer("sched.schedule").calls,
        "sched.run_s": run.total_s,
        "sched.dispatch_s": run.self_s,
        "sched.task_busy_s": task.total_s,
        "sched.busy_over_wall": task.total_s / run.total_s if run.total_s else 0.0,
        "grid.rebuild_s": layer("grid.rebuild").self_s,
        "grid.rebuild_calls": layer("grid.rebuild").calls,
        "grid.commit_s": layer("grid.commit").self_s,
        "grid.commits": layer("grid.commit").calls,
        "pattern.route_batch_s": layer("pattern.route_batch").self_s,
        "pattern.kernels_s": layer("pattern.kernels").self_s,
        "pattern.reconstruct_s": layer("pattern.reconstruct").self_s,
        "maze.scan_s": layer("maze.scan").self_s,
        "maze.search_s": layer("maze.search").self_s,
        "maze.search_calls": layer("maze.search").calls,
        "maze.ripup_s": layer("maze.ripup").self_s,
        "eval.measure_s": layer("eval.measure").self_s,
        "session.hash_s": layer("session.hash").self_s,
        "session.hash_calls": layer("session.hash").calls,
        "trace.overhead_frac": record.route_s / untraced_route_s - 1.0,
        "trace.coverage_frac": coverage(totals),
    }
