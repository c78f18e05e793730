"""Plain-text table rendering for the benchmark harnesses.

Every ``benchmarks/bench_table*.py`` prints its reproduction of a paper
table through :func:`format_table`, so EXPERIMENTS.md can paste the
output verbatim.
"""

from __future__ import annotations

from typing import List, Sequence


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    cells: List[List[str]] = [[_render_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_stage_reports(reports) -> str:
    """Render the pipeline's :class:`~repro.sched.pipeline.StageReport`
    records as one table (pattern stage, then each RRR iteration)."""
    rows = [
        [
            report.stage,
            report.n_tasks,
            report.n_conflicts,
            report.n_batches,
            report.sequential_time,
            report.batch_makespan,
            report.taskgraph_makespan,
            report.scheduler_speedup,
        ]
        for report in reports
    ]
    return format_table(
        [
            "stage",
            "tasks",
            "conflicts",
            "batches",
            "sequential(s)",
            "batch-barrier(s)",
            "task-graph(s)",
            "speedup",
        ],
        rows,
        title="Scheduled-stage pipeline (modelled makespans, Table VIII)",
    )


def format_rrr_iterations(iterations) -> str:
    """Render the per-iteration RRR statistics (engine, search work,
    maze time) from :class:`~repro.core.result.IterationStats` records."""
    rows = [
        [
            it.iteration,
            it.engine,
            it.n_ripped,
            it.n_failed,
            it.nodes_visited,
            it.sequential_time,
            it.makespan,
        ]
        for it in iterations
    ]
    return format_table(
        [
            "iteration",
            "engine",
            "ripped",
            "failed",
            "visited",
            "maze-seq(s)",
            "makespan(s)",
        ],
        rows,
        title="Rip-up-and-reroute iterations",
    )


__all__ = ["format_table", "format_stage_reports", "format_rrr_iterations"]
