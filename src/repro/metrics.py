"""The one registry of metric names a routing run reports into.

``route_design`` creates one :class:`~repro.utils.timing.Tracker` per
run and hands it to both stages.  Producers name counters and timers
with the constants below, never a string literal (enforced by
``tests/test_metrics_registry.py``); a name the end-to-end benchmark's
per-layer report uses for the same quantity is reused verbatim.  The
functions build the ``RoutingResult`` dicts from the tracker's
``(counters, timers)`` totals, or from a ``Tracker.delta`` slice.
"""

from __future__ import annotations

from typing import Dict

# Stage wall clock (timers).
PATTERN_STAGE_S = "core.pattern_stage_s"
MAZE_STAGE_S = "core.maze_stage_s"
# Cost snapshot: rebuild time, rebuilds by kind, edges refreshed by family.
COST_S = "grid.cost_s"
COST_FULL_REBUILDS = "grid.cost_full_rebuilds"
COST_MASKED_REBUILDS = "grid.cost_masked_rebuilds"
COST_REFRESHED_WIRE_EDGES = "grid.cost_refreshed_wire_edges"
COST_REFRESHED_VIA_EDGES = "grid.cost_refreshed_via_edges"
# Cost-snapshot bytes streamed to the pattern kernels, and their uploads.
COST_UPLOAD_BYTES = "gpu.cost_upload_bytes"
COST_UPLOADS = "gpu.cost_uploads"
# Pattern dispatch: route_batch calls, nets routed through them, launches.
PATTERN_BATCHES = "pattern.batches"
PATTERN_BATCHED_NETS = "pattern.batched_nets"
PATTERN_KERNEL_LAUNCHES = "pattern.kernel_launches"
# Rip-up: search work, stacked dispatch, wavefront launches and bytes.
MAZE_NODES_VISITED = "maze.nodes_visited"
MAZE_BATCHES = "maze.batches"
MAZE_BATCHED_NETS = "maze.batched_nets"
MAZE_KERNEL_LAUNCHES = "maze.kernel_launches"
MAZE_BYTES_TO_DEVICE = "maze.bytes_to_device"
MAZE_BYTES_TO_HOST = "maze.bytes_to_host"


def stage_times(timers: Dict[str, float]) -> Dict[str, float]:
    """``RoutingResult.stage_times``: wall-clock seconds per stage."""
    return {
        "pattern": timers.get(PATTERN_STAGE_S, 0.0),
        "maze": timers.get(MAZE_STAGE_S, 0.0),
    }


def cost_stats(counters: Dict[str, int], timers: Dict[str, float]) -> Dict[str, float]:
    """``RoutingResult.cost_stats``: cost-snapshot maintenance."""
    full = counters.get(COST_FULL_REBUILDS, 0)
    masked = counters.get(COST_MASKED_REBUILDS, 0)
    wire = counters.get(COST_REFRESHED_WIRE_EDGES, 0)
    via = counters.get(COST_REFRESHED_VIA_EDGES, 0)
    return {
        "rebuilds": float(full + masked),
        "full_rebuilds": float(full),
        "masked_rebuilds": float(masked),
        "refreshed_edges": float(wire + via),
        "refreshed_wire_edges": float(wire),
        "refreshed_via_edges": float(via),
        "seconds": timers.get(COST_S, 0.0),
    }


def pattern_stats(counters: Dict[str, int]) -> Dict[str, float]:
    """``RoutingResult.pattern_stats``: pattern dispatch counts."""
    return {
        "batches": float(counters.get(PATTERN_BATCHES, 0)),
        "batched_nets": float(counters.get(PATTERN_BATCHED_NETS, 0)),
        "kernel_launches": float(counters.get(PATTERN_KERNEL_LAUNCHES, 0)),
    }


def transfer_stats(counters: Dict[str, int], spec) -> Dict[str, float]:
    """``RoutingResult.transfer_stats``: the cost uploads under zero-copy.

    Zero-copy (Sec. IV-E) streams mapped host memory at
    ``spec.mapped_bandwidth`` with no bulk copy; ``zero_copy_saving`` is
    what explicit copies (``spec.copy_bandwidth`` plus
    ``spec.per_transfer_latency`` per upload) would cost on top.  Only
    uploads are priced: the bytes kernels move back to the host are
    metered per launch, in ``RoutingResult.device_stats["bytes_to_host"]``.
    """
    n_bytes = counters.get(COST_UPLOAD_BYTES, 0)
    mapped = n_bytes / spec.mapped_bandwidth
    explicit = (
        n_bytes / spec.copy_bandwidth
        + counters.get(COST_UPLOADS, 0) * spec.per_transfer_latency
    )
    return {
        "bytes_to_device": float(n_bytes),
        "transfer_time": mapped,
        "zero_copy_saving": explicit - mapped,
    }
