"""Sequential pattern routing — the CPU baseline.

This is the algorithm the paper's GPU kernels are measured against
(Table VIII: "9.324x speedup over the sequential algorithm on CPU"):
the same 3-D L/Z/hybrid dynamic programs, evaluated one net at a time
on the pure-scalar ``python`` array backend — every kernel op one
element at a time with plain Python floats.

It is a thin driver over :class:`~repro.pattern.batch.BatchPatternRouter`:
the DP itself lives in the shared kernels, which run unchanged on every
:class:`~repro.backend.ArrayBackend`.  All backend ops are
fixed-association IEEE-754 double add/compare with first-minimum
tie-breaking, so this router and the batched NumPy router must produce
*bit-identical* cost vectors, argmins, and routes — the equivalence
suite asserts exactly that, which is far stronger evidence than the
hand-written scalar DP this module used to carry.

Per-net sequencing is exact, not an approximation: costs are frozen per
batch and jobs are independent under a frozen snapshot, and the INF
masking of padded candidates means batch shapes cannot change winners.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.backend import ArrayBackend
from repro.grid.cost import CostModel
from repro.grid.graph import GridGraph
from repro.gpu.device import Device
from repro.netlist.net import Net
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.plan import NetCells, plan_jobs, plan_level
from repro.pattern.twopin import BatchState, ModeSelector, NetRoutingJob
from repro.utils.timing import Tracker


class SequentialPatternRouter(BatchPatternRouter):
    """Net-by-net pattern routing on the scalar ``python`` backend."""

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        edge_shift: bool = True,
        device: Optional[Device] = None,
        tracker: Optional[Tracker] = None,
        backend: Union[str, ArrayBackend] = "python",
    ) -> None:
        super().__init__(
            graph,
            cost_model=cost_model,
            device=device,
            tracker=tracker,
            edge_shift=edge_shift,
            backend=backend,
        )

    def plan_nets(
        self, nets: List[Net], mode_fn: ModeSelector, cells: Optional[NetCells] = None
    ) -> List[BatchState]:
        """Route one net at a time (no batching): one batch state each."""
        n_layers, ny = self.graph.n_layers, self.graph.ny
        return [
            plan_level(
                [net], mode_fn, n_layers, ny, self.make_job, box,
                None if cells is None else cells.take([box]),
            )
            for box, net in enumerate(nets)
        ]

    def plan_waves(
        self, jobs: List[NetRoutingJob], mode_fn: ModeSelector
    ) -> List[BatchState]:
        """One batch state per planned job."""
        n_layers, ny = self.graph.n_layers, self.graph.ny
        return [plan_jobs([job], mode_fn, n_layers, ny, box) for box, job in enumerate(jobs)]


__all__ = ["SequentialPatternRouter"]
