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
from repro.gpu.zerocopy import ZeroCopyArena
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import BatchState, ModeSelector, NetRoutingJob


class SequentialPatternRouter(BatchPatternRouter):
    """Net-by-net pattern routing on the scalar ``python`` backend."""

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        edge_shift: bool = True,
        device: Optional[Device] = None,
        arena: Optional[ZeroCopyArena] = None,
        max_chunk_elements: int = 150_000,
        backend: Union[str, ArrayBackend] = "python",
        cost_engine: str = "full",
    ) -> None:
        super().__init__(
            graph,
            cost_model=cost_model,
            device=device,
            arena=arena,
            edge_shift=edge_shift,
            max_chunk_elements=max_chunk_elements,
            backend=backend,
            cost_engine=cost_engine,
        )

    def route_jobs(
        self, jobs: List[NetRoutingJob], mode_fn: ModeSelector
    ) -> List[BatchState]:
        """Route one net at a time (no batching): one batch state each."""
        route = super().route_jobs
        return [state for job in jobs for state in route([job], mode_fn)]


__all__ = ["SequentialPatternRouter"]
