"""The simulated GPU device: launch accounting + analytic timing model.

Absolute GPU runtimes are unreproducible without the hardware, so the
device integrates a simple throughput model:

* the device executes ``parallel_lanes`` elementwise operations per
  ``op_time`` seconds (lock-step SIMT, perfectly coalesced — the
  kernels' dense min-plus structure is what justifies this);
* every launch additionally pays ``launch_overhead`` seconds;
* the *sequential* reference executes the same elements one at a time
  at ``sequential_op_time`` per element.

The ratio of the two models reproduces the paper's speedup *shape*: the
L-shape kernel (tiny per-net work, huge batches) gains much more than
the hybrid kernel (per-net work grows with ``(M+N)·L³``), and larger
designs gain more (Sec. IV-E).  Wall-clock NumPy-vs-scalar speedups are
measured separately in ``benchmarks/bench_kernel_speedup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.gpu.simt import KernelLaunch


@dataclass(frozen=True)
class DeviceSpec:
    """Throughput parameters of the simulated platform.

    Defaults are loosely calibrated to the paper's platform (RTX 3090 vs
    one Xeon Gold 6226R core): ~10^4 parallel lanes and a ~40x
    per-element advantage of vector units over interpreted scalar code.
    """

    name: str = "sim-rtx3090"
    parallel_lanes: int = 10496  # CUDA cores of an RTX 3090
    op_time: float = 1.0e-9  # seconds per lock-step elementwise step
    launch_overhead: float = 5.0e-6  # seconds per kernel launch
    sequential_op_time: float = 40.0e-9  # scalar CPU seconds per element
    # Host<->device transfer (Sec. IV-E), see metrics.transfer_stats.
    copy_bandwidth: float = 12.0e9  # bytes/s for cudaMemcpy-style copies
    mapped_bandwidth: float = 20.0e9  # bytes/s streaming mapped reads
    per_transfer_latency: float = 10.0e-6  # seconds per explicit copy


@dataclass
class Device:
    """Kernel-launch recorder with integrated timing model."""

    spec: DeviceSpec = field(default_factory=DeviceSpec)
    launches: List[KernelLaunch] = field(default_factory=list)

    def launch(
        self,
        name: str,
        n_blocks: int,
        threads_per_block: int,
        elements: int,
        bytes_to_device: int = 0,
        bytes_to_host: int = 0,
    ) -> float:
        """Record a kernel launch; return its simulated elapsed seconds."""
        if n_blocks <= 0 or elements < 0:
            raise ValueError("launch must have positive blocks and non-negative work")
        if bytes_to_device < 0 or bytes_to_host < 0:
            raise ValueError("launch transfer bytes must be non-negative")
        record = KernelLaunch(
            name, n_blocks, threads_per_block, elements, bytes_to_device, bytes_to_host
        )
        self.launches.append(record)
        return self._kernel_time(record)

    def wrap(self, backend):
        """Decorate ``backend`` so its ops are metered into this device.

        Returns an :class:`~repro.gpu.instrument.InstrumentedBackend`;
        use its ``kernel(...)`` scope to flush op tallies as launches.
        """
        from repro.gpu.instrument import InstrumentedBackend

        return InstrumentedBackend(backend, self)

    def _kernel_time(self, launch: KernelLaunch) -> float:
        lanes = self.spec.parallel_lanes
        steps = -(-launch.elements // lanes)  # ceil division
        return self.spec.launch_overhead + steps * self.spec.op_time

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def n_launches(self) -> int:
        """Total number of kernels launched."""
        return len(self.launches)

    @property
    def total_elements(self) -> int:
        """Total elementwise operations across all launches."""
        return sum(launch.elements for launch in self.launches)

    def simulated_gpu_time(self) -> float:
        """Total simulated device seconds over all launches."""
        return sum(self._kernel_time(launch) for launch in self.launches)

    def simulated_sequential_time(self) -> float:
        """Seconds a scalar CPU would need for the same element count."""
        return self.total_elements * self.spec.sequential_op_time

    def simulated_speedup(self) -> float:
        """Sequential / parallel simulated time (1.0 when idle)."""
        gpu = self.simulated_gpu_time()
        if gpu <= 0:
            return 1.0
        return self.simulated_sequential_time() / gpu

    @property
    def total_bytes_to_device(self) -> int:
        """Host-to-device bytes attributed to kernel scopes."""
        return sum(launch.bytes_to_device for launch in self.launches)

    @property
    def total_bytes_to_host(self) -> int:
        """Device-to-host bytes attributed to kernel scopes."""
        return sum(launch.bytes_to_host for launch in self.launches)

    def per_kernel_elements(self) -> Dict[str, int]:
        """Return element counts grouped by kernel name."""
        counts: Dict[str, int] = {}
        for launch in self.launches:
            counts[launch.name] = counts.get(launch.name, 0) + launch.elements
        return counts

    def reset(self) -> None:
        """Forget all recorded launches."""
        self.launches.clear()


__all__ = ["Device", "DeviceSpec"]
