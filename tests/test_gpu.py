"""Tests for the simulated SIMT device and zero-copy arena."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core.config import RouterConfig
from repro.core.selection import make_mode_selector
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.simt import KernelLaunch
from repro.gpu.zerocopy import ZeroCopyArena
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter


class TestKernelLaunch:
    def test_total_threads(self):
        launch = KernelLaunch("lshape", n_blocks=10, threads_per_block=81, elements=810)
        assert launch.total_threads == 810


class TestDevice:
    def test_launch_records(self):
        device = Device()
        device.launch("lshape", 4, 81, 324)
        device.launch("combine", 4, 81, 648)
        assert device.n_launches == 2
        assert device.total_elements == 972

    def test_invalid_launch(self):
        device = Device()
        with pytest.raises(ValueError):
            device.launch("x", 0, 1, 1)
        with pytest.raises(ValueError):
            device.launch("x", 1, 1, -1)

    def test_kernel_time_scales_with_work(self):
        spec = DeviceSpec(parallel_lanes=100, op_time=1e-6, launch_overhead=0.0)
        device = Device(spec)
        t_small = device.launch("k", 1, 1, 100)
        t_large = device.launch("k", 1, 1, 1000)
        assert t_large == pytest.approx(10 * t_small)

    def test_launch_overhead_dominates_tiny_kernels(self):
        spec = DeviceSpec(parallel_lanes=10_000, op_time=1e-9, launch_overhead=1e-3)
        device = Device(spec)
        elapsed = device.launch("k", 1, 1, 10)
        assert elapsed == pytest.approx(1e-3, rel=0.01)

    def test_simulated_speedup_larger_batches_win(self):
        """Bigger launches amortise overhead — the paper's scale trend."""
        small = Device()
        for _ in range(1000):
            small.launch("k", 1, 81, 162)
        big = Device()
        big.launch("k", 1000, 81, 162_000)
        assert big.simulated_speedup() > small.simulated_speedup()

    def test_sequential_time_linear_in_elements(self):
        device = Device()
        device.launch("k", 10, 81, 1000)
        assert device.simulated_sequential_time() == pytest.approx(
            1000 * device.spec.sequential_op_time
        )

    def test_idle_speedup_is_one(self):
        assert Device().simulated_speedup() == 1.0

    def test_per_kernel_elements(self):
        device = Device()
        device.launch("a", 1, 1, 10)
        device.launch("b", 1, 1, 20)
        device.launch("a", 1, 1, 30)
        assert device.per_kernel_elements() == {"a": 40, "b": 20}

    def test_reset(self):
        device = Device()
        device.launch("a", 1, 1, 10)
        device.reset()
        assert device.n_launches == 0


class TestZeroCopy:
    def test_accounting(self):
        arena = ZeroCopyArena()
        arena.send(1000)
        arena.receive(500)
        assert arena.total_bytes == 1500
        assert arena.n_transfers == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ZeroCopyArena().send(-1)

    def test_zero_copy_faster_than_explicit(self):
        arena = ZeroCopyArena(zero_copy=True)
        for _ in range(100):
            arena.send(1 << 20)
        assert arena.saving_vs_explicit_copy() > 0

    def test_explicit_mode_pays_latency(self):
        fast = ZeroCopyArena(zero_copy=True)
        slow = ZeroCopyArena(zero_copy=False)
        for arena in (fast, slow):
            for _ in range(50):
                arena.send(1 << 16)
        assert slow.simulated_transfer_time() > fast.simulated_transfer_time()

    def test_paper_claim_transfer_under_one_second(self):
        """Zero-copy keeps per-design transfer time well under 1 s
        (Sec. IV-E) for realistic cost-array traffic."""
        arena = ZeroCopyArena(zero_copy=True)
        # ~300 batches x ~10 MB of cost arrays.
        for _ in range(300):
            arena.send(10 * (1 << 20))
        assert arena.simulated_transfer_time() < 1.0


class TestOpTally:
    """``InstrumentedBackend.ops``: protocol calls, beside the element tally."""

    def test_counts_every_forwarded_call(self):
        backend = Device().wrap(get_backend("numpy"))
        stacked = backend.asarray(np.arange(12.0).reshape(3, 4))
        first, _second, third = backend.unstack(stacked)
        assert backend.ops == 2 and backend.unattributed_elements == 0
        total = backend.add(first, third)
        assert backend.ops == 3 and backend.unattributed_elements == 4
        assert backend.to_numpy(total).tolist() == [8.0, 10.0, 12.0, 14.0]

    # Ops of one route_batch call on a lone net, (2-pin, 5-pin).
    OP_BUDGET = {"fastgr_l": (91, 157), "fastgr_h": (102, 179)}
    PARENT_OPS = {"fastgr_l": (177, 313), "fastgr_h": (172, 303)}

    @pytest.mark.parametrize("preset", sorted(OP_BUDGET))
    def test_one_net_call_stays_inside_its_op_budget(self, preset):
        """The fixed cost of a ``route_batch`` call, as a count that repeats.

        A one-net call is all fixed cost: a combine and a pattern launch
        per wave, the root combine, the backtrace.  Backend ops per call
        with this change / at its parent (same tally patched in):
        ``fastgr_l`` 91 / 177 (2-pin) and 157 / 313 (5-pin); ``fastgr_h``,
        whose 2-pin net and two of the 5-pin net's edges take the hybrid
        kernel, 102 / 172 and 179 / 303.  The count may fall; wall clock
        on a shared box cannot gate this, the count can.
        """
        nets = (
            Net("two", [Pin(3, 4, 0), Pin(11, 9, 2)]),
            Net("five", [Pin(2, 2, 0), Pin(17, 5, 1), Pin(6, 15, 0),
                         Pin(18, 16, 2), Pin(10, 9, 0)]),
        )
        config = getattr(RouterConfig, preset)()
        for net, budget, parent in zip(nets, self.OP_BUDGET[preset], self.PARENT_OPS[preset]):
            graph = GridGraph(24, 24, LayerStack(9), wire_capacity=4.0)
            router = BatchPatternRouter(
                graph, config.cost_model, edge_shift=config.edge_shift,
                backend=config.backend, cost_engine=config.cost_engine,
            )
            reference = router.query.snapshot_reference()
            before = router.backend.ops
            routes = router.route_batch(
                [net], make_mode_selector(config, graph),
                cost_boxes=[net.bbox], cost_reference=reference,
            )
            ops = router.backend.ops - before
            assert routes[net.name].connects([p.as_node() for p in net.pins])
            assert ops <= budget, (net.name, ops)
            assert budget < 0.6 * parent
