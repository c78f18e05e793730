"""Kernel microbenchmarks — the Eq. 7 / Eq. 14 computation flows.

Since the backend refactor, the scalar CPU baseline and the batched
kernels are literally the *same code* running on two registered array
backends: ``python`` (pure-scalar, the CUGR-style sequential baseline)
and ``numpy`` (vectorised, the stand-in for the GPU substrate).  The
wall-clock ratio python/numpy is therefore a clean same-code
measurement of what batching the DP buys, per kernel.

The analytic device model adds the paper's massively-parallel view:
both ratios share one numerator — the modelled *sequential scalar
L-shape* time (the CUGR baseline) — so the hybrid kernel's modelled
speedup is smaller than L-shape's (paper: L 9.324x, hybrid 2.070x),
because it evaluates ``(M+N)·L^3`` candidates per two-pin net where
L-shape evaluates ``L^2`` (Sec. IV-E).

Quick mode for CI smoke: lower ``REPRO_BENCH_SCALE`` and
``REPRO_BENCH_NETS`` (e.g. 0.05 / 60) to finish in seconds.  A run
shrunk below the full 0.25 / 400 is stamped ``quick`` and leaves the
committed table alone.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SCALE, fresh_design, register_table

from repro.eval.report import format_table
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import PatternMode, constant_mode

DESIGN = "18test8"
FULL_SCALE, FULL_NETS = 0.25, 400
N_NETS = int(os.environ.get("REPRO_BENCH_NETS", FULL_NETS))
QUICK = BENCH_SCALE < FULL_SCALE or N_NETS < FULL_NETS


def _route_once(engine, nets, mode):
    jobs = [engine.make_job(net) for net in nets]
    start = time.perf_counter()
    engine.route_jobs(jobs, constant_mode(mode))
    return time.perf_counter() - start


def _measure_backend(design, nets, warmup, backend, mode):
    engine = BatchPatternRouter(design.graph, edge_shift=False, backend=backend)
    _route_once(engine, warmup, mode)
    engine.device.reset()
    elapsed = _route_once(engine, nets, mode)
    return elapsed, engine.device


def measure_all():
    design = fresh_design(DESIGN)
    nets = list(design.netlist)[:N_NETS]
    warmup = nets[:16]

    py_l_time, _ = _measure_backend(design, nets, warmup, "python", PatternMode.LSHAPE)
    np_l_time, dev_l = _measure_backend(design, nets, warmup, "numpy", PatternMode.LSHAPE)
    py_h_time, _ = _measure_backend(design, nets, warmup, "python", PatternMode.HYBRID)
    np_h_time, dev_h = _measure_backend(design, nets, warmup, "numpy", PatternMode.HYBRID)

    # Device-model ratios share the same numerator: the modelled scalar
    # time of the L-shape work (the CUGR baseline).
    seq_l_model = dev_l.simulated_sequential_time()
    return {
        "py_l_time": py_l_time,
        "np_l_time": np_l_time,
        "py_h_time": py_h_time,
        "np_h_time": np_h_time,
        "l_speedup": py_l_time / np_l_time if np_l_time else 0.0,
        "h_speedup": py_h_time / np_h_time if np_h_time else 0.0,
        "l_model": seq_l_model / dev_l.simulated_gpu_time(),
        "h_model": seq_l_model / dev_h.simulated_gpu_time(),
        "l_elements": dev_l.total_elements,
        "h_elements": dev_h.total_elements,
    }


def test_kernel_speedups(benchmark):
    stats = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    text = format_table(
        [
            "kernel",
            "python(s)",
            "numpy(s)",
            "wall speedup",
            "device model",
            "elements",
        ],
        [
            [
                "lshape",
                stats["py_l_time"],
                stats["np_l_time"],
                stats["l_speedup"],
                stats["l_model"],
                stats["l_elements"],
            ],
            [
                "hybrid",
                stats["py_h_time"],
                stats["np_h_time"],
                stats["h_speedup"],
                stats["h_model"],
                stats["h_elements"],
            ],
        ],
        title=(
            f"Same-code backend speedups on {DESIGN} "
            f"(scale={BENCH_SCALE}, {N_NETS} nets; device model vs seq-L "
            f"baseline — paper: L 9.324x, hybrid 2.070x)"
        ),
    )
    register_table("kernel_speedup", text, metrics={"quick": float(QUICK)})
    # Shape: the vectorised backend must decisively beat the scalar one
    # on the same kernel code (acceptance floor: 5x on L-shape), and the
    # device model must preserve the paper's ordering — hybrid gains
    # less than L-shape against the shared sequential-L numerator.
    assert stats["l_speedup"] >= 5.0
    assert stats["h_speedup"] > 1.0
    assert stats["l_model"] > stats["h_model"]
    assert stats["h_elements"] > stats["l_elements"]
