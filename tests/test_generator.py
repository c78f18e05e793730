"""Tests for the synthetic design generator and benchmark registry."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.netlist.benchmarks import BENCHMARKS, benchmark_names, load_benchmark
from repro.netlist.generator import DesignSpec, generate_design


def small_spec(**overrides) -> DesignSpec:
    base = dict(name="gen-test", nx=20, ny=20, n_layers=5, n_nets=40, seed=3)
    base.update(overrides)
    return DesignSpec(**base)


class TestGenerator:
    def test_deterministic_across_calls(self):
        a = generate_design(small_spec())
        b = generate_design(small_spec())
        for net_a, net_b in zip(a.netlist, b.netlist):
            assert net_a.pins == net_b.pins
        for layer in range(a.n_layers):
            assert np.array_equal(
                a.graph.wire_capacity[layer], b.graph.wire_capacity[layer]
            )

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                dict(name="open3k", nx=72, ny=72, n_layers=9, n_nets=3000,
                     wire_capacity=9.0, hotspot_fraction=0.2),
                "3e01e6d4b63a2f5ad2b6154936bbdef4ff8917d1437a4afe3676053511822cce",
            ),
            (
                dict(name="cong900", nx=51, ny=51, n_layers=5, n_nets=910,
                     wire_capacity=3.9),
                "93ce39c548b97e6bd176b087c7ba0ca5179ee0a104fa2c2186499531e1fbadf4",
            ),
            (
                dict(name="eco1500", nx=68, ny=68, n_layers=6, n_nets=1500,
                     wire_capacity=7.0, hotspot_fraction=0.25),
                "58f7f71c655cb20957b8814eaef447a22aa33dced6339f737e6d39bc483e68b9",
            ),
        ],
        ids=lambda v: v["name"] if isinstance(v, dict) else "",
    )
    def test_e2e_base_designs_keep_their_pins(self, spec, digest):
        """The three base specs of ``benchmarks/e2e/workloads.py``, pin for
        pin: sha256 over ``(name, pins)`` recorded before the generator's
        pin loop dropped its scalar ``np.clip`` calls."""
        design = generate_design(DesignSpec(**spec))
        sha = hashlib.sha256()
        for net in design.netlist:
            sha.update(
                repr((net.name, [(p.x, p.y, p.layer) for p in net.pins])).encode()
            )
        assert sha.hexdigest() == digest
        assert all(type(p.x) is int and type(p.y) is int for p in design.netlist[0].pins)

    def test_seed_changes_design(self):
        a = generate_design(small_spec(seed=1))
        b = generate_design(small_spec(seed=2))
        assert any(x.pins != y.pins for x, y in zip(a.netlist, b.netlist))

    def test_name_changes_design(self):
        a = generate_design(small_spec(name="one"))
        b = generate_design(small_spec(name="two"))
        assert any(x.pins != y.pins for x, y in zip(a.netlist, b.netlist))

    def test_pin_counts_in_range(self):
        design = generate_design(small_spec(n_nets=200))
        for net in design.netlist:
            assert 2 <= net.n_pins <= 12

    def test_all_pins_on_grid_and_stack(self):
        design = generate_design(small_spec(n_nets=200))
        design.validate()  # raises on violation

    def test_pin_layers_limited_to_low_metals(self):
        design = generate_design(small_spec(n_nets=200))
        layers = {pin.layer for net in design.netlist for pin in net.pins}
        assert layers <= {0, 1, 2}

    def test_m1_capacity_zero(self):
        design = generate_design(small_spec())
        assert np.all(design.graph.wire_capacity[0] == 0.0)

    def test_blockages_reduce_capacity(self):
        blocked = generate_design(small_spec(n_blockages=6))
        clean = generate_design(small_spec(n_blockages=0))
        total_blocked = sum(
            float(blocked.graph.wire_capacity[layer].sum()) for layer in range(1, 4)
        )
        total_clean = sum(
            float(clean.graph.wire_capacity[layer].sum()) for layer in range(1, 4)
        )
        assert total_blocked < total_clean

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_layers=1)
        with pytest.raises(ValueError):
            small_spec(nx=2)
        with pytest.raises(ValueError):
            small_spec(local_fraction=1.5)

    def test_metadata_records_spec(self):
        spec = small_spec()
        design = generate_design(spec)
        assert design.metadata["spec"] is spec


class TestBenchmarkRegistry:
    def test_twelve_designs(self):
        assert len(BENCHMARKS) == 12
        assert len(benchmark_names()) == 12

    def test_m_variants_have_five_layers(self):
        for name in benchmark_names():
            spec = BENCHMARKS[name]
            if name.endswith("m"):
                assert spec.n_layers == 5
            else:
                assert spec.n_layers == 9

    def test_m_variant_same_nets_and_grid(self):
        base = BENCHMARKS["18test5"]
        variant = BENCHMARKS["18test5m"]
        assert variant.n_nets == base.n_nets
        assert (variant.nx, variant.ny) == (base.nx, base.ny)

    def test_relative_sizes_match_contest(self):
        # 19test9 is the largest; 18test5 the smallest (Table III).
        assert BENCHMARKS["19test9"].n_nets > BENCHMARKS["19test8"].n_nets
        assert BENCHMARKS["18test5"].n_nets < BENCHMARKS["18test8"].n_nets

    def test_load_benchmark_scaling(self):
        full = load_benchmark("18test5")
        half = load_benchmark("18test5", scale=0.5)
        assert half.n_nets == pytest.approx(full.n_nets * 0.5, rel=0.05)
        assert half.graph.nx < full.graph.nx

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load_benchmark("not-a-design")

    def test_load_bad_scale_raises(self):
        with pytest.raises(ValueError):
            load_benchmark("18test5", scale=0.0)

    def test_load_benchmark_deterministic(self):
        a = load_benchmark("18test5", scale=0.2)
        b = load_benchmark("18test5", scale=0.2)
        for net_a, net_b in zip(a.netlist, b.netlist):
            assert net_a.pins == net_b.pins

    def test_names_order_table3(self):
        names = benchmark_names(include_m=False)
        assert names == [
            "18test5",
            "18test8",
            "18test10",
            "19test7",
            "19test8",
            "19test9",
        ]
