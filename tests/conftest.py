"""Shared fixtures: small deterministic designs and grids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import Direction, LayerStack
from repro.netlist.design import Design
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Netlist, Pin


@pytest.fixture
def stack5() -> LayerStack:
    """A five-layer stack (M1 vertical, as in the contest designs)."""
    return LayerStack(5, Direction.VERTICAL)


@pytest.fixture
def grid(stack5: LayerStack) -> GridGraph:
    """A 12x10 five-layer grid with uniform capacity 4."""
    return GridGraph(12, 10, stack5, wire_capacity=4.0, via_capacity=8.0)


@pytest.fixture
def query(grid: GridGraph) -> CostQuery:
    """A cost snapshot over the empty grid."""
    return CostQuery(grid, CostModel())


@pytest.fixture
def small_design() -> Design:
    """A deterministic 24x24 design with 60 nets, 5 layers."""
    spec = DesignSpec(
        name="unit-small",
        nx=24,
        ny=24,
        n_layers=5,
        n_nets=60,
        wire_capacity=3.0,
        seed=7,
    )
    return generate_design(spec)


@pytest.fixture
def congested_design() -> Design:
    """A deliberately congested design that forces rip-up-and-reroute."""
    spec = DesignSpec(
        name="unit-congested",
        nx=20,
        ny=20,
        n_layers=5,
        n_nets=140,
        wire_capacity=1.5,
        hotspot_fraction=0.6,
        seed=11,
    )
    return generate_design(spec)


def make_net(name: str, pins) -> Net:
    """Helper: build a net from (x, y, layer) tuples."""
    return Net(name, [Pin(*p) for p in pins])


def wave_ends(*nets) -> np.ndarray:
    """Helper: ``(4, B)`` wave coordinates ``xs, ys, xt, yt`` of
    ``((xs, ys), (xt, yt))`` two-pin nets."""
    return np.array([src + dst for src, dst in nets], dtype=int).reshape(-1, 4).T


@pytest.fixture
def two_pin_net() -> Net:
    """A simple two-pin net on M1."""
    return make_net("n2", [(2, 3, 0), (8, 6, 0)])


@pytest.fixture
def multi_pin_net() -> Net:
    """A five-pin net spread over the grid."""
    return make_net(
        "n5", [(1, 1, 0), (9, 2, 1), (4, 8, 0), (10, 8, 2), (6, 4, 0)]
    )


@pytest.fixture
def tiny_netlist(two_pin_net: Net, multi_pin_net: Net) -> Netlist:
    """A two-net netlist."""
    return Netlist([two_pin_net, multi_pin_net])
