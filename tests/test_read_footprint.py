"""The pattern stage's masked rebuild paints every line its kernels read.

``route_batch`` plans first and hands the cost engine the read footprint
its kernels declare (``lshape_reads``, ``candidate_reads``, the root
pillars); the engine paints those lines only.  The ``poisoned`` fixture
wraps the incremental engine's masked rebuild: after each one, every
prefix-table cell outside the painted footprint, except the lines'
anchors, is overwritten by a finite sentinel (finite, so a degenerate
``p - p`` read stays 0).  A line the kernels read but the footprint
missed then prices some candidate wrongly, and the run routes
differently from a whole-box run (the from-scratch oracle of
``tests/cost_oracle.py``, which paints every line of every box).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import repro.pattern.batch as batch_module
from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.grid.cost import CostQuery
from repro.netlist.design import Design
from repro.netlist.generator import ECO_PRESETS, DesignSpec, generate_design, perturb_design
from repro.grid.geometry import Point
from repro.netlist.net import Net, Netlist, Pin
from repro.session import DesignHandle, RoutingSession
from repro.tree.steiner import SteinerTree, TreeNode
from tests.cost_oracle import full_rebuild_engine

SENTINEL = 1.0e6

PRESETS = {
    "L": RouterConfig.fastgr_l(),
    "Z": RouterConfig.fastgr_l(pattern_shape="zshape", use_selection=False),
    "H": RouterConfig.fastgr_l(pattern_shape="hybrid", use_selection=False),
    "fastgr_h": RouterConfig.fastgr_h(),
    "cugr": RouterConfig.cugr(),
}


@pytest.fixture
def poisoned(monkeypatch):
    """Poison every masked rebuild outside its footprint; count them."""
    real = CostQuery._masked_incremental
    calls = []

    def masked(self, boxes, reads):
        real(self, boxes, reads)
        plan, prefix, ref_prefix = self._masked_plan, self._prefix_flat, self._ref_prefix
        keep = np.zeros(prefix.size, dtype=bool)
        keep[plan.cells] = True
        # An anchor holds the reference (an earlier rebuild may have
        # poisoned it).
        prefix[plan.anchor] = ref_prefix[plan.anchor]
        keep[plan.anchor] = True
        prefix[~keep] = SENTINEL
        calls.append(reads)

    monkeypatch.setattr(CostQuery, "_masked_incremental", masked)
    return calls


@pytest.fixture
def shifted(monkeypatch):
    """Give the ``plus`` nets a degree-4 Steiner node that edge shifting
    can slide along a row (the tree builder never makes one), and count
    the points edge shifting moves."""
    build, shift = batch_module.build_steiner_tree, batch_module.shift_edges
    moves = []

    def build_tree(net):
        if not net.name.startswith("plus"):
            return build(net)
        nodes = [TreeNode(i, Point(p.x, p.y), (p.layer,)) for i, p in enumerate(net.pins)]
        west, _, south, _ = net.pins
        tree = SteinerTree(nodes + [TreeNode(4, Point(south.x + 1, west.y))])
        for pin in range(4):
            tree.add_edge(4, pin)
        return tree

    monkeypatch.setattr(batch_module, "build_steiner_tree", build_tree)
    monkeypatch.setattr(
        batch_module, "shift_edges", lambda tree, graph: moves.append(shift(tree, graph))
    )
    return moves


def make_design() -> Design:
    """Congested multi-pin nets, ``plus`` nets whose Steiner node slides
    (see ``shifted``) and nets whose pins share one G-cell."""
    base = generate_design(DesignSpec(
        name="footprint", nx=22, ny=22, n_layers=5, n_nets=120,
        wire_capacity=1.5, hotspot_fraction=0.6, seed=13,
    ))
    plus = [  # west, east, south, north: x-freedom [x + 4, x + 8] at row y + 5
        Net(f"plus{i}", [Pin(x, y + 5, 0), Pin(x + 12, y + 5, 1),
                         Pin(x + 4, y, 0), Pin(x + 8, y + 9, 2)])
        for i, (x, y) in enumerate([(2, 3), (8, 10), (5, 6)])
    ]
    single = [
        Net(f"cell{i}", [Pin(x, y, 0), Pin(x, y, 3)])
        for i, (x, y) in enumerate([(3, 4), (11, 11), (20, 1)])
    ]
    nets = list(base.netlist) + plus + single
    return Design(base.name, base.graph, Netlist(nets))


def route_pairs(config: RouterConfig):
    """(poisoned incremental run, whole-box run) of the pattern stage."""
    results = []
    for engine in ("incremental", "full"):
        design = make_design()
        with full_rebuild_engine() if engine == "full" else nullcontext():
            results.append(
                GlobalRouter(design, replace(config, n_rrr_iterations=0)).run()
            )
    return results


def assert_same_routes(a, b):
    assert set(a) == set(b)
    for name in a:
        assert (a[name].wires, a[name].vias) == (b[name].wires, b[name].vias), name


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_routes_equal_the_whole_box_run(poisoned, shifted, preset):
    painted, whole = route_pairs(PRESETS[preset])
    assert poisoned and all(reads is not None for reads in poisoned)
    assert sum(shifted) > 0  # Steiner points moved before the footprint was taken
    assert_same_routes(painted.routes, whole.routes)
    cells = [name for name in painted.routes if name.startswith("cell")]
    assert cells and all(painted.routes[name].vias for name in cells)


def test_session_eco_equals_the_whole_box_run(poisoned):
    results = []
    for engine in ("incremental", "full"):
        config = RouterConfig.fastgr_h(n_rrr_iterations=1)
        oracle = full_rebuild_engine() if engine == "full" else nullcontext()
        with oracle, RoutingSession(
            DesignHandle.from_design(make_design()), config
        ) as session:
            session.run()
            delta = perturb_design(session.design, ECO_PRESETS["small"], seed=5)
            results.append(session.eco(delta))
    painted, whole = results
    assert painted.cache_hits > 0 and poisoned
    assert_same_routes(painted.result.routes, whole.result.routes)
