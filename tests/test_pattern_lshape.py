"""Tests for L-shape pattern routing (wave kernel + backtracking)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.commit import reconstruct_route
from repro.pattern.lshape import lshape_bends, route_lshape_wave
from repro.pattern.twopin import PatternMode, constant_mode
from tests.conftest import wave_ends as ends

L_MODE = constant_mode(PatternMode.LSHAPE)


class TestBends:
    def test_two_bends(self):
        bends = lshape_bends(ends(((2, 3), (7, 9))))
        assert np.array_equal(bends, [[[7], [3]], [[2], [9]]])

    def test_straight_net_bends_degenerate(self):
        b1, b2 = lshape_bends(ends(((2, 3), (2, 9))))
        assert np.array_equal(b1, [[2], [3]]) and np.array_equal(b2, [[2], [9]])


class TestWaveKernel:
    def _query(self):
        grid = GridGraph(12, 12, LayerStack(5), wire_capacity=4.0)
        return CostQuery(grid, CostModel())

    def test_empty_wave(self):
        query = self._query()
        values, path = route_lshape_wave(ends(), np.zeros((0, 5)), query)
        assert values.shape == (0, 5)
        assert path.shape == (0, 5, 6)

    def test_values_finite_on_reachable_layers(self):
        query = self._query()
        combine = np.zeros((1, 5))
        values, _b = route_lshape_wave(ends(((2, 3), (7, 9))), combine, query)
        # Every target layer is reachable (vias at the bend).
        assert np.all(np.isfinite(values))

    def test_costs_reflect_distance(self):
        query = self._query()
        combine = np.zeros((2, 5))
        wave = ends(((2, 3), (3, 3)), ((2, 3), (9, 9)))
        values, _b = route_lshape_wave(wave, combine, query)
        assert values[1].min() > values[0].min()

    def test_degenerate_task_costs_via_only(self):
        query = self._query()
        combine = np.zeros((1, 5))
        values, _b = route_lshape_wave(ends(((4, 4), (4, 4))), combine, query)
        # Arriving on layer l costs a via stack from the best ls (=l).
        assert values[0].min() == 0.0

    def test_combine_offsets_shift_results(self):
        query = self._query()
        flat = np.zeros((1, 5))
        bumped = np.full((1, 5), 10.0)
        v_flat, _b = route_lshape_wave(ends(((2, 3), (7, 9))), flat, query)
        v_bumped, _b2 = route_lshape_wave(ends(((2, 3), (7, 9))), bumped, query)
        assert np.allclose(v_bumped, v_flat + 10.0)

    def test_congestion_steers_bend_choice(self):
        grid = GridGraph(12, 12, LayerStack(5), wire_capacity=2.0)
        # Saturate the horizontal-first corridor of bend 0 on all H layers.
        for layer in (1, 3):
            for _ in range(8):
                grid.add_wire_demand(layer, 2, 3, 9, 3)
        query = CostQuery(grid, CostModel())
        values, path = route_lshape_wave(
            ends(((2, 3), (9, 9))), np.zeros((1, 5)), query
        )
        best_lt = int(np.argmin(values[0]))
        # Vertical first: both bend points are (xs, yt), middle layer on lt.
        assert path[0, best_lt, 1:].tolist() == [best_lt, 2, 9, 2, 9]


class TestEndToEnd:
    def _route(self, net, grid=None):
        grid = grid or GridGraph(12, 12, LayerStack(5), wire_capacity=4.0)
        router = BatchPatternRouter(grid, edge_shift=False)
        job = router.make_job(net)
        router.route_jobs([job], L_MODE)
        return reconstruct_route(job), job

    def test_two_pin_connectivity(self):
        net = Net("n", [Pin(2, 3, 0), Pin(7, 9, 1)])
        route, _job = self._route(net)
        assert route.connects([(2, 3, 0), (7, 9, 1)])

    def test_route_has_at_most_one_bend_per_edge(self):
        net = Net("n", [Pin(2, 3, 0), Pin(7, 9, 0)])
        route, _job = self._route(net)
        # L-shape for one two-pin net: at most 2 wire segments.
        assert len(route.wires) <= 2

    def test_straight_net(self):
        net = Net("n", [Pin(2, 3, 0), Pin(2, 9, 0)])
        route, _job = self._route(net)
        assert route.connects([(2, 3, 0), (2, 9, 0)])
        assert route.wirelength == 6

    def test_same_cell_different_layers(self):
        net = Net("n", [Pin(4, 4, 0), Pin(4, 4, 3)])
        route, _job = self._route(net)
        assert route.connects([(4, 4, 0), (4, 4, 3)])
        assert route.wirelength == 0
        assert route.n_vias == 3

    def test_multipin_connectivity(self):
        net = Net(
            "n",
            [Pin(1, 1, 0), Pin(9, 2, 1), Pin(4, 8, 0), Pin(10, 8, 2), Pin(6, 4, 0)],
        )
        route, _job = self._route(net)
        assert route.connects([p.as_node() for p in net.pins])

    def test_total_cost_recorded(self):
        net = Net("n", [Pin(2, 3, 0), Pin(7, 9, 1)])
        _route, job = self._route(net)
        assert np.isfinite(job.total_cost) and job.total_cost > 0

    def test_wirelength_at_least_hpwl(self):
        net = Net("n", [Pin(2, 3, 0), Pin(7, 9, 1)])
        route, _job = self._route(net)
        assert route.wirelength >= net.hpwl

    def test_wires_respect_preferred_direction(self):
        grid = GridGraph(12, 12, LayerStack(5), wire_capacity=4.0)
        net = Net("n", [Pin(1, 1, 0), Pin(9, 2, 1), Pin(4, 8, 0)])
        route, _job = self._route(net, grid)
        for wire in route.wires:
            assert wire.is_horizontal == grid.stack.is_horizontal(wire.layer)
