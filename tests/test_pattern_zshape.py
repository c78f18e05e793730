"""Tests for Z-shape / hybrid-shape pattern routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.commit import reconstruct_route
from repro.pattern.twopin import PatternMode, constant_mode
from repro.pattern.hybrid import hybrid_candidates, route_hybrid_wave
from repro.pattern.zshape import route_candidate_wave, route_zshape_wave, zshape_candidates
from tests.conftest import wave_ends as ends


def candidates(fn, src, dst):
    """The ``(C, 4)`` bend pairs ``fn`` enumerates for one two-pin net."""
    geometry, valid = fn(ends((src, dst)))
    return geometry[0][valid[0]]


class TestCandidates:
    def test_hybrid_count_is_m_plus_n(self):
        # 4 wide x 3 tall bounding box: M=4, N=3 -> 7 candidates.
        cands = candidates(hybrid_candidates, (2, 2), (5, 4))
        assert cands.shape == (7, 4)

    def test_zshape_count_is_m_plus_n_minus_2(self):
        cands = candidates(zshape_candidates, (2, 2), (5, 4))
        assert cands.shape == (5, 4)

    @pytest.mark.parametrize("fn", [zshape_candidates, hybrid_candidates])
    def test_candidates_inside_bounding_box(self, fn):
        cands = candidates(fn, (5, 4), (2, 2))
        assert np.all(cands[:, 0] >= 2) and np.all(cands[:, 0] <= 5)
        assert np.all(cands[:, 1] >= 2) and np.all(cands[:, 1] <= 4)

    @pytest.mark.parametrize("fn", [zshape_candidates, hybrid_candidates])
    def test_hvh_pairs_share_column(self, fn):
        cands = candidates(fn, (2, 2), (5, 4))
        hvh = cands[:4]  # first M rows are the HVH family
        assert np.all(hvh[:, 0] == hvh[:, 2])

    def test_straight_net_candidates(self):
        assert candidates(hybrid_candidates, (2, 2), (2, 6)).shape[0] == 1 + 5
        # Pure Z drops the two VHV extremes: M=1 column + (N-2)=3 rows.
        assert candidates(zshape_candidates, (2, 2), (2, 6)).shape[0] == 1 + 3

    @pytest.mark.parametrize("fn", [zshape_candidates, hybrid_candidates])
    def test_degenerate_net_single_candidate(self, fn):
        cands = candidates(fn, (3, 3), (3, 3))
        assert cands.shape[0] >= 1


class TestWave:
    def _query(self, capacity=4.0):
        grid = GridGraph(14, 14, LayerStack(5), wire_capacity=capacity)
        return grid, CostQuery(grid, CostModel())

    @pytest.mark.parametrize("wave_fn", [route_zshape_wave, route_hybrid_wave])
    def test_empty_wave(self, wave_fn):
        _grid, query = self._query()
        values, path = wave_fn(ends(), np.zeros((0, 5)), query)
        assert values.shape == (0, 5) and path.shape == (0, 5, 6)

    @pytest.mark.parametrize("wave_fn", [route_zshape_wave, route_hybrid_wave])
    def test_z_never_worse_than_l(self, wave_fn):
        """Z and hybrid both explore a superset of the L paths."""
        from repro.pattern.lshape import route_lshape_wave

        _grid, query = self._query()
        combine = np.zeros((1, 5))
        for src, dst in [((2, 2), (9, 9)), ((3, 8), (11, 2)), ((2, 2), (2, 9))]:
            z_vals, _zb = wave_fn(ends((src, dst)), combine, query)
            l_vals, _lb = route_lshape_wave(ends((src, dst)), combine, query)
            assert np.all(z_vals <= l_vals + 1e-9)

    def test_z_beats_l_under_mid_corridor_congestion(self):
        grid, _ = self._query(capacity=2.0)
        # Block both L corridors (the bounding-box edges) on H layers,
        # leaving the middle rows free: a Z detour wins.
        for layer in (1, 3):
            for _ in range(10):
                grid.add_wire_demand(layer, 2, 2, 11, 2)
                grid.add_wire_demand(layer, 2, 9, 11, 9)
        query = CostQuery(grid, CostModel())
        from repro.pattern.lshape import route_lshape_wave

        combine = np.zeros((1, 5))
        z_vals, _zb = route_zshape_wave(ends(((2, 2), (11, 9))), combine, query)
        l_vals, _lb = route_lshape_wave(ends(((2, 2), (11, 9))), combine, query)
        assert z_vals.min() < l_vals.min()

    def test_chunking_equivalence(self):
        """Tiny chunk budget must give identical results."""
        _grid, query = self._query()
        tasks = ends(
            ((1, 1), (10, 5)),
            ((2, 8), (12, 13)),
            ((0, 0), (3, 3)),
            ((5, 5), (5, 11)),
            ((7, 2), (13, 2)),
        )
        combine = np.zeros((5, 5))
        big, _b1 = route_hybrid_wave(tasks, combine, query)
        small, _b2 = route_candidate_wave(
            tasks, combine, query, hybrid_candidates, max_chunk_elements=200
        )
        assert np.allclose(big, small)


class TestEndToEnd:
    def _route(self, net, mode=PatternMode.HYBRID):
        grid = GridGraph(14, 14, LayerStack(5), wire_capacity=4.0)
        router = BatchPatternRouter(grid, edge_shift=False)
        job = router.make_job(net)
        router.route_jobs([job], constant_mode(mode))
        return reconstruct_route(job)

    @pytest.mark.parametrize("mode", [PatternMode.HYBRID, PatternMode.ZSHAPE])
    def test_two_pin_connectivity(self, mode):
        net = Net("n", [Pin(2, 3, 0), Pin(11, 9, 1)])
        route = self._route(net, mode)
        assert route.connects([(2, 3, 0), (11, 9, 1)])

    @pytest.mark.parametrize("mode", [PatternMode.HYBRID, PatternMode.ZSHAPE])
    def test_multipin_connectivity(self, mode):
        net = Net(
            "n",
            [Pin(1, 1, 0), Pin(9, 2, 1), Pin(4, 8, 0), Pin(12, 12, 2)],
        )
        route = self._route(net, mode)
        assert route.connects([p.as_node() for p in net.pins])

    def test_route_at_most_two_bends_per_edge(self):
        net = Net("n", [Pin(2, 3, 0), Pin(11, 9, 0)])
        route = self._route(net)
        assert len(route.wires) <= 3

    def test_straight_net(self):
        net = Net("n", [Pin(2, 3, 0), Pin(2, 10, 0)])
        route = self._route(net)
        assert route.connects([(2, 3, 0), (2, 10, 0)])
        assert route.wirelength == 7
