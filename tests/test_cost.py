"""Tests for repro.grid.cost: the cost model and prefix-sum queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.grid.route import step_layout


class TestCostModel:
    def test_congestion_increases_with_demand(self):
        model = CostModel()
        capacity = np.full(10, 4.0)
        demand = np.arange(10, dtype=float)
        cost = model.congestion(demand, capacity)
        assert np.all(np.diff(cost) > 0)

    def test_congestion_small_when_empty(self):
        model = CostModel()
        low = model.congestion(np.array([0.0]), np.array([8.0]))[0]
        assert low < 0.1 * model.congestion_slope

    def test_overflow_term_linear_beyond_capacity(self):
        model = CostModel()
        c4 = model.congestion(np.array([6.0]), np.array([4.0]))[0]
        c5 = model.congestion(np.array([7.0]), np.array([4.0]))[0]
        # The saturating logistic tail adds a little; the marginal cost of
        # one more overflow is dominated by overflow_weight.
        assert c5 - c4 == pytest.approx(model.overflow_weight, abs=0.5)

    def test_no_overflow_on_saturated_exponent(self):
        model = CostModel()
        # Huge demand must not overflow exp().
        cost = model.congestion(np.array([1e6]), np.array([1.0]))
        assert np.isfinite(cost).all()

    def test_wire_edge_costs_shape(self, grid):
        model = CostModel()
        assert model.wire_edge_costs(grid, 0).shape == grid.wire_demand[0].shape
        assert model.via_edge_costs(grid).shape == grid.via_demand.shape

    def test_zero_capacity_edges_expensive(self, grid):
        model = CostModel()
        grid.wire_capacity[0][:] = 0.0
        blocked = model.wire_edge_costs(grid, 0)
        grid.wire_capacity[0][:] = 4.0
        free = model.wire_edge_costs(grid, 0)
        assert np.all(blocked > free)


class TestScalarQueries:
    def test_degenerate_segment_is_free(self, query):
        assert query.wire_segment_cost(0, 3, 3, 3, 3) == 0.0

    def test_direction_mismatch_is_inf(self, query):
        assert query.wire_segment_cost(0, 2, 5, 7, 5) == float("inf")
        assert query.wire_segment_cost(1, 3, 2, 3, 6) == float("inf")

    def test_segment_cost_matches_edge_sum(self, grid):
        model = CostModel()
        query = CostQuery(grid, model)
        edges = model.wire_edge_costs(grid, 1)
        expected = float(np.sum(edges[2:7, 5]))
        assert query.wire_segment_cost(1, 2, 5, 7, 5) == pytest.approx(expected)

    def test_segment_cost_reversed_same(self, query):
        a = query.wire_segment_cost(1, 2, 5, 7, 5)
        b = query.wire_segment_cost(1, 7, 5, 2, 5)
        assert a == b

    def test_via_stack_cost_matches_edge_sum(self, grid):
        model = CostModel()
        query = CostQuery(grid, model)
        vias = model.via_edge_costs(grid)
        expected = float(np.sum(vias[1:4, 3, 3]))
        assert query.via_stack_cost(3, 3, 1, 4) == pytest.approx(expected)

    def test_via_stack_zero_height(self, query):
        assert query.via_stack_cost(3, 3, 2, 2) == 0.0

    def test_rebuild_sees_new_demand(self, grid):
        query = CostQuery(grid, CostModel())
        before = query.wire_segment_cost(1, 2, 5, 7, 5)
        for _ in range(5):
            grid.add_wire_demand(1, 2, 5, 7, 5)
        stale = query.wire_segment_cost(1, 2, 5, 7, 5)
        assert stale == before  # snapshot semantics
        query.rebuild()
        assert query.wire_segment_cost(1, 2, 5, 7, 5) > before


class TestBatchedQueries:
    def test_batch_matches_scalar(self, query):
        segments = [
            (2, 5, 7, 5),
            (3, 2, 3, 6),
            (0, 0, 0, 0),
            (7, 5, 2, 5),
            (11, 0, 11, 9),
        ]
        x1, y1, x2, y2 = (np.array(v) for v in zip(*segments))
        batch = query.segment_cost_layers(x1, y1, x2, y2)
        for row, (a, b, c, d) in enumerate(segments):
            for layer in range(query.n_layers):
                assert batch[row, layer] == pytest.approx(
                    query.wire_segment_cost(layer, a, b, c, d)
                ), (row, layer)

    def test_batch_rejects_diagonal(self, query):
        with pytest.raises(ValueError):
            query.segment_cost_layers(
                np.array([0]), np.array([0]), np.array([3]), np.array([3])
            )

    def test_batch_rejects_mismatched_shapes(self, query):
        with pytest.raises(ValueError):
            query.segment_cost_layers(
                np.array([0, 1]), np.array([0]), np.array([3]), np.array([0])
            )

    def test_degenerate_rows_zero_on_all_layers(self, query):
        out = query.segment_cost_layers(
            np.array([4]), np.array([4]), np.array([4]), np.array([4])
        )
        assert np.all(out == 0.0)

    def test_via_prefix_matches_scalar(self, query):
        prefix = query.via_prefix_at(np.array([3, 7]), np.array([2, 8]))
        for row, (x, y) in enumerate([(3, 2), (7, 8)]):
            for layer in range(query.n_layers):
                assert prefix[row, layer] == pytest.approx(
                    query.via_stack_cost(x, y, 0, layer)
                )

    def test_via_matrix_symmetric_zero_diag(self, query):
        mat = query.via_matrix(np.array([5]), np.array([5]))[0]
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    def test_via_matrix_matches_scalar(self, query):
        mat = query.via_matrix(np.array([4]), np.array([6]))[0]
        for i in range(query.n_layers):
            for j in range(query.n_layers):
                assert mat[i, j] == pytest.approx(
                    query.via_stack_cost(4, 6, min(i, j), max(i, j))
                )


@settings(max_examples=30, deadline=None)
@given(
    x1=st.integers(0, 11),
    y=st.integers(0, 9),
    x2=st.integers(0, 11),
    layer=st.sampled_from([1, 3]),
    demand_seed=st.integers(0, 1000),
)
def test_prefix_sums_match_bruteforce_random_demand(x1, y, x2, layer, demand_seed):
    """Property: segment cost == direct edge-cost sum under random demand."""
    rng = np.random.default_rng(demand_seed)
    grid = GridGraph(12, 10, LayerStack(5), wire_capacity=4.0)
    for lay in range(grid.n_layers):
        grid.wire_demand[lay][:] = rng.integers(0, 7, grid.wire_demand[lay].shape)
    model = CostModel()
    query = CostQuery(grid, model)
    edges = model.wire_edge_costs(grid, layer)
    lo, hi = sorted((x1, x2))
    expected = float(np.sum(edges[lo:hi, y]))
    assert query.wire_segment_cost(layer, x1, y, x2, y) == pytest.approx(expected)


class TestHostDeviceAliasing:
    def test_numpy_backend_skips_roundtrip(self, grid):
        """device_is_host backends alias device prefixes as host twins."""
        from repro.backend import get_backend

        query = CostQuery(grid, CostModel(), backend=get_backend("numpy"))
        assert query.backend.device_is_host
        assert query._h_prefix is query._h_prefix_dev
        assert query._v_prefix is query._v_prefix_dev
        assert query._via_prefix is query._via_prefix_dev

    def test_python_backend_still_converts(self, grid):
        from repro.backend import get_backend

        query = CostQuery(grid, CostModel(), backend=get_backend("python"))
        assert not query.backend.device_is_host
        assert isinstance(query._h_prefix, np.ndarray)
        assert query._h_prefix is not query._h_prefix_dev


def overflowed_graph(n_layers: int, seed: int) -> GridGraph:
    """A 9x7 grid with seeded random demand, a good share of it over
    capacity (capacity 3 wire / 2 via, demand up to 6 / 4)."""
    graph = GridGraph(9, 7, LayerStack(n_layers), wire_capacity=3.0, via_capacity=2.0)
    rng = np.random.default_rng(seed)
    for demand in graph.wire_demand:
        demand[...] = rng.integers(0, 7, demand.shape)
    graph.via_demand[...] = rng.integers(0, 5, graph.via_demand.shape)
    assert (graph.demand_flat > graph.capacity_flat).any()
    return graph


#: Windows (x0, y0, x1, y1) of the 9x7 grid: interior, each grid edge
#: and corner, one-row / one-column / one-cell, and the whole grid.
WINDOWS = [
    (2, 1, 6, 5), (0, 0, 3, 2), (5, 4, 8, 6), (0, 2, 8, 4), (3, 0, 5, 6),
    (4, 3, 4, 3), (0, 6, 8, 6), (8, 0, 8, 6), (0, 0, 8, 6),
]


def whole_grid_steps(graph, model, region):
    """The ``(3, L, W, H)`` step costs of a window cut out of whole-grid
    edge costs, ``inf`` where the window has no edge."""
    x0, y0, x1, y1 = region
    want = np.full((3, graph.n_layers, x1 - x0 + 1, y1 - y0 + 1), np.inf)
    for layer in range(graph.n_layers):
        cost = model.wire_edge_costs(graph, layer)
        if graph.stack.is_horizontal(layer):
            want[0, layer, :-1] = cost[x0:x1, y0 : y1 + 1]
        else:
            want[1, layer, :, :-1] = cost[x0 : x1 + 1, y0:y1]
    want[2, :-1] = model.via_edge_costs(graph)[:, x0 : x1 + 1, y0 : y1 + 1]
    return want


@pytest.mark.parametrize("n_layers", [2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestWindowCosts:
    """What both maze engines search on: a window priced from demand is
    bit-equal to the same edges of a whole-grid pricing."""

    def test_bit_equal_to_whole_grid_slices(self, n_layers, seed):
        graph = overflowed_graph(n_layers, seed)
        model = CostModel()
        full = CostQuery(graph, model)
        for region in WINDOWS:
            x0, y0, x1, y1 = region
            steps = model.window_steps(graph, region)
            want = whole_grid_steps(graph, model, region)
            # inf exactly where the window has no edge; every other
            # entry the bits of the whole-grid edge.
            assert steps.shape == want.shape
            assert np.array_equal(np.isinf(steps), np.isinf(want)), region
            assert np.array_equal(steps, want), region
            # The snapshot's tables hold the same bits.
            for layer in range(n_layers):
                cost = full.wire_cost[layer]
                if graph.stack.is_horizontal(layer):
                    assert np.array_equal(steps[0, layer, :-1], cost[x0:x1, y0 : y1 + 1])
                else:
                    assert np.array_equal(steps[1, layer, :, :-1], cost[x0 : x1 + 1, y0:y1])
            assert np.array_equal(steps[2, :-1], full.via_cost[:, x0 : x1 + 1, y0 : y1 + 1])
            # The planes that have edges are the layout's; every family
            # the layout leaves out is inf throughout.
            kind, layer = step_layout(graph).owner
            planes = model.window_planes(graph, region)
            assert planes.shape == (2 * n_layers - 1,) + want.shape[2:]
            edge = np.isfinite(want[kind, layer])
            assert np.array_equal(planes[edge], want[kind, layer][edge])
            left_out = np.ones(want.shape[:2], dtype=bool)
            left_out[kind, layer] = False
            assert np.isinf(want[left_out]).all()
            # Into a caller's buffer (a strided view): the same bits.
            buffer = np.full((3, n_layers + 1, x1 - x0 + 1, y1 - y0 + 1), -1.0)
            out = model.window_steps(graph, region, out=buffer[:, 1:])
            assert np.shares_memory(out, buffer)
            assert np.array_equal(buffer[:, 1:], want)
            assert (buffer[:, 0] == -1.0).all()

    def test_engine_tables_read_the_window_costs(self, n_layers, seed):
        """Dijkstra's move tables and the wavefront's edge planes hold the
        whole-grid costs of the window's edges, and nothing else."""
        from repro.maze.router import MazeRouter
        from repro.maze.wavefront import WavefrontMazeRouter

        graph = overflowed_graph(n_layers, seed)
        model = CostModel()
        for region in WINDOWS:
            x0, y0, x1, y1 = region
            width, height = x1 - x0 + 1, y1 - y0 + 1
            want = whole_grid_steps(graph, model, region)
            want_x, want_y, want_z = want
            tables = MazeRouter(graph, model)._build_tables(region, [])
            assert (tables.width, tables.height) == (width, height)
            # Forward moves read the steps; the backward move into a node
            # is the forward step out of its neighbour, inf where there is
            # none.
            for (offset, costs), (back, back_costs), forward in zip(
                tables.moves[::2], tables.moves[1::2], want.reshape(3, -1)
            ):
                assert back == -offset
                assert np.array_equal(np.asarray(costs), forward)
                assert np.array_equal(
                    np.asarray(back_costs), np.concatenate(([np.inf] * offset, forward[:-offset]))
                )
            h_edge, v_edge, z_edge, h_layers = WavefrontMazeRouter(graph, model)._region_edges(region)
            # The wavefront pads at index 0 where Dijkstra pads at -1.
            finite = np.isfinite
            assert np.array_equal(h_edge[:, 1:], np.where(finite(want_x), want_x, 0)[:, :-1])
            assert np.array_equal(v_edge[:, :, 1:], np.where(finite(want_y), want_y, 0)[:, :, :-1])
            assert np.array_equal(z_edge[1:], want_z[:-1])
            assert not h_edge[:, 0].any() and not v_edge[:, :, 0].any() and not z_edge[0].any()
            assert np.array_equal(h_layers, graph.horizontal)
