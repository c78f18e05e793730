"""Tests for the pluggable array-backend layer (repro.backend).

Covers the registry contract, op-level bit-identity between the numpy
and python backends on randomized inputs, CostQuery gather parity, and
the headline acceptance check: the full router produces identical
metrics under every preset regardless of backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.grid.cost import CostModel, CostQuery
from repro.netlist.benchmarks import load_benchmark
from repro.netlist.generator import DesignSpec, generate_design


class TestRegistry:
    def test_builtin_backends_present(self):
        names = available_backends()
        assert "numpy" in names and "python" in names

    def test_get_backend_returns_cached_instance(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("no-such-backend")

    def test_register_custom_backend(self):
        class Renamed(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Renamed)
        try:
            assert "custom-test" in available_backends()
            backend = get_backend("custom-test")
            assert isinstance(backend, ArrayBackend)
            assert backend.to_numpy(backend.arange(3)).tolist() == [0, 1, 2]
        finally:
            # Keep the registry clean for the other tests.
            from repro.backend import registry

            registry._FACTORIES.pop("custom-test", None)
            registry._INSTANCES.pop("custom-test", None)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            RouterConfig.fastgr_l(backend="no-such-backend")


def _random_pair(rng, shape, inf_fraction=0.0):
    a = rng.uniform(-10, 10, shape)
    if inf_fraction:
        a[rng.random(shape) < inf_fraction] = np.inf
    return a


class TestOpParity:
    """Randomized bit-identity of every protocol op, numpy vs python."""

    @pytest.fixture()
    def backends(self):
        return get_backend("numpy"), get_backend("python")

    def test_elementwise_and_broadcast(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(0)
        a = _random_pair(rng, (3, 4, 5), inf_fraction=0.1)
        b = _random_pair(rng, (4, 1), inf_fraction=0.1)
        for op in ("add", "subtract", "minimum", "maximum"):
            out_n = npb.to_numpy(getattr(npb, op)(a, b))
            out_p = pyb.to_numpy(getattr(pyb, op)(a, b))
            assert np.array_equal(out_n, out_p, equal_nan=True), op
        for op in ("less", "less_equal", "greater_equal"):
            out_n = npb.to_numpy(getattr(npb, op)(a, b))
            out_p = pyb.to_numpy(getattr(pyb, op)(a, b))
            assert np.array_equal(out_n, out_p), op
        assert np.array_equal(
            npb.to_numpy(npb.isfinite(a)), pyb.to_numpy(pyb.isfinite(a))
        )
        assert np.array_equal(
            npb.to_numpy(npb.abs(a)), pyb.to_numpy(pyb.abs(a))
        )

    def test_where_and_select(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(1)
        cond = rng.random((3, 4)) < 0.5
        a = _random_pair(rng, (3, 4), inf_fraction=0.2)
        out_n = npb.to_numpy(npb.where(cond, a, np.inf))
        out_p = pyb.to_numpy(pyb.where(cond, a, np.inf))
        assert np.array_equal(out_n, out_p)

    def test_scans_and_reductions_with_ties(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(2)
        # Integer-valued floats produce many ties; argmin must agree.
        a = rng.integers(0, 4, (4, 5, 6)).astype(float)
        for axis in range(3):
            mn, am = npb.min_argmin(a, axis)
            mp, ap = pyb.min_argmin(a, axis)
            assert np.array_equal(npb.to_numpy(mn), pyb.to_numpy(mp)), axis
            assert np.array_equal(npb.to_numpy(am), pyb.to_numpy(ap)), axis
            assert np.array_equal(
                npb.to_numpy(npb.cumsum(a, axis)), pyb.to_numpy(pyb.cumsum(a, axis))
            )
            assert np.array_equal(
                npb.to_numpy(npb.cummin(a, axis)), pyb.to_numpy(pyb.cummin(a, axis))
            )

    def test_scatter_add_repeated_indices(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(3)
        source = rng.uniform(0, 10, (8, 5))
        index = rng.integers(0, 3, 8)
        out_n = npb.zeros((3, 5), "float")
        npb.scatter_add(out_n, npb.asarray(index, "int"), npb.asarray(source))
        out_p = pyb.zeros((3, 5), "float")
        pyb.scatter_add(out_p, pyb.asarray(index, "int"), pyb.asarray(source))
        assert np.array_equal(npb.to_numpy(out_n), pyb.to_numpy(out_p))

    def test_unstack_splits_the_leading_axis(self, backends):
        rng = np.random.default_rng(5)
        a = _random_pair(rng, (3, 2, 4), inf_fraction=0.1)
        for backend in backends:
            pieces = backend.unstack(backend.asarray(a))
            assert len(pieces) == 3
            for piece, want in zip(pieces, a):
                assert backend.shape(piece) == (2, 4)
                assert np.array_equal(backend.to_numpy(piece), want)
            # The pieces are operands like any other array.
            total = backend.add(pieces[0], pieces[2])
            assert np.array_equal(backend.to_numpy(total), a[0] + a[2])

    def test_gathers(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 10, (3, 4, 5))
        idx = rng.integers(0, 4, (3, 5))
        assert np.array_equal(
            npb.to_numpy(npb.select_rows(npb.asarray(a), npb.asarray(idx, "int"))),
            pyb.to_numpy(pyb.select_rows(pyb.asarray(a), pyb.asarray(idx, "int"))),
        )
        i = rng.integers(0, 4, (3, 6))
        j = rng.integers(0, 4, (3, 6))
        b = rng.uniform(0, 10, (3, 4, 4))
        assert np.array_equal(
            npb.to_numpy(
                npb.gather_pairs(
                    npb.asarray(b), npb.asarray(i, "int"), npb.asarray(j, "int")
                )
            ),
            pyb.to_numpy(
                pyb.gather_pairs(
                    pyb.asarray(b), pyb.asarray(i, "int"), pyb.asarray(j, "int")
                )
            ),
        )
        grid = rng.uniform(0, 10, (5, 7, 8))
        x = rng.integers(0, 7, 9)
        y = rng.integers(0, 8, 9)
        assert np.array_equal(
            npb.to_numpy(
                npb.gather_points(
                    npb.asarray(grid), npb.asarray(x, "int"), npb.asarray(y, "int")
                )
            ),
            pyb.to_numpy(
                pyb.gather_points(
                    pyb.asarray(grid), pyb.asarray(x, "int"), pyb.asarray(y, "int")
                )
            ),
        )


class TestCostQueryParity:
    """CostQuery must yield identical costs on every backend."""

    @pytest.fixture()
    def design(self):
        design = generate_design(
            DesignSpec(
                name="cq-parity",
                nx=16,
                ny=16,
                n_layers=5,
                n_nets=30,
                wire_capacity=2.0,
                seed=42,
            )
        )
        rng = np.random.default_rng(7)
        for layer in range(design.n_layers):
            shape = design.graph.wire_demand[layer].shape
            design.graph.wire_demand[layer][:] = rng.integers(0, 5, shape)
        design.graph.via_demand[:] = rng.integers(
            0, 6, design.graph.via_demand.shape
        )
        return design

    def test_segment_and_via_queries_identical(self, design):
        model = CostModel()
        queries = {
            name: CostQuery(design.graph, model, backend=get_backend(name))
            for name in ("numpy", "python")
        }
        rng = np.random.default_rng(8)
        # Axis-aligned segments only: vertical, horizontal, degenerate.
        x1 = rng.integers(0, 16, 20)
        y1 = rng.integers(0, 16, 20)
        x2 = rng.integers(0, 16, 20)
        y2 = rng.integers(0, 16, 20)
        x2[:7] = x1[:7]          # vertical runs
        y2[7:] = y1[7:]          # horizontal runs
        x2[14:] = x1[14:]        # degenerate points
        results = {}
        for name, query in queries.items():
            backend = query.backend
            seg = backend.to_numpy(query.segment_cost_layers(x1, y1, x2, y2))
            via = backend.to_numpy(query.via_matrix(x1, y1))
            prefix = backend.to_numpy(query.via_prefix_at(x2, y2))
            results[name] = (seg, via, prefix)
        for a, b in zip(results["numpy"], results["python"]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_stacked_query_equals_separate_queries(self, design, name):
        """What lets a wave price all its segments in one gather: a query
        of concatenated coordinates is the concatenation of the queries,
        bit for bit, whatever mix of orientations shares the call."""
        query = CostQuery(design.graph, CostModel(), backend=get_backend(name))
        xp = query.backend
        rng = np.random.default_rng(9)
        parts = []
        for kind in ("horizontal", "vertical", "degenerate", "mixed"):
            x1, y1, x2, y2 = rng.integers(0, 16, (4, 6))
            if kind in ("horizontal", "degenerate"):
                y2 = y1.copy()
            if kind in ("vertical", "degenerate"):
                x2 = x1.copy()
            if kind == "mixed":
                x2[:2], y2[2:4], x2[4:], y2[4:] = x1[:2], y1[2:4], x1[4:], y1[4:]
            parts.append((x1, y1, x2, y2))
        stacked = [np.concatenate(c) for c in zip(*parts)]
        seg = xp.to_numpy(query.segment_cost_layers(*stacked))
        via = xp.to_numpy(query.via_matrix(stacked[0], stacked[1]))
        pieces = xp.unstack(xp.reshape(query.segment_cost_layers(*stacked), (4, 6, 5)))
        for i, (x1, y1, x2, y2) in enumerate(parts):
            rows = slice(6 * i, 6 * i + 6)
            alone = xp.to_numpy(query.segment_cost_layers(x1, y1, x2, y2))
            assert np.array_equal(seg[rows], alone)
            assert np.array_equal(xp.to_numpy(pieces[i]), alone)
            assert np.array_equal(via[rows], xp.to_numpy(query.via_matrix(x1, y1)))
        # Degenerate segments cost nothing on every layer; a wire costs
        # infinity on the layers of the other direction and only there.
        assert not seg[12:18].any()
        horizontal = np.array([design.graph.stack.is_horizontal(l) for l in range(5)])
        assert np.isfinite(seg[:6]).all(axis=0).tolist() == horizontal.tolist()


class TestFullRouterBackendIdentity:
    """Acceptance: identical RoutingResult metrics per preset per backend."""

    @pytest.mark.parametrize(
        "preset",
        [RouterConfig.cugr, RouterConfig.fastgr_l, RouterConfig.fastgr_h],
        ids=lambda p: p.__name__,
    )
    def test_metrics_identical_on_18test5(self, preset):
        results = {}
        for backend in ("numpy", "python"):
            design = load_benchmark("18test5", scale=0.04)
            config = preset(backend=backend, n_rrr_iterations=1)
            results[backend] = GlobalRouter(design, config).run()
        a, b = results["numpy"], results["python"]
        assert a.metrics.wirelength == b.metrics.wirelength
        assert a.metrics.n_vias == b.metrics.n_vias
        assert a.metrics.shorts == b.metrics.shorts
        assert a.metrics.score == b.metrics.score


class TestResidencyOps:
    """The ops the device-resident maze path added to the protocol."""

    @pytest.fixture()
    def backends(self):
        return get_backend("numpy"), get_backend("python")

    def test_multiply_equal_logical_or_parity(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(5)
        a = _random_pair(rng, (3, 4, 5), inf_fraction=0.15)
        b = _random_pair(rng, (4, 1), inf_fraction=0.15)
        assert np.array_equal(
            npb.to_numpy(npb.multiply(a, b)),
            pyb.to_numpy(pyb.multiply(a, b)),
            equal_nan=True,
        )
        # IEEE equality: inf == inf is True; broadcast against a copy
        # with a few perturbed entries.
        c = a.copy()
        c[rng.random(c.shape) < 0.3] += 1.0
        assert np.array_equal(
            npb.to_numpy(npb.equal(a, c)), pyb.to_numpy(pyb.equal(a, c))
        )
        ca = rng.random((3, 4)) < 0.5
        cb = rng.random((4,)) < 0.5
        assert np.array_equal(
            npb.to_numpy(npb.logical_or(ca, cb)),
            pyb.to_numpy(pyb.logical_or(ca, cb)),
        )

    def test_nbytes_payload_proxy(self, backends):
        npb, pyb = backends
        a = np.zeros((3, 4, 5))
        assert npb.nbytes(npb.asarray(a)) == a.size * 8
        assert pyb.nbytes(pyb.asarray(a)) == a.size * 8
        flags = np.zeros((2, 3), dtype=bool)
        assert npb.nbytes(npb.asarray(flags, "bool")) == flags.size
        assert pyb.nbytes(pyb.asarray(flags, "bool")) == flags.size

    def test_copyto_in_place_and_shape_check(self, backends):
        npb, pyb = backends
        rng = np.random.default_rng(6)
        a = _random_pair(rng, (3, 4), inf_fraction=0.2)
        dst_n = npb.zeros((3, 4), "float")
        npb.copyto(dst_n, npb.asarray(a))
        dst_p = pyb.zeros((3, 4), "float")
        pyb.copyto(dst_p, pyb.asarray(a))
        assert np.array_equal(
            npb.to_numpy(dst_n), pyb.to_numpy(dst_p), equal_nan=True
        )
        # In place: the destination object is reused, not replaced.
        before_p = dst_p
        pyb.copyto(dst_p, pyb.zeros((3, 4), "float"))
        assert dst_p is before_p
        assert np.array_equal(pyb.to_numpy(dst_p), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="shape"):
            npb.copyto(npb.zeros((2, 2), "float"), npb.asarray(a))
        with pytest.raises(ValueError, match="shape"):
            pyb.copyto(pyb.zeros((2, 2), "float"), pyb.asarray(a))
