"""Tests for the min-plus kernels against brute-force references.

Every test runs once per registered array backend (the ``xp`` fixture):
the kernels are written once against the :class:`ArrayBackend` protocol,
so the same assertions must hold on the vectorised NumPy substrate and
on the pure-scalar Python one — and on any backend registered later.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend import available_backends, get_backend
from repro.pattern.kernels import (
    combine_children,
    interval_min,
    minplus_two_bend,
    minplus_vec_mat,
    zshape_reduce,
)

finite_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@pytest.fixture(params=available_backends())
def xp(request):
    return get_backend(request.param)


class TestIntervalMin:
    def test_matches_bruteforce(self, xp):
        costs = np.array([[3.0, 1.0, 4.0, 1.0, 5.0]])
        table = xp.to_numpy(interval_min(costs, xp=xp))[0]
        n = costs.shape[1]
        for lo in range(n):
            for hi in range(n):
                if lo > hi:
                    assert table[lo, hi] == np.inf
                else:
                    assert table[lo, hi] == costs[0, lo : hi + 1].min()

    def test_handles_inf_entries(self, xp):
        costs = np.array([[np.inf, 2.0, np.inf]])
        table = xp.to_numpy(interval_min(costs, xp=xp))[0]
        assert table[0, 0] == np.inf
        assert table[0, 1] == 2.0
        assert table[2, 2] == np.inf
        assert table[0, 2] == 2.0

    @given(
        costs=hnp.arrays(
            float, st.tuples(st.integers(1, 4), st.integers(2, 8)),
            elements=finite_floats,
        )
    )
    @settings(
        max_examples=30,
        deadline=None,
        # Backend instances are stateless singletons; reusing one across
        # generated examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_matches_bruteforce(self, xp, costs):
        table = xp.to_numpy(interval_min(costs, xp=xp))
        n = costs.shape[-1]
        for b in range(costs.shape[0]):
            for lo in range(n):
                for hi in range(lo, n):
                    assert table[b, lo, hi] == costs[b, lo : hi + 1].min()


def brute_combine(child_costs_by_node, via_prefix, pin_lo, pin_hi):
    """Scalar reference for combine_children."""
    n_nodes, n_layers = via_prefix.shape
    combine = np.full((n_nodes, n_layers), np.inf)
    lo_choice = np.zeros((n_nodes, n_layers), dtype=int)
    hi_choice = np.zeros((n_nodes, n_layers), dtype=int)
    for b in range(n_nodes):
        for ls in range(n_layers):
            need_lo = min(ls, pin_lo[b])
            need_hi = max(ls, pin_hi[b])
            for lo in range(need_lo + 1):
                for hi in range(need_hi, n_layers):
                    cost = via_prefix[b, hi] - via_prefix[b, lo]
                    for vec in child_costs_by_node[b]:
                        m = vec[lo : hi + 1].min()
                        cost += m if np.isfinite(m) else 1e18
                    if cost < combine[b, ls]:
                        combine[b, ls] = cost
                        lo_choice[b, ls] = lo
                        hi_choice[b, ls] = hi
    return combine, lo_choice, hi_choice


class TestCombineChildren:
    def _pack(self, child_costs_by_node):
        rows, index = [], []
        for b, vectors in enumerate(child_costs_by_node):
            for vec in vectors:
                rows.append(vec)
                index.append(b)
        n_layers = len(child_costs_by_node[0][0]) if rows else 4
        stacked = np.array(rows) if rows else np.zeros((0, n_layers))
        return stacked, np.array(index, dtype=int)

    def _run(self, xp, *args):
        combine, lo, hi = combine_children(*args, xp=xp)
        return xp.to_numpy(combine), xp.to_numpy(lo), xp.to_numpy(hi)

    def test_leaf_node_with_pin(self, xp):
        """A leaf with one pin on layer 0: cost = via stack 0..ls."""
        via_prefix = np.array([[0.0, 2.0, 4.0, 6.0]])
        combine, lo, hi = self._run(
            xp, np.zeros((0, 4)), np.zeros(0, dtype=int), 1, via_prefix,
            np.array([0]), np.array([0]),
        )
        assert np.allclose(combine[0], [0.0, 2.0, 4.0, 6.0])
        assert np.all(lo[0] == 0)
        assert np.array_equal(hi[0], [0, 1, 2, 3])

    def test_node_without_pins(self, xp):
        """No pins: interval only needs to contain ls and the children."""
        via_prefix = np.array([[0.0, 1.0, 2.0, 3.0]])
        child = np.array([[5.0, 0.0, 5.0, 5.0]])
        combine, _lo, _hi = self._run(
            xp, child, np.array([0]), 1, via_prefix, np.array([4]), np.array([-1])
        )
        # ls=1: stack [1,1], child at layer 1 -> cost 0.
        assert combine[0, 1] == 0.0
        # ls=0: stack [0,1] costs 1 + child 0.
        assert combine[0, 0] == 1.0

    def test_matches_bruteforce_random(self, xp):
        rng = np.random.default_rng(0)
        n_layers = 5
        child_costs_by_node = []
        pin_lo, pin_hi = [], []
        via_rows = []
        for b in range(6):
            n_children = int(rng.integers(0, 4))
            vectors = []
            for _ in range(n_children):
                vec = rng.uniform(0, 50, n_layers)
                vec[rng.random(n_layers) < 0.2] = np.inf
                vectors.append(vec)
            child_costs_by_node.append(vectors)
            if rng.random() < 0.5:
                lo = int(rng.integers(0, n_layers))
                hi = int(rng.integers(lo, n_layers))
                pin_lo.append(lo)
                pin_hi.append(hi)
            else:
                pin_lo.append(n_layers)
                pin_hi.append(-1)
            via_rows.append(np.cumsum(np.concatenate([[0], rng.uniform(1, 3, n_layers - 1)])))
        via_prefix = np.array(via_rows)
        stacked, index = self._pack(child_costs_by_node)
        combine, lo, hi = self._run(
            xp, stacked, index, 6, via_prefix,
            np.array(pin_lo), np.array(pin_hi),
        )
        ref, ref_lo, ref_hi = brute_combine(
            child_costs_by_node, via_prefix, pin_lo, pin_hi
        )
        assert np.allclose(combine, ref)
        assert np.array_equal(lo, ref_lo)
        assert np.array_equal(hi, ref_hi)

    def test_empty_batch(self, xp):
        combine, _lo, _hi = self._run(
            xp, np.zeros((0, 4)), np.zeros(0, dtype=int), 0,
            np.zeros((0, 4)), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
        )
        assert combine.shape == (0, 4)


class TestMinPlus:
    def test_vec_mat_bruteforce(self, xp):
        rng = np.random.default_rng(1)
        w1 = rng.uniform(0, 10, (3, 4))
        mat = rng.uniform(0, 10, (3, 4, 4))
        values, arg = minplus_vec_mat(w1, mat, xp=xp)
        values, arg = xp.to_numpy(values), xp.to_numpy(arg)
        for b in range(3):
            for lt in range(4):
                column = w1[b] + mat[b, :, lt]
                assert values[b, lt] == column.min()
                assert arg[b, lt] == column.argmin()

    def test_vec_mat_with_inf(self, xp):
        w1 = np.array([[np.inf, 1.0]])
        mat = np.array([[[0.0, np.inf], [2.0, 3.0]]])
        values, arg = minplus_vec_mat(w1, mat, xp=xp)
        values, arg = xp.to_numpy(values), xp.to_numpy(arg)
        assert values[0, 0] == 3.0 and arg[0, 0] == 1
        assert values[0, 1] == 4.0 and arg[0, 1] == 1

    def test_two_bend_prefers_first_on_tie(self, xp):
        w1 = np.array([[1.0, 1.0]])
        mat = np.array([[[0.0, 0.0], [0.0, 0.0]]])
        _values, bend, _arg = minplus_two_bend(
            np.stack([w1, w1], 1), np.stack([mat, mat], 1), xp=xp
        )
        assert np.all(xp.to_numpy(bend) == 0)

    def test_two_bend_picks_cheaper(self, xp):
        w1a = np.array([[10.0, 10.0]])
        w1b = np.array([[1.0, 1.0]])
        mat = np.zeros((1, 2, 2))
        values, bend, _arg = minplus_two_bend(
            np.stack([w1a, w1b], 1), np.stack([mat, mat], 1), xp=xp
        )
        assert np.all(xp.to_numpy(bend) == 1)
        assert np.all(xp.to_numpy(values) == 1.0)


class TestZShapeReduce:
    def test_bruteforce_equivalence(self, xp):
        rng = np.random.default_rng(2)
        b, c, n_layers = 2, 3, 4
        w1 = rng.uniform(0, 10, (b, c, n_layers))
        mat2 = rng.uniform(0, 10, (b, c, n_layers, n_layers))
        mat3 = rng.uniform(0, 10, (b, c, n_layers, n_layers))
        valid = np.ones((b, c), dtype=bool)
        valid[1, 2] = False
        values, cand, arg_lb, arg_ls = (
            xp.to_numpy(a) for a in zshape_reduce(w1, mat2, mat3, valid, xp=xp)
        )
        for bb in range(b):
            for lt in range(n_layers):
                best = np.inf
                for cc in range(c):
                    if not valid[bb, cc]:
                        continue
                    for lb in range(n_layers):
                        for ls in range(n_layers):
                            total = w1[bb, cc, ls] + mat2[bb, cc, ls, lb] + mat3[bb, cc, lb, lt]
                            best = min(best, total)
                assert values[bb, lt] == pytest.approx(best)
                # The reported argmins must reconstruct the value.
                cc, lb, ls = cand[bb, lt], arg_lb[bb, lt], arg_ls[bb, lt]
                reconstructed = (
                    w1[bb, cc, ls] + mat2[bb, cc, ls, lb] + mat3[bb, cc, lb, lt]
                )
                assert reconstructed == pytest.approx(best)

    def test_invalid_candidates_never_win(self, xp):
        w1 = np.zeros((1, 2, 2))
        mat2 = np.zeros((1, 2, 2, 2))
        mat3 = np.zeros((1, 2, 2, 2))
        w1[0, 1] = 100.0  # candidate 1 is worse...
        valid = np.array([[False, True]])  # ...but candidate 0 is padding
        values, cand, _lb, _ls = zshape_reduce(w1, mat2, mat3, valid, xp=xp)
        assert np.all(xp.to_numpy(cand) == 1)
        assert np.all(xp.to_numpy(values) == 100.0)


class TestCrossBackendBitIdentity:
    """numpy and python must agree bit for bit on randomized inputs."""

    def _pair(self):
        return get_backend("numpy"), get_backend("python")

    def test_zshape_reduce_identical(self):
        rng = np.random.default_rng(11)
        a, p = self._pair()
        w1 = rng.uniform(0, 10, (3, 4, 5))
        w1[rng.random(w1.shape) < 0.15] = np.inf
        mat2 = rng.uniform(0, 10, (3, 4, 5, 5))
        mat2[rng.random(mat2.shape) < 0.15] = np.inf
        mat3 = rng.uniform(0, 10, (3, 4, 5, 5))
        valid = rng.random((3, 4)) < 0.8
        valid[:, 0] = True
        out_a = zshape_reduce(w1, mat2, mat3, valid, xp=a)
        out_p = zshape_reduce(w1, mat2, mat3, valid, xp=p)
        for arr_a, arr_p in zip(out_a, out_p):
            assert np.array_equal(a.to_numpy(arr_a), p.to_numpy(arr_p))

    def test_combine_children_identical(self):
        rng = np.random.default_rng(12)
        a, p = self._pair()
        n_nodes, n_layers, n_children = 5, 6, 9
        child = rng.uniform(0, 40, (n_children, n_layers))
        child[rng.random(child.shape) < 0.2] = np.inf
        index = np.sort(rng.integers(0, n_nodes, n_children))
        via = np.cumsum(rng.uniform(0.5, 2.0, (n_nodes, n_layers)), axis=1)
        pin_lo = rng.integers(0, n_layers, n_nodes)
        pin_hi = np.minimum(pin_lo + rng.integers(0, 2, n_nodes), n_layers - 1)
        out_a = combine_children(child, index, n_nodes, via, pin_lo, pin_hi, xp=a)
        out_p = combine_children(child, index, n_nodes, via, pin_lo, pin_hi, xp=p)
        for arr_a, arr_p in zip(out_a, out_p):
            assert np.array_equal(a.to_numpy(arr_a), p.to_numpy(arr_p))

    def test_two_bend_identical_with_ties(self):
        rng = np.random.default_rng(13)
        a, p = self._pair()
        # Quantized values force frequent ties; both backends must break
        # them identically (first minimum).
        w1a = rng.integers(0, 3, (6, 5)).astype(float)
        w1b = rng.integers(0, 3, (6, 5)).astype(float)
        mata = rng.integers(0, 3, (6, 5, 5)).astype(float)
        matb = rng.integers(0, 3, (6, 5, 5)).astype(float)
        w1, mat = np.stack([w1a, w1b], 1), np.stack([mata, matb], 1)
        out_a = minplus_two_bend(w1, mat, xp=a)
        out_p = minplus_two_bend(w1, mat, xp=p)
        for arr_a, arr_p in zip(out_a, out_p):
            assert np.array_equal(a.to_numpy(arr_a), p.to_numpy(arr_p))
