"""Tests for the selection technique (Sec. IV-D)."""

from __future__ import annotations

import pytest

from repro.core.config import RouterConfig
from repro.core.selection import make_mode_selector, resolve_thresholds
from repro.grid.geometry import Point
from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.pattern.twopin import PatternMode


def graph_100():
    return GridGraph(100, 100, LayerStack(5))


class TestResolveThresholds:
    def test_absolute_thresholds_pass_through(self):
        config = RouterConfig.fastgr_h(t1=8, t2=40)
        assert resolve_thresholds(config, graph_100()) == (8, 40)

    def test_fractional_thresholds_scale_with_grid(self):
        config = RouterConfig.fastgr_h(t1=0.1, t2=0.5)
        assert resolve_thresholds(config, graph_100()) == (10, 50)

    def test_fractional_requires_graph(self):
        config = RouterConfig.fastgr_h(t1=0.1, t2=0.5)
        with pytest.raises(ValueError):
            resolve_thresholds(config, None)

    def test_minimum_of_one(self):
        config = RouterConfig.fastgr_h(t1=0.001, t2=0.002)
        t1, t2 = resolve_thresholds(config, graph_100())
        assert t1 >= 1 and t2 >= 1


class TestModeSelector:
    def test_lshape_config_always_l(self):
        select = make_mode_selector(RouterConfig.fastgr_l(), graph_100())
        assert select(Point(0, 0), Point(50, 50)) is PatternMode.LSHAPE

    def test_hybrid_bands(self):
        config = RouterConfig.fastgr_h(t1=8, t2=40)
        select = make_mode_selector(config, graph_100())
        assert select(Point(0, 0), Point(2, 2)) is PatternMode.LSHAPE  # small
        assert select(Point(0, 0), Point(10, 10)) is PatternMode.HYBRID  # medium
        assert select(Point(0, 0), Point(40, 40)) is PatternMode.LSHAPE  # large

    def test_band_edges_inclusive(self):
        config = RouterConfig.fastgr_h(t1=8, t2=40)
        select = make_mode_selector(config, graph_100())
        assert select(Point(0, 0), Point(8, 0)) is PatternMode.HYBRID
        assert select(Point(0, 0), Point(40, 0)) is PatternMode.HYBRID
        assert select(Point(0, 0), Point(41, 0)) is PatternMode.LSHAPE

    def test_no_selection_all_hybrid(self):
        config = RouterConfig.fastgr_h_no_selection()
        select = make_mode_selector(config, graph_100())
        assert select(Point(0, 0), Point(1, 0)) is PatternMode.HYBRID
        assert select(Point(0, 0), Point(90, 90)) is PatternMode.HYBRID

    def test_zshape_variant(self):
        config = RouterConfig(
            pattern_shape="zshape", use_selection=False, name="z"
        )
        select = make_mode_selector(config, graph_100())
        assert select(Point(0, 0), Point(9, 9)) is PatternMode.ZSHAPE


class TestConfig:
    def test_presets(self):
        assert RouterConfig.cugr().pattern_engine == "sequential"
        assert RouterConfig.cugr().rrr_parallel == "batch"
        assert RouterConfig.fastgr_l().pattern_engine == "batch"
        assert RouterConfig.fastgr_h().pattern_shape == "hybrid"
        assert not RouterConfig.fastgr_h_no_selection().use_selection

    def test_preset_overrides(self):
        config = RouterConfig.fastgr_l(n_rrr_iterations=1, sorting_scheme="area_asc")
        assert config.n_rrr_iterations == 1
        assert config.sorting_scheme == "area_asc"
        with pytest.raises(TypeError):  # unknown overrides raise, they are not ignored
            RouterConfig.fastgr_l(executor="ordered")

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            RouterConfig(pattern_engine="quantum")

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            RouterConfig(pattern_shape="spiral")

    def test_invalid_rrr_strategy(self):
        with pytest.raises(ValueError):
            RouterConfig(rrr_parallel="magic")

    def test_thresholds_order_enforced(self):
        with pytest.raises(ValueError):
            RouterConfig(t1=50, t2=10)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(n_rrr_iterations=-1)
