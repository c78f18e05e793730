"""Tests for the top-level public API surface."""

from __future__ import annotations

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_types(self):
        assert repro.GlobalRouter is not None
        assert repro.RouterConfig is not None
        assert callable(repro.load_benchmark)
        assert callable(repro.generate_design)
        assert callable(repro.score)


class TestPinnedExports:
    """The scheduler and session packages export only what a run uses;
    test oracles (``tests/sched_oracle.py``, ``tests/cost_oracle.py``)
    stay out.  Widening either list is a deliberate edit here."""

    def test_sched_exports(self):
        import repro.sched

        assert sorted(repro.sched.__all__) == sorted(
            [
                "SORTING_SCHEMES",
                "sort_nets",
                "extract_batches",
                "TaskGraph",
                "build_task_graph",
                "simulate_makespan",
                "simulate_batch_barrier_makespan",
                "ScheduledStage",
                "StageSchedule",
                "StageReport",
                "StageRunner",
                "box_conflicts",
                "modelled_makespans",
            ]
        )

    def test_session_exports(self):
        import repro.session

        assert sorted(repro.session.__all__) == sorted(
            [
                "DesignHandle",
                "RoutingSession",
                "EcoResult",
                "SessionContext",
                "SessionStore",
                "RouteCache",
                "SteinerTreeCache",
                "demand_signature",
                "pattern_net_key",
                "maze_task_key",
            ]
        )


class TestDocumentedQuickstart:
    def test_readme_snippet_runs(self):
        design = repro.load_benchmark("18test5", scale=0.1)
        result = repro.GlobalRouter(design, repro.RouterConfig.fastgr_h()).run()
        assert result.metrics.score > 0
        assert result.pattern_time > 0
        assert result.nets_to_ripup >= 0

    def test_router_docstring_example(self):
        design = repro.load_benchmark("18test5", scale=0.1)
        result = repro.GlobalRouter(design, repro.RouterConfig.fastgr_l()).run()
        assert result.metrics.score > 0


class TestSubpackages:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.grid",
            "repro.netlist",
            "repro.tree",
            "repro.pattern",
            "repro.maze",
            "repro.sched",
            "repro.session",
            "repro.service",
            "repro.gpu",
            "repro.detail",
            "repro.eval",
            "repro.utils",
        ],
    )
    def test_subpackage_imports_and_has_all(self, module):
        import importlib

        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"
