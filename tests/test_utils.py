"""Tests for utils: timers, union-find, deterministic RNG."""

from __future__ import annotations

import time

import pytest

from repro import metrics
from repro.utils.rng import make_rng
from repro.utils.timing import Tracker
from repro.utils.unionfind import UnionFind


class TestStageTimer:
    """The stage wall clock: two tracker timers, read through
    :func:`repro.metrics.stage_times`."""

    def test_stage_accumulates(self):
        tracker = Tracker()
        for _ in range(2):
            with tracker.get_timer(metrics.PATTERN_STAGE_S).time():
                time.sleep(0.002)
        assert metrics.stage_times(tracker.timers())["pattern"] >= 0.004

    def test_unknown_stage_zero(self):
        assert metrics.stage_times(Tracker().timers()) == {"pattern": 0.0, "maze": 0.0}

    def test_add_and_grand_total(self):
        tracker = Tracker()
        tracker.get_timer(metrics.PATTERN_STAGE_S).add(1.5)
        tracker.get_timer(metrics.MAZE_STAGE_S).add(0.5)
        times = metrics.stage_times(tracker.timers())
        assert times == {"pattern": 1.5, "maze": 0.5}
        assert sum(times.values()) == pytest.approx(2.0)

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            Tracker().get_timer(metrics.PATTERN_STAGE_S).add(-1.0)

    def test_stage_records_on_exception(self):
        tracker = Tracker()
        with pytest.raises(RuntimeError):
            with tracker.get_timer(metrics.MAZE_STAGE_S).time():
                raise RuntimeError
        assert metrics.MAZE_STAGE_S in tracker.timers()


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(range(4))
        assert uf.n_components() == 4
        assert not uf.connected(0, 1)

    def test_union_and_find(self):
        uf = UnionFind(range(4))
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.union(1, 0)  # already merged
        assert uf.n_components() == 3

    def test_transitive(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("a")
        assert len(uf) == 1

    def test_arbitrary_hashables(self):
        uf = UnionFind([(0, 0, 1), (2, 3, 4)])
        uf.union((0, 0, 1), (2, 3, 4))
        assert uf.connected((0, 0, 1), (2, 3, 4))

    def test_contains(self):
        uf = UnionFind(["x"])
        assert "x" in uf
        assert "y" not in uf


class TestRng:
    def test_integer_seed_reproducible(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_string_seed_reproducible(self):
        a = make_rng("18test5").integers(0, 10**9)
        b = make_rng("18test5").integers(0, 10**9)
        assert a == b

    def test_tuple_seed_reproducible(self):
        a = make_rng(("18test5", 0)).integers(0, 10**9)
        b = make_rng(("18test5", 0)).integers(0, 10**9)
        assert a == b

    def test_different_seeds_differ(self):
        streams = {int(make_rng(("x", i)).integers(0, 10**12)) for i in range(20)}
        assert len(streams) == 20


class TestTracker:
    def test_counters_create_on_first_use_and_accumulate(self):
        tracker = Tracker()
        tracker.get_counter("nets").increment()
        tracker.get_counter("nets").increment(4)
        assert tracker.get_counter("nets") is tracker.get_counter("nets")
        assert tracker.counters() == {"nets": 5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Tracker().get_counter("x").increment(-1)

    def test_timer_accumulates_and_rejects_negative(self):
        tracker = Tracker()
        with tracker.get_timer("search").time():
            pass
        tracker.get_timer("search").add(0.5)
        assert tracker.timers()["search"] >= 0.5
        with pytest.raises(ValueError, match="negative"):
            tracker.get_timer("search").add(-0.1)

    def test_snapshot_delta_slices_monotone_totals(self):
        tracker = Tracker()
        tracker.get_counter("a").increment(3)
        tracker.get_timer("t").add(1.0)
        before = tracker.snapshot()
        tracker.get_counter("a").increment(2)
        tracker.get_counter("b").increment(7)
        tracker.get_timer("t").add(0.25)
        counters, timers = tracker.delta(before)
        assert counters["a"] == 2
        assert counters["b"] == 7
        assert timers["t"] == pytest.approx(0.25)

    def test_threaded_increments_do_not_lose_counts(self):
        import threading

        tracker = Tracker()
        counter = tracker.get_counter("hits")

        def work():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
