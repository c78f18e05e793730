"""Tests for utils: timers, union-find, deterministic RNG."""

from __future__ import annotations

import time

import pytest

from repro.utils.rng import make_rng
from repro.utils.timing import StageTimer
from repro.utils.unionfind import UnionFind


class TestStageTimer:
    def test_stage_accumulates(self):
        timer = StageTimer()
        with timer.stage("a"):
            time.sleep(0.002)
        with timer.stage("a"):
            time.sleep(0.002)
        assert timer.total("a") >= 0.004

    def test_unknown_stage_zero(self):
        assert StageTimer().total("nothing") == 0.0

    def test_add_and_grand_total(self):
        timer = StageTimer()
        timer.add("x", 1.5)
        timer.add("y", 0.5)
        assert timer.grand_total() == pytest.approx(2.0)
        assert timer.totals() == {"x": 1.5, "y": 0.5}

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            StageTimer().add("x", -1.0)

    def test_stage_records_on_exception(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("risky"):
                raise RuntimeError
        assert timer.total("risky") >= 0.0


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
        from repro.utils.timing import Tracker

        tracker = Tracker()
        tracker.get_counter("maze.nets").increment()
        tracker.get_counter("maze.nets").increment(4)
        assert tracker.get_counter("maze.nets") is tracker.get_counter("maze.nets")
        assert tracker.counters() == {"maze.nets": 5}

    def test_counter_rejects_negative(self):
        from repro.utils.timing import Tracker

        with pytest.raises(ValueError, match="cannot decrease"):
            Tracker().get_counter("x").increment(-1)

    def test_timer_accumulates_and_rejects_negative(self):
        from repro.utils.timing import Tracker

        tracker = Tracker()
        with tracker.get_timer("maze.search").time():
            pass
        tracker.get_timer("maze.search").add(0.5)
        assert tracker.timers()["maze.search"] >= 0.5
        with pytest.raises(ValueError, match="negative"):
            tracker.get_timer("maze.search").add(-0.1)

    def test_snapshot_delta_slices_monotone_totals(self):
        from repro.utils.timing import Tracker

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

        from repro.utils.timing import Tracker

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
