"""Unit tests for the work-span tracker (repro.pram.tracker)."""

import pytest

from repro.pram.tracker import Cost, Tracker, brent_time, brent_time_bounds, log2_ceil


class TestLog2Ceil:
    def test_small_values(self):
        assert log2_ceil(0) == 0
        assert log2_ceil(1) == 0
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2
        assert log2_ceil(4) == 2
        assert log2_ceil(5) == 3
        assert log2_ceil(8) == 3
        assert log2_ceil(9) == 4

    def test_powers_of_two(self):
        for k in range(1, 20):
            assert log2_ceil(1 << k) == k
            assert log2_ceil((1 << k) + 1) == k + 1


class TestCost:
    def test_sequential_composition(self):
        c = Cost(3, 2) + Cost(5, 7)
        assert c.work == 8
        assert c.span == 9

    def test_parallel_composition(self):
        c = Cost(3, 2).parallel(Cost(5, 7))
        assert c.work == 8
        assert c.span == 7


class TestBrent:
    def test_single_processor_equals_work(self):
        assert brent_time(100, 10, 1) == 110  # W/1 + D upper bound

    def test_bounds_ordering(self):
        lo, hi = brent_time_bounds(1000, 10, 8)
        assert lo <= hi
        assert lo == max(1000 / 8, 10)
        assert hi == 1000 / 8 + 10

    def test_infinite_processors_floor_is_span(self):
        lo, _ = brent_time_bounds(1000, 10, 10**9)
        assert lo == 10

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            brent_time(1, 1, 0)
        with pytest.raises(ValueError):
            brent_time_bounds(1, 1, -1)


class TestTrackerSequential:
    def test_op_accumulates_work_and_span(self):
        t = Tracker()
        t.op()
        t.op(5)
        assert t.work == 6
        assert t.span == 6

    def test_charge(self):
        t = Tracker()
        t.charge(100, 3)
        assert t.work == 100
        assert t.span == 3

    def test_reset(self):
        t = Tracker()
        t.op(10)
        with t.region("r"):
            t.op(1)
        t.reset()
        assert t.work == 0 and t.span == 0 and t.regions == {}


class TestTrackerParallel:
    def test_parallel_for_span_is_max_plus_overhead(self):
        t = Tracker()

        def branch(w):
            t.op(w)

        t.parallel_for([1, 5, 3], branch)
        # work: 1+5+3 branch ops + 3 fork overhead
        assert t.work == 9 + 3
        # span: max(1,5,3) + ceil(log2 3) + 1 = 5 + 2 + 1
        assert t.span == 8

    def test_parallel_for_without_fork_overhead(self):
        t = Tracker(fork_overhead=False)
        t.parallel_for([2, 4], lambda w: t.op(w))
        assert t.work == 6
        assert t.span == 4

    def test_empty_parallel_for(self):
        t = Tracker()
        assert t.parallel_for([], lambda x: x) == []
        assert t.work == 0 and t.span == 0

    def test_results_preserved_in_order(self):
        t = Tracker()
        out = t.parallel_for([3, 1, 2], lambda x: x * 10)
        assert out == [30, 10, 20]

    def test_nested_parallel_for(self):
        t = Tracker(fork_overhead=False)

        def outer(i):
            t.parallel_for([1, 2], lambda w: t.op(w))

        t.parallel_for([0, 1], outer)
        # each outer branch: work 3, span 2; two branches
        assert t.work == 6
        assert t.span == 2

    def test_parallel_thunks(self):
        t = Tracker(fork_overhead=False)
        r = t.parallel(lambda: (t.op(2), "a")[1], lambda: (t.op(7), "b")[1])
        assert r == ["a", "b"]
        assert t.span == 7
        assert t.work == 9

    def test_parallel_for_enumerated(self):
        t = Tracker()
        out = t.parallel_for_enumerated(["x", "y"], lambda i, s: f"{i}{s}")
        assert out == ["0x", "1y"]

    def test_sequential_then_parallel_composes(self):
        t = Tracker(fork_overhead=False)
        t.op(10)
        t.parallel_for([5, 3], lambda w: t.op(w))
        t.op(2)
        assert t.span == 10 + 5 + 2
        assert t.work == 10 + 8 + 2


class TestParallelOps:
    """``parallel_ops`` is the one aggregate charge the array merge loop
    makes for its commit and kill passes: it must equal ``parallel_for``
    over the same number of one-op branches, exactly."""

    @pytest.mark.parametrize("fork_overhead", [True, False])
    def test_equals_parallel_for_of_unit_branches(self, fork_overhead):
        for k in list(range(0, 20)) + [31, 32, 33, 1000]:
            ref = Tracker(fork_overhead=fork_overhead)
            agg = Tracker(fork_overhead=fork_overhead)
            ref.charge(5, 7)  # a nonzero starting point
            agg.charge(5, 7)
            ref.parallel_for(range(k), lambda _: ref.op(1))
            agg.parallel_ops(k)
            assert agg.snapshot() == ref.snapshot(), k


class TestMeasurement:
    def test_measure_block(self):
        t = Tracker(fork_overhead=False)
        t.op(5)
        with t.measure() as c:
            t.op(3)
            t.parallel_for([1, 1], lambda w: t.op(w))
        assert c.work == 5
        assert c.span == 4
        assert t.work == 10

    def test_region_totals(self):
        t = Tracker(fork_overhead=False)
        with t.region("phase"):
            t.op(3)
        with t.region("phase"):
            t.op(4)
        rep = t.region_report()
        assert rep["phase"]["work"] == 7
        assert rep["phase"]["span"] == 7
        assert rep["phase"]["calls"] == 2

    def test_snapshot(self):
        t = Tracker()
        t.op(2)
        s = t.snapshot()
        assert (s.work, s.span) == (2, 2)
        t.op(1)
        assert (s.work, s.span) == (2, 2)  # snapshot is a copy

    def test_snapshot_tuple_unpack(self):
        t = Tracker()
        t.op(3)
        work, span = t.snapshot()
        assert (work, span) == (3, 3)

    def test_delta_since_snapshot(self):
        t = Tracker(fork_overhead=False)
        t.op(5)
        before = t.snapshot()
        t.op(3)
        t.parallel_for([1, 1], lambda w: t.op(w))
        d = t.delta(before)
        assert (d.work, d.span) == (5, 4)
        # empty interval: delta of a fresh snapshot is zero
        now = t.snapshot()
        z = t.delta(now)
        assert (z.work, z.span) == (0, 0)

    def test_snapshot_and_delta_charge_nothing(self):
        # the observability reads must not perturb what they measure
        t = Tracker()
        t.op(7)
        for _ in range(100):
            t.delta(t.snapshot())
        assert (t.work, t.span) == (7, 7)
