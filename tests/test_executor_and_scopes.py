"""Tests for the Tracker.primitive scopes."""

from repro.pram import Tracker


class TestPrimitiveScope:
    def test_span_charged_as_bound(self):
        t = Tracker()
        with t.primitive(5):
            t.op(100)  # 100 sequential ops inside
        assert t.work == 100
        assert t.span == 5

    def test_work_always_measured(self):
        t = Tracker()
        with t.primitive(2):
            t.op(7)
            t.op(3)
        assert t.work == 10

    def test_nested_primitives_outer_wins(self):
        t = Tracker()
        with t.primitive(4):
            with t.primitive(100):
                t.op(50)
        assert t.span == 4
        assert t.work == 50

    def test_sequential_composition_of_primitives(self):
        t = Tracker()
        for _ in range(3):
            with t.primitive(7):
                t.op(9)
        assert t.span == 21
        assert t.work == 27

    def test_primitive_inside_parallel_branch(self):
        t = Tracker()

        def branch(w):
            with t.primitive(w):
                t.op(1000)

        t.parallel_for([2, 6], branch)
        # max of the branch bounds, plus the fork of 2: ceil(log2 2) + 1
        assert t.span == 6 + 2
        assert t.work == 2000 + 2

    def test_primitive_restores_on_exception(self):
        t = Tracker()
        try:
            with t.primitive(3):
                t.op(5)
                raise ValueError("x")
        except ValueError:
            pass
        assert t.span == 3
        assert t.work == 5
