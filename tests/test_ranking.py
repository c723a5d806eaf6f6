"""Tests for list ranking / prefix sums on linked lists (Lemma 2.4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.listrank.ranking import (
    anderson_miller_prefix_sums,
    prefix_sums_on_lists,
    sequential_prefix_sums,
    wyllie_prefix_sums,
)
from repro.pram import Tracker


def build_lists(sizes, values_rng=None):
    """Build disjoint lists; returns (vertices, prev_of, values dict)."""
    vertices = []
    prev_of = {}
    values = {}
    nxt_id = 0
    for size in sizes:
        prev = None
        for _ in range(size):
            v = nxt_id
            nxt_id += 1
            vertices.append(v)
            prev_of[v] = prev
            values[v] = values_rng.randint(-5, 9) if values_rng else 1
            prev = v
    return vertices, prev_of, values


METHODS = {
    "wyllie": wyllie_prefix_sums,
    "anderson-miller": anderson_miller_prefix_sums,
}


@pytest.mark.parametrize("method", sorted(METHODS))
class TestBothMethods:
    def run(self, method, vertices, prev_of, values):
        t = Tracker()
        got = METHODS[method](t, vertices, prev_of, values.__getitem__)
        want = sequential_prefix_sums(vertices, prev_of, values.__getitem__)
        assert got == want
        return t

    def test_empty(self, method):
        t = Tracker()
        assert METHODS[method](t, [], {}, lambda v: 1) == {}

    def test_single_node(self, method):
        vs, prv, vals = build_lists([1])
        self.run(method, vs, prv, vals)

    def test_single_list_unit_values(self, method):
        vs, prv, vals = build_lists([17])
        t = Tracker()
        got = METHODS[method](t, vs, prv, vals.__getitem__)
        assert got == {v: v + 1 for v in vs}  # rank = position (1-based)

    def test_multiple_lists(self, method):
        vs, prv, vals = build_lists([5, 1, 9, 2])
        self.run(method, vs, prv, vals)

    def test_arbitrary_values(self, method):
        rng = random.Random(11)
        vs, prv, vals = build_lists([8, 13], values_rng=rng)
        self.run(method, vs, prv, vals)

    def test_suffix_restriction(self, method):
        # ranking only a suffix of a list treats the suffix start as a head
        vs, prv, vals = build_lists([10])
        suffix = vs[4:]
        t = Tracker()
        got = METHODS[method](t, suffix, prv, vals.__getitem__)
        assert got == {v: i + 1 for i, v in enumerate(suffix)}

    @given(
        st.lists(st.integers(1, 25), min_size=1, max_size=6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_sequential(self, method, sizes, seed):
        rng = random.Random(seed)
        vs, prv, vals = build_lists(sizes, values_rng=rng)
        self.run(method, vs, prv, vals)


class TestCostBounds:
    def test_wyllie_span_logarithmic(self):
        vs, prv, vals = build_lists([256])
        t = Tracker()
        wyllie_prefix_sums(t, vs, prv, vals.__getitem__)
        logn = len(vs).bit_length()
        assert t.span <= 30 * logn * logn
        assert t.work <= 30 * len(vs) * logn  # O(n log n)

    def test_anderson_miller_work_linear(self):
        vs, prv, vals = build_lists([2048])
        t = Tracker()
        anderson_miller_prefix_sums(
            t, vs, prv, vals.__getitem__, rng=random.Random(5)
        )
        # expected O(n): generous constant, but clearly below n log n growth
        assert t.work <= 60 * len(vs)

    def test_anderson_miller_beats_wyllie_work_at_scale(self):
        vs, prv, vals = build_lists([4096])
        t1, t2 = Tracker(), Tracker()
        wyllie_prefix_sums(t1, vs, prv, vals.__getitem__)
        anderson_miller_prefix_sums(t2, vs, prv, vals.__getitem__, rng=random.Random(1))
        assert t2.work < t1.work


class TestDispatch:
    def test_prefix_sums_on_lists_dispatch(self):
        vs, prv, vals = build_lists([4])
        for backend in ("tracked", "numpy"):
            t = Tracker()
            got = prefix_sums_on_lists(t, vs, prv, vals.__getitem__, backend=backend)
            assert got == {v: v + 1 for v in vs}
