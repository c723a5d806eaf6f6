"""Tests for the parallel merge sort (D4)."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import Tracker, parallel_sort
from repro.pram.sorting import _merge_into


def parallel_merge(a, b):
    """The sort's merge step on two sorted lists of numbers."""
    out = []
    _merge_into(out, [(x, x) for x in a], 0, len(a), [(x, x) for x in b], 0, len(b))
    return [x for _, x in out]


class TestParallelMerge:
    def test_basic(self):
        assert parallel_merge([1, 4, 7], [2, 3, 9]) == [1, 2, 3, 4, 7, 9]

    def test_empty_sides(self):
        assert parallel_merge([], [1, 2]) == [1, 2]
        assert parallel_merge([3], []) == [3]

    def test_skewed_lengths(self):
        a = list(range(0, 200, 2))
        b = [55]
        assert parallel_merge(a, b) == sorted(a + b)

    @given(st.lists(st.integers(-100, 100)), st.lists(st.integers(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_property(self, a, b):
        got = parallel_merge(sorted(a), sorted(b))
        assert got == sorted(a + b)


class TestParallelSort:
    def test_basic(self):
        t = Tracker()
        assert parallel_sort(t, [5, 1, 4, 1, 5, 9, 2, 6]) == [1, 1, 2, 4, 5, 5, 6, 9]

    def test_with_key(self):
        t = Tracker()
        got = parallel_sort(t, ["bbb", "a", "cc"], key=len)
        assert got == ["a", "cc", "bbb"]

    def test_empty_and_single(self):
        t = Tracker()
        assert parallel_sort(t, []) == []
        assert parallel_sort(t, [7]) == [7]

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_builtin(self, xs):
        t = Tracker()
        assert parallel_sort(t, xs) == sorted(xs)

    def test_work_n_log_n(self):
        t = Tracker()
        n = 4096
        rng = random.Random(1)
        xs = [rng.randrange(10**6) for _ in range(n)]
        parallel_sort(t, xs)
        assert t.work <= 20 * n * n.bit_length()

    def test_span_polylog(self):
        t = Tracker()
        n = 4096
        rng = random.Random(2)
        xs = [rng.randrange(10**6) for _ in range(n)]
        parallel_sort(t, xs)
        logn = n.bit_length()
        assert t.span <= 20 * logn**3


def _sort_indices(n, spread, seed):
    """Sort ``range(n)`` by random keys in ``[0, spread)`` — many ties
    when ``spread`` is small — and return the order and the charges."""
    rng = random.Random(seed)
    keys = [rng.randrange(spread) for _ in range(n)]
    t = Tracker()
    order = parallel_sort(t, range(n), key=keys.__getitem__)
    return order, t.work, t.span


class TestSortGoldens:
    """The exact order among equal keys (the merge's tie rule is not
    stable) and the exact (work, span), as the fork-join recursion
    through ``Tracker.parallel`` produced them.  Separator paths of
    equal length are ordered by this sort, so a divergence here moves
    every tree."""

    @pytest.mark.parametrize(
        "case, order, work, span",
        [
            ((0, 1, 0), [], 1, 1),
            ((1, 1, 0), [0], 1, 1),
            ((8, 3, 1), [0, 2, 4, 3, 5, 6, 7, 1], 24, 24),
            ((9, 3, 2), [0, 1, 2, 4, 7, 8, 3, 5, 6], 39, 27),
            (
                (20, 4, 3),
                [4, 5, 17, 18, 0, 8, 9, 15, 19, 13, 14, 1, 7, 2, 10, 11,
                 12, 16, 6, 3],
                130, 51,
            ),
            (
                (33, 2, 4),
                [16, 18, 30, 31, 27, 32, 19, 22, 0, 2, 5, 6, 8, 11, 12, 15,
                 23, 7, 24, 25, 26, 9, 10, 13, 28, 29, 14, 1, 3, 4, 17, 20,
                 21],
                243, 94,
            ),
        ],
    )
    def test_small(self, case, order, work, span):
        assert _sort_indices(*case) == (order, work, span)

    @pytest.mark.parametrize(
        "case, digest, work, span",
        [
            ((100, 5, 10), "97bb0a18812f21f7", 1077, 156),
            ((287, 40, 11), "c6d119e1dec62d71", 4131, 235),
            ((1000, 7, 12), "057c6994283e7dee", 16185, 480),
            ((3000, 3000, 13), "82fea8a189c46d0f", 63983, 541),
            ((4096, 10**6, 14), "10e8eac9ae51c0ea", 87537, 588),
            ((5000, 2, 15), "04306210f29c7d27", 92342, 1804),
        ],
    )
    def test_large(self, case, digest, work, span):
        order, w, s = _sort_indices(*case)
        got = hashlib.sha256(",".join(map(str, order)).encode()).hexdigest()
        assert (got[:16], w, s) == (digest, work, span)
