"""Parallel merge sort: O(n log n) work, O(log³ n) span.

The deterministic appendix (D4) replaces randomized semisorts with "a full
deterministic sort… O(n log n) work and O(log n) depth". We implement the
classic parallel merge sort whose merges split recursively at medians
(binary search on the other side), giving polylog span with genuinely
parallel structure — the textbook construction, a log factor or two above
the optimal pipelined versions but well inside every budget the paper uses
a sort for.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence, TypeVar

from .tracker import Tracker, log2_ceil

T = TypeVar("T")

__all__ = ["parallel_sort", "parallel_merge"]

_SEQ_CUTOFF = 8


def parallel_merge(
    t: Tracker,
    a: list,
    b: list,
    key: Callable,
) -> list:
    """Merge two sorted lists with divide-and-conquer median splitting."""
    merged = _merge_keyed(
        t, list(zip(map(key, a), a)), list(zip(map(key, b), b))
    )
    return list(map(itemgetter(1), merged))


def _merge_keyed(t: Tracker, a: list, b: list) -> list:
    """:func:`parallel_merge` over ``(key, item)`` pairs, comparing keys
    only — each key is computed once, not on every comparison."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        t.op(max(1, len(a)))
        return list(a)
    if len(a) + len(b) <= _SEQ_CUTOFF:
        t.op(len(a) + len(b))
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i][0] <= b[j][0]:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return out
    # split a at its median; binary-search the split point in b
    mid = len(a) // 2
    pivot = a[mid][0]
    lo, hi = 0, len(b)
    while lo < hi:
        t.op(1)
        m = (lo + hi) // 2
        if b[m][0] < pivot:
            lo = m + 1
        else:
            hi = m
    left, right = t.parallel(
        lambda: _merge_keyed(t, a[:mid], b[:lo]),
        lambda: _merge_keyed(t, a[mid:], b[lo:]),
    )
    t.op(1)
    return left + right


def parallel_sort(
    t: Tracker,
    xs: Sequence[T],
    key: Callable[[T], object] | None = None,
) -> list[T]:
    """Stable-ish parallel merge sort of ``xs`` by ``key``.

    ``key`` is evaluated once per item; the recursion compares the
    cached keys.
    """
    items = list(xs)
    keys = items if key is None else map(key, items)
    return list(map(itemgetter(1), _sort_keyed(t, list(zip(keys, items)))))


def _sort_keyed(t: Tracker, items: list) -> list:
    if len(items) <= _SEQ_CUTOFF:
        t.op(max(1, len(items) * max(1, log2_ceil(max(2, len(items))))))
        return sorted(items, key=itemgetter(0))
    mid = len(items) // 2
    left, right = t.parallel(
        lambda: _sort_keyed(t, items[:mid]),
        lambda: _sort_keyed(t, items[mid:]),
    )
    return _merge_keyed(t, left, right)
