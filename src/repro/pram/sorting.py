"""Parallel merge sort: O(n log n) work, O(log³ n) span.

The deterministic appendix (D4) replaces randomized semisorts with "a full
deterministic sort… O(n log n) work and O(log n) depth". We implement the
classic parallel merge sort whose merges split recursively at medians
(binary search on the other side), giving polylog span with genuinely
parallel structure — the textbook construction, a log factor or two above
the optimal pipelined versions but well inside every budget the paper uses
a sort for.

The fork-join recursion runs as plain Python recursion: each call
returns its result with the ``(work, span)`` it costs, composed by the
model's rules (two branches add their work and take the larger span,
plus the fork's 2 work and 2 span), and :func:`parallel_sort` charges
the total once.  That is exactly what running every branch through
:meth:`~repro.pram.tracker.Tracker.parallel` charges.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Sequence, TypeVar

from .tracker import Tracker, log2_ceil

T = TypeVar("T")

__all__ = ["parallel_sort"]

_SEQ_CUTOFF = 8
_KEY = itemgetter(0)


def _merge_into(
    out: list, a: list, alo: int, ahi: int, b: list, blo: int, bhi: int
) -> tuple[int, int]:
    """Append the merge of the sorted runs ``a[alo:ahi]`` and
    ``b[blo:bhi]`` of ``(key, item)`` pairs to ``out``, comparing keys
    only; returns the merge's ``(work, span)``.

    The longer run ``a`` (the left one on equal lengths) wins ties, in
    the sequential base case as in the split, so the order among equal
    keys depends on the run lengths down the recursion: the sort is not
    stable.
    """
    la, lb = ahi - alo, bhi - blo
    if la < lb:
        a, alo, ahi, la, b, blo, bhi, lb = b, blo, bhi, lb, a, alo, ahi, la
    if not lb:
        out.extend(a[alo:ahi])
        w = max(1, la)
        return w, w
    if la + lb <= _SEQ_CUTOFF:
        # a stable sort of a-then-b is the sequential merge that takes
        # a's element on equal keys
        out.extend(sorted(a[alo:ahi] + b[blo:bhi], key=_KEY))
        return la + lb, la + lb
    # split a at its median; binary-search the split point in b, one op
    # per probe of the lo < hi loop (replayed on positions)
    mid = alo + la // 2
    split = bisect_left(b, a[mid][0], blo, bhi, key=_KEY) - blo
    probes = 0
    lo, hi = 0, lb
    while lo < hi:  # repro-lint: disable=R001 (O(log n) probes, counted into the returned work and span)
        probes += 1
        m = (lo + hi) >> 1
        if m < split:
            lo = m + 1
        else:
            hi = m
    # a is the longer run of more than _SEQ_CUTOFF // 2 items, so both
    # of its halves are non-empty; a half merged with an empty piece of
    # b is a copy (charged as the base case charges it)
    if split:
        wl, sl = _merge_into(out, a, alo, mid, b, blo, blo + split)
    else:
        out.extend(a[alo:mid])
        wl = sl = mid - alo
    if split < lb:
        wr, sr = _merge_into(out, a, mid, ahi, b, blo + split, bhi)
    else:
        out.extend(a[mid:ahi])
        wr = sr = ahi - mid
    # the probes, the two-way fork (2 work, 2 span) and the join op
    return probes + wl + wr + 3, probes + (sl if sl > sr else sr) + 3


def _sort_keyed(items: list) -> tuple[list, int, int]:
    """Sort ``(key, item)`` pairs by key; returns ``(sorted, work, span)``."""
    n = len(items)
    if n <= _SEQ_CUTOFF:
        w = max(1, n * max(1, log2_ceil(max(2, n))))
        return sorted(items, key=_KEY), w, w
    mid = n // 2
    left, wl, sl = _sort_keyed(items[:mid])
    right, wr, sr = _sort_keyed(items[mid:])
    out: list = []
    wm, sm = _merge_into(out, left, 0, mid, right, 0, n - mid)
    # the two-way fork (2 work, 2 span), then the merge
    return out, wl + wr + 2 + wm, (sl if sl > sr else sr) + 2 + sm


def parallel_sort(
    t: Tracker,
    xs: Sequence[T],
    key: Callable[[T], object] | None = None,
) -> list[T]:
    """Parallel merge sort of ``xs`` by ``key`` (not stable: see
    :func:`_merge_keyed`).

    ``key`` is evaluated once per item; the recursion compares the
    cached keys.
    """
    items = list(xs)
    keys = items if key is None else map(key, items)
    out, work, span = _sort_keyed(list(zip(keys, items)))
    t.charge(work, span)
    return list(map(itemgetter(1), out))
