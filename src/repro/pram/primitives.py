"""Round-structured parallel array primitives over the work-span tracker.

These are the standard PRAM building blocks the paper uses implicitly
(tree reductions, Blelloch scans, stream compaction). Each primitive is
implemented in its genuinely parallel round structure — a sequence of
``O(log n)`` rounds, each a ``parallel_for`` over the active elements — so
the tracker's measured span is the real critical-path length of the
algorithm, not an assumed bound.

All primitives take the :class:`~repro.pram.tracker.Tracker` first and plain
Python lists (the PRAM's shared memory).

The array-shaped primitives additionally accept ``backend="tracked"``
(default — the instrumented round structure below, exact counts) or
``backend="numpy"`` (the vectorized kernels in :mod:`repro.kernels.scan`,
aggregate counts); return types and values are identical across both.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .tracker import Tracker

T = TypeVar("T")

__all__ = [
    "reduce",
    "reduce_sum",
    "reduce_max",
    "reduce_min",
    "exclusive_scan",
    "inclusive_scan",
    "pack",
    "pack_index",
    "map_inplace",
    "parallel_map",
    "argmin_by",
]


def _array_kernel(operation: str, backend: str | None):
    """The registered numpy kernel, or None on the tracked path."""
    from ..kernels.dispatch import get_kernel, is_array_backend, resolve_backend

    kb = resolve_backend(backend)
    if is_array_backend(kb):
        return get_kernel(operation, kb)
    return None


def reduce(t: Tracker, xs: Sequence[T], combine: Callable[[T, T], T], identity: T) -> T:
    """Tree reduction: ``O(n)`` work, ``O(log n)`` span."""
    cur = list(xs)
    n = len(cur)
    t.op(1)
    if n == 0:
        return identity
    while len(cur) > 1:
        half = (len(cur) + 1) // 2
        nxt: list[T] = [identity] * half

        def step(i: int) -> None:
            j = 2 * i
            if j + 1 < len(cur):
                t.op(1)
                nxt[i] = combine(cur[j], cur[j + 1])
            else:
                t.op(1)
                nxt[i] = cur[j]

        t.parallel_for(range(half), step)
        cur = nxt
    return cur[0]


def reduce_sum(
    t: Tracker, xs: Sequence[int], backend: str | None = None
) -> int:
    fn = _array_kernel("reduce_sum", backend)
    if fn is not None:
        return fn(t, xs)
    return reduce(t, xs, lambda a, b: a + b, 0)


def reduce_max(
    t: Tracker, xs: Sequence[int], backend: str | None = None
) -> int:
    if not xs:
        raise ValueError("reduce_max of empty sequence")
    fn = _array_kernel("reduce_max", backend)
    if fn is not None:
        return fn(t, xs)
    return reduce(t, xs, lambda a, b: a if a >= b else b, xs[0])


def reduce_min(
    t: Tracker, xs: Sequence[int], backend: str | None = None
) -> int:
    if not xs:
        raise ValueError("reduce_min of empty sequence")
    fn = _array_kernel("reduce_min", backend)
    if fn is not None:
        return fn(t, xs)
    return reduce(t, xs, lambda a, b: a if a <= b else b, xs[0])


def exclusive_scan(
    t: Tracker, xs: Sequence[int], backend: str | None = None
) -> list[int]:
    """Blelloch exclusive prefix-sum: ``O(n)`` work, ``O(log n)`` span.

    Returns ``out`` with ``out[i] = sum(xs[:i])``; ``out`` has the same
    length as ``xs``.
    """
    fn = _array_kernel("exclusive_scan", backend)
    if fn is not None:
        return fn(t, xs).tolist()
    n = len(xs)
    t.op(1)
    if n == 0:
        return []
    # Pad to a power of two for the classic up-/down-sweep.
    size = 1 << (n - 1).bit_length() if n > 1 else 1
    a = list(xs) + [0] * (size - n)

    # Up-sweep.
    d = 1
    while d < size:
        stride = d * 2

        def up(i: int, d: int = d, stride: int = stride) -> None:
            t.op(1)
            a[i + stride - 1] += a[i + d - 1]

        t.parallel_for(range(0, size, stride), up)
        d = stride

    total = a[size - 1]
    a[size - 1] = 0

    # Down-sweep.
    d = size // 2
    while d >= 1:
        stride = d * 2

        def down(i: int, d: int = d, stride: int = stride) -> None:
            t.op(1)
            left = a[i + d - 1]
            a[i + d - 1] = a[i + stride - 1]
            a[i + stride - 1] += left

        t.parallel_for(range(0, size, stride), down)
        d //= 2

    del total
    return a[:n]


def inclusive_scan(
    t: Tracker, xs: Sequence[int], backend: str | None = None
) -> list[int]:
    """Inclusive prefix-sum built from the exclusive scan."""
    fn = _array_kernel("inclusive_scan", backend)
    if fn is not None:
        return fn(t, xs).tolist()
    ex = exclusive_scan(t, xs)

    def add(i: int) -> int:
        t.op(1)
        return ex[i] + xs[i]

    return t.parallel_for(range(len(xs)), add)


def pack(
    t: Tracker,
    xs: Sequence[T],
    flags: Sequence[bool],
    backend: str | None = None,
) -> list[T]:
    """Stream compaction: keep ``xs[i]`` where ``flags[i]``.

    ``O(n)`` work, ``O(log n)`` span (scan + scatter).
    """
    if len(xs) != len(flags):
        raise ValueError("xs and flags must have equal length")
    fn = _array_kernel("pack_index", backend)
    if fn is not None:
        # select through an index kernel: keeps element identity for any T
        return [xs[i] for i in fn(t, flags)]
    idx = exclusive_scan(t, [1 if f else 0 for f in flags])
    total = (idx[-1] + (1 if flags[-1] else 0)) if xs else 0
    out: list[T] = [None] * total  # type: ignore[list-item]

    def scatter(i: int) -> None:
        t.op(1)
        if flags[i]:
            out[idx[i]] = xs[i]

    t.parallel_for(range(len(xs)), scatter)
    return out


def pack_index(
    t: Tracker, flags: Sequence[bool], backend: str | None = None
) -> list[int]:
    """Indices ``i`` with ``flags[i]`` set, in order."""
    fn = _array_kernel("pack_index", backend)
    if fn is not None:
        return fn(t, flags).tolist()
    return pack(t, list(range(len(flags))), flags)


def map_inplace(t: Tracker, xs: list[T], fn: Callable[[T], T]) -> None:
    """Parallel in-place map: ``O(n)`` work, ``O(1)`` span (+fork)."""

    def step(i: int) -> None:
        t.op(1)
        xs[i] = fn(xs[i])

    t.parallel_for(range(len(xs)), step)


def parallel_map(t: Tracker, xs: Sequence[T], fn: Callable[[T], T]) -> list[T]:
    """Parallel map producing a new list."""

    def step(i: int) -> T:
        t.op(1)
        return fn(xs[i])

    return t.parallel_for(range(len(xs)), step)


def argmin_by(t: Tracker, xs: Sequence[T], key: Callable[[T], int]) -> int:
    """Index of the minimum element by ``key`` (ties: lowest index).

    ``O(n)`` work, ``O(log n)`` span.
    """
    if not xs:
        raise ValueError("argmin_by of empty sequence")
    keys = parallel_map(t, list(range(len(xs))), lambda i: i)  # identity indices

    def combine(i: int, j: int) -> int:
        ki, kj = key(xs[i]), key(xs[j])
        if ki < kj or (ki == kj and i < j):
            return i
        return j

    return reduce(t, keys, combine, 0)
