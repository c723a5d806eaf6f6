"""Work-span (work-depth) cost model for the PRAM algorithms in this package.

The paper (Section 1.1) states all of its guarantees in the standard
work-depth model of Blelloch [Ble96]: *work* is the total number of
operations, *span* (a.k.a. depth) is the longest chain of sequentially
dependent operations, and for ``p`` processors Brent's principle [Bre74]
bounds the running time by ``W/p <= T_p <= W/p + D``.

CPython cannot express genuine shared-memory PRAM parallelism (GIL), so this
module provides the substitution documented in DESIGN.md section 2: the
algorithms are written against an explicit fork-join structure
(:meth:`Tracker.parallel_for`, :meth:`Tracker.parallel`), executed
sequentially, while a :class:`Tracker` accounts work and span with the exact
composition rules of the model:

* sequential composition: ``work = w1 + w2``, ``span = s1 + s2``;
* parallel composition:   ``work = sum(w_i)``, ``span = max(s_i)`` plus a
  logarithmic fork-join overhead.

Every elementary operation an algorithm performs is charged through
:meth:`Tracker.op` (or the documented aggregate :meth:`Tracker.charge`), so
the reported numbers measure exactly the quantities the paper's theorems
bound.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "Cost",
    "Tracker",
    "brent_time_bounds",
    "log2_ceil",
]


def log2_ceil(k: int) -> int:
    """Return ``ceil(log2(k))`` for ``k >= 1`` (0 for ``k <= 1``).

    Used for the span overhead of forking ``k`` parallel tasks: a binary
    fork tree of ``k`` leaves has depth ``ceil(log2 k)``.
    """
    if k <= 1:
        return 0
    return (k - 1).bit_length()


@dataclass
class Cost:
    """A (work, span) pair measured for some sub-computation."""

    work: int = 0
    span: int = 0

    def __iter__(self):
        # tuple-compatible: ``work, span = tracker.snapshot()``
        yield self.work
        yield self.span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cost(work={self.work}, span={self.span})"


def brent_time_bounds(work: float, span: float, p: int) -> tuple[float, float]:
    """Return ``(lower, upper)`` bounds on ``T_p``: ``(max(W/p, D), W/p + D)``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return max(work / p, span), work / p + span


class Tracker:
    """Accumulates work and span for an instrumented computation.

    Attributes ``work`` and ``span`` are public running totals; algorithms
    charge into them through :meth:`op`, :meth:`charge`, and structure
    parallelism through :meth:`parallel_for` / :meth:`parallel`. Forking
    ``k`` branches charges ``k`` work and ``ceil(log2 k) + 1`` span, as
    in a binary fork tree.
    """

    __slots__ = ("work", "span")

    def __init__(self) -> None:
        self.work: int = 0
        self.span: int = 0

    # ------------------------------------------------------------------
    # elementary charging
    # ------------------------------------------------------------------
    def op(self, w: int = 1) -> None:
        """Charge ``w`` sequential elementary operations."""
        self.work += w
        self.span += w

    def charge(self, work: int, span: int) -> None:
        """Charge an aggregate ``(work, span)``.

        Use only for a sub-computation whose parallel structure is
        expressed elsewhere (e.g. a sequential chain of ``span`` rounds
        doing ``work`` total operations). Prefer :meth:`op` and
        :meth:`parallel_for` where practical.
        """
        self.work += work
        self.span += span

    # ------------------------------------------------------------------
    # parallel composition
    # ------------------------------------------------------------------
    def parallel_for(
        self, items: Sequence[T], fn: Callable[[T], R]
    ) -> list[R]:
        """Run ``fn`` over ``items`` as parallel branches.

        Work composes additively (each branch's charges accumulate into
        ``self.work`` as they happen); span composes as the max over the
        branches, plus the fork-join overhead.
        """
        k = len(items)
        if k == 0:
            return []
        s0 = self.span
        max_s = 0
        results: list[R] = []
        for item in items:
            self.span = 0
            results.append(fn(item))
            if self.span > max_s:
                max_s = self.span
        self.span = s0 + max_s + log2_ceil(k) + 1
        self.work += k
        return results

    def parallel_ops(self, k: int) -> None:
        """Charge exactly what :meth:`parallel_for` charges over ``k``
        branches that each call ``op(1)`` — for array code that applies
        the ``k`` branches in one vectorized pass."""
        if k == 0:
            return
        # k unit branches (k work, span 1), plus the fork-join overhead
        self.work += k + k
        self.span += 1 + log2_ceil(k) + 1

    def parallel(self, *thunks: Callable[[], R]) -> list[R]:
        """Run the given thunks as parallel branches (like parallel_for)."""
        return self.parallel_for(thunks, lambda f: f())

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @contextmanager
    def primitive(self, span_bound: int) -> Iterator[None]:
        """Run a block whose *work* is measured faithfully but whose *span*
        is charged as ``span_bound`` regardless of the sequential execution
        order inside.

        This is the cited-primitive escape hatch of DESIGN.md §2: the
        dynamic-forest substrates (Euler tours, splay link-cut trees)
        substitute for the batch-parallel structures of [AABD19]/[AAB+20],
        which complete each operation in O(log n) depth w.h.p. Our
        simulation executes their pointer manipulations sequentially, so
        without this scope an operation's span would equal its work and
        mask the algorithm-level parallel structure the paper's depth
        bounds are about. Work — the quantity behind Theorem 1.1's
        efficiency claim — is always the actually executed operation count.
        """
        s0 = self.span
        try:
            yield
        finally:
            self.span = s0 + span_bound

    def snapshot(self) -> Cost:
        """The current running ``(work, span)`` totals as a
        tuple-unpackable :class:`Cost`.

        Reading the totals is *free* in the cost model: the observability
        layer reads them at every span boundary, and instrumentation must
        not perturb the quantities it measures (pinned by test).
        """
        return Cost(self.work, self.span)

    def reset(self) -> None:
        self.work = 0
        self.span = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracker(work={self.work}, span={self.span})"
