"""Naive active-neighbor structure: the rescanning ablation.

Implements the same interface as
:class:`~repro.structures.adjacency_query.ActiveNeighborStructure`
(Lemma 4.5) but *without* the tournament trees: every ``query`` scans the
vertex's full adjacency list and filters by the activity flags.

This is the crux of why prior work was not work-efficient: a head that
attempts matching Θ(√n) times rescans its (possibly dead) adjacency every
time, so the path-merging work degrades from Õ(m) to Θ̃(m·√n) — the
Goldberg–Plotkin–Vaidya [GPV88] regime. Used by
:func:`repro.baselines.gpv_style.gpv_dfs` (experiment E9) and by the
structure ablation in E5.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.graph import Graph
from ..pram.tracker import Tracker, log2_ceil

__all__ = ["NaiveActiveNeighborStructure"]


class NaiveActiveNeighborStructure:
    """Flag array + full adjacency rescans (no sublinear query structure)."""

    __slots__ = ("g", "tracker", "active")

    def __init__(self, g: Graph, tracker: Tracker | None = None) -> None:
        self.g = g
        self.tracker = tracker if tracker is not None else Tracker()
        self.active = [True] * g.n
        self.tracker.charge(g.n, 1)

    def is_active(self, v: int) -> bool:
        return self.active[v]

    def make_inactive(self, vertices: Sequence[int]) -> None:
        t = self.tracker

        def kill(v: int) -> None:
            t.op(1)
            if not self.active[v]:
                raise ValueError(f"vertex {v} is already inactive")
            self.active[v] = False

        t.parallel_for(list(vertices), kill)

    def rebuild(self) -> None:
        """Recompute every vertex's active adjacency from scratch.

        This is the "read the whole input each iteration" behaviour the
        paper calls unaffordable (Section 4.3): Θ(m + n) work per call.
        The GPV-style driver calls it once per merging step, so the total
        degrades to Θ̃(m·√n)."""
        t = self.tracker
        total = 0
        for v in range(self.g.n):
            total += len(self.g.adj[v]) + 1
        t.charge(total, log2_ceil(max(2, total)) + 1)

    def query(self, vertices: Sequence[int], t_count: int) -> list[list[int]]:
        """Up to ``t_count`` active neighbors per vertex — by rescanning the
        whole adjacency list (work Θ(deg), not O(t log n))."""
        t = self.tracker

        def scan(v: int) -> list[int]:
            out: list[int] = []
            scanned = 0
            for w in self.g.adj[v]:
                scanned += 1
                if self.active[w]:
                    out.append(w)
                    if len(out) >= t_count:
                        break
            # the scan pays for every (mostly dead) entry it walked past —
            # exactly the inefficiency Lemma 4.5 removes
            t.charge(scanned + 1, log2_ceil(max(2, scanned)) + 1)
            return out

        return t.parallel_for(list(vertices), scan)
