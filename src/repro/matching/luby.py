"""Parallel maximal matching and maximal independent set (Lemma 2.5).

The paper uses Luby's maximal matching [Lub93] as a black box inside every
phase of the path-merging routine (Section 4.3). The lemma budget is
``O(log^5 n)`` depth and ``O(m log^5 n)`` work; we implement the standard
randomized local-minimum variant (Israeli–Itai/Luby style):

* each round, every live edge draws a random priority;
* an edge joins the matching iff its priority is a strict local minimum
  among live edges sharing an endpoint;
* matched vertices and their incident edges are removed.

In expectation a constant fraction of live edges dies per round, so there
are ``O(log m)`` rounds w.h.p.; each round costs work linear in the live
edges with ``O(log n)`` span — comfortably inside the lemma's budget. A
deterministic derandomization exists [Lub93]; the randomized version is what
the overall randomized theorem (Thm 1.1) needs, and the deterministic track
is covered by Appendix C / E13.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker, log2_ceil

__all__ = ["maximal_matching", "luby_mis", "is_maximal_matching", "is_mis"]


def maximal_matching(
    t: Tracker,
    n: int,
    edges: Sequence[tuple[int, int]],
    rng: random.Random | None = None,
    backend: str | None = None,
) -> list[int]:
    """Return edge indices of a maximal matching of ``(n, edges)``.

    ``edges`` may contain edges of a bipartite selection graph (Section 4.3)
    or any simple undirected graph; vertex ids must be < n.  The array
    engines also accept an ``(m, 2)`` integer array.

    ``backend="numpy"`` runs the vectorized round kernel
    (:mod:`repro.kernels.matching`): same local-minimum round structure,
    whole-array execution, aggregate tracker accounting. The returned
    matching is maximal under either backend but generally differs edge
    for edge (independent random priorities).
    """
    from ..kernels.dispatch import get_kernel, is_array_backend, resolve_backend

    kb = resolve_backend(backend)
    if is_array_backend(kb):
        return get_kernel("maximal_matching", kb)(t, n, edges, rng)
    rng = rng if rng is not None else random.Random(0xA11CE)
    matched = [False] * n
    t.charge(n, 1)
    live = list(range(len(edges)))
    result: list[int] = []

    guard = 0
    max_rounds = 8 * (max(2, len(edges)).bit_length() + 2) + 64
    while live:
        guard += 1
        if guard > max_rounds:
            raise RuntimeError("luby matching failed to converge (bug)")

        prio: dict[int, float] = {}

        def draw(eid: int) -> None:
            t.op(1)
            prio[eid] = rng.random()

        t.parallel_for(live, draw)

        # CRCW min per vertex over incident live edges.
        best: dict[int, int] = {}

        def scatter(eid: int) -> None:
            t.op(1)
            u, v = edges[eid]
            p = prio[eid]
            for x in (u, v):
                b = best.get(x)
                if b is None or p < prio[b] or (p == prio[b] and eid < b):
                    best[x] = eid

        t.parallel_for(live, scatter)
        t.charge(0, log2_ceil(max(2, n)))  # combining tree for the min-writes

        selected: list[int] = []

        def select(eid: int) -> None:
            t.op(1)
            u, v = edges[eid]
            if best.get(u) == eid and best.get(v) == eid:
                selected.append(eid)

        t.parallel_for(live, select)

        def commit(eid: int) -> None:
            t.op(1)
            u, v = edges[eid]
            matched[u] = True
            matched[v] = True
            result.append(eid)

        t.parallel_for(selected, commit)

        new_live = []

        def filter_edge(eid: int) -> None:
            t.op(1)
            u, v = edges[eid]
            if not matched[u] and not matched[v]:
                new_live.append(eid)

        t.parallel_for(live, filter_edge)
        live = new_live

    # round count recorded after the loop (cold site, R006-compliant)
    _obs_metrics().counter("luby.calls").inc()
    _obs_metrics().counter("luby.rounds").inc(guard)
    return result


def luby_mis(
    t: Tracker,
    n: int,
    adj: Sequence[Sequence[int]],
    rng: random.Random | None = None,
) -> set[int]:
    """Luby's maximal independent set on an adjacency-list graph.

    Each round, every live vertex draws a random priority; strict local
    minima join the MIS and their neighborhoods die. O(log n) rounds w.h.p.
    """
    rng = rng if rng is not None else random.Random(0xB0B)
    state = [0] * n  # 0 live, 1 in MIS, 2 dead
    t.charge(n, 1)
    live = list(range(n))
    mis: set[int] = set()

    guard = 0
    max_rounds = 8 * (max(2, n).bit_length() + 2) + 64
    while live:
        guard += 1
        if guard > max_rounds:
            raise RuntimeError("luby MIS failed to converge (bug)")

        prio: dict[int, float] = {}

        def draw(v: int) -> None:
            t.op(1)
            prio[v] = rng.random()

        t.parallel_for(live, draw)

        winners: list[int] = []

        def check(v: int) -> None:
            pv = prio[v]
            is_min = True
            for w in adj[v]:
                t.op(1)
                if state[w] == 0 and (
                    prio[w] < pv or (prio[w] == pv and w < v)
                ):
                    is_min = False
                    break
            t.op(1)
            if is_min:
                winners.append(v)

        t.parallel_for(live, check)

        def commit(v: int) -> None:
            t.op(1)
            state[v] = 1
            mis.add(v)
            for w in adj[v]:
                t.op(1)
                if state[w] == 0:
                    state[w] = 2

        t.parallel_for(winners, commit)

        new_live = []

        def filter_v(v: int) -> None:
            t.op(1)
            if state[v] == 0:
                new_live.append(v)

        t.parallel_for(live, filter_v)
        live = new_live

    _obs_metrics().counter("luby.mis_rounds").inc(guard)
    return mis


# ----------------------------------------------------------------------
# verification oracles (test support)
# ----------------------------------------------------------------------

def is_maximal_matching(
    n: int, edges: Sequence[tuple[int, int]], chosen: Sequence[int]
) -> bool:
    used = [False] * n
    for eid in chosen:
        u, v = edges[eid]
        if used[u] or used[v]:
            return False  # not a matching
        used[u] = True
        used[v] = True
    for u, v in edges:
        if not used[u] and not used[v]:
            return False  # not maximal
    return True


def is_mis(adj: Sequence[Sequence[int]], chosen: set[int]) -> bool:
    for v in chosen:
        for w in adj[v]:
            if w in chosen:
                return False  # not independent
    for v in range(len(adj)):
        if v not in chosen and not any(w in chosen for w in adj[v]):
            return False  # not maximal
    return True
