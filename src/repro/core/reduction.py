"""Path reduction (Lemma 4.1) with the Appendix A singular cases.

One reduction round merges long and short paths via :func:`merge_paths`,
then commits one of three outcomes:

* **normal** — the merged set ``L ∪ P ∪ S − L*`` is still a separator:
  at least ``|P_1|`` short paths had their length halved; iterate.
* **too few matched** (``|P_1| < k/12``, Lemma A.2) — one of
  ``L̂ ∪ P ∪ S`` or ``L ∪ P ∪ Ŝ`` is a separator with at most ``23k/24``
  paths; return it.
* **discarded-parts problem** (merged set no longer separates, Lemma A.1)
  — ``L ∪ Ŝ ∪ P`` is a separator with at most ``37k/48`` paths; return it.

Separator checks use the parallel connected-components algorithm (JáJá, as
Appendix A prescribes): ``O(m log n)`` work and polylog depth per check.

Deviation knob (documented in DESIGN.md §5): the paper's worst-case
constants (⁴⁷⁄₄₈ shrink per round, 48√n path target) make the asymptotics
clean but are far from tight; ``reduce_paths`` keeps iterating while it
makes progress, which reaches the target in a handful of rounds in
practice. Correctness never rests on the constants — every committed path
set is explicitly *checked* to be a separator.
"""

from __future__ import annotations

import random
from itertools import chain

from ..graph.graph import Graph
from ..graph.connectivity import connected_components, component_sizes
from ..listrank.ranking import prefix_sums_on_lists
from ..obs import runtime as obs
from ..pram.tracker import Tracker, log2_ceil
from .path_merge import MergeResult, merge_paths

__all__ = ["paths_form_separator", "reduce_paths", "split_short_at"]


def paths_form_separator(
    g: Graph, t: Tracker, paths: list[list[int]], backend: str | None = None
) -> bool:
    """Check Definition 2.3 for the union of the given paths, in parallel.

    Work O(m log n), span polylog (Appendix A / JáJá).  On an array
    engine the complement is a boolean mask over the CSR endpoint
    arrays and the connectivity check runs on
    :func:`~repro.kernels.components.components_arrays` — no induced
    ``Graph`` is built.  The verdict is the tracked engine's; the charges
    are those the array connectivity kernels make on the induced graph.
    """
    from ..kernels.dispatch import is_array_backend, resolve_backend

    kb = resolve_backend(backend)
    if is_array_backend(kb):
        return _separates_arrays(g, t, paths)
    q: set[int] = set()
    total = 0
    for p in paths:
        total += len(p)
        q.update(p)
    keep = [v for v in range(g.n) if v not in q]
    # parallel flatten + filter: O(n + total) work, O(log) span
    t.charge(g.n + total, log2_ceil(max(2, g.n)) + 1)
    if not keep:
        return True
    index = {v: i for i, v in enumerate(keep)}
    sub_edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    h = Graph(len(keep), sub_edges)
    t.charge(g.m, log2_ceil(max(2, g.m)))
    labels = connected_components(h, t, backend=kb)
    sizes = component_sizes(labels, t, backend=kb)
    # 2*size <= n is the exact integer form of size <= n/2
    return 2 * max(sizes.values()) <= g.n


def _separates_arrays(g: Graph, t: Tracker, paths: list[list[int]]) -> bool:
    """:func:`paths_form_separator` on the array engines.

    The complement's vertices keep their relative order, so compacting
    the CSR endpoint arrays through the mask's prefix count yields the
    same edge list, in the same edge-id order, as the complement's
    induced subgraph — hence the same labels and the same
    contraction-round charges as connectivity on that subgraph.
    """
    import numpy as np

    from ..kernels.components import components_arrays

    total = sum(map(len, paths))
    inq = np.zeros(g.n, dtype=bool)
    if total:
        inq[np.fromiter(chain.from_iterable(paths), np.int64, total)] = True
    t.charge(g.n + total, log2_ceil(max(2, g.n)) + 1)
    keep = ~inq
    k = int(np.count_nonzero(keep))
    if k == 0:
        return True
    pos = np.cumsum(keep) - 1
    c = g.csr()
    both = keep[c.edge_u] & keep[c.edge_v]
    t.charge(g.m, log2_ceil(max(2, g.m)))
    labels, _ = components_arrays(
        k, pos[c.edge_u[both]], pos[c.edge_v[both]], False, t
    )
    # component_sizes' histogram charge
    t.charge(k, log2_ceil(max(2, k)))
    return 2 * int(np.bincount(labels).max()) <= g.n


def split_short_at(
    s: list[int], pos: int
) -> tuple[list[int], list[int]]:
    """Split short path ``s = s' y s''`` at index ``pos`` (y = s[pos]).

    Returns ``(absorbed_outward, remainder)``: the *longer* half ordered
    outward from y (so it can be appended after y on the merged path), and
    the shorter half in its own path order.
    """
    before = s[:pos]
    after = s[pos + 1:]
    if len(before) >= len(after):
        return list(reversed(before)), after
    return after, before


def _assemble_merged(
    g: Graph,
    t: Tracker,
    res: MergeResult,
    short_paths: list[list[int]],
    rng: random.Random,
    backend: str | None = None,
) -> tuple[list[list[int]], list[list[int]]]:
    """Commit the merge: returns (merged long paths, remaining shorts)."""
    # rank the joined shorts simultaneously (Lemma 2.4, as Section 4.1.2
    # prescribes) to find each contact vertex's position
    joined = sorted(res.joined_shorts)
    vertices: list[int] = []
    prev_of: dict[int, int | None] = {}
    for si in joined:
        s = short_paths[si]
        prev = None
        for v in s:
            vertices.append(v)
            prev_of[v] = prev
            prev = v
    t.charge(len(vertices), log2_ceil(max(2, len(vertices) + 2)) + 1)
    ranks = prefix_sums_on_lists(
        t, vertices, prev_of, lambda v: 1, method="anderson-miller", rng=rng,
        backend=backend,
    )

    merged_longs: list[list[int]] = []
    consumed_shorts: dict[int, list[int]] = {}
    n_long_work = 0
    for st in res.longs:
        n_long_work += 1
        if st.status == "succeeded":
            si, y = st.joined_short
            pos = ranks[y] - 1
            absorbed, remainder = split_short_at(short_paths[si], pos)
            merged_longs.append(st.cur + [y] + absorbed)
            consumed_shorts[si] = remainder
        elif st.status == "active":
            merged_longs.append(list(st.cur))
        # dead paths contribute nothing (their vertices are L* discards)

    t.charge(n_long_work, log2_ceil(max(2, n_long_work + 2)) + 1)
    remaining_shorts: list[list[int]] = []
    for si, s in enumerate(short_paths):
        if si in consumed_shorts:
            if consumed_shorts[si]:
                remaining_shorts.append(consumed_shorts[si])
        else:
            remaining_shorts.append(list(s))
    t.charge(
        len(short_paths), log2_ceil(max(2, len(short_paths) + 2)) + 1
    )
    return merged_longs, remaining_shorts


def _fallback_candidates(
    res: MergeResult,
    long_paths: list[list[int]],
    short_paths: list[list[int]],
) -> dict[str, list[list[int]]]:
    """The Appendix A candidate path sets, all in pre-merge (original)
    forms plus the connector extensions as standalone paths."""
    extensions = [
        st.extension for st in res.longs if st.extension
    ]
    joined_longs = [
        list(res.longs[i].orig) for i in res.p1 + res.p2
    ]
    joined_shorts = [list(short_paths[si]) for si in sorted(res.joined_shorts)]
    all_longs = [list(l) for l in long_paths]
    all_shorts = [list(s) for s in short_paths]
    return {
        # Lemma A.2 first candidate: L̂ ∪ P ∪ S
        "lhat_p_s": joined_longs + extensions + all_shorts,
        # Lemma A.2 second candidate == Lemma A.1 candidate: L ∪ P ∪ Ŝ
        "l_p_shat": all_longs + extensions + joined_shorts,
    }


def reduce_paths(
    g: Graph,
    t: Tracker,
    paths: list[list[int]],
    rng: random.Random,
    goal: float,
    max_inner: int | None = None,
    neighbor_structure: str = "tournament",
    backend: str | None = None,
) -> list[list[int]]:
    """Reduce the number of separator paths toward ``goal``.

    ``paths`` must form a separator of g; the returned set does too, with
    strictly fewer paths (unless already at/below goal). Raises if no
    progress can be made (which would indicate a bug — the Appendix A case
    analysis guarantees progress).
    """
    if max_inner is None:
        max_inner = 12 * max(2, g.n).bit_length() + 16
    n = g.n

    k_start = len(paths)
    if k_start <= goal:
        return paths

    # longest quarter become the long paths (parallel sort, D4-style)
    from ..pram.sorting import parallel_sort

    order = parallel_sort(
        t, range(len(paths)), key=lambda i: -len(paths[i])
    )
    n_long = max(1, k_start // 4)
    long_paths = [list(paths[i]) for i in order[:n_long]]
    short_paths = [list(paths[i]) for i in order[n_long:]]
    t.charge(sum(map(len, paths)), 1)

    for _ in range(max_inner):
        k = len(long_paths) + len(short_paths)
        if k <= goal or k < 2:
            break
        if not short_paths or not long_paths:
            break
        obs.metrics().counter("reduction.iterations").inc()
        obs.metrics().histogram("reduction.k").observe(k)
        with obs.span("reduction.iteration", k=k, longs=len(long_paths)):
            threshold = max(1.0, min(n ** 0.5, k / 8))
            res = merge_paths(
                g, t, long_paths, short_paths, rng, threshold,
                neighbor_structure=neighbor_structure, backend=backend,
            )

            if res.steps == 0:
                # the long pool fell below the matching threshold (this
                # happens below the paper's 48√n regime, where we keep
                # pushing toward a tighter target): return so the caller
                # re-partitions L/S fresh
                break

            if 12 * len(res.p1) < k:  # exact integer form of |P1| < k/12
                # Lemma A.2: too few matched paths — one of the two
                # candidates is a strictly smaller separator. (Below the
                # 48√n regime the counting guarantee can fail benignly; we
                # then return the current set and let the caller
                # re-partition.)
                cands = _fallback_candidates(res, long_paths, short_paths)
                for cand in (cands["lhat_p_s"], cands["l_p_shat"]):
                    cand = [p for p in cand if p]
                    if len(cand) < k and paths_form_separator(
                        g, t, cand, backend=backend
                    ):
                        return cand
                break

            merged_longs, remaining_shorts = _assemble_merged(
                g, t, res, short_paths, rng, backend=backend
            )
            committed = merged_longs + remaining_shorts
            if paths_form_separator(g, t, committed, backend=backend):
                new_k = len(committed)
                if new_k >= k and sum(map(len, remaining_shorts)) >= sum(
                    map(len, short_paths)
                ):
                    raise RuntimeError("reduction made no progress (bug)")
                long_paths, short_paths = merged_longs, remaining_shorts
                continue

            # Lemma A.1: the discarded parts broke the separator
            cand = [
                p
                for p in _fallback_candidates(res, long_paths, short_paths)[
                    "l_p_shat"
                ]
                if p
            ]
            if not paths_form_separator(g, t, cand, backend=backend):
                raise RuntimeError("Lemma A.1 violated: fallback fails (bug)")
            return cand

    return long_paths + short_paths
