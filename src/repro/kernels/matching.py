"""Vectorized Luby maximal matching (Lemma 2.5).

Each round of the tracked local-minimum variant in
:mod:`repro.matching.luby` becomes four whole-array passes over the live
edge set:

1. draw one random priority per live edge;
2. per-vertex minimum over incident live edges — a scatter-min
   (``np.minimum.at``) over the live edges;
3. an edge joins the matching iff it is the minimum at *both* endpoints;
4. matched vertices kill their incident edges (one boolean gather).

Two entry points with different randomness contracts:

* :func:`maximal_matching_np` — the drop-in behind
  ``maximal_matching(..., backend="numpy")``.  It draws its per-round
  priorities in **lockstep** with the tracked backend (same
  ``random.Random`` stream, via :mod:`repro.kernels.rng`) and selects
  winners by the exact ``(priority, eid)`` total order the tracked code
  tie-breaks with — so for a given ``rng`` state the two backends return
  the *identical* matching and leave the generator in the identical
  state.  This is what makes whole-pipeline runs (``parallel_dfs``)
  byte-identical across backends.
* :func:`maximal_matching_arrays` / :func:`maximal_matching_graph` —
  the raw array kernel over a ``numpy.random.Generator``; fastest, but
  its matchings are not comparable to the tracked backend's.

A constant fraction of live edges dies per round in expectation, so
``O(log m)`` rounds w.h.p. — identical round structure, different engine.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker, log2_ceil
from .rng import LockstepUniform, derived_generator

__all__ = [
    "maximal_matching_arrays",
    "maximal_matching_np",
    "maximal_matching_graph",
]


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(edges, np.ndarray):  # an (m, 2) endpoint array
        return (
            np.ascontiguousarray(edges[:, 0], dtype=np.int64),
            np.ascontiguousarray(edges[:, 1], dtype=np.int64),
        )
    m = len(edges)
    if m == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    # fromiter over a flattened chain is ~2.5x faster than np.asarray on a
    # large list of tuples (no per-row sequence protocol dispatch)
    flat = np.fromiter(
        itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * m
    )
    pairs = flat.reshape(m, 2)
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


# array-level raw kernel, not a graph-level dispatch operation (the
# registered surface is maximal_matching_np / maximal_matching_graph)
def maximal_matching_arrays(  # repro-lint: disable=R004
    t: Tracker | None,
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    gen: np.random.Generator,
) -> np.ndarray:
    """Maximal matching over endpoint arrays; returns matched edge ids."""
    m = int(edge_u.size)
    matched = np.zeros(n, dtype=bool)
    live = np.arange(m, dtype=np.int64)
    chosen: list[np.ndarray] = []
    logn = log2_ceil(max(2, n)) + 1

    guard = 0
    max_rounds = 8 * (max(2, m).bit_length() + 2) + 64
    while live.size:
        guard += 1
        if guard > max_rounds:
            raise RuntimeError("luby matching failed to converge (bug)")
        k = live.size
        u = edge_u[live]
        v = edge_v[live]
        prio = gen.random(k)
        best = np.full(n, np.inf)
        # float scatter-min is safe here: the raw kernel promises only
        # *a* maximal matching (no cross-backend identity), and a
        # priority collision is caught and redone on ranks below
        np.minimum.at(best, u, prio)  # repro-lint: disable=R005
        np.minimum.at(best, v, prio)  # repro-lint: disable=R005
        local_min = (best[u] == prio) & (best[v] == prio)
        winners = live[local_min]
        if winners.size and np.bincount(
            np.concatenate([edge_u[winners], edge_v[winners]]), minlength=n
        ).max() > 1:  # pragma: no cover - needs a float priority collision
            # a priority tie elected two edges at one vertex; redo the
            # round with exact ranks in the (priority, eid) total order
            rank = np.empty(k, dtype=np.int64)
            # ranks in the (priority, eid) total order: the float only
            # seeds an exact integer tie-break, so ordering is total
            rank[np.lexsort((live, prio))] = np.arange(k)  # repro-lint: disable=R005
            best_r = np.full(n, k, dtype=np.int64)
            np.minimum.at(best_r, u, rank)
            np.minimum.at(best_r, v, rank)
            local_min = (best_r[u] == rank) & (best_r[v] == rank)
            winners = live[local_min]
        if winners.size:
            chosen.append(winners)
            matched[edge_u[winners]] = True
            matched[edge_v[winners]] = True
        live = live[~(matched[u] | matched[v])]
        if t is not None:
            # per round: draw + scatter-min + select + filter over k live
            # edges, each O(1) span + the min-combining tree
            t.charge(4 * k, 4 + logn + log2_ceil(max(2, k)))
    if t is not None:
        t.charge(n, 1)  # matched-flag initialization
    # recorded after the round loop: obs calls stay out of graph-sized
    # loops in kernels/ (lint rule R006)
    _obs_metrics().counter("luby.calls").inc()
    _obs_metrics().counter("luby.rounds").inc(guard)
    if not chosen:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chosen)


def maximal_matching_np(
    t: Tracker | None,
    n: int,
    edges: Sequence[tuple[int, int]],
    rng: random.Random | None = None,
    _scatter=None,
) -> list[int]:
    """Drop-in for :func:`repro.matching.luby.maximal_matching`.

    ``edges`` is a sequence of pairs or an ``(m, 2)`` integer array.

    Byte-compatible with the tracked backend: each round draws one
    priority per live edge from the *same* ``rng`` stream the tracked
    code would consume (in live order), and winners are the per-vertex
    minima in the ``(priority, eid)`` total order — the tracked
    tie-break.  Identical matching, identical ``rng`` state afterwards.

    ``_scatter`` (private) swaps out the per-round rank scatter-min:
    called as ``_scatter(u, v, rank, fill)`` it must return the same
    per-vertex rank minima computed inline below — the parallel backend
    supplies a tiled version merged with ``np.minimum.reduce``.
    """
    rng = rng if rng is not None else random.Random(0xA11CE)
    edge_u, edge_v = _edge_arrays(edges)
    m = int(edge_u.size)
    matched = np.zeros(n, dtype=bool)
    live = np.arange(m, dtype=np.int64)
    chosen: list[np.ndarray] = []
    logn = log2_ceil(max(2, n)) + 1

    guard = 0
    max_rounds = 8 * (max(2, m).bit_length() + 2) + 64
    with LockstepUniform(rng) as uni:
        while live.size:
            guard += 1
            if guard > max_rounds:
                raise RuntimeError("luby matching failed to converge (bug)")
            k = live.size
            u = edge_u[live]
            v = edge_v[live]
            prio = uni.draw(k)
            # per-vertex lexicographic min of (priority, eid): rank each
            # live edge in that total order, then scatter-min the ranks —
            # the float never decides a winner alone, eid breaks ties
            # exactly as the tracked backend does
            rank = np.empty(k, dtype=np.int64)
            rank[np.lexsort((live, prio))] = np.arange(k)  # repro-lint: disable=R005
            if _scatter is not None:
                best = _scatter(u, v, rank, k)
            else:
                best = np.full(n, k, dtype=np.int64)
                np.minimum.at(best, u, rank)
                np.minimum.at(best, v, rank)
            winners = live[(best[u] == rank) & (best[v] == rank)]
            if winners.size:
                chosen.append(winners)
                matched[edge_u[winners]] = True
                matched[edge_v[winners]] = True
            live = live[~(matched[u] | matched[v])]
            if t is not None:
                # per round: draw + scatter-min + select + filter over k
                # live edges, each O(1) span + the min-combining tree
                t.charge(4 * k, 4 + logn + log2_ceil(max(2, k)))
    if t is not None:
        t.charge(n, 1)  # matched-flag initialization
    # recorded after the round loop: obs calls stay out of graph-sized
    # loops in kernels/ (lint rule R006)
    _obs_metrics().counter("luby.calls").inc()
    _obs_metrics().counter("luby.rounds").inc(guard)
    if not chosen:
        return []
    return np.concatenate(chosen).tolist()


def maximal_matching_graph(
    t: Tracker | None,
    g,
    rng: random.Random | None = None,
) -> list[int]:
    """Maximal matching of a :class:`~repro.graph.graph.Graph`.

    Reads the endpoint arrays from the graph's cached CSR view
    (:meth:`Graph.csr`), so repeated matchings on one graph never
    re-materialize the arrays.
    """
    rng = rng if rng is not None else random.Random(0xA11CE)
    gen = derived_generator(rng)
    c = g.csr()
    return maximal_matching_arrays(t, g.n, c.edge_u, c.edge_v, gen).tolist()
