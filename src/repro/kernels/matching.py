"""Vectorized Luby maximal matching (Lemma 2.5).

Each round of the tracked local-minimum variant in
:mod:`repro.matching.luby` becomes four whole-array passes over the live
edge set:

1. draw one random priority per live edge;
2. per-vertex minimum over incident live edges — a scatter-min
   (``np.minimum.at``) over the live edges;
3. an edge joins the matching iff it is the minimum at *both* endpoints;
4. matched vertices kill their incident edges (one boolean gather).

:func:`maximal_matching_np` is the drop-in behind
``maximal_matching(..., backend="numpy")``.  It draws its per-round
priorities in **lockstep** with the tracked backend (same
``random.Random`` stream, via :mod:`repro.kernels.rng`) and selects
winners by the exact ``(priority, eid)`` total order the tracked code
tie-breaks with — so for a given ``rng`` state the two backends return
the *identical* matching and leave the generator in the identical
state.  This is what makes whole-pipeline runs (``parallel_dfs``)
byte-identical across backends.

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
from .rng import LockstepUniform

__all__ = ["maximal_matching_np"]


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


def maximal_matching_np(
    t: Tracker | None,
    n: int,
    edges: Sequence[tuple[int, int]],
    rng: random.Random | None = None,
) -> list[int]:
    """Drop-in for :func:`repro.matching.luby.maximal_matching`.

    ``edges`` is a sequence of pairs or an ``(m, 2)`` integer array.

    Byte-compatible with the tracked backend: each round draws one
    priority per live edge from the *same* ``rng`` stream the tracked
    code would consume (in live order), and winners are the per-vertex
    minima in the ``(priority, eid)`` total order — the tracked
    tie-break.  Identical matching, identical ``rng`` state afterwards.
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
            # per-vertex lexicographic min of (priority, eid), the tracked
            # backend's order: scatter-min the priorities (every draw lies
            # in [0, 1), so 2.0 marks a vertex without live edges). Unless
            # two edges tie at a vertex's minimum, that vertex's minimum
            # edge is the one at its minimum priority; each vertex with a
            # live edge has at least one such edge, so there is no tie iff
            # the edge ends at a minimum number the vertices with a live
            # edge. A tie is decided by eid: rank the live edges in
            # (priority, eid) order and scatter-min the ranks instead.
            # The float compares below are IEEE-754 double compares of
            # the very doubles the tracked backend compares with ``<``,
            # and they pick a winner only where no two priorities tie.
            best = np.full(n, 2.0)
            np.minimum.at(best, u, prio)  # repro-lint: disable=R005 (exact double min; ties go to the eid ranks)
            np.minimum.at(best, v, prio)  # repro-lint: disable=R005 (exact double min; ties go to the eid ranks)
            at_u = best[u] == prio
            at_v = best[v] == prio
            ends = np.count_nonzero(at_u) + np.count_nonzero(at_v)
            if ends == np.count_nonzero(best < 2.0):  # repro-lint: disable=R005 (2.0 lies above every draw in [0, 1))
                winners = live[at_u & at_v]
            else:
                rank = np.empty(k, dtype=np.int64)
                rank[np.lexsort((live, prio))] = np.arange(k)  # repro-lint: disable=R005
                best_rank = np.full(n, k, dtype=np.int64)
                np.minimum.at(best_rank, u, rank)
                np.minimum.at(best_rank, v, rank)
                winners = live[(best_rank[u] == rank) & (best_rank[v] == rank)]
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

