"""Vectorized kernels for the Lemma 5.1 absorption structures.

PR 2's phase profiler showed the absorption phase — the HDT connectivity
forest, the RC-tree mirror, and the active-neighbor bookkeeping of
``structures/absorb_ds.py`` — dominates ``parallel_dfs`` wall clock under
both backends. The structures themselves are pointer machines (splay
tours, cluster dags) whose *reads* were canonicalized in this PR so that
their answers depend only on component contents; that makes the batch
entry points here safe to vectorize:

* ``forest_euler_tours`` — the [TV85] tour construction over a static
  spanning forest (one ``lexsort`` + gathers via
  :func:`repro.kernels.euler.euler_tour_successors`), feeding
  ``EulerTourForest.build_from_tours`` so HDT initialization builds
  balanced tour BSTs bottom-up instead of splaying ``n`` incremental
  links;
* ``nontree_counts_np`` — the per-vertex non-tree degree (``val1``) in
  one ``bincount``;
* ``rc_coin_row`` — the RC-tree compress coins of a whole level in one
  batch of 64-bit hash arithmetic, bit-identical to the scalar
  ``rc_tree._coin``.

All kernels charge the tracker in aggregate (PR 1 convention: the numpy
backend is the execution engine, the tracked backend the per-element
measurement instrument).
"""

from __future__ import annotations

import numpy as np

from ..pram.tracker import Tracker, log2_ceil
from .euler import euler_tour_successors

__all__ = [
    "forest_euler_tours",
    "nontree_counts_np",
    "rc_coin_row",
]


def forest_euler_tours(
    n: int,
    edge_u,
    edge_v,
    t: Tracker | None = None,
) -> list[list]:
    """Euler tour label sequences for every nontrivial tree of a forest.

    Returns one sequence per tree, interleaving vertex labels and directed
    arc labels ``(u, v)`` in the format ``EulerTourForest.build_from_tours``
    expects: each vertex appears exactly once, immediately before one of
    its outgoing arcs. The successor permutation comes from the vectorized
    [TV85] kernel; the cycle walk that linearizes it is the O(m) scatter
    the PRAM construction does with one list-ranking pass.
    """
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    m = int(edge_u.size)
    if m == 0:
        return []
    succ = euler_tour_successors(n, edge_u, edge_v, t).tolist()
    tails = np.concatenate([edge_u, edge_v]).tolist()
    heads = np.concatenate([edge_v, edge_u]).tolist()
    visited = [False] * (2 * m)
    emitted = [False] * n
    tours: list[list] = []
    for a0 in range(2 * m):
        if visited[a0]:
            continue
        seq: list = []
        a = a0
        while not visited[a]:
            visited[a] = True
            u = tails[a]
            if not emitted[u]:
                emitted[u] = True
                seq.append(u)
            seq.append((u, heads[a]))
            a = succ[a]
        tours.append(seq)
    if t is not None:
        t.charge(2 * m, log2_ceil(max(2, 2 * m)) + 1)
    return tours


def nontree_counts_np(n: int, nt_u, nt_v) -> np.ndarray:
    """Per-vertex count of non-tree edges (the level-0 ``val1`` values)."""
    ends = np.concatenate(
        [
            np.asarray(nt_u, dtype=np.int64),
            np.asarray(nt_v, dtype=np.int64),
        ]
    )
    return np.bincount(ends, minlength=n)


# -- RC-tree compress coins (bit-identical to rc_tree._coin) -------------

_M = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = 0xD1B54A32D192ED03
_C3 = np.uint64(0xBF58476D1CE4E5B9)
_C4 = np.uint64(0x94D049BB133111EB)


def rc_coin_row(n: int, level: int, salt: int) -> np.ndarray:
    """Boolean coins for all vertices ``0..n-1`` at one RC level.

    Replicates the scalar splitmix-style hash of
    :func:`repro.structures.rc_tree._coin` with wraparound ``uint64``
    array arithmetic; parity with the scalar version is asserted in
    ``tests/test_kernels.py``.
    """
    with np.errstate(over="ignore"):
        v = np.arange(n, dtype=np.uint64)
        x = v * _C1 + np.uint64((level * _C2 + salt) & 0xFFFFFFFFFFFFFFFF)
        x = (x ^ (x >> np.uint64(30))) * _C3
        x = (x ^ (x >> np.uint64(27))) * _C4
        return ((x ^ (x >> np.uint64(31))) & np.uint64(1)).astype(bool)
