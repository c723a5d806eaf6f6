"""Vectorized rooted-forest build for the flat absorption structure.

The flat batch Euler-tour structure (:mod:`repro.structures.flat_absorb`)
does not maintain its level-0 forest augmentations by per-rotation
splays: after the initial build it patches ``parent`` by O(1) surgery on
cuts and path-reversal on links, and relabels only the pieces a batch
splits off. This module is the *initial* whole-forest build: given a
forest as endpoint arrays, compute rooted-forest ``parent``/``depth``/``label`` arrays in
a constant number of sorts, gathers and pointer-jumping rounds — the
same [TV85] + Wyllie (Lemma 2.4) toolkit as :mod:`repro.kernels.euler`,
applied to a whole forest at once:

* every tree's cyclic tour comes from ``euler_tour_successors``;
* each cycle's *leader* (minimum arc id) is found by pointer-doubling
  min-aggregation, and the cycle is rooted at the leader's tail;
* ranking the cut cycles with ``wyllie_ranks`` orients every edge: the
  arc of an edge that appears *earlier* in its tour is the parent-to-child
  arc, giving ``parent`` by one scatter;
* ``depth`` is a segmented prefix sum of +-1 over the tour order;
* ``label`` (the canonical min-vertex-id component representative, the
  same convention as ``connected_components``) is a per-cycle min.
"""

from __future__ import annotations

import numpy as np

from ..pram.tracker import Tracker, log2_ceil
from .euler import euler_tour_successors
from .listrank import wyllie_ranks

__all__ = ["rebuild_rooted_forest"]


def rebuild_rooted_forest(
    parent: np.ndarray,
    depth: np.ndarray,
    label: np.ndarray,
    members: np.ndarray,
    edge_u,
    edge_v,
    t: Tracker | None = None,
) -> None:
    """Recompute ``parent``/``depth``/``label`` in place for ``members``.

    ``members`` are the vertices of the affected components; ``edge_u``/
    ``edge_v`` their surviving tree edges (every endpoint must be a
    member). Isolated members become roots of singleton trees
    (``parent=-1, depth=0, label=self``). Each tree is rooted at the tail
    of its tour's leader arc; ``label`` is the tree's minimum vertex id —
    the rooting is internal (tree paths are root-independent) while the
    label matches the canonical ``connected_components`` convention.
    """
    n = int(parent.shape[0])
    members = np.sort(np.asarray(members, dtype=np.int64))
    if members.size:
        parent[members] = -1
        depth[members] = 0
        label[members] = members
    eu = np.asarray(edge_u, dtype=np.int64)
    ev = np.asarray(edge_v, dtype=np.int64)
    m = int(eu.size)
    if m == 0:
        return
    succ = euler_tour_successors(n, eu, ev, t)
    a2 = 2 * m
    tail = np.concatenate([eu, ev])
    head = np.concatenate([ev, eu])
    twin = np.concatenate(
        [np.arange(m, a2, dtype=np.int64), np.arange(m, dtype=np.int64)]
    )
    # cycle leader (min arc id) by pointer-doubling min-aggregation
    rep = np.arange(a2, dtype=np.int64)
    jump = succ.copy()
    rounds = a2.bit_length() + 1
    for _ in range(rounds):
        np.minimum(rep, rep[jump], out=rep)
        jump = jump[jump]
    # cut every cycle before its leader and rank from there (1-based)
    prev = np.empty(a2, dtype=np.int64)
    prev[succ] = np.arange(a2, dtype=np.int64)
    prev[np.unique(rep)] = -1
    ranks = wyllie_ranks(prev, np.ones(a2, dtype=np.int64), t)
    # the earlier arc of each twin pair runs parent -> child
    forward = ranks < ranks[twin]
    fwd = np.flatnonzero(forward)
    parent[head[fwd]] = tail[fwd]
    # depth = segmented prefix sum of +-1 in (cycle, rank) order
    order = np.lexsort((ranks, rep))
    delta = np.where(forward, np.int64(1), np.int64(-1))[order]
    csum = np.cumsum(delta)
    rep_sorted = rep[order]
    starts = np.flatnonzero(
        np.diff(rep_sorted, prepend=rep_sorted[0] - 1)
    )
    base = np.zeros(starts.size, dtype=np.int64)
    base[1:] = csum[starts[1:] - 1]
    seg_flag = np.zeros(a2, dtype=np.int64)
    seg_flag[starts] = 1
    seg_id = np.cumsum(seg_flag) - 1
    pref = csum - base[seg_id]
    inv_order = np.empty(a2, dtype=np.int64)
    inv_order[order] = np.arange(a2, dtype=np.int64)
    depth[head[fwd]] = pref[inv_order[fwd]]
    # label = per-cycle min tail (canonical min-id representative)
    uniq, inv = np.unique(rep, return_inverse=True)
    cmin = np.full(uniq.size, n, dtype=np.int64)
    np.minimum.at(cmin, inv, tail)
    label[tail] = cmin[inv]
    if t is not None:
        lg = log2_ceil(max(2, a2)) + 1
        t.charge(a2 * rounds + members.size, rounds * lg)
