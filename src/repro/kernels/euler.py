"""Vectorized Euler-tour construction over a static forest.

The dynamic Euler-tour forests in :mod:`repro.structures.euler_tour` splay
one pointer at a time; when a whole tree (or forest) is known up front —
tree edges as arrays — the tour can be built in a constant number of
sorts and gathers (the classic PRAM construction, [TV85]):

* every tree edge ``{u, v}`` becomes two arcs ``u->v`` (id ``e``) and
  ``v->u`` (id ``e + m``);
* sorting arcs by ``(tail, head)`` groups each vertex's outgoing arcs;
* the successor of arc ``a = (u, v)`` is the outgoing arc of ``v`` that
  cyclically follows the twin arc ``(v, u)`` in ``v``'s group.

``euler_tour_successors`` returns that successor permutation (one cycle
per tree of the forest); ranking it with the vectorized Wyllie kernel —
the same Lemma 2.4 reduction the paper uses — roots the forest. The flat
absorption structure charges exactly that build
(:func:`repro.structures.flat_absorb._charge_tour_build`) while rooting
its trees by one traversal.
"""

from __future__ import annotations

import numpy as np

from ..pram.tracker import Tracker, log2_ceil

__all__ = ["euler_tour_successors"]


def euler_tour_successors(
    n: int,
    edge_u,
    edge_v,
    t: Tracker | None = None,
) -> np.ndarray:
    """Successor permutation of the Euler tour(s) of a forest.

    ``edge_u``/``edge_v`` are the ``m`` tree-edge endpoint arrays; arc
    ``e`` is ``u->v``, arc ``e + m`` its twin. Returns ``succ`` of length
    ``2m`` with ``succ[a]`` the arc following ``a`` on its tree's cyclic
    tour. Isolated vertices contribute no arcs.
    """
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    m = int(edge_u.size)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    tail = np.concatenate([edge_u, edge_v])
    head = np.concatenate([edge_v, edge_u])
    order = np.lexsort((head, tail))  # arcs grouped by tail vertex
    pos = np.empty(2 * m, dtype=np.int64)  # arc -> slot in the grouping
    pos[order] = np.arange(2 * m, dtype=np.int64)
    deg = np.bincount(tail, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    # twin(a) = a + m (mod 2m); successor of a = next arc out of head[a]
    # cyclically after the twin inside head[a]'s group
    twin = np.concatenate(
        [np.arange(m, 2 * m, dtype=np.int64), np.arange(m, dtype=np.int64)]
    )
    hv = tail[twin]  # == head
    off = pos[twin] - indptr[hv]
    nxt = (off + 1) % deg[hv]
    succ = order[indptr[hv] + nxt]
    if t is not None:
        t.charge(2 * m, log2_ceil(max(2, 2 * m)) + 1)  # sort + gathers
    return succ

