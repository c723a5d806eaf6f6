"""CSR-native induced-subgraph extraction + trusted ``Graph`` assembly.

The driver re-extracts induced subgraphs at every recursion level
(``core.dfs._induced``, ``Graph.subgraph``); tracked, that is a dict
membership test per scanned edge plus a per-edge validation loop in
``Graph.__init__``.  Here the whole extraction is four array passes over
the parent graph's cached CSR view:

1. membership — scatter the new ids into a position LUT over the parent
   id space (``pos[vertices] = arange(k)``, ``-1`` elsewhere);
2. filter — keep edge ids whose both endpoint positions are ``>= 0``;
3. order — ``order="edge"`` keeps ascending edge-id order (what
   ``Graph.subgraph`` emits); ``order="vertex"`` stable-sorts by the
   position of the canonical min endpoint (what ``core.dfs._induced``
   emits: outer loop over ``vertices``, inner over ``adj`` in edge-id
   order) — both reproduce the tracked emission order *exactly*, so the
   resulting graphs are identical objects, not merely isomorphic;
4. assemble — :func:`assemble_graph` builds ``edges``/``adj``/
   ``adj_eids`` with one ``np.lexsort`` over the doubled endpoint arrays
   (within a vertex, neighbors in edge-id order — the ``_add_edge``
   append order) and hands them to ``Graph.from_trusted_arrays``, which
   skips the per-edge range/self-loop/duplicate validation the inputs
   make impossible by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graph.graph import Graph
from ..pram.tracker import Tracker, log2_ceil

__all__ = ["assemble_graph", "induced_subgraph_np"]


def assemble_graph(n: int, new_u: np.ndarray, new_v: np.ndarray) -> Graph:
    """A :class:`Graph` from trusted endpoint arrays in final edge-id order.

    The caller guarantees ``0 <= new_u, new_v < n``, no self-loops and no
    duplicate edges (an induced subgraph of a valid graph is one).
    Produces the identical ``edges``/``adj``/``adj_eids`` layout the
    incremental constructor would: canonical ``(min, max)`` edge tuples,
    adjacency in edge-id order.
    """
    m = int(new_u.size)
    if m == 0:
        return Graph.from_trusted_arrays(n, [], [[] for _ in range(n)], [[] for _ in range(n)])
    cu = np.minimum(new_u, new_v)
    cv = np.maximum(new_u, new_v)
    edges = list(zip(cu.tolist(), cv.tolist()))
    # doubled arcs; lexsort (src major, eid minor) groups each vertex's
    # incident arcs contiguously in edge-id order == _add_edge appends
    src = np.concatenate([cu, cv])
    dst = np.concatenate([cv, cu])
    eid2 = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.lexsort((eid2, src))
    dst_l = dst[order].tolist()
    eid_l = eid2[order].tolist()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    ind = indptr.tolist()
    adj = [dst_l[ind[i] : ind[i + 1]] for i in range(n)]
    adj_eids = [eid_l[ind[i] : ind[i + 1]] for i in range(n)]
    return Graph.from_trusted_arrays(n, edges, adj, adj_eids)


def induced_subgraph_np(
    g: Graph,
    vertices: Sequence[int],
    order: str = "vertex",
    t: Tracker | None = None,
) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph of ``g`` on ``vertices``, relabeled to ``0..k-1``.

    Returns ``(H, mapping)`` with ``mapping[old] = new``, like
    ``Graph.subgraph``.  ``order`` selects the edge-id numbering of the
    result: ``"edge"`` matches ``Graph.subgraph`` (parent edge-id
    order), ``"vertex"`` matches ``core.dfs._induced`` (stable by the
    position of the canonical min endpoint in ``vertices``).
    """
    if order not in ("vertex", "edge"):
        raise ValueError(f"unknown induced-subgraph order {order!r}")
    vs = list(vertices)
    k = len(vs)
    mapping = {v: i for i, v in enumerate(vs)}
    c = g.csr()
    pos = np.full(g.n, -1, dtype=np.int64)
    if k:
        varr = np.fromiter(vs, dtype=np.int64, count=k)
        pos[varr] = np.arange(k, dtype=np.int64)
    if order == "vertex":
        # output-sensitive: gather only the CSR rows of ``vertices``
        # (O(k + sum deg), not O(m)) — the driver extracts every
        # component of every level from the same parent graph, so a
        # full-edge-list scan per call is quadratic over the recursion.
        # Within a CSR block the role-u arcs (owner == edge_u < nbr)
        # precede the role-v arcs and run in edge-id order, so keeping
        # ``owner < nbr`` slots in (row, slot) order IS the tracked
        # emission order: outer loop over ``vertices``, inner over
        # ``adj`` restricted to canonical-min endpoints.
        su = sv = np.empty(0, dtype=np.int64)
        if k:
            indptr = c.indptr
            starts = indptr[varr]
            counts = indptr[varr + 1] - starts
            total = int(counts.sum())
            if total:
                base = np.repeat(starts, counts)
                offs = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                owners = np.repeat(varr, counts)
                dsts = c.indices[base + offs]
                keep = (owners < dsts) & (pos[dsts] >= 0)
                su = pos[owners[keep]]
                sv = pos[dsts[keep]]
        if t is not None:
            t.charge(k + int(c.m), log2_ceil(max(2, k)) + 1)
        return assemble_graph(k, su, sv), mapping
    pu = pos[c.edge_u]
    pv = pos[c.edge_v]
    keep = (pu >= 0) & (pv >= 0)
    su = pu[keep]
    sv = pv[keep]
    if t is not None:
        t.charge(k + int(c.m), log2_ceil(max(2, k)) + 1)
    return assemble_graph(k, su, sv), mapping
