"""CSR-native induced-subgraph extraction + trusted ``Graph`` assembly.

The driver re-extracts induced subgraphs at every recursion level
(``core.dfs._induced``); tracked, that is a dict membership test per
scanned edge plus a per-edge validation loop in ``Graph.__init__``.
Here the whole extraction is three array passes over the parent graph's
cached CSR view:

1. membership — scatter the new ids into a position LUT over the parent
   id space (``pos[vertices] = arange(k)``, ``-1`` elsewhere);
2. gather — read the CSR rows of ``vertices`` and keep the arcs whose
   owner is the canonical min endpoint and whose other endpoint is a
   member.  Row order then slot order is exactly what the tracked
   ``core.dfs._induced`` emits (outer loop over ``vertices``, inner over
   ``adj`` in edge-id order), so the resulting graphs are identical
   objects, not merely isomorphic;
3. assemble — :func:`assemble_graph` builds ``edges``/``adj``/
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
    g: Graph, vertices: Sequence[int]
) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph of ``g`` on ``vertices``, relabeled to ``0..k-1``.

    Returns ``(H, mapping)`` with ``mapping[old] = new``.  Edge ids are
    numbered as ``core.dfs._induced`` numbers them: stable by the
    position of the canonical min endpoint in ``vertices``.
    """
    vs = list(vertices)
    k = len(vs)
    mapping = {v: i for i, v in enumerate(vs)}
    c = g.csr()
    pos = np.full(g.n, -1, dtype=np.int64)
    # output-sensitive: gather only the CSR rows of ``vertices``
    # (O(k + sum deg), not O(m)) — the driver extracts every component
    # of every level from the same parent graph, so a full-edge-list
    # scan per call is quadratic over the recursion. Within a CSR block
    # the role-u arcs (owner == edge_u < nbr) precede the role-v arcs and
    # run in edge-id order, so keeping ``owner < nbr`` slots in (row,
    # slot) order IS the tracked emission order: outer loop over
    # ``vertices``, inner over ``adj`` restricted to canonical-min
    # endpoints.
    su = sv = np.empty(0, dtype=np.int64)
    if k:
        varr = np.fromiter(vs, dtype=np.int64, count=k)
        pos[varr] = np.arange(k, dtype=np.int64)
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
    return assemble_graph(k, su, sv), mapping
