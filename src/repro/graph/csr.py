"""Compressed sparse row (CSR) graph view, numpy-backed.

The list-of-lists :class:`~repro.graph.graph.Graph` is the PRAM shared
memory the instrumented algorithms index into; this module provides the
HPC-idiomatic *static* view: two numpy arrays (``indptr``, ``indices``)
with contiguous adjacency — cache-friendly traversal, O(1) degree reads,
and vectorized whole-graph predicates. Used by the fast verification
helpers and available to downstream users who want to feed trees into
numpy pipelines.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Immutable CSR adjacency of an undirected graph."""

    __slots__ = ("n", "m", "indptr", "indices", "edge_u", "edge_v", "_arcs")

    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.m = g.m
        #: canonical edge endpoint arrays (u < v)
        if g.m:
            edges = np.asarray(g.edges, dtype=np.int64)
            self.edge_u = np.ascontiguousarray(edges[:, 0])
            self.edge_v = np.ascontiguousarray(edges[:, 1])
        else:
            self.edge_u = np.empty(0, dtype=np.int64)
            self.edge_v = np.empty(0, dtype=np.int64)
        # adjacency by argsort of the doubled endpoint arrays: each edge
        # contributes the arcs u->v and v->u; a stable sort on the source
        # groups every vertex's neighbors contiguously (all numpy, no
        # per-vertex Python fill loop). Neighbor order within a block is
        # by (endpoint role, edge id), not Graph.adj insertion order —
        # nothing in the package depends on CSR block order.
        src = np.concatenate([self.edge_u, self.edge_v])
        dst = np.concatenate([self.edge_v, self.edge_u])
        self.indptr = np.zeros(g.n + 1, dtype=np.int64)
        if g.n:
            np.cumsum(np.bincount(src, minlength=g.n), out=self.indptr[1:])
        self.indices = dst[np.argsort(src, kind="stable")]
        self._arcs: tuple[np.ndarray, ...] | None = None

    def sorted_arcs(self) -> tuple[np.ndarray, ...]:
        """Every edge as two arcs, sorted by ``(tail, head)``.

        Returns ``(tail, head, eid, twin)``: arc ``i`` runs from
        ``tail[i]`` to ``head[i]``, belongs to edge ``eid[i]``, and
        ``twin[i]`` is the index of its reverse arc.  Built on first use
        (one sort of the 2m arcs) and kept with the view, so every
        contraction of one graph starts from the same sorted arcs.
        """
        if self._arcs is None:
            m = self.m
            tail = np.concatenate([self.edge_u, self.edge_v])
            head = np.concatenate([self.edge_v, self.edge_u])
            # arcs i and i + m come from edge i; the codes are distinct
            # (no multi-edges), so any sort gives the same order
            order = np.argsort(tail * self.n + head)
            pos = np.empty(2 * m, dtype=np.int64)
            pos[order] = np.arange(2 * m, dtype=np.int64)
            twin = pos[(order + m) % max(1, 2 * m)]
            self._arcs = (tail[order], head[order], order % max(1, m), twin)
        return self._arcs

    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    def dfs_tree_valid(self, root: int, parent: dict[int, int | None]) -> bool:
        """Vectorized DFS-tree check: Euler intervals + one array pass.

        Equivalent to :func:`repro.core.verify.is_valid_dfs_tree` but with
        the per-edge ancestor test done as numpy boolean algebra — the
        oracle that stays fast at n ~ 10^5.
        """
        if parent.get(root, 0) is not None or root not in parent:
            return False
        children: dict[int, list[int]] = {}
        for v, p in parent.items():
            if p is None:
                if v != root:
                    return False
                continue
            children.setdefault(p, []).append(v)
        tin = np.full(self.n, -1, dtype=np.int64)
        tout = np.full(self.n, -1, dtype=np.int64)
        clock = 0
        stack: list[tuple[int, bool]] = [(root, False)]
        seen = 0
        while stack:
            u, done = stack.pop()
            if done:
                tout[u] = clock
                clock += 1
                continue
            if tin[u] != -1:
                return False  # revisit: cycle in the parent map
            tin[u] = clock
            clock += 1
            seen += 1
            stack.append((u, True))
            for w in children.get(u, ()):
                stack.append((w, False))
        if seen != len(parent):
            return False
        # spanning check: tree vertices == vertices reachable from root
        comp_mask = np.zeros(self.n, dtype=bool)
        frontier = [root]
        comp_mask[root] = True
        while frontier:
            u = frontier.pop()
            for w in self.neighbors(u):
                if not comp_mask[w]:
                    comp_mask[w] = True
                    frontier.append(int(w))
        in_tree = np.zeros(self.n, dtype=bool)
        in_tree[list(parent)] = True
        if not np.array_equal(comp_mask, in_tree):
            return False
        # tree edges must be graph edges
        for v, p in parent.items():
            if p is None:
                continue
            if not (self.neighbors(v) == p).any():
                return False
        if self.m == 0:
            return True
        # vectorized ancestor test over every edge inside the tree
        u, v = self.edge_u, self.edge_v
        both = in_tree[u] & in_tree[v]
        if not both.any():
            return True
        uu, vv = u[both], v[both]
        anc_uv = (tin[uu] <= tin[vv]) & (tout[vv] <= tout[uu])
        anc_vu = (tin[vv] <= tin[uu]) & (tout[uu] <= tout[vv])
        return bool(np.all(anc_uv | anc_vu))
