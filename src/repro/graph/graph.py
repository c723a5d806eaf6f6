"""Undirected graph representation used throughout the reproduction.

Vertices are integers ``0..n-1``. Edges are undirected, stored once in
canonical ``(min, max)`` orientation with a stable edge id equal to their
index in :attr:`Graph.edges`. Adjacency is a plain list-of-lists — the shared
memory layout a CRCW PRAM algorithm would index into.

The graph object itself is immutable after construction; dynamic algorithms
(HDT, the Lemma 4.5 structure, ...) layer their own mutable state on top of
these static ids.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = ["Graph"]


class Graph:
    """A static undirected graph.

    Parameters
    ----------
    n:
        Number of vertices (``0..n-1``).
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops are rejected; duplicate
        edges are rejected unless ``allow_multi=True`` (they are then
        deduplicated).
    """

    __slots__ = (
        "n",
        "edges",
        "adj",
        "adj_eids",
        "_edge_set",
        "_mutations",
        "_csr_cache",
        "_csr_mutations",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        *,
        allow_multi: bool = False,
    ) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        #: adj_eids[v][i] is the edge id of the edge to adj[v][i].
        self.adj_eids: list[list[int]] = [[] for _ in range(n)]
        #: lazily materialized (None until an edge lookup needs it)
        self._edge_set: set[tuple[int, int]] | None = set()
        #: mutation counter; the cached CSR view is keyed on it
        self._mutations = 0
        self._csr_cache = None
        self._csr_mutations = -1
        for u, v in edges:
            self._add_edge(u, v, allow_multi)

    @classmethod
    def from_trusted_arrays(
        cls,
        n: int,
        edges: list[tuple[int, int]],
        adj: list[list[int]],
        adj_eids: list[list[int]],
    ) -> "Graph":
        """Adopt pre-validated structures without the per-edge checks.

        The caller (:mod:`repro.kernels.subgraph`) guarantees what
        ``_add_edge`` would have enforced — endpoints in range, no
        self-loops, no duplicates, canonical ``(min, max)`` tuples,
        adjacency in edge-id order.  The duplicate-lookup set is
        materialized lazily on the first :meth:`has_edge`/mutation, so
        construction is O(1) beyond the arrays handed in.
        """
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g.adj = adj
        g.adj_eids = adj_eids
        g._edge_set = None
        g._mutations = len(edges)
        g._csr_cache = None
        g._csr_mutations = -1
        return g

    def _edge_lookup(self) -> set[tuple[int, int]]:
        if self._edge_set is None:
            self._edge_set = set(self.edges)
        return self._edge_set

    def _add_edge(self, u: int, v: int, allow_multi: bool) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        key = (u, v) if u < v else (v, u)
        edge_set = self._edge_lookup()
        if key in edge_set:
            if allow_multi:
                return
            raise ValueError(f"duplicate edge {key}")
        eid = len(self.edges)
        self._mutations += 1
        edge_set.add(key)
        self.edges.append(key)
        self.adj[u].append(v)
        self.adj_eids[u].append(eid)
        self.adj[v].append(u)
        self.adj_eids[v].append(eid)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> list[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_lookup()

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def other_endpoint(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def vertices(self) -> range:
        return range(self.n)

    def csr(self):
        """The numpy CSR view of this graph, cached.

        Repeated phases (kernel rounds, verification sweeps) share one
        :class:`~repro.graph.csr.CSRGraph`; the cache is invalidated by
        the mutation counter, so a graph still under construction (or one
        a subclass mutates) never serves a stale view.
        """
        if self._csr_cache is None or self._csr_mutations != self._mutations:
            from .csr import CSRGraph

            self._csr_cache = CSRGraph(self)
            self._csr_mutations = self._mutations
        return self._csr_cache

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build a graph sized to the largest endpoint mentioned."""
        n = 0
        for u, v in edges:
            n = max(n, u + 1, v + 1)
        return cls(n, edges)

    def subgraph(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``vertices``, edges in parent edge-id order.

        Returns ``(H, mapping)`` where ``mapping[old_id] = new_id``.
        """
        mapping = {v: i for i, v in enumerate(vertices)}
        sub_edges = []
        for u, v in self.edges:
            if u in mapping and v in mapping:
                sub_edges.append((mapping[u], mapping[v]))
        return Graph(len(vertices), sub_edges), mapping

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex ``v`` renamed to ``perm[v]`` (a permutation)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    # ------------------------------------------------------------------
    # Small sequential helpers (test/generator support, not the PRAM path)
    # ------------------------------------------------------------------
    def connected_components_seq(self) -> list[list[int]]:
        """Sequential connected components (oracle for tests/generators)."""
        seen = [False] * self.n
        comps: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.connected_components_seq()) == 1
