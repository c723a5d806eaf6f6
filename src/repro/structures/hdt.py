"""Batch-dynamic connectivity: parallelized Holm–de Lichtenberg–Thorup
(Lemma 6.1).

Maintains a maximal spanning forest of a graph undergoing vertex and edge
deletions. This is the structure behind ``BatchDelete`` in the absorption
phase (Section 5): when a separator path is absorbed into the partial DFS
tree, all its vertices (and their edges) leave ``G - T'`` and the forest
must find replacement edges for every severed tree edge.

Level scheme (standard HDT [HDLT01]):

* every live edge has a level ``l(e) in [0, L]`` with ``L = ceil(log2 n)``;
* ``F_i`` is the forest of tree edges with level >= i, stored as an Euler
  tour forest per level; ``F_0`` is *the* spanning forest;
* invariant: every component of ``F_i`` has at most ``n / 2^i`` vertices;
* invariant: the endpoints of any level-i edge are connected in ``F_i``.

Deleting a tree edge of level ``l`` searches for a replacement at levels
``l, l-1, ..., 0``: the smaller side's level-i tree edges are promoted to
``i+1`` (halving guarantees the invariant), then its level-i non-tree edges
are scanned — an edge leading outside reconnects the forest and stops the
search; an internal edge is promoted. Every promotion is paid for by the
edge's own O(log n) level budget, giving **amortized O(log² n) work per
deletion** — exactly the bound of Lemma 6.1, validated empirically in E6.

Batching: non-tree deletions and replacement searches in *different
components* of ``F_0`` proceed as parallel branches (the span the tracker
reports is their max). Tree deletions inside one component are processed
sequentially; the fully parallel intra-component search of [AABD19] is
substituted per DESIGN.md §2 (R2/D2) — the amortized-work bound, which is
what Theorem 1.1's work efficiency rests on, is unaffected.

``batch_delete`` returns the level-0 forest changes (cuts and replacement
links) so that a path-query mirror (Section 6.2) can apply them as its
own batch update.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.graph import Graph
from ..graph.connectivity import spanning_forest
from ..obs import runtime as obs
from ..pram.tracker import Tracker
from .euler_tour import EulerTourForest

__all__ = ["HDTConnectivity", "ForestChange"]


class ForestChange:
    """A level-0 spanning-forest change emitted by ``batch_delete``."""

    __slots__ = ("kind", "u", "v")

    def __init__(self, kind: str, u: int, v: int) -> None:
        self.kind = kind  # "cut" or "link"
        self.u = u
        self.v = v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ForestChange({self.kind}, {self.u}, {self.v})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ForestChange)
            and (self.kind, self.u, self.v) == (other.kind, other.u, other.v)
        )


class HDTConnectivity:
    """HDT dynamic connectivity over an initial :class:`Graph`."""

    def __init__(
        self,
        g: Graph,
        tracker: Tracker | None = None,
    ) -> None:
        self.t = tracker if tracker is not None else Tracker()
        self.n = g.n
        self.L = max(1, (max(2, g.n) - 1).bit_length())
        #: endpoints per edge id (the initial graph's edge ids)
        self.endpoints: list[tuple[int, int]] = list(g.edges)
        self.alive: list[bool] = [True] * g.m
        self.level: list[int] = [0] * g.m
        self.is_tree: list[bool] = [False] * g.m
        #: one Euler tour forest per level, created lazily as promotions
        #: reach higher levels (most components never leave level 0, and
        #: eagerly allocating all L + 2 forests is O(n log n) memory)
        self.ett: list[EulerTourForest] = [
            EulerTourForest(g.n, tracker=self.t)
        ]
        #: per level, per vertex: ids of live non-tree edges of that level
        #: (grows in lockstep with ``ett``)
        self.nontree: list[list[set[int]]] = [[set() for _ in range(g.n)]]
        #: live incident edge ids per vertex (for vertex deletion)
        self.incident: list[set[int]] = [set() for _ in range(g.n)]
        #: canonical (min,max) endpoint pair -> tree edge id, for the tagged
        #: arcs ``component_collect`` reports
        self._pair_to_eid: dict[tuple[int, int], int] = {}
        # observability instruments (bound once; see docs/observability.md)
        self._c_promote = obs.metrics().counter("hdt.promotions")
        self._h_scan = obs.metrics().histogram("hdt.replacement_scan")

        t = self.t
        _, forest = spanning_forest(g, t, backend="tracked")
        in_forest = [False] * g.m
        for eid in forest:
            in_forest[eid] = True
        t.charge(g.m, 1)

        def install(eid: int) -> None:
            t.op(1)
            u, v = self.endpoints[eid]
            self.incident[u].add(eid)
            self.incident[v].add(eid)
            self._pair_to_eid[(u, v)] = eid
            if in_forest[eid]:
                self.is_tree[eid] = True
                self.ett[0].link(u, v)
                self.ett[0].set_arc_val2(u, v, 1)
            else:
                self.nontree[0][u].add(eid)
                self.nontree[0][v].add(eid)

        t.parallel_for(range(g.m), install)

        def set_counts(v: int) -> None:
            t.op(1)
            k = len(self.nontree[0][v])
            if k:
                self.ett[0].set_vertex_val1(v, k)

        t.parallel_for(range(g.n), set_counts)

    def _grow(self, i: int) -> EulerTourForest:
        """The level-``i`` forest, materializing levels on first use."""
        while len(self.ett) <= i:
            self.ett.append(EulerTourForest(self.n, tracker=self.t))
            self.nontree.append([set() for _ in range(self.n)])
        return self.ett[i]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        return self.ett[0].connected(u, v)

    def component_size(self, v: int) -> int:
        return self.ett[0].component_size(v)

    def component_rep(self, v: int) -> int:
        return self.ett[0].component_rep(v)

    def spanning_forest_edges(self) -> list[tuple[int, int]]:
        """Current level-0 forest edges as sorted (u, v) pairs.

        Sorted so downstream consumers (the mirror's initial batch, tests)
        see a canonical order rather than dict order.
        """
        return sorted(
            pair for pair in self.ett[0].arcs if pair[0] < pair[1]
        )

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def batch_delete(self, eids: Sequence[int]) -> list[ForestChange]:
        """Delete a batch of edges; returns the level-0 forest changes."""
        with obs.span("hdt.batch_delete", batch=len(eids)):
            return self._batch_delete(eids)

    def _batch_delete(self, eids: Sequence[int]) -> list[ForestChange]:
        t = self.t
        changes: list[ForestChange] = []
        tree_eids: list[int] = []

        def classify(eid: int) -> None:
            t.op(1)
            if not self.alive[eid]:
                raise ValueError(f"edge {eid} already deleted")
            self.alive[eid] = False
            u, v = self.endpoints[eid]
            self.incident[u].discard(eid)
            self.incident[v].discard(eid)
            if self.is_tree[eid]:
                tree_eids.append(eid)
            else:
                l = self.level[eid]
                self.nontree[l][u].discard(eid)
                self.nontree[l][v].discard(eid)
                self.ett[l].add_vertex_val1(u, -1)
                self.ett[l].add_vertex_val1(v, -1)

        t.parallel_for(list(eids), classify)

        if not tree_eids:
            return changes

        # group tree deletions by their (stable) F_0 component representative;
        # groups touch disjoint trees, so they are parallel branches.
        groups: dict[int, list[int]] = {}

        def group(eid: int) -> None:
            t.op(1)
            rep = self.ett[0].component_rep(self.endpoints[eid][0])
            groups.setdefault(rep, []).append(eid)

        t.parallel_for(tree_eids, group)

        lg = (max(2, self.n) - 1).bit_length() + 1

        def handle_group(rep: int) -> list[ForestChange]:
            # The intra-group replacement search runs sequentially in this
            # simulation; [AABD19] processes the whole batch in O(log^3 n)
            # depth (Lemma 6.1; Lemma 5.1 states O(log^2 n) for BatchDelete).
            # Work below is fully measured; span is charged as the cited
            # batch bound (DESIGN.md §2, R2/D2 substitution).
            local: list[ForestChange] = []
            with t.primitive(lg * lg):
                for eid in groups[rep]:
                    local.extend(self._delete_tree_edge(eid))
            return local

        results = t.parallel_for(sorted(groups), handle_group)
        for local in results:
            changes.extend(local)
        return changes

    # ------------------------------------------------------------------
    def _delete_tree_edge(self, eid: int) -> list[ForestChange]:
        t = self.t
        u, v = self.endpoints[eid]
        l = self.level[eid]
        self.is_tree[eid] = False
        del self._pair_to_eid[(u, v)]
        changes = [ForestChange("cut", u, v)]
        # remove from every forest that contains it
        for i in range(l + 1):
            t.op(1)
            self.ett[i].cut(u, v)

        # search for a replacement from the edge's level downward. Every
        # choice below is *canonical* — a function of the level-i component
        # contents, never of the splay shapes or set iteration orders — so
        # the flat array forest (structures/flat_absorb.py) walks the
        # identical promotion/replacement sequence.
        for i in range(l, -1, -1):
            su = self.ett[i].component_size(u)
            sv = self.ett[i].component_size(v)
            t.op(1)
            small = u if su <= sv else v
            # one O(|small|) sweep replaces the aggregate-guided descents:
            # the small side's vertices, its level-i tree edges, and the
            # vertices holding level-i non-tree edges, all in one read
            verts, arcs2, marked = self.ett[i].component_collect(small)
            small_set = set(verts)
            nxt = self._grow(i + 1)

            # 1) promote all level-i tree edges of the small side to i+1
            #    (in sorted endpoint-pair order)
            self._c_promote.value += len(arcs2)
            for key in sorted(arcs2):
                a, b = key
                f = self._pair_to_eid[key]
                t.op(1)
                self.level[f] = i + 1
                self.ett[i].set_arc_val2(a, b, 0)
                nxt.link(a, b)
                nxt.set_arc_val2(a, b, 1)

            # 2) scan the small side's level-i non-tree edges in ascending
            #    edge-id order; stop at the first edge leaving the side.
            #    (Promotions above never cut ett[i], so "y is outside the
            #    small side" is exactly "y not in small_set".)
            cand: set[int] = set()
            for x in marked:
                s = self.nontree[i][x]
                t.op(1 + len(s))
                cand.update(s)
            replacement = None
            scanned = 0
            for f in sorted(cand):
                scanned += 1
                a, b = self.endpoints[f]
                t.op(1)
                # remove f from level i bookkeeping either way
                self.nontree[i][a].discard(f)
                self.nontree[i][b].discard(f)
                self.ett[i].add_vertex_val1(a, -1)
                self.ett[i].add_vertex_val1(b, -1)
                if a in small_set and b in small_set:
                    # internal to the small side: promote to level i+1
                    self._c_promote.value += 1
                    self.level[f] = i + 1
                    self.nontree[i + 1][a].add(f)
                    self.nontree[i + 1][b].add(f)
                    nxt.add_vertex_val1(a, 1)
                    nxt.add_vertex_val1(b, 1)
                else:
                    replacement = f
                    break
            self._h_scan.observe(scanned)

            if replacement is not None:
                a, b = self.endpoints[replacement]
                t.op(1)
                self.is_tree[replacement] = True
                self.level[replacement] = i
                self._pair_to_eid[(a, b)] = replacement
                for j in range(i + 1):
                    self.ett[j].link(a, b)
                self.ett[i].set_arc_val2(a, b, 1)
                changes.append(ForestChange("link", a, b))
                return changes

        return changes

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the HDT level invariants (test support; O(n m))."""
        n = self.n
        for eid, (u, v) in enumerate(self.endpoints):
            if not self.alive[eid]:
                continue
            l = self.level[eid]
            assert 0 <= l <= self.L + 1
            if self.is_tree[eid]:
                for i in range(l + 1):
                    assert self.ett[i].has_edge(u, v) or self.ett[i].has_edge(
                        v, u
                    ), f"tree edge {eid} missing from level {i}"
            else:
                assert eid in self.nontree[l][u]
                assert eid in self.nontree[l][v]
                assert self.ett[l].connected(u, v), (
                    f"non-tree edge {eid} endpoints not connected at level {l}"
                )
        # component size invariant (over the materialized levels)
        for i in range(len(self.ett)):
            seen: set[int] = set()
            for v in range(n):
                if v in seen:
                    continue
                comp = self.ett[i].component_vertices(v)
                seen.update(comp)
                assert len(comp) <= max(1, -(-n // (1 << i)) if i else n), (
                    f"level {i} component of size {len(comp)} exceeds n/2^i"
                )
