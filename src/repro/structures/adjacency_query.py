"""Active-neighbor query structure over a graph (Lemma 4.5).

For each vertex ``v`` the structure keeps a :class:`TournamentTree` over
``v``'s adjacency list (Lemma B.1), plus the edge-index array ``b`` that maps
each edge to its positions inside both endpoint adjacency lists. Invariant:
``u``'s entry in ``v``'s tree is active iff ``u`` is active in the graph.

Operations (paper bounds):

* ``make_inactive(vertices)`` — ``O((k + sum deg) log n)`` work,
  ``O(log n)`` span;
* ``query(vertices, t)`` — for each listed vertex, up to ``t`` distinct
  *active* neighbors; ``O(k t log n)`` work, ``O(log n)`` span.

This is the structure that lets the path-merging step (Section 4.3) select
``2^i`` available neighbors per unmatched head without rescanning dead
adjacency — the ingredient that brings the work from Θ(m√n) down to Õ(m).
"""

from __future__ import annotations

from typing import Sequence

from ..graph.graph import Graph
from ..pram.tracker import Tracker
from .tournament import TournamentTree

__all__ = ["ActiveNeighborStructure"]


class ActiveNeighborStructure:
    """Per-vertex tournament trees with cross-edge position index."""

    __slots__ = ("g", "tracker", "trees", "active", "_positions")

    def __init__(self, g: Graph, tracker: Tracker | None = None) -> None:
        self.g = g
        self.tracker = tracker if tracker is not None else Tracker()
        t = self.tracker
        #: per-vertex tournament tree over its adjacency list (built in
        #: parallel: per-vertex builds are independent)
        self.trees: list[TournamentTree] = [None] * g.n  # type: ignore[list-item]

        def build(v: int) -> None:
            self.trees[v] = TournamentTree(g.adj[v], tracker=t)

        t.parallel_for(range(g.n), build)
        #: global vertex active flags
        self.active = [True] * g.n
        t.charge(g.n, 1)
        # the array "b": for edge eid = (u, v), position of v in u's list and
        # of u in v's list
        self._positions: list[tuple[int, int]] = [(-1, -1)] * g.m
        pos_seen: list[int] = [0] * g.n

        def index_vertex(v: int) -> None:
            for slot, eid in enumerate(g.adj_eids[v]):
                t.op(1)
                u, w = g.edges[eid]
                pu, pw = self._positions[eid]
                if v == u:
                    self._positions[eid] = (slot, pw)
                else:
                    self._positions[eid] = (pu, slot)

        t.parallel_for(range(g.n), index_vertex)
        del pos_seen

    # ------------------------------------------------------------------
    def is_active(self, v: int) -> bool:
        return self.active[v]

    # ------------------------------------------------------------------
    def make_inactive(self, vertices: Sequence[int]) -> None:
        """Deactivate ``vertices``: clear their entries in every neighbor's tree.

        Work O((k + sum_deg) log n), span O(log n): per-neighbor index lists
        are built from the edge-position array (no scanning of inactive
        entries), then each affected tree performs one batched update.
        """
        t = self.tracker
        g = self.g
        # collect, per neighboring vertex u, the list of positions in u's
        # adjacency list that must be cleared
        updates: dict[int, list[int]] = {}

        def gather(v: int) -> None:
            t.op(1)
            if not self.active[v]:
                raise ValueError(f"vertex {v} is already inactive")
            self.active[v] = False
            for slot, eid in enumerate(g.adj_eids[v]):
                t.op(1)
                u = g.other_endpoint(eid, v)
                # _positions[eid] = (index of edges[eid][1] in edges[eid][0]'s
                # list, index of edges[eid][0] in edges[eid][1]'s list)
                first_pos, second_pos = self._positions[eid]
                pos_in_u = first_pos if g.edges[eid][0] == u else second_pos
                updates.setdefault(u, []).append(pos_in_u)

        t.parallel_for(vertices, gather)

        def apply(u: int) -> None:
            self.trees[u].make_inactive(updates[u])

        t.parallel_for(sorted(updates), apply)

    def query(self, vertices: Sequence[int], t_count: int) -> list[list[int]]:
        """For each vertex, up to ``t_count`` distinct active neighbors."""
        t = self.tracker

        def one(v: int) -> list[int]:
            t.op(1)
            return self.trees[v].query(t_count)

        return t.parallel_for(vertices, one)

