"""The combined batch-dynamic structure of Lemma 5.1.

This is the engine of the absorption phase (Theorem 3.2). It operates on
``H = G - T'`` — the part of the current component not yet absorbed into the
partial DFS tree — and supports, with the bounds of Lemma 5.1:

* ``find_cc()`` — a component of ``H`` still containing a separator vertex
  (represented by such a vertex), or ``None`` for *Success*. O(1).
* ``lowest_node(q)`` — in q's component, the vertex ``v`` adjacent to the
  *lowest* (= deepest, as in "lowest common ancestor") vertex ``x`` of
  ``T'``; returns ``(v, x, depth_x)``. Attaching at the deepest adjacent
  tree vertex is what keeps T' an initial segment: by Observation 2.2 a
  component's T'-neighbors are pairwise comparable, so they line one
  root-to-leaf path and every other neighbor is an ancestor of ``x``. The
  paper gets O(1) from an augmentation read; ours is an O(log n) aggregate
  read at the forest root — same polylog budget.
* ``find_path_s2p(q, v)`` — a tree path from ``v`` to the nearest separator
  vertex ``q'`` (all internal vertices outside Q); work O(|p| log n), span
  O(log n + height).
* ``batch_delete(deleted)`` — remove absorbed vertices; maintains the HDT
  spanning forest (replacement edges), the path-query mirror, separator
  flags, and the lowest-neighbor augmentation of surviving neighbors. Work
  O(|E(p)| log^3 n) amortized.

Internally this combines, per Section 6.2:

* the parallelized HDT connectivity forest (:class:`HDTConnectivity`,
  Lemma 6.1) — maintains the maximal spanning forest of ``H`` under
  deletions and reports replacement edges;
* a *path-query mirror* of the level-0 forest — the splay link-cut forest
  (:data:`Mirror`), whose first-flagged-on-path answers are a pure
  function of (forest, flags), so the numpy engine's rebuilt
  :class:`~repro.structures.flat_absorb.FlatAbsorptionStructure`
  reproduces them byte for byte. The rake-and-compress tree of [AAB+20]
  (Lemma 6.2, Section 6.4) stays a standalone structure; Appendix C's
  experiments run it here by rebinding :data:`Mirror`;
* the two augmentations of Section 6.2 — the separator flag (on the mirror,
  powering the FindPathS2P descent) and the lowest-neighbor key (a min
  aggregate on the HDT level-0 Euler tour forest).

:func:`make_absorption_structure` picks the structure by execution engine
alone: this class under the tracked engine (the lockstep reference),
the flat array structure under numpy.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from ..graph.graph import Graph
from ..kernels.dispatch import is_array_backend, resolve_backend
from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker
from .hdt import HDTConnectivity
from .link_cut import LinkCutForest

__all__ = ["AbsorptionStructure", "Mirror", "make_absorption_structure"]

#: the path-query mirror class, built as ``Mirror(n, tracker=t)``. The
#: link-cut forest's first-flagged-on-path answers are a pure function of
#: (forest, flags); the RC hierarchy's depend on its cluster-id allocation
#: history, so no rebuilt representation reproduces them. Rebinding this
#: (to :class:`~repro.structures.rc_tree.RCForest`) is how the Appendix C
#: experiments run the rake-and-compress mirror; the driver never does.
Mirror = LinkCutForest


class AbsorptionStructure:
    """Lemma 5.1 structure over a (component) graph ``g``.

    Vertices are the ids of ``g``. The caller marks separator vertices with
    :meth:`set_separator`, publishes "this vertex has a T'-neighbor at depth
    d" facts with :meth:`set_tree_neighbor`, and drives the absorption loop
    with the four Lemma 5.1 operations.
    """

    def __init__(
        self,
        g: Graph,
        tracker: Tracker | None = None,
        global_of: dict[int, int] | None = None,
    ) -> None:
        self.t = tracker if tracker is not None else Tracker()
        self.g = g
        #: optional alias map: when a vertex is deleted (absorbed into T'),
        #: its surviving neighbors record the witness under this name —
        #: lets a recursive caller keep witnesses in a global id space.
        self.global_of = global_of
        self.hdt = HDTConnectivity(g, tracker=self.t)
        self.mirror = Mirror(g.n, tracker=self.t)
        self.mirror.batch_update([], self.hdt.spanning_forest_edges())
        #: separator vertices still present in H
        self.q_remaining: set[int] = set()
        #: lazy-deletion min-heap over q_remaining, so find_cc returns the
        #: canonical (minimum-id) separator vertex instead of set order
        self._q_heap: list[int] = []
        #: v -> (depth, tree_vertex) of v's lowest-depth T' neighbor
        self.low_witness: dict[int, tuple[int, int]] = {}
        #: vertices already deleted (absorbed into T')
        self.deleted: set[int] = set()
        # observability instruments (bound once; see docs/observability.md)
        self._c_bd = _obs_metrics().counter("absorb.batch_deletes")
        self._h_bd_edges = _obs_metrics().histogram("absorb.batch_delete_edges")

    # ------------------------------------------------------------------
    # setup / incremental facts
    # ------------------------------------------------------------------
    def set_separator(self, vertices: Iterable[int]) -> None:
        """Flag the given vertices as separator (Q) vertices."""
        t = self.t
        vs = list(vertices)

        def flag(v: int) -> None:
            t.op(1)
            if v in self.deleted:
                raise ValueError(f"vertex {v} already absorbed")
            if v not in self.q_remaining:
                self.q_remaining.add(v)
                heappush(self._q_heap, v)
            self.mirror.set_flag(v, True)

        t.parallel_for(vs, flag)

    def unset_separator(self, vertices: Iterable[int]) -> None:
        """Remove the separator flag (used when reduction discards paths)."""
        t = self.t
        vs = list(vertices)

        def unflag(v: int) -> None:
            t.op(1)
            self.q_remaining.discard(v)
            self.mirror.set_flag(v, False)

        t.parallel_for(vs, unflag)

    def set_tree_neighbor(self, v: int, tree_vertex: int, depth: int) -> None:
        """Record that v (in H) is adjacent to T'-vertex ``tree_vertex`` at
        ``depth``; keeps only the *deepest* witness (lowest in the tree).

        The Euler-tour min-key aggregate stores the negated depth so the
        component argmin yields the deepest tree neighbor."""
        t = self.t
        t.op(1)
        if v in self.deleted:
            return
        cur = self.low_witness.get(v)
        if cur is None or depth > cur[0]:
            self.low_witness[v] = (depth, tree_vertex)
            self.hdt.ett[0].set_vertex_key(v, -depth)

    # ------------------------------------------------------------------
    # Lemma 5.1 operations
    # ------------------------------------------------------------------
    def find_cc(self) -> int | None:
        """A separator vertex identifying a component with Q-vertices left,
        or None (= the paper's *Success*). O(1) amortized.

        Canonical: always the *minimum-id* remaining separator vertex (a
        lazy-deletion heap; each stale pop is paid for by the flag that
        pushed it), never whatever CPython set iteration yields first.
        """
        self.t.op(1)
        if not self.q_remaining:
            return None
        heap = self._q_heap
        while heap[0] not in self.q_remaining:
            self.t.op(1)
            heappop(heap)
        return heap[0]

    def lowest_node(self, q: int) -> tuple[int, int, int]:
        """In q's component: ``(v, x, depth_x)`` where v's T'-neighbor x is
        the component's lowest (deepest) adjacent tree vertex."""
        self.t.op(1)
        hit = self.hdt.ett[0].component_min_key(q)
        if hit is None:
            raise RuntimeError(
                f"component of {q} has no vertex adjacent to T' "
                "(driver invariant violated)"
            )
        neg_depth, v = hit
        d2, x = self.low_witness[v]
        assert d2 == -neg_depth
        return v, x, d2

    def find_path_s2p(self, q: int, v: int) -> list[int]:
        """Tree path from ``v`` to the nearest separator vertex toward ``q``.

        Returns ``[v, ..., q']`` with all vertices before ``q'`` outside Q.
        If ``v`` itself is a separator vertex, returns ``[v]``.
        """
        self.t.op(1)
        prefix = self.mirror.path_prefix_to_first_flagged(v, q)
        if prefix is None:
            raise RuntimeError(
                f"no separator vertex on the tree path {v}..{q} "
                f"(but {q} is flagged — mirror out of sync)"
            )
        return prefix

    def batch_delete(self, deleted: Sequence[tuple[int, int]]) -> None:
        """Delete absorbed vertices from H.

        ``deleted`` is a list of ``(vertex, depth_in_T')`` pairs — the
        vertices of the just-absorbed path ``p q l'`` with the depths they
        received in T'. Surviving H-neighbors learn their new lowest
        tree-neighbor, the spanning forest is repaired via HDT replacement
        edges, and the path-query mirror replays the forest changes.
        """
        t = self.t
        dead = [v for v, _ in deleted]
        dead_set = set(dead)
        depth_of = dict(deleted)

        # 1) snapshot surviving H-neighbors before the edges disappear.
        # Canonical reduction: each survivor keeps the (depth, vertex)
        # lex-max witness — deepest new tree neighbor, ties to the larger
        # absorbed vertex id — a scatter-max independent of the iteration
        # order of the incident sets.
        neighbor_updates: dict[int, tuple[int, int]] = {}

        def snapshot(v: int) -> None:
            t.op(1)
            if v in self.deleted:
                raise ValueError(f"vertex {v} deleted twice")
            d = depth_of[v]
            for eid in self.hdt.incident[v]:
                t.op(1)
                u, w = self.hdt.endpoints[eid]
                nb = w if u == v else u
                if nb in dead_set:
                    continue
                cur = neighbor_updates.get(nb)
                if cur is None or (d, v) > cur:
                    neighbor_updates[nb] = (d, v)

        t.parallel_for(dead, snapshot)

        # 2) delete all incident edges from the HDT structure (one batch)
        eids: set[int] = set()
        gathered = 0
        for v in dead:
            gathered += len(self.hdt.incident[v])
            eids.update(self.hdt.incident[v])
        t.charge(len(dead) + gathered, 8)
        self._c_bd.value += 1
        self._h_bd_edges.observe(gathered)
        changes = self.hdt.batch_delete(sorted(eids))

        # 3) replay level-0 forest changes into the path-query mirror as one
        # batch. Cuts before links is always valid here: every link adds an
        # edge of the final forest, and no cut removes a just-linked edge
        # (replacement edges are never part of the same deletion batch).
        t.charge(len(changes), 1)
        self.mirror.batch_update(
            [(c.u, c.v) for c in changes if c.kind == "cut"],
            [(c.u, c.v) for c in changes if c.kind == "link"],
        )

        # 4) bookkeeping for the dead vertices
        def retire(v: int) -> None:
            t.op(1)
            self.deleted.add(v)
            self.q_remaining.discard(v)
            self.mirror.set_flag(v, False)
            self.hdt.ett[0].set_vertex_key(v, None)
            self.low_witness.pop(v, None)

        t.parallel_for(dead, retire)

        # 5) surviving neighbors learn their new lowest tree neighbor
        alias = self.global_of

        def update(nb: int) -> None:
            t.op(1)
            d, w = neighbor_updates[nb]
            self.set_tree_neighbor(nb, alias[w] if alias is not None else w, d)

        t.parallel_for(sorted(neighbor_updates), update)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check HDT forest vs mirror vs flags (test support).

        Diagnostics only — never runs on the tracked path, so the scans
        below are outside Theorem 1.1's cost budget and uncharged."""
        forest = set(  # repro-lint: disable=R001
            tuple(sorted(p)) for p in self.hdt.spanning_forest_edges()
        )
        mirror_edges = set(self.mirror.edge_set())
        assert forest == mirror_edges, "mirror out of sync with HDT forest"
        for q in self.q_remaining:  # repro-lint: disable=R001
            assert q not in self.deleted
            assert self.mirror.get_flag(q)


def make_absorption_structure(
    g: Graph,
    tracker: Tracker | None = None,
    global_of: dict[int, int] | None = None,
    kernel_backend: str | None = None,
):
    """The Lemma 5.1 structure of the execution engine: this module's
    :class:`AbsorptionStructure` under tracked, and
    :class:`~repro.structures.flat_absorb.FlatAbsorptionStructure` under
    numpy. Both return byte-identical answers (differential fuzz gate)."""
    if is_array_backend(resolve_backend(kernel_backend)):
        from .flat_absorb import FlatAbsorptionStructure

        return FlatAbsorptionStructure(
            g, tracker=tracker, global_of=global_of,
            kernel_backend=kernel_backend,
        )
    return AbsorptionStructure(g, tracker=tracker, global_of=global_of)
