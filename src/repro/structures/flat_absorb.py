"""Array-native Lemma 5.1 structure: flat batch Euler-tour forest.

The tracked :class:`~repro.structures.absorb_ds.AbsorptionStructure`
maintains its forest augmentations (separator flags, lowest-neighbor
min-keys, nontree counts) inside splay-backed Euler-tour trees plus a
path-query mirror, paying O(log n) pointer chases *per rotation*. Under
the numpy backend that constant dominates end-to-end wall clock (E17/E18:
~95% of time in absorb + separator under both backends).

This module is the numpy-backend replacement, following the paper's own
Section 6.2 licence to *recompute the augmentations per batch* instead of
maintaining them per rotation:

* the level-0 spanning forest lives in flat numpy arrays — ``parent``
  (a rooted orientation, roots arbitrary), ``plev`` (the level of each
  vertex's parent edge) and ``label`` (min-id component representative).
  The initial build is one vectorized [TV85]+Wyllie pass
  (:func:`repro.kernels.tour_flat.rebuild_rooted_forest`); after that the
  orientation is maintained *surgically*: a cut resets the child's
  pointer in O(1), a replacement link re-roots the shallower side by one
  path reversal (each reversed edge carries its ``plev`` along), and a
  promotion bumps its child's ``plev`` — tree paths are
  root-independent, so the canonical answers never see the rooting;
* per batch only the pieces that split off are relabeled; a surviving
  component keeps its label (unless its min vertex left), its member
  array (a superset, compacted once half of it is stale) and its
  lowest-neighbor heap — a lazy min-heap of packed int64 keys, valid
  because an entry is checked against ``keys`` and ``label`` when it
  reaches the top;
* ``find_path_s2p`` is depth-free: two walkers climb the parent pointers
  alternately, marking their trails; the first trail collision is the
  LCA, so the walk costs O(|path|) pointer steps — not O(tree depth) —
  replacing the mirror's splay descent;
* the HDT level structure (:class:`FlatForest`) keeps per-level adjacency
  dicts and nontree sets. The replacement search takes an isolated
  endpoint inline, reuses the previous level's side when no level-i
  tree edge touches it, finds the small side by *alternating*
  bidirectional BFS (cost O(2 |small|), matching the tracked structure's
  O(|small|) sweep) that also collects the side's level-i tree edges,
  and hands sides of ``_ARRAY_SIDE`` or more vertices to one masked
  pointer-doubling pass over ``parent``/``plev``. Every path charges
  what the two-pass BFS + collect search charged (a function of the
  side's size and which endpoint won).

Byte-identical contract (PR 3 canonicalization, gated by the differential
fuzz harness): min-id ``find_cc``, lex argmin ``lowest_node``,
(depth, vertex) lex-max witnesses, sorted replacement scans, and the
first-flagged-on-tree-path ``find_path_s2p`` rule — the same answers as
``AbsorptionStructure(backend="flat")``, whose tracked mirror is the splay
link-cut forest (``path_prefix_to_first_flagged``).
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Iterable, Sequence

import numpy as np

from ..graph.graph import Graph
from ..graph.connectivity import spanning_forest
from ..kernels.dispatch import resolve_backend
from ..kernels.tour_flat import rebuild_rooted_forest
from ..obs import runtime as obs
from ..pram.tracker import Tracker
from .hdt import ForestChange

__all__ = ["FlatForest", "FlatAbsorptionStructure"]


#: sentinel for "vertex holds no key" in the packed key array; larger than
#: any real packed key (keys are ``-depth * n + v`` with depth >= 0)
NO_KEY = np.int64(1) << np.int64(62)

#: smallest F_i side the replacement search takes from arrays: a BFS
#: that has popped this many vertices on each side without exhausting
#: one hands over to one masked pointer-doubling pass over the level-0
#: tree (and every lower level of the same cut goes there directly)
_ARRAY_SIDE = 512


class FlatForest:
    """Batch HDT connectivity over flat arrays (numpy execution engine).

    Maintains the same level scheme as :class:`~repro.structures.hdt.
    HDTConnectivity` — levels, promotions, sorted replacement scans — and
    emits the identical :class:`ForestChange` sequence for any deletion
    batch, but represents the level-0 forest as ``parent``/``plev``/
    ``label`` arrays (surgical cut/link updates plus a relabel of the
    split-off pieces per batch) instead of splayed Euler tours.
    """

    def __init__(
        self,
        g: Graph,
        tracker: Tracker | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.t = tracker if tracker is not None else Tracker()
        self.n = g.n
        self.L = max(1, (max(2, g.n) - 1).bit_length())
        self.kernel_backend = resolve_backend(kernel_backend)
        self.endpoints: list[tuple[int, int]] = list(g.edges)
        self.alive: list[bool] = [True] * g.m
        self.level: list[int] = [0] * g.m
        self.is_tree: list[bool] = [False] * g.m
        #: per level, per vertex: ids of live non-tree edges of that level
        #: (level 0 dense, higher levels lazy — only promoted vertices
        #: ever materialize entries)
        self.nontree: list = [[set() for _ in range(g.n)]]
        #: per level, per vertex: {neighbor: eid} over tree edges of
        #: level >= i (the F_i adjacency; level 0 is *the* forest)
        self.tadj: list = [[{} for _ in range(g.n)]]
        #: live incident edge ids per vertex (for vertex deletion)
        self.incident: list[set[int]] = [set(eids) for eids in g.adj_eids]
        self._pair_to_eid: dict[tuple[int, int], int] = {}
        # rooted-forest arrays: parent is maintained surgically (cut =
        # O(1) child reset, link = one path reversal); plev[x] is the
        # level of the edge (x, parent[x]), -1 at roots; label is the
        # component's min vertex id, restamped for split pieces only
        self.parent = np.full(g.n, -1, dtype=np.int64)
        self.plev = np.full(g.n, -1, dtype=np.int64)
        self.label = np.arange(g.n, dtype=np.int64)
        #: scratch: vertex -> position in the component _side_arrays scans
        self._pos = np.zeros(g.n, dtype=np.int64)
        #: packed lowest-neighbor keys (key * n + v, NO_KEY if unset)
        self.keys = np.full(g.n, NO_KEY, dtype=np.int64)
        #: label -> lazy min-heap of packed keys; an entry is live while
        #: ``keys[v]`` still equals it and v still carries the label
        self._heaps: dict[int, list[int]] = {}
        #: label -> sorted vertex array, a superset of the component
        #: (vertices split away keep their slot until a compaction)
        self._members: dict[int, np.ndarray] = {}
        #: label -> exact component size
        self._size: dict[int, int] = {}
        #: (temporary token, size) of each unrepaired split of the
        #: in-flight batch, consumed by _finalize_batch
        self._pieces: list[tuple[int, int]] = []
        # observability: finalize passes/sizes replace rotation counts
        self._c_promote = obs.metrics().counter("hdt.promotions")
        self._h_scan = obs.metrics().histogram("hdt.replacement_scan")
        self._c_rebuild = obs.metrics().counter("flat.rebuilds")
        self._h_rebuild = obs.metrics().histogram("flat.rebuild_vertices")

        t = self.t
        _, forest = spanning_forest(g, t, backend=self.kernel_backend)
        for eid in forest:
            u, v = self.endpoints[eid]
            self.is_tree[eid] = True
            self._pair_to_eid[(u, v)] = eid
            self.tadj[0][u][v] = eid
            self.tadj[0][v][u] = eid
        nontree0 = self.nontree[0]
        for eid in range(g.m):
            if self.is_tree[eid]:
                continue
            u, v = self.endpoints[eid]
            nontree0[u].add(eid)
            nontree0[v].add(eid)
        # initial full build: parent orientation + canonical min-id labels
        # in one vectorized [TV85]+Wyllie pass (depth is scratch — path
        # queries are depth-free, see find_path_s2p)
        eu = np.fromiter(
            (self.endpoints[e][0] for e in forest),
            dtype=np.int64, count=len(forest),
        )
        ev = np.fromiter(
            (self.endpoints[e][1] for e in forest),
            dtype=np.int64, count=len(forest),
        )
        members = np.arange(g.n, dtype=np.int64)
        rebuild_rooted_forest(
            self.parent, np.zeros(g.n, dtype=np.int64), self.label,
            members, eu, ev, t,
        )
        self.plev[self.parent >= 0] = 0
        self._c_rebuild.value += 1
        self._h_rebuild.observe(g.n)
        self._group_members()
        lg = (max(2, g.n) - 1).bit_length() + 1
        t.charge(g.m + g.n, lg)

    def _group_members(self) -> None:
        """Build the label -> members map and sizes from ``label``."""
        order = np.argsort(self.label, kind="stable")
        sorted_labs = self.label[order]
        starts = np.flatnonzero(
            np.diff(sorted_labs, prepend=sorted_labs[:1] - 1)
        ).tolist() + [self.n]
        # O(#components) dict updates; the caller charges the build pass
        for gi in range(len(starts) - 1):  # repro-lint: disable=R001
            lo, hi = starts[gi], starts[gi + 1]
            lab = int(sorted_labs[lo])
            self._members[lab] = order[lo:hi]
            self._size[lab] = hi - lo

    # ------------------------------------------------------------------
    # per-batch finalize core
    # ------------------------------------------------------------------
    def _finalize_batch(self, affected: list[int], total: int) -> None:
        """Re-canonicalize labels after a deletion batch.

        ``affected`` holds the sorted pre-batch labels of every component
        that lost a tree edge and ``total`` their pre-batch sizes summed;
        ``self._pieces`` the (token, size) of every split the HDT search
        could not repair. Only the pieces are relabeled and get a fresh
        key heap; a pre-batch component keeps its label, member array and
        heap unless its min vertex left with a piece, in which case its
        remainder moves to its new min id. The charge is unchanged from
        a full rescan of the affected components: O(affected) work."""
        label = self.label
        keys = self.keys
        members = self._members
        for lab in affected:
            if label[lab] == lab:
                arr = members[lab]
                if arr.size > 2 * self._size[lab]:
                    members[lab] = arr[label[arr] == lab]
                continue
            arr = members.pop(lab)
            mem = arr[label[arr] == lab]
            mn = int(mem[0])
            label[mem] = mn
            members[mn] = mem
            self._size[mn] = self._size.pop(lab)
            heap = self._heaps.pop(lab, None)
            if heap:
                self._heaps[mn] = heap
        for token, size in self._pieces:
            # the slot counts the piece at its split (charged as such);
            # later splits of the same batch only shrink what carries
            # the token
            total += size
            arr = members.pop(token)
            del self._size[token]
            if size == 1:
                # an isolated vertex (the common case: an absorbed one)
                mn = int(arr[0])
                label[mn] = mn
                members[mn] = arr
                self._size[mn] = 1
                if keys[mn] != NO_KEY:
                    self._heaps[mn] = [int(keys[mn])]
                continue
            mem = arr[label[arr] == token]
            mn = int(mem[0])
            label[mem] = mn
            members[mn] = mem
            self._size[mn] = int(mem.size)
            sel = keys[mem]
            sel = sel[sel != NO_KEY]
            if sel.size:
                self._heaps[mn] = np.sort(sel).tolist()
        entries = len(affected) + len(self._pieces)
        self._pieces = []
        self._c_rebuild.value += 1
        self._h_rebuild.observe(total)
        # relabel + regroup + re-aggregate: O(affected) work, polylog span
        self.t.charge(total + entries, 8)

    # ------------------------------------------------------------------
    # queries (level-0 forest)
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        return u == v or self.label[u] == self.label[v]

    def component_rep(self, v: int) -> int:
        return int(self.label[v])

    def spanning_forest_edges(self) -> list[tuple[int, int]]:
        """Current level-0 forest edges as sorted (u, v) pairs."""
        return sorted(self._pair_to_eid)

    def edge_alive(self, eid: int) -> bool:
        return self.alive[eid]

    # ------------------------------------------------------------------
    # lowest-neighbor key aggregate
    # ------------------------------------------------------------------
    def set_vertex_key(self, v: int, key: int | None) -> None:
        """Set/clear v's lowest-neighbor key (key = -depth, lex argmin)."""
        packed = NO_KEY if key is None else key * self.n + v
        if packed == self.keys[v]:
            return
        self.keys[v] = packed
        lab = int(self.label[v])
        if key is not None:
            heappush(self._heaps.setdefault(lab, []), packed)
        elif self._size[lab] == 1:
            # an isolated vertex (a retired one, in the driver) has no
            # other key: drop its heap instead of keeping a dead entry
            self._heaps.pop(lab, None)

    def component_min_key(self, v: int) -> tuple[int, int] | None:
        """Lex-min ``(key, vertex)`` in v's component, or None."""
        lab = int(self.label[v])
        heap = self._heaps.get(lab)
        if not heap:
            return None
        keys, label, n = self.keys, self.label, self.n
        # drop entries whose key changed or whose vertex split away; each
        # entry is pushed once and popped at most once (lazy deletion)
        while heap:  # repro-lint: disable=R001
            top = heap[0]
            x = top % n
            if keys[x] == top and label[x] == lab:
                return top // n, x
            heappop(heap)
        return None

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def batch_delete(self, eids: Sequence[int]) -> list[ForestChange]:
        """Delete a batch of edges; returns the level-0 forest changes.

        Emits the identical canonical ForestChange sequence as the tracked
        :class:`HDTConnectivity`: tree deletions grouped by pre-batch
        component representative, groups in sorted-rep order, edges within
        a group in input (ascending eid) order, replacement scans sorted.
        """
        with obs.span("hdt.batch_delete", batch=len(eids)):
            return self._batch_delete(eids)

    def _batch_delete(self, eids: Sequence[int]) -> list[ForestChange]:
        changes: list[ForestChange] = []
        tree_eids: list[int] = []
        for eid in eids:
            if not self.alive[eid]:
                raise ValueError(f"edge {eid} already deleted")
            self.alive[eid] = False
            u, v = self.endpoints[eid]
            self.incident[u].discard(eid)
            self.incident[v].discard(eid)
            if self.is_tree[eid]:
                tree_eids.append(eid)
            else:
                lvl = self.level[eid]
                self.nontree[lvl][u].discard(eid)
                self.nontree[lvl][v].discard(eid)
        if not tree_eids:
            return changes
        groups: dict[int, list[int]] = {}
        for eid in tree_eids:
            rep = int(self.label[self.endpoints[eid][0]])
            groups.setdefault(rep, []).append(eid)
        total = sum(self._size[rep] for rep in groups)
        for rep in sorted(groups):
            for eid in groups[rep]:
                changes.extend(self._delete_tree_edge(eid))
        # re-canonicalize every touched component: replacement links never
        # leave the pre-batch component, so the pre-batch labels of the
        # deleted tree edges (the group keys) plus the recorded split
        # pieces cover every vertex whose label may have changed.
        self._finalize_batch(sorted(groups), total)
        self.t.charge(len(eids), 8)
        return changes

    def _delete_tree_edge(self, eid: int) -> list[ForestChange]:
        u, v = self.endpoints[eid]
        lvl = self.level[eid]
        self.is_tree[eid] = False
        del self._pair_to_eid[(u, v)]
        changes = [ForestChange("cut", u, v)]
        for i in range(lvl + 1):
            del self.tadj[i][u][v]
            del self.tadj[i][v][u]
        # O(1) parent surgery: the child side keeps its whole subtree
        # orientation and just becomes a root
        parent = self.parent
        if parent[v] == u:
            child = v
        else:
            assert parent[u] == v, "cut edge not parent-linked"
            child = u
        parent[child] = -1
        self.plev[child] = -1

        # charges accumulate locally and land once per cut (the tracker
        # only sums them)
        work, span = lvl + 1, 1
        side: list[int] = []
        side_set: set[int] | None = None
        won_u = True
        large = False
        endpoints, level, tadj, nontree = (
            self.endpoints, self.level, self.tadj, self.nontree,
        )
        observe = self._h_scan.observe
        for i in range(lvl, -1, -1):
            tadj_i = tadj[i]
            nontree_i = nontree[i]
            if i + 1 == len(tadj):
                self._grow(i + 1)
            # the small F_i side (ties to u), its exactly-level-i tree
            # edges and its vertices holding level-i non-tree edges.  The
            # charge is the alternating BFS's 2 per popped vertex (4|S|
            # when u wins, 4|S|+2 when v wins, 2 for an isolated endpoint)
            # plus a collect pass over the side's F_i tree, |S| + 2(|S|-1)
            if not tadj_i[u] or not tadj_i[v]:
                x = u if not tadj_i[u] else v
                won_u = x == u
                side, side_set, arcs = [x], {x}, []
                work += 3
            else:
                if side and self._closed(i, side):
                    # no level-i tree edge touches last level's side, so
                    # it is a whole F_i component; the other side only
                    # grew, so the same endpoint still wins
                    arcs = []
                else:
                    found = None if large else self._side_bfs(
                        i, u, v, _ARRAY_SIDE
                    )
                    if found is None:
                        # |S_i| >= |S_{i+1}|: every lower level is large too
                        large = True
                        found = self._side_arrays(i, u, v)
                    won_u, side, arcs = found
                    side_set = None
                work += 7 * len(side) - (2 if won_u else 0)
            marked = self._marked(i, side)
            # span: 8 + 8 for search and collect, 1 each for promote, scan
            span += 18

            # 1) promote the small side's level-i tree edges to i+1
            work += len(arcs) + 1
            if arcs:
                self._c_promote.value += len(arcs)
                self._promote(i, arcs)

            # 2) scan level-i non-tree edges in ascending eid order
            replacement = None
            scanned = 0
            if marked:
                if side_set is None:
                    side_set = set(side)
                cand: set[int] = set()
                for x in marked:
                    cand.update(nontree_i[x])
                nontree_up = nontree[i + 1]
                # usually the smallest candidate already leaves the side:
                # take it without sorting the rest
                first = min(cand)
                a, b = endpoints[first]
                head = (first,) if a not in side_set or b not in side_set else ()
                for f in head or sorted(cand):
                    scanned += 1
                    a, b = endpoints[f]
                    nontree_i[a].discard(f)
                    nontree_i[b].discard(f)
                    if a in side_set and b in side_set:
                        self._c_promote.value += 1
                        level[f] = i + 1
                        nontree_up[a].add(f)
                        nontree_up[b].add(f)
                    else:
                        replacement = f
                        break
                work += len(cand)
            observe(scanned)
            work += scanned + 1

            if replacement is not None:
                self.t.charge(work, span)
                a, b = endpoints[replacement]
                self.is_tree[replacement] = True
                level[replacement] = i
                self._pair_to_eid[(a, b)] = replacement
                for j in range(i + 1):
                    tadj[j][a][b] = replacement
                    tadj[j][b][a] = replacement
                self._link_parents(a, b, i)
                changes.append(ForestChange("link", a, b))
                return changes

        self.t.charge(work, span)
        # the component split for good: stamp the level-0 small side with
        # a unique temporary token; _finalize_batch turns tokens into
        # canonical min-id labels
        token = -(len(self._pieces) + 1)
        arr = np.array(side, dtype=np.int64)
        if len(side) > 1:
            arr.sort()
        cur = int(self.label[u])
        self.label[arr] = token
        self._members[token] = arr
        self._size[token] = len(side)
        self._size[cur] -= len(side)
        self._pieces.append((token, len(side)))
        return changes

    def _marked(self, i: int, side: list[int]) -> list[int]:
        """The vertices of ``side`` holding level-i non-tree edges."""
        nontree_i = self.nontree[i]
        # charged by the caller's collect pass; .get keeps the lazy
        # levels from materializing an empty set per probe
        if i:
            return [x for x in side if nontree_i.get(x)]  # repro-lint: disable=R001
        return [x for x in side if nontree_i[x]]  # repro-lint: disable=R001

    def _closed(self, i: int, side: list[int]) -> bool:
        """Whether no exactly-level-i tree edge touches ``side``."""
        tadj_i, tadj_up = self.tadj[i], self.tadj[i + 1]
        for x in side:  # repro-lint: disable=R001 (charged by the caller)
            if len(tadj_i[x]) != len(tadj_up[x]):
                return False
        return True

    def _promote(self, i: int, arcs: list[int]) -> None:
        """Move the tree edges ``arcs`` from level i to i+1."""
        level, endpoints, parent, plev = (
            self.level, self.endpoints, self.parent, self.plev,
        )
        tadj_up = self.tadj[i + 1]
        # charged by the caller (one unit per edge)
        for f in arcs:  # repro-lint: disable=R001
            a, b = endpoints[f]
            level[f] = i + 1
            tadj_up[a][b] = f
            tadj_up[b][a] = f
            plev[a if parent[a] == b else b] = i + 1

    def _link_parents(self, a: int, b: int, lvl: int) -> None:
        """Join two trees with the level-``lvl`` edge (a, b): re-root the
        endpoint whose root is nearer (path reversal), then hang it off
        the other side.

        The walk alternates (a first, ties to a), so it costs O(min root
        distance) pointer steps; the rooting is internal — tree paths are
        root-independent — so any deterministic choice is canonical. Each
        reversed edge carries its level along (``plev`` of the old child
        moves to the new child)."""
        parent, plev = self.parent, self.plev
        pa = [a]
        pb = [b]
        while True:
            nxt = int(parent[pa[-1]])
            if nxt == -1:
                chain, anchor = pa, b
                break
            pa.append(nxt)
            nxt = int(parent[pb[-1]])
            if nxt == -1:
                chain, anchor = pb, a
                break
            pb.append(nxt)
        for i in range(len(chain) - 1, 0, -1):
            parent[chain[i]] = chain[i - 1]
            plev[chain[i]] = plev[chain[i - 1]]
        parent[chain[0]] = anchor
        plev[chain[0]] = lvl
        self.t.charge(len(pa) + len(pb), 8)

    def _grow(self, i: int) -> None:
        while len(self.tadj) <= i:
            # lazy level: only vertices actually promoted to this level
            # ever materialize a slot (O(1) alloc, not O(n))
            self.t.charge(1, 1)
            self.tadj.append(defaultdict(dict))
            self.nontree.append(defaultdict(set))

    def _side_bfs(self, i: int, u: int, v: int, budget: int):
        """The small F_i side after cutting (u, v) by alternating BFS.

        u advances first: the first side to exhaust is the smaller one,
        ties going to u — the tracked structure's ``u if size(u) <=
        size(v) else v`` rule at O(2 |small|) cost. F_i components are
        trees, so every neighbor of a popped vertex except the one that
        reached it is new (no visited set), and each side's
        exactly-level-i tree edges are collected as they reach a vertex.
        Returns ``(u won, side, edge ids)``, or None once both sides have
        popped ``budget`` vertices. Uncharged: the caller charges by the
        side's size."""
        tadj_i = self.tadj[i]
        level = self.level
        # lists with read cursors instead of deques: this is the hottest
        # loop in the structure (one call per level per deleted tree edge)
        qu: list[int] = [u]
        fu: list[int] = [-1]
        au: list[int] = []
        iu = 0
        qv: list[int] = [v]
        fv: list[int] = [-1]
        av: list[int] = []
        iv = 0
        # dict order never reaches an output: the winner is decided by
        # size alone and its edges are only promoted
        while True:  # repro-lint: disable=R001 (charged by the caller)
            if iu == len(qu):
                return True, qu, au
            if iu == budget:
                return None
            x = qu[iu]
            px = fu[iu]
            iu += 1
            for nbr, f in tadj_i[x].items():  # repro-lint: disable=R001,R002
                if nbr != px:
                    qu.append(nbr)
                    fu.append(x)
                    if level[f] == i:
                        au.append(f)
            if iv == len(qv):
                return False, qv, av
            x = qv[iv]
            px = fv[iv]
            iv += 1
            for nbr, f in tadj_i[x].items():  # repro-lint: disable=R001,R002
                if nbr != px:
                    qv.append(nbr)
                    fv.append(x)
                    if level[f] == i:
                        av.append(f)

    def _side_arrays(self, i: int, u: int, v: int):
        """:meth:`_side_bfs` without a budget, from the level-0 arrays.

        F_i is a subforest of F_0, so within the current level-0 tree of
        u and v a vertex's F_i component is found by climbing ``parent``
        while ``plev >= i``: one masked pointer-doubling pass gives every
        vertex its F_i top, and the two sides are the vertices sharing
        u's and v's tops. The side's exactly-level-i tree edges are the
        parent edges of its members with ``plev == i``."""
        label = self.label
        lab = int(label[u])
        arr = self._members[lab]
        comp = arr[label[arr] == lab]
        pos = self._pos
        pos[comp] = np.arange(comp.size)
        pl = self.plev[comp]
        up = pos[np.where(pl >= i, self.parent[comp], comp)]
        # O(log depth) doubling rounds; uncharged like _side_bfs
        while True:  # repro-lint: disable=R001
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            up = nxt
        in_u = up == up[pos[u]]
        in_v = up == up[pos[v]]
        won_u = int(np.count_nonzero(in_u)) <= int(np.count_nonzero(in_v))
        mask = in_u if won_u else in_v
        side = comp[mask].tolist()
        kids = comp[mask & (pl == i)]
        tadj_i = self.tadj[i]
        pars = self.parent[kids].tolist()
        arcs = [tadj_i[x][p] for x, p in zip(kids.tolist(), pars)]  # repro-lint: disable=R001
        return won_u, side, arcs

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate level + array invariants (test support; O(n m)).

        Diagnostics only — outside Theorem 1.1's cost budget, so the
        scans below are deliberately uncharged."""
        for eid, (u, v) in enumerate(self.endpoints):  # repro-lint: disable=R001
            if not self.alive[eid]:
                continue
            lvl = self.level[eid]
            assert 0 <= lvl <= self.L + 1
            if self.is_tree[eid]:
                for i in range(lvl + 1):  # repro-lint: disable=R001
                    assert self.tadj[i][u].get(v) == eid
                    assert self.tadj[i][v].get(u) == eid
            else:
                assert eid in self.nontree[lvl][u]
                assert eid in self.nontree[lvl][v]
        assert not self._pieces, "split pieces left unfinalized"
        # parent/plev/label arrays, member supersets, sizes and key heaps
        # agree with the level-0 adjacency: one root per component, parent
        # edges are tree edges of level plev, labels are canonical min-ids
        seen: set[int] = set()
        labels: set[int] = set()
        for s in range(self.n):  # repro-lint: disable=R001
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            for x in comp:  # repro-lint: disable=R001
                for y in self.tadj[0][x]:  # repro-lint: disable=R001,R002
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
            lab = min(comp)
            labels.add(lab)
            roots = [x for x in comp if self.parent[x] == -1]  # repro-lint: disable=R001
            assert len(roots) == 1, f"component of {s}: roots {roots}"
            for x in comp:  # repro-lint: disable=R001
                assert self.label[x] == lab, "label out of sync"
                p = int(self.parent[x])
                if p == -1:
                    assert self.plev[x] == -1, "root with a parent level"
                else:
                    f = self.tadj[0][x].get(p)
                    assert f is not None, "parent not a tree edge"
                    assert self.plev[x] == self.level[f], "plev out of sync"
            mem = self._members.get(lab)
            assert mem is not None and np.all(np.diff(mem) > 0), (
                "member array missing or unsorted"
            )
            assert np.isin(np.array(comp), mem).all(), "member map lost a vertex"
            assert self._size.get(lab) == len(comp), "component size out of sync"
            keyed = [int(self.keys[x]) for x in comp if self.keys[x] != NO_KEY]  # repro-lint: disable=R001
            want = (min(keyed) // self.n, min(keyed) % self.n) if keyed else None
            assert self.component_min_key(s) == want, "key heap out of sync"
        assert set(self._members) == labels and set(self._size) == labels, (
            "member map holds a dead label"
        )
        assert set(self._heaps) <= labels, "key heap under a dead label"
        # every parent chain reaches its root without cycling
        for v in range(self.n):  # repro-lint: disable=R001
            x, steps = v, 0
            while self.parent[x] != -1:  # repro-lint: disable=R001
                x = int(self.parent[x])
                steps += 1
                assert steps <= self.n, "parent cycle"


class FlatAbsorptionStructure:
    """Lemma 5.1 structure over flat arrays — numpy twin of
    :class:`~repro.structures.absorb_ds.AbsorptionStructure` with
    ``backend="flat"`` (whose tracked mirror is the link-cut forest).

    Same four operations, same canonical answers (min-id ``find_cc``, lex
    argmin ``lowest_node``, first-flagged-on-tree-path ``find_path_s2p``,
    (depth, vertex) lex-max witness updates in ``batch_delete``); no
    mirror structure — path queries walk the ``parent`` array of the
    :class:`FlatForest` directly (depth-free alternating LCA walk).
    """

    backend = "flat"

    def __init__(
        self,
        g: Graph,
        tracker: Tracker | None = None,
        global_of: dict[int, int] | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.t = tracker if tracker is not None else Tracker()
        self.g = g
        self.kernel_backend = resolve_backend(kernel_backend)
        self.global_of = global_of
        self.hdt = FlatForest(
            g, tracker=self.t, kernel_backend=self.kernel_backend
        )
        self.q_remaining: set[int] = set()
        self._q_heap: list[int] = []
        self.low_witness: dict[int, tuple[int, int]] = {}
        self.deleted: set[int] = set()
        self._c_bd = obs.metrics().counter("absorb.batch_deletes")
        self._h_bd_edges = obs.metrics().histogram("absorb.batch_delete_edges")

    # ------------------------------------------------------------------
    # setup / incremental facts
    # ------------------------------------------------------------------
    def set_separator(self, vertices: Iterable[int]) -> None:
        """Flag the given vertices as separator (Q) vertices."""
        for v in vertices:
            if v in self.deleted:
                raise ValueError(f"vertex {v} already absorbed")
            if v not in self.q_remaining:
                self.q_remaining.add(v)
                heappush(self._q_heap, v)
        self.t.op(1)

    def unset_separator(self, vertices: Iterable[int]) -> None:
        """Remove the separator flag (used when reduction discards paths)."""
        for v in vertices:
            self.q_remaining.discard(v)
        self.t.op(1)

    def set_tree_neighbor(self, v: int, tree_vertex: int, depth: int) -> None:
        """Record that v (in H) is adjacent to T'-vertex ``tree_vertex`` at
        ``depth``; keeps only the deepest witness (lex-max, PR 3 rule)."""
        self.t.op(1)
        if v in self.deleted:
            return
        cur = self.low_witness.get(v)
        if cur is None or depth > cur[0]:
            self.low_witness[v] = (depth, tree_vertex)
            self.hdt.set_vertex_key(v, -depth)

    # ------------------------------------------------------------------
    # Lemma 5.1 operations
    # ------------------------------------------------------------------
    def find_cc(self) -> int | None:
        """Minimum-id remaining separator vertex, or None (*Success*)."""
        self.t.op(1)
        if not self.q_remaining:
            return None
        heap = self._q_heap
        while heap[0] not in self.q_remaining:
            heappop(heap)
        return heap[0]

    def lowest_node(self, q: int) -> tuple[int, int, int]:
        """In q's component: ``(v, x, depth_x)`` with x the component's
        deepest adjacent T'-vertex (lex argmin on negated depth)."""
        self.t.op(1)
        hit = self.hdt.component_min_key(q)
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
        """Tree path from ``v`` toward ``q``, truncated at (and including)
        the first separator vertex — the same first-flagged-on-path rule
        as the link-cut mirror's ``path_prefix_to_first_flagged``.

        Depth-free: two walkers climb the parent pointers alternately,
        marking their trails; the first trail collision is the LCA, so
        the walk costs O(|path|) pointer steps, not O(tree depth)."""
        self.t.op(1)
        hdt = self.hdt
        if not hdt.connected(v, q):
            raise ValueError(f"{v} and {q} are in different trees")
        parent = hdt.parent
        if v == q:
            path = [v]
        else:
            pv, pq = [v], [q]
            iv, iq = {v: 0}, {q: 0}
            path = None
            while path is None:
                x = int(parent[pv[-1]])
                if x >= 0:
                    j = iq.get(x)
                    if j is not None:
                        path = pv + [x] + pq[:j][::-1]
                        continue
                    iv[x] = len(pv)
                    pv.append(x)
                y = int(parent[pq[-1]])
                if y >= 0:
                    i = iv.get(y)
                    if i is not None:
                        path = pv[: i + 1] + pq[::-1]
                        continue
                    iq[y] = len(pq)
                    pq.append(y)
                elif x < 0:
                    raise RuntimeError(
                        f"{v} and {q} are in different trees "
                        "(labels out of sync)"
                    )
            self.t.charge(len(pv) + len(pq), 8)
        flagged = self.q_remaining
        for i, x in enumerate(path):
            if x in flagged:
                self.t.charge(i + 1, (i + 1).bit_length())
                return path[: i + 1]
        raise RuntimeError(
            f"no separator vertex on the tree path {v}..{q} "
            "(but {q} is flagged — structure out of sync)"
        )

    def batch_delete(self, deleted: Sequence[tuple[int, int]]) -> None:
        """Delete absorbed vertices from H (same contract and canonical
        witness reduction as the tracked structure's ``batch_delete``)."""
        from ..kernels.absorb import witness_lexmax_np

        dead = [v for v, _ in deleted]
        dead_set = set(dead)

        # 1) snapshot surviving H-neighbors ((depth, vertex) lex-max) and
        #    gather the incident edges
        trip_nb: list[int] = []
        trip_d: list[int] = []
        trip_v: list[int] = []
        eids: set[int] = set()
        gathered = 0
        incident, endpoints = self.hdt.incident, self.hdt.endpoints
        for v, d in deleted:
            if v in self.deleted:
                raise ValueError(f"vertex {v} deleted twice")
            inc = incident[v]
            gathered += len(inc)
            eids.update(inc)
            for eid in inc:
                u, w = endpoints[eid]
                nb = w if u == v else u
                if nb not in dead_set:
                    trip_nb.append(nb)
                    trip_d.append(d)
                    trip_v.append(v)
        neighbor_updates = witness_lexmax_np(self.g.n, trip_nb, trip_d, trip_v)

        # 2) delete all incident edges in one HDT batch (rebuild inside)
        self.t.charge(len(dead) + gathered, 8)
        self._c_bd.value += 1
        self._h_bd_edges.observe(gathered)
        self.hdt.batch_delete(sorted(eids))

        # 3) retire the dead vertices
        for v in dead:
            self.deleted.add(v)
            self.q_remaining.discard(v)
            self.hdt.set_vertex_key(v, None)
            self.low_witness.pop(v, None)

        # 4) surviving neighbors learn their new lowest tree neighbor
        alias = self.global_of
        for nb in sorted(neighbor_updates):
            d, w = neighbor_updates[nb]
            self.set_tree_neighbor(nb, alias[w] if alias is not None else w, d)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check forest arrays, flags, and key aggregates.

        Diagnostics only — outside the cost budget, uncharged."""
        self.hdt.check_invariants()
        for q in self.q_remaining:  # repro-lint: disable=R001
            assert q not in self.deleted
        for v, (d, _) in sorted(self.low_witness.items()):  # repro-lint: disable=R001
            assert v not in self.deleted
            assert self.hdt.keys[v] == np.int64(-d) * self.g.n + v
