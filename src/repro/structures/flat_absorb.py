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
  The initial build roots each tree where the [TV85]+Wyllie tour build
  roots it, by one traversal, and charges that build in closed form
  (:func:`_charge_tour_build`); after that the
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
* the HDT level structure (:class:`FlatForest`) keeps the level-0
  forest adjacency once (F_i is its edges of level >= i), per-level
  nontree sets, and per vertex a bitmask of the levels at which it holds
  non-tree edges. A replacement search takes an isolated endpoint
  inline, finds the small side by *alternating* bidirectional BFS (cost
  O(2 |small|), matching the tracked structure's O(|small|) sweep) that
  also collects the side's level-i tree edges — one walk per cut, which
  each lower level resumes rather than re-walking the side above it —
  or hands sides of ``_ARRAY_SIDE`` or more vertices to one masked
  pointer-doubling pass over ``parent``/``plev``. Each search also
  returns two masks — the levels of the tree edges leaving the side and
  of the side's non-tree edges — so the cut jumps straight to the next
  level where a search or a scan happens, and charges the levels in
  between in closed form.
  Every level charges what the two-pass BFS + collect search charged
  there (a function of the side's size and which endpoint won).

Byte-identical contract (PR 3 canonicalization, gated by the differential
fuzz harness): min-id ``find_cc``, lex argmin ``lowest_node``,
(depth, vertex) lex-max witnesses, sorted replacement scans, and the
first-flagged-on-tree-path ``find_path_s2p`` rule — the same answers as
the tracked :class:`~repro.structures.absorb_ds.AbsorptionStructure`,
whose mirror is the splay link-cut forest (``path_prefix_to_first_flagged``).

:class:`FlatForest` on its own is also the service's resident-graph
connectivity (:mod:`repro.service.dynamic`): ``batch_insert`` links
components or files level-0 non-tree edges, and a full rebuild is a
fresh forest.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

import numpy as np

from ..graph.graph import Graph
from ..graph.connectivity import spanning_forest
from ..kernels.dispatch import resolve_backend
from ..obs import runtime as obs
from ..pram.tracker import Tracker, log2_ceil
from .hdt import ForestChange

__all__ = ["FlatForest", "FlatAbsorptionStructure"]


#: sentinel for "vertex holds no key" in the packed key array; larger than
#: any real packed key (keys are ``-depth * n + v`` with depth >= 0)
NO_KEY = np.int64(1) << np.int64(62)
#: NO_KEY as a Python int, for per-element code reading ``keys`` through
#: its memoryview
_NO_KEY = int(NO_KEY)

#: smallest F_i side the replacement search takes from arrays: a cut's
#: walk that has popped this many vertices on each side, over all the
#: levels it visited, without exhausting one hands over to one masked
#: pointer-doubling pass over the level-0 tree (and every lower level of
#: the same cut goes there directly)
_ARRAY_SIDE = 512


class _Walk:
    """One cut's alternating search, kept across the levels it visits.

    Per endpoint: the queue of its side (popped vertices before the
    cursor), the vertex that reached each queued one, the cursor, the OR
    of the popped vertices' ``ntmask`` and the tree edges skipped so far
    because their level was below the search's, as ``(level, far end,
    near end, edge id)``."""

    __slots__ = ("qu", "fu", "iu", "nmu", "sku", "qv", "fv", "iv", "nmv", "skv")

    def __init__(self, u: int, v: int) -> None:
        self.qu, self.fu, self.iu, self.nmu = [u], [-1], 0, 0
        self.qv, self.fv, self.iv, self.nmv = [v], [-1], 0, 0
        self.sku: list[tuple[int, int, int, int]] = []
        self.skv: list[tuple[int, int, int, int]] = []


def _rejoin(kept: list, i: int, queue: list[int], came: list[int],
            arcs: list[int]) -> int:
    """Resume a walk at level i: the kept edges of level >= i join
    ``queue`` (their near ends into ``came``, the level-i ones into
    ``arcs``) and leave ``kept``; returns the levels of the rest as a
    mask (uncharged, like the walk)."""
    lmask = j = 0
    for item in kept:  # repro-lint: disable=R001 (charged by the caller)
        k = item[0]
        if k < i:
            kept[j] = item
            j += 1
            lmask |= 1 << k
        else:
            queue.append(item[1])
            came.append(item[2])
            if k == i:
                arcs.append(item[3])
    del kept[j:]
    return lmask


def _charge_tour_build(t: Tracker, n: int, m: int, longest: int) -> None:
    """Charge the vectorized rooted-forest build of ``m`` tree edges on
    ``n`` vertices whose largest tree has ``longest`` edges: [TV85] tour
    successors, cycle leaders by pointer-doubling min-aggregation and
    Wyllie ranks of the cut cycles (Lemma 2.4).

    Each pass charges by sizes alone: the successor sort the 2m arcs at
    one log span; Wyllie pointer jumping over lists of at most
    ``2 * longest`` arcs ``ceil(log2(2 * longest))`` rounds, a node at
    position p being done after the first round r with ``2^r > p``; the
    leader doubling ``(2m).bit_length() + 1`` rounds over all arcs, plus
    the reset of the n vertices."""
    if m == 0:
        return
    arcs = 2 * m
    lg = log2_ceil(max(2, arcs)) + 1
    t.charge(arcs, lg)
    wyllie = log2_ceil(2 * longest)
    t.charge(max(1, wyllie) * arcs + arcs, (wyllie + 1) * lg)
    doubling = arcs.bit_length() + 1
    t.charge(arcs * doubling + n, doubling * lg)


class FlatForest:
    """Batch HDT connectivity over flat arrays (numpy execution engine).

    Maintains the same level scheme as :class:`~repro.structures.hdt.
    HDTConnectivity` — levels, promotions, sorted replacement scans — and
    emits the identical :class:`ForestChange` sequence for any deletion
    batch, but represents the level-0 forest as one adjacency plus
    ``parent``/``plev``/``label`` arrays (surgical cut/link updates plus a
    relabel of the split-off pieces per batch) instead of splayed Euler
    tours. No F_i is stored: it is the part of the level-0 forest whose
    edges have ``level >= i``.
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
        #: per vertex: {neighbor: eid} over the level-0 forest; F_i is
        #: the part whose edges have ``level[eid] >= i``
        self.adj: list[dict[int, int]] = [{} for _ in range(g.n)]
        #: incident edge ids per vertex, read through ``alive``: the
        #: graph's lists until the first batch_insert copies them to append
        self._adj_eids = g.adj_eids
        self._own_incidence = False
        # rooted-forest arrays: parent is maintained surgically (cut =
        # O(1) child reset, link = one path reversal); plev[x] is the
        # level of the edge (x, parent[x]), -1 at roots; label is the
        # component's min vertex id, restamped for split pieces only
        self.parent = np.full(g.n, -1, dtype=np.int64)
        self.plev = np.full(g.n, -1, dtype=np.int64)
        self.label = np.arange(g.n, dtype=np.int64)
        #: scratch: vertex -> position in the component _side_arrays scans
        self._pos = np.zeros(g.n, dtype=np.int64)
        #: vertex ids; ``_ids[x:x + 1]`` is the member array of a vertex
        #: split off alone (a view, no allocation of its own)
        self._ids = np.arange(g.n, dtype=np.int64)
        #: packed lowest-neighbor keys (key * n + v, NO_KEY if unset)
        self.keys = np.full(g.n, NO_KEY, dtype=np.int64)
        # per-element code reads and writes the four arrays through
        # memoryviews: an element comes back as a Python int, with no
        # numpy scalar to box and unbox; the arrays serve the vectorized
        # passes (the arrays are updated in place, never replaced)
        self._parent_mv = memoryview(self.parent)
        self._plev_mv = memoryview(self.plev)
        self._label_mv = memoryview(self.label)
        self._keys_mv = memoryview(self.keys)
        #: label -> lazy min-heap of packed keys; an entry is live while
        #: ``keys[v]`` still equals it and v still carries the label
        self._heaps: dict[int, list[int]] = {}
        #: label -> sorted vertex array, a superset of the component
        #: (vertices split away keep their slot until a compaction)
        self._members: dict[int, np.ndarray] = {}
        #: label -> exact component size
        self._size: dict[int, int] = {}
        #: (temporary token, size, vertex) of each unrepaired split of
        #: the in-flight batch, consumed by _finalize_batch; ``vertex`` is
        #: the piece's only vertex, or -1 for a larger piece
        self._pieces: list[tuple[int, int, int]] = []
        # observability: finalize passes/sizes replace rotation counts
        self._c_promote = obs.metrics().counter("hdt.promotions")
        self._h_scan = obs.metrics().histogram("hdt.replacement_scan")
        self._c_rebuild = obs.metrics().counter("flat.rebuilds")
        self._h_rebuild = obs.metrics().histogram("flat.rebuild_vertices")

        t = self.t
        _, forest = spanning_forest(g, t, backend=self.kernel_backend)
        endpoints, is_tree, adj = self.endpoints, self.is_tree, self.adj
        for eid in forest:  # repro-lint: disable=R001 (charged below)
            u, v = endpoints[eid]
            is_tree[eid] = True
            adj[u][v] = eid
            adj[v][u] = eid
        nontree0 = self.nontree[0]
        for eid, tree in enumerate(is_tree):  # repro-lint: disable=R001
            if not tree:
                u, v = endpoints[eid]
                nontree0[u].add(eid)
                nontree0[v].add(eid)
        #: per vertex: bit i set iff ``nontree[i][x]`` is non-empty
        self.ntmask: list[int] = [1 if s else 0 for s in nontree0]
        # initial build: parent orientation, canonical min-id labels and
        # member arrays (no depth — path queries are depth-free, see
        # find_path_s2p). Each tree is rooted where the [TV85] tour build
        # roots it: at the tail of its leader arc, its first edge in
        # ``forest`` order (arc e is u -> v of the e-th forest edge and
        # precedes every twin arc). Tree paths are unique, so a traversal
        # from that root gives the orientation the tour ranks give.
        parent, label = self._parent_mv, self._label_mv
        members, sizes, ids = self._members, self._size, self._ids
        seen = bytearray(g.n)
        longest = 0
        for eid in forest:  # repro-lint: disable=R001 (charged below)
            root = endpoints[eid][0]
            if seen[root]:
                continue
            seen[root] = 1
            tree = [root]
            for x in tree:  # repro-lint: disable=R001
                for y in adj[x]:  # repro-lint: disable=R001,R002
                    if not seen[y]:
                        seen[y] = 1
                        parent[y] = x
                        tree.append(y)
            tree.sort()
            mn = tree[0]
            for x in tree:  # repro-lint: disable=R001
                label[x] = mn
            members[mn] = np.array(tree, dtype=np.int64)
            sizes[mn] = len(tree)
            longest = max(longest, len(tree) - 1)
        for x in np.flatnonzero(np.frombuffer(seen, dtype=np.uint8) == 0).tolist():  # repro-lint: disable=R001
            members[x] = ids[x : x + 1]
            sizes[x] = 1
        self.plev[self.parent >= 0] = 0
        _charge_tour_build(t, g.n, len(forest), longest)
        self._c_rebuild.value += 1
        self._h_rebuild.observe(g.n)
        lg = (max(2, g.n) - 1).bit_length() + 1
        t.charge(g.m + g.n, lg)

    # ------------------------------------------------------------------
    # per-batch finalize core
    # ------------------------------------------------------------------
    def _finalize_batch(self, affected: list[int], total: int) -> None:
        """Re-canonicalize labels after a deletion batch.

        ``affected`` holds the sorted pre-batch labels of every component
        that lost a tree edge and ``total`` their pre-batch sizes summed;
        ``self._pieces`` the (token, size, vertex) of every split the HDT
        search could not repair. Only the pieces are relabeled and get a
        fresh key heap; a pre-batch component keeps its label, member
        array and heap unless its min vertex left with a piece, in which
        case its remainder moves to its new min id. The charge is
        unchanged from a full rescan of the affected components:
        O(affected) work."""
        label, label_mv = self.label, self._label_mv
        keys = self.keys
        members = self._members
        sizes = self._size
        heaps = self._heaps
        for lab in affected:  # repro-lint: disable=R001 (charged below)
            if label_mv[lab] == lab:
                arr = members[lab]
                if arr.size > 2 * sizes[lab]:
                    members[lab] = arr[label[arr] == lab]
                continue
            arr = members.pop(lab)
            mem = arr[label[arr] == lab]
            mn = int(mem[0])
            label[mem] = mn
            members[mn] = mem
            sizes[mn] = sizes.pop(lab)
            heap = heaps.pop(lab, None)
            if heap:
                heaps[mn] = heap
        pieces = self._pieces
        ids = self._ids
        for token, size, x in pieces:  # repro-lint: disable=R001 (charged below)
            # the slot counts the piece at its split (charged as such);
            # later splits of the same batch only shrink what carries
            # the token
            total += size
            if x >= 0:
                # a vertex split off alone (the common case: an absorbed
                # one) has no edge left, so no later split touched it
                label_mv[x] = x
                members[x] = ids[x : x + 1]
                sizes[x] = 1
                key = self._keys_mv[x]
                if key != _NO_KEY:
                    heaps[x] = [key]
                continue
            arr = members.pop(token)
            del sizes[token]
            mem = arr[label[arr] == token]
            mn = int(mem[0])
            label[mem] = mn
            members[mn] = mem
            sizes[mn] = int(mem.size)
            sel = keys[mem]
            sel = sel[sel != NO_KEY]
            if sel.size:
                heaps[mn] = np.sort(sel).tolist()
        entries = len(affected) + len(pieces)
        self._pieces = []
        self._c_rebuild.value += 1
        self._h_rebuild.observe(total)
        # relabel + regroup + re-aggregate: O(affected) work, polylog span
        self.t.charge(total + entries, 8)

    # ------------------------------------------------------------------
    # queries (level-0 forest)
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        label = self._label_mv
        return u == v or label[u] == label[v]

    def component_rep(self, v: int) -> int:
        return self._label_mv[v]

    def component_size(self, v: int) -> int:
        return self._size[self._label_mv[v]]

    def component_vertices(self, v: int) -> list[int]:
        """v's component in ascending order (O(its member array))."""
        lab = self._label_mv[v]
        arr = self._members[lab]
        return arr[self.label[arr] == lab].tolist()

    def spanning_forest_edges(self) -> list[tuple[int, int]]:
        """Current level-0 forest edges as sorted (u, v) pairs.

        Diagnostics only (an uncharged O(m) pass over ``is_tree``)."""
        endpoints = self.endpoints
        tree = [endpoints[e] for e, t in enumerate(self.is_tree) if t]  # repro-lint: disable=R001
        return sorted(tree)

    def live_incident(self, v: int) -> list[int]:
        """Ids of v's live edges, inserted ones included, filtered by
        ``alive`` (uncharged; the caller charges what it gathers)."""
        alive = self.alive
        return [e for e in self._adj_eids[v] if alive[e]]  # repro-lint: disable=R001

    # ------------------------------------------------------------------
    # lowest-neighbor key aggregate
    # ------------------------------------------------------------------
    def set_vertex_key(self, v: int, key: int | None) -> None:
        """Set/clear v's lowest-neighbor key (key = -depth, lex argmin)."""
        self.set_vertex_keys(((v, key),))

    def set_vertex_keys(self, pairs: Iterable[tuple[int, int | None]]) -> None:
        """:meth:`set_vertex_key` for each ``(v, key)`` pair, in order."""
        keys, label, sizes, heaps, n = (
            self._keys_mv, self._label_mv, self._size, self._heaps, self.n,
        )
        for v, key in pairs:  # repro-lint: disable=R001 (caller charges)
            packed = _NO_KEY if key is None else key * n + v
            if packed == keys[v]:
                continue
            keys[v] = packed
            lab = label[v]
            if key is not None:
                heap = heaps.get(lab)
                if heap is None:
                    heaps[lab] = [packed]
                else:
                    heappush(heap, packed)
            elif sizes[lab] == 1:
                # an isolated vertex (an absorbed one, in absorption) has no
                # other key: drop its heap instead of keeping a dead entry
                heaps.pop(lab, None)

    def component_min_key(self, v: int) -> tuple[int, int] | None:
        """Lex-min ``(key, vertex)`` in v's component, or None."""
        label = self._label_mv
        lab = label[v]
        heap = self._heaps.get(lab)
        if not heap:
            return None
        keys, n = self._keys_mv, self.n
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
    # insertion
    # ------------------------------------------------------------------
    def batch_insert(self, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """Insert a batch of edges in input order; returns their ids.

        A pair joining two components links them with a level-0 tree edge
        (the merged component keeps the smaller label); every other pair
        becomes a level-0 non-tree edge. Both keep the level invariants:
        F_0 only merges, and a non-tree edge's endpoints are connected in
        F_0. Work O(k) plus the relabeled components' sizes."""
        if any(u == v for u, v in pairs):
            raise ValueError("self-loop")
        if not self._own_incidence:
            self._adj_eids = [list(eids) for eids in self._adj_eids]
            self._own_incidence = True
        label, nontree0, ntmask = self._label_mv, self.nontree[0], self.ntmask
        eids: list[int] = []
        work = len(pairs)
        for u, v in pairs:  # repro-lint: disable=R001 (charged below)
            eid = len(self.endpoints)
            self.endpoints.append((u, v) if u < v else (v, u))
            self.alive.append(True)
            self.level.append(0)
            self._adj_eids[u].append(eid)
            self._adj_eids[v].append(eid)
            lu, lv = label[u], label[v]
            self.is_tree.append(lu != lv)
            if lu == lv:
                nontree0[u].add(eid)
                nontree0[v].add(eid)
                ntmask[u] |= 1
                ntmask[v] |= 1
            else:
                self.adj[u][v] = eid
                self.adj[v][u] = eid
                self._link_parents(u, v, 0)
                work += self._merge_labels(min(lu, lv), max(lu, lv))
            eids.append(eid)
        self.t.charge(work, 8)
        return eids

    def _merge_labels(self, keep: int, gone: int) -> int:
        """Fold component ``gone`` into ``keep`` (labels, members, sizes,
        key heaps); returns the number of member slots touched."""
        label, members = self.label, self._members
        mk = members[keep]
        mg = members.pop(gone)
        mg = mg[label[mg] == gone]
        label[mg] = keep
        # union1d dedups: a stale slot of ``keep`` may be a vertex of
        # ``gone``, which is a member again
        members[keep] = np.union1d(mk, mg)
        self._size[keep] += self._size.pop(gone)
        heap = self._heaps.pop(gone, None)
        if heap:
            merged = self._heaps.setdefault(keep, [])
            merged.extend(heap)
            heapify(merged)
        return int(mk.size + mg.size)

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
        changes: list[ForestChange] = []
        with obs.span("hdt.batch_delete", batch=len(eids)):
            self._batch_delete(eids, changes)
        return changes

    def delete_edges(self, eids: Sequence[int]) -> None:
        """:meth:`batch_delete` for a caller that does not read the
        change stream: the same deletions, charges and metrics, with no
        ForestChange built."""
        with obs.span("hdt.batch_delete", batch=len(eids)):
            self._batch_delete(eids, None)

    def _batch_delete(
        self, eids: Sequence[int], changes: list[ForestChange] | None
    ) -> None:
        alive, is_tree, level, endpoints = (
            self.alive, self.is_tree, self.level, self.endpoints,
        )
        nontree, ntmask, label = self.nontree, self.ntmask, self._label_mv
        # deleted tree edges grouped by pre-batch component representative
        groups: dict[int, list[int]] = {}
        for eid in eids:  # repro-lint: disable=R001 (charged below)
            if not alive[eid]:
                raise ValueError(f"edge {eid} already deleted")
            alive[eid] = False
            a, b = endpoints[eid]
            if is_tree[eid]:
                rep = label[a]
                group = groups.get(rep)
                if group is None:
                    groups[rep] = [eid]
                else:
                    group.append(eid)
                continue
            # a non-tree edge leaves its level's sets (_drop_nontree)
            i = level[eid]
            nontree_i = nontree[i]
            s = nontree_i[a]
            s.discard(eid)
            if not s:
                ntmask[a] &= ~(1 << i)
            s = nontree_i[b]
            s.discard(eid)
            if not s:
                ntmask[b] &= ~(1 << i)
        if not groups:
            return
        sizes = self._size
        reps = sorted(groups)
        total = sum(sizes[rep] for rep in reps)

        # cut the tree edges group by group, in input order within each
        adj, parent, plev = self.adj, self._parent_mv, self._plev_mv
        pieces = self._pieces
        endpoint_side, side_bfs = self._endpoint_side, self._side_bfs
        side_arrays, next_level = self._side_arrays, self._next_level
        # charges and metric observations accumulate over the batch and
        # land once (the tracker and the histogram only sum them); each
        # cut is charged once per F_i it leaves, and observes one
        # replacement scan per level it visits, idle levels observing 0
        work = span = 0
        seen = scanned_total = scanned_max = 0
        scanned_min = 1 << 62
        promoted = 0
        for rep in reps:  # repro-lint: disable=R001 (charged per cut)
            for eid in groups[rep]:  # repro-lint: disable=R001
                u, v = endpoints[eid]
                lvl = level[eid]
                is_tree[eid] = False
                if changes is not None:
                    changes.append(ForestChange("cut", u, v))
                del adj[u][v]
                del adj[v][u]
                # O(1) parent surgery: the child side keeps its whole
                # subtree orientation and just becomes a root
                if parent[v] == u:
                    child = v
                else:
                    assert parent[u] == v, "cut edge not parent-linked"
                    child = u
                parent[child] = -1
                plev[child] = -1
                if lvl + 1 == len(nontree):
                    self._grow(lvl + 1)
                work += lvl + 1
                span += 1
                linked = False
                large = False
                walk = None
                i = lvl
                while i >= 0:
                    # a search at level i: the small F_i side (ties to u),
                    # its exactly-level-i tree edges, and two level masks
                    # — lmask for the tree edges leaving the side (all
                    # below i), nmask for the side's non-tree edges. Once
                    # both endpoints had an F_i edge they have one at
                    # every lower level: the walk goes on from there
                    found = endpoint_side(i, u, v) if walk is None else None
                    if found is None and not large:
                        if walk is None:
                            walk = _Walk(u, v)
                        found = side_bfs(i, walk, _ARRAY_SIDE)
                    if found is None:
                        # |S_i| >= |S_{i+1}|: every lower level is large too
                        large = True
                        found = side_arrays(i, u, v)
                    won_u, side, arcs, lmask, nmask = found
                    # what the two-pass search charged per level: the
                    # alternating BFS's 2 per popped vertex (4|S| when u
                    # wins, 4|S|+2 when v wins, 2 for an isolated
                    # endpoint) plus a collect pass over the side's F_i
                    # tree, |S| + 2(|S|-1); + 2 for promote and scan
                    step = 5 if len(side) == 1 else 7 * len(side) + (0 if won_u else 2)

                    # 1) promote the side's level-i tree edges to i+1
                    if arcs:
                        work += len(arcs)
                        promoted += len(arcs)
                        self._promote(i, arcs)

                    while True:
                        # search (or reuse), promote and scan at level i;
                        # span: 8 + 8 for search and collect, 1 each for
                        # promote and scan
                        work += step
                        span += 18
                        seen += 1

                        # 2) scan level-i non-tree edges in ascending eid
                        #    order
                        if not nmask >> i & 1:
                            scanned_min = 0
                        else:
                            f, scanned, cands = self._scan(i, side)
                            promoted += scanned - (f >= 0)
                            work += cands + scanned
                            scanned_total += scanned
                            if scanned > scanned_max:
                                scanned_max = scanned
                            if scanned < scanned_min:
                                scanned_min = scanned
                            if f >= 0:
                                a, b = endpoints[f]
                                is_tree[f] = True
                                level[f] = i
                                adj[a][b] = f
                                adj[b][a] = f
                                self._link_parents(a, b, i)
                                if changes is not None:
                                    changes.append(ForestChange("link", a, b))
                                linked = True
                                break

                        # every level strictly between i and the next one
                        # with a bit in either mask keeps this side (no
                        # tree edge of that level leaves it) and has
                        # nothing to promote (its tree edges are all >= i)
                        # or scan: what a search there would have charged
                        # and observed, in closed form
                        j = next_level(i, lmask | nmask)
                        idle = i - 1 - j
                        if idle:
                            work += idle * step
                            span += 18 * idle
                            seen += idle
                            scanned_min = 0
                        i = j
                        if i < 0 or lmask >> i & 1:
                            # a tree edge of level i leaves the side:
                            # search again
                            break
                    if linked:
                        break
                if linked:
                    continue

                # the component split for good: stamp the level-0 small
                # side with a unique temporary token; _finalize_batch
                # turns tokens into canonical min-id labels
                token = -(len(pieces) + 1)
                cur = label[u]
                n_side = len(side)
                if n_side == 1:
                    x = side[0]
                    label[x] = token
                    pieces.append((token, 1, x))
                else:
                    arr = np.array(side, dtype=np.int64)
                    arr.sort()
                    self.label[arr] = token
                    self._members[token] = arr
                    sizes[token] = n_side
                    pieces.append((token, n_side, -1))
                sizes[cur] -= n_side

        self._c_promote.value += promoted
        self._h_scan.observe_many(seen, scanned_total, scanned_min, scanned_max)
        # re-canonicalize every touched component: replacement links never
        # leave the pre-batch component, so the pre-batch labels of the
        # deleted tree edges (the group keys) plus the recorded split
        # pieces cover every vertex whose label may have changed.
        self._finalize_batch(reps, total)
        self.t.charge(work + len(eids), span + 8)

    def _drop_nontree(self, f: int, i: int) -> None:
        """Take non-tree edge f out of level i's sets, clearing the mask
        bit of an endpoint left with none (uncharged: O(1))."""
        nontree_i, ntmask = self.nontree[i], self.ntmask
        for x in self.endpoints[f]:  # repro-lint: disable=R001 (two endpoints)
            s = nontree_i[x]
            s.discard(f)
            if not s:
                ntmask[x] &= ~(1 << i)

    def _scan(self, i: int, side: list[int]):
        """Scan the side's level-i non-tree edges in ascending eid order
        until one leaves the side; every edge scanned before it has both
        ends in the side and moves up to level i+1. Returns ``(the
        leaving edge or -1, edges scanned, candidates)`` (uncharged: the
        caller charges the candidates and the scanned edges)."""
        nontree, ntmask, endpoints = self.nontree, self.ntmask, self.endpoints
        nontree_i = nontree[i]
        if len(side) == 1:
            # every non-tree edge of a lone vertex leaves it
            cand = nontree_i[side[0]]
            first, n_cand = min(cand), len(cand)
            self._drop_nontree(first, i)
            return first, 1, n_cand
        cand: set[int] = set()
        for x in side:  # repro-lint: disable=R001 (charged as the collect pass)
            if ntmask[x] >> i & 1:
                cand.update(nontree_i[x])
        side_set = set(side)
        # usually the smallest candidate already leaves the side: take it
        # without sorting the rest
        first = min(cand)
        a, b = endpoints[first]
        if a not in side_set or b not in side_set:
            self._drop_nontree(first, i)
            return first, 1, len(cand)
        level = self.level
        nontree_up = nontree[i + 1]
        up = 1 << (i + 1)
        scanned = 0
        for f in sorted(cand):  # repro-lint: disable=R001
            scanned += 1
            self._drop_nontree(f, i)
            a, b = endpoints[f]
            if a not in side_set or b not in side_set:
                return f, scanned, len(cand)
            level[f] = i + 1
            nontree_up[a].add(f)
            nontree_up[b].add(f)
            ntmask[a] |= up
            ntmask[b] |= up
        return -1, scanned, len(cand)

    def _next_level(self, i: int, mask: int) -> int:
        """The highest level below i with a bit set in ``mask``, or -1."""
        return (mask & ((1 << i) - 1)).bit_length() - 1

    def _promote(self, i: int, arcs: list[int]) -> None:
        """Move the tree edges ``arcs`` from level i to i+1."""
        level, endpoints, parent, plev = (
            self.level, self.endpoints, self._parent_mv, self._plev_mv,
        )
        # charged by the caller (one unit per edge)
        for f in arcs:  # repro-lint: disable=R001
            a, b = endpoints[f]
            level[f] = i + 1
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
        parent, plev = self._parent_mv, self._plev_mv
        pa = [a]
        pb = [b]
        while True:
            nxt = parent[pa[-1]]
            if nxt == -1:
                chain, anchor = pa, b
                break
            pa.append(nxt)
            nxt = parent[pb[-1]]
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
        while len(self.nontree) <= i:
            # lazy level: only vertices actually promoted to this level
            # ever materialize a slot (O(1) alloc, not O(n))
            self.t.charge(1, 1)
            self.nontree.append(defaultdict(set))

    # ------------------------------------------------------------------
    # replacement search: (u won, side, level-i arcs, lmask, nmask)
    # ------------------------------------------------------------------
    def _endpoint_side(self, i: int, u: int, v: int):
        """The side of an endpoint isolated in F_i (u first), or None.

        Its tree edges all leave it below level i: their levels are its
        lmask."""
        adj, level = self.adj, self.level
        for x in (u, v):  # repro-lint: disable=R001 (two endpoints)
            lmask = 0
            for f in adj[x].values():  # repro-lint: disable=R001,R002
                k = level[f]
                if k >= i:
                    break
                lmask |= 1 << k
            else:
                return x == u, [x], [], lmask, self.ntmask[x]
        return None

    def _side_bfs(self, i: int, walk: "_Walk", budget: int):
        """The small F_i side after cutting (u, v) by alternating BFS,
        continuing ``walk`` from where the level above left it.

        u advances first: the first side to exhaust is the smaller one,
        ties going to u — the tracked structure's ``u if size(u) <=
        size(v) else v`` rule at O(2 |small|) cost. The walk runs over the
        level-0 adjacency and follows only edges of level >= i; the
        others (tree edges leaving the side) are kept on the walk and
        their levels go into its lmask, and each popped vertex's
        ``ntmask`` into its nmask. F_i components are trees, so every
        followed neighbor of a popped vertex except the one that reached
        it is new (no visited set), and each side's exactly-level-i tree
        edges are collected as they reach a vertex.

        A side only grows from one level to the next one down, so the
        walk a level above left is resumed, not redone: the kept edges
        of level >= i join it (those of level i are this level's
        edges), and the alternation goes on from the side whose turn it
        is, so every exhaustion check lands where a fresh walk would
        make it and the same side wins (docs/kernels.md, "Side search
        across levels"). nmask bits above i may be stale; the cut reads
        only bits <= i. Returns ``(u won, side, edge ids, lmask,
        nmask)``, or None once both sides have popped ``budget``
        vertices over the whole cut. Uncharged: the caller charges by
        the side's size."""
        adj, level, ntmask = self.adj, self.level, self.ntmask
        # lists with read cursors instead of deques: this is the hottest
        # loop in the structure (one call per search of a deleted edge)
        qu, fu, iu, nmu = walk.qu, walk.fu, walk.iu, walk.nmu
        qv, fv, iv, nmv = walk.qv, walk.fv, walk.iv, walk.nmv
        au: list[int] = []
        av: list[int] = []
        sku, skv = walk.sku, walk.skv
        lmu = _rejoin(sku, i, qu, fu, au)
        lmv = _rejoin(skv, i, qv, fv, av)
        # dict order never reaches an output: the winner is decided by
        # size alone, its edges are only promoted and the masks are ORs
        while True:  # repro-lint: disable=R001 (charged by the caller)
            if iu == iv:
                # u's turn (v's when the level above stopped after u's pop)
                if iu == len(qu):
                    walk.iu, walk.iv, walk.nmu, walk.nmv = iu, iv, nmu, nmv
                    return True, qu, au, lmu, nmu
                if iu == budget:
                    return None
                x = qu[iu]
                px = fu[iu]
                iu += 1
                nmu |= ntmask[x]
                for nbr, f in adj[x].items():  # repro-lint: disable=R001,R002
                    if nbr != px:
                        k = level[f]
                        if k < i:
                            lmu |= 1 << k
                            sku.append((k, nbr, x, f))
                        else:
                            qu.append(nbr)
                            fu.append(x)
                            if k == i:
                                au.append(f)
            if iv == len(qv):
                walk.iu, walk.iv, walk.nmu, walk.nmv = iu, iv, nmu, nmv
                return False, qv, av, lmv, nmv
            x = qv[iv]
            px = fv[iv]
            iv += 1
            nmv |= ntmask[x]
            for nbr, f in adj[x].items():  # repro-lint: disable=R001,R002
                if nbr != px:
                    k = level[f]
                    if k < i:
                        lmv |= 1 << k
                        skv.append((k, nbr, x, f))
                    else:
                        qv.append(nbr)
                        fv.append(x)
                        if k == i:
                            av.append(f)

    def _side_arrays(self, i: int, u: int, v: int):
        """:meth:`_side_bfs` without a budget, from the level-0 arrays.

        F_i is a subforest of F_0, so within the current level-0 tree of
        u and v a vertex's F_i component is found by climbing ``parent``
        while ``plev >= i``: one masked pointer-doubling pass gives every
        vertex its F_i top, and the two sides are the vertices sharing
        u's and v's tops. The side's exactly-level-i tree edges are the
        parent edges of its members with ``plev == i``; the tree edges
        leaving it are its top's parent edge and the parent edges of the
        outside vertices hanging off it."""
        label = self.label
        lab = int(label[u])
        arr = self._members[lab]
        comp = arr[label[arr] == lab]
        pos = self._pos
        pos[comp] = np.arange(comp.size)
        par = self.parent[comp]
        pl = self.plev[comp]
        up = pos[np.where(pl >= i, par, comp)]
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
        kids = mask & (pl == i)
        adj = self.adj
        arcs = [  # repro-lint: disable=R001
            adj[x][p] for x, p in zip(comp[kids].tolist(), par[kids].tolist())
        ]
        # a parent edge leaves the side when exactly one end is in it
        # (roots map to themselves and have plev -1)
        ppos = pos[np.where(pl >= 0, par, comp)]
        leaving = (pl >= 0) & (pl < i) & (mask | mask[ppos])
        lmask = 0
        for k in np.unique(pl[leaving]).tolist():  # repro-lint: disable=R001
            lmask |= 1 << k
        ntmask = self.ntmask
        nmask = 0
        for x in side:  # repro-lint: disable=R001
            nmask |= ntmask[x]
        return won_u, side, arcs, lmask, nmask

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate level + array invariants (test support; O(n m)).

        Diagnostics only — outside Theorem 1.1's cost budget, so the
        scans below are deliberately uncharged."""
        trees = 0
        for eid, (u, v) in enumerate(self.endpoints):  # repro-lint: disable=R001
            if not self.alive[eid]:
                continue
            lvl = self.level[eid]
            assert 0 <= lvl <= self.L + 1
            if self.is_tree[eid]:
                trees += 1
                assert self.adj[u].get(v) == eid
                assert self.adj[v].get(u) == eid
            else:
                assert eid in self.nontree[lvl][u]
                assert eid in self.nontree[lvl][v]
        assert sum(map(len, self.adj)) == 2 * trees, "stale forest edge"
        # ntmask bit i is set exactly where nontree[i] holds edges
        for x in range(self.n):  # repro-lint: disable=R001
            want = 0
            for i, sets in enumerate(self.nontree):  # repro-lint: disable=R001
                if sets[x] if i == 0 else sets.get(x):
                    want |= 1 << i
            assert self.ntmask[x] == want, f"ntmask of {x} out of sync"
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
                for y in self.adj[x]:  # repro-lint: disable=R001,R002
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
                    f = self.adj[x].get(p)
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
    """Lemma 5.1 structure over flat arrays — numpy twin of the tracked
    :class:`~repro.structures.absorb_ds.AbsorptionStructure` (whose mirror
    is the link-cut forest).

    Same four operations, same canonical answers (min-id ``find_cc``, lex
    argmin ``lowest_node``, first-flagged-on-tree-path ``find_path_s2p``,
    (depth, vertex) lex-max witness updates in ``batch_delete``); no
    mirror structure — path queries walk the ``parent`` array of the
    :class:`FlatForest` directly (depth-free alternating LCA walk).
    """

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
        parent = hdt._parent_mv
        if v == q:
            path = [v]
        else:
            pv, pq = [v], [q]
            iv, iq = {v: 0}, {q: 0}
            path = None
            while path is None:
                x = parent[pv[-1]]
                if x >= 0:
                    j = iq.get(x)
                    if j is not None:
                        path = pv + [x] + pq[:j][::-1]
                        continue
                    iv[x] = len(pv)
                    pv.append(x)
                y = parent[pq[-1]]
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
            f"(but {q} is flagged — structure out of sync)"
        )

    def batch_delete(self, deleted: Sequence[tuple[int, int]]) -> None:
        """Delete absorbed vertices from H (same contract and canonical
        witness reduction as the tracked structure's ``batch_delete``)."""
        hdt = self.hdt
        gone = self.deleted
        dead_set = {v for v, _ in deleted}

        # 1) gather the incident edges and snapshot each surviving
        #    H-neighbor's (depth, vertex) lex-max witness
        neighbor_updates: dict[int, tuple[int, int]] = {}
        eids: set[int] = set()
        gathered = 0
        alive, endpoints, incidence = hdt.alive, hdt.endpoints, hdt._adj_eids
        for v, d in deleted:  # repro-lint: disable=R001 (charged below)
            if v in gone:
                raise ValueError(f"vertex {v} deleted twice")
            for eid in incidence[v]:  # repro-lint: disable=R001
                if not alive[eid]:
                    continue
                gathered += 1
                eids.add(eid)
                a, b = endpoints[eid]
                nb = b if a == v else a
                if nb not in dead_set:
                    cur = neighbor_updates.get(nb)
                    if cur is None or d > cur[0] or (d == cur[0] and v > cur[1]):
                        neighbor_updates[nb] = (d, v)

        # 2) delete all incident edges in one HDT batch (rebuild inside)
        self.t.charge(len(deleted) + gathered, 8)
        self._c_bd.value += 1
        self._h_bd_edges.observe(gathered)
        hdt.delete_edges(sorted(eids))

        # 3) retire the dead vertices
        q_remaining, low_witness = self.q_remaining, self.low_witness
        for v, _ in deleted:  # repro-lint: disable=R001
            gone.add(v)
            q_remaining.discard(v)
            low_witness.pop(v, None)
        hdt.set_vertex_keys([(v, None) for v, _ in deleted])

        # 4) surviving neighbors learn their new lowest tree neighbor:
        #    set_tree_neighbor for each, its one op apiece charged at once
        self.t.op(len(neighbor_updates))
        alias = self.global_of
        raised: list[tuple[int, int]] = []
        for nb in sorted(neighbor_updates):  # repro-lint: disable=R001
            if nb in gone:
                continue
            d, w = neighbor_updates[nb]
            cur = low_witness.get(nb)
            if cur is None or d > cur[0]:
                low_witness[nb] = (d, alias[w] if alias is not None else w)
                raised.append((nb, -d))
        hdt.set_vertex_keys(raised)

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
