"""Batch-dynamic rake-and-compress trees (Lemma 6.2, Sections 6.1.2–6.4).

This is the paper's path-query structure: a hierarchical clustering
``T_1, ..., T_k`` of a dynamic forest, where ``T_{i+1}`` is obtained from
``T_i`` by one round of *rake* (remove leaves; of two adjacent leaves the
smaller id goes) and *compress* (remove an independent set of degree-2
vertices not adjacent to leaves, chosen by per-(vertex, level) random coins
exactly as in [AAB+20], item R1 of Appendix C).

Clusters
--------
Base clusters are the vertices and edges of the forest. When vertex ``v``
is removed at level ``i``, every cluster with ``v`` as a boundary vertex is
merged with ``v``'s base cluster; ``v`` *represents* the new cluster. A
cluster's boundary is the (<= 2) still-alive vertices its edges attach to:
rake clusters have one, compress clusters two, and a component's final
(root) cluster none. This matches Figure 2 of the paper, reproduced as a
runnable demo in ``examples/figure2_rc_clustering.py``.

Dynamic updates (change propagation)
------------------------------------
``batch_update(cuts, links)`` edits ``T_1`` and repairs the hierarchy level
by level, recomputing removal decisions only for *affected* vertices: a
vertex is affected when its own incident structure changed or a low-degree
neighbor's situation changed. Coins are a fixed hash of ``(vertex, level)``,
so unaffected decisions are bit-for-bit reproducible — the heart of the
[AAB+20] change-propagation argument that bounds the work per k-edge batch
by O(k log n) in expectation (validated in E7).

Augmentations (Section 6.2)
---------------------------
Each cluster carries a count of flagged (separator) base vertices inside
it, maintained along parent chains in O(log n) per flag flip. This powers
the ``FindPathS2P`` descent of Section 6.4.2. (The lowest-neighbor
augmentation lives on the HDT level-0 Euler tour forest — see
:mod:`repro.structures.absorb_ds`.)

Path queries (Sections 6.4.1–6.4.2)
-----------------------------------
* :meth:`RCForest.path` — FindPathP2P: O(d log n) work (Lemma 6.3);
* :meth:`RCForest.path_prefix_to_first_flagged` — FindPathS2P via the
  FindPath' recursion: work proportional to the returned prefix (times
  log n), never to the distance to an arbitrary far separator vertex.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker

__all__ = ["RCForest", "Cluster"]

_KEEP = "keep"
_RAKE = "rake"
_COMPRESS = "compress"
_ROOT = "root"


#: rounds of deterministic bit-diff recoloring: 4 rounds take 64-bit ids
#: down to <= 6 colors, making the local-minimum rule O(1)-radius
_CV_ROUNDS = 4


def _bit_diff(cv: int, cp: int) -> int:
    """One Cole–Vishkin step: 2k + bit, k = lowest differing bit index."""
    diff = cv ^ cp
    k = (diff & -diff).bit_length() - 1
    return 2 * k + ((cv >> k) & 1)


def _coin(v: int, level: int, salt: int) -> bool:
    """Fixed hash coin per (vertex, level): heads = candidate for compress."""
    x = (v * 0x9E3779B97F4A7C15 + level * 0xD1B54A32D192ED03 + salt) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return bool((x ^ (x >> 31)) & 1)


class Cluster:
    """A node of the cluster hierarchy."""

    __slots__ = (
        "cid",
        "kind",
        "rep",
        "level",
        "boundary",
        "children",
        "parent",
        "flag_count",
        "endpoints",
    )

    def __init__(
        self,
        cid: int,
        kind: str,
        rep: int | None,
        level: int,
        boundary: tuple[int, ...],
        children: list[int],
        flag_count: int,
        endpoints: tuple[int, int] | None = None,
    ) -> None:
        self.cid = cid
        #: 'vbase' | 'ebase' | 'rake' | 'compress' | 'root'
        self.kind = kind
        #: the removed vertex that represents this cluster (None for bases)
        self.rep = rep
        #: level at which the cluster was formed (-1 for bases)
        self.level = level
        self.boundary = boundary
        self.children = children
        self.parent: int | None = None
        #: number of flagged base vertices inside this cluster
        self.flag_count = flag_count
        #: for 'ebase': the original edge endpoints
        self.endpoints = endpoints

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<C{self.cid} {self.kind} rep={self.rep} bd={self.boundary}>"


class _Level:
    """State of the contracted forest at one level of the hierarchy."""

    __slots__ = ("alive", "adj", "pending", "rakes")

    def __init__(self) -> None:
        self.alive: set[int] = set()
        #: v -> {u -> edge-cluster id}
        self.adj: dict[int, dict[int, int]] = {}
        #: v -> {all rake cluster ids waiting on v at this level}
        self.pending: dict[int, set[int]] = {}
        #: v -> {rake cluster ids deposited by the previous level's round}
        #: (subset of pending; the rest is carried from below)
        self.rakes: dict[int, set[int]] = {}

    def degree(self, v: int) -> int:
        d = self.adj.get(v)
        return len(d) if d else 0


class _Decision:
    __slots__ = ("kind", "cid", "boundary", "children_key")

    def __init__(
        self,
        kind: str,
        cid: int | None,
        boundary: tuple[int, ...],
        children_key: tuple[int, ...],
    ) -> None:
        self.kind = kind
        self.cid = cid
        self.boundary = boundary
        self.children_key = children_key


class RCForest:
    """Rake-and-compress representation of a dynamic forest on n vertices.

    ``compress_mode`` selects the independent-set rule for the compress
    step: ``"random"`` is the hashed-coin rule of [AAB+20] (R1);
    ``"deterministic"`` is the Appendix C replacement (D1) — a
    Cole–Vishkin-flavoured rule that 3-colors each degree-2 chain by
    iterated bit tricks of the vertex ids and compresses one color class,
    removing a guaranteed constant fraction per level with no randomness.
    """

    MAX_LEVEL_FACTOR = 8  # guard: levels <= factor * log2(n) + 24

    def __init__(
        self,
        n: int,
        tracker: Tracker | None = None,
        seed: int = 0x5C,
        compress_mode: str = "random",
    ) -> None:
        if compress_mode not in ("random", "deterministic"):
            raise ValueError(f"unknown compress_mode {compress_mode!r}")
        self.compress_mode = compress_mode
        self.n = n
        self.t = tracker if tracker is not None else Tracker()
        self.salt = seed
        self.clusters: dict[int, Cluster] = {}
        self._next_cid = n  # 0..n-1 reserved for vertex base clusters
        self._flag: list[bool] = [False] * n
        #: current edges of the represented forest -> ebase cid
        self._edge_cid: dict[tuple[int, int], int] = {}
        self._decisions: list[dict[int, _Decision]] = []
        self._levels: list[_Level] = []
        # observability instruments (bound once; see docs/observability.md)
        self._c_updates = _obs_metrics().counter("rc.batch_updates")
        self._c_rounds = _obs_metrics().counter("rc.contraction_rounds")
        self._h_batch = _obs_metrics().histogram("rc.batch_size")
        for v in range(n):
            self.clusters[v] = Cluster(v, "vbase", None, -1, (v,), [], 0)
        self.t.charge(n, 1)
        lvl = _Level()
        lvl.alive = set(range(n))
        self._levels.append(lvl)
        self._decisions.append({})
        self._propagate(set(range(n)), 0)

    # ------------------------------------------------------------------
    # public mirror API
    # ------------------------------------------------------------------
    def link(self, u: int, v: int) -> None:
        self.batch_update([], [(u, v)])

    def cut(self, u: int, v: int) -> None:
        self.batch_update([(u, v)], [])

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_cid

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self._edge_cid)

    def batch_update(
        self,
        cuts: Sequence[tuple[int, int]],
        links: Sequence[tuple[int, int]],
    ) -> None:
        """Apply a batch of cuts and links to the base forest, then repair
        the hierarchy by change propagation."""
        self._c_updates.value += 1
        self._h_batch.observe(len(cuts) + len(links))
        t = self.t
        lvl0 = self._levels[0]
        touched: set[int] = set()
        for u, v in cuts:
            t.op(1)
            key = (u, v) if u < v else (v, u)
            cid = self._edge_cid.pop(key, None)
            if cid is None:
                raise ValueError(f"edge {key} not present")
            del lvl0.adj[u][v]
            del lvl0.adj[v][u]
            # its consuming cluster (if any) is rebuilt by propagation; the
            # base edge cluster itself is gone
            self._destroy_cluster(cid)
            touched.add(u)
            touched.add(v)
        for u, v in links:
            t.op(1)
            if u == v:
                raise ValueError("self-loop")
            key = (u, v) if u < v else (v, u)
            if key in self._edge_cid:
                raise ValueError(f"edge {key} already present")
            cid = self._new_cluster("ebase", None, -1, key, [], 0, endpoints=key)
            self._edge_cid[key] = cid
            lvl0.adj.setdefault(u, {})[v] = cid
            lvl0.adj.setdefault(v, {})[u] = cid
            touched.add(u)
            touched.add(v)
        if touched:
            self._propagate(touched, 0)

    # ------------------------------------------------------------------
    # cluster bookkeeping
    # ------------------------------------------------------------------
    def _new_cluster(
        self,
        kind: str,
        rep: int | None,
        level: int,
        boundary: tuple[int, ...],
        children: list[int],
        flag_count: int,
        endpoints: tuple[int, int] | None = None,
    ) -> int:
        cid = self._next_cid
        self._next_cid += 1
        c = Cluster(cid, kind, rep, level, boundary, children, flag_count, endpoints)
        self.clusters[cid] = c
        for ch in children:
            self.clusters[ch].parent = cid
        # parent scatter + flag-count reduction over the children happen in
        # parallel: O(children) work, O(log children) span
        self.t.charge(
            1 + len(children), (max(2, len(children)) - 1).bit_length() + 1
        )
        return cid

    def _destroy_cluster(self, cid: int) -> None:
        c = self.clusters.pop(cid)
        for ch in c.children:
            child = self.clusters.get(ch)
            if child is not None and child.parent == cid:
                child.parent = None
        self.t.charge(
            1 + len(c.children), (max(2, len(c.children)) - 1).bit_length() + 1
        )

    # ------------------------------------------------------------------
    # removal decisions
    # ------------------------------------------------------------------
    def _decide(
        self, lvl: _Level, i: int, v: int
    ) -> tuple[str, list[int], tuple[int, ...]]:
        """(kind, consumed edge-cluster cids, boundary) for alive v at level i."""
        t = self.t
        t.op(1)
        nbrs = lvl.adj.get(v)
        deg = len(nbrs) if nbrs else 0
        if deg == 0:
            return _ROOT, [], ()
        if deg == 1:
            ((u, ecid),) = nbrs.items()
            if lvl.degree(u) == 1 and v > u:
                return _KEEP, [], ()
            return _RAKE, [ecid], (u,)
        if deg == 2:
            (a, e1), (b, e2) = sorted(nbrs.items())
            if lvl.degree(a) >= 2 and lvl.degree(b) >= 2:
                if self.compress_mode == "random":
                    salt = self.salt
                    chosen = (
                        _coin(v, i, salt)
                        and not _coin(a, i, salt)
                        and not _coin(b, i, salt)
                    )
                else:
                    chosen = self._det_compress(lvl, v)
                if chosen:
                    return _COMPRESS, [e1, e2], (a, b)
        return _KEEP, [], ()

    # -- Appendix C (D1): deterministic compress via iterated Cole–Vishkin --
    def _det_eligible(self, lvl: _Level, u: int) -> bool:
        nbrs = lvl.adj.get(u)
        if not nbrs or len(nbrs) != 2:
            return False
        a, b = nbrs
        return lvl.degree(a) >= 2 and lvl.degree(b) >= 2

    def _det_color(self, lvl: _Level, u: int, r: int) -> int:
        """Color of u after r bit-diff rounds along the eligible chain.

        Depends only on ids within radius r — the O(log*)-radius locality
        the Appendix C change-propagation argument relies on. Adjacent
        eligible vertices always end with different colors (the bit-diff
        step preserves properness for any choice of compare-neighbor)."""
        self.t.op(1)
        if r == 0:
            return u
        cu = self._det_color(lvl, u, r - 1)
        for w in sorted(lvl.adj.get(u, {})):
            if not self._det_eligible(lvl, w):
                continue
            cw = self._det_color(lvl, w, r - 1)
            if cw != cu:
                return _bit_diff(cu, cw)
        # isolated-in-chain endpoint: no differing eligible neighbor
        return cu & 1

    def _det_compress(self, lvl: _Level, v: int) -> bool:
        """Compress iff v is the strict local color minimum of its eligible
        chain neighborhood (ties impossible: the coloring is proper)."""
        cv = self._det_color(lvl, v, _CV_ROUNDS)
        for w in lvl.adj.get(v, {}):
            if self._det_eligible(lvl, w):
                cw = self._det_color(lvl, w, _CV_ROUNDS)
                if (cw, w) <= (cv, v):
                    return False
        return True

    # ------------------------------------------------------------------
    # change propagation
    # ------------------------------------------------------------------
    def _get_level(self, i: int) -> _Level:
        while len(self._levels) <= i:
            self._levels.append(_Level())
            self._decisions.append({})
        return self._levels[i]

    def _propagate(self, touched: set[int], start: int) -> None:
        t = self.t
        max_levels = self.MAX_LEVEL_FACTOR * max(1, self.n).bit_length() + 24
        i = start
        while touched:
            if i >= max_levels:
                raise RuntimeError("RC hierarchy too deep (bug or bad coins)")
            self._c_rounds.value += 1
            lvl = self._get_level(i)
            nxt = self._get_level(i + 1)
            decisions = self._decisions[i]

            # recompute region: the touched vertices plus their current
            # neighbors whose decision can see the change (degree <= 2)
            region = set()
            for v in touched:
                t.op(1)
                region.add(v)
                for u in (lvl.adj.get(v) or ()):
                    t.op(1)
                    if lvl.degree(u) <= 2:
                        region.add(u)
            if self.compress_mode == "deterministic":
                # the CV colors have radius _CV_ROUNDS along chains, so the
                # dirty region must grow accordingly (the O(log*)-additive
                # infection of Appendix C)
                for _ in range(_CV_ROUNDS + 2):
                    extra = set()
                    for v in region:
                        t.op(1)
                        for u in (lvl.adj.get(v) or ()):
                            if lvl.degree(u) <= 2 and u not in region:
                                extra.add(u)
                    if not extra:
                        break
                    region |= extra

            next_touched: set[int] = set()

            def handle(v: int) -> None:
                t.op(1)
                alive = v in lvl.alive
                old = decisions.get(v)

                if not alive:
                    if old is not None:
                        self._retract(decisions, nxt, v, old, next_touched)
                    if v in nxt.alive:
                        self._set_dead(nxt, v, next_touched)
                    return

                kind, consumed, boundary = self._decide(lvl, i, v)
                if kind == _KEEP:
                    children: list[int] = []
                    children_key: tuple[int, ...] = ()
                else:
                    pend = lvl.pending.get(v) or set()
                    children = [v] + sorted(pend) + consumed
                    children_key = tuple(children)

                if (
                    old is not None
                    and old.kind == kind
                    and old.boundary == boundary
                    and (kind == _KEEP or old.children_key == children_key)
                ):
                    if kind == _KEEP:
                        self._sync_carried(i, v, next_touched)
                    return

                if old is not None:
                    self._retract(decisions, nxt, v, old, next_touched)

                if kind == _KEEP:
                    decisions[v] = _Decision(_KEEP, None, (), ())
                    if v not in nxt.alive:
                        nxt.alive.add(v)
                        next_touched.add(v)
                    self._sync_carried(i, v, next_touched)
                else:
                    flag_count = sum(
                        self.clusters[ch].flag_count for ch in children
                    )
                    t.charge(
                        len(children),
                        (max(2, len(children)) - 1).bit_length() + 1,
                    )
                    cid = self._new_cluster(
                        kind, v, i, boundary, children, flag_count
                    )
                    decisions[v] = _Decision(kind, cid, boundary, children_key)
                    if v in nxt.alive:
                        self._set_dead(nxt, v, next_touched)
                    if kind == _RAKE:
                        (u,) = boundary
                        nxt.rakes.setdefault(u, set()).add(cid)
                        nxt.pending.setdefault(u, set()).add(cid)
                        next_touched.add(u)
                    elif kind == _COMPRESS:
                        a, b = boundary
                        nxt.adj.setdefault(a, {})[b] = cid
                        nxt.adj.setdefault(b, {})[a] = cid
                        next_touched.add(a)
                        next_touched.add(b)
                    # _ROOT: no upward effect

            t.parallel_for(sorted(region), handle)
            touched = next_touched
            i += 1

    def _retract(
        self,
        decisions: dict[int, _Decision],
        nxt: _Level,
        v: int,
        old: _Decision,
        next_touched: set[int],
    ) -> None:
        """Undo the next-level effect of v's old decision."""
        t = self.t
        t.op(1)
        del decisions[v]
        if old.kind == _KEEP:
            if v in nxt.alive:
                self._set_dead(nxt, v, next_touched)
            return
        cid = old.cid
        assert cid is not None
        if old.kind == _RAKE:
            (u,) = old.boundary
            for store in (nxt.pending, nxt.rakes):
                bucket = store.get(u)
                if bucket is not None:
                    bucket.discard(cid)
                    if not bucket:
                        del store[u]
            next_touched.add(u)
        elif old.kind == _COMPRESS:
            a, b = old.boundary
            if nxt.adj.get(a, {}).get(b) == cid:
                del nxt.adj[a][b]
                del nxt.adj[b][a]
            next_touched.add(a)
            next_touched.add(b)
        self._destroy_cluster(cid)

    def _set_dead(self, nxt: _Level, v: int, next_touched: set[int]) -> None:
        """Remove v's presence (adjacency, pending) from the next level."""
        t = self.t
        t.op(1)
        nxt.alive.discard(v)
        for u in list(nxt.adj.get(v) or {}):
            t.op(1)
            del nxt.adj[v][u]
            del nxt.adj[u][v]
            next_touched.add(u)
        nxt.adj.pop(v, None)
        nxt.pending.pop(v, None)
        nxt.rakes.pop(v, None)
        next_touched.add(v)

    def _sync_carried(self, i: int, v: int, next_touched: set[int]) -> None:
        """Make kept-vertex v's carried state at level i+1 match level i."""
        t = self.t
        lvl = self._levels[i]
        nxt = self._levels[i + 1]
        decisions = self._decisions[i]
        # pending at the next level = carried pending + rakes deposited by
        # this level's round (already recorded in nxt.rakes)
        want_pend = (lvl.pending.get(v) or set()) | (nxt.rakes.get(v) or set())
        have_pend = nxt.pending.get(v) or set()
        if want_pend != have_pend:
            t.op(1 + len(want_pend ^ have_pend))
            if want_pend:
                nxt.pending[v] = set(want_pend)
            else:
                nxt.pending.pop(v, None)
            next_touched.add(v)
        # edges carry iff the other endpoint also keeps (per its decision)
        for u, ecid in (lvl.adj.get(v) or {}).items():
            t.op(1)
            dec_u = decisions.get(u)
            u_keeps = dec_u is not None and dec_u.kind == _KEEP
            cur = nxt.adj.get(v, {}).get(u)
            if u_keeps:
                if cur != ecid:
                    nxt.adj.setdefault(v, {})[u] = ecid
                    nxt.adj.setdefault(u, {})[v] = ecid
                    next_touched.add(v)
                    next_touched.add(u)
            else:
                if cur is not None:
                    del nxt.adj[v][u]
                    del nxt.adj[u][v]
                    next_touched.add(v)
                    next_touched.add(u)
        # stale carried edges that no longer exist at level i — but leave
        # compress clusters formed at this level alone: they are effects
        # deposited by this round, not carried state
        lvl_adj_v = lvl.adj.get(v) or {}
        for u in list(nxt.adj.get(v) or {}):
            t.op(1)
            ecid = nxt.adj[v][u]
            c = self.clusters.get(ecid)
            if c is not None and c.kind == "compress" and c.level == i:
                continue
            if u not in lvl_adj_v:
                del nxt.adj[v][u]
                del nxt.adj[u][v]
                next_touched.add(v)
                next_touched.add(u)

    # ------------------------------------------------------------------
    # flags (separator augmentation, Section 6.2)
    # ------------------------------------------------------------------
    def set_flag(self, v: int, value: bool) -> None:
        t = self.t
        if self._flag[v] == value:
            return
        self._flag[v] = value
        delta = 1 if value else -1
        cid: int | None = v  # start at the vbase cluster
        while cid is not None:
            t.op(1)
            c = self.clusters[cid]
            c.flag_count += delta
            cid = c.parent

    def get_flag(self, v: int) -> bool:
        return self._flag[v]

    # ------------------------------------------------------------------
    # path queries (Section 6.4)
    # ------------------------------------------------------------------
    def _chain(self, v: int) -> list[int]:
        """Cluster ids from v's base up to its component root."""
        t = self.t
        out = [v]
        cid = self.clusters[v].parent
        while cid is not None:
            t.op(1)
            out.append(cid)
            cid = self.clusters[cid].parent
        return out

    def _edge_child_between(self, cid: int, a: int, b: int) -> int | None:
        """Child edge-cluster of cid spanning boundary pair {a, b}."""
        for ch in self.clusters[cid].children:
            self.t.op(1)
            cc = self.clusters[ch]
            if cc.kind == "ebase" and set(cc.endpoints) == {a, b}:
                return ch
            if cc.kind == "compress" and set(cc.boundary) == {a, b}:
                return ch
        return None

    def _expand_edge(self, ecid: int, x: int, y: int) -> list[int]:
        """The tree path x..y through edge-cluster ecid (Lemma 6.4)."""
        t = self.t
        t.op(1)
        c = self.clusters[ecid]
        if c.kind == "ebase":
            return [x, y]
        assert c.kind == "compress"
        z = c.rep
        assert z is not None
        e1 = self._edge_child_between(ecid, x, z)
        e2 = self._edge_child_between(ecid, z, y)
        assert e1 is not None and e2 is not None
        left, right = self.t.parallel(
            lambda: self._expand_edge(e1, x, z),
            lambda: self._expand_edge(e2, z, y),
        )
        return left + right[1:]

    def _path_to_boundary(self, x: int, chain: list[int], k: int, y: int) -> list[int]:
        """Lemma 6.5: path from x to y, where y is a boundary vertex of the
        chain cluster ``chain[k]`` (``chain = self._chain(x)``, ``k >= 1``).

        Case (a): while y is already a boundary of a deeper chain cluster,
        descend — the path never leaves that cluster. Case (b): otherwise
        route via z = rep(chain[k]), which is always a boundary of
        chain[k-1], and append the expansion of the edge child {z, y}.
        """
        t = self.t
        while k > 1 and y in self.clusters[chain[k - 1]].boundary:
            t.op(1)
            k -= 1
        t.op(1)
        if k == 1:
            # chain[1] was formed by removing x itself: direct edge child
            e = self._edge_child_between(chain[1], x, y)
            assert e is not None, f"no edge child {x}-{y} in {chain[1]}"
            return self._expand_edge(e, x, y)
        z = self.clusters[chain[k]].rep
        assert z is not None
        e = self._edge_child_between(chain[k], z, y)
        assert e is not None, f"no edge child {z}-{y} in {chain[k]}"
        base = self._path_to_boundary(x, chain, k - 1, z)
        return base + self._expand_edge(e, z, y)[1:]

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        return self._chain(u)[-1] == self._chain(v)[-1]

    def path(self, u: int, v: int) -> list[int]:
        """FindPathP2P: the tree path from u to v (Lemma 6.3)."""
        t = self.t
        if u == v:
            return [u]
        set_u = set(self._chain(u))
        z_cid: int | None = None
        cid: int | None = v
        while cid is not None:
            t.op(1)
            if cid in set_u:
                z_cid = cid
                break
            cid = self.clusters[cid].parent
        if z_cid is None:
            raise ValueError(f"{u} and {v} are in different trees")
        z = self.clusters[z_cid].rep
        assert z is not None, "two distinct vertices meet at a merged cluster"
        chain_u = self._chain(u)
        chain_v = self._chain(v)
        ku = chain_u.index(z_cid)
        kv = chain_v.index(z_cid)
        pu = [u] if u == z else self._path_to_boundary(u, chain_u, ku - 1, z)
        pv = [v] if v == z else self._path_to_boundary(v, chain_v, kv - 1, z)
        return pu + pv[-2::-1]

    def path_prefix_to_first_flagged(self, v: int, q: int) -> list[int] | None:
        """FindPathS2P (Section 6.4.2): a path from v to a flagged vertex
        with all internal vertices unflagged, or None if v's component has
        no flagged vertex. Work ∝ returned prefix (× log n).

        ``q`` is accepted for interface parity with the LCT backend (it
        certifies the component); the descent itself never looks at it.
        """
        t = self.t
        del q
        if self._flag[v]:
            return [v]
        chain = self._chain(v)
        j = None
        for idx, cid in enumerate(chain):
            t.op(1)
            if self.clusters[cid].flag_count > 0:
                j = idx
                break
        if j is None:
            return None
        flagged_cid = chain[j]
        assert j >= 1  # v's own base is unflagged here
        z = self.clusters[flagged_cid].rep
        assert z is not None
        base = [v] if v == z else self._path_to_boundary(v, chain, j - 1, z)
        if self._flag[z]:
            return base
        ch = self._flagged_child(flagged_cid, exclude=chain[j - 1])
        return base + self._find_path_prime(ch, z)[1:]

    def _flagged_child(self, cid: int, exclude: int | None = None) -> int:
        t = self.t
        for ch in self.clusters[cid].children:
            t.op(1)
            if ch == exclude:
                continue
            if self.clusters[ch].flag_count > 0:
                return ch
        raise RuntimeError(f"cluster {cid} flagged but no flagged child")

    def _find_path_prime(self, cid: int, b: int) -> list[int]:
        """FindPath': path from boundary vertex b into flagged cluster cid,
        ending at a flagged vertex, internal vertices unflagged."""
        t = self.t
        t.op(1)
        c = self.clusters[cid]
        if c.kind == "vbase":
            assert self._flag[c.cid]
            return [c.cid]
        assert c.kind != "ebase", "base edge clusters never carry flags"
        z = c.rep
        assert z is not None
        e_near = self._edge_child_between(cid, b, z) if b != z else None
        if e_near is not None and self.clusters[e_near].flag_count > 0:
            return self._find_path_prime(e_near, b)
        base = [b] if b == z else self._expand_edge(e_near, b, z)
        if self._flag[z]:
            return base
        ch = self._flagged_child(cid, exclude=e_near)
        return base + self._find_path_prime(ch, z)[1:]

    # ------------------------------------------------------------------
    # introspection / verification
    # ------------------------------------------------------------------
    def roots(self) -> list[int]:
        """Root cluster ids (one per component)."""
        return [
            cid
            for cid, c in self.clusters.items()
            if c.parent is None and c.kind == "root"
        ]

    def levels_used(self) -> int:
        return len([lv for lv in self._levels if lv.alive])

    def check_invariants(self) -> None:
        """Validate the hierarchy (test support; O(total size))."""
        for v in range(self.n):
            chain = self._chain(v)
            top = self.clusters[chain[-1]]
            assert top.kind == "root", f"chain of {v} ends at {top.kind}"
        for i, lvl in enumerate(self._levels):
            for v in lvl.alive:
                assert v in self._decisions[i], f"no decision for {v} at level {i}"
            for v, d in lvl.adj.items():
                if not d:
                    continue
                assert v in lvl.alive, f"dead vertex {v} has edges at level {i}"
                for u, cid in d.items():
                    assert u in lvl.alive
                    assert lvl.adj[u][v] == cid
                    assert cid in self.clusters
        for cid, c in self.clusters.items():
            if c.kind == "vbase":
                want = 1 if self._flag[cid] else 0
            elif c.kind == "ebase":
                want = 0
            else:
                want = sum(self.clusters[ch].flag_count for ch in c.children)
            assert c.flag_count == want, f"flag_count wrong at {cid}"
            for ch in c.children:
                assert self.clusters[ch].parent == cid, (
                    f"child {ch} of {cid} has parent {self.clusters[ch].parent}"
                )
        # every component is clustered into exactly one root: count vertices
        # under roots equals n
        def count_vbases(cid: int) -> int:
            c = self.clusters[cid]
            if c.kind == "vbase":
                return 1
            if c.kind == "ebase":
                return 0
            return sum(count_vbases(ch) for ch in c.children)

        total = sum(count_vbases(r) for r in self.roots())
        assert total == self.n, f"roots cover {total} of {self.n} vertices"
