"""Path merging (Section 4.2–4.3, Lemmas 4.2–4.4).

Given a separator consisting of long paths ``L`` and short paths ``S``,
find a *valid* set of vertex-disjoint connector paths ``P``: each grows out
of a long path's head, ends either on a (contracted) short path (``P_1``,
"matched") or hangs unmatched (``P_2``), and all the guarantees of
Lemma 4.2 hold:

1. maximality — no path from ``L - L̂`` to ``S - Ŝ`` through ``D``;
2. no path from the discarded parts ``L*`` to ``S - Ŝ`` through ``D``;
3. ``|P_2| <= sqrt(n)`` (the process stops once fewer than √n heads are
   attempting matching), hence ``|P_2| <= k/48`` when ``k > 48 sqrt(n)``.

Mechanics (Section 4.2): work in the auxiliary graph ``G'`` with every
short path contracted to a single vertex. Heads extend by matching into
*available* vertices; a head with no available neighbor dies and the path
backtracks. Each step runs the exponential-phase matching of Section 4.3:
phase ``i`` lets each still-unmatched head select ``2^i`` available
neighbors through the Lemma 4.5 structure, then computes a maximal
matching (Lemma 2.5) on the selection graph — this is what keeps the work
at ``O(N_change · polylog)`` per step instead of rescanning adjacency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain

from ..graph.graph import Graph
from ..kernels.dispatch import get_kernel, is_array_backend, resolve_backend
from ..matching.luby import maximal_matching
from ..pram.tracker import Tracker, log2_ceil
from ..structures.adjacency_query import ActiveNeighborStructure  # noqa: F401
from ..structures.naive_active import NaiveActiveNeighborStructure

__all__ = ["MergeResult", "LongState", "merge_paths"]


@dataclass
class LongState:
    """Final state of one long path after the merging process."""

    #: original vertex list (as given)
    orig: list[int]
    #: surviving path: orig prefix + extension, in path order (head last)
    cur: list[int]
    #: original vertices killed during backtracking (the L* candidates)
    killed_orig: list[int]
    #: extension vertices killed (they die back into D)
    killed_ext: list[int]
    #: 'succeeded' (P1) | 'active' (P2) | 'dead' | 'idle'
    status: str = "idle"
    #: for succeeded paths: (short path index, contact vertex y in the short)
    joined_short: tuple[int, int] | None = None

    @property
    def extension(self) -> list[int]:
        """The connector piece p (without the anchor x)."""
        n_orig_survive = sum(1 for v in self.cur if v in self._orig_set)
        return self.cur[n_orig_survive:]

    @property
    def _orig_set(self) -> set[int]:
        return set(self.orig)


@dataclass
class MergeResult:
    longs: list[LongState]
    #: indices of succeeded long paths (P1) / still-active ones (P2)
    p1: list[int] = field(default_factory=list)
    p2: list[int] = field(default_factory=list)
    #: short path indices that were joined (Ŝ)
    joined_shorts: set[int] = field(default_factory=set)
    steps: int = 0


def _contracted_arrays_np(
    g: Graph,
    members,
    member_short,
    contract_base: int,
    n_short: int,
):
    """Vectorized G' construction — identical to the tracked edge loop.

    ``members[j]`` lies on short path ``member_short[j]``.  Returns
    ``(big_n, eu, ev, indptr, dsts, eids, ckeys, cvals)``: the same edge
    list as ``sorted(gp_edges)`` (same edge ids), the adjacency as CSR
    arrays in exactly ``_add_edge``'s append order (edge-id order per
    vertex), and the tracked ``contact`` map as parallel arrays —
    ``cvals[i]`` is the contact for the sorted key
    ``ckeys[i] = real * big_n + contracted`` (first occurrence in edge
    order wins, a-endpoint before b-endpoint within one edge —
    replicated with a stable first-occurrence reduction).
    """
    import numpy as np

    big_n = contract_base + n_short
    csr = g.csr()
    vmap = np.arange(big_n, dtype=np.int64)
    vmap[members] = contract_base + member_short
    a = vmap[csr.edge_u]
    b = vmap[csr.edge_v]
    keep = a != b
    lo = np.minimum(a, b)[keep]
    hi = np.maximum(a, b)[keep]
    codes = np.unique(lo * big_n + hi)
    eu = codes // big_n
    ev = codes % big_n
    mp = codes.size
    # adjacency in edge-id order, exactly _add_edge's append order
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    eid2 = np.concatenate([np.arange(mp), np.arange(mp)])
    order = np.lexsort((eid2, src))
    indptr = np.zeros(big_n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=big_n), out=indptr[1:])
    dsts = dst[order]
    eids = eid2[order]

    # contact: (real endpoint, contracted id) -> concrete short vertex,
    # first occurrence in (edge index, a-branch-then-b-branch) order
    m = csr.edge_u.size
    ckeys = np.full(2 * m, -1, dtype=np.int64)
    cvals = np.empty(2 * m, dtype=np.int64)
    mask_a = (a >= contract_base) & (a != b)
    mask_b = (b >= contract_base) & (a != b)
    ckeys[0::2][mask_a] = b[mask_a] * big_n + a[mask_a]
    cvals[0::2][mask_a] = csr.edge_u[mask_a]
    ckeys[1::2][mask_b] = a[mask_b] * big_n + b[mask_b]
    cvals[1::2][mask_b] = csr.edge_v[mask_b]
    valid = ckeys >= 0
    ckeys = ckeys[valid]
    cvals = cvals[valid]
    uniq, first = np.unique(ckeys, return_index=True)
    return big_n, eu, ev, indptr, dsts, eids, uniq, cvals[first]


def _contracted_graph_np(
    g: Graph,
    members,
    member_short,
    contract_base: int,
    n_short: int,
) -> tuple[Graph, dict[tuple[int, int], int]]:
    """G' as a :class:`Graph` — the array construction materialized into
    adjacency lists (used when a non-flat neighbor structure needs a real
    graph, e.g. the rescanning baseline under the numpy engine)."""
    big_n, eu, ev, indptr, dsts, eids, ckeys, cvals = _contracted_arrays_np(
        g, members, member_short, contract_base, n_short
    )
    edges = list(zip(eu.tolist(), ev.tolist()))
    dl = dsts.tolist()
    el = eids.tolist()
    bounds = indptr.tolist()
    # O(n' + m') list building, charged inside _contracted_arrays_np
    adj = [dl[bounds[i] : bounds[i + 1]] for i in range(big_n)]  # repro-lint: disable=R001
    adj_eids = [el[bounds[i] : bounds[i + 1]] for i in range(big_n)]  # repro-lint: disable=R001
    gp = Graph.from_trusted_arrays(big_n, edges, adj, adj_eids)
    contact = dict(
        zip(
            zip((ckeys // big_n).tolist(), (ckeys % big_n).tolist()),
            cvals.tolist(),
        )
    )
    return gp, contact


def merge_paths(
    g: Graph,
    t: Tracker,
    long_paths: list[list[int]],
    short_paths: list[list[int]],
    rng: random.Random,
    threshold: float | None = None,
    neighbor_structure: str = "tournament",
    backend: str | None = None,
) -> MergeResult:
    """Run the Section 4.2 path-merging process. Returns the final states.

    ``threshold`` is the active-head count below which the process stops
    (default ``sqrt(g.n)``; ablation E4 sweeps it).
    ``neighbor_structure`` selects the Lemma 4.5 structure ("tournament",
    the paper's) or the rescanning baseline ("naive", GPV88-style; E9/E5).
    ``backend`` selects the kernel engine for the inner Luby matchings
    ("tracked" | "numpy", see :mod:`repro.kernels.dispatch`).  On an
    array engine with the tournament structure the whole process runs on
    arrays (:func:`_merge_steps_arrays`); otherwise the per-path object
    loop (:func:`_merge_steps_objects`), the lockstep reference, runs.
    Both return the identical result and charge identically.
    """
    n = g.n
    if threshold is None:
        threshold = max(1.0, n ** 0.5)
    max_steps = 4 * n + 16

    # ------------------------------------------------------------------
    # build the auxiliary graph G' with short paths contracted
    # ------------------------------------------------------------------
    kb = resolve_backend(backend)
    array_engine = is_array_backend(kb) and g.m > 0
    n_short_members = sum(map(len, short_paths))
    if array_engine:
        import numpy as np

        members = np.fromiter(
            chain.from_iterable(short_paths), np.int64, n_short_members
        )
        member_short = np.repeat(
            np.arange(len(short_paths), dtype=np.int64),
            np.fromiter(map(len, short_paths), np.int64, len(short_paths)),
        )
    else:
        on_short = {}  # orig vertex -> short index
        for si, s in enumerate(short_paths):
            for v in s:
                on_short[v] = si
    t.charge(n_short_members, 1)
    # G' ids: 0..n-1 for real vertices (short members unused), then one id
    # per short path
    contract_base = n
    gp_n = contract_base + len(short_paths)
    t.charge(g.m, log2_ceil(max(2, g.m)) + 1)
    gp: Graph | None = None
    gp_csr = None
    if array_engine:
        if neighbor_structure == "tournament":
            # all-array path: keep G' as CSR arrays and build the flat
            # neighbor structure straight from them — no intermediate
            # Graph with Python adjacency lists
            _, _, _, indptr, dsts, eids2, ckeys, cvals = _contracted_arrays_np(
                g, members, member_short, contract_base, len(short_paths)
            )
            gp_csr = (indptr, dsts, eids2)
        else:
            gp, contact = _contracted_graph_np(
                g, members, member_short, contract_base, len(short_paths)
            )
    else:
        gp_edges: set[tuple[int, int]] = set()
        # (real G' endpoint, contracted id) -> a concrete contact vertex
        # on the short
        contact = {}

        def gp_id(v: int) -> int:
            si = on_short.get(v)
            return v if si is None else contract_base + si

        for u, v in g.edges:
            a, b = gp_id(u), gp_id(v)
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            gp_edges.add(key)
            if a >= contract_base:
                contact.setdefault((b, a), u)
            if b >= contract_base:
                contact.setdefault((a, b), v)
        gp = Graph(contract_base + len(short_paths), sorted(gp_edges))
    t.charge(0, log2_ceil(max(2, g.m)))  # dedup via parallel hashing

    if neighbor_structure == "tournament":
        # (operation, backend) dispatch: tournament trees under the
        # tracked engine, the flat CSR twin under numpy — identical
        # answers (see structures/flat_neighbors.py)
        if gp_csr is not None:
            from ..structures.flat_neighbors import FlatActiveNeighborStructure

            ans = FlatActiveNeighborStructure.from_csr(
                gp_n, gp_csr[0], gp_csr[1], gp_csr[2], tracker=t
            )
        else:
            ans = get_kernel("neighbor_structure", kb)(gp, tracker=t)
    elif neighbor_structure == "naive":
        ans = NaiveActiveNeighborStructure(gp, tracker=t)
    else:
        raise ValueError(f"unknown neighbor_structure {neighbor_structure!r}")

    # long-path members start inactive ("contained in a path"); short
    # members' real ids are unused in G' — deactivate them so queries can
    # never return them (they exist as padding ids only)
    if array_engine:
        long_members = np.fromiter(
            chain.from_iterable(long_paths), np.int64,
            sum(map(len, long_paths)),
        )
        padding = np.unique(members)
    else:
        long_members = [v for l in long_paths for v in l]
        padding = sorted(set(on_short))
    if len(long_members):
        ans.make_inactive(long_members)
    if len(padding):
        ans.make_inactive(padding)

    if gp_csr is not None:
        return _merge_steps_arrays(
            t, ans, long_paths, (ckeys, cvals), contract_base, gp_n,
            threshold, max_steps, rng, backend,
        )
    return _merge_steps_objects(
        t, ans, long_paths, contact, contract_base, gp_n,
        threshold, max_steps, rng, backend,
    )


def _merge_steps_objects(
    t: Tracker,
    ans,
    long_paths: list[list[int]],
    contact: dict[tuple[int, int], int],
    contract_base: int,
    gp_n: int,
    threshold: float,
    max_steps: int,
    rng: random.Random,
    backend: str | None,
) -> MergeResult:
    """The merging process over per-path :class:`LongState` objects."""
    longs = [
        LongState(orig=list(l), cur=list(l), killed_orig=[], killed_ext=[])
        for l in long_paths
    ]
    for st in longs:
        st.status = "active" if st.cur else "dead"
    t.charge(len(longs) + 1, 1)

    orig_sets = [set(l) for l in long_paths]
    result = MergeResult(longs=longs)

    active = [i for i, st in enumerate(longs) if st.status == "active"]

    steps = 0
    while len(active) >= threshold and active:  # repro-lint: disable=R005 (an int count against the caller's threshold, the same Python compare on every engine)
        steps += 1
        if steps > max_steps:
            raise RuntimeError("path merging did not terminate (bug)")

        # ---- one step: every active head attempts matching ----
        if hasattr(ans, "rebuild"):
            # the rescanning baseline re-reads the whole input per step
            ans.rebuild()
        unmatched = list(active)
        matched_pairs: list[tuple[int, int]] = []  # (long idx, G' vertex)
        phases = log2_ceil(max(2, gp_n)) + 1
        for ph in range(phases + 1):
            if not unmatched:
                break
            want = 1 << ph
            heads = [longs[i].cur[-1] for i in unmatched]
            selections = ans.query(heads, want)
            # bipartite selection graph H_ph: heads on one side, selected
            # available vertices on the other
            cand_ids: dict[int, int] = {}
            left_ids: dict[int, int] = {}
            raw: list[tuple[int, int]] = []  # (long idx, selected G' vertex)
            sel_total = 0
            for li, sel in zip(unmatched, selections):
                if not sel:
                    continue
                left_ids.setdefault(li, len(left_ids))
                for v in sel:
                    sel_total += 1
                    cand_ids.setdefault(v, len(cand_ids))
                    raw.append((li, v))
            t.charge(
                len(unmatched) + sel_total,
                log2_ceil(max(2, len(unmatched) + sel_total)) + 1,
            )
            if not raw:
                break
            nl = len(left_ids)
            h_edges = [(left_ids[li], nl + cand_ids[v]) for li, v in raw]
            chosen = maximal_matching(
                t, nl + len(cand_ids), h_edges, rng, backend=backend
            )
            # apply matches
            inv_left = {a: li for li, a in left_ids.items()}
            inv_cand = {nl + b: v for v, b in cand_ids.items()}
            newly_inactive: list[int] = []
            matched_now: set[int] = set()
            for eid in chosen:
                a, b = h_edges[eid]
                li = inv_left[a]
                v = inv_cand[b]
                t.op(1)
                matched_pairs.append((li, v))
                matched_now.add(li)
                newly_inactive.append(v)
            if newly_inactive:
                ans.make_inactive(sorted(set(newly_inactive)))
            unmatched = [li for li in unmatched if li not in matched_now]
            t.charge(len(unmatched) + 1, 1)

        # ---- commit matches ----
        def commit(pair: tuple[int, int]) -> None:
            li, v = pair
            t.op(1)
            st = longs[li]
            if v >= contract_base:
                si = v - contract_base
                head = st.cur[-1]
                y = contact[(head, v)]
                st.status = "succeeded"
                st.joined_short = (si, y)
                result.p1.append(li)
                result.joined_shorts.add(si)
            else:
                st.cur.append(v)

        t.parallel_for(matched_pairs, commit)

        # ---- kills: unmatched heads die and paths backtrack ----
        def kill(li: int) -> None:
            t.op(1)
            st = longs[li]
            v = st.cur.pop()
            if v in orig_sets[li]:
                st.killed_orig.append(v)
            else:
                st.killed_ext.append(v)
            if not st.cur:
                st.status = "dead"

        t.parallel_for(unmatched, kill)

        active = [i for i in active if longs[i].status == "active"]
        t.charge(len(longs) + 1, 1)

    # paths still attempting when the threshold fired are the P2 set
    for i in active:
        longs[i].status = "active"
        result.p2.append(i)
    t.charge(len(active) + 1, 1)
    result.steps = steps
    return result


#: long-path status codes of the array loop (index into _STATUS)
_ACTIVE, _SUCCEEDED, _DEAD = 0, 1, 2
_STATUS = ("active", "succeeded", "dead")


def _merge_steps_arrays(
    t: Tracker,
    ans,
    long_paths: list[list[int]],
    contact: tuple,
    contract_base: int,
    gp_n: int,
    threshold: float,
    max_steps: int,
    rng: random.Random,
    backend: str | None,
) -> MergeResult:
    """:func:`_merge_steps_objects` on arrays, charge for charge.

    A long path is its original vertices ``orig[start:start + olen]``
    (``olen`` shrinks as kills backtrack into it) followed by its
    extension, kept as a stack linked through ``below`` (each real G'
    vertex is matched at most once, so ``below`` is indexed by vertex).
    Each phase builds H_ph from the flat query answer, each step commits
    its matches and kills its unmatched heads in whole-array passes, and
    the :class:`LongState` objects are materialized once at the end.
    ``ans`` is the flat Lemma 4.5 structure; ``contact`` is
    ``(ckeys, cvals)`` from :func:`_contracted_arrays_np`.
    """
    import numpy as np

    ckeys, cvals = contact
    n_long = len(long_paths)
    lens = np.fromiter(map(len, long_paths), np.int64, n_long)
    start = np.cumsum(lens) - lens
    orig = np.fromiter(
        chain.from_iterable(long_paths), np.int64, int(lens.sum())
    )
    olen = lens.copy()
    status = np.where(lens > 0, _ACTIVE, _DEAD).astype(np.int8)
    t.charge(n_long + 1, 1)
    top = np.full(n_long, -1, dtype=np.int64)
    below = np.empty(contract_base, dtype=np.int64)
    head = np.full(n_long, -1, dtype=np.int64)
    head[lens > 0] = orig[(start + lens - 1)[lens > 0]]
    joined_si = np.full(n_long, -1, dtype=np.int64)
    joined_y = np.full(n_long, -1, dtype=np.int64)
    # per-step logs: successes, extension pushes (long, vertex) and
    # kills (long, vertex, popped from the extension?)
    p1_li: list[np.ndarray] = []
    push_li: list[np.ndarray] = []
    push_v: list[np.ndarray] = []
    kill_li: list[np.ndarray] = []
    kill_v: list[np.ndarray] = []
    kill_ext: list[np.ndarray] = []

    active = np.flatnonzero(status == _ACTIVE)
    phases = log2_ceil(max(2, gp_n)) + 1
    steps = 0
    while active.size and active.size >= threshold:  # repro-lint: disable=R005 (an int count against the caller's threshold, the same Python compare on every engine)
        steps += 1
        if steps > max_steps:
            raise RuntimeError("path merging did not terminate (bug)")

        # ---- one step: every active head attempts matching ----
        unmatched = active
        pair_li: list[np.ndarray] = []
        pair_v: list[np.ndarray] = []
        for ph in range(phases + 1):
            if not unmatched.size:
                break
            k = int(unmatched.size)
            rows, sel = ans.query(head[unmatched], 1 << ph, as_arrays=True)
            sel_total = int(sel.size)
            t.charge(k + sel_total, log2_ceil(max(2, k + sel_total)) + 1)
            if not sel_total:
                break
            # H_ph ids: heads in query order, candidates in order of
            # first selection — the object loop's setdefault numbering
            fresh = np.ones(sel_total, dtype=bool)
            fresh[1:] = rows[1:] != rows[:-1]
            left = np.cumsum(fresh) - 1
            nl = int(left[-1]) + 1
            uniq, first, inv = np.unique(
                sel, return_index=True, return_inverse=True
            )
            cand_rank = np.empty(uniq.size, dtype=np.int64)
            cand_rank[np.argsort(first)] = np.arange(uniq.size)
            h_edges = np.stack([left, nl + cand_rank[inv]], axis=1)
            chosen = np.asarray(
                maximal_matching(
                    t, nl + int(uniq.size), h_edges, rng, backend=backend
                ),
                dtype=np.int64,
            )
            # apply matches: one op each
            t.charge(chosen.size, chosen.size)
            if chosen.size:
                pair_li.append(unmatched[rows[chosen]])
                v_now = sel[chosen]
                pair_v.append(v_now)
                ans.make_inactive(np.sort(v_now))
                still = np.ones(k, dtype=bool)
                still[rows[chosen]] = False
                unmatched = unmatched[still]
            t.charge(int(unmatched.size) + 1, 1)

        # ---- commit matches (each long at most once per step) ----
        n_pairs = sum(map(len, pair_li))
        t.parallel_ops(n_pairs)
        if n_pairs:
            li = np.concatenate(pair_li)
            v = np.concatenate(pair_v)
            onto = v >= contract_base
            ls, vs = li[onto], v[onto]
            if ls.size:
                status[ls] = _SUCCEEDED
                joined_si[ls] = vs - contract_base
                joined_y[ls] = cvals[np.searchsorted(ckeys, head[ls] * gp_n + vs)]
                p1_li.append(ls)
            lr, vr = li[~onto], v[~onto]
            below[vr] = top[lr]
            top[lr] = vr
            head[lr] = vr
            push_li.append(lr)
            push_v.append(vr)

        # ---- kills: unmatched heads die and paths backtrack ----
        t.parallel_ops(int(unmatched.size))
        if unmatched.size:
            u = unmatched
            tp = top[u]
            on_ext = tp >= 0
            top[u[on_ext]] = below[tp[on_ext]]
            uo = u[~on_ext]
            olen[uo] -= 1
            killed = tp.copy()
            killed[~on_ext] = orig[start[uo] + olen[uo]]
            kill_li.append(u)
            kill_v.append(killed)
            kill_ext.append(on_ext)
            tp = top[u]
            ol = olen[u]
            # a path backtracked to nothing is dead; its head is moot
            head[u] = np.where(
                tp >= 0, tp, orig[start[u] + np.maximum(ol, 1) - 1]
            )
            status[u[(tp < 0) & (ol == 0)]] = _DEAD

        active = active[status[active] == _ACTIVE]
        t.charge(n_long + 1, 1)

    # paths still attempting when the threshold fired are the P2 set
    t.charge(int(active.size) + 1, 1)

    # ---- materialize the final states (output extraction) ----
    empty = np.empty(0, dtype=np.int64)
    k_li = np.concatenate(kill_li) if kill_li else empty
    k_v = np.concatenate(kill_v) if kill_v else empty
    k_ext = np.concatenate(kill_ext) if kill_ext else empty.astype(bool)
    p_li = np.concatenate(push_li) if push_li else empty
    p_v = np.concatenate(push_v) if push_v else empty
    # an extension is a stack, so what survives of it is every pushed
    # vertex that was never popped, in push order
    popped = np.zeros(contract_base, dtype=bool)
    popped[k_v[k_ext]] = True
    survives = ~popped[p_v]
    ext = _grouped(n_long, p_li[survives], p_v[survives])
    killed_orig = _grouped(n_long, k_li[~k_ext], k_v[~k_ext])
    killed_ext = _grouped(n_long, k_li[k_ext], k_v[k_ext])
    longs = [
        LongState(
            orig=list(l), cur=l[:ol] + ex, killed_orig=ko, killed_ext=ke,
            status=_STATUS[sc],
            joined_short=(si, y) if sc == _SUCCEEDED else None,
        )
        for l, ol, ex, ko, ke, sc, si, y in zip(  # repro-lint: disable=R001 (output extraction, charged by the loop above)
            long_paths, olen.tolist(), ext, killed_orig, killed_ext,
            status.tolist(), joined_si.tolist(), joined_y.tolist(),
        )
    ]
    result = MergeResult(longs=longs, p2=active.tolist(), steps=steps)
    if p1_li:
        result.p1 = np.concatenate(p1_li).tolist()
        result.joined_shorts = set(joined_si[result.p1].tolist())
    return result


def _grouped(n: int, keys, vals) -> list[list[int]]:
    """``vals`` split by ``keys`` into one list per key ``0..n-1``,
    each in its original (step) order."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    flat = vals[order].tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]  # repro-lint: disable=R001 (output extraction, charged by the caller's loop)
