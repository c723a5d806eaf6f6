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
from typing import Sequence

import numpy as np

from ..graph.graph import Graph
from ..kernels.dispatch import is_array_backend, resolve_backend
from ..matching.luby import maximal_matching
from ..pram.tracker import Tracker, log2_ceil
from ..structures.adjacency_query import ActiveNeighborStructure
from ..structures.flat_neighbors import FlatActiveNeighborStructure
from ..structures.naive_active import NaiveActiveNeighborStructure

__all__ = ["FlatPaths", "MergeResult", "LongState", "merge_paths"]


class FlatPaths:
    """A list of paths as one vertex array plus offsets: path ``i`` is
    ``flat[off[i]:off[i + 1]]``.  The Lemma 4.1 round keeps L, S and the
    connector set P in this form from one merge to the next."""

    __slots__ = ("flat", "off")

    def __init__(self, flat: np.ndarray, off: np.ndarray) -> None:
        self.flat = flat
        self.off = off

    @classmethod
    def from_lists(cls, paths: Sequence[Sequence[int]]) -> "FlatPaths":
        k = len(paths)
        off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, paths), np.int64, k), out=off[1:])
        flat = np.fromiter(chain.from_iterable(paths), np.int64, int(off[-1]))
        return cls(flat, off)

    @classmethod
    def gather(
        cls,
        pool: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
        steps: np.ndarray,
    ) -> "FlatPaths":
        """One path per run: run ``i`` is ``pool[starts[i] + steps[i] * j]``
        for ``j < lens[i]`` (``steps`` is +1 or -1), all in a few
        whole-array passes."""
        off = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        run = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        j = np.arange(int(off[-1]), dtype=np.int64) - off[run]
        return cls(pool[starts[run] + steps[run] * j], off)

    def __len__(self) -> int:
        return self.off.size - 1

    def lens(self) -> np.ndarray:
        return np.diff(self.off)

    def tolist(self) -> list[list[int]]:
        flat = self.flat.tolist()
        off = self.off.tolist()
        return [flat[lo:hi] for lo, hi in zip(off, off[1:])]  # repro-lint: disable=R001 (output extraction, charged by the caller)


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
        # cur is a surviving prefix of orig followed by the extension
        return self.cur[len(set(self.orig).intersection(self.cur)):]


#: long-path status codes of the array form (index into _STATUS)
_ACTIVE, _SUCCEEDED, _DEAD = 0, 1, 2
_STATUS = ("active", "succeeded", "dead")


@dataclass
class MergeResult:
    """The merge's outcome, with the connector set P in array form.

    Long path ``i`` keeps the first ``olen[i]`` vertices of its original
    path ``orig[i]``, followed by its connector piece ``ext[i]`` (the
    surviving extension, in path order).  ``status[i]`` is a code of
    ``_STATUS``; a succeeded path reached short path ``joined_si[i]`` at
    contact vertex ``joined_y[i]`` (both -1 otherwise).  ``kill_li`` and
    ``kill_v`` list the backtracking kills in order, as (long path,
    vertex) pairs.  The per-path :class:`LongState` view ``longs`` is
    built on first access only.
    """

    orig: FlatPaths
    olen: np.ndarray
    ext: FlatPaths
    status: np.ndarray
    joined_si: np.ndarray
    joined_y: np.ndarray
    kill_li: np.ndarray
    kill_v: np.ndarray
    #: indices of succeeded long paths (P1) / still-active ones (P2)
    p1: list[int] = field(default_factory=list)
    p2: list[int] = field(default_factory=list)
    #: short path indices that were joined (Ŝ)
    joined_shorts: set[int] = field(default_factory=set)
    steps: int = 0
    _longs: list[LongState] | None = field(default=None, repr=False)

    @property
    def longs(self) -> list[LongState]:
        if self._longs is None:
            self._longs = _states_of(self)
        return self._longs


def _grouped(n: int, keys: np.ndarray, vals: np.ndarray) -> FlatPaths:
    """``vals`` split by ``keys`` into one path per key ``0..n-1``, each
    in its original (step) order."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=off[1:])
    return FlatPaths(vals[np.argsort(keys, kind="stable")], off)


def _states_of(res: MergeResult) -> list[LongState]:
    """The :class:`LongState` view of an array-form result."""
    n = len(res.orig)
    # an extension vertex is never an original vertex of any long path
    # (those start inactive), so membership in L decides the kind of kill
    on_l = np.isin(res.kill_v, res.orig.flat)
    killed_orig = _grouped(n, res.kill_li[on_l], res.kill_v[on_l]).tolist()
    killed_ext = _grouped(n, res.kill_li[~on_l], res.kill_v[~on_l]).tolist()
    rows = zip(
        res.orig.tolist(), res.olen.tolist(), res.ext.tolist(), killed_orig,
        killed_ext, res.status.tolist(), res.joined_si.tolist(),
        res.joined_y.tolist(),
    )
    return [  # repro-lint: disable=R001 (output extraction, charged by the merge loop)
        LongState(
            orig=o, cur=o[:ol] + ex, killed_orig=ko, killed_ext=ke,
            status=_STATUS[sc],
            joined_short=(si, y) if sc == _SUCCEEDED else None,
        )
        for o, ol, ex, ko, ke, sc, si, y in rows
    ]


def _result_of_states(
    states: list[LongState],
    orig: FlatPaths,
    p1: list[int],
    p2: list[int],
    joined_shorts: set[int],
    steps: int,
) -> MergeResult:
    """The array form of the object loop's final states."""
    exts: list[list[int]] = []
    olen: list[int] = []
    status: list[int] = []
    joined_si: list[int] = []
    joined_y: list[int] = []
    kill_li: list[int] = []
    kill_v: list[int] = []
    for i, st in enumerate(states):  # repro-lint: disable=R001 (output extraction, charged by the merge loop)
        ext = st.extension
        exts.append(ext)
        olen.append(len(st.cur) - len(ext))
        status.append(_STATUS.index(st.status))
        si, y = st.joined_short or (-1, -1)
        joined_si.append(si)
        joined_y.append(y)
        # the kills grouped by kind, as the LongState view groups them
        kills = st.killed_orig + st.killed_ext
        kill_li.extend([i] * len(kills))
        kill_v.extend(kills)
    return MergeResult(
        orig=orig,
        olen=np.array(olen, dtype=np.int64),
        ext=FlatPaths.from_lists(exts),
        status=np.array(status, dtype=np.int8),
        joined_si=np.array(joined_si, dtype=np.int64),
        joined_y=np.array(joined_y, dtype=np.int64),
        kill_li=np.array(kill_li, dtype=np.int64),
        kill_v=np.array(kill_v, dtype=np.int64),
        p1=p1, p2=p2, joined_shorts=joined_shorts, steps=steps,
        _longs=states,
    )


def _contracted_arrays(
    g: Graph, members: np.ndarray, member_short: np.ndarray, n_short: int
):
    """G' as CSR arrays — the same graph, adjacency order and contact
    map as the tracked edge loop, without sorting g's edges.

    ``members[j]`` lies on short path ``member_short[j]``; G' ids are
    ``0..n-1`` for real vertices and ``n + si`` for short ``si``.  Each
    G' list is in edge-id order, which for the sorted edge list
    ``sorted(gp_edges)`` is ascending neighbor order; so the CSR slots
    are the distinct G' arcs sorted by code ``tail * big + head``.
    g's arcs come pre-sorted (:meth:`~repro.graph.csr.CSRGraph.
    sorted_arcs`): an arc off the shorts keeps its code's relative
    order, and only the arcs onto shorts are re-coded, sorted and
    deduplicated, then merged in.  Returns ``(indptr, nbr, mirror,
    ckeys, cvals)``: the CSR arrays, the twin-slot permutation, and the
    contact map as sorted keys ``real * big + contracted`` with the
    short endpoint of the lowest-id g edge between them.
    """
    n = g.n
    big = n + n_short
    tail, head, eid, twin = g.csr().sorted_arcs()
    vmap = np.arange(n, dtype=np.int64)
    vmap[members] = n + member_short
    a = vmap[tail]
    b = vmap[head]
    moved = (a >= n) | (b >= n)
    stay = np.flatnonzero(~moved)
    s_codes = a[stay] * big + b[stay]
    # arcs onto a short: re-code; an arc inside one short vanishes, and
    # the parallel arcs between a vertex and one short become one arc
    mv = np.flatnonzero(moved & (a != b))
    codes = a[mv] * big + b[mv]
    o = np.argsort(codes)
    sc = codes[o]
    first = np.ones(sc.size, dtype=bool)
    np.not_equal(sc[1:], sc[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    m_codes = sc[starts]
    # a merged arc's twin is the merged arc holding its first member's
    # reverse; ``where`` maps a g arc to its index among stay or mv
    gid = np.empty(sc.size, dtype=np.int64)
    gid[o] = np.cumsum(first) - 1
    where = np.empty(tail.size, dtype=np.int64)
    where[stay] = np.arange(stay.size, dtype=np.int64)
    where[mv] = np.arange(mv.size, dtype=np.int64)
    m_twin = gid[where[twin[mv[o[starts]]]]]
    # merge the two sorted code runs
    pos_m = np.searchsorted(s_codes, m_codes) + np.arange(m_codes.size)
    total = s_codes.size + m_codes.size
    is_m = np.zeros(total, dtype=bool)
    is_m[pos_m] = True
    pos_s = np.flatnonzero(~is_m)
    all_codes = np.empty(total, dtype=np.int64)
    all_codes[pos_s] = s_codes
    all_codes[pos_m] = m_codes
    mirror = np.empty(total, dtype=np.int64)
    mirror[pos_s] = pos_s[where[twin[stay]]]
    mirror[pos_m] = pos_m[m_twin]
    owner = all_codes // big
    indptr = np.zeros(big + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=big), out=indptr[1:])
    # contact of (real x, short c): over the arcs x -> y with y on c,
    # the y of the lowest edge id
    to_short = (m_codes < n * big) & (m_codes % big >= n)
    ckeys = m_codes[to_short]
    if sc.size:
        ykey = np.minimum.reduceat((eid[mv] * n + head[mv])[o], starts)
        cvals = ykey[to_short] % n
    else:
        cvals = ckeys
    return indptr, all_codes - owner * big, mirror, ckeys, cvals


def merge_paths(
    g: Graph,
    t: Tracker,
    long_paths: Sequence[Sequence[int]] | FlatPaths,
    short_paths: Sequence[Sequence[int]] | FlatPaths,
    rng: random.Random,
    threshold: float | None = None,
    neighbor_structure: str = "tournament",
    backend: str | None = None,
) -> MergeResult:
    """Run the Section 4.2 path-merging process. Returns the final states.

    The paths come as lists of vertex lists or as :class:`FlatPaths`.
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
    if not isinstance(long_paths, FlatPaths):
        long_paths = FlatPaths.from_lists(long_paths)
    if not isinstance(short_paths, FlatPaths):
        short_paths = FlatPaths.from_lists(short_paths)
    n_short = len(short_paths)
    members = short_paths.flat

    # ------------------------------------------------------------------
    # build the auxiliary graph G' with short paths contracted
    # ------------------------------------------------------------------
    kb = resolve_backend(backend)
    # the naive baseline needs G' as a Graph: the tracked edge loop below
    # builds it on either engine
    array_engine = (
        is_array_backend(kb) and g.m > 0 and neighbor_structure == "tournament"
    )
    if not array_engine:
        on_short = {}  # orig vertex -> short index
        for si, s in enumerate(short_paths.tolist()):
            for v in s:
                on_short[v] = si
    t.charge(int(members.size), 1)
    # G' ids: 0..n-1 for real vertices (short members unused), then one id
    # per short path
    contract_base = n
    gp_n = contract_base + n_short
    t.charge(g.m, log2_ceil(max(2, g.m)) + 1)
    if array_engine:
        # all-array path: keep G' as CSR arrays and build the flat
        # neighbor structure straight from them — no intermediate Graph
        # with Python adjacency lists
        member_short = np.repeat(
            np.arange(n_short, dtype=np.int64), short_paths.lens()
        )
        indptr, nbr, mirror, ckeys, cvals = _contracted_arrays(
            g, members, member_short, n_short
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
        gp = Graph(gp_n, sorted(gp_edges))
    t.charge(0, log2_ceil(max(2, g.m)))  # dedup via parallel hashing

    if neighbor_structure == "tournament":
        # tournament trees under the tracked engine, the flat CSR twin
        # under numpy — identical answers (see structures/flat_neighbors.py)
        if array_engine:
            ans = FlatActiveNeighborStructure.from_csr(
                gp_n, indptr, nbr, mirror, tracker=t
            )
        elif is_array_backend(kb):
            ans = FlatActiveNeighborStructure(gp, tracker=t)
        else:
            ans = ActiveNeighborStructure(gp, tracker=t)
    elif neighbor_structure == "naive":
        ans = NaiveActiveNeighborStructure(gp, tracker=t)
    else:
        raise ValueError(f"unknown neighbor_structure {neighbor_structure!r}")

    # long-path members start inactive ("contained in a path"); short
    # members' real ids are unused in G' — deactivate them so queries can
    # never return them (they exist as padding ids only)
    if array_engine:
        # the paths are vertex-disjoint, so no id repeats
        long_members, padding = long_paths.flat, members
    else:
        long_members = long_paths.flat.tolist()
        padding = sorted(on_short)
    if len(long_members):
        ans.make_inactive(long_members)
    if len(padding):
        ans.make_inactive(padding)

    if array_engine:
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
    long_paths: FlatPaths,
    contact: dict[tuple[int, int], int],
    contract_base: int,
    gp_n: int,
    threshold: float,
    max_steps: int,
    rng: random.Random,
    backend: str | None,
) -> MergeResult:
    """The merging process over per-path :class:`LongState` objects."""
    orig_lists = long_paths.tolist()
    longs = [
        LongState(orig=l, cur=list(l), killed_orig=[], killed_ext=[])
        for l in orig_lists
    ]
    for st in longs:
        st.status = "active" if st.cur else "dead"
    t.charge(len(longs) + 1, 1)

    orig_sets = [set(l) for l in orig_lists]
    p1: list[int] = []
    joined_shorts: set[int] = set()

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
                p1.append(li)
                joined_shorts.add(si)
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
    t.charge(len(active) + 1, 1)
    return _result_of_states(
        longs, long_paths, p1, list(active), joined_shorts, steps
    )


def _merge_steps_arrays(
    t: Tracker,
    ans,
    long_paths: FlatPaths,
    contact: tuple,
    contract_base: int,
    gp_n: int,
    threshold: float,
    max_steps: int,
    rng: random.Random,
    backend: str | None,
) -> MergeResult:
    """:func:`_merge_steps_objects` on arrays, charge for charge.

    A long path is a stack of vertices linked through ``below`` — its
    original vertices, then its extension — with its head on ``top``
    (each real G' vertex is on at most one path, so ``below`` is indexed
    by vertex); a kill pops the head, a path popped empty is dead.  Each
    phase builds H_ph from the flat query answer, each step commits its
    matches and kills its unmatched heads in whole-array passes, and the
    result keeps P in array form.  ``ans`` is the flat Lemma 4.5
    structure; ``contact`` is ``(ckeys, cvals)`` from
    :func:`_contracted_arrays`.
    """
    ckeys, cvals = contact
    n_long = len(long_paths)
    flat, off = long_paths.flat, long_paths.off
    lens = np.diff(off)
    t.charge(n_long + 1, 1)
    nonempty = lens > 0
    below = np.empty(contract_base, dtype=np.int64)
    below[flat[1:]] = flat[:-1]
    below[flat[off[:-1][nonempty]]] = -1
    top = np.full(n_long, -1, dtype=np.int64)
    top[nonempty] = flat[off[1:][nonempty] - 1]
    status = np.where(nonempty, _ACTIVE, _DEAD).astype(np.int8)
    joined_si = np.full(n_long, -1, dtype=np.int64)
    joined_y = np.full(n_long, -1, dtype=np.int64)
    # H_ph numbering scratch: key r for head row r, k + v for G' vertex v
    lab = np.empty(n_long + gp_n, dtype=np.int64)
    # per-step logs: successes, extension pushes and kills
    p1_li: list[np.ndarray] = []
    push_li: list[np.ndarray] = []
    push_v: list[np.ndarray] = []
    kill_li: list[np.ndarray] = []
    kill_v: list[np.ndarray] = []

    active = np.flatnonzero(nonempty)
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
            rows, sel = ans.query(top[unmatched], 1 << ph, as_arrays=True)
            s = int(sel.size)
            t.charge(k + s, log2_ceil(max(2, k + s)) + 1)
            if not s:
                break
            # H_ph's vertices: the heads with a selection and the
            # selected G' vertices, numbered 0.. in any order — the
            # matching depends only on which edges share an endpoint.
            # Each key keeps one of its positions (whichever write
            # lands); the kept positions, counted, number the keys.
            keys = np.concatenate((rows, sel + k))
            pos = np.arange(2 * s, dtype=np.int64)
            lab[keys] = pos
            rep = lab[keys]
            ids = np.cumsum(rep == pos)
            h_edges = (ids[rep] - 1).reshape(2, s).T
            chosen = maximal_matching(
                t, int(ids[-1]), h_edges, rng, backend=backend
            )
            # apply matches: one op each
            c = len(chosen)
            t.charge(c, c)
            if c:
                r = rows[chosen]
                v_now = sel[chosen]
                pair_li.append(unmatched[r])
                pair_v.append(v_now)
                ans.make_inactive(v_now)
                still = np.ones(k, dtype=bool)
                still[r] = False
                unmatched = unmatched[still]
            t.charge(int(unmatched.size) + 1, 1)

        # ---- commit matches (each long at most once per step) ----
        n_pairs = sum(map(len, pair_li))
        t.parallel_ops(n_pairs)
        if n_pairs:
            li = np.concatenate(pair_li)
            v = np.concatenate(pair_v)
            onto = v >= contract_base
            if onto.any():
                ls, vs = li[onto], v[onto]
                status[ls] = _SUCCEEDED
                joined_si[ls] = vs - contract_base
                joined_y[ls] = cvals[
                    np.searchsorted(ckeys, top[ls] * gp_n + vs)
                ]
                p1_li.append(ls)
                li, v = li[~onto], v[~onto]
            below[v] = top[li]
            top[li] = v
            push_li.append(li)
            push_v.append(v)

        # ---- kills: unmatched heads die and paths backtrack ----
        t.parallel_ops(int(unmatched.size))
        if unmatched.size:
            killed = top[unmatched]
            top[unmatched] = below[killed]
            status[unmatched[top[unmatched] < 0]] = _DEAD
            kill_li.append(unmatched)
            kill_v.append(killed)

        active = active[status[active] == _ACTIVE]
        t.charge(n_long + 1, 1)

    # paths still attempting when the threshold fired are the P2 set
    t.charge(int(active.size) + 1, 1)

    # ---- P in array form (output extraction) ----
    empty = np.empty(0, dtype=np.int64)
    k_li = np.concatenate(kill_li) if kill_li else empty
    k_v = np.concatenate(kill_v) if kill_v else empty
    p_li = np.concatenate(push_li) if push_li else empty
    p_v = np.concatenate(push_v) if push_v else empty
    # an extension is a stack, so what survives of it is every pushed
    # vertex that was never popped, in push order; the original prefix
    # loses one vertex per kill of an original vertex
    gone = np.zeros(contract_base, dtype=bool)
    gone[k_v] = True
    survives = ~gone[p_v]
    gone[:] = False
    gone[flat] = True
    p1 = np.concatenate(p1_li).tolist() if p1_li else []
    return MergeResult(
        orig=long_paths,
        olen=lens - np.bincount(k_li[gone[k_v]], minlength=n_long),
        ext=_grouped(n_long, p_li[survives], p_v[survives]),
        status=status, joined_si=joined_si, joined_y=joined_y,
        kill_li=k_li, kill_v=k_v,
        p1=p1, p2=active.tolist(), steps=steps,
        joined_shorts=set(joined_si[p1].tolist()),
    )
