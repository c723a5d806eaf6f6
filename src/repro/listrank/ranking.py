"""List ranking / prefix sums on linked lists (Lemma 2.4).

Given a linked list ``(x_1, ..., x_k)`` where element ``x_i`` carries a
number ``y_i``, compute ``rank(x_i) = y_1 + ... + y_i`` so that it can be
read directly at ``x_i``. The paper invokes this (Lemma 2.4, citing
Anderson–Miller [AM90]) to decide, for a path ``s = s' y s''``, whether
``|s'| >= |s''|`` — simultaneously over many paths with total work linear in
their total length and span ``O(log n)``.

Two implementations, both checked against the sequential oracle
:func:`sequential_prefix_sums`:

* :func:`wyllie_prefix_sums` — Wyllie's synchronous pointer jumping.
  Deterministic, ``O(L log L)`` work, ``O(log L)`` span; E12's comparison
  point for the work-efficient contraction.
* :func:`anderson_miller_prefix_sums` — randomized independent-set list
  contraction in the style of [AM90]: repeatedly splice out an independent
  ~1/4 fraction of nodes (coin of node is heads, coin of predecessor tails),
  then reinsert round by round in reverse. Expected ``O(L)`` work,
  ``O(log L)`` span w.h.p.

Both operate on many disjoint lists at once: the caller passes the flat
vertex set and a predecessor map (the "one kept direction" of the paper's
copied doubly-linked list).  The algorithm's callers hold their lists in
order, so on the numpy engine they replay only the contraction's draws
and charge (:func:`repro.kernels.listrank.replay_contraction`).
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from ..kernels.dispatch import is_array_backend
from ..pram.tracker import Tracker, log2_ceil

__all__ = [
    "wyllie_prefix_sums",
    "anderson_miller_prefix_sums",
    "prefix_sums_on_lists",
    "sequential_prefix_sums",
]


def sequential_prefix_sums(
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
) -> dict[int, int]:
    """Reference oracle: O(L) sequential computation (tests only)."""
    succ: dict[int, int] = {}
    heads = []
    vset = set(vertices)
    for v in vertices:
        p = prev_of.get(v)
        if p is None or p not in vset:
            heads.append(v)
        else:
            succ[p] = v
    ranks: dict[int, int] = {}
    for h in heads:
        acc = 0
        x: int | None = h
        while x is not None:
            acc += value_of(x)
            ranks[x] = acc
            x = succ.get(x)
    return ranks


def wyllie_prefix_sums(
    t: Tracker,
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
) -> dict[int, int]:
    """Wyllie pointer jumping: rank(v) = sum of values from head to v.

    ``prev_of[v]`` must give v's predecessor on its list (None at heads);
    predecessors outside ``vertices`` are treated as absent (list boundary),
    which is what lets a caller rank a *suffix* of a list.
    """
    vset = set(vertices)
    rank: dict[int, int] = {}
    ptr: dict[int, int | None] = {}

    def init(v: int) -> None:
        t.op(1)
        rank[v] = value_of(v)
        p = prev_of.get(v)
        ptr[v] = p if (p is not None and p in vset) else None

    t.parallel_for(vertices, init)

    rounds = log2_ceil(max(2, len(vertices))) + 1
    for _ in range(rounds):
        # synchronous step: read old arrays, write new ones
        new_rank: dict[int, int] = {}
        new_ptr: dict[int, int | None] = {}

        def step(v: int) -> None:
            t.op(1)
            p = ptr[v]
            if p is None:
                new_rank[v] = rank[v]
                new_ptr[v] = None
            else:
                new_rank[v] = rank[v] + rank[p]
                new_ptr[v] = ptr[p]

        t.parallel_for(vertices, step)
        rank, ptr = new_rank, new_ptr
        if all(p is None for p in ptr.values()):
            break
    return rank


def _coin(v: int, salt: int) -> bool:
    """Splitmix64-style hash coin: independent-looking bit per (vertex, round)."""
    x = (v + salt) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return bool((x ^ (x >> 31)) & 1)


def anderson_miller_prefix_sums(
    t: Tracker,
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
    rng: random.Random | None = None,
) -> dict[int, int]:
    """Randomized work-efficient list contraction (Anderson–Miller style).

    Expected O(L) work, O(log L) span w.h.p. Contracts by splicing out an
    independent set of non-head nodes each round (node heads / predecessor
    tails), pushing each spliced node's accumulated segment value into its
    successor; then replays splices in reverse, a round at a time, to assign
    ranks.
    """
    rng = rng if rng is not None else random.Random(0x5EED)
    vset = set(vertices)
    # working copies of the (single-direction) list
    prv: dict[int, int | None] = {}
    nxt: dict[int, int | None] = {}
    val: dict[int, int] = {}

    def init(v: int) -> None:
        t.op(1)
        p = prev_of.get(v)
        prv[v] = p if (p is not None and p in vset) else None
        val[v] = value_of(v)

    t.parallel_for(vertices, init)

    def init_next(v: int) -> None:
        t.op(1)
        p = prv[v]
        if p is not None:
            nxt[p] = v
        if v not in nxt:
            nxt.setdefault(v, None)

    # Build successor pointers (CRCW scatter).
    for v in vertices:
        nxt[v] = None
    t.parallel_for(vertices, init_next)

    heads_orig = [v for v in vertices if prv[v] is None]
    live = [v for v in vertices if prv[v] is not None]  # non-heads, spliceable
    t.charge(len(vertices), 1)
    # rounds of splices; each entry: list of (v, pred_at_splice, val_at_splice)
    rounds: list[list[tuple[int, int, int]]] = []

    guard = 0
    while live:
        guard += 1
        if guard > 4 * (len(vertices).bit_length() + 2) ** 2 + 64:
            raise RuntimeError("anderson-miller failed to converge (bug)")
        # Per-round coins come from a hashed (salt, vertex) pair so that a
        # node can evaluate its predecessor's coin without a prior exchange
        # round — one pass decides splicing *and* builds the next live set.
        salt = rng.getrandbits(62)

        spliced: list[tuple[int, int, int]] = []
        new_live: list[int] = []

        def decide(v: int) -> None:
            t.op(1)
            p = prv[v]
            # p is not None: live nodes are exactly the non-heads.
            if _coin(v, salt) and not _coin(p, salt):
                spliced.append((v, p, val[v]))
            else:
                new_live.append(v)

        t.parallel_for(live, decide)

        def apply(rec: tuple[int, int, int]) -> None:
            t.op(1)
            v, p, _vv = rec
            w = nxt[v]
            nxt[p] = w
            if w is not None:
                prv[w] = p
                val[w] += val[v]
            prv[v] = None
            nxt[v] = None

        t.parallel_for(spliced, apply)
        if spliced:
            rounds.append(spliced)
        live = new_live

    # After full contraction only the original heads remain. Segment values
    # flow *forward* into successors, never into a head, so each head's rank
    # is simply its own original value.
    rank: dict[int, int] = {}

    def rank_heads(v: int) -> None:
        t.op(1)
        rank[v] = value_of(v)

    t.parallel_for(heads_orig, rank_heads)

    # Replay the splices in reverse, one round at a time: a node spliced in
    # round r had a predecessor that was live in round r, hence is ranked by
    # the time round r is replayed; nodes within a round are independent.

    for spliced in reversed(rounds):

        def reinsert(rec: tuple[int, int, int]) -> None:
            t.op(1)
            v, p, vv = rec
            rank[v] = rank[p] + vv

        t.parallel_for(spliced, reinsert)

    return rank


def prefix_sums_on_lists(
    t: Tracker,
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
    rng: random.Random | None = None,
    backend: str | None = None,
) -> dict[int, int]:
    """Lemma 2.4 entry point: prefix sums on a union of disjoint lists,
    by Anderson–Miller contraction.

    ``backend="numpy"`` runs the vectorized kernels in
    :mod:`repro.kernels.listrank`: the lockstep Anderson–Miller
    contraction when the caller passed ``rng`` (it consumes the
    identical ``rng`` draws as the tracked path, so a shared generator
    stays in sync across backends), and Wyllie pointer jumping
    otherwise — both compute the exact same ranks. The default
    ``"tracked"`` backend keeps the instrumented implementation below
    as the work/span measurement instrument.
    """
    if is_array_backend(backend):
        from ..kernels.listrank import prefix_sums_on_lists_np

        return prefix_sums_on_lists_np(t, vertices, prev_of, value_of, rng=rng)
    return anderson_miller_prefix_sums(t, vertices, prev_of, value_of, rng)
