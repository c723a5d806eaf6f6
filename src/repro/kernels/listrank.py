"""Vectorized list ranking (Lemma 2.4) — array engines for both methods.

The tracked implementations in :mod:`repro.listrank.ranking` walk dicts
with per-element closures; here the same synchronous rounds become a
handful of gathers and blends over ``int64`` arrays.

Two engines:

* :func:`wyllie_ranks` — Wyllie pointer jumping::

      rank += where(live, rank[ptr], 0)
      ptr   = where(live, ptr[ptr], -1)

  ``O(log L)`` rounds over lists of total length ``L`` (``-1`` marks a
  head).  Used whenever the caller did not hand over a shared
  ``random.Random`` — the ranks are uniquely determined by the lists, so
  any engine agrees with any other.

* :func:`anderson_miller_ranks` — the randomized independent-set
  contraction of [AM90], vectorized: per round one hashed-coin array
  decides the splice set (node heads / predecessor tails — provably
  non-adjacent, so the pointer updates are race-free whole-array
  scatters), and the reverse replay re-ranks each round in one gather.
  Crucially it draws its per-round salt with the *same*
  ``rng.getrandbits(62)`` calls, over the same number of rounds, as the
  tracked implementation — so a pipeline that threads one shared
  ``random.Random`` through ranking *and* other randomized subroutines
  stays in lockstep across backends (the matching that runs after a
  ranking sees the identical stream).  This is what
  :func:`prefix_sums_on_lists_np` runs when the caller passed ``rng``.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

import numpy as np

from ..listrank.ranking import _coin
from ..pram.tracker import Tracker, log2_ceil

__all__ = [
    "wyllie_ranks",
    "anderson_miller_ranks",
    "prefix_sums_on_lists_np",
    "unit_chain_ranks",
]


def wyllie_ranks(
    prev: np.ndarray, values: np.ndarray, t: Tracker | None = None
) -> np.ndarray:
    """Prefix sums over disjoint lists given as a predecessor array.

    ``prev[i]`` is the index of ``i``'s predecessor, or ``-1`` at a list
    head; ``values[i]`` its value. Returns ``rank`` with
    ``rank[i] = sum of values from i's head through i``.
    """
    rank = np.asarray(values, dtype=np.int64).copy()
    ptr = np.asarray(prev, dtype=np.int64).copy()
    n = rank.size
    if n == 0:
        return rank
    if ptr.size != n:
        raise ValueError("prev and values must have equal length")
    if ((ptr < -1) | (ptr >= n)).any():
        raise ValueError("prev entries must be -1 or valid indices")
    rounds = 0
    while True:
        live = ptr >= 0
        if not live.any():
            break
        rounds += 1
        if rounds > n.bit_length() + 2:  # L halves per round: impossible
            raise RuntimeError("wyllie pointer jumping failed to converge")
        safe = np.where(live, ptr, 0)
        rank += np.where(live, rank[safe], 0)
        ptr = np.where(live, ptr[safe], -1)
    if t is not None:
        # the tracked Wyllie charges O(L) per round at O(1) span + fork
        t.charge(max(1, rounds) * n + n, (rounds + 1) * (log2_ceil(max(2, n)) + 1))
    return rank


def _coin_bits(ids: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized :func:`repro.listrank.ranking._coin` (splitmix64 bit)."""
    x = ids.astype(np.uint64) + np.uint64(salt)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((x ^ (x >> np.uint64(31))) & np.uint64(1)).astype(bool)


def anderson_miller_ranks(
    ids: np.ndarray,
    prev: np.ndarray,
    values: np.ndarray,
    rng: random.Random,
    t: Tracker | None = None,
) -> np.ndarray:
    """Anderson–Miller list contraction on arrays, in rng lockstep.

    ``ids[i]`` is element i's original identity (hashed for the coins),
    ``prev[i]`` its predecessor index (``-1`` at heads), ``values[i]``
    its value.  Consumes exactly one ``rng.getrandbits(62)`` per
    contraction round — the same draws, over the same number of rounds,
    as the tracked implementation, because the splice sets are a
    deterministic function of the salts and the list structure.
    """
    k = int(ids.size)
    rank = np.zeros(k, dtype=np.int64)
    if k == 0:
        return rank
    prv = prev.astype(np.int64).copy()
    heads = prv < 0
    nxt = np.full(k, -1, dtype=np.int64)
    tails = np.flatnonzero(~heads)
    nxt[prv[tails]] = tails
    val = np.asarray(values, dtype=np.int64).copy()
    live = ~heads
    live_count = int(live.sum())
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    guard = 0
    total = 0
    while live_count:
        guard += 1
        if guard > 4 * (k.bit_length() + 2) ** 2 + 64:
            raise RuntimeError("anderson-miller failed to converge (bug)")
        salt = rng.getrandbits(62)
        total += live_count
        c = _coin_bits(ids, salt)
        # splice: coin of node heads, coin of predecessor tails — spliced
        # nodes are pairwise non-adjacent, so the updates are race-free
        spl = live & c & ~c[np.where(live, prv, 0)]
        sv = np.flatnonzero(spl)
        if sv.size:
            pv = prv[sv]
            vv = val[sv].copy()
            w = nxt[sv]
            has = w >= 0
            nxt[pv] = w
            wh = w[has]
            prv[wh] = pv[has]
            val[wh] += vv[has]
            live[sv] = False
            live_count -= int(sv.size)
            rounds.append((sv, pv, vv))

    hidx = np.flatnonzero(heads)
    rank[hidx] = values[hidx]
    for sv, pv, vv in reversed(rounds):
        rank[sv] = rank[pv] + vv
    if t is not None:
        # aggregate: expected-linear contraction + replay, O(log) span/round
        logk = log2_ceil(max(2, k)) + 1
        t.charge(2 * total + 3 * k, (len(rounds) + 3) * logk)
    return rank


#: below this size the array setup costs more than it saves; run the
#: tracked algorithm shape directly (uninstrumented) instead
_SMALL = 96


def _am_small(
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
    rng: random.Random,
) -> dict[int, int]:
    """Uninstrumented mirror of the tracked Anderson–Miller (small inputs).

    Same splice logic and the same one-salt-per-round draws, so small
    calls stay in rng lockstep with the tracked backend too.
    """
    vset = set(vertices)
    prv: dict[int, int | None] = {}
    nxt: dict[int, int | None] = {v: None for v in vertices}
    val: dict[int, int] = {}
    for v in vertices:
        p = prev_of.get(v)
        prv[v] = p if (p is not None and p in vset) else None
        val[v] = value_of(v)
    for v in vertices:
        p = prv[v]
        if p is not None:
            nxt[p] = v
    heads = [v for v in vertices if prv[v] is None]
    live = [v for v in vertices if prv[v] is not None]
    rounds: list[list[tuple[int, int, int]]] = []
    guard = 0
    while live:
        guard += 1
        if guard > 4 * (len(vertices).bit_length() + 2) ** 2 + 64:
            raise RuntimeError("anderson-miller failed to converge (bug)")
        salt = rng.getrandbits(62)
        spliced: list[tuple[int, int, int]] = []
        new_live: list[int] = []
        for v in live:
            p = prv[v]
            if _coin(v, salt) and not _coin(p, salt):
                spliced.append((v, p, val[v]))
            else:
                new_live.append(v)
        for v, p, _vv in spliced:
            w = nxt[v]
            nxt[p] = w
            if w is not None:
                prv[w] = p
                val[w] += val[v]
        if spliced:
            rounds.append(spliced)
        live = new_live
    rank: dict[int, int] = {v: value_of(v) for v in heads}
    for spliced in reversed(rounds):
        for v, p, vv in spliced:
            rank[v] = rank[p] + vv
    return rank


def prefix_sums_on_lists_np(
    t: Tracker | None,
    vertices: Sequence[int],
    prev_of: Mapping[int, int | None],
    value_of: Callable[[int], int],
    rng: random.Random | None = None,
) -> dict[int, int]:
    """Drop-in for :func:`repro.listrank.ranking.prefix_sums_on_lists`.

    Same contract: ``prev_of`` gives each vertex's predecessor (``None``
    at heads; predecessors outside ``vertices`` are treated as absent, so
    a caller can rank a suffix of a list). Returns ``{vertex: rank}``.

    Engine selection: with a caller ``rng``, the vectorized
    Anderson–Miller contraction runs and consumes the identical ``rng``
    draws the tracked backend would (lockstep — see
    :func:`anderson_miller_ranks`); otherwise Wyllie pointer jumping
    runs, which draws nothing — again matching the tracked backend's
    consumption (a tracked Anderson–Miller call without a caller ``rng``
    draws from its own private generator).  Ranks are identical either
    way.
    """
    vs = list(vertices)
    if not vs:
        return {}
    if rng is not None and len(vs) < _SMALL:
        if t is not None:
            k = len(vs)
            t.charge(3 * k, 3 * (log2_ceil(max(2, k)) + 1))
        return _am_small(vs, prev_of, value_of, rng)
    k = len(vs)
    ids = np.fromiter(vs, dtype=np.int64, count=k)
    values = np.fromiter(map(value_of, vs), dtype=np.int64, count=k)
    lo = int(ids.min())
    hi = int(ids.max())
    # encode "no predecessor" as lo-1: it is never a member id, and a
    # real predecessor that happens to equal lo-1 lies outside
    # ``vertices`` anyway, so both map to -1 below — exactly the
    # "absent predecessor" contract
    sentinel = lo - 1
    prev_raw = np.fromiter(
        (sentinel if p is None else p for p in map(prev_of.get, vs)),
        dtype=np.int64,
        count=k,
    )
    # map global predecessor ids to local positions (predecessors
    # outside ``vertices`` stay -1): a scatter lookup table when the ids
    # are non-negative and dense enough, binary search otherwise
    if lo >= 0 and hi < max(16 * k, 1 << 20):
        lut = np.full(hi + 1, -1, dtype=np.int64)
        lut[ids] = np.arange(k, dtype=np.int64)
        in_range = (prev_raw >= 0) & (prev_raw <= hi)
        prev = np.where(in_range, lut[np.where(in_range, prev_raw, 0)], -1)
    else:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        pos = np.searchsorted(sorted_ids, prev_raw)
        pos_c = np.minimum(pos, k - 1)
        found = sorted_ids[pos_c] == prev_raw
        prev = np.where(found, order[pos_c], -1)
    if rng is not None:
        ranks = anderson_miller_ranks(ids, prev, values, rng, t)
    else:
        ranks = wyllie_ranks(prev, values, t)
    return dict(zip(vs, ranks.tolist()))


def unit_chain_ranks(
    t: Tracker | None, chain: Sequence[int], rng: random.Random
) -> range:
    """Lemma 2.4 on one list whose order the caller already holds, every
    value 1: the ranks are ``1, ..., k`` in ``chain`` order.

    Only the Anderson–Miller contraction's rounds are replayed, so that
    the call draws exactly the salts, and charges exactly the
    (work, span), that :func:`prefix_sums_on_lists_np` charges for the
    same list with ``prev_of`` linking ``chain`` head first. A round's
    splice set depends only on the salt and the order of the list still
    live, and splicing removes list elements without reordering the
    rest, so the replay keeps just that order: no values, no successor
    pointers, no reverse pass.
    """
    k = len(chain)
    if k == 0:
        return range(1, 1)
    guard_max = 4 * (k.bit_length() + 2) ** 2 + 64
    if k < _SMALL:
        if t is not None:
            t.charge(3 * k, 3 * (log2_ceil(max(2, k)) + 1))
        live = list(chain)
        guard = 0
        while len(live) > 1:  # repro-lint: disable=R001 (charged above)
            guard += 1
            if guard > guard_max:
                raise RuntimeError("anderson-miller failed to converge (bug)")
            salt = rng.getrandbits(62)
            # splice a non-head node whose coin is heads while its
            # predecessor's is tails (the predecessor's coin only when
            # needed, as the dict mirror evaluates them)
            kept = [live[0]]
            before = None
            for j in range(1, len(live)):  # repro-lint: disable=R001
                x = live[j]
                c = _coin(x, salt)
                if c:
                    if before is None:
                        before = _coin(live[j - 1], salt)
                    if not before:
                        before = c
                        continue
                kept.append(x)
                before = c
            live = kept
        return range(1, k + 1)
    live_ids = np.asarray(chain, dtype=np.int64)
    total = 0
    spliced_rounds = 0
    guard = 0
    while live_ids.size > 1:
        guard += 1
        if guard > guard_max:
            raise RuntimeError("anderson-miller failed to converge (bug)")
        salt = rng.getrandbits(62)
        total += int(live_ids.size) - 1
        c = _coin_bits(live_ids, salt)
        spl = np.zeros(live_ids.size, dtype=bool)
        spl[1:] = c[1:] & ~c[:-1]
        if spl.any():
            spliced_rounds += 1
            live_ids = live_ids[~spl]
    if t is not None:
        logk = log2_ceil(max(2, k)) + 1
        t.charge(2 * total + 3 * k, (spliced_rounds + 3) * logk)
    return range(1, k + 1)
