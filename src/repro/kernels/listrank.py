"""Vectorized list ranking (Lemma 2.4) for the numpy engine.

The tracked implementations in :mod:`repro.listrank.ranking` walk dicts
with per-element closures; here the same synchronous rounds become a
handful of gathers and blends over ``int64`` arrays.

Two engines answer a general call, through
:func:`prefix_sums_on_lists_np` (which
:func:`repro.listrank.ranking.prefix_sums_on_lists` calls with
``backend="numpy"``):

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
  It draws its per-round salt with the *same* ``rng.getrandbits(62)``
  calls, over the same number of rounds, as the tracked implementation,
  so a pipeline that threads one shared ``random.Random`` through
  ranking *and* other randomized subroutines stays in lockstep across
  engines.  This is what :func:`prefix_sums_on_lists_np` runs when the
  caller passed ``rng``.

The algorithm's own callers hold their lists in order with every value
1 — Theorem 3.2's absorbed chain (``core/absorption.absorb_separator``)
and Section 4.1.2's joined short paths (``core/reduction._assemble_merged``)
— so ranks are positions they read off their own arrays.  On the numpy
engine they call :func:`replay_contraction`, which only replays the
contraction's draws and charge; the tracked engine runs the instrumented
contraction instead.  :func:`_charge_contraction` holds the charge rule
both array paths make.
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
    "replay_contraction",
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


#: below this many nodes a contraction is charged (3k, 3(⌈log₂ k⌉ + 1))
#: and :func:`replay_contraction` walks Python lists instead of arrays
_SMALL = 96


def _charge_contraction(
    t: Tracker | None, k: int, live_total: int, spliced_rounds: int
) -> None:
    """Charge one Anderson–Miller contraction over ``k`` nodes.

    ``live_total`` sums the spliceable (non-head) nodes over the rounds
    and ``spliced_rounds`` counts the rounds that spliced any; below
    :data:`_SMALL` nodes neither is read.
    """
    if t is None:
        return
    logk = log2_ceil(max(2, k)) + 1
    if k < _SMALL:
        t.charge(3 * k, 3 * logk)
    else:
        # expected-linear contraction + replay, O(log) span per round
        t.charge(2 * live_total + 3 * k, (spliced_rounds + 3) * logk)


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
    _charge_contraction(t, k, total, len(rounds))
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


def replay_contraction(
    t: Tracker | None,
    ids: Sequence[int] | np.ndarray,
    off: Sequence[int] | np.ndarray,
    rng: random.Random,
) -> None:
    """Lemma 2.4 on lists the caller already holds in order, every value 1.

    List ``j`` is ``ids[off[j]:off[j + 1]]``, head first, so its i-th
    node ranks ``i + 1`` and the caller reads positions off its own
    arrays.  What this call reproduces is the rest of the
    Anderson–Miller contraction that :func:`prefix_sums_on_lists_np`
    runs on the same lists: the same ``rng.getrandbits(62)`` per round
    and the same (work, span) charge.  A round splices each non-head
    node whose coin is heads while its predecessor's is tails; that set
    depends only on the salt and on the order of the nodes still live,
    and splicing removes nodes without reordering the rest, so keeping
    each list's live order replays the same rounds.  No values, no
    successor pointers and no reverse pass are needed.
    """
    k = len(ids)
    if k == 0:
        return
    guard_max = 4 * (k.bit_length() + 2) ** 2 + 64
    guard = 0
    if k < _SMALL:
        flat = ids.tolist() if isinstance(ids, np.ndarray) else ids
        if len(off) == 2:
            live = [flat] if k > 1 else []
        else:
            bounds = off.tolist() if isinstance(off, np.ndarray) else off
            live = [
                flat[a:b] for a, b in zip(bounds, bounds[1:]) if b - a > 1
            ]
        while live:  # repro-lint: disable=R001 (charged after the loop)
            guard += 1
            if guard > guard_max:
                raise RuntimeError("anderson-miller failed to converge (bug)")
            salt = rng.getrandbits(62)
            still = []
            for lst in live:  # repro-lint: disable=R001
                # a head's coin is read only when its successor's is heads
                kept = [lst[0]]
                before = None
                for j in range(1, len(lst)):  # repro-lint: disable=R001
                    x = lst[j]
                    c = _coin(x, salt)
                    if c:
                        if before is None:
                            before = _coin(lst[0], salt)
                        if not before:
                            before = c
                            continue
                    kept.append(x)
                    before = c
                if len(kept) > 1:
                    still.append(kept)
            live = still
        _charge_contraction(t, k, 0, 0)
        return
    live_ids = np.asarray(ids, dtype=np.int64)
    starts = np.asarray(off, dtype=np.int64)
    # heads after the first (index 0 is always a head): none for one list
    later_head: np.ndarray | None = None
    if starts.size > 2:
        later_head = np.zeros(k, dtype=bool)
        later_head[starts[1:-1][starts[1:-1] < k]] = True
    n_heads = int(np.count_nonzero(np.diff(starts)))
    total = 0
    spliced_rounds = 0
    while live_ids.size > n_heads:
        guard += 1
        if guard > guard_max:
            raise RuntimeError("anderson-miller failed to converge (bug)")
        salt = rng.getrandbits(62)
        total += int(live_ids.size) - n_heads
        c = _coin_bits(live_ids, salt)
        # coin heads while the predecessor's is tails, never a head
        spl = np.empty(live_ids.size, dtype=bool)
        spl[0] = False
        np.greater(c[1:], c[:-1], out=spl[1:])
        if later_head is not None:
            spl &= ~later_head
        if spl.any():
            spliced_rounds += 1
            keep = ~spl
            live_ids = live_ids[keep]
            if later_head is not None:
                later_head = later_head[keep]
    _charge_contraction(t, k, total, spliced_rounds)
