"""Tiled multicore kernels — the ``"parallel"`` backend's own column.

Each kernel here is a *tiling shim* over its numpy twin: the index range
is partitioned into one tile per pool worker, every tile runs the
existing numpy kernel body on its slice inside a real OS process
(:class:`~repro.pram.executor.WorkerPool`), and the partial results are
merged with the **already-canonicalized reduction** of the serial
kernel — integer addition for scans (associative even under int64
wraparound), packed-key ``min`` for the scatter kernels
(order-independent), elementwise writes for pointer doubling (disjoint
slices). That is what keeps the ``parallel`` backend byte-identical to
``numpy`` (and hence to ``tracked``): the merge *is* the serial
reduction, just reassociated.

Inputs and outputs cross the process boundary through a
:class:`~repro.pram.shm.ShmArena` — the task pipes carry only
:class:`~repro.pram.shm.ShmRef` descriptors and slice bounds, never
array data.

Every entry point takes the serial fallback below
:func:`parallel_threshold` elements (or when the pool has one worker):
the DFS recursion calls these kernels at all sizes, and dispatch
round-trips on a 50-element array would swamp the work. Tracker charges
are issued in the parent only, with exactly the aggregates the numpy
twin charges — backend-switched runs report identical work/span.
"""

from __future__ import annotations

import os

import numpy as np

from ..pram.executor import WorkerPool, get_pool
from ..pram.shm import ShmArena
from ..pram.tracker import Tracker, log2_ceil
from . import scan as _scan
from .components import components_arrays
from .listrank import wyllie_ranks
from .matching import maximal_matching_np
from .tour_flat import rebuild_rooted_forest

__all__ = [
    "parallel_threshold",
    "set_parallel_threshold",
    "exclusive_scan_par",
    "inclusive_scan_par",
    "reduce_sum_par",
    "reduce_max_par",
    "reduce_min_par",
    "wyllie_ranks_par",
    "prefix_sums_on_lists_par",
    "connected_components_par",
    "spanning_forest_par",
    "maximal_matching_par",
    "nontree_counts_par",
    "rebuild_rooted_forest_par",
]

_FN = "repro.kernels.tiling:%s"

#: default minimum element count before a kernel call is worth tiling
_DEFAULT_MIN = 1 << 15

_threshold_override: int | None = None


def parallel_threshold() -> int:  # repro-lint: disable=R004 — config, not a kernel
    """Elements below which parallel kernels run their serial fallback.

    ``REPRO_PAR_MIN`` overrides the default (``32768``);
    :func:`set_parallel_threshold` overrides both (tests set ``0`` to
    force every call through the pool).
    """
    if _threshold_override is not None:
        return _threshold_override
    env = os.environ.get("REPRO_PAR_MIN")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_PAR_MIN must be an integer, got {env!r}"
            ) from None
    return _DEFAULT_MIN


def set_parallel_threshold(n: int | None) -> None:  # repro-lint: disable=R004 — config, not a kernel
    """Install (or with ``None``, clear) a process-wide threshold override."""
    global _threshold_override
    _threshold_override = n


def _maybe_pool(n: int) -> WorkerPool | None:
    """The pool if tiling ``n`` elements pays, else None (serial path)."""
    if n < max(2, parallel_threshold()):
        return None
    pool = get_pool()
    if pool.width <= 1:
        return None
    return pool


def _tile_bounds(n: int, width: int) -> list[tuple[int, int]]:
    """Balanced, contiguous, non-empty [lo, hi) tiles covering range(n)."""
    width = min(width, n)
    base, rem = divmod(n, width)
    bounds = []
    lo = 0
    for i in range(width):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Worker-side tile bodies (private: not dispatch surface; they run inside
# pool workers with ShmRef kwargs already materialized as numpy views)
# ----------------------------------------------------------------------

def _tile_sum(xs, lo, hi) -> int:
    return int(xs[lo:hi].sum())


def _tile_max(xs, lo, hi) -> int:
    return int(xs[lo:hi].max())


def _tile_min(xs, lo, hi) -> int:
    return int(xs[lo:hi].min())


def _tile_exclusive_write(xs, out, lo, hi, offset) -> None:
    out[lo] = offset
    if hi - lo > 1:
        np.cumsum(xs[lo : hi - 1], out=out[lo + 1 : hi])
        out[lo + 1 : hi] += offset


def _tile_inclusive_write(xs, out, lo, hi, offset) -> None:
    np.cumsum(xs[lo:hi], out=out[lo:hi])
    out[lo:hi] += offset


def _tile_wyllie_round(rank_in, ptr_in, rank_out, ptr_out, lo, hi) -> bool:
    p = ptr_in[lo:hi]
    live = p >= 0
    safe = np.where(live, p, 0)
    rank_out[lo:hi] = rank_in[lo:hi] + np.where(live, rank_in[safe], 0)
    ptr_out[lo:hi] = np.where(live, ptr_in[safe], -1)
    return bool(live.any())


def _tile_cc_propose(
    edge_u, edge_v, label, rows, row, lo, hi, key_m, big
) -> bool:
    out = rows[row]
    out[...] = big
    lu = label[edge_u[lo:hi]]
    lv = label[edge_v[lo:hi]]
    cross = np.flatnonzero(lu != lv)
    if cross.size == 0:
        return False
    l1 = lu[cross]
    l2 = lv[cross]
    key = np.minimum(l1, l2) * key_m + (cross + lo)  # global edge ids
    np.minimum.at(out, np.maximum(l1, l2), key)
    return True


def _tile_scatter_min2(u, v, keys, rows, row, lo, hi, fill) -> None:
    out = rows[row]
    out[...] = fill
    np.minimum.at(out, u[lo:hi], keys[lo:hi])
    np.minimum.at(out, v[lo:hi], keys[lo:hi])


def _tile_bincount(xs, rows, row, lo, hi) -> None:
    rows[row] = np.bincount(xs[lo:hi], minlength=rows.shape[1])


# ----------------------------------------------------------------------
# Scans and reductions (tile partials + exact reassociation)
# ----------------------------------------------------------------------

def exclusive_scan_par(t: Tracker | None, xs) -> np.ndarray:
    """Tiled :func:`repro.kernels.scan.exclusive_scan` (byte-identical)."""
    arr = np.asarray(xs, dtype=np.int64)
    pool = _maybe_pool(arr.size)
    if pool is None:
        return _scan.exclusive_scan(t, arr)
    _scan._charge_linear(t, arr.size, passes=2)
    bounds = _tile_bounds(arr.size, pool.width)
    with ShmArena() as a:
        a.put("xs", arr)
        out = a.empty("out", arr.size, np.int64)
        sums = pool.run([
            (_FN % "_tile_sum", {"xs": a.ref("xs"), "lo": lo, "hi": hi})
            for lo, hi in bounds
        ])
        offsets = np.zeros(len(bounds), dtype=np.int64)
        np.cumsum(np.asarray(sums[:-1], dtype=np.int64), out=offsets[1:])
        pool.run([
            (_FN % "_tile_exclusive_write",
             {"xs": a.ref("xs"), "out": a.ref("out"),
              "lo": lo, "hi": hi, "offset": int(offsets[i])})
            for i, (lo, hi) in enumerate(bounds)
        ])
        return out.copy()


def inclusive_scan_par(t: Tracker | None, xs) -> np.ndarray:
    """Tiled :func:`repro.kernels.scan.inclusive_scan` (byte-identical)."""
    arr = np.asarray(xs, dtype=np.int64)
    pool = _maybe_pool(arr.size)
    if pool is None:
        return _scan.inclusive_scan(t, arr)
    _scan._charge_linear(t, arr.size, passes=2)
    bounds = _tile_bounds(arr.size, pool.width)
    with ShmArena() as a:
        a.put("xs", arr)
        out = a.empty("out", arr.size, np.int64)
        sums = pool.run([
            (_FN % "_tile_sum", {"xs": a.ref("xs"), "lo": lo, "hi": hi})
            for lo, hi in bounds
        ])
        offsets = np.zeros(len(bounds), dtype=np.int64)
        np.cumsum(np.asarray(sums[:-1], dtype=np.int64), out=offsets[1:])
        pool.run([
            (_FN % "_tile_inclusive_write",
             {"xs": a.ref("xs"), "out": a.ref("out"),
              "lo": lo, "hi": hi, "offset": int(offsets[i])})
            for i, (lo, hi) in enumerate(bounds)
        ])
        return out.copy()


def _reduce_par(t: Tracker | None, xs, tile_fn, merge, serial):
    arr = np.asarray(xs, dtype=np.int64)
    pool = _maybe_pool(arr.size)
    if pool is None:
        return serial(t, arr)
    _scan._charge_linear(t, arr.size)
    with ShmArena() as a:
        a.put("xs", arr)
        parts = pool.run([
            (_FN % tile_fn, {"xs": a.ref("xs"), "lo": lo, "hi": hi})
            for lo, hi in _tile_bounds(arr.size, pool.width)
        ])
    return int(merge(np.asarray(parts, dtype=np.int64)))


def reduce_sum_par(t: Tracker | None, xs) -> int:
    """Tiled :func:`repro.kernels.scan.reduce_sum` (byte-identical)."""
    return _reduce_par(t, xs, "_tile_sum", np.sum, _scan.reduce_sum)


def reduce_max_par(t: Tracker | None, xs) -> int:
    """Tiled :func:`repro.kernels.scan.reduce_max` (byte-identical)."""
    return _reduce_par(t, xs, "_tile_max", np.max, _scan.reduce_max)


def reduce_min_par(t: Tracker | None, xs) -> int:
    """Tiled :func:`repro.kernels.scan.reduce_min` (byte-identical)."""
    return _reduce_par(t, xs, "_tile_min", np.min, _scan.reduce_min)


# ----------------------------------------------------------------------
# Wyllie pointer doubling (Lemma 2.4): per-round disjoint-slice gathers
# ----------------------------------------------------------------------

def wyllie_ranks_par(
    prev: np.ndarray, values: np.ndarray, t: Tracker | None = None
) -> np.ndarray:
    """Tiled :func:`repro.kernels.listrank.wyllie_ranks` (byte-identical).

    Each doubling round is elementwise over the index range (gathers may
    read any slot of the *input* buffers, writes land in the tile's own
    slice of the *output* buffers), so a per-round barrier with buffer
    swap reproduces the serial rounds exactly — same ranks, same round
    count, same tracker charge.
    """
    rank0 = np.asarray(values, dtype=np.int64)
    ptr0 = np.asarray(prev, dtype=np.int64)
    n = rank0.size
    if ptr0.size != n:
        raise ValueError("prev and values must have equal length")
    pool = _maybe_pool(n)
    if pool is None:
        return wyllie_ranks(prev, values, t)
    if ((ptr0 < -1) | (ptr0 >= n)).any():
        raise ValueError("prev entries must be -1 or valid indices")
    bounds = _tile_bounds(n, pool.width)
    with ShmArena() as a:
        bufs = [
            (a.put("rank_a", rank0), a.put("ptr_a", ptr0), "rank_a", "ptr_a"),
            (a.empty("rank_b", n, np.int64), a.empty("ptr_b", n, np.int64),
             "rank_b", "ptr_b"),
        ]
        cur = 0
        rounds = 0
        while True:
            rin, pin = bufs[cur][2], bufs[cur][3]
            rout, pout = bufs[1 - cur][2], bufs[1 - cur][3]
            flags = pool.run([
                (_FN % "_tile_wyllie_round",
                 {"rank_in": a.ref(rin), "ptr_in": a.ref(pin),
                  "rank_out": a.ref(rout), "ptr_out": a.ref(pout),
                  "lo": lo, "hi": hi})
                for lo, hi in bounds
            ])
            if not any(flags):
                break
            rounds += 1
            if rounds > n.bit_length() + 2:  # L halves per round: impossible
                raise RuntimeError("wyllie pointer jumping failed to converge")
            cur = 1 - cur
        result = bufs[cur][0].copy()
    if t is not None:
        # same aggregate as the serial kernel charges for these rounds
        t.charge(max(1, rounds) * n + n, (rounds + 1) * (log2_ceil(max(2, n)) + 1))
    return result


def prefix_sums_on_lists_par(
    t: Tracker | None,
    vertices,
    prev_of,
    value_of,
    method: str = "anderson-miller",
    rng=None,
) -> dict[int, int]:
    """Multi-list front-end routing Wyllie through the tiled engine.

    The Anderson–Miller lockstep path stays serial (its rounds are
    data-dependent on the shared rng stream); the Wyllie path — what the
    driver uses at scale — pointer-doubles across the pool.
    """
    from .listrank import prefix_sums_on_lists_np

    return prefix_sums_on_lists_np(
        t, vertices, prev_of, value_of, method=method, rng=rng,
        _wyllie=wyllie_ranks_par,
    )


# ----------------------------------------------------------------------
# Connected components / spanning forest: tiled propose scatter-min
# ----------------------------------------------------------------------

def _components_arrays_tiled(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    record_edges: bool,
    t: Tracker | None,
) -> tuple[np.ndarray, np.ndarray]:
    pool = _maybe_pool(int(edge_u.size))
    if pool is None:
        return components_arrays(n, edge_u, edge_v, record_edges, t)
    m = int(edge_u.size)
    key_m = m + 1
    big = n * key_m
    bounds = _tile_bounds(m, pool.width)
    with ShmArena() as a:
        a.put("edge_u", edge_u.astype(np.int64, copy=False))
        a.put("edge_v", edge_v.astype(np.int64, copy=False))
        label_shared = a.empty("label", n, np.int64)
        rows = a.empty("rows", (len(bounds), n), np.int64)

        def propose(label: np.ndarray) -> tuple[np.ndarray, bool]:
            label_shared[...] = label
            flags = pool.run([
                (_FN % "_tile_cc_propose",
                 {"edge_u": a.ref("edge_u"), "edge_v": a.ref("edge_v"),
                  "label": a.ref("label"), "rows": a.ref("rows"),
                  "row": i, "lo": lo, "hi": hi,
                  "key_m": key_m, "big": big})
                for i, (lo, hi) in enumerate(bounds)
            ])
            return np.minimum.reduce(rows, axis=0), any(flags)

        return components_arrays(
            n, edge_u, edge_v, record_edges, t, _propose=propose
        )


def connected_components_par(g, t: Tracker | None = None) -> list[int]:
    """Tiled :func:`~repro.kernels.components.connected_components_np`."""
    c = g.csr()
    labels, _ = _components_arrays_tiled(g.n, c.edge_u, c.edge_v, False, t)
    return labels.tolist()


def spanning_forest_par(
    g, t: Tracker | None = None
) -> tuple[list[int], list[int]]:
    """Tiled :func:`~repro.kernels.components.spanning_forest_np`."""
    c = g.csr()
    labels, forest = _components_arrays_tiled(g.n, c.edge_u, c.edge_v, True, t)
    return labels.tolist(), forest.tolist()


# ----------------------------------------------------------------------
# Luby matching (Lemma 2.5): tiled per-round rank scatter-min
# ----------------------------------------------------------------------

def maximal_matching_par(
    t: Tracker | None, n: int, edges, rng=None
) -> list[int]:
    """Tiled :func:`~repro.kernels.matching.maximal_matching_np`.

    Priorities are drawn and ranked in the parent (the rng-lockstep
    contract lives there); the per-vertex rank scatter-min of each round
    fans out over the pool and merges with ``np.minimum.reduce`` —
    the same per-vertex minima, hence the same matching.
    """
    pool = _maybe_pool(len(edges))
    if pool is None:
        return maximal_matching_np(t, n, edges, rng)
    arena = ShmArena()
    seq = iter(range(1 << 30))

    def scatter(u: np.ndarray, v: np.ndarray, rank: np.ndarray, fill: int) -> np.ndarray:
        k = int(u.size)
        if k < max(2, parallel_threshold()):
            best = np.full(n, fill, dtype=np.int64)
            np.minimum.at(best, u, rank)
            np.minimum.at(best, v, rank)
            return best
        i = next(seq)
        bounds = _tile_bounds(k, pool.width)
        if "rows" not in arena:
            arena.empty("rows", (pool.width, n), np.int64)
        rows = arena.view("rows")
        arena.put(f"u{i}", u)
        arena.put(f"v{i}", v)
        arena.put(f"r{i}", rank)
        pool.run([
            (_FN % "_tile_scatter_min2",
             {"u": arena.ref(f"u{i}"), "v": arena.ref(f"v{i}"),
              "keys": arena.ref(f"r{i}"), "rows": arena.ref("rows"),
              "row": j, "lo": lo, "hi": hi, "fill": fill})
            for j, (lo, hi) in enumerate(bounds)
        ])
        return np.minimum.reduce(rows[: len(bounds)], axis=0)

    try:
        return maximal_matching_np(t, n, edges, rng, _scatter=scatter)
    finally:
        arena.unlink()


# ----------------------------------------------------------------------
# Absorption counts + tour-flat builds
# ----------------------------------------------------------------------

def nontree_counts_par(n: int, nt_u, nt_v) -> np.ndarray:
    """Tiled :func:`~repro.kernels.absorb.nontree_counts_np`."""
    ends = np.concatenate(
        [
            np.asarray(nt_u, dtype=np.int64),
            np.asarray(nt_v, dtype=np.int64),
        ]
    )
    pool = _maybe_pool(int(ends.size))
    if pool is None:
        return np.bincount(ends, minlength=n)
    bounds = _tile_bounds(int(ends.size), pool.width)
    with ShmArena() as a:
        a.put("xs", ends)
        rows = a.empty("rows", (len(bounds), n), np.int64)
        pool.run([
            (_FN % "_tile_bincount",
             {"xs": a.ref("xs"), "rows": a.ref("rows"),
              "row": i, "lo": lo, "hi": hi})
            for i, (lo, hi) in enumerate(bounds)
        ])
        return rows.sum(axis=0)


def rebuild_rooted_forest_par(
    parent: np.ndarray,
    depth: np.ndarray,
    label: np.ndarray,
    members: np.ndarray,
    edge_u,
    edge_v,
    t: Tracker | None = None,
) -> None:
    """Tour-flat forest rebuild with tiled Wyllie ranking inside.

    Everything but the rank pass is a handful of O(m) array passes; the
    pointer doubling dominates, and it routes through
    :func:`wyllie_ranks_par` (which itself falls back below threshold).
    """
    rebuild_rooted_forest(
        parent, depth, label, members, edge_u, edge_v, t,
        _wyllie=wyllie_ranks_par,
    )
