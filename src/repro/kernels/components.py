"""Vectorized connected components / spanning forest (footnote 4, App. A).

Array engine for :mod:`repro.graph.connectivity`'s hook-to-minimum +
pointer-jumping contraction.  Each tracked round becomes whole-array
passes over the edge endpoint arrays of the graph's cached CSR view:

1. *propose* — every cross edge offers its smaller component label to the
   larger one; the CRCW min-write is a ``np.minimum.at`` scatter-min of
   the combined key ``lo * (m + 1) + eid``, whose integer order is
   exactly the lexicographic ``(lo, eid)`` order the tracked code
   resolves ties with (first strictly-smaller ``lo`` in edge-id order);
2. *hook* — winning proposals become a parent array over label space;
3. *pointer jumping* — ``parent = parent[parent]`` until fixpoint
   collapses hook chains to their minima;
4. *relabel* — one gather ``label = parent[label]``.

Because step 1 reproduces the tracked winner per root *exactly*, the
label evolution, the round count, and the recorded spanning-forest edge
ids (ascending root order within each round, rounds concatenated) are
all identical to the tracked backend — parity is on values, not just on
semantics.  Work/span are charged in aggregate; the tracked backend
remains the per-element measurement instrument.
"""

from __future__ import annotations

import numpy as np

from ..pram.tracker import Tracker, log2_ceil

__all__ = [
    "components_arrays",
    "connected_components_np",
    "spanning_forest_np",
    "component_sizes_np",
]


def components_arrays(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    record_edges: bool = False,
    t: Tracker | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hook-and-jump contraction over endpoint arrays.

    Returns ``(labels, forest)``: ``labels[v]`` is the minimum vertex id
    in ``v``'s component; ``forest`` the spanning-forest edge ids in the
    tracked backend's recording order (empty unless ``record_edges``).
    """
    label = np.arange(n, dtype=np.int64)
    forest_parts: list[np.ndarray] = []
    if t is not None:
        t.charge(n, 1)  # parallel initialization
    m = int(edge_u.size)
    if n == 0 or m == 0:
        if t is not None and n > 0:
            # the tracked loop still runs one propose round over 0 edges
            t.charge(0, log2_ceil(max(2, n)))
        return label, np.empty(0, dtype=np.int64)

    logn = log2_ceil(max(2, n))
    key_m = m + 1  # combined key stride; eid < key_m always
    big = n * key_m  # > any real key lo * key_m + eid

    for _round in range(2 * max(1, n).bit_length() + 2):
        lu = label[edge_u]
        lv = label[edge_v]
        cross = np.flatnonzero(lu != lv)
        if t is not None:
            # propose pass over all edges + the min-combining tree
            t.charge(m, 1 + logn)
        if cross.size == 0:
            break
        l1 = lu[cross]
        l2 = lv[cross]
        hi = np.maximum(l1, l2)
        lo = np.minimum(l1, l2)
        key = lo * key_m + cross  # integer order == lex (lo, eid) order
        best = np.full(n, big, dtype=np.int64)
        np.minimum.at(best, hi, key)

        roots = np.flatnonzero(best < big)  # ascending == sorted(proposals)
        win = best[roots]
        parent = np.arange(n, dtype=np.int64)
        parent[roots] = win // key_m
        if record_edges:
            forest_parts.append(win % key_m)

        jumps = 0
        while True:
            jumped = parent[parent]
            jumps += 1
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        label = parent[label]
        if t is not None:
            # hook + jump iterations over the hooked roots + relabel
            t.charge(int(roots.size) * (jumps + 1) + n, jumps + 1 + logn)

    if record_edges and forest_parts:
        forest = np.concatenate(forest_parts)
    else:
        forest = np.empty(0, dtype=np.int64)
    return label, forest


def connected_components_np(g, t: Tracker | None = None) -> list[int]:
    """Drop-in for :func:`repro.graph.connectivity.connected_components`."""
    c = g.csr()
    labels, _ = components_arrays(g.n, c.edge_u, c.edge_v, False, t)
    return labels.tolist()


def spanning_forest_np(
    g, t: Tracker | None = None
) -> tuple[list[int], list[int]]:
    """Drop-in for :func:`repro.graph.connectivity.spanning_forest`."""
    c = g.csr()
    labels, forest = components_arrays(g.n, c.edge_u, c.edge_v, True, t)
    return labels.tolist(), forest.tolist()


def component_sizes_np(labels, t: Tracker | None = None) -> dict[int, int]:
    """Drop-in for :func:`repro.graph.connectivity.component_sizes`."""
    arr = np.asarray(labels, dtype=np.int64)
    if t is not None:
        t.charge(int(arr.size), log2_ceil(max(2, int(arr.size))))
    if arr.size == 0:
        return {}
    counts = np.bincount(arr)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))
