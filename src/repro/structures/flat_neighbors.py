"""Array-native active-neighbor structure (Lemma 4.5, numpy engine).

:class:`FlatActiveNeighborStructure` is the numpy twin of
:class:`~repro.structures.adjacency_query.ActiveNeighborStructure` — the
same operations with byte-identical answers, backed by one CSR slot
array instead of per-vertex tournament trees.

The equivalence rests on one observation: Lemma B.1's tournament
``query(t)`` descends left-first, so it returns the first
``min(t, n_active)`` *active* entries of the adjacency list **in list
order** — a pure function of (adjacency order, active flags).  The flat
structure therefore keeps a boolean ``leaf`` flag per CSR slot and
answers queries with a masked prefix scan of the vertex's slot range;
``make_inactive`` clears the *mirror* slots (the deactivated vertex's
entries inside each neighbor's list) through a precomputed twin-slot
permutation, exactly what the tournament path does through the edge
position index ``b``.

Costs are charged at the paper's bounds (build ``O(n + m)``,
``make_inactive`` ``O((k + Σdeg) log n)``, ``query`` ``O(k t log n)``);
the wall-clock is a handful of numpy gathers per operation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graph.graph import Graph
from ..pram.tracker import Tracker, log2_ceil

__all__ = ["FlatActiveNeighborStructure"]


def _as_ids(vertices: Sequence[int]) -> np.ndarray:
    if isinstance(vertices, np.ndarray):
        return vertices.astype(np.int64, copy=False)
    return np.asarray(list(vertices), dtype=np.int64)


class FlatActiveNeighborStructure:
    """CSR slot arrays + active flags; tournament-identical answers."""

    __slots__ = (
        "n",
        "tracker",
        "_indptr",
        "_nbr",
        "_deg",
        "_mirror",
        "active",
        "_leaf",
    )

    def __init__(self, g: Graph, tracker: Tracker | None = None) -> None:
        n = g.n
        # adjacency -> CSR flattening; the O(n + m) build cost is
        # charged once at the end of _init_from
        deg = np.fromiter(
            (len(a) for a in g.adj), dtype=np.int64, count=n  # repro-lint: disable=R001
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        if indptr[-1]:
            nbr = np.concatenate(
                [np.asarray(a, dtype=np.int64) for a in g.adj if a]  # repro-lint: disable=R001
            )
            eids = np.concatenate(
                [np.asarray(a, dtype=np.int64) for a in g.adj_eids if a]  # repro-lint: disable=R001
            )
        else:
            nbr = np.empty(0, dtype=np.int64)
            eids = np.empty(0, dtype=np.int64)
        # twin-slot permutation: the two slots of one edge point at each
        # other (the flat form of the edge position index "b")
        order = np.argsort(eids, kind="stable")
        mirror = np.empty(order.size, dtype=np.int64)
        mirror[order[0::2]] = order[1::2]
        mirror[order[1::2]] = order[0::2]
        self._init_from(n, indptr, nbr, mirror, tracker)

    @classmethod
    def from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        mirror: np.ndarray,
        tracker: Tracker | None = None,
    ) -> "FlatActiveNeighborStructure":
        """Build directly from CSR arrays (adjacency already in the
        canonical edge-id order) and the twin-slot permutation
        (``mirror[s]`` is the slot of the same edge in the other
        endpoint's list), skipping the Python adjacency lists — the
        all-array path ``merge_paths`` uses for the contracted G'."""
        obj = cls.__new__(cls)
        obj._init_from(n, indptr, nbr, mirror, tracker)
        return obj

    def _init_from(
        self,
        n: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        mirror: np.ndarray,
        tracker: Tracker | None,
    ) -> None:
        self.n = n
        self.tracker = tracker if tracker is not None else Tracker()
        total = int(indptr[-1])
        self._indptr = indptr
        self._nbr = nbr
        deg = np.diff(indptr)
        self._deg = deg
        self._mirror = mirror
        self.active = np.ones(n, dtype=bool)
        self._leaf = np.ones(total, dtype=bool)
        # per-vertex tree builds + the position index: O(n + m) work
        self.tracker.charge(n + total, log2_ceil(max(2, n + total)) + 1)

    # ------------------------------------------------------------------
    def is_active(self, v: int) -> bool:
        return bool(self.active[v])

    # ------------------------------------------------------------------
    def make_inactive(self, vertices: Sequence[int]) -> None:
        """Deactivate ``vertices``; clears their mirror slots everywhere.

        O((k + Σdeg) log n) work, O(log n) span — one gather over the
        deactivated vertices' slot ranges and one scatter into the mirror
        slots.
        """
        vs = _as_ids(vertices)
        if vs.size == 0:
            return
        dead = ~self.active[vs]
        if dead.any():
            v = int(vs[int(np.argmax(dead))])
            raise ValueError(f"vertex {v} is already inactive")
        self.active[vs] = False
        counts = self._deg[vs]
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total:
            # slots = concatenation of each v's slot range, vectorized
            shift = np.repeat(self._indptr[vs] - ends + counts, counts)
            ms = self._mirror[np.arange(total, dtype=np.int64) + shift]
            self._leaf[ms] = False
        self.tracker.charge(
            (int(vs.size) + total) * log2_ceil(max(2, self.n)),
            log2_ceil(max(2, self.n)) + 1,
        )

    def query(
        self, vertices: Sequence[int], t_count: int, as_arrays: bool = False
    ):
        """For each vertex, up to ``t_count`` distinct active neighbors.

        Identical answers to the tournament path: the first
        ``min(t_count, n_active)`` active adjacency entries in list
        order.  With ``as_arrays`` the answer is flat instead:
        ``(rows, nbrs)`` int64 arrays, ``nbrs[j]`` selected for
        ``vertices[rows[j]]``, rows ascending and each row's entries in
        list order (the lists, concatenated).
        """
        if t_count < 0:
            raise ValueError("t must be >= 0")
        vs = _as_ids(vertices)
        k = int(vs.size)
        rows = nbrs = np.empty(0, dtype=np.int64)
        if k and t_count:
            counts = self._deg[vs]
            idx0 = np.cumsum(counts) - counts
            total = int(idx0[-1] + counts[-1])
            if total:
                # one flat gather over every queried row, then a
                # segmented prefix count picks each row's first t active
                # slots in adjacency order — no per-vertex Python pass
                row = np.repeat(np.arange(k, dtype=np.int64), counts)
                slots = np.arange(total, dtype=np.int64)
                slots += (self._indptr[vs] - idx0)[row]
                act = self._leaf[slots]
                c = np.cumsum(act)
                # a row keeps an active slot while fewer than t active
                # slots precede it in the row: c <= (active slots before
                # the row) + t.  A row without slots reads any slot (the
                # last one if it ends the query): it keeps nothing.
                first = np.minimum(idx0, total - 1)
                lim = c[first] - act[first] + t_count
                keep = act & (c <= lim[row])
                rows = row[keep]
                nbrs = self._nbr[slots[keep]]
        self.tracker.charge(
            k * (t_count + 1) * log2_ceil(max(2, self.n)),
            log2_ceil(max(2, self.n)) + 1,
        )
        if as_arrays:
            return rows, nbrs
        out: list[list[int]] = [[] for _ in range(k)]
        flat = nbrs.tolist()
        bounds = np.cumsum(np.bincount(rows, minlength=k)).tolist()
        lo = 0
        for i, hi in enumerate(bounds):  # repro-lint: disable=R001 (O(k) emit, charged above)
            if hi > lo:
                out[i] = flat[lo:hi]
            lo = hi
        return out
