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
        "_owner",
        "_mirror",
        "active",
        "_leaf",
        "_n_active",
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
        self._init_from(n, indptr, nbr, eids, tracker)

    @classmethod
    def from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        eids: np.ndarray,
        tracker: Tracker | None = None,
    ) -> "FlatActiveNeighborStructure":
        """Build directly from CSR arrays (adjacency already in the
        canonical edge-id order), skipping the Python adjacency lists —
        the all-array path ``merge_paths`` uses for the contracted G'."""
        obj = cls.__new__(cls)
        obj._init_from(n, indptr, nbr, eids, tracker)
        return obj

    def _init_from(
        self,
        n: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        eids: np.ndarray,
        tracker: Tracker | None,
    ) -> None:
        self.n = n
        self.tracker = tracker if tracker is not None else Tracker()
        total = int(indptr[-1])
        self._indptr = indptr
        self._nbr = nbr
        deg = np.diff(indptr)
        #: owner[s] = vertex whose adjacency list contains slot s
        self._owner = np.repeat(np.arange(n, dtype=np.int64), deg)
        # twin-slot permutation: the two slots of one edge point at each
        # other (the flat form of the edge position index "b")
        order = np.argsort(eids, kind="stable")
        mirror = np.empty(total, dtype=np.int64)
        mirror[order[0::2]] = order[1::2]
        mirror[order[1::2]] = order[0::2]
        self._mirror = mirror
        self.active = np.ones(n, dtype=bool)
        self._leaf = np.ones(total, dtype=bool)
        self._n_active = deg.copy()
        # per-vertex tree builds + the position index: O(n + m) work
        self.tracker.charge(n + total, log2_ceil(max(2, n + total)) + 1)

    # ------------------------------------------------------------------
    def is_active(self, v: int) -> bool:
        return bool(self.active[v])

    def n_active_neighbors(self, v: int) -> int:
        return int(self._n_active[v])

    # ------------------------------------------------------------------
    def make_inactive(self, vertices: Sequence[int]) -> None:
        """Deactivate ``vertices``; clears their mirror slots everywhere.

        O((k + Σdeg) log n) work, O(log n) span — one gather over the
        deactivated vertices' slot ranges plus a scatter-subtract into
        the per-neighbor active counts.
        """
        vs = _as_ids(vertices)
        if vs.size == 0:
            return
        dead = ~self.active[vs]
        if dead.any():
            v = int(vs[int(np.argmax(dead))])
            raise ValueError(f"vertex {v} is already inactive")
        self.active[vs] = False
        indptr = self._indptr
        counts = indptr[vs + 1] - indptr[vs]
        total = int(counts.sum())
        if total:
            # slots = concatenation of each v's slot range, vectorized
            starts = np.repeat(indptr[vs], counts)
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ms = self._mirror[starts + offs]
            # each mirror slot is cleared at most once per lifetime
            # (double deactivation raises above), so a plain subtract
            # keeps the counts exact
            self._leaf[ms] = False
            np.subtract.at(self._n_active, self._owner[ms], 1)
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
            indptr, leaf = self._indptr, self._leaf
            starts = indptr[vs]
            counts = indptr[vs + 1] - starts
            total = int(counts.sum())
            if total:
                # one flat gather over every queried row, then a
                # segmented prefix count picks each row's first t active
                # slots in adjacency order — no per-vertex Python pass
                idx0 = np.cumsum(counts) - counts
                base = np.repeat(starts, counts)
                offs = np.arange(total, dtype=np.int64) - np.repeat(
                    idx0, counts
                )
                slots = base + offs
                act = leaf[slots]
                c = np.cumsum(act)
                rank = c - np.repeat(c[idx0] - act[idx0], counts)
                keep = act & (rank <= t_count)
                rows = np.repeat(np.arange(k, dtype=np.int64), counts)[keep]
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
