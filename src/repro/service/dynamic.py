"""Incremental DFS-tree maintenance under edge insert/delete batches.

The service keeps graphs *resident*: a :class:`DynamicGraph` holds the
live edge set, a batch-dynamic HDT connectivity structure over flat
arrays (:class:`~repro.structures.flat_absorb.FlatForest`, Lemma 6.1)
maintained under the update stream on every engine, and a per-vertex
*component stamp* — the mutation counter at which the vertex's connected
component last changed.

Why component granularity is exactly right
------------------------------------------

``parallel_dfs(g, root, rng=Random(seed))`` first restricts to the
root's connected component and from then on touches only that
component's induced subgraph: the separator, absorption, and recursion
all run on induced subgraphs of it, and the driver RNG is freshly seeded
per call.  The result is therefore a pure function of

    (component vertex set, component induced edges, root, seed,
     backend pair)

— a mutation that touches no edge with an endpoint in the component
*provably* leaves the fresh-recompute answer byte-identical.  That is
the incremental win this layer extracts, following the dynamic-DFS
direction of Khan (arXiv:1705.03637): maintain, don't recompute, the
parts of the forest an update batch cannot have changed.  Cached trees
of *affected* components must be dropped: the repo-wide lockstep
contract pins the service's answer to the canonical ``parallel_dfs``
output, and a rerooted/patched tree (Khan's reduction proper) would be a
*valid* DFS tree but not the canonical one (docs/service.md discusses
the deviation).

Incremental vs. full recompute
------------------------------

Applying a batch via HDT costs amortized O(log² n) per deleted edge,
O(1) per inserted edge plus the size of any component an insert
relabels, and an O(affected region) sweep to re-stamp the touched
components.  When the affected region (the union of the pre-state
components of all batch endpoints) exceeds ``rebuild_fraction * n``,
that sweep stops paying for itself: the layer falls back to a *full
recompute* — a fresh ``FlatForest`` over the post-state snapshot (one
vectorized spanning-forest build) — and stamps every vertex (global
cache invalidation).  ``rebuild_fraction`` is the
service's documented threshold knob; E20 measures both paths.

Canonical graph state
---------------------

The logical state of a resident graph is its edge *set*.  Everything
downstream — the whole-graph snapshot of the fresh-recompute oracle,
the HDT rebuild — materializes it as ``Graph(n, sorted(edges))``, and
the miss path's :meth:`DynamicGraph.component_graph` is the induced
subgraph of that graph on one component, so the order in which updates
arrived can never leak into a response.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.graph import Graph
from ..kernels.dispatch import resolve_backend
from ..kernels.subgraph import assemble_graph
from ..obs import runtime as obs
from ..pram.tracker import Tracker
from ..structures.flat_absorb import FlatForest
from .protocol import MAX_M

__all__ = ["BatchReport", "DynamicGraph"]


@dataclass
class BatchReport:
    """What one update batch did (mirrored into the protocol response)."""

    #: post-batch mutation counter (monotone, bumps once per applied batch)
    mutations: int
    #: "incremental" or "rebuild" (or "noop" when nothing applied)
    mode: str
    #: edges actually inserted / deleted after dedup against live state
    inserted: int
    deleted: int
    #: inserts already present / deletes not present (skipped, reported)
    skipped_inserts: int
    skipped_deleted: int
    #: vertices whose component changed (== n on rebuild)
    affected: int
    #: distinct pre-state components the batch touched
    touched_components: int = 0
    #: pairs rejected with reasons (validation happens before any state
    #: change, so a reported error implies an untouched graph)
    errors: list[str] = field(default_factory=list)


class DynamicGraph:
    """A resident mutable graph with incremental component stamps."""

    def __init__(
        self,
        n: int,
        edges: list[tuple[int, int]] | None = None,
        *,
        kernel_backend: str | None = None,
        rebuild_fraction: float = 0.25,
    ) -> None:
        if n <= 0:
            raise ValueError("resident graph needs n >= 1")
        if not 0.0 <= rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in [0, 1]")
        self.n = n
        self.kernel_backend = resolve_backend(kernel_backend)
        self.rebuild_fraction = rebuild_fraction
        #: monotone mutation counter; 0 = load state
        self.mutations = 0
        #: per-vertex component stamp (mutation counter of last change)
        self.stamp = [0] * n
        #: cumulative maintenance statistics (exported via the stats op)
        self.maintenance = {
            "incremental_batches": 0,
            "rebuild_batches": 0,
            "noop_batches": 0,
            "edges_inserted": 0,
            "edges_deleted": 0,
            "vertices_restamped": 0,
        }
        init = sorted({(u, v) if u <= v else (v, u) for u, v in (edges or [])})
        for u, v in init:
            self._validate_pair(u, v)
        self._edge_eid: dict[tuple[int, int], int] = {}
        self._snapshot: Graph | None = None
        self._snapshot_mutations = -1
        #: component rep -> (component graph, vertices) at mutation
        #: counter ``_components_mutations``
        self._components: dict[int, tuple[Graph, list[int]]] = {}
        self._components_mutations = 0
        self._rebuild_hdt(init)
        # instruments bound once (docs/observability.md convention)
        self._h_affected = obs.metrics().histogram("service.affected_region")
        self._c_incremental = obs.metrics().counter("service.incremental_batches")
        self._c_rebuild = obs.metrics().counter("service.rebuild_batches")

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return len(self._edge_eid)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """The live edge set in canonical sorted order."""
        return sorted(self._edge_eid)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u <= v else (v, u)
        return key in self._edge_eid

    def connected(self, u: int, v: int) -> bool:
        return self._hdt.connected(u, v)

    def component_rep(self, v: int) -> int:
        return self._hdt.component_rep(v)

    def component_size(self, v: int) -> int:
        return self._hdt.component_size(v)

    def component_graph(self, v: int) -> tuple[Graph, list[int]]:
        """v's component as a graph on local ids ``0..k-1``, plus the
        vertex list (ascending; local id i is global ``vertices[i]``).

        Equal in ``edges``, ``adj`` and ``adj_eids`` to
        ``core.dfs._induced(self.snapshot(), vertices)``: the edges are
        the component's live edges as relabeled canonical pairs in
        sorted order, and each vertex lists its neighbors in edge-id
        order.  Costs O(component) — vertices from the forest's member
        array, edges from their incidence lists — not O(n + m).  Cached
        per mutation counter and component, so the misses of one
        component between two updates share one build and its CSR.
        """
        if self._components_mutations != self.mutations:
            self._components = {}
            self._components_mutations = self.mutations
        hdt = self._hdt
        rep = hdt.component_rep(v)
        cached = self._components.get(rep)
        if cached is not None:
            return cached
        vertices = hdt.component_vertices(v)
        endpoints = hdt.endpoints
        # each live edge once, from its canonical min endpoint; the
        # other endpoint is connected to it, so it is in the component
        pairs = sorted(
            endpoints[e]
            for x in vertices
            for e in hdt.live_incident(x)
            if endpoints[e][0] == x
        )
        local = {x: i for i, x in enumerate(vertices)}
        m = len(pairs)
        su = np.fromiter((local[a] for a, _ in pairs), np.int64, m)
        sv = np.fromiter((local[b] for _, b in pairs), np.int64, m)
        cached = self._components[rep] = (
            assemble_graph(len(vertices), su, sv), vertices
        )
        return cached

    def snapshot(self) -> Graph:
        """The canonical :class:`Graph` of the current state (cached).

        This is the graph a fresh whole-graph ``parallel_dfs`` — the
        byte-identity oracle of the ``--verify-every`` audit and the
        tests — runs on; a cache miss runs on :meth:`component_graph`
        instead.  Cached per mutation counter, so audits between two
        updates share one build.
        """
        if self._snapshot is None or self._snapshot_mutations != self.mutations:
            self._snapshot = Graph(self.n, self.edge_pairs())
            self._snapshot_mutations = self.mutations
        return self._snapshot

    # ------------------------------------------------------------------
    # update side
    # ------------------------------------------------------------------
    def _validate_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")

    def apply_batch(
        self,
        insert: list[tuple[int, int]] | None = None,
        delete: list[tuple[int, int]] | None = None,
    ) -> BatchReport:
        """Apply one atomic insert/delete batch.

        Validation happens *before* any state change: an exception means
        the graph, the HDT, and the stamps are exactly as they were.
        Inserting a present edge or deleting an absent one is skipped and
        reported (idempotent batch semantics); a pair appearing on both
        sides of one batch is rejected.
        """
        ins_raw = [(u, v) if u <= v else (v, u) for u, v in (insert or [])]
        del_raw = [(u, v) if u <= v else (v, u) for u, v in (delete or [])]
        for u, v in ins_raw + del_raw:
            self._validate_pair(u, v)
        ins_set = set(ins_raw)
        del_set = set(del_raw)
        conflict = sorted(ins_set & del_set)
        if conflict:
            raise ValueError(
                f"batch inserts and deletes the same pair(s): {conflict[:4]}"
            )
        ins = sorted(p for p in ins_set if p not in self._edge_eid)
        dels = sorted(p for p in del_set if p in self._edge_eid)
        if self.m + len(ins) - len(dels) > MAX_M:
            raise ValueError(
                f"batch would grow the graph past {MAX_M} edges"
            )
        report = BatchReport(
            mutations=self.mutations,
            mode="noop",
            inserted=len(ins),
            deleted=len(dels),
            skipped_inserts=len(ins_set) - len(ins),
            skipped_deleted=len(del_set) - len(dels),
            affected=0,
        )
        if not ins and not dels:
            self.maintenance["noop_batches"] += 1
            return report

        with obs.span(
            "service.apply_batch", insert=len(ins), delete=len(dels)
        ):
            self.mutations += 1
            report.mutations = self.mutations
            # the affected region is measured on the PRE state: every
            # component content change is confined to the union of the
            # pre-state components of the batch endpoints (an insert
            # merges two of them, a delete splits one)
            reps: dict[int, int] = {}
            for u, v in ins + dels:
                for x in (u, v):
                    r = self._hdt.component_rep(x)
                    if r not in reps:
                        reps[r] = self._hdt.component_size(r)
            affected_bound = sum(reps.values())
            report.touched_components = len(reps)
            if affected_bound > self.rebuild_fraction * self.n:
                self._apply_rebuild(ins, dels, report)
            else:
                self._apply_incremental(ins, dels, reps, report)
            self._h_affected.observe(report.affected)
            self.maintenance["edges_inserted"] += len(ins)
            self.maintenance["edges_deleted"] += len(dels)
            self.maintenance["vertices_restamped"] += report.affected
        return report

    def _apply_incremental(
        self,
        ins: list[tuple[int, int]],
        dels: list[tuple[int, int]],
        reps: dict[int, int],
        report: BatchReport,
    ) -> None:
        """HDT-maintained path: O(batch · log² n) + O(affected region)."""
        affected: set[int] = set()
        for r in sorted(reps):
            affected.update(self._hdt.component_vertices(r))
        if dels:
            eids = sorted(self._edge_eid.pop(p) for p in dels)
            self._hdt.delete_edges(eids)
        if ins:
            new_eids = self._hdt.batch_insert(ins)
            for pair, eid in zip(ins, new_eids):
                self._edge_eid[pair] = eid
        for v in affected:
            self.stamp[v] = self.mutations
        report.mode = "incremental"
        report.affected = len(affected)
        self.maintenance["incremental_batches"] += 1
        self._c_incremental.value += 1

    def _apply_rebuild(
        self,
        ins: list[tuple[int, int]],
        dels: list[tuple[int, int]],
        report: BatchReport,
    ) -> None:
        """Full-recompute path: fresh forest + global invalidation."""
        pairs = (set(self._edge_eid) - set(dels)) | set(ins)
        self._rebuild_hdt(sorted(pairs))
        self.stamp = [self.mutations] * self.n
        report.mode = "rebuild"
        report.affected = self.n
        self.maintenance["rebuild_batches"] += 1
        self._c_rebuild.value += 1

    def _rebuild_hdt(self, pairs: list[tuple[int, int]]) -> None:
        """(Re)build connectivity from a canonical sorted edge list."""
        g = Graph(self.n, pairs)
        self._hdt = FlatForest(
            g, tracker=Tracker(), kernel_backend=self.kernel_backend
        )
        self._edge_eid = {pair: eid for eid, pair in enumerate(g.edges)}

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Test support: stamps and connectivity agree with a recompute."""
        g = self.snapshot()
        assert g.m == self.m
        labels: dict[int, int] = {}
        for comp in g.connected_components_seq():
            rep = min(comp)
            for v in comp:
                labels[v] = rep
        for v in range(self.n):
            assert self.connected(v, labels[v]), (
                f"HDT disagrees with recompute at vertex {v}"
            )
            assert 0 <= self.stamp[v] <= self.mutations
        # stamps are component-uniform: a component has one stamp
        by_rep: dict[int, int] = {}
        for v in range(self.n):
            r = labels[v]
            if r in by_rep:
                assert by_rep[r] == self.stamp[v], (
                    f"component {r} has mixed stamps"
                )
            else:
                by_rep[r] = self.stamp[v]
