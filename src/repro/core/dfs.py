"""The main parallel DFS driver (Theorem 1.1, Section 3).

Recursively grows an initial DFS segment ``T'`` of the input graph:

1. build an O(√n)-path separator of the current component (Theorem 3.1);
2. absorb it into ``T'`` (Theorem 3.2) — after which every remaining
   component has at most half the vertices;
3. for each remaining component ``D`` there is, by Observation 2.2, a
   unique lowest vertex ``x ∈ T'`` adjacent to ``D``; attach a neighbor
   ``v ∈ D`` under ``x`` and recurse on ``D`` rooted at ``v`` — all
   components in parallel.

Since component sizes halve, the recursion has O(log n) levels; each level
costs Õ(√(level's max component)) depth, summing to Õ(√n) depth, and the
work telescopes to Õ(m) because every absorption's work is charged to the
edges it deletes. E1/E2 validate both bounds empirically.

Components below ``small_cutoff`` vertices switch to the sequential DFS —
a constant-size base case that does not affect the asymptotics (the
components at one recursion level run in parallel) but removes the
polylog-factor overhead where it cannot pay off; E4's ablation sweeps it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..baselines.sequential import sequential_dfs
from ..graph.connectivity import connected_components
from ..graph.graph import Graph
from ..kernels.dispatch import is_array_backend, resolve_backend
from ..obs import runtime as obs
from ..obs.profile import PhaseProfiler
from ..pram.tracker import Tracker, log2_ceil
from .absorption import absorb_separator
from .separator import build_separator
from .verify import explain_dfs_tree

__all__ = ["DFSResult", "parallel_dfs"]


@dataclass
class DFSResult:
    """A DFS tree with its construction statistics."""

    root: int
    #: parent map over the root's component (root -> None)
    parent: dict[int, int | None]
    #: DFS depth of every tree vertex
    depth: dict[int, int]
    #: recursion levels used
    levels: int = 0
    #: construction statistics (diagnostics / experiments)
    stats: dict[str, int] = field(default_factory=dict)


def parallel_dfs(
    g: Graph,
    root: int,
    tracker: Tracker | None = None,
    rng: random.Random | None = None,
    small_cutoff: int = 16,
    separator_factor: float = 4.0,
    backend: str = "flat",
    neighbor_structure: str = "tournament",
    verify: bool = False,
    kernel_backend: str | None = None,
) -> DFSResult:
    """Theorem 1.1: a DFS tree of ``g`` rooted at ``root``.

    Õ(m+n) work and Õ(√n) depth in the tracked cost model. The tree spans
    exactly the connected component of ``root``. With ``verify=True`` the
    result is checked against the DFS-tree oracle before returning.
    ``backend`` picks the Lemma 5.1 absorption structure — the default
    "flat" pair is the array-native rebuild-per-batch structure under the
    numpy engine with the link-cut-mirrored tracked structure as lockstep
    reference; "rc" / "rc-det" / "lct" select the incremental mirrors —
    and ``kernel_backend`` the execution engine ("tracked", the
    measurement instrument, or "numpy", the vectorized kernels — see
    docs/kernels.md).
    """
    t = tracker if tracker is not None else Tracker()
    rng = rng if rng is not None else random.Random(0xDF5)
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    # resolve once at entry so one run never mixes backends even if the
    # process default changes mid-flight
    kb = resolve_backend(kernel_backend)
    prof = PhaseProfiler()

    parent: dict[int, int | None] = {root: None}
    depth: dict[int, int] = {root: 0}
    stats = {
        "separator_rounds": 0,
        "separator_stalls": 0,
        "absorb_iterations": 0,
        "components_processed": 0,
        "sequential_base_cases": 0,
    }

    max_level = [0]

    def solve(
        vertices: list[int],
        sub_root: int,
        sub_depth: int,
        seeds_global: list[tuple[int, int, int]],
        level: int,
    ) -> None:
        # observational wrapper: one tracer span per component solved
        with obs.span("dfs.solve", level=level, vertices=len(vertices)):
            _solve(vertices, sub_root, sub_depth, seeds_global, level)

    def _solve(
        vertices: list[int],
        sub_root: int,
        sub_depth: int,
        seeds_global: list[tuple[int, int, int]],
        level: int,
    ) -> None:
        """Grow the DFS over the component `vertices` (global ids), rooted
        at sub_root whose global parent/depth are already recorded.
        ``seeds_global`` are (global vertex, global T' neighbor, its depth)
        adjacency facts inherited from outer levels."""
        max_level[0] = max(max_level[0], level)
        stats["components_processed"] += 1

        if len(vertices) <= small_cutoff:
            stats["sequential_base_cases"] += 1
            with prof.phase("induce"):
                sub, mapping = _induced(g, vertices, t, backend=kb)
            with prof.phase("base-case"):
                inv = {i: v for v, i in mapping.items()}
                local = sequential_dfs(sub, mapping[sub_root], t)
                kids: dict[int, list[int]] = {}
                for lv, lp in local.items():
                    if lp is not None:
                        parent[inv[lv]] = inv[lp]
                        kids.setdefault(lp, []).append(lv)
                # depths by walking down the tree from the root
                stack = [(mapping[sub_root], sub_depth)]
                while stack:
                    lv, d = stack.pop()
                    t.op(1)
                    depth[inv[lv]] = d
                    for ch in kids.get(lv, ()):
                        stack.append((ch, d + 1))
            return

        with prof.phase("induce"):
            sub, mapping = _induced(g, vertices, t, backend=kb)
        inv = {i: v for v, i in mapping.items()}

        with prof.phase("separator"):
            sep = build_separator(
                sub, t, rng, target_factor=separator_factor,
                neighbor_structure=neighbor_structure, backend=kb,
            )
        stats["separator_rounds"] += sep.rounds
        stats["separator_stalls"] += sep.stalls

        seeds_local = [
            (mapping[vg], xg, d)
            for vg, xg, d in seeds_global
            if vg in mapping and vg != sub_root
        ]
        t.charge(len(seeds_global) + 1, 1)

        with prof.phase("absorb"):
            outcome = absorb_separator(
                sub,
                sep.paths,
                mapping[sub_root],
                sub_depth,
                parent,
                depth,
                to_global=inv,
                seeds=seeds_local,
                t=t,
                rng=rng,
                backend=backend,
                kernel_backend=kb,
            )
        stats["absorb_iterations"] += outcome.iterations

        # remaining components (local ids) and their attachment points
        absorbed = outcome.absorbed_local
        remaining = [lv for lv in range(sub.n) if lv not in absorbed]
        t.charge(sub.n, 1)
        if not remaining:
            return
        with prof.phase("induce"):
            rsub, rmap = _induced(sub, remaining, t, backend=kb)
        with prof.phase("components"):
            rlabels = connected_components(rsub, t, backend=kb)
            grouped = _group_by_label(rlabels, remaining, rmap, kb, t)

        ds = outcome.structure
        tasks = []
        for comp_local in grouped:
            if verify:
                # 2*|C| <= |V| is the exact integer form of |C| <= |V|/2
                assert 2 * len(comp_local) <= len(vertices), (
                    "separator absorption left an oversized component"
                )
            v_local, x_global, dx = ds.lowest_node(comp_local[0])
            v_glob = inv[v_local]
            parent[v_glob] = x_global
            depth[v_glob] = dx + 1
            # inherited adjacency facts for the child level
            child_seeds = []
            for lv in comp_local:
                wit = ds.low_witness.get(lv)
                if wit is not None:
                    child_seeds.append((inv[lv], wit[1], wit[0]))
            t.charge(len(comp_local), log2_ceil(max(2, len(comp_local))) + 1)
            tasks.append(
                ([inv[lv] for lv in comp_local], v_glob, dx + 1, child_seeds)
            )

        t.parallel_for(
            tasks,
            lambda task: solve(task[0], task[1], task[2], task[3], level + 1),
        )

    with obs.span(
        "parallel_dfs", n=g.n, m=g.m, backend=backend, kernel_backend=kb
    ):
        # restrict to root's component (footnote 4: components are
        # identified with the parallel CC algorithm)
        with prof.phase("components"):
            labels = connected_components(g, t, backend=kb)
            comp_vertices = [
                v for v in range(g.n) if labels[v] == labels[root]
            ]
            t.charge(g.n, 1)

        solve(comp_vertices, root, 0, [], 1)

    prof.export_into(stats)
    result = DFSResult(
        root=root, parent=parent, depth=depth, levels=max_level[0], stats=stats
    )
    if verify:
        reason = explain_dfs_tree(g, root, parent)
        if reason is not None:
            raise AssertionError(
                f"parallel DFS produced an invalid tree: {reason}"
            )
    return result


def _group_by_label(
    rlabels: list[int], remaining: list[int], rmap: dict[int, int], kb: str,
    t: Tracker,
) -> list[list[int]]:
    """Component groups (lists of local ids) in ascending label order.

    Both paths produce the identical nested lists: groups ordered by
    label, members in ``rlabels`` index order (``remaining[ri]`` is the
    local id of index ``ri``).
    """
    # parallel grouping (semisort): O(k) work, O(log) span
    t.charge(len(rlabels), log2_ceil(max(2, len(rlabels))) + 1)
    if is_array_backend(kb) and rlabels:
        import numpy as np

        arr = np.asarray(rlabels, dtype=np.int64)
        order = np.argsort(arr, kind="stable")
        starts = np.flatnonzero(np.diff(arr[order], prepend=arr[order[0]] - 1))
        bounds = starts.tolist() + [len(rlabels)]
        oidx = order.tolist()
        return [
            [remaining[ri] for ri in oidx[bounds[i] : bounds[i + 1]]]
            for i in range(len(bounds) - 1)
        ]
    rinv = {i: lv for lv, i in rmap.items()}
    groups: dict[int, list[int]] = {}
    for ri, lab in enumerate(rlabels):
        groups.setdefault(lab, []).append(rinv[ri])
    return [groups[lab] for lab in sorted(groups)]


def _induced(
    g: Graph, vertices: list[int], t: Tracker, backend: str | None = None
) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph with cost charging (parallel gather + relabel).

    Both backends charge the identical scan cost and return identical
    graphs: the numpy path (:mod:`repro.kernels.subgraph`) reproduces
    the tracked emission order exactly.
    """
    if is_array_backend(backend):
        from ..kernels.subgraph import induced_subgraph_np

        sub, mapping = induced_subgraph_np(g, vertices, order="vertex")
        scanned = sum(len(g.adj[v]) for v in vertices)
        t.charge(len(vertices) + scanned, log2_ceil(max(2, len(vertices))) + 1)
        return sub, mapping
    mapping = {v: i for i, v in enumerate(vertices)}
    edges = []
    scanned = 0
    for v in vertices:
        for w in g.adj[v]:
            scanned += 1
            if v < w and w in mapping:
                edges.append((mapping[v], mapping[w]))
    # parallel gather + relabel: O(scanned) work, O(log) span
    t.charge(len(vertices) + scanned, log2_ceil(max(2, len(vertices))) + 1)
    return Graph(len(vertices), edges), mapping
