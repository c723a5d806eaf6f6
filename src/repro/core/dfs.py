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
The tracked engine solves each base case on its own induced subgraph; the
numpy engine solves all of a component's base-case children in one pass
over the input graph's CSR (:func:`_base_cases`) and charges each child
what the per-component path charges, in closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

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

__all__ = ["DFSResult", "check_structure", "parallel_dfs"]

#: the one Lemma 5.1 structure name: the structure follows the engine
#: (:func:`~repro.structures.absorb_ds.make_absorption_structure`)
STRUCTURE = "flat"


def check_structure(name: str) -> None:
    """Reject any absorption-structure name other than :data:`STRUCTURE`."""
    if name != STRUCTURE:
        raise ValueError(
            f"unknown absorption structure {name!r}; the only structure "
            f"is {STRUCTURE!r} (the engine picks its implementation)"
        )


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
    backend: str = STRUCTURE,
    neighbor_structure: str = "tournament",
    verify: bool = False,
    kernel_backend: str | None = None,
) -> DFSResult:
    """Theorem 1.1: a DFS tree of ``g`` rooted at ``root``.

    Õ(m+n) work and Õ(√n) depth in the tracked cost model. The tree spans
    exactly the connected component of ``root``. With ``verify=True`` the
    result is checked against the DFS-tree oracle before returning.
    ``kernel_backend`` picks the execution engine ("tracked", the
    measurement instrument, or "numpy", the vectorized kernels — see
    docs/kernels.md) and with it the Lemma 5.1 absorption structure: the
    link-cut-mirrored tracked structure, or its array-native numpy twin.
    ``backend`` names that structure and accepts only "flat".
    """
    t = tracker if tracker is not None else Tracker()
    rng = rng if rng is not None else random.Random(0xDF5)
    check_structure(backend)
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    # resolve once at entry so one run never mixes backends even if the
    # environment default changes mid-flight
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
    # the numpy engine solves base cases in passes (_base_cases), which
    # share one vertex -> position map, -1 outside a pass
    one_pass = is_array_backend(kb)
    if one_pass:
        pos = np.full(g.n, -1, dtype=np.int64)

    def solve(
        vertices: list[int],
        sub_root: int,
        sub_depth: int,
        seeds_global: list[tuple[int, int, int]],
        level: int,
    ) -> None:
        # observational wrapper: one tracer span per component solved
        # on its own (a pass of base cases opens one phase span)
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
            if one_pass:
                with prof.phase("base-case"):
                    (cost,) = _base_cases(
                        g, [(vertices, sub_root, sub_depth)], parent, depth,
                        pos,
                    )
                t.charge(*cost)
            else:
                _base_case(
                    g, vertices, sub_root, sub_depth, parent, depth, t, kb,
                    prof,
                )
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
        tasks: list = []
        # positions in ``tasks`` of the base-case children the numpy
        # engine solves in one pass
        small: list[int] = []
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
            # inherited adjacency facts for the child level (a base case
            # reads none, but they are gathered and charged all the same)
            t.charge(len(comp_local), log2_ceil(max(2, len(comp_local))) + 1)
            child = [inv[lv] for lv in comp_local]
            if one_pass and len(comp_local) <= small_cutoff:
                small.append(len(tasks))
                tasks.append((child, v_glob, dx + 1))
                continue
            child_seeds = []
            for lv in comp_local:
                wit = ds.low_witness.get(lv)
                if wit is not None:
                    child_seeds.append((inv[lv], wit[1], wit[0]))
            tasks.append((child, v_glob, dx + 1, child_seeds))

        if small:
            # every base-case child at once; its branch below charges
            # what solving it alone would have charged
            max_level[0] = max(max_level[0], level + 1)
            stats["components_processed"] += len(small)
            stats["sequential_base_cases"] += len(small)
            with prof.phase("base-case"):
                costs = _base_cases(
                    g, [tasks[k] for k in small], parent, depth, pos
                )
            for k, cost in zip(small, costs):
                tasks[k] = cost

        def branch(task: tuple) -> None:
            if len(task) == 2:
                t.charge(*task)  # a base case solved in the pass above
            else:
                solve(task[0], task[1], task[2], task[3], level + 1)

        t.parallel_for(tasks, branch)

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


def _base_case(
    g: Graph,
    vertices: list[int],
    sub_root: int,
    sub_depth: int,
    parent: dict[int, int | None],
    depth: dict[int, int],
    t: Tracker,
    kb: str,
    prof: PhaseProfiler,
) -> None:
    """Solve one base-case component on its own induced subgraph: the
    sequential DFS from ``sub_root`` (whose parent and depth are already
    recorded), then depths by walking down its tree."""
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


def _base_cases(
    g: Graph,
    children: list[tuple[list[int], int, int]],
    parent: dict[int, int | None],
    depth: dict[int, int],
    pos: np.ndarray,
) -> list[tuple[int, int]]:
    """Solve base-case components in one pass (numpy engine).

    Each child is ``(vertices, root, root depth)`` with ``vertices`` in
    ascending global order and ``root`` already attached. One relabel and
    one iterative DFS over flat arrays (a cursor per vertex, as in a
    colour/parent-array DFS) give every child the tree that
    :func:`sequential_dfs` gives on ``_induced(g, vertices)``: there a
    vertex's neighbours are those below it in ascending order (their
    edges come first, by their min endpoint), then those above it in
    ``g``'s edge-id order. The children are distinct components of one
    induced subgraph, so no edge of ``g`` joins two of them.

    Writes the children's parents and depths and returns, per child, the
    ``(work, span)`` solving it alone charges: ``_induced`` (n + scanned
    adjacency entries, log span), ``sequential_dfs`` (n + 4m, one chain)
    and the depth walk (n, one chain), which :func:`_base_case` charges.
    ``pos`` is an all -1 array over g's vertices, left so."""
    sizes = [len(c[0]) for c in children]  # repro-lint: disable=R001 (charged in closed form)
    total = sum(sizes)
    heads = np.cumsum([0] + sizes[:-1])
    verts = np.fromiter(
        (x for c in children for x in c[0]),  # repro-lint: disable=R001 (charged in closed form)
        dtype=np.int64, count=total,
    )
    pos[verts] = np.arange(total, dtype=np.int64)
    csr = g.csr()
    starts = csr.indptr[verts]
    degs = csr.indptr[verts + 1] - starts
    # every CSR slot of the children's vertices, owner by owner, kept
    # when its other end is in a child (then in the owner's child)
    owner = np.repeat(np.arange(total, dtype=np.int64), degs)
    slot = np.arange(owner.size, dtype=np.int64) + np.repeat(
        starts - (np.cumsum(degs) - degs), degs
    )
    nbr = pos[csr.indices[slot]]
    pos[verts] = -1
    keep = nbr >= 0
    owner, slot, nbr = owner[keep], slot[keep], nbr[keep]
    # per owner: the neighbours below it ascending, then those above it
    # in slot order (a CSR block lists an owner's edges to larger ids
    # first, in edge-id order)
    order = np.lexsort((np.where(nbr < owner, nbr, total + slot), owner))
    adj = nbr[order].tolist()
    kdeg = np.bincount(owner, minlength=total)
    off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(kdeg, out=off[1:])
    cur = off[:-1].tolist()
    end = off[1:].tolist()
    # par[x]: the position of x's parent (x itself at a root), -1 unseen
    par = [-1] * total
    dep = [0] * total
    for (vs, root, d0), head in zip(children, heads.tolist()):  # repro-lint: disable=R001 (charged in closed form)
        r = head + vs.index(root)
        par[r] = r
        dep[r] = d0
        stack = [r]
        while stack:  # repro-lint: disable=R001 (charged in closed form)
            x = stack[-1]
            i = cur[x]
            if i == end[x]:
                stack.pop()
                continue
            cur[x] = i + 1
            w = adj[i]
            if par[w] < 0:
                par[w] = x
                dep[w] = dep[x] + 1
                stack.append(w)
    vl = verts.tolist()
    parent.update(  # repro-lint: disable=R001 (charged in closed form)
        (vl[x], vl[p]) for x, p in enumerate(par) if p != x
    )
    depth.update(zip(vl, dep))
    scanned = np.add.reduceat(degs, heads).tolist()
    arcs = np.add.reduceat(kdeg, heads).tolist()
    costs = []
    for k, sc, a in zip(sizes, scanned, arcs):  # repro-lint: disable=R001 (charged in closed form)
        # sequential_dfs: one op per vertex, two per arc (4m)
        seq = k + 2 * a
        costs.append((k + sc + seq + k, log2_ceil(max(2, k)) + 1 + seq + k))
    return costs


def _is_whole(g: Graph, vertices: list[int]) -> bool:
    """True iff ``_induced(g, vertices)`` is an identical copy of g:
    ``vertices`` is ``0..n-1`` in order and g's edges come in the order
    ``_induced`` emits them, min endpoints non-decreasing (within one
    min endpoint ``_induced`` keeps g's edge-id order, and adjacency is
    in edge-id order on both sides)."""
    if len(vertices) != g.n or vertices != list(range(g.n)):
        return False
    eu = g.csr().edge_u
    return bool(np.all(eu[1:] >= eu[:-1]))


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

        if _is_whole(g, vertices):
            # the copy would equal g: reuse it (and its cached CSR)
            sub, mapping = g, {v: v for v in vertices}
        else:
            sub, mapping = induced_subgraph_np(g, vertices)
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
