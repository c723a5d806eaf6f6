"""Parallel connected components and spanning forest.

The paper needs an Õ(m)-work, polylog-depth connectivity/spanning-tree
subroutine in three places: footnote 4 (identifying components of G - T'),
Appendix A (checking whether a candidate separator still separates), and D5
(initializing the HDT forest). Any deterministic hooking algorithm suffices;
we implement the classic *hook-to-minimum + pointer jumping* contraction:

* each round, every star root hooks onto the minimum-labelled adjacent star
  root (a CRCW min-write resolved deterministically);
* pointer jumping collapses the resulting hook forest back to stars.

Each round at least halves the number of live star roots per component
(every star that is not a local minimum among its star neighbors hooks), so
there are ``O(log n)`` rounds; each round does ``O(m + n)`` work with
``O(log n)`` span, giving ``O(m log n)`` work and ``O(log^2 n)`` span.
"""

from __future__ import annotations

from ..kernels.dispatch import is_array_backend
from ..pram.tracker import Tracker, log2_ceil
from .graph import Graph

__all__ = [
    "connected_components",
    "spanning_forest",
    "component_sizes",
    "largest_component_size",
]


def _contraction_rounds(
    g: Graph, t: Tracker, record_edges: bool
) -> tuple[list[int], list[int]]:
    """Shared round loop. Returns (labels, forest_edge_ids)."""
    n = g.n
    label = list(range(n))
    t.charge(n, 1)  # parallel initialization
    forest: list[int] = []
    if n == 0:
        return label, forest

    edges = g.edges
    m = len(edges)

    for _round in range(2 * max(1, n).bit_length() + 2):
        # --- propose: for every cross edge, the larger-labelled star root
        # receives the smaller label as a hook candidate (CRCW min-write).
        proposals: dict[int, tuple[int, int]] = {}

        def propose(eid: int) -> None:
            t.op(1)
            u, v = edges[eid]
            lu, lv = label[u], label[v]
            if lu == lv:
                return
            hi, lo = (lu, lv) if lu > lv else (lv, lu)
            cur = proposals.get(hi)
            if cur is None or lo < cur[0]:
                proposals[hi] = (lo, eid)

        t.parallel_for(range(m), propose)
        # min-combining tree for the concurrent writes
        t.charge(0, log2_ceil(max(2, n)))

        if not proposals:
            break

        # --- hook: apply the winning proposal at each root.
        parent: dict[int, int] = {}

        def hook(item: tuple[int, tuple[int, int]]) -> None:
            t.op(1)
            root, (lo, eid) = item
            parent[root] = lo
            if record_edges:
                forest.append(eid)

        t.parallel_for(sorted(proposals.items()), hook)

        # --- pointer jumping: collapse hook chains to their minima.
        # Chains strictly decrease in label, so jumping converges; each
        # doubling iteration is a parallel map over the hooked roots.
        roots = sorted(parent)
        while True:
            changed = [False]

            def jump(r: int) -> None:
                t.op(1)
                p = parent[r]
                pp = parent.get(p, p)
                if pp != p:
                    parent[r] = pp
                    changed[0] = True

            t.parallel_for(roots, jump)
            if not changed[0]:
                break

        # --- relabel every vertex to its (possibly new) star root.
        def relabel(v: int) -> None:
            t.op(1)
            l = label[v]
            label[v] = parent.get(l, l)

        t.parallel_for(range(n), relabel)

    return label, forest


def connected_components(
    g: Graph, t: Tracker | None = None, backend: str | None = None
) -> list[int]:
    """Component labels: ``label[v]`` is the minimum vertex id in v's component.

    ``backend="numpy"`` runs the vectorized contraction in
    :mod:`repro.kernels.components`; it replicates the tracked hooking
    winner per round exactly, so the labels are identical, not merely a
    valid labeling.
    """
    t = t if t is not None else Tracker()
    if is_array_backend(backend):
        from ..kernels.components import connected_components_np

        return connected_components_np(g, t)
    labels, _ = _contraction_rounds(g, t, record_edges=False)
    return labels


def spanning_forest(
    g: Graph, t: Tracker | None = None, backend: str | None = None
) -> tuple[list[int], list[int]]:
    """Component labels plus the edge ids of a spanning forest.

    Each hooking round adds one edge per merged star; hooks always point to
    strictly smaller labels across distinct components, so the union over
    rounds is acyclic and spans every component.  ``backend="numpy"``
    returns the identical labels *and* forest edge ids (same recording
    order) as the tracked contraction.
    """
    t = t if t is not None else Tracker()
    if is_array_backend(backend):
        from ..kernels.components import spanning_forest_np

        return spanning_forest_np(g, t)
    return _contraction_rounds(g, t, record_edges=True)


def component_sizes(
    labels: list[int], t: Tracker | None = None, backend: str | None = None
) -> dict[int, int]:
    """Histogram of component labels (parallel count + combine)."""
    t = t if t is not None else Tracker()
    if is_array_backend(backend):
        from ..kernels.components import component_sizes_np

        return component_sizes_np(labels, t)
    sizes: dict[int, int] = {}

    def count(l: int) -> None:
        t.op(1)
        sizes[l] = sizes.get(l, 0) + 1

    t.parallel_for(labels, count)
    # the combining tree sums |labels| partial counts: O(k) work, O(log k) span
    t.charge(len(labels), log2_ceil(max(2, len(labels))))
    return sizes


def largest_component_size(
    g: Graph, t: Tracker | None = None, backend: str | None = None
) -> int:
    """Size of the largest connected component (0 for the empty graph)."""
    t = t if t is not None else Tracker()
    labels = connected_components(g, t, backend=backend)
    if not labels:
        return 0
    sizes = component_sizes(labels, t, backend=backend)
    return max(sizes.values())
