"""Vectorized numpy kernel backend for the PRAM hot paths.

The tracked implementations under :mod:`repro.pram`, :mod:`repro.listrank`
and :mod:`repro.matching` are the *measurement instrument*: per-element
Python closures charging every elementary operation to the
:class:`~repro.pram.tracker.Tracker`, so the reported work/span are exactly
the quantities the paper's theorems bound. They are also orders of
magnitude slower than the hardware allows.

This package is the *execution engine*: each round-structured hot path —
scans and reductions, Wyllie pointer jumping (Lemma 2.4), Luby
local-minimum matching rounds (Lemma 2.5), Euler-tour successor
construction — re-expressed as whole-array numpy kernels. A kernel runs
the same synchronous round structure (a round becomes one batch of
gathers/scatters over int64 arrays) and charges the Tracker *aggregate*
work and span per round, so a run under the numpy backend still produces
meaningful asymptotic counts while its wall clock is dominated by C loops.

Backend selection is handled by :mod:`repro.kernels.dispatch`; the
instrumented entry points (``pram.primitives``, ``listrank.ranking``,
``matching.luby``, and the ``core`` drivers) accept ``backend="tracked"``
(default) or ``backend="numpy"`` and delegate here. See docs/kernels.md.
"""

from .dispatch import (
    BACKENDS,
    default_backend,
    get_kernel,
    is_array_backend,
    register_kernel,
    registered_kernels,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from . import (
    scan,
    listrank,
    matching,
    euler,
    components,
    subgraph,
    tour_flat,
)

__all__ = [
    "BACKENDS",
    "default_backend",
    "is_array_backend",
    "get_kernel",
    "register_kernel",
    "registered_kernels",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "scan",
    "listrank",
    "matching",
    "euler",
    "components",
    "subgraph",
    "tour_flat",
]

# numpy implementations of the operations the instrumented entry points
# dispatch on; the tracked counterparts register themselves lazily via
# their home modules to avoid import cycles (see _register_tracked)
register_kernel("prefix_sums_on_lists", "numpy", listrank.prefix_sums_on_lists_np)
register_kernel("maximal_matching", "numpy", matching.maximal_matching_np)
register_kernel("euler_tour_successors", "numpy", euler.euler_tour_successors)
register_kernel("connected_components", "numpy", components.connected_components_np)
register_kernel("spanning_forest", "numpy", components.spanning_forest_np)
register_kernel("component_sizes", "numpy", components.component_sizes_np)
register_kernel("induced_subgraph", "numpy", subgraph.induced_subgraph_np)

# numpy-only operations: batch primitives and alternate kernels with no
# tracked counterpart of the same signature.  Registered so the registry
# stays the complete map of the kernel surface (lint rule R004) and
# tooling can enumerate them.
register_kernel("exclusive_scan", "numpy", scan.exclusive_scan)
register_kernel("inclusive_scan", "numpy", scan.inclusive_scan)
register_kernel("reduce_sum", "numpy", scan.reduce_sum)
register_kernel("reduce_max", "numpy", scan.reduce_max)
register_kernel("reduce_min", "numpy", scan.reduce_min)
register_kernel("pack", "numpy", scan.pack)
register_kernel("pack_index", "numpy", scan.pack_index)
register_kernel("wyllie_ranks", "numpy", listrank.wyllie_ranks)
register_kernel("anderson_miller_ranks", "numpy", listrank.anderson_miller_ranks)
register_kernel("euler_tour_order", "numpy", euler.euler_tour_order)
register_kernel("maximal_matching_raw", "numpy", matching.maximal_matching_graph)
register_kernel("rebuild_rooted_forest", "numpy", tour_flat.rebuild_rooted_forest)


def _register_tracked() -> None:
    """Register the instrumented counterparts (deferred: they live above
    this package in the import graph)."""
    from ..graph import connectivity as _cc
    from ..listrank import ranking as _rank
    from ..matching import luby as _luby

    register_kernel("prefix_sums_on_lists", "tracked", _rank.prefix_sums_on_lists)
    register_kernel("maximal_matching", "tracked", _luby.maximal_matching)
    register_kernel("connected_components", "tracked", _cc.connected_components)
    register_kernel("spanning_forest", "tracked", _cc.spanning_forest)
    register_kernel("component_sizes", "tracked", _cc.component_sizes)


_register_tracked()
