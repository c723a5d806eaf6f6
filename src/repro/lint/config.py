"""Scope configuration: which invariant covers which part of the tree.

Paths here are relative to the ``repro`` package root (the ``rel``
field of :class:`~repro.lint.base.FileContext`), so the same scopes
apply when tests lint synthetic in-memory files under fabricated
``repro/...`` paths.
"""

from __future__ import annotations

__all__ = [
    "TRACKED_PACKAGES",
    "LOCKSTEP_PACKAGES",
    "RNG_OWNER_FILES",
    "R001_SKIP_FILES",
    "DISPATCH_FORWARDING_PACKAGES",
]

#: R001 scope: modules whose loops are bound by Theorem 1.1's tracked
#: work/span accounting.  Every graph-sized loop here must charge the
#: Tracker (directly or through a parallel_for that charges per item).
TRACKED_PACKAGES: tuple[str, ...] = (
    "core",
    "structures",
    "matching",
    "listrank",
    "pram",
)

#: R002/R005 scope: modules on the byte-identical tracked↔numpy path
#: (the ``parallel_dfs`` pipeline and everything it calls).  Iteration
#: order and float comparison semantics here must be deterministic and
#: backend-independent.
LOCKSTEP_PACKAGES: tuple[str, ...] = TRACKED_PACKAGES + ("kernels", "graph")

#: R003 exemptions: the files that legitimately own module-level
#: randomness — the rng bridge itself, the graph generators, and the
#: fuzz/experiment entry points that seed their own ``random.Random``.
#: Everything else must draw from a threaded, seeded instance.
RNG_OWNER_FILES: frozenset[str] = frozenset(
    {
        "kernels/rng.py",
        "graph/generators.py",
        "analysis/fuzz.py",
        "analysis/runner.py",
        "cli.py",
    }
)

#: R001 exemptions: the cost model itself (its loops *are* the charging
#: machinery), the DFS-tree oracle (verification cost is outside the
#: theorem's budget by design — it re-walks the tree sequentially).
R001_SKIP_FILES: frozenset[str] = frozenset(
    {
        "pram/tracker.py",
        "core/verify.py",
    }
)

#: R004 scope: packages whose public entry points must forward an
#: accepted ``kernel_backend`` to every callee that takes one.
DISPATCH_FORWARDING_PACKAGES: tuple[str, ...] = ("core", "structures")
