"""Resident graphs with cached DFS trees keyed on component stamps.

A :class:`ResidentGraph` couples a
:class:`~repro.service.dynamic.DynamicGraph` with an LRU cache of
canonical tree payloads.  The cache key is ``(root, seed)`` and the
entry carries the component stamp it was computed under: a hit requires
``entry.stamp == dyn.stamp[root]``, which (by the component-locality
argument in :mod:`repro.service.dynamic`) is exactly the condition under
which the cached payload is still byte-identical to a fresh
``parallel_dfs`` on the current graph state.  Stale entries are
overwritten on the next miss; the LRU bound keeps memory O(max_cache).

A miss costs the root's component, not the resident graph: it builds
the component graph straight from the resident forest
(:meth:`~repro.service.dynamic.DynamicGraph.component_graph`, local ids
in ascending global order) and runs ``parallel_dfs`` on it.  The tree
is the whole-graph tree: ``parallel_dfs`` draws no randomness before
its first ``solve``, and that call induces the root's component in
ascending vertex order — exactly this graph — so every later step sees
the same input, and the monotone relabeling maps the result back.
The whole-graph snapshot serves only the lockstep oracle
(:meth:`ResidentGraph.recompute`).

Computation is split so the async batcher can offload it: the
event-loop side calls :meth:`ResidentGraph.lookup` (O(1)) and
:meth:`ResidentGraph.install`; the pure :meth:`ResidentGraph.compute`
runs on an executor thread and touches no cache state.  Updates act as
barriers in the batch loop, so a compute never races a mutation.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import OrderedDict

from ..core.dfs import STRUCTURE, parallel_dfs
from ..graph.generators import FAMILIES, make_family
from ..kernels.dispatch import resolve_backend
from . import protocol

__all__ = ["GraphStore", "ResidentGraph", "ServiceError"]


class ServiceError(ValueError):
    """A structured, per-request failure (graph state stays untouched)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class ResidentGraph:
    """One named resident graph: dynamic state + tree cache."""

    def __init__(
        self,
        name: str,
        n: int,
        edges: list[tuple[int, int]] | None = None,
        *,
        kernel_backend: str | None = None,
        rebuild_fraction: float = 0.25,
        max_cache: int = 1024,
    ) -> None:
        from .dynamic import DynamicGraph

        self.name = name
        self.kernel_backend = resolve_backend(kernel_backend)
        try:
            self.dyn = DynamicGraph(
                n,
                edges,
                kernel_backend=self.kernel_backend,
                rebuild_fraction=rebuild_fraction,
            )
        except ValueError as exc:
            raise ServiceError("bad_graph", str(exc)) from None
        self.max_cache = max_cache
        #: (root, seed) -> (stamp, tree payload dict)
        self._cache: OrderedDict[tuple[int, int], tuple[int, dict]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.dyn.n:
            raise ServiceError(
                "bad_root", f"root {root} out of range for n={self.dyn.n}"
            )

    def lookup(self, root: int, seed: int) -> dict | None:
        """Cache probe; returns the still-valid payload or None."""
        self._check_root(root)
        key = (root, seed)
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self.dyn.stamp[root]:
            self._cache.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def compute(self, root: int, seed: int) -> dict:
        """Fresh canonical tree — pure, safe on an executor thread.

        Runs on the root's component graph, not the whole graph: the
        tree, mapped back to global ids, is the whole-graph tree byte
        for byte (module docstring)."""
        self._check_root(root)
        sub, vertices = self.dyn.component_graph(root)
        res = parallel_dfs(
            sub,
            bisect_left(vertices, root),
            rng=random.Random(seed),
            kernel_backend=self.kernel_backend,
        )
        parent = {
            vertices[v]: None if p is None else vertices[p]
            for v, p in res.parent.items()
        }
        depth = {vertices[v]: d for v, d in res.depth.items()}
        return protocol.tree_payload(root, parent, depth)

    def recompute(self, root: int, seed: int) -> dict:
        """The lockstep oracle: a fresh ``parallel_dfs`` of the whole
        current graph, sharing nothing with :meth:`compute` but the
        algorithm."""
        self._check_root(root)
        res = parallel_dfs(
            self.dyn.snapshot(),
            root,
            rng=random.Random(seed),
            kernel_backend=self.kernel_backend,
        )
        return protocol.tree_payload(res.root, res.parent, res.depth)

    def install(self, root: int, seed: int, tree: dict) -> None:
        """File a computed payload under the current component stamp."""
        key = (root, seed)
        self._cache[key] = (self.dyn.stamp[root], tree)
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_cache:
            self._cache.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every cached tree (test/fault-recovery support)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    def cache_entries(self) -> int:
        return len(self._cache)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "n": self.dyn.n,
            "m": self.dyn.m,
            "mutations": self.dyn.mutations,
            "cache_entries": self.cache_entries(),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": round(self.hit_rate(), 4),
            "maintenance": dict(self.dyn.maintenance),
            "kernel_backend": self.kernel_backend,
            "structure": STRUCTURE,
        }


class GraphStore:
    """Named resident graphs behind the service ops."""

    def __init__(
        self,
        *,
        kernel_backend: str | None = None,
        rebuild_fraction: float = 0.25,
        max_cache: int = 1024,
        max_graphs: int = 64,
    ) -> None:
        self.kernel_backend = resolve_backend(kernel_backend)
        self.rebuild_fraction = rebuild_fraction
        self.max_cache = max_cache
        self.max_graphs = max_graphs
        self._graphs: dict[str, ResidentGraph] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._graphs

    def names(self) -> list[str]:
        return sorted(self._graphs)

    def get(self, name: str) -> ResidentGraph:
        try:
            return self._graphs[name]
        except KeyError:
            raise ServiceError(
                "no_such_graph",
                f"graph {name!r} not loaded; resident: {self.names()}",
            ) from None

    def load(
        self,
        name: str,
        *,
        n: int | None = None,
        edges: list[tuple[int, int]] | None = None,
        family: str | None = None,
        seed: int = 0,
    ) -> ResidentGraph:
        """Create (or replace) a resident graph from edges or a family."""
        if len(self._graphs) >= self.max_graphs and name not in self._graphs:
            raise ServiceError(
                "too_many_graphs",
                f"store holds {self.max_graphs} graphs; drop one first",
            )
        if family is not None:
            if family not in FAMILIES:
                raise ServiceError(
                    "bad_family",
                    f"unknown family {family!r}; "
                    f"families: {', '.join(sorted(FAMILIES))}",
                )
            if n is None:
                raise ServiceError("bad_graph", "family load requires n")
            g = make_family(family, n, seed=seed)
            n, edges = g.n, list(g.edges)
        elif n is None:
            raise ServiceError(
                "bad_graph", "load requires either n (+edges) or family"
            )
        rg = ResidentGraph(
            name,
            n,
            edges,
            kernel_backend=self.kernel_backend,
            rebuild_fraction=self.rebuild_fraction,
            max_cache=self.max_cache,
        )
        self._graphs[name] = rg
        return rg

    def drop(self, name: str) -> None:
        self.get(name)
        del self._graphs[name]

    def stats(self) -> dict:
        return {name: rg.stats() for name, rg in sorted(self._graphs.items())}
