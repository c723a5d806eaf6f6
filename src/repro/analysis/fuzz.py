"""Differential fuzzing harness: tracked vs numpy vs brute-force oracles.

The numpy kernel backend (docs/kernels.md) is an *execution engine*, not a
different algorithm: every choice point in the DFS driver and the
absorption substrate is canonicalized, so ``parallel_dfs(...,
kernel_backend="numpy")`` must return byte-identical trees, depths, and
integer work counters. This module turns that contract into a randomized
test: it draws graphs from every generator family
(:data:`repro.graph.generators.FAMILIES`) plus adversarial shapes
(:data:`ADVERSARIAL_FAMILIES`: long paths, stars, complete bipartite
graphs, forests of tiny components, mostly-isolated vertices, n in
{1, 2}, random k-trees) and random operation sequences
for the Lemma 5.1 absorption structure, runs them under both backends,
and cross-checks the results against each other and against brute-force
oracles (:mod:`repro.core.verify` for trees, a dict/set reference model
for the structure).

Three kinds of cases:

* **DFS cases** (:func:`check_dfs_case`) — a full ``parallel_dfs`` run on
  a random family instance under both backends: identical parent/depth
  maps, identical integer ``stats`` counters, the
  :func:`~repro.core.verify.explain_dfs_tree` oracle returns ``None``,
  and work/span stay inside the theorem envelopes (a bound-regression
  gate on every fuzz case, not just the pinned benchmark sizes).

* **Op-sequence cases** (:func:`check_ops_case`) — a random sequence of
  ``set_separator`` / ``unset_separator`` / ``set_tree_neighbor`` /
  ``batch_delete`` calls applied in lockstep to each engine's Lemma 5.1
  structure — the link-cut-mirrored
  :class:`~repro.structures.absorb_ds.AbsorptionStructure` under tracked
  and the array-native
  :class:`~repro.structures.flat_absorb.FlatAbsorptionStructure` under
  numpy — and to :class:`NaiveAbsorptionModel` (BFS recomputation).
  After every step the Lemma 5.1 queries (``find_cc``, ``lowest_node``,
  ``find_path_s2p``), connectivity, and the spanning forest must agree
  across engines, and every path must satisfy the Lemma 5.1 contract
  against the model. Ops are
  *abstract* (indices modulo the alive set), so any integer tuple list
  is a valid case — which is what lets the hypothesis wrappers in
  ``tests/fuzz/`` shrink counterexamples.

* **Service cases** (:func:`check_service_case`) — a random schedule of
  edge mutation batches and DFS queries replayed through the service's
  resident-graph layer (:class:`~repro.service.store.ResidentGraph`:
  component-stamp cache + incremental HDT maintenance of
  :mod:`repro.service.dynamic`, at rebuild_fraction 0.0 / 0.25 / 1.0 to
  force the full-rebuild, mixed, and always-incremental paths) against a
  full recompute: every query's canonical tree bytes must equal a fresh
  ``parallel_dfs`` on ``Graph(n, sorted(edges))`` — the service lockstep
  contract (docs/service.md) — with mutation counters monotone and the
  maintenance invariants intact at the end.

CLI (used by CI with a fixed seed and a ~30 s budget)::

    python -m repro.analysis.fuzz --budget 30 --seed 0 --min-cases 500

Exits non-zero and prints reproduction parameters on any divergence.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Sequence

from ..core.dfs import parallel_dfs
from ..core.verify import explain_dfs_tree, tree_depths
from ..graph.generators import make_family
from ..graph.graph import Graph
from ..pram.tracker import Tracker
from ..structures.absorb_ds import make_absorption_structure

__all__ = [
    "ADVERSARIAL_FAMILIES",
    "FUZZ_FAMILIES",
    "NaiveAbsorptionModel",
    "check_dfs_case",
    "check_ops_case",
    "check_service_case",
    "make_ops",
    "fuzz_graph",
    "run",
    "main",
]

#: families the harness draws from (all of FAMILIES; listed explicitly so
#: a new family must be added here consciously, with size ranges in mind)
FUZZ_FAMILIES = [
    "gnm", "grid", "tree", "regular", "path", "smallworld",
    "spider", "cycletree", "bipartite", "powerlaw",
]


def _relabeled(n: int, edges: list[tuple[int, int]], seed: int) -> Graph:
    """``Graph(n, edges)`` under a seeded vertex permutation, so a shape's
    structure never lines up with vertex-id order."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def _adv_longpath(n: int, seed: int) -> Graph:
    # twice as long as the other families: deep rooted forests, many
    # pointer-doubling rounds, long parent walks after every cut
    n = 2 * n
    return _relabeled(n, [(i, i + 1) for i in range(n - 1)], seed)


def _adv_star(n: int, seed: int) -> Graph:
    return _relabeled(n, [(0, i) for i in range(1, n)], seed)


def _adv_kbipartite(n: int, seed: int) -> Graph:
    a = 1 + seed % 4
    return _relabeled(n, [(i, j) for i in range(a) for j in range(a, n)], seed)


def _adv_tinyforest(n: int, seed: int) -> Graph:
    # components of 1-3 vertices: singletons, edges and paths of two
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    start = 0
    while start < n:
        k = min(n - start, rng.randrange(1, 4))
        edges.extend((start + i, start + i + 1) for i in range(k - 1))
        start += k
    return _relabeled(n, edges, seed)


def _adv_isolated(n: int, seed: int) -> Graph:
    # three quarters of the vertices isolated: most roots have no edge
    core = max(2, n // 4)
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
    return _relabeled(n, rng.sample(pairs, min(len(pairs), 2 * core)), seed)


def _adv_ktree(n: int, seed: int) -> Graph:
    # a random k-tree (chordal, treewidth k): a (k+1)-clique, then each
    # new vertex joined to all of a random existing k-clique
    k = min(1 + seed % 3, n - 1)
    rng = random.Random(seed)
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(c for c in range(k + 1) if c != i) for i in range(k + 1)]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges.extend((u, v) for u in base)
        cliques.extend(base[:i] + base[i + 1:] + (v,) for i in range(k))
    return _relabeled(n, edges, seed)


def _adv_tiny(n: int, seed: int) -> Graph:
    # n in {1, 2}: the one-vertex graph, two isolated vertices, one edge
    return [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])][seed % 3]


#: adversarial shapes the generator families do not cover, drawn
#: alongside them; all go through the same oracle and engine matrix
ADVERSARIAL_FAMILIES = {
    "longpath": _adv_longpath,
    "star": _adv_star,
    "kbipartite": _adv_kbipartite,
    "tinyforest": _adv_tinyforest,
    "isolated": _adv_isolated,
    "tiny": _adv_tiny,
    "ktree": _adv_ktree,
}


def fuzz_graph(family: str, n: int, seed: int) -> Graph:
    """A generator family (:func:`make_family`) or an adversarial one."""
    adv = ADVERSARIAL_FAMILIES.get(family)
    return adv(n, seed) if adv is not None else make_family(family, n, seed=seed)


#: kernel backends every DFS, op-sequence and service case runs under —
#: byte-identity is checked against the tracked instrument
_BACKENDS = ("tracked", "numpy")


def _int_stats(stats: dict) -> dict:
    """Deterministic work counters only (drop wall-clock phase timings)."""
    return {k: v for k, v in stats.items() if isinstance(v, int)}


# ----------------------------------------------------------------------
# DFS differential cases
# ----------------------------------------------------------------------

def check_dfs_case(
    family: str, n: int, graph_seed: int, rng_seed: int, root: int = 0
) -> None:
    """One differential DFS case; raises AssertionError on any divergence.

    Runs ``parallel_dfs`` under both kernel backends with identical
    driver rng, then checks backend identity, the brute-force DFS-tree
    oracle, depth consistency, and the work/span theorem envelopes.
    """
    g = fuzz_graph(family, n, graph_seed)
    root = root % g.n
    results = {}
    trackers = {}
    for kb in _BACKENDS:
        t = Tracker()
        results[kb] = parallel_dfs(
            g, root, tracker=t, rng=random.Random(rng_seed),
            kernel_backend=kb,
        )
        trackers[kb] = t
    r_tr = results["tracked"]
    for kb in _BACKENDS[1:]:
        r_kb = results[kb]
        assert r_tr.parent == r_kb.parent, (
            f"parent maps diverge (tracked vs {kb}): "
            f"{sorted(set(r_tr.parent.items()) ^ set(r_kb.parent.items()))[:6]}"
        )
        assert r_tr.depth == r_kb.depth, f"depth maps diverge (tracked vs {kb})"
        assert _int_stats(r_tr.stats) == _int_stats(r_kb.stats), (
            f"stats diverge: tracked={_int_stats(r_tr.stats)} "
            f"{kb}={_int_stats(r_kb.stats)}"
        )
    # brute-force oracle
    err = explain_dfs_tree(g, root, r_tr.parent)
    assert err is None, f"oracle: {err}"
    assert tree_depths(r_tr.parent, root) == r_tr.depth, "depths inconsistent"
    # bound-regression gate: the theorem envelopes, generously scaled
    logn = max(2, g.n).bit_length()
    t = trackers["tracked"]
    assert t.work <= 30 * (g.m + g.n) * logn**2, (
        f"work envelope: {t.work} > 30*(m+n)*log^2"
    )
    sqrt_n = int(g.n ** 0.5) + 1
    assert t.span <= 600 * sqrt_n * logn**3, (
        f"span envelope: {t.span} > 600*sqrt(n)*log^3"
    )


# ----------------------------------------------------------------------
# Absorption structure op-sequence cases
# ----------------------------------------------------------------------

class NaiveAbsorptionModel:
    """Brute-force reference for the Lemma 5.1 structure.

    Recomputes everything from scratch (BFS over the alive subgraph);
    mirrors the canonical tie-breaks of the real structure: ``find_cc``
    is the minimum-id remaining separator vertex, ``lowest`` is the
    (max depth, then min vertex) witness in a component, witnesses keep
    the (depth, vertex) lex-max update and only improve on strictly
    larger depth.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.alive: set[int] = set(range(g.n))
        self.q: set[int] = set()
        self.witness: dict[int, tuple[int, int]] = {}

    def component(self, v: int) -> set[int]:
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.g.adj[u]:
                    if w in self.alive and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def set_separator(self, vs: Sequence[int]) -> None:
        self.q.update(vs)

    def unset_separator(self, vs: Sequence[int]) -> None:
        self.q.difference_update(vs)

    def set_tree_neighbor(self, v: int, x: int, d: int) -> None:
        cur = self.witness.get(v)
        if cur is None or d > cur[0]:
            self.witness[v] = (d, x)

    def batch_delete(self, pairs: Sequence[tuple[int, int]]) -> None:
        depth_of = dict(pairs)
        dead = set(depth_of)
        updates: dict[int, tuple[int, int]] = {}
        for v in dead:
            for w in self.g.adj[v]:
                if w in dead or w not in self.alive:
                    continue
                cur = updates.get(w)
                if cur is None or (depth_of[v], v) > cur:
                    updates[w] = (depth_of[v], v)
        for v in dead:
            self.alive.discard(v)
            self.q.discard(v)
            self.witness.pop(v, None)
        for nb, (d, w) in updates.items():
            self.set_tree_neighbor(nb, w, d)

    def find_cc(self) -> int | None:
        return min(self.q) if self.q else None

    def lowest_node(self, q: int) -> tuple[int, int, int] | None:
        comp = self.component(q)
        cands = [(-self.witness[v][0], v) for v in comp if v in self.witness]
        if not cands:
            return None
        _, v = min(cands)
        d, x = self.witness[v]
        return v, x, d


def make_ops(rng: random.Random, steps: int) -> list[tuple]:
    """A random abstract op sequence (indices resolved modulo alive set)."""
    ops: list[tuple] = [
        ("flag", [rng.randrange(64) for _ in range(rng.randrange(1, 6))]),
        ("witness", rng.randrange(64), rng.randrange(64), rng.randrange(32)),
    ]
    for _ in range(steps):
        r = rng.random()
        if r < 0.20:
            ops.append(
                ("flag", [rng.randrange(64) for _ in range(rng.randrange(1, 4))])
            )
        elif r < 0.30:
            ops.append(
                ("unflag", [rng.randrange(64) for _ in range(rng.randrange(1, 3))])
            )
        elif r < 0.55:
            ops.append(
                ("witness", rng.randrange(64), rng.randrange(64), rng.randrange(32))
            )
        else:
            ops.append(
                (
                    "delete",
                    [rng.randrange(64) for _ in range(rng.randrange(1, 4))],
                    [rng.randrange(32) for _ in range(3)],
                )
            )
    return ops


def _resolve(op: tuple, model: NaiveAbsorptionModel, g: Graph):
    """Map an abstract op onto the current alive set (None = no-op)."""
    alive = sorted(model.alive)
    if not alive:
        return None
    kind = op[0]
    if kind in ("flag", "unflag"):
        vs = sorted({alive[i % len(alive)] for i in op[1]})
        if kind == "flag":
            vs = [v for v in vs if v in model.alive]
        return (kind, vs) if vs else None
    if kind == "witness":
        return (kind, alive[op[1] % len(alive)], op[2] % g.n, op[3] % 32)
    if kind == "delete":
        vs = sorted({alive[i % len(alive)] for i in op[1]})
        depths = op[2] if len(op) > 2 and op[2] else [0]
        return (kind, [(v, depths[j % len(depths)] % 32) for j, v in enumerate(vs)])
    raise ValueError(f"unknown op kind {kind!r}")


def _check_queries(
    structs: dict[str, object],
    model: NaiveAbsorptionModel,
    g: Graph,
) -> None:
    q_exp = model.find_cc()
    for key, s in structs.items():
        got = s.find_cc()
        assert got == q_exp, f"find_cc[{key}]: {got} != {q_exp}"
    if q_exp is not None:
        low_exp = model.lowest_node(q_exp)
        if low_exp is not None:
            for key, s in structs.items():
                got = s.lowest_node(q_exp)
                assert got == low_exp, f"lowest_node[{key}]: {got} != {low_exp}"
            v = low_exp[0]
            paths = {
                key: s.find_path_s2p(q_exp, v) for key, s in structs.items()
            }
            # byte-identity: both engines return the *same* path...
            vals = list(paths.values())
            assert all(p == vals[0] for p in vals), (
                f"paths diverge across engines: {paths}"
            )
            # ...and it must satisfy the Lemma 5.1 contract
            edge_set = {(min(a, b), max(a, b)) for a, b in g.edges}
            for key, p in paths.items():
                assert p[0] == v and p[-1] in model.q, (
                    f"bad path endpoints[{key}]: {p}"
                )
                assert len(set(p)) == len(p), f"path repeats[{key}]: {p}"
                assert all(w not in model.q for w in p[:-1]), (
                    f"internal Q vertex[{key}]: {p}"
                )
                for a, b in zip(p, p[1:]):
                    assert (min(a, b), max(a, b)) in edge_set, (
                        f"non-edge in path[{key}]: {p}"
                    )
                    assert a in model.alive and b in model.alive
    # connectivity spot checks against the BFS model
    alive = sorted(model.alive)
    if len(alive) >= 2:
        probes = [
            (alive[0], alive[-1]),
            (alive[len(alive) // 2], alive[-1]),
            (alive[0], alive[len(alive) // 3]),
        ]
        for u, w in probes:
            exp = w in model.component(u)
            for key, s in structs.items():
                assert s.hdt.connected(u, w) == exp, (
                    f"connected[{key}]({u},{w}) != {exp}"
                )
    # every backend must hold the *same* (canonical) spanning forest
    forests = {
        key: sorted(s.hdt.spanning_forest_edges())
        for key, s in structs.items()
    }
    fvals = list(forests.values())
    assert all(f == fvals[0] for f in fvals), f"forests diverge: {forests}"


def check_ops_case(g: Graph, ops: Sequence[tuple]) -> None:
    """Apply one abstract op sequence to both engines' structures + the
    naive model, comparing every Lemma 5.1 query after every step."""
    structs = {
        kb: make_absorption_structure(g, kernel_backend=kb) for kb in _BACKENDS
    }
    model = NaiveAbsorptionModel(g)
    _check_queries(structs, model, g)
    for op in ops:
        resolved = _resolve(op, model, g)
        if resolved is None:
            continue
        kind = resolved[0]
        if kind == "flag":
            for s in structs.values():
                s.set_separator(resolved[1])
            model.set_separator(resolved[1])
        elif kind == "unflag":
            for s in structs.values():
                s.unset_separator(resolved[1])
            model.unset_separator(resolved[1])
        elif kind == "witness":
            _, v, x, d = resolved
            for s in structs.values():
                s.set_tree_neighbor(v, x, d)
            model.set_tree_neighbor(v, x, d)
        elif kind == "delete":
            for s in structs.values():
                s.batch_delete(resolved[1])
            model.batch_delete(resolved[1])
        _check_queries(structs, model, g)
    for s in structs.values():
        s.check_invariants()


# ----------------------------------------------------------------------
# Service cases: incremental maintenance vs full recompute
# ----------------------------------------------------------------------

#: rebuild_fraction values exercised: 0.0 forces every batch through the
#: full-rebuild path (global invalidation), 1.0 forces every batch
#: through the incremental HDT path, 0.25 is the service default mix
_SERVICE_FRACTIONS = (0.0, 0.25, 1.0)


def _service_union(
    family: str, n: int, parts: int, graph_seed: int
) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint union of ``parts`` family instances.

    Multi-component resident state is the interesting regime: the
    component-stamp cache must keep serving untouched components
    byte-identically across mutations of the others.
    """
    edges: list[tuple[int, int]] = []
    total = 0
    for k in range(parts):
        g = make_family(family, n, seed=graph_seed + k)
        edges.extend((u + total, v + total) for u, v in g.edges)
        total += g.n
    return total, edges


def check_service_case(
    family: str,
    n: int,
    parts: int,
    graph_seed: int,
    sched_seed: int,
    steps: int,
    rebuild_fraction: float,
) -> None:
    """One service differential case; raises AssertionError on divergence.

    Replays one random mutation/query schedule through a
    :class:`~repro.service.store.ResidentGraph` per kernel backend
    (lookup -> compute -> install, exactly the server's split) while a
    plain edge-set model tracks the canonical graph state.  Every query
    must be byte-identical to a fresh ``parallel_dfs`` on the model
    state, whether it was served from cache or recomputed.
    """
    from ..service import protocol
    from ..service.store import ResidentGraph

    total, edges = _service_union(family, n, parts, graph_seed)
    rng = random.Random(sched_seed)
    model: set[tuple[int, int]] = {
        (u, v) if u <= v else (v, u) for u, v in edges
    }
    rgs = {
        kb: ResidentGraph(
            "fuzz",
            total,
            sorted(model),
            kernel_backend=kb,
            rebuild_fraction=rebuild_fraction,
        )
        for kb in _BACKENDS
    }
    mutations_seen = {kb: rg.dyn.mutations for kb, rg in rgs.items()}

    def query(root: int, seed: int) -> None:
        g_oracle = Graph(total, sorted(model))
        for kb, rg in rgs.items():
            cached = rg.lookup(root, seed)
            if cached is None:
                tree = rg.compute(root, seed)
                rg.install(root, seed, tree)
            else:
                tree = cached
            res = parallel_dfs(
                g_oracle,
                root,
                rng=random.Random(seed),
                kernel_backend=kb,
            )
            want = protocol.tree_payload(res.root, res.parent, res.depth)
            got_b = protocol.tree_bytes(tree)
            want_b = protocol.tree_bytes(want)
            assert got_b == want_b, (
                f"service tree diverges from fresh recompute "
                f"[{kb}, cached={cached is not None}] root={root} "
                f"seed={seed} mutations={rg.dyn.mutations}: "
                f"{got_b[:120]!r} != {want_b[:120]!r}"
            )

    def mutate() -> None:
        insert: set[tuple[int, int]] = set()
        delete: set[tuple[int, int]] = set()
        for _ in range(rng.randrange(1, 5)):
            u = rng.randrange(total)
            v = rng.randrange(total)
            if u == v:
                continue
            key = (u, v) if u <= v else (v, u)
            # membership decides the role, so insert/delete never conflict
            (delete if key in model else insert).add(key)
        reports = {}
        for kb, rg in rgs.items():
            reports[kb] = rg.dyn.apply_batch(
                insert=sorted(insert), delete=sorted(delete)
            )
            assert rg.dyn.mutations >= mutations_seen[kb], (
                f"mutation counter went backwards [{kb}]"
            )
            if insert or delete:
                assert rg.dyn.mutations > mutations_seen[kb], (
                    f"non-empty batch did not advance the counter [{kb}]"
                )
            mutations_seen[kb] = rg.dyn.mutations
        model.difference_update(delete)
        model.update(insert)
        # both backends hold the same HDT state -> identical reports
        views = {
            kb: (r.mode, r.inserted, r.deleted, r.affected)
            for kb, r in reports.items()
        }
        vals = list(views.values())
        assert all(v == vals[0] for v in vals), (
            f"maintenance reports diverge across backends: {views}"
        )
        for kb, rg in rgs.items():
            assert sorted(rg.dyn.edge_pairs()) == sorted(model), (
                f"edge set diverges from model [{kb}]"
            )

    # prime the cache so later queries exercise hits across mutations
    query(rng.randrange(total), rng.randrange(4))
    for _ in range(steps):
        if rng.random() < 0.55:
            query(rng.randrange(total), rng.randrange(4))
        else:
            mutate()
    query(rng.randrange(total), rng.randrange(4))
    for rg in rgs.values():
        rg.dyn.check_invariants()


# ----------------------------------------------------------------------
# budgeted runner / CLI
# ----------------------------------------------------------------------

def run(
    budget: float = 30.0,
    seed: int = 0,
    max_cases: int | None = None,
    min_cases: int = 0,
    dfs_fraction: float = 0.35,
    service_fraction: float = 0.15,
    verbose: bool = False,
) -> dict:
    """Fuzz until the time budget is spent (and ``min_cases`` reached).

    Returns a summary dict with ``cases``, ``failures`` (list of
    (params, message) pairs), and ``elapsed``.
    """
    rng = random.Random(seed)
    families = FUZZ_FAMILIES + list(ADVERSARIAL_FAMILIES)
    t0 = time.perf_counter()
    cases = 0
    dfs_cases = 0
    ops_cases = 0
    service_cases = 0
    failures: list[tuple[dict, str]] = []
    while True:
        elapsed = time.perf_counter() - t0
        if max_cases is not None and cases >= max_cases:
            break
        if elapsed >= budget and cases >= min_cases:
            break
        draw = rng.random()
        if draw < dfs_fraction:
            params = {
                "kind": "dfs",
                "family": rng.choice(families),
                "n": rng.randrange(16, 81),
                "graph_seed": rng.randrange(1 << 16),
                "rng_seed": rng.randrange(1 << 16),
                "root": rng.randrange(1 << 16),
            }
            try:
                check_dfs_case(
                    params["family"], params["n"], params["graph_seed"],
                    params["rng_seed"], params["root"],
                )
            except AssertionError as exc:
                failures.append((params, str(exc)))
            dfs_cases += 1
        elif draw < dfs_fraction + service_fraction:
            params = {
                "kind": "service",
                "family": rng.choice(FUZZ_FAMILIES),
                "n": rng.randrange(8, 25),
                "parts": rng.randrange(1, 4),
                "graph_seed": rng.randrange(1 << 16),
                "sched_seed": rng.randrange(1 << 16),
                "steps": rng.randrange(3, 9),
                "rebuild_fraction": rng.choice(_SERVICE_FRACTIONS),
            }
            try:
                check_service_case(
                    params["family"], params["n"], params["parts"],
                    params["graph_seed"], params["sched_seed"],
                    params["steps"], params["rebuild_fraction"],
                )
            except AssertionError as exc:
                failures.append((params, str(exc)))
            service_cases += 1
        else:
            params = {
                "kind": "ops",
                "family": rng.choice(families),
                "n": rng.randrange(8, 33),
                "graph_seed": rng.randrange(1 << 16),
                "ops_seed": rng.randrange(1 << 16),
                "steps": rng.randrange(2, 9),
            }
            try:
                g = fuzz_graph(
                    params["family"], params["n"], params["graph_seed"]
                )
                ops = make_ops(
                    random.Random(params["ops_seed"]), params["steps"]
                )
                check_ops_case(g, ops)
            except AssertionError as exc:
                failures.append((params, str(exc)))
            ops_cases += 1
        cases += 1
        if verbose and cases % 100 == 0:
            print(
                f"  ... {cases} cases ({dfs_cases} dfs / {ops_cases} ops / "
                f"{service_cases} service), "
                f"{len(failures)} failures, {elapsed:.1f}s",
                flush=True,
            )
    return {
        "cases": cases,
        "dfs_cases": dfs_cases,
        "ops_cases": ops_cases,
        "service_cases": service_cases,
        "failures": failures,
        "elapsed": time.perf_counter() - t0,
        "seed": seed,
    }


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis.fuzz", description=__doc__.split("\n")[0]
    )
    ap.add_argument("--budget", type=float, default=30.0,
                    help="time budget in seconds (default 30)")
    ap.add_argument("--seed", type=int, default=0,
                    help="master seed (default 0: CI-reproducible)")
    ap.add_argument("--cases", type=int, default=None,
                    help="stop after exactly this many cases")
    ap.add_argument("--min-cases", type=int, default=0,
                    help="keep fuzzing past the budget until this many cases ran")
    ap.add_argument("--verbose", action="store_true",
                    help="progress line every 100 cases")
    args = ap.parse_args(argv)
    summary = run(
        budget=args.budget, seed=args.seed, max_cases=args.cases,
        min_cases=args.min_cases, verbose=args.verbose,
    )
    print(
        f"fuzz: {summary['cases']} cases "
        f"({summary['dfs_cases']} dfs, {summary['ops_cases']} ops, "
        f"{summary['service_cases']} service), "
        f"{len(summary['failures'])} divergences, "
        f"{summary['elapsed']:.1f}s, seed={summary['seed']}"
    )
    for params, msg in summary["failures"][:10]:
        print(f"  FAIL {params}: {msg}")
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
