"""Stress and failure-injection tests across the whole stack.

These target the seams: adversarial topologies, all backend combinations,
deep recursion shapes, vertex-ordering adversaries, and mixed dynamic
workloads on the substrates.
"""

import functools
import random

import pytest

from repro import parallel_dfs
from repro.core.verify import is_valid_dfs_tree
from repro.graph import Graph
from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures import absorb_ds
from repro.structures.absorb_ds import AbsorptionStructure
from repro.structures.hdt import HDTConnectivity
from repro.structures.rc_tree import RCForest

# promoted to repro.graph.generators for reuse by the fuzz harness
spider_graph = G.spider_graph
binary_tree_of_cycles = G.tree_of_cycles


class TestAdversarialTopologies:
    CASES = [
        ("spider", spider_graph(12, 20)),
        ("spider_fat", spider_graph(40, 5)),
        ("cycle_tree", binary_tree_of_cycles(4, 7)),
        ("double_broom", Graph.from_edges(
            [(i, i + 1) for i in range(60)]
            + [(0, 61 + j) for j in range(20)]
            + [(60, 81 + j) for j in range(20)]
        )),
        ("theta", Graph.from_edges(
            [(i, i + 1) for i in range(30)]
            + [(0, 31)] + [(30 + j, 31 + j) for j in range(1, 20)]
            + [(49, 30)]
        )),
        ("near_clique_with_tail", G.lollipop_graph(30, 100)),
        ("two_cliques_bridge", G.barbell_graph(25, 1)),
        ("dense", G.complete_graph(40)),
    ]

    @pytest.mark.parametrize("name,g", CASES, ids=[c[0] for c in CASES])
    def test_valid_tree(self, name, g):
        res = parallel_dfs(g, 0, verify=True)
        assert is_valid_dfs_tree(g, 0, res.parent)

    @pytest.mark.parametrize("name,g", CASES[:4], ids=[c[0] for c in CASES[:4]])
    def test_valid_from_eccentric_root(self, name, g):
        root = g.n - 1
        res = parallel_dfs(g, root, verify=True)
        assert res.parent[root] is None


class TestVertexOrderAdversaries:
    def test_reversed_labels(self):
        g = G.grid_graph(10, 10).relabeled(list(reversed(range(100))))
        res = parallel_dfs(g, 0, verify=True)
        assert len(res.parent) == 100

    def test_shuffled_labels(self):
        rng = random.Random(13)
        base = G.gnm_random_connected_graph(120, 360, seed=13)
        perm = list(range(120))
        rng.shuffle(perm)
        g = base.relabeled(perm)
        res = parallel_dfs(g, perm[0], verify=True)
        assert len(res.parent) == 120

    def test_interleaved_labels_on_path(self):
        # even ids first then odd — stresses id-based tie-breaks
        n = 80
        perm = [2 * i for i in range(n // 2)] + [2 * i + 1 for i in range(n // 2)]
        g = G.path_graph(n).relabeled(perm)
        parallel_dfs(g, perm[0], verify=True)


#: the tracked structure's mirror per case: "lct" is the driver's own,
#: "rc"/"rc-det" the rake-and-compress mirrors of Appendix C, installed by
#: rebinding ``absorb_ds.Mirror``; "numpy" runs the numpy engine instead
_RC_MIRRORS = {
    "rc": RCForest,
    "rc-det": functools.partial(RCForest, compress_mode="deterministic"),
}


class TestAllBackendCombos:
    @pytest.mark.parametrize("backend", ["rc", "rc-det", "lct", "numpy"])
    @pytest.mark.parametrize("structure", ["tournament", "naive"])
    def test_matrix(self, backend, structure, monkeypatch):
        if backend in _RC_MIRRORS:
            monkeypatch.setattr(absorb_ds, "Mirror", _RC_MIRRORS[backend])
        engine = "numpy" if backend == "numpy" else "tracked"
        g = G.gnm_random_connected_graph(90, 260, seed=21)
        res = parallel_dfs(
            g, 0, kernel_backend=engine, neighbor_structure=structure,
            verify=True,
        )
        assert len(res.parent) == 90

    def test_backends_agree_on_validity_many_seeds(self):
        for seed in range(6):
            g = G.gnm_random_connected_graph(50, 140, seed=seed)
            trees = [
                parallel_dfs(
                    g, 0, rng=random.Random(seed), kernel_backend=engine,
                    verify=True,
                ).parent
                for engine in ("tracked", "numpy")
            ]
            assert trees[0] == trees[1]


class TestSubstrateMixedWorkloads:
    def test_hdt_random_deletions_match_recompute(self):
        # HDT only ever deletes (Theorem 3.2's absorption): tear a random
        # connected graph down edge by edge against the recompute model
        rng = random.Random(31)
        g = G.gnm_random_connected_graph(40, 80, seed=31)
        hdt = HDTConnectivity(g)
        order = list(range(g.m))
        rng.shuffle(order)
        alive = set(order)
        for eid in order:
            hdt.batch_delete([eid])
            alive.discard(eid)
            comps = Graph(g.n, [g.edges[e] for e in sorted(alive)])
            label = {}
            for comp in comps.connected_components_seq():
                for v in comp:
                    label[v] = comp[0]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert hdt.connected(u, v) == (label[u] == label[v])
            hdt.check_invariants()
        assert all(hdt.component_size(v) == 1 for v in range(g.n))

    def test_absorption_structure_star_of_paths(self):
        g = spider_graph(8, 8)
        ds = AbsorptionStructure(g)
        ds.set_separator([0])  # only the hub
        for w in g.adj[1]:
            pass
        ds.set_tree_neighbor(1, 999, 0)
        v, x, d = ds.lowest_node(0)
        p = ds.find_path_s2p(0, v)
        assert p[-1] == 0

    def test_rc_forest_repeated_same_edge(self):
        f = RCForest(6)
        for _ in range(12):
            f.link(0, 1)
            f.cut(0, 1)
        f.check_invariants()
        assert f.edge_set() == set()

    def test_rc_star_collapse_and_regrow(self):
        n = 30
        f = RCForest(n)
        star = [(0, i) for i in range(1, n)]
        f.batch_update([], star)
        f.batch_update(star, [])
        assert len(f.roots()) == n
        path = [(i, i + 1) for i in range(n - 1)]
        f.batch_update([], path)
        assert len(f.roots()) == 1
        f.check_invariants()


def _int_stats(stats: dict) -> dict:
    """The deterministic work counters (drop wall-clock phase timings)."""
    return {k: v for k, v in stats.items() if isinstance(v, int)}


class TestCrossBackendFamilies:
    """Differential check: numpy kernel backend is an execution engine,
    not a different algorithm — identical trees, depths, and integer
    work counters on every generator family."""

    FAMS = ["spider", "cycletree", "bipartite", "powerlaw"]

    @pytest.mark.parametrize("name", FAMS)
    @pytest.mark.parametrize("n", [120, 300])
    def test_backends_identical(self, name, n):
        g = G.make_family(name, n, seed=9)
        r_tr = parallel_dfs(
            g, 0, rng=random.Random(99), kernel_backend="tracked",
            verify=True,
        )
        r_np = parallel_dfs(
            g, 0, rng=random.Random(99), kernel_backend="numpy",
            verify=True,
        )
        assert r_tr.parent == r_np.parent
        assert r_tr.depth == r_np.depth
        assert _int_stats(r_tr.stats) == _int_stats(r_np.stats)

    @pytest.mark.parametrize("name", FAMS)
    def test_new_families_shapes(self, name):
        g = G.make_family(name, 200, seed=3)
        assert g.n > 0 and g.m >= g.n - 1
        res = parallel_dfs(g, 0, verify=True)
        assert is_valid_dfs_tree(g, 0, res.parent)

    def test_bipartite_has_no_odd_cycles(self):
        g = G.make_family("bipartite", 150, seed=4)
        # 2-color by BFS; every edge must cross
        color = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        nxt.append(w)
            frontier = nxt
        assert all(color[u] != color[v] for u, v in g.edges)

    def test_powerlaw_is_heavy_tailed(self):
        g = G.make_family("powerlaw", 400, seed=6)
        degs = sorted((len(g.adj[v]) for v in range(g.n)), reverse=True)
        assert degs[0] >= 4 * degs[g.n // 2]  # hub >> median


class TestScaleSmoke:
    def test_moderate_scale_all_families(self):
        for name in G.FAMILIES:
            g = G.make_family(name, 400, seed=5)
            t = Tracker()
            res = parallel_dfs(g, 0, tracker=t, verify=True)
            # work stays within the theorem envelope on every family
            logn = g.n.bit_length()
            assert t.work <= 20 * (g.m + g.n) * logn**2, name
