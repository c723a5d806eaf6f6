"""Tests for the HDT batch-dynamic connectivity structure (Lemma 6.1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures.flat_absorb import FlatForest
from repro.structures.hdt import HDTConnectivity


def oracle_labels(n, live_edges):
    g = Graph(n, live_edges)
    comps = g.connected_components_seq()
    lab = [0] * n
    for comp in comps:
        mn = min(comp)
        for v in comp:
            lab[v] = mn
    return lab


def _incident(g, v):
    """Edge ids incident to v: deleting them all is v's deletion."""
    return [e for e, pair in enumerate(g.edges) if v in pair]


def hdt_matches_oracle(hdt, n, live_edges):
    lab = oracle_labels(n, live_edges)
    for v in range(n):
        if hdt.component_rep(v) != lab[v]:
            return False
    return True


class TestInit:
    def test_initial_connectivity(self):
        g = G.gnm_random_connected_graph(30, 60, seed=1)
        hdt = HDTConnectivity(g)
        assert hdt.connected(0, 29)
        assert hdt.component_size(0) == 30

    def test_initial_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3)])
        hdt = HDTConnectivity(g)
        assert hdt.connected(0, 1)
        assert not hdt.connected(1, 2)
        assert hdt.component_size(4) == 1

    def test_initial_invariants(self):
        g = G.gnm_random_connected_graph(24, 60, seed=2)
        hdt = HDTConnectivity(g)
        hdt.check_invariants()

    def test_spanning_forest_size(self):
        g = G.gnm_random_connected_graph(20, 50, seed=3)
        hdt = HDTConnectivity(g)
        assert len(hdt.spanning_forest_edges()) == 19


class TestSingleDeletions:
    def test_delete_nontree_keeps_connectivity(self):
        g = G.cycle_graph(6)
        hdt = HDTConnectivity(g)
        # one cycle edge is non-tree; find it
        tree = set(hdt.spanning_forest_edges())
        nontree = [e for e in g.edges if e not in tree]
        assert len(nontree) == 1
        eid = g.edges.index(nontree[0])
        changes = hdt.batch_delete([eid])
        assert changes == []
        assert hdt.connected(0, 3)

    def test_delete_tree_edge_with_replacement(self):
        g = G.cycle_graph(8)
        hdt = HDTConnectivity(g)
        tree_pairs = hdt.spanning_forest_edges()
        eid = g.edges.index(tuple(sorted(tree_pairs[0])))
        changes = hdt.batch_delete([eid])
        kinds = [c.kind for c in changes]
        assert kinds == ["cut", "link"]
        assert hdt.connected(0, 4)

    def test_delete_bridge_splits(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        hdt = HDTConnectivity(g)
        changes = hdt.batch_delete([1])  # edge (1,2)
        assert [c.kind for c in changes] == ["cut"]
        assert not hdt.connected(0, 3)
        assert hdt.component_size(0) == 2

    def test_double_delete_rejected(self):
        g = Graph(2, [(0, 1)])
        hdt = HDTConnectivity(g)
        hdt.batch_delete([0])
        with pytest.raises(ValueError):
            hdt.batch_delete([0])

    def test_delete_all_edges_one_by_one(self):
        g = G.gnm_random_connected_graph(16, 40, seed=4)
        hdt = HDTConnectivity(g)
        live = list(g.edges)
        order = list(range(g.m))
        random.Random(9).shuffle(order)
        alive = set(range(g.m))
        for eid in order:
            hdt.batch_delete([eid])
            alive.discard(eid)
            live_edges = [g.edges[e] for e in sorted(alive)]
            assert hdt_matches_oracle(hdt, g.n, live_edges)
        assert all(hdt.component_size(v) == 1 for v in range(g.n))


class TestBatchDeletions:
    def test_batch_mixed(self):
        g = G.gnm_random_connected_graph(20, 50, seed=5)
        hdt = HDTConnectivity(g)
        batch = [0, 5, 10, 15, 20]
        hdt.batch_delete(batch)
        alive = [g.edges[e] for e in range(g.m) if e not in set(batch)]
        assert hdt_matches_oracle(hdt, g.n, alive)
        hdt.check_invariants()

    def test_batch_random_rounds(self):
        rng = random.Random(6)
        g = G.gnm_random_connected_graph(30, 90, seed=6)
        hdt = HDTConnectivity(g)
        alive = set(range(g.m))
        while alive:
            k = min(len(alive), rng.randrange(1, 8))
            batch = rng.sample(sorted(alive), k)
            hdt.batch_delete(batch)
            alive -= set(batch)
            live_edges = [g.edges[e] for e in sorted(alive)]
            assert hdt_matches_oracle(hdt, g.n, live_edges)
        hdt.check_invariants()

    def test_changes_mirror_forest(self):
        # applying the emitted cut/link changes to a copy of the initial
        # forest must reproduce the final forest exactly
        g = G.gnm_random_connected_graph(25, 70, seed=7)
        hdt = HDTConnectivity(g)
        forest = set(hdt.spanning_forest_edges())
        rng = random.Random(8)
        alive = set(range(g.m))
        for _ in range(6):
            batch = rng.sample(sorted(alive), min(5, len(alive)))
            changes = hdt.batch_delete(batch)
            alive -= set(batch)
            for c in changes:
                key = (c.u, c.v) if c.u < c.v else (c.v, c.u)
                if c.kind == "cut":
                    forest.discard(key)
                else:
                    assert key not in forest
                    forest.add(key)
            assert forest == set(
                tuple(sorted(p)) for p in hdt.spanning_forest_edges()
            )

    @given(st.integers(4, 24), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_batches(self, n, seed):
        rng = random.Random(seed)
        m = min(3 * n, n * (n - 1) // 2)
        g = G.gnm_random_graph(n, m, seed=seed)
        hdt = HDTConnectivity(g)
        alive = set(range(g.m))
        for _ in range(4):
            if not alive:
                break
            batch = rng.sample(sorted(alive), min(len(alive), 1 + rng.randrange(6)))
            hdt.batch_delete(batch)
            alive -= set(batch)
            live_edges = [g.edges[e] for e in sorted(alive)]
            assert hdt_matches_oracle(hdt, g.n, live_edges)


class TestVertexDeletion:
    def test_delete_vertex_removes_all_incident(self):
        g = G.star_graph(8)
        hdt = HDTConnectivity(g)
        hdt.batch_delete(_incident(g, 0))
        for v in range(1, 8):
            assert hdt.component_size(v) == 1

    def test_delete_path_interior(self):
        g = G.path_graph(5)
        hdt = HDTConnectivity(g)
        hdt.batch_delete(_incident(g, 2))
        assert hdt.connected(0, 1)
        assert hdt.connected(3, 4)
        assert not hdt.connected(1, 3)

    def test_delete_vertex_in_dense_graph_keeps_rest_connected(self):
        g = G.complete_graph(8)
        hdt = HDTConnectivity(g)
        hdt.batch_delete(_incident(g, 3))
        for v in range(8):
            if v == 3:
                assert hdt.component_size(v) == 1
            else:
                assert hdt.component_size(v) == 7


class TestAmortizedWork:
    def test_amortized_work_per_deletion_polylog(self):
        # Lemma 6.1: O(log^2 n) expected amortized work per edge deletion.
        g = G.gnm_random_connected_graph(128, 512, seed=11)
        t = Tracker()
        hdt = HDTConnectivity(g, tracker=t)
        w0 = t.work
        rng = random.Random(12)
        order = list(range(g.m))
        rng.shuffle(order)
        for eid in order:
            hdt.batch_delete([eid])
        per_deletion = (t.work - w0) / g.m
        logn = g.n.bit_length()
        assert per_deletion <= 40 * logn * logn

    def test_batch_groups_give_parallel_span(self):
        # two far-apart components -> their searches are parallel branches
        edges = [(i, i + 1) for i in range(0, 9)] + [
            (10 + i, 11 + i) for i in range(0, 9)
        ]
        g = Graph(20, edges)
        t = Tracker()
        hdt = HDTConnectivity(g, tracker=t)
        t.reset()
        # delete one bridge in each component in one batch
        hdt.batch_delete([4, 13])
        span_batch = t.span
        t2 = Tracker()
        hdt2 = HDTConnectivity(Graph(20, edges), tracker=t2)
        t2.reset()
        hdt2.batch_delete([4])
        span_single = t2.span
        # batch of 2 independent deletions costs roughly one deletion's span
        assert span_batch <= 3 * span_single + 50


class TestBatchInsert:
    """Batch insertion lives on the flat forest (the service's resident
    connectivity); the splay HDT above only deletes."""

    def test_batch_reconnects(self):
        g = Graph(6, [])
        hdt = FlatForest(g)
        hdt.batch_insert([(0, 1), (1, 2), (3, 4)])
        assert hdt.connected(0, 2)
        assert hdt.connected(3, 4)
        assert not hdt.connected(2, 3)
        hdt.check_invariants()

    def test_batch_with_redundant_edges(self):
        g = Graph(4, [])
        hdt = FlatForest(g)
        eids = hdt.batch_insert([(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
        assert hdt.connected(0, 3)
        # exactly 3 tree edges for one 4-vertex component
        assert sum(1 for e in eids if hdt.is_tree[e]) == 3
        hdt.check_invariants()

    def test_batch_insert_then_delete_all(self):
        g = Graph(10, [])
        hdt = FlatForest(g)
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10) if (i + j) % 3]
        eids = hdt.batch_insert(pairs)
        hdt.check_invariants()
        hdt.batch_delete(eids)
        assert all(hdt.component_size(v) == 1 for v in range(10))
        hdt.check_invariants()

    def test_batch_matches_oracle(self):
        rng = random.Random(77)
        g = Graph(20, [])
        hdt = FlatForest(g)
        live = []
        for _ in range(6):
            batch = []
            seen = {hdt.endpoints[e] for e in live}
            while len(batch) < 5:
                u, v = rng.randrange(20), rng.randrange(20)
                key = (min(u, v), max(u, v))
                if u != v and key not in seen and key not in set(batch):
                    batch.append(key)
            eids = hdt.batch_insert(batch)
            live.extend(eids)
            # spot-check connectivity against the oracle
            live_pairs = [hdt.endpoints[e] for e in live]
            assert hdt_matches_oracle(hdt, 20, live_pairs)
            if live and rng.random() < 0.7:
                kill = rng.sample(live, min(3, len(live)))
                hdt.batch_delete(kill)
                live = [e for e in live if e not in set(kill)]
                live_pairs = [hdt.endpoints[e] for e in live]
                assert hdt_matches_oracle(hdt, 20, live_pairs)
        hdt.check_invariants()

    def test_batch_self_loop_rejected(self):
        hdt = FlatForest(Graph(3, []))
        with pytest.raises(ValueError):
            hdt.batch_insert([(1, 1)])

    def test_empty_batch(self):
        hdt = FlatForest(Graph(2, []))
        assert hdt.batch_insert([]) == []


class TestMisc:
    def test_edge_alive_flag(self):
        g = Graph(3, [(0, 1), (1, 2)])
        hdt = HDTConnectivity(g)
        assert hdt.alive[0]
        hdt.batch_delete([0])
        assert not hdt.alive[0]
        assert hdt.alive[1]
