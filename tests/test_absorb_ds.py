"""Tests for the combined Lemma 5.1 absorption structure.

``lct`` is the tracked engine's structure (link-cut mirror), ``numpy`` the
numpy engine's flat twin, and ``rc`` the tracked structure with the
rake-and-compress mirror, reached by rebinding ``absorb_ds.Mirror`` (the
Appendix C hook)."""

import random

import pytest

from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures import absorb_ds
from repro.structures.absorb_ds import make_absorption_structure
from repro.structures.rc_tree import RCForest

BACKENDS = ["rc", "lct", "numpy"]


def _use(backend, monkeypatch):
    """Install ``backend``'s mirror; returns a structure factory."""
    if backend == "rc":
        monkeypatch.setattr(absorb_ds, "Mirror", RCForest)
    engine = "numpy" if backend == "numpy" else "tracked"
    return lambda g, tracker=None: make_absorption_structure(
        g, tracker=tracker, kernel_backend=engine
    )


@pytest.fixture
def make(backend, monkeypatch):
    return _use(backend, monkeypatch)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSetupAndQueries:
    def test_find_cc_empty_q(self, make):
        g = G.path_graph(4)
        ds = make(g)
        assert ds.find_cc() is None

    def test_find_cc_returns_q_member(self, make):
        g = G.path_graph(5)
        ds = make(g)
        ds.set_separator([2, 3])
        q = ds.find_cc()
        assert q in {2, 3}

    def test_lowest_node_picks_deepest(self, make):
        # "lowest" = lowest in the tree = maximum depth (cf. LCA), which is
        # what keeps T' an initial segment (Observation 2.2)
        g = G.path_graph(5)
        ds = make(g)
        ds.set_separator([4])
        ds.set_tree_neighbor(0, tree_vertex=100, depth=7)
        ds.set_tree_neighbor(3, tree_vertex=101, depth=3)
        v, x, d = ds.lowest_node(4)
        assert (v, x, d) == (0, 100, 7)

    def test_lowest_node_keeps_deepest_witness(self, make):
        g = G.path_graph(3)
        ds = make(g)
        ds.set_separator([2])
        ds.set_tree_neighbor(1, 50, 9)
        ds.set_tree_neighbor(1, 51, 4)   # shallower, ignored
        ds.set_tree_neighbor(1, 52, 6)   # shallower, ignored
        v, x, d = ds.lowest_node(2)
        assert (v, x, d) == (1, 50, 9)

    def test_lowest_node_without_witness_raises(self, make):
        g = G.path_graph(3)
        ds = make(g)
        ds.set_separator([1])
        with pytest.raises(RuntimeError):
            ds.lowest_node(1)

    def test_find_path_s2p_simple(self, make):
        g = G.path_graph(6)
        ds = make(g)
        ds.set_separator([5])
        p = ds.find_path_s2p(5, 0)
        assert p == [0, 1, 2, 3, 4, 5]

    def test_find_path_s2p_stops_at_first_q(self, make):
        g = G.path_graph(6)
        ds = make(g)
        ds.set_separator([3, 5])
        p = ds.find_path_s2p(5, 0)
        assert p[-1] in (3, 5)
        assert all(x not in (3, 5) for x in p[:-1])

    def test_find_path_s2p_v_is_q(self, make):
        g = G.path_graph(4)
        ds = make(g)
        ds.set_separator([1])
        assert ds.find_path_s2p(1, 1) == [1]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchDelete:
    def test_delete_updates_neighbors(self, make):
        g = G.path_graph(5)
        ds = make(g)
        ds.set_separator([2, 4])
        # absorb vertex 2 at depth 10
        ds.batch_delete([(2, 10)])
        # neighbors 1 and 3 now see a tree neighbor at depth 10
        v, x, d = ds.lowest_node(4)
        assert v == 3 and x == 2 and d == 10
        assert 2 not in ds.q_remaining
        ds.check_invariants()

    def test_delete_splits_component(self, make):
        g = G.path_graph(5)
        ds = make(g)
        ds.set_separator([0, 4])
        ds.batch_delete([(2, 1)])
        # both sides still have separator vertices; queries work per side
        v, x, d = ds.lowest_node(0)
        assert v == 1 and x == 2
        v, x, d = ds.lowest_node(4)
        assert v == 3 and x == 2
        ds.check_invariants()

    def test_delete_with_replacement_edges(self, make):
        g = G.cycle_graph(6)
        ds = make(g)
        ds.set_separator([3])
        ds.batch_delete([(0, 5)])
        # the remaining 5 vertices stay connected (cycle minus a vertex)
        p = ds.find_path_s2p(3, 1)
        assert p[0] == 1 and p[-1] == 3
        ds.check_invariants()

    def test_double_delete_raises(self, make):
        g = G.path_graph(3)
        ds = make(g)
        ds.batch_delete([(1, 0)])
        with pytest.raises(ValueError):
            ds.batch_delete([(1, 0)])

    def test_full_absorption_drill(self, make):
        # emulate the Theorem 3.2 loop on a random graph with a fake
        # separator: repeatedly find, path, delete — must terminate with
        # all separator vertices absorbed and never crash
        rng = random.Random(7)
        g = G.gnm_random_connected_graph(40, 90, seed=7)
        ds = make(g)
        seps = rng.sample(range(1, 40), 10)
        ds.set_separator(seps)
        # vertex 0 plays the DFS root at depth 0: its neighbors see T'
        for w in g.adj[0]:
            ds.set_tree_neighbor(w, 0, 0)
        ds.batch_delete([(0, 0)])
        depth_counter = 1
        rounds = 0
        while True:
            q = ds.find_cc()
            if q is None:
                break
            rounds += 1
            assert rounds < 200, "absorption loop did not converge"
            v, x, d = ds.lowest_node(q)
            p = ds.find_path_s2p(q, v)
            assert p[0] == v
            assert p[-1] in ds.q_remaining
            assert all(y not in ds.q_remaining for y in p[:-1])
            deleted = [(y, depth_counter + i) for i, y in enumerate(p)]
            depth_counter += len(p)
            ds.batch_delete(deleted)
        assert all(s in ds.deleted for s in seps)
        ds.check_invariants()

    def test_work_bound_per_batch(self, make):
        g = G.gnm_random_connected_graph(128, 512, seed=9)
        t = Tracker()
        ds = make(g, tracker=t)
        ds.set_separator([100])
        path = [1, 2, 3, 4, 5]
        edge_count = sum(g.degree(v) for v in path)
        t.reset()
        ds.batch_delete([(v, i) for i, v in enumerate(path)])
        logn = g.n.bit_length()
        # Lemma 5.1: O(|E(p)| log^3 n) amortized
        assert t.work <= 80 * edge_count * logn**3


class TestBackendsAgree:
    def test_cross_validation_random(self):
        rng = random.Random(11)
        g = G.gnm_random_connected_graph(30, 70, seed=11)
        seps = rng.sample(range(1, 30), 8)
        results = {}
        for backend in BACKENDS:
            with pytest.MonkeyPatch.context() as mp:
                ds = _use(backend, mp)(g)
            ds.set_separator(seps)
            for w in g.adj[0]:
                ds.set_tree_neighbor(w, 0, 0)
            ds.batch_delete([(0, 0)])
            absorbed = []
            depth = 1
            while (q := ds.find_cc()) is not None:
                v, x, d = ds.lowest_node(q)
                p = ds.find_path_s2p(q, v)
                ds.batch_delete([(y, depth + i) for i, y in enumerate(p)])
                depth += len(p)
                absorbed.extend(p)
            results[backend] = absorbed
            assert set(seps) <= set(ds.deleted)
        # every mirror absorbs a superset of the separator; paths may
        # differ between mirrors but not between the two engines
        for backend in BACKENDS:
            assert set(seps) <= set(results[backend])
        assert results["lct"] == results["numpy"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSeparatorFlagMaintenance:
    def test_unset_separator(self, make):
        g = G.path_graph(6)
        ds = make(g)
        ds.set_separator([2, 4])
        ds.unset_separator([2])
        assert ds.q_remaining == {4}
        p = ds.find_path_s2p(4, 0)
        assert p[-1] == 4  # 2 is no longer a valid target

    def test_unset_all_means_success(self, make):
        g = G.path_graph(4)
        ds = make(g)
        ds.set_separator([1, 2])
        ds.unset_separator([1, 2])
        assert ds.find_cc() is None

    def test_set_separator_on_absorbed_raises(self, make):
        g = G.path_graph(4)
        ds = make(g)
        ds.batch_delete([(1, 0)])
        with pytest.raises(ValueError):
            ds.set_separator([1])
