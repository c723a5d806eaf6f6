"""Tests for the tournament tree (Lemma B.1) and the active-neighbor
structure (Lemma 4.5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures.adjacency_query import ActiveNeighborStructure
from repro.structures.tournament import TournamentTree


class TestTournamentBasics:
    def test_initial_all_active(self):
        tt = TournamentTree(list("abcde"))
        assert tt.n_active == 5
        assert sorted(tt.active_elements()) == list("abcde")

    def test_empty(self):
        tt = TournamentTree([])
        assert tt.n_active == 0
        assert tt.query(3) == []

    def test_make_inactive(self):
        tt = TournamentTree([10, 20, 30, 40])
        tt.make_inactive([1, 3])
        assert tt.n_active == 2
        assert sorted(tt.active_elements()) == [10, 30]
        assert not tt.is_active(1)
        assert tt.is_active(0)

    def test_make_inactive_idempotent(self):
        tt = TournamentTree([1, 2, 3])
        tt.make_inactive([0])
        tt.make_inactive([0])  # no-op, still counted correctly
        assert tt.n_active == 2

    def test_make_active_restores(self):
        tt = TournamentTree([1, 2, 3])
        tt.make_inactive([0, 1, 2])
        assert tt.n_active == 0
        tt.make_active([1])
        assert tt.active_elements() == [2]

    def test_out_of_range(self):
        tt = TournamentTree([1, 2])
        with pytest.raises(IndexError):
            tt.make_inactive([5])

    def test_query_returns_distinct_actives(self):
        tt = TournamentTree(list(range(100)))
        tt.make_inactive(list(range(0, 100, 2)))
        got = tt.query(10)
        assert len(got) == 10
        assert len(set(got)) == 10
        assert all(x % 2 == 1 for x in got)

    def test_query_clamps_to_active_count(self):
        tt = TournamentTree([1, 2, 3])
        tt.make_inactive([2])
        assert sorted(tt.query(99)) == [1, 2]

    def test_query_zero(self):
        tt = TournamentTree([1, 2, 3])
        assert tt.query(0) == []

    def test_query_negative_raises(self):
        with pytest.raises(ValueError):
            TournamentTree([1]).query(-1)

    @given(
        st.integers(1, 120),
        st.lists(st.integers(0, 119), max_size=60),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_query_consistent(self, n, kills, t_count):
        kills = [k for k in kills if k < n]
        tt = TournamentTree(list(range(n)))
        dead = set()
        for k in kills:
            if k not in dead:
                tt.make_inactive([k])
                dead.add(k)
        expected_active = set(range(n)) - dead
        assert tt.n_active == len(expected_active)
        got = tt.query(t_count)
        assert len(got) == min(t_count, len(expected_active))
        assert len(set(got)) == len(got)
        assert set(got) <= expected_active


class TestTournamentCostBounds:
    def test_query_work_bound(self):
        n = 1024
        tt = TournamentTree(list(range(n)), tracker=Tracker())
        t0 = tt.tracker.work
        tt.query(8)
        # O(t log N): 8 * 10 with a small constant
        assert tt.tracker.work - t0 <= 12 * 8 * (n.bit_length() + 2)

    def test_make_inactive_work_bound(self):
        n = 1024
        tt = TournamentTree(list(range(n)), tracker=Tracker())
        t0 = tt.tracker.work
        tt.make_inactive(list(range(16)))
        assert tt.tracker.work - t0 <= 12 * 16 * (n.bit_length() + 2)

    def test_span_logarithmic(self):
        n = 2048
        tt = TournamentTree(list(range(n)), tracker=Tracker())
        tt.tracker.reset()
        tt.make_inactive(list(range(0, n, 7)))
        span_mi = tt.tracker.span
        tt.tracker.reset()
        tt.query(64)
        span_q = tt.tracker.span
        logn = n.bit_length()
        assert span_mi <= 8 * logn * logn
        assert span_q <= 8 * logn * logn


class TestActiveNeighborStructure:
    def test_initial_queries(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        ans = ActiveNeighborStructure(g)
        [nbrs] = ans.query([0], 10)
        assert sorted(nbrs) == [1, 2, 3]

    def test_make_inactive_removes_from_all_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        ans = ActiveNeighborStructure(g)
        ans.make_inactive([2])
        [n0, n1] = ans.query([0, 1], 10)
        assert sorted(n0) == [1, 3]
        assert sorted(n1) == [0]
        assert not ans.is_active(2)

    def test_double_deactivate_raises(self):
        g = Graph(2, [(0, 1)])
        ans = ActiveNeighborStructure(g)
        ans.make_inactive([0])
        with pytest.raises(ValueError):
            ans.make_inactive([0])

    def test_query_truncates(self):
        g = G.star_graph(20)
        ans = ActiveNeighborStructure(g)
        [nbrs] = ans.query([0], 5)
        assert len(nbrs) == 5
        assert len(set(nbrs)) == 5

    def test_random_cross_validation(self):
        rng = random.Random(17)
        g = G.gnm_random_graph(30, 80, seed=3)
        ans = ActiveNeighborStructure(g)
        alive = set(range(30))
        for _ in range(25):
            victims = [v for v in rng.sample(sorted(alive), min(2, len(alive)))]
            if not victims or len(alive) <= 2:
                break
            ans.make_inactive(victims)
            alive -= set(victims)
            probe = rng.sample(sorted(alive), min(4, len(alive)))
            results = ans.query(probe, 100)
            for v, nbrs in zip(probe, results):
                want = {w for w in g.adj[v] if w in alive}
                assert set(nbrs) == want, f"vertex {v}"

    def test_work_bound_query(self):
        g = G.gnm_random_connected_graph(256, 1024, seed=5)
        tr = Tracker()
        ans = ActiveNeighborStructure(g, tracker=tr)
        tr.reset()
        ans.query(list(range(32)), 4)
        logn = g.n.bit_length()
        assert tr.work <= 20 * 32 * 4 * logn
        assert tr.span <= 10 * logn * logn


class TestNaiveStructure:
    def test_naive_matches_tournament_queries(self):
        from repro.structures.naive_active import NaiveActiveNeighborStructure

        g = G.gnm_random_graph(20, 50, seed=8)
        a = ActiveNeighborStructure(g)
        b = NaiveActiveNeighborStructure(g)
        victims = [1, 5, 9]
        a.make_inactive(victims)
        b.make_inactive(victims)
        for v in (0, 2, 3, 7):
            want = set(a.query([v], 100)[0])
            got = set(b.query([v], 100)[0])
            assert want == got

    def test_naive_rebuild_charges_full_scan(self):
        from repro.structures.naive_active import NaiveActiveNeighborStructure

        g = G.gnm_random_connected_graph(100, 300, seed=9)
        tr = Tracker()
        s = NaiveActiveNeighborStructure(g, tracker=tr)
        tr.reset()
        s.rebuild()
        assert tr.work >= 2 * g.m  # reads every adjacency entry

    def test_naive_double_deactivate_raises(self):
        from repro.structures.naive_active import NaiveActiveNeighborStructure

        g = G.path_graph(3)
        s = NaiveActiveNeighborStructure(g)
        s.make_inactive([1])
        with pytest.raises(ValueError):
            s.make_inactive([1])
