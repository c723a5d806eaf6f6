"""Tests for the Euler tour forest."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.euler_tour import EulerTourForest


class ReferenceForest:
    """Trivially correct union-of-edges forest for cross-validation."""

    def __init__(self, n):
        self.n = n
        self.edges = set()

    def adj(self):
        a = [[] for _ in range(self.n)]
        for u, v in self.edges:
            a[u].append(v)
            a[v].append(u)
        return a

    def component(self, v):
        a = self.adj()
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for w in a[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def link(self, u, v):
        self.edges.add((u, v))

    def cut(self, u, v):
        self.edges.discard((u, v))
        self.edges.discard((v, u))


def _val1_sum(f, v):
    """Sum of val1 over v's tree, read through ``component_collect``."""
    return sum(f.vertex_val1(x) for x in f.component_collect(v)[2])


class TestBasicOps:
    def test_initial_singletons(self):
        f = EulerTourForest(4)
        assert not f.connected(0, 1)
        assert f.connected(2, 2)
        assert f.component_size(3) == 1

    def test_link_connects(self):
        f = EulerTourForest(3)
        f.link(0, 1)
        assert f.connected(0, 1)
        assert not f.connected(0, 2)
        assert f.component_size(0) == 2

    def test_cut_disconnects(self):
        f = EulerTourForest(3)
        f.link(0, 1)
        f.link(1, 2)
        f.cut(0, 1)
        assert not f.connected(0, 1)
        assert f.connected(1, 2)
        assert f.component_size(0) == 1
        assert f.component_size(2) == 2

    def test_cut_either_orientation(self):
        f = EulerTourForest(2)
        f.link(0, 1)
        f.cut(1, 0)
        assert not f.connected(0, 1)

    def test_link_cycle_rejected(self):
        f = EulerTourForest(3)
        f.link(0, 1)
        f.link(1, 2)
        with pytest.raises(ValueError):
            f.link(0, 2)

    def test_link_self_loop_rejected(self):
        with pytest.raises(ValueError):
            EulerTourForest(2).link(1, 1)

    def test_cut_missing_edge_rejected(self):
        f = EulerTourForest(3)
        f.link(0, 1)
        with pytest.raises(ValueError):
            f.cut(1, 2)

    def test_duplicate_link_rejected(self):
        f = EulerTourForest(2)
        f.link(0, 1)
        with pytest.raises(ValueError):
            f.link(0, 1)

    def test_component_vertices(self):
        f = EulerTourForest(5)
        f.link(0, 1)
        f.link(1, 2)
        assert sorted(f.component_vertices(2)) == [0, 1, 2]
        assert f.component_vertices(4) == [4]

    def test_has_edge(self):
        f = EulerTourForest(3)
        f.link(0, 2)
        assert f.has_edge(0, 2)
        assert not f.has_edge(2, 1)


class TestAggregates:
    def test_val1_component_sum(self):
        f = EulerTourForest(4)
        f.link(0, 1)
        f.link(2, 3)
        f.add_vertex_val1(0, 5)
        f.add_vertex_val1(1, 2)
        f.add_vertex_val1(2, 9)
        assert _val1_sum(f, 1) == 7
        assert _val1_sum(f, 3) == 9

    def test_val1_survives_restructuring(self):
        f = EulerTourForest(5)
        for v in range(5):
            f.add_vertex_val1(v, v)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            f.link(a, b)
        assert _val1_sum(f, 0) == 10
        f.cut(1, 2)
        assert _val1_sum(f, 0) == 1
        assert _val1_sum(f, 4) == 9

    def test_find_vertex_with_val1(self):
        f = EulerTourForest(6)
        for a, b in [(0, 1), (1, 2), (3, 4)]:
            f.link(a, b)
        f.add_vertex_val1(2, 1)
        assert f.component_collect(0)[2] == [2]
        assert f.component_collect(3)[2] == []
        f.add_vertex_val1(2, -1)
        assert f.component_collect(0)[2] == []

    def test_negative_val1_rejected(self):
        f = EulerTourForest(2)
        with pytest.raises(ValueError):
            f.add_vertex_val1(0, -1)

    def test_arc_val2_tagging(self):
        f = EulerTourForest(4)
        f.link(0, 1)
        f.link(1, 2)
        f.set_arc_val2(0, 1, 1)
        assert f.component_collect(2)[1] == [(0, 1)]
        f.set_arc_val2(0, 1, 0)
        assert f.component_collect(2)[1] == []

    def test_arc_val2_missing_edge(self):
        f = EulerTourForest(3)
        with pytest.raises(ValueError):
            f.set_arc_val2(0, 1, 1)


class TestRandomizedCrossValidation:
    def run_ops(self, n, steps, seed):
        rng = random.Random(seed)
        f = EulerTourForest(n)
        ref = ReferenceForest(n)
        links = set()
        for _ in range(steps):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            if f.connected(u, v):
                # either verify connectivity or cut a random existing edge
                assert ref.component(u) >= {v}
                if links and rng.random() < 0.6:
                    a, b = rng.choice(sorted(links))
                    f.cut(a, b)
                    ref.cut(a, b)
                    links.discard((a, b))
            else:
                assert v not in ref.component(u)
                f.link(u, v)
                ref.link(u, v)
                links.add((u, v))
            # spot-check sizes
            w = rng.randrange(n)
            assert f.component_size(w) == len(ref.component(w))
        f.check_invariants()

    def test_small_random(self):
        self.run_ops(8, 60, seed=1)

    def test_medium_random(self):
        self.run_ops(24, 150, seed=2)

    def test_larger_random(self):
        self.run_ops(64, 250, seed=3)

    @given(st.integers(2, 16), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_random_ops(self, n, seed):
        self.run_ops(n, 40, seed=seed)


class TestTourStructure:
    def test_tour_sequence_contents(self):
        f = EulerTourForest(3)
        f.link(0, 1)
        f.link(1, 2)
        seq = f.tour_sequence(0)
        vertices = [x for x in seq if isinstance(x, int)]
        arcs = [x for x in seq if isinstance(x, tuple)]
        assert sorted(vertices) == [0, 1, 2]
        assert len(arcs) == 4  # two per tree edge


class TestKeyAggregate:
    def test_set_and_read_vertex_key(self):
        f = EulerTourForest(4)
        assert f.vertex_key(0) is None
        f.set_vertex_key(0, 7)
        assert f.vertex_key(0) == 7
        f.set_vertex_key(0, None)
        assert f.vertex_key(0) is None

    def test_component_min_key(self):
        f = EulerTourForest(5)
        f.link(0, 1)
        f.link(1, 2)
        f.set_vertex_key(0, 9)
        f.set_vertex_key(2, 4)
        assert f.component_min_key(1) == (4, 2)
        assert f.component_min_key(3) is None

    def test_min_key_tracks_cuts(self):
        f = EulerTourForest(4)
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            f.link(a, b)
        f.set_vertex_key(0, 1)
        f.set_vertex_key(3, 2)
        assert f.component_min_key(2) == (1, 0)
        f.cut(1, 2)
        assert f.component_min_key(2) == (2, 3)
        assert f.component_min_key(0) == (1, 0)

    def test_set_vertex_val1_overwrites(self):
        f = EulerTourForest(3)
        f.set_vertex_val1(1, 5)
        assert f.vertex_val1(1) == 5
        f.set_vertex_val1(1, 2)
        assert _val1_sum(f, 1) == 2
