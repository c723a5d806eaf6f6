"""Tests for the link-cut forest backend."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.traversal import tree_path
from repro.structures.link_cut import LinkCutForest


class TestBasics:
    def test_initial_disconnected(self):
        f = LinkCutForest(3)
        assert not f.connected(0, 1)
        assert f.connected(2, 2)

    def test_link_cut_roundtrip(self):
        f = LinkCutForest(4)
        f.link(0, 1)
        f.link(1, 2)
        f.link(2, 3)
        assert f.connected(0, 3)
        f.cut(1, 2)
        assert not f.connected(0, 3)
        assert f.connected(0, 1)
        assert f.connected(2, 3)

    def test_link_rejects_cycle(self):
        f = LinkCutForest(3)
        f.link(0, 1)
        f.link(1, 2)
        with pytest.raises(ValueError):
            f.link(2, 0)

    def test_link_rejects_duplicate(self):
        f = LinkCutForest(2)
        f.link(0, 1)
        with pytest.raises(ValueError):
            f.link(1, 0)

    def test_cut_rejects_missing(self):
        f = LinkCutForest(3)
        with pytest.raises(ValueError):
            f.cut(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            LinkCutForest(2).link(0, 0)

    def test_has_edge(self):
        f = LinkCutForest(3)
        f.link(2, 1)
        assert f.has_edge(1, 2) and f.has_edge(2, 1)
        assert not f.has_edge(0, 1)


class TestPaths:
    def build_tree(self, edges, n=None):
        n = n if n is not None else max(max(e) for e in edges) + 1
        f = LinkCutForest(n)
        for u, v in edges:
            f.link(u, v)
        return f

    def test_path_on_path_graph(self):
        f = self.build_tree([(0, 1), (1, 2), (2, 3)])
        assert f.path(0, 3) == [0, 1, 2, 3]
        assert f.path(3, 0) == [3, 2, 1, 0]
        assert f.path(1, 1) == [1]

    def test_path_in_star(self):
        f = self.build_tree([(0, i) for i in range(1, 5)])
        assert f.path(1, 2) == [1, 0, 2]

    def test_path_disconnected_raises(self):
        f = LinkCutForest(4)
        f.link(0, 1)
        with pytest.raises(ValueError):
            f.path(0, 3)

    def test_random_trees_match_oracle(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randrange(2, 40)
            # random tree
            parent = [None] * n
            edges = []
            for v in range(1, n):
                p = rng.randrange(v)
                parent[v] = p
                edges.append((p, v))
            f = self.build_tree(edges, n=n)
            for _ in range(10):
                u, v = rng.randrange(n), rng.randrange(n)
                assert f.path(u, v) == tree_path(parent, u, v)


class TestFlags:
    def test_first_flagged_nearest_to_u(self):
        f = LinkCutForest(6)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            f.link(a, b)
        f.set_flag(2, True)
        f.set_flag(4, True)
        assert f.first_flagged_on_path(0, 5) == 2
        assert f.first_flagged_on_path(5, 0) == 4
        assert f.first_flagged_on_path(3, 3) is None
        f.set_flag(3, True)
        assert f.first_flagged_on_path(3, 3) == 3

    def test_first_flagged_endpoint_u(self):
        f = LinkCutForest(3)
        f.link(0, 1)
        f.link(1, 2)
        f.set_flag(0, True)
        assert f.first_flagged_on_path(0, 2) == 0

    def test_no_flags(self):
        f = LinkCutForest(3)
        f.link(0, 1)
        assert f.first_flagged_on_path(0, 1) is None

    def test_prefix_extraction(self):
        f = LinkCutForest(6)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            f.link(a, b)
        f.set_flag(3, True)
        assert f.path_prefix_to_first_flagged(0, 5) == [0, 1, 2, 3]
        assert f.path_prefix_to_first_flagged(5, 0) == [5, 4, 3]
        f.set_flag(3, False)
        assert f.path_prefix_to_first_flagged(0, 5) is None

    def test_flags_survive_restructuring(self):
        rng = random.Random(7)
        f = LinkCutForest(10)
        chain = [(i, i + 1) for i in range(9)]
        for a, b in chain:
            f.link(a, b)
        f.set_flag(5, True)
        # churn the structure
        f.cut(4, 5)
        f.link(4, 5)
        f.cut(7, 8)
        f.link(7, 8)
        assert f.first_flagged_on_path(0, 9) == 5
        assert f.get_flag(5)


class TestRandomizedCrossValidation:
    @given(st.integers(2, 20), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_ops_match_reference(self, n, seed):
        rng = random.Random(seed)
        f = LinkCutForest(n)
        edges: set[tuple[int, int]] = set()

        def ref_component(v):
            seen = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for a, b in edges:
                    w = None
                    if a == x:
                        w = b
                    elif b == x:
                        w = a
                    if w is not None and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if f.connected(u, v):
                assert v in ref_component(u)
                if edges and rng.random() < 0.5:
                    a, b = rng.choice(sorted(edges))
                    f.cut(a, b)
                    edges.discard((a, b))
            else:
                assert v not in ref_component(u)
                f.link(u, v)
                edges.add((min(u, v), max(u, v)))
