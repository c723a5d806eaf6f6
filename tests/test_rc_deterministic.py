"""Tests for the Appendix C (D1) deterministic compress mode of RCForest."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures import absorb_ds
from repro.structures.rc_tree import RCForest, _bit_diff

#: the deterministic RC mirror, installed in the tracked Lemma 5.1
#: structure by rebinding ``absorb_ds.Mirror`` (the Appendix C hook)
DET_MIRROR = functools.partial(RCForest, compress_mode="deterministic")


def build(n, edges, **kw):
    f = RCForest(n, compress_mode="deterministic", **kw)
    f.batch_update([], list(edges))
    return f


def ref_path(edges, u, v):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent = {u: None}
    q = [u]
    while q:
        x = q.pop(0)
        for w in adj.get(x, []):
            if w not in parent:
                parent[w] = x
                q.append(w)
    if v not in parent:
        return None
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return list(reversed(out))


class TestBitDiff:
    def test_proper_step(self):
        # adjacent distinct colors stay distinct after one step
        rng = random.Random(1)
        for _ in range(200):
            a, b = rng.randrange(1 << 30), rng.randrange(1 << 30)
            if a == b:
                continue
            assert _bit_diff(a, b) != _bit_diff(b, a)

    def test_color_range_shrinks(self):
        # one step maps < 2^B colors into < 2B+2
        for a in (0, 1, 5, 1023, (1 << 30) - 1):
            for b in (2, 3, 7, 512):
                if a != b:
                    assert _bit_diff(a, b) <= 2 * 30 + 1


class TestDeterministicConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RCForest(4, compress_mode="bogus")

    def test_long_path_collapses_logarithmically(self):
        n = 1024
        f = build(n, [(i, i + 1) for i in range(n - 1)])
        assert len(f.roots()) == 1
        # guaranteed constant-fraction removal per level -> O(log n) levels
        assert f.levels_used() <= 8 * n.bit_length()
        f.check_invariants()

    def test_adversarial_monotone_path(self):
        # sorted ids along the path: the naive "local id max" rule removes
        # one interior vertex per level; the CV rule must stay logarithmic
        n = 512
        f = build(n, [(i, i + 1) for i in range(n - 1)])
        assert f.levels_used() <= 8 * n.bit_length()

    def test_deterministic_reproducible(self):
        edges = G.random_tree(60, seed=4).edges
        a = build(60, edges)
        b = build(60, edges)
        assert {c.cid for c in a.clusters.values()} == {
            c.cid for c in b.clusters.values()
        }
        for cid in a.clusters:
            assert a.clusters[cid].children == b.clusters[cid].children

    def test_star_and_caterpillar(self):
        for g in (G.star_graph(40), G.caterpillar_graph(20, 2)):
            f = build(g.n, g.edges)
            assert len(f.roots()) == 1
            f.check_invariants()


class TestDeterministicDynamics:
    def test_churn_keeps_invariants(self):
        rng = random.Random(7)
        n = 24
        f = RCForest(n, compress_mode="deterministic")
        edges = set()
        for step in range(100):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if f.connected(u, v):
                if edges and rng.random() < 0.6:
                    a, b = rng.choice(sorted(edges))
                    f.cut(a, b)
                    edges.discard((a, b))
            else:
                f.link(u, v)
                edges.add((min(u, v), max(u, v)))
            if step % 25 == 24:
                f.check_invariants()
        f.check_invariants()
        assert f.edge_set() == edges

    @given(st.integers(2, 14), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_ops(self, n, seed):
        rng = random.Random(seed)
        f = RCForest(n, compress_mode="deterministic")
        edges = set()
        for _ in range(25):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if f.connected(u, v):
                if edges and rng.random() < 0.5:
                    a, b = rng.choice(sorted(edges))
                    f.cut(a, b)
                    edges.discard((a, b))
            else:
                f.link(u, v)
                edges.add((min(u, v), max(u, v)))
        f.check_invariants()
        assert f.edge_set() == edges


class TestDeterministicQueries:
    def test_paths_match_oracle(self):
        rng = random.Random(9)
        for trial in range(8):
            n = rng.randrange(2, 30)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            f = build(n, edges)
            for _ in range(6):
                u, v = rng.randrange(n), rng.randrange(n)
                assert f.path(u, v) == ref_path(edges, u, v)

    def test_flag_queries(self):
        f = build(10, [(i, i + 1) for i in range(9)])
        f.set_flag(7, True)
        assert f.path_prefix_to_first_flagged(0, 7) == list(range(8))
        f.check_invariants()

    def test_absorption_with_deterministic_backend(self, monkeypatch):
        from repro.core.absorption import absorb_separator
        from repro.core.separator import build_separator
        from repro.core.verify import is_initial_segment

        g = G.gnm_random_connected_graph(60, 150, seed=11)
        t = Tracker()
        rng = random.Random(11)
        sep = build_separator(g, t, rng)
        parent = {0: None}
        depth = {0: 0}
        monkeypatch.setattr(absorb_ds, "Mirror", DET_MIRROR)
        out = absorb_separator(
            g, sep.paths, 0, 0, parent, depth, t=t, rng=rng,
            kernel_backend="tracked",
        )
        assert out.structure.mirror.compress_mode == "deterministic"
        assert is_initial_segment(g, 0, parent)

    def test_dfs_end_to_end_with_deterministic_rc(self, monkeypatch):
        from repro import parallel_dfs
        from repro.core.verify import is_valid_dfs_tree

        g = G.gnm_random_connected_graph(120, 360, seed=12)
        monkeypatch.setattr(absorb_ds, "Mirror", DET_MIRROR)
        res = parallel_dfs(g, 0, kernel_backend="tracked", verify=True)
        assert is_valid_dfs_tree(g, 0, res.parent)
