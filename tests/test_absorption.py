"""Tests for separator absorption (Theorem 3.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.absorption import absorb_separator
from repro.core.separator import build_separator
from repro.core.verify import is_initial_segment, is_separator
from repro.graph import generators as G
from repro.pram import Tracker
from repro.structures import absorb_ds
from repro.structures.rc_tree import RCForest


def run_absorption(g, root=0, root_depth=0, seed=0, kernel_backend="tracked"):
    t = Tracker()
    rng = random.Random(seed)
    sep = build_separator(g, t, rng)
    parent = {root: None}
    depth = {root: root_depth}
    out = absorb_separator(
        g, sep.paths, root, root_depth, parent, depth,
        t=t, rng=rng, kernel_backend=kernel_backend,
    )
    return sep, out, parent, depth, t


#: "lct" is the tracked engine's structure, "numpy" the numpy engine's
#: flat twin, "rc" the tracked structure with the rake-and-compress mirror
#: (the Appendix C hook: rebinding ``absorb_ds.Mirror``)
BACKENDS = ["rc", "lct", "numpy"]


@pytest.fixture
def engine(backend, monkeypatch):
    if backend == "rc":
        monkeypatch.setattr(absorb_ds, "Mirror", RCForest)
    return "numpy" if backend == "numpy" else "tracked"


@pytest.mark.parametrize("backend", BACKENDS)
class TestAbsorption:
    def test_segment_contains_separator(self, engine):
        g = G.gnm_random_connected_graph(80, 240, seed=1)
        sep, out, parent, depth, _ = run_absorption(g, kernel_backend=engine)
        assert sep.vertices <= out.absorbed_local

    def test_result_is_initial_segment(self, engine):
        for seed in range(4):
            g = G.gnm_random_connected_graph(60, 150, seed=seed)
            _, out, parent, depth, _ = run_absorption(g, seed=seed, kernel_backend=engine)
            assert is_initial_segment(g, 0, parent), f"seed={seed}"

    def test_result_is_separator(self, engine):
        g = G.gnm_random_connected_graph(100, 250, seed=3)
        _, out, parent, _, _ = run_absorption(g, kernel_backend=engine)
        assert is_separator(g, out.absorbed_local)

    def test_components_halved(self, engine):
        g = G.grid_graph(10, 10)
        _, out, parent, _, _ = run_absorption(g, kernel_backend=engine)
        remaining = set(range(g.n)) - out.absorbed_local
        # every remaining component has at most n/2 vertices
        seen = set()
        for s in remaining:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in g.adj[u]:
                    if w in remaining and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            assert len(comp) <= g.n / 2

    def test_depths_consistent_with_parents(self, engine):
        g = G.gnm_random_connected_graph(70, 200, seed=4)
        _, out, parent, depth, _ = run_absorption(g, root_depth=5, kernel_backend=engine)
        for v, p in parent.items():
            if p is None:
                assert depth[v] == 5
            else:
                assert depth[v] == depth[p] + 1, (v, p)

    def test_parent_edges_exist(self, engine):
        g = G.gnm_random_connected_graph(70, 200, seed=5)
        _, out, parent, _, _ = run_absorption(g, kernel_backend=engine)
        for v, p in parent.items():
            if p is not None:
                assert g.has_edge(v, p)

    def test_root_on_separator_path(self, engine):
        # force the root to sit on a separator path: path graph's separator
        # must contain middle vertices; root at the exact middle
        g = G.path_graph(33)
        sep, out, parent, _, _ = run_absorption(g, root=16, kernel_backend=engine)
        assert is_initial_segment(g, 16, parent)

    def test_path_graph_absorption(self, engine):
        g = G.path_graph(50)
        _, out, parent, _, _ = run_absorption(g, kernel_backend=engine)
        assert is_initial_segment(g, 0, parent)

    def test_star_graph(self, engine):
        g = G.star_graph(40)
        _, out, parent, _, _ = run_absorption(g, kernel_backend=engine)
        assert is_initial_segment(g, 0, parent)


class TestAbsorptionBounds:
    def test_iterations_near_sqrt(self):
        g = G.gnm_random_connected_graph(1024, 3072, seed=6)
        _, out, _, _, _ = run_absorption(g)
        logn = g.n.bit_length()
        # O(sqrt(n) log n) iterations
        assert out.iterations <= 10 * (g.n ** 0.5) * logn

    def test_work_near_linear(self):
        g = G.gnm_random_connected_graph(512, 2048, seed=7)
        _, _, _, _, t = run_absorption(g)
        logn = g.n.bit_length()
        # total (separator + absorption) work must be Õ(m)
        assert t.work <= 10 * g.m * logn**3

    def test_span_near_sqrt(self):
        g = G.gnm_random_connected_graph(1024, 3072, seed=8)
        _, _, _, _, t = run_absorption(g)
        logn = g.n.bit_length()
        assert t.span <= 30 * (g.n ** 0.5) * logn**3

    @given(st.integers(10, 60), st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_property_initial_segment(self, n, seed):
        g = G.gnm_random_connected_graph(
            n, min(2 * n, n * (n - 1) // 2), seed=seed
        )
        root = seed % n
        _, out, parent, _, _ = run_absorption(g, root=root, seed=seed)
        assert is_initial_segment(g, root, parent)
