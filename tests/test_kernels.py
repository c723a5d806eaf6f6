"""Parity tests: every numpy kernel against its tracked Python reference.

The numpy backend is an execution engine, not a new algorithm — each
kernel must return exactly what the tracked implementation returns
(labels, ranks, and matchings, whose priorities are drawn in rng
lockstep), and each result must pass the problem's own oracle. These
tests run
random lists/graphs plus the degenerate shapes (empty, singleton,
all-isolated-vertex) through both backends, and check the dispatch layer
resolves backends in the documented priority order.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfs import _induced
from repro.graph import Graph
from repro.graph import generators as G
from repro.graph.connectivity import (
    component_sizes,
    connected_components,
    largest_component_size,
    spanning_forest,
)
from repro.kernels import listrank
from repro.kernels.dispatch import resolve_backend
from repro.kernels import rng as rng_mod
from repro.kernels.rng import LockstepUniform, randomstate_view, sync_python_rng
from repro.kernels.subgraph import induced_subgraph_np
from repro.listrank.ranking import (
    prefix_sums_on_lists,
    sequential_prefix_sums,
)
from repro.matching.luby import is_maximal_matching, maximal_matching
from repro.pram import Tracker


# ----------------------------------------------------------------------
# dispatch layer
# ----------------------------------------------------------------------

class TestDispatch:
    def test_default_is_tracked(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert resolve_backend(None) == "tracked"

    def test_explicit_wins(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("tracked") == "tracked"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert resolve_backend(None) == "numpy"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_backend("cuda")
        # the removed multiprocess engine: every entry point that used to
        # accept "parallel" now fails with the registered names
        from repro import parallel_dfs
        from repro.service import DFSService, ServiceConfig

        msg = r"unknown kernel backend 'parallel'.*registered backends: tracked, numpy$"
        g = G.gnm_random_connected_graph(20, 40, seed=1)
        with pytest.raises(ValueError, match=msg):
            parallel_dfs(g, 0, kernel_backend="parallel")
        with pytest.raises(ValueError, match=msg):
            DFSService(ServiceConfig(kernel_backend="parallel"))
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "parallel")
        with pytest.raises(ValueError, match=msg):
            parallel_dfs(g, 0)

    def test_unknown_backend_error_names_source(self, monkeypatch):
        with pytest.raises(ValueError, match="backend argument"):
            resolve_backend("cuda")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            resolve_backend(None)

    def test_entry_points_pick_requested_backend(self):
        # the numpy contraction returns identical labels but charges
        # different (aggregate) costs — distinguish the backends by cost
        g = G.gnm_random_graph(64, 80, seed=2)
        t_tracked, t_numpy = Tracker(), Tracker()
        a = connected_components(g, t_tracked, backend="tracked")
        b = connected_components(g, t_numpy, backend="numpy")
        assert a == b
        assert t_tracked.work != t_numpy.work  # different engines ran


# ----------------------------------------------------------------------
# list ranking
# ----------------------------------------------------------------------

def random_lists(rng, n_vertices, n_lists):
    """Random disjoint lists over shuffled vertex ids."""
    ids = list(range(0, 3 * n_vertices, 3))  # non-contiguous ids
    rng.shuffle(ids)
    prev_of = {}
    values = {}
    cut = sorted(rng.sample(range(1, n_vertices), min(n_lists - 1, n_vertices - 1))) if n_lists > 1 and n_vertices > 1 else []
    bounds = [0] + cut + [n_vertices]
    vertices = []
    for a, b in zip(bounds, bounds[1:]):
        prev = None
        for i in range(a, b):
            v = ids[i]
            vertices.append(v)
            prev_of[v] = prev
            values[v] = rng.randrange(-5, 10)
            prev = v
    return vertices, prev_of, values


class TestListRankParity:
    @given(
        st.integers(0, 120),
        st.integers(1, 8),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_oracle(self, n, k, seed):
        rng = random.Random(seed)
        vertices, prev_of, values = random_lists(rng, n, k)
        want = sequential_prefix_sums(vertices, prev_of, values.get)
        got = prefix_sums_on_lists(
            Tracker(), vertices, prev_of, values.get, backend="numpy"
        )
        assert got == want

    def test_matches_tracked_backends(self):
        rng = random.Random(11)
        vertices, prev_of, values = random_lists(rng, 200, 5)
        t = Tracker()
        tracked = prefix_sums_on_lists(
            t, vertices, prev_of, values.get, backend="tracked"
        )
        fast = prefix_sums_on_lists(
            t, vertices, prev_of, values.get, backend="numpy"
        )
        assert tracked == fast

    def test_suffix_of_list(self):
        # predecessors outside the vertex set are list boundaries
        prev_of = {2: 1, 3: 2, 4: 3}
        got = prefix_sums_on_lists(
            Tracker(), [2, 3, 4], prev_of, lambda v: v, backend="numpy"
        )
        assert got == {2: 2, 3: 5, 4: 9}

    def test_empty_and_singleton(self):
        assert prefix_sums_on_lists(
            Tracker(), [], {}, lambda v: 1, backend="numpy"
        ) == {}
        assert prefix_sums_on_lists(
            Tracker(), [9], {9: None}, lambda v: 4, backend="numpy"
        ) == {9: 4}

    def test_wyllie_ranks_rejects_bad_prev(self):
        with pytest.raises(ValueError):
            listrank.wyllie_ranks(np.array([5]), np.array([1]))
        with pytest.raises(ValueError):
            listrank.wyllie_ranks(np.array([-2]), np.array([1]))
        with pytest.raises(ValueError):
            listrank.wyllie_ranks(np.array([0, 1]), np.array([1]))


# ----------------------------------------------------------------------
# maximal matching
# ----------------------------------------------------------------------

class TestMatchingParity:
    @given(st.integers(2, 60), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_maximal_on_random_graphs(self, n, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        chosen = maximal_matching(
            Tracker(), g.n, g.edges, rng, backend="numpy"
        )
        assert is_maximal_matching(g.n, g.edges, chosen)

    def test_empty_edges_and_isolated_vertices(self):
        assert maximal_matching(Tracker(), 0, [], backend="numpy") == []
        assert maximal_matching(Tracker(), 50, [], backend="numpy") == []

    def test_single_edge(self):
        assert maximal_matching(
            Tracker(), 2, [(0, 1)], backend="numpy"
        ) == [0]

    def test_deterministic_given_rng(self):
        g = G.gnm_random_connected_graph(40, 100, seed=9)
        a = maximal_matching(
            Tracker(), g.n, g.edges, random.Random(3), backend="numpy"
        )
        b = maximal_matching(
            Tracker(), g.n, g.edges, random.Random(3), backend="numpy"
        )
        assert a == b


# ----------------------------------------------------------------------
# CSR cache on Graph
# ----------------------------------------------------------------------

class TestCSRCache:
    def test_cached_until_mutation(self):
        g = Graph(4, [(0, 1), (1, 2)])
        c1 = g.csr()
        assert g.csr() is c1
        g._add_edge(2, 3, False)  # simulate a mutating subclass
        c2 = g.csr()
        assert c2 is not c1
        assert c2.m == 3
        assert sorted(c2.neighbors(2).tolist()) == [1, 3]

    def test_view_matches_adjacency(self):
        g = G.gnm_random_connected_graph(60, 140, seed=8)
        c = g.csr()
        for v in range(g.n):
            assert sorted(c.neighbors(v).tolist()) == sorted(g.adj[v])


# ----------------------------------------------------------------------
# rng lockstep bridge (random.Random <-> numpy RandomState)
# ----------------------------------------------------------------------

class TestRngBridge:
    def test_view_reproduces_python_stream(self):
        rng = random.Random(1234)
        probe = random.Random(1234)
        want = [probe.random() for _ in range(1000)]
        got = randomstate_view(rng).random_sample(1000).tolist()
        assert got == want

    def test_sync_back_continues_the_stream(self):
        rng = random.Random(77)
        probe = random.Random(77)
        _ = [probe.random() for _ in range(123)]
        rs = randomstate_view(rng)
        rs.random_sample(123)
        sync_python_rng(rng, rs)
        assert rng.getstate() == probe.getstate()
        assert [rng.random() for _ in range(10)] == [
            probe.random() for _ in range(10)
        ]

    def test_lockstep_uniform_noop_without_draws(self):
        rng = random.Random(5)
        state = rng.getstate()
        with LockstepUniform(rng):
            pass
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "sizes",
        [
            [30],  # below the crossover: drawn straight from rng
            [rng_mod._SMALL - 1],
            [rng_mod._SMALL],  # at the crossover: through the view
            [2 * rng_mod._SMALL + 5],
            # one call mixing both paths; small draws after the view
            # opened must come from the view
            [0, 3, rng_mod._SMALL - 1, 7, rng_mod._SMALL, 1, 40, 0, 9000, 2],
        ],
    )
    def test_lockstep_uniform_stream_identity(self, sizes):
        rng = random.Random(2024)
        probe = random.Random(2024)
        with LockstepUniform(rng) as uni:
            for k in sizes:
                got = uni.draw(k)
                assert got.dtype == np.float64 and got.shape == (k,)
                assert got.tolist() == [probe.random() for _ in range(k)]
        assert rng.random() == probe.random()
        assert rng.getstate() == probe.getstate()

    def test_lockstep_uniform_small_batches_skip_the_view(self, monkeypatch):
        def no_view(_rng):
            raise AssertionError("state round trip below the crossover")

        monkeypatch.setattr(rng_mod, "randomstate_view", no_view)
        rng, probe = random.Random(9), random.Random(9)
        with LockstepUniform(rng) as uni:
            for k in (1, 30, rng_mod._SMALL - 1):
                assert uni.draw(k).tolist() == [probe.random() for _ in range(k)]
        assert rng.random() == probe.random()

    def test_lockstep_matching_preserves_stream(self):
        g = G.gnm_random_connected_graph(60, 150, seed=2)
        r1, r2 = random.Random(42), random.Random(42)
        a = maximal_matching(Tracker(), g.n, g.edges, r1, backend="tracked")
        b = maximal_matching(Tracker(), g.n, g.edges, r2, backend="numpy")
        assert a == b
        assert r1.getstate() == r2.getstate()

    @given(st.integers(2, 80), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_matching_random_graphs(self, n, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        r1, r2 = random.Random(seed ^ 0xBEEF), random.Random(seed ^ 0xBEEF)
        a = maximal_matching(Tracker(), g.n, g.edges, r1, backend="tracked")
        b = maximal_matching(Tracker(), g.n, g.edges, r2, backend="numpy")
        assert a == b and r1.getstate() == r2.getstate()

    @given(st.integers(2, 80), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_matching_with_tied_priorities(self, n, seed):
        # priorities on a coarse grid: edges tie at a vertex's minimum
        # priority and eid must decide, as on the tracked backend
        class Coarse(random.Random):
            def random(self):
                return int(super().random() * 4) / 4

        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        r1, r2 = Coarse(seed), Coarse(seed)
        a = maximal_matching(Tracker(), g.n, g.edges, r1, backend="tracked")
        b = maximal_matching(Tracker(), g.n, g.edges, r2, backend="numpy")
        assert a == b and r1.getstate() == r2.getstate()

    @given(st.integers(0, 250), st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_anderson_miller_ranks_and_stream(self, n, k, seed):
        rng = random.Random(seed)
        vertices, prev_of, values = random_lists(rng, n, k)
        r1, r2 = random.Random(seed ^ 0xA5), random.Random(seed ^ 0xA5)
        a = prefix_sums_on_lists(
            Tracker(), vertices, prev_of, values.get,
            rng=r1, backend="tracked",
        )
        b = prefix_sums_on_lists(
            Tracker(), vertices, prev_of, values.get,
            rng=r2, backend="numpy",
        )
        assert a == b
        assert r1.getstate() == r2.getstate()


# ----------------------------------------------------------------------
# connected components / spanning forest parity
# ----------------------------------------------------------------------

def edge_case_graphs():
    return [
        Graph(0),
        Graph(1),
        Graph(7),  # all isolated
        Graph(2, [(0, 1)]),
        Graph(6, [(0, 1), (1, 2), (3, 4)]),  # forest + isolated vertex
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # cycle
        Graph(4, [(0, 1), (0, 2), (0, 3)]),  # star
    ]


class TestComponentsParity:
    @pytest.mark.parametrize("g", edge_case_graphs())
    def test_edge_cases(self, g):
        assert connected_components(g, Tracker()) == connected_components(
            g, Tracker(), backend="numpy"
        )
        la, fa = spanning_forest(g, Tracker())
        lb, fb = spanning_forest(g, Tracker(), backend="numpy")
        assert la == lb and fa == fb

    @given(st.integers(2, 90), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_labels_and_forest_identical_on_random_graphs(self, n, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        assert connected_components(g, Tracker()) == connected_components(
            g, Tracker(), backend="numpy"
        )
        la, fa = spanning_forest(g, Tracker())
        lb, fb = spanning_forest(g, Tracker(), backend="numpy")
        assert la == lb
        assert fa == fb  # same edge ids in the same recording order

    @given(st.integers(2, 90), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_forest_is_valid_spanning_forest(self, n, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        labels, forest = spanning_forest(g, Tracker(), backend="numpy")
        comps = {tuple(sorted(c)) for c in g.connected_components_seq()}
        # acyclic: |forest| == n - #components; spanning: the forest edges
        # alone reproduce the component structure
        assert len(forest) == g.n - len(comps)
        h = Graph(g.n, [g.edges[eid] for eid in forest])
        assert {tuple(sorted(c)) for c in h.connected_components_seq()} == comps
        # labels are the component minima
        for comp in comps:
            assert all(labels[v] == comp[0] for v in comp)

    def test_component_sizes_parity_and_largest(self):
        g = G.gnm_random_graph(80, 70, seed=13)
        labels = connected_components(g, Tracker())
        assert component_sizes(labels, Tracker()) == component_sizes(
            labels, Tracker(), backend="numpy"
        )
        assert largest_component_size(g, Tracker()) == largest_component_size(
            g, Tracker(), backend="numpy"
        )
        assert component_sizes([], Tracker(), backend="numpy") == {}

    def test_component_sizes_charges_combine_work(self):
        t = Tracker()
        component_sizes([0, 0, 1, 1, 1], t)
        # per-element counting plus the combining tree must both cost work
        assert t.work >= 2 * 5


# ----------------------------------------------------------------------
# induced subgraph extraction parity
# ----------------------------------------------------------------------

def graphs_equal(a, b):
    return (
        a.n == b.n
        and a.edges == b.edges
        and a.adj == b.adj
        and a.adj_eids == b.adj_eids
    )


class TestSubgraphParity:
    @given(st.integers(1, 70), st.integers(0, 2**31), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_subgraph_identical_including_adjacency(self, n, seed, shuffle):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        vs = rng.sample(range(n), rng.randrange(1, n + 1))
        if not shuffle:
            vs = sorted(vs)
        s1, m1 = _induced(g, vs, Tracker())
        s2, m2 = induced_subgraph_np(g, vs)
        assert graphs_equal(s1, s2) and m1 == m2

    @given(st.integers(1, 70), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_driver_induced_identical(self, n, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        g = G.gnm_random_graph(n, m, seed=seed)
        vs = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        t1, t2 = Tracker(), Tracker()
        s1, m1 = _induced(g, vs, t1)
        s2, m2 = _induced(g, vs, t2, backend="numpy")
        assert graphs_equal(s1, s2) and m1 == m2
        # the driver-level scan charge must be backend-independent
        assert t1.work == t2.work and t1.span == t2.span

    def test_empty_vertex_set(self):
        g = Graph(4, [(0, 1), (2, 3)])
        s, mp = induced_subgraph_np(g, [])
        assert s.n == 0 and s.m == 0 and mp == {}

    def test_trusted_constructor_matches_incremental(self):
        g = G.gnm_random_graph(40, 90, seed=3)
        s1, _ = _induced(g, list(range(0, 40, 2)), Tracker())
        s2, _ = induced_subgraph_np(g, list(range(0, 40, 2)))
        assert graphs_equal(s1, s2)
        # lazy edge set still answers has_edge / rejects duplicates
        for u, v in s2.edges[:5]:
            assert s2.has_edge(u, v) and s2.has_edge(v, u)
        assert not s2.has_edge(0, 0)
        if s2.m:
            with pytest.raises(ValueError):
                s2._add_edge(*s2.edges[0], False)
        # and the CSR view built from trusted arrays is consistent
        c = s2.csr()
        for v in range(s2.n):
            assert sorted(c.neighbors(v).tolist()) == sorted(s2.adj[v])


# ----------------------------------------------------------------------
# whole-pipeline: the numpy backend drives the real algorithm
# ----------------------------------------------------------------------

class TestBackendEndToEnd:
    def test_parallel_dfs_on_numpy_backend(self):
        from repro import parallel_dfs

        g = G.gnm_random_connected_graph(300, 900, seed=21)
        res = parallel_dfs(g, 0, kernel_backend="numpy", verify=True)
        assert len(res.parent) == g.n

    def test_separator_on_numpy_backend(self):
        from repro.core.separator import build_separator
        from repro.core.verify import is_separator

        g = G.gnm_random_connected_graph(200, 500, seed=5)
        sep = build_separator(g, Tracker(), backend="numpy", verify=True)
        assert is_separator(g, sep.vertices)

    @pytest.mark.parametrize("seed,n,m", [(7, 150, 400), (8, 400, 900)])
    def test_parallel_dfs_identical_across_backends(self, seed, n, m):
        from repro import parallel_dfs

        g = G.gnm_random_connected_graph(n, m, seed=seed)
        r1 = parallel_dfs(
            g, 0, Tracker(), random.Random(123), kernel_backend="tracked"
        )
        r2 = parallel_dfs(
            g, 0, Tracker(), random.Random(123), kernel_backend="numpy"
        )
        assert r1.parent == r2.parent
        assert r1.depth == r2.depth
        assert r1.levels == r2.levels

    def test_phase_profile_recorded_in_stats(self):
        from repro import parallel_dfs
        from repro.obs.profile import phase_seconds

        g = G.gnm_random_connected_graph(120, 300, seed=6)
        res = parallel_dfs(g, 0, kernel_backend="numpy")
        prof = phase_seconds(res.stats)
        assert {"separator", "absorb", "components", "induce"} <= set(prof)
        assert all(v >= 0.0 for v in prof.values())
        # plain counters are untouched by the profiler keys
        assert "components_processed" in res.stats
