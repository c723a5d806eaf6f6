"""Parity tests: every numpy kernel against its tracked Python reference.

The numpy backend is an execution engine, not a new algorithm — each
kernel must return exactly what the tracked implementation returns
(scans, ranks) or an equally valid result under the problem's own oracle
(matchings, which draw different random priorities). These tests run
random lists/graphs plus the degenerate shapes (empty, singleton,
all-isolated-vertex) through both backends, and check the dispatch layer
resolves backends in the documented priority order.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph import generators as G
from repro.graph.connectivity import (
    component_sizes,
    connected_components,
    largest_component_size,
    spanning_forest,
)
from repro.kernels import dispatch, euler, listrank, matching, scan
from repro.kernels.dispatch import (
    get_kernel,
    registered_kernels,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.kernels import rng as rng_mod
from repro.kernels.rng import LockstepUniform, randomstate_view, sync_python_rng
from repro.kernels.subgraph import induced_subgraph_np
from repro.listrank.ranking import (
    prefix_sums_on_lists,
    sequential_prefix_sums,
)
from repro.matching.luby import is_maximal_matching, maximal_matching
from repro.pram import Tracker, primitives


# ----------------------------------------------------------------------
# dispatch layer
# ----------------------------------------------------------------------

class TestDispatch:
    def test_default_is_tracked(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        set_default_backend(None)
        assert resolve_backend(None) == "tracked"

    def test_explicit_wins(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("tracked") == "tracked"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        set_default_backend(None)
        assert resolve_backend(None) == "numpy"

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        set_default_backend("tracked")
        try:
            assert resolve_backend(None) == "tracked"
        finally:
            set_default_backend(None)

    def test_use_backend_scopes_and_restores(self):
        before = resolve_backend(None)
        with use_backend("numpy"):
            assert resolve_backend(None) == "numpy"
        assert resolve_backend(None) == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")
        with pytest.raises(ValueError):
            set_default_backend("cuda")

    def test_unknown_backend_error_names_source(self, monkeypatch):
        with pytest.raises(ValueError, match="backend argument"):
            resolve_backend("cuda")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
        set_default_backend(None)
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            resolve_backend(None)

    def test_registry_lists_both_backends(self):
        pairs = registered_kernels()
        for op in ("connected_components", "spanning_forest",
                   "component_sizes", "prefix_sums_on_lists",
                   "maximal_matching"):
            assert (op, "numpy") in pairs and (op, "tracked") in pairs
        assert ("induced_subgraph", "numpy") in pairs
        assert callable(get_kernel("connected_components", "numpy"))
        with pytest.raises(KeyError):
            get_kernel("quantum_sort", "numpy")

    def test_entry_points_pick_requested_backend(self):
        # the numpy scan kernel returns identical values but charges
        # different (aggregate) costs — distinguish the backends by cost
        xs = list(range(64))
        t_tracked, t_numpy = Tracker(), Tracker()
        a = primitives.exclusive_scan(t_tracked, xs, backend="tracked")
        b = primitives.exclusive_scan(t_numpy, xs, backend="numpy")
        assert a == b
        assert t_tracked.work != t_numpy.work  # different engines ran


# ----------------------------------------------------------------------
# scan / reduce / pack
# ----------------------------------------------------------------------

class TestScanParity:
    @given(st.lists(st.integers(-1000, 1000), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_scans_match_tracked(self, xs):
        t1, t2 = Tracker(), Tracker()
        assert (
            primitives.exclusive_scan(t1, xs)
            == primitives.exclusive_scan(t2, xs, backend="numpy")
        )
        assert (
            primitives.inclusive_scan(t1, xs)
            == primitives.inclusive_scan(t2, xs, backend="numpy")
        )
        assert primitives.reduce_sum(t1, xs) == primitives.reduce_sum(
            t2, xs, backend="numpy"
        )

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_min_max_match_tracked(self, xs):
        t = Tracker()
        assert primitives.reduce_max(t, xs, backend="numpy") == max(xs)
        assert primitives.reduce_min(t, xs, backend="numpy") == min(xs)

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.booleans()), max_size=200
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_matches_tracked(self, pairs):
        xs = [x for x, _ in pairs]
        flags = [f for _, f in pairs]
        t1, t2 = Tracker(), Tracker()
        assert primitives.pack(t1, xs, flags) == primitives.pack(
            t2, xs, flags, backend="numpy"
        )
        assert primitives.pack_index(t1, flags) == primitives.pack_index(
            t2, flags, backend="numpy"
        )

    def test_pack_preserves_element_identity(self):
        # tuples must come back as tuples, not numpy rows
        xs = [(1, 2), (3, 4), (5, 6)]
        out = primitives.pack(Tracker(), xs, [True, False, True], backend="numpy")
        assert out == [(1, 2), (5, 6)]
        assert all(isinstance(e, tuple) for e in out)

    def test_empty_and_singleton(self):
        t = Tracker()
        assert scan.exclusive_scan(t, []).tolist() == []
        assert scan.inclusive_scan(t, []).tolist() == []
        assert scan.exclusive_scan(t, [7]).tolist() == [0]
        assert scan.reduce_sum(t, []) == 0
        assert scan.pack(t, [], []).tolist() == []
        with pytest.raises(ValueError):
            scan.reduce_max(t, [])
        with pytest.raises(ValueError):
            primitives.reduce_min(t, [], backend="numpy")
        with pytest.raises(ValueError):
            scan.pack(t, [1, 2], [True])


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

    def test_graph_helper_uses_cached_csr(self):
        g = G.gnm_random_connected_graph(30, 60, seed=4)
        c1 = g.csr()
        chosen = matching.maximal_matching_graph(
            Tracker(), g, random.Random(0)
        )
        assert is_maximal_matching(g.n, g.edges, chosen)
        assert g.csr() is c1  # no rebuild


# ----------------------------------------------------------------------
# Euler tour construction
# ----------------------------------------------------------------------

def spanning_tree_edges(g, rng):
    """A random spanning forest of g (sequential, test support)."""
    parent = {}
    edges = []
    for s in range(g.n):
        if s in parent:
            continue
        parent[s] = None
        stack = [s]
        while stack:
            u = stack.pop()
            nbrs = list(g.adj[u])
            rng.shuffle(nbrs)
            for w in nbrs:
                if w not in parent:
                    parent[w] = u
                    edges.append((u, w))
                    stack.append(w)
    return edges


class TestEulerTour:
    def check_successors(self, n, edges):
        eu = np.array([e[0] for e in edges], dtype=np.int64)
        ev = np.array([e[1] for e in edges], dtype=np.int64)
        succ = euler.euler_tour_successors(n, eu, ev)
        m = len(edges)
        assert succ.shape == (2 * m,)
        # a permutation…
        assert sorted(succ.tolist()) == list(range(2 * m))
        # …whose arcs chain head-to-tail
        tail = np.concatenate([eu, ev])
        head = np.concatenate([ev, eu])
        assert (head == tail[succ]).all()
        return succ

    @given(st.integers(2, 60), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, n, seed):
        rng = random.Random(seed)
        g = G.gnm_random_connected_graph(
            n, min(2 * n, n * (n - 1) // 2), seed=seed
        )
        edges = spanning_tree_edges(g, rng)
        succ = self.check_successors(g.n, edges)
        # one cycle spanning all 2m arcs (a single tree)
        a, seen = 0, set()
        while a not in seen:
            seen.add(a)
            a = int(succ[a])
        assert len(seen) == 2 * len(edges)

    def test_forest_has_one_cycle_per_tree(self):
        edges = [(0, 1), (1, 2), (3, 4)]  # two trees + isolated vertex 5
        succ = self.check_successors(6, edges)
        # arcs 0,1 (and twins 3,4) are tree A; arc 2/5 tree B
        cycles = 0
        unseen = set(range(2 * len(edges)))
        while unseen:
            cycles += 1
            a = next(iter(unseen))
            while a in unseen:
                unseen.discard(a)
                a = int(succ[a])
        assert cycles == 2

    @given(st.integers(2, 40), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_tour_order_is_a_valid_euler_tour(self, n, seed):
        rng = random.Random(seed)
        g = G.gnm_random_connected_graph(
            n, min(2 * n, n * (n - 1) // 2), seed=seed
        )
        edges = spanning_tree_edges(g, rng)
        eu = np.array([e[0] for e in edges], dtype=np.int64)
        ev = np.array([e[1] for e in edges], dtype=np.int64)
        root = rng.randrange(n)
        order = euler.euler_tour_order(g.n, eu, ev, root=root)
        m = len(edges)
        assert order.shape == (2 * m,)
        tail = np.concatenate([eu, ev])
        head = np.concatenate([ev, eu])
        # starts and ends at the root, chains, and uses every arc once
        assert tail[order[0]] == root and head[order[-1]] == root
        for a, b in zip(order, order[1:]):
            assert head[a] == tail[b]
        assert sorted(order.tolist()) == list(range(2 * m))

    def test_tour_order_forest_restricts_to_roots_tree(self):
        eu = np.array([0, 1, 3], dtype=np.int64)
        ev = np.array([1, 2, 4], dtype=np.int64)
        assert euler.euler_tour_order(5, eu, ev, root=0).size == 4
        assert euler.euler_tour_order(5, eu, ev, root=3).size == 2

    def test_empty_and_isolated_root(self):
        empty = np.empty(0, dtype=np.int64)
        assert euler.euler_tour_successors(3, empty, empty).size == 0
        assert euler.euler_tour_order(3, empty, empty, root=1).size == 0
        eu = np.array([0], dtype=np.int64)
        ev = np.array([1], dtype=np.int64)
        assert euler.euler_tour_order(3, eu, ev, root=2).size == 0


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

    @given(st.integers(0, 250), st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_anderson_miller_ranks_and_stream(self, n, k, seed):
        rng = random.Random(seed)
        vertices, prev_of, values = random_lists(rng, n, k)
        r1, r2 = random.Random(seed ^ 0xA5), random.Random(seed ^ 0xA5)
        a = prefix_sums_on_lists(
            Tracker(), vertices, prev_of, values.get,
            method="anderson-miller", rng=r1, backend="tracked",
        )
        b = prefix_sums_on_lists(
            Tracker(), vertices, prev_of, values.get,
            method="anderson-miller", rng=r2, backend="numpy",
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
        s1, m1 = g.subgraph(vs)
        s2, m2 = g.subgraph(vs, backend="numpy")
        assert graphs_equal(s1, s2) and m1 == m2

    @given(st.integers(1, 70), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_driver_induced_identical(self, n, seed):
        from repro.core.dfs import _induced

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
        s, mp = g.subgraph([], backend="numpy")
        assert s.n == 0 and s.m == 0 and mp == {}

    def test_trusted_constructor_matches_incremental(self):
        g = G.gnm_random_graph(40, 90, seed=3)
        s1, _ = g.subgraph(list(range(0, 40, 2)))
        s2, _ = g.subgraph(list(range(0, 40, 2)), backend="numpy")
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

    def test_induced_subgraph_np_rejects_bad_order(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            induced_subgraph_np(g, [0, 1], order="sideways")


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
        from repro.analysis.metrics import phase_seconds

        g = G.gnm_random_connected_graph(120, 300, seed=6)
        res = parallel_dfs(g, 0, kernel_backend="numpy")
        prof = phase_seconds(res.stats)
        assert {"separator", "absorb", "components", "induce"} <= set(prof)
        assert all(v >= 0.0 for v in prof.values())
        # plain counters are untouched by the profiler keys
        assert "components_processed" in res.stats


# ----------------------------------------------------------------------
# absorption-subsystem kernels (kernels.absorb)
# ----------------------------------------------------------------------

class TestAbsorbKernels:
    def test_rc_coin_row_matches_scalar_coin(self):
        from repro.kernels.absorb import rc_coin_row
        from repro.structures.rc_tree import _coin

        for salt in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            for level in (0, 1, 5, 63):
                row = rc_coin_row(257, level, salt)
                for v in range(257):
                    assert bool(row[v]) == _coin(v, level, salt), (
                        v, level, salt,
                    )

    def test_nontree_counts_matches_manual(self):
        from repro.kernels.absorb import nontree_counts_np

        nt_u = [0, 0, 3, 5]
        nt_v = [1, 2, 4, 5]
        counts = nontree_counts_np(7, nt_u, nt_v)
        assert counts.tolist() == [2, 1, 1, 1, 1, 2, 0]
        assert nontree_counts_np(3, [], []).tolist() == [0, 0, 0]

    def test_witness_lexmax_matches_dict_reference(self):
        from repro.kernels.absorb import witness_lexmax_np

        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(2, 40)
            k = rng.randrange(0, 60)
            nb = [rng.randrange(n) for _ in range(k)]
            d = [rng.randrange(0, 25) for _ in range(k)]
            src = [rng.randrange(n) for _ in range(k)]
            want: dict[int, tuple[int, int]] = {}
            for i in range(k):
                cur = want.get(nb[i])
                if cur is None or (d[i], src[i]) > cur:
                    want[nb[i]] = (d[i], src[i])
            assert witness_lexmax_np(n, nb, d, src) == want

    def test_forest_euler_tours_rebuilds_identical_forest(self):
        from repro.kernels.absorb import forest_euler_tours
        from repro.structures.euler_tour import EulerTourForest

        g = G.gnm_random_connected_graph(60, 150, seed=17)
        rng = random.Random(17)
        tree = spanning_tree_edges(g, rng)
        # incremental reference
        ref = EulerTourForest(g.n)
        for u, v in tree:
            ref.link(u, v)
        # bulk build from the numpy successor cycle
        bulk = EulerTourForest(g.n)
        tu = [u for u, _ in tree]
        tv = [v for _, v in tree]
        bulk.build_from_tours(
            forest_euler_tours(g.n, tu, tv), tag_min_arcs=False
        )
        bulk.check_invariants()
        assert set(bulk.arcs) == set(ref.arcs)
        for v in range(g.n):
            assert bulk.connected(0, v) == ref.connected(0, v)
            assert bulk.component_size(v) == ref.component_size(v)
            assert bulk.component_rep(v) == ref.component_rep(v)

    def test_forest_euler_tours_covers_isolated_vertices(self):
        from repro.kernels.absorb import forest_euler_tours

        # forest: one edge (1,2) and two isolated vertices 0, 3
        tours = forest_euler_tours(4, [1], [2])
        flat_vertices = {
            x for seq in tours for x in seq if not isinstance(x, tuple)
        }
        assert flat_vertices == {1, 2}  # isolated vertices get no tour

    def test_hdt_numpy_init_matches_tracked(self):
        from repro.structures.hdt import HDTConnectivity

        g = G.gnm_random_connected_graph(80, 240, seed=23)
        h_tr = HDTConnectivity(g, kernel_backend="tracked")
        h_np = HDTConnectivity(g, kernel_backend="numpy")
        assert sorted(h_tr.spanning_forest_edges()) == sorted(
            h_np.spanning_forest_edges()
        )
        h_np.check_invariants()
        # identical deletion behavior from the identical starting state
        order = list(range(g.m))
        random.Random(2).shuffle(order)
        for i in range(0, g.m, 8):
            c_tr = h_tr.batch_delete(order[i : i + 8])
            c_np = h_np.batch_delete(order[i : i + 8])
            assert [(c.kind, c.u, c.v) for c in c_tr] == [
                (c.kind, c.u, c.v) for c in c_np
            ]
        assert h_tr.spanning_forest_edges() == h_np.spanning_forest_edges()
