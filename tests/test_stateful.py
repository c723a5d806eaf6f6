"""Stateful property tests (hypothesis RuleBasedStateMachine).

Model-based fuzzing of the dynamic structures against trivially correct
reference models: arbitrary interleavings of operations must keep every
observable query consistent. This catches ordering bugs that fixed random
scripts miss.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.fuzz import NaiveAbsorptionModel
from repro.graph import Graph
from repro.graph import generators as G
from repro.structures.absorb_ds import AbsorptionStructure
from repro.structures.euler_tour import EulerTourForest
from repro.structures.flat_absorb import FlatForest
from repro.structures.hdt import HDTConnectivity
from repro.structures.link_cut import LinkCutForest
from repro.structures.rc_tree import RCForest
from repro.structures.tournament import TournamentTree

N = 12


class _ForestModel:
    """Reference dynamic forest via recomputation."""

    def __init__(self, n):
        self.n = n
        self.edges: set[tuple[int, int]] = set()

    def component(self, v):
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for a, b in self.edges:
                w = b if a == x else a if b == x else None
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def connected(self, u, v):
        return v in self.component(u)

    def path(self, u, v):
        # BFS parents within the forest
        parent = {u: None}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for a, b in self.edges:
                    w = b if a == x else a if b == x else None
                    if w is not None and w not in parent:
                        parent[w] = x
                        nxt.append(w)
            frontier = nxt
        if v not in parent:
            return None
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return list(reversed(out))


class _ForestMachineBase(RuleBasedStateMachine):
    """Shared rules driving a dynamic-forest structure vs the model."""

    factory = None  # overridden

    def __init__(self):
        super().__init__()
        self.model = _ForestModel(N)
        self.impl = type(self).factory()

    vertices = st.integers(0, N - 1)

    @rule(u=vertices, v=vertices)
    def link_or_note_cycle(self, u, v):
        if u == v:
            return
        if self.model.connected(u, v):
            assert self.impl.connected(u, v)
        else:
            assert not self.impl.connected(u, v)
            self.impl.link(u, v)
            self.model.edges.add((min(u, v), max(u, v)))

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data())
    def cut_existing(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.model.edges)))
        self.impl.cut(u, v)
        self.model.edges.discard((u, v))
        assert not self.impl.connected(u, v)

    @rule(u=vertices, v=vertices)
    def query_connectivity(self, u, v):
        assert self.impl.connected(u, v) == self.model.connected(u, v)


class LCTMachine(_ForestMachineBase):
    factory = staticmethod(lambda: LinkCutForest(N))

    @rule(u=_ForestMachineBase.vertices, v=_ForestMachineBase.vertices)
    def query_path(self, u, v):
        want = self.model.path(u, v)
        if want is None:
            return
        assert self.impl.path(u, v) == want


class RCMachine(_ForestMachineBase):
    factory = staticmethod(lambda: RCForest(N))

    @rule(u=_ForestMachineBase.vertices, v=_ForestMachineBase.vertices)
    def query_path(self, u, v):
        want = self.model.path(u, v)
        if want is None:
            return
        assert self.impl.path(u, v) == want

    @invariant()
    def hierarchy_consistent(self):
        self.impl.check_invariants()


class RCDetMachine(_ForestMachineBase):
    factory = staticmethod(
        lambda: RCForest(N, compress_mode="deterministic")
    )

    @invariant()
    def hierarchy_consistent(self):
        self.impl.check_invariants()


class ETTMachine(_ForestMachineBase):
    factory = staticmethod(lambda: EulerTourForest(N))

    @rule(v=_ForestMachineBase.vertices)
    def query_size(self, v):
        assert self.impl.component_size(v) == len(self.model.component(v))

    @rule(v=_ForestMachineBase.vertices)
    def query_rep(self, v):
        assert self.impl.component_rep(v) == min(self.model.component(v))


class HDTMachine(RuleBasedStateMachine):
    """HDT under random batch deletions from a random connected graph vs
    the recompute model (HDT only ever deletes: Theorem 3.2 absorbs)."""

    @initialize(seed=st.integers(0, 2**16))
    def load(self, seed):
        g = G.gnm_random_connected_graph(N, 2 * N, seed=seed)
        self.impl = HDTConnectivity(g)
        self.live: dict[int, tuple[int, int]] = dict(enumerate(g.edges))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        eids = data.draw(
            st.lists(st.sampled_from(sorted(self.live)), min_size=1,
                     max_size=3, unique=True)
        )
        self.impl.batch_delete(sorted(eids))
        for eid in eids:
            del self.live[eid]

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query(self, u, v):
        # always enabled, so a run outlives the last deletion
        assert self.impl.connected(u, v) == (v in self._model().component(u))

    def _model(self):
        model = _ForestModel(N)
        model.edges = set(self.live.values())
        return model

    @invariant()
    def matches_model(self):
        model = self._model()
        for u in range(N):
            comp = model.component(u)
            for v in range(N):
                assert self.impl.connected(u, v) == (v in comp)
        self.impl.check_invariants()


class FlatForestMachine(RuleBasedStateMachine):
    """Flat forest with interleaved batch inserts/deletes vs the recompute
    model: connectivity, representatives, sizes, member lists and the
    array invariants after every step."""

    #: a cycle and an edge at load time, so the initial build is covered
    START = [(0, 1), (1, 2), (0, 2), (5, 6)]

    def __init__(self):
        super().__init__()
        self.impl = FlatForest(Graph(N, self.START))
        self.live: dict[int, tuple[int, int]] = dict(enumerate(self.START))

    vertices = st.integers(0, N - 1)

    @rule(pairs=st.lists(st.tuples(vertices, vertices), min_size=1, max_size=5))
    def insert(self, pairs):
        present = set(self.live.values())
        batch = []
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u != v and key not in present:
                present.add(key)
                batch.append((u, v))
        for eid, (u, v) in zip(self.impl.batch_insert(batch), batch):
            self.live[eid] = (min(u, v), max(u, v))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        eids = data.draw(
            st.lists(st.sampled_from(sorted(self.live)), min_size=1,
                     max_size=4, unique=True)
        )
        self.impl.batch_delete(sorted(eids))
        for eid in eids:
            del self.live[eid]

    @invariant()
    def matches_model(self):
        model = _ForestModel(N)
        model.edges = set(self.live.values())
        for v in range(N):
            comp = sorted(model.component(v))
            assert self.impl.component_rep(v) == comp[0]
            assert self.impl.connected(v, comp[-1])
            assert self.impl.component_size(v) == len(comp)
            assert self.impl.component_vertices(v) == comp
        for eid in self.live:
            u, v = self.live[eid]
            assert eid in self.impl.live_incident(u)
            assert eid in self.impl.live_incident(v)
        self.impl.check_invariants()


class AbsorptionMachine(RuleBasedStateMachine):
    """Lemma 5.1 structure vs the naive dict/set model.

    Random interleavings of separator flagging, witness publication and
    batch deletion; every observable (find_cc, lowest_node, path shape,
    connectivity, forest/mirror sync) must match the BFS-recompute model
    after every step.
    """

    def __init__(self):
        super().__init__()
        self.g = G.gnm_random_connected_graph(N + 2, 3 * (N + 2), seed=7)
        self.impl = AbsorptionStructure(self.g)
        self.model = NaiveAbsorptionModel(self.g)

    def _alive(self):
        return sorted(self.model.alive)

    @precondition(lambda self: self.model.alive)
    @rule(data=st.data())
    def flag(self, data):
        vs = data.draw(
            st.lists(st.sampled_from(self._alive()), min_size=1, max_size=4,
                     unique=True)
        )
        self.impl.set_separator(vs)
        self.model.set_separator(vs)

    @precondition(lambda self: self.model.q)
    @rule(data=st.data())
    def unflag(self, data):
        vs = data.draw(
            st.lists(st.sampled_from(sorted(self.model.q)), min_size=1,
                     max_size=3, unique=True)
        )
        self.impl.unset_separator(vs)
        self.model.unset_separator(vs)

    @precondition(lambda self: self.model.alive)
    @rule(data=st.data(), x=st.integers(0, N + 1), d=st.integers(0, 20))
    def witness(self, data, x, d):
        v = data.draw(st.sampled_from(self._alive()))
        self.impl.set_tree_neighbor(v, x, d)
        self.model.set_tree_neighbor(v, x, d)

    @precondition(lambda self: self.model.alive)
    @rule(data=st.data(), d0=st.integers(0, 20))
    def delete(self, data, d0):
        vs = data.draw(
            st.lists(st.sampled_from(self._alive()), min_size=1, max_size=3,
                     unique=True)
        )
        pairs = [(v, d0 + j) for j, v in enumerate(sorted(vs))]
        self.impl.batch_delete(pairs)
        self.model.batch_delete(pairs)

    @rule()
    def query_find_cc(self):
        assert self.impl.find_cc() == self.model.find_cc()

    @precondition(lambda self: self.model.q)
    @rule()
    def query_lowest_and_path(self):
        q = self.model.find_cc()
        want = self.model.lowest_node(q)
        if want is None:
            return
        got = self.impl.lowest_node(q)
        assert got == want
        v = want[0]
        p = self.impl.find_path_s2p(q, v)
        assert p[0] == v and p[-1] in self.model.q
        assert len(set(p)) == len(p)
        assert all(w not in self.model.q for w in p[:-1])
        edge_set = {(min(a, b), max(a, b)) for a, b in self.g.edges}
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in edge_set
            assert a in self.model.alive and b in self.model.alive

    @precondition(lambda self: len(self.model.alive) >= 2)
    @rule(data=st.data())
    def query_connectivity(self, data):
        alive = self._alive()
        u = data.draw(st.sampled_from(alive))
        w = data.draw(st.sampled_from(alive))
        assert self.impl.hdt.connected(u, w) == (
            w in self.model.component(u)
        )

    @invariant()
    def structures_in_sync(self):
        self.impl.check_invariants()


class TournamentMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.impl = TournamentTree(list(range(N)))
        self.active = set(range(N))

    idx = st.integers(0, N - 1)

    @rule(i=idx)
    def deactivate(self, i):
        self.impl.make_inactive([i])
        self.active.discard(i)

    @rule(i=idx)
    def reactivate(self, i):
        self.impl.make_active([i])
        self.active.add(i)

    @rule(t=st.integers(0, N + 2))
    def query(self, t):
        got = self.impl.query(t)
        assert len(got) == min(t, len(self.active))
        assert set(got) <= self.active
        assert len(set(got)) == len(got)

    @invariant()
    def count_matches(self):
        assert self.impl.n_active == len(self.active)


_settings = settings(max_examples=20, stateful_step_count=30, deadline=None)

TestLCTStateful = LCTMachine.TestCase
TestLCTStateful.settings = _settings
TestRCStateful = RCMachine.TestCase
TestRCStateful.settings = _settings
TestRCDetStateful = RCDetMachine.TestCase
TestRCDetStateful.settings = _settings
TestETTStateful = ETTMachine.TestCase
TestETTStateful.settings = _settings
TestHDTStateful = HDTMachine.TestCase
TestHDTStateful.settings = _settings
TestFlatForestStateful = FlatForestMachine.TestCase
TestFlatForestStateful.settings = _settings
TestTournamentStateful = TournamentMachine.TestCase
TestTournamentStateful.settings = _settings
TestAbsorptionStateful = AbsorptionMachine.TestCase
TestAbsorptionStateful.settings = _settings
