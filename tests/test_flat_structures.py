"""Unit coverage for the flat (array-native) structure twins.

The differential fuzzer (``repro.analysis.fuzz``) exercises the flat
absorption structure against the tracked mirrors on random cases; the
tests here pin the *deliberate* edge cases — empty forests, singleton
components, all-separator components, deleting an entire tree in one
batch — and the Lemma 4.5 CSR twin's lockstep with the tournament
structure, including the ``from_csr`` construction ``merge_paths`` uses
for the contracted graph.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.analysis.fuzz import check_ops_case
from repro.graph.generators import (
    gnm_random_connected_graph,
    grid_graph,
    path_graph,
    spider_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.pram import Tracker
from repro.structures.adjacency_query import ActiveNeighborStructure
from repro.structures import flat_absorb
from repro.structures.flat_absorb import FlatAbsorptionStructure, FlatForest
from repro.structures.flat_neighbors import FlatActiveNeighborStructure


def _csr_of(g: Graph):
    """CSR arrays in ``Graph.adj`` (edge-id) order — the canonical
    adjacency layout ``FlatActiveNeighborStructure.__init__`` builds —
    and the twin-slot permutation pairing the two slots of each edge."""
    deg = np.fromiter((len(a) for a in g.adj), dtype=np.int64, count=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    if g.m:
        nbr = np.concatenate(
            [np.asarray(a, dtype=np.int64) for a in g.adj if a]
        )
        eids = np.concatenate(
            [np.asarray(a, dtype=np.int64) for a in g.adj_eids if a]
        )
    else:
        nbr = np.empty(0, dtype=np.int64)
        eids = np.empty(0, dtype=np.int64)
    slot_of = {}
    mirror = np.empty(eids.size, dtype=np.int64)
    for slot, e in enumerate(eids.tolist()):
        if e in slot_of:
            mirror[slot], mirror[slot_of[e]] = slot_of[e], slot
        else:
            slot_of[e] = slot
    return indptr, nbr, mirror


class TestFlatNeighborsDifferential:
    """FlatActiveNeighborStructure must answer exactly like the
    tournament-tree structure under any deactivate/query schedule."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lockstep_random_schedules(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(8, 40)
        g = gnm_random_connected_graph(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        ref = ActiveNeighborStructure(g, tracker=Tracker())
        flat = FlatActiveNeighborStructure(g, tracker=Tracker())
        alive = set(range(n))
        for _ in range(12):
            if rng.random() < 0.5 and len(alive) > 2:
                k = rng.randrange(1, max(2, len(alive) // 3))
                batch = rng.sample(sorted(alive), k)
                alive -= set(batch)
                ref.make_inactive(batch)
                flat.make_inactive(batch)
            probes = rng.sample(range(n), min(n, 5))
            t_count = rng.randrange(0, 5)
            assert ref.query(probes, t_count) == flat.query(probes, t_count)
            for v in probes:
                assert ref.is_active(v) == flat.is_active(v)

    def test_from_csr_matches_graph_construction(self):
        g = gnm_random_connected_graph(30, 60, seed=5)
        a = FlatActiveNeighborStructure(g, tracker=Tracker())
        b = FlatActiveNeighborStructure.from_csr(
            g.n, *_csr_of(g), tracker=Tracker()
        )
        b.make_inactive([3, 7, 11])
        a.make_inactive([3, 7, 11])
        probes = list(range(g.n))
        for t_count in (0, 1, 2, 4, 100):
            assert a.query(probes, t_count) == b.query(probes, t_count)

    def test_double_deactivation_rejected(self):
        g = gnm_random_connected_graph(10, 15, seed=1)
        flat = FlatActiveNeighborStructure(g, tracker=Tracker())
        flat.make_inactive([4])
        with pytest.raises(ValueError):
            flat.make_inactive([4])

    def test_query_rejects_negative_t(self):
        g = gnm_random_connected_graph(6, 7, seed=0)
        flat = FlatActiveNeighborStructure(g, tracker=Tracker())
        with pytest.raises(ValueError):
            flat.query([0], -1)

    def test_empty_queries_and_exhausted_vertices(self):
        g = gnm_random_connected_graph(8, 10, seed=2)
        flat = FlatActiveNeighborStructure(g, tracker=Tracker())
        assert flat.query([], 3) == []
        assert flat.query([0, 1], 0) == [[], []]
        flat.make_inactive(list(range(1, 8)))
        # vertex 0 is still active but all its neighbors are gone
        assert flat.query([0], 4) == [[]]

    def test_query_rows_without_neighbors(self):
        # isolated vertices anywhere in the query, the last row included
        g = Graph(5, [(0, 1), (1, 3)])
        ref = ActiveNeighborStructure(g, tracker=Tracker())
        flat = FlatActiveNeighborStructure(g, tracker=Tracker())
        for probes in ([0, 2], [2, 1, 4], [4], [2, 4, 3]):
            assert flat.query(probes, 2) == ref.query(probes, 2)


class TestFlatForestEdgeCases:
    """Deliberate structural corners of the flat Lemma 5.1/6.x stack.

    ``check_ops_case`` runs the op sequence through all four
    (structure x kernel) backend pairs plus the brute-force model, so
    each case here is a full lockstep assertion, not a smoke test."""

    def test_empty_forest(self):
        # no edges at all: every vertex is a singleton tree
        g = Graph(6, [])
        check_ops_case(g, [
            ("flag", [0, 2, 4]),
            ("witness", 1, 3, 5),
            ("delete", [0, 1], [2]),
            ("flag", [1]),
            ("delete", [2], []),
        ])

    def test_singleton_components_after_deletions(self):
        # a path; deleting interior vertices leaves singletons behind
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        check_ops_case(g, [
            ("flag", [0, 1, 2, 3, 4]),
            ("witness", 2, 0, 3),
            ("delete", [1, 3], [1, 2]),
            ("witness", 0, 1, 4),
            ("delete", [2], [0]),
        ])

    def test_all_separator_component(self):
        # every vertex flagged: find_path_s2p must truncate immediately
        g = gnm_random_connected_graph(9, 14, seed=3)
        ops = [("flag", list(range(9)))]
        ops += [("witness", i, i + 1, i % 7) for i in range(6)]
        ops += [("delete", [0, 1], [3]), ("delete", [2, 3, 4], [1, 5])]
        check_ops_case(g, ops)

    def test_batch_deleting_an_entire_tour(self):
        # one batch removes every tree edge of a component
        g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
        f = FlatForest(g, tracker=Tracker(), kernel_backend="numpy")
        changes = f.batch_delete(list(range(g.m)))
        assert [c.kind for c in changes] == ["cut"] * g.m
        for v in range(6):
            assert f.component_rep(v) == v
            assert int(f.parent[v]) == -1
        assert f.spanning_forest_edges() == []
        f.check_invariants()

    def test_star_center_deletion_via_ops(self):
        # deleting a star center in one batch splits into all-singletons
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        check_ops_case(g, [
            ("flag", [0, 1, 2, 3, 4]),
            ("witness", 4, 2, 6),
            ("delete", [0], [4]),
        ])

    def test_find_path_same_vertex_flagged(self):
        g = Graph(3, [(0, 1), (1, 2)])
        s = FlatAbsorptionStructure(g, tracker=Tracker())
        s.set_separator([2])
        assert s.find_path_s2p(2, 2) == [2]
        # path walks up to the first flagged vertex and stops there
        assert s.find_path_s2p(2, 0) == [0, 1, 2]
        s.set_separator([1])
        assert s.find_path_s2p(2, 0) == [0, 1]

    def test_disconnected_query_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        s = FlatAbsorptionStructure(g, tracker=Tracker())
        s.set_separator([0])
        with pytest.raises(ValueError):
            s.find_path_s2p(0, 3)


# ----------------------------------------------------------------------
# golden traces of the deletion path
# ----------------------------------------------------------------------

def _digest(log) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


def _golden_graph(name: str) -> Graph:
    if name == "gnm":
        return gnm_random_connected_graph(300, 700, seed=11)
    if name == "star":
        return star_graph(80)
    if name == "path":
        return path_graph(400)
    if name == "grid":
        return grid_graph(16, 16)
    if name == "spider":
        return spider_graph(6, 40)
    if name == "gnm-big":
        return gnm_random_connected_graph(3000, 4500, seed=5)
    if name == "path-big":
        return path_graph(3000)
    raise KeyError(name)


def _forest_trace(g: Graph, seed: int, batches: int, invariants: bool):
    """Seeded FlatForest op sequence: key sets/clears, edge and vertex
    batch deletes, key-minimum and connectivity probes. Returns (digest
    of every answer, final tracker snapshot)."""
    rng = random.Random(seed)
    t = Tracker()
    f = FlatForest(g, tracker=t, kernel_backend="numpy")
    log = []
    live = set(range(g.m))
    for _ in range(batches):
        for _ in range(4):
            v = rng.randrange(g.n)
            key = None if rng.random() < 0.2 else -rng.randrange(60)
            f.set_vertex_key(v, key)
        if rng.random() < 0.5:
            k = min(len(live), rng.randrange(1, 12))
            batch = sorted(rng.sample(sorted(live), k))
        else:
            vs = rng.sample(range(g.n), rng.randrange(1, 6))
            batch = sorted({e for v in vs for e in f.live_incident(v)})
        live.difference_update(batch)
        changes = f.batch_delete(batch)
        probes = rng.sample(range(g.n), min(g.n, 8))
        log.append((
            [(c.kind, c.u, c.v) for c in changes],
            [f.component_min_key(v) for v in probes],
            [f.component_rep(v) for v in probes],
            tuple(t.snapshot()),
        ))
        if invariants:
            f.check_invariants()
    return _digest(log), tuple(t.snapshot())


def _absorb_trace(g: Graph, seed: int, batches: int, invariants: bool):
    """Seeded FlatAbsorptionStructure op sequence shaped like the
    absorption driver: separator flags, tree-neighbor witnesses, vertex
    batch deletes, then the three Lemma 5.1 queries after each batch."""
    rng = random.Random(seed)
    t = Tracker()
    s = FlatAbsorptionStructure(g, tracker=t, kernel_backend="numpy")
    alive = list(range(g.n))
    s.set_separator(rng.sample(alive, max(1, g.n // 8)))
    for v in rng.sample(alive, max(1, g.n // 10)):
        s.set_tree_neighbor(v, rng.randrange(g.n), rng.randrange(40))
    log = []
    for _ in range(batches):
        if len(alive) < 2:
            break
        dead = rng.sample(alive, min(len(alive) - 1, rng.randrange(1, 8)))
        alive = [v for v in alive if v not in set(dead)]
        s.batch_delete([(v, rng.randrange(40)) for v in dead])
        if rng.random() < 0.4:
            s.set_separator(rng.sample(alive, min(len(alive), 3)))
        q = s.find_cc()
        entry: list = [q]
        if q is not None:
            try:
                v, x, d = s.lowest_node(q)
            except RuntimeError:
                entry.append(None)
            else:
                entry.append((v, x, d, s.find_path_s2p(q, v)))
        entry.append(tuple(t.snapshot()))
        log.append(entry)
        if invariants:
            s.check_invariants()
    return _digest(log), tuple(t.snapshot())


#: (graph, batches, check invariants per batch, FlatForest trace,
#: FlatAbsorptionStructure trace) — each trace is (digest of every
#: answer, final tracker snapshot), recorded from the FlatForest whose
#: replacement search was a full two-pass BFS per level and whose
#: finalize pass rescanned every touched component
_GOLDEN = [
    ("gnm", 40, True, ("24d90f32603cf053", (41411, 6363)),
     ("3fdef1841826f596", (59536, 19450))),
    ("star", 40, True, ("5c37d7235469b477", (5271, 1979)),
     ("1a1a77b0c2b123de", (5418, 2258))),
    ("path", 40, True, ("3ee8fa523de4a783", (42688, 10568)),
     ("4bca2cff7e528c54", (45301, 15104))),
    ("grid", 40, True, ("a5a2a312480f8d1f", (43973, 10163)),
     ("4cd25d82b3cd453b", (44053, 16162))),
    ("spider", 40, True, ("329ef803ea8f7b82", (22993, 7841)),
     ("0f48aee66ab362d2", (25303, 11887))),
    # large enough that sides of >= 512 vertices take the array search
    ("gnm-big", 60, False, ("c2f3d833118d5e1f", (469397, 12236)),
     ("9db8f9fb7a440a4a", (448591, 22248))),
    ("path-big", 60, False, ("ebd465c3291408f1", (383089, 19162)),
     ("2ef10e2c597ef033", (389734, 31783))),
]


class TestDeletionGolden:
    """The deletion path's ForestChange stream, key minima, labels and
    every tracker charge are pinned to recorded traces — under the
    default array-search threshold and with every non-singleton search
    forced onto the arrays."""

    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize(
        "name,batches,invariants,forest,absorb", _GOLDEN,
        ids=[case[0] for case in _GOLDEN],
    )
    def test_trace(self, monkeypatch, threshold, name, batches, invariants,
                   forest, absorb):
        if threshold is not None:
            monkeypatch.setattr(flat_absorb, "_ARRAY_SIDE", threshold)
        g = _golden_graph(name)
        assert _forest_trace(g, 7, batches, invariants) == forest
        assert _absorb_trace(g, 7, batches, invariants) == absorb


class TestArraySearchParity:
    """With the threshold at 1 every non-singleton replacement search
    runs on the arrays; each call must find the BFS's winner, side,
    level-i tree edges and both level masks."""

    @pytest.mark.parametrize("name", ["gnm", "path", "grid", "spider"])
    def test_array_search_matches_bfs(self, monkeypatch, name):
        calls = []

        class Checked(FlatForest):
            def _side_arrays(self, i, u, v):
                got = super()._side_arrays(i, u, v)
                want = self._side_bfs(i, flat_absorb._Walk(u, v), self.n + 1)
                assert got[0] == want[0], "different winner"
                assert sorted(got[1]) == sorted(want[1]), "different side"
                assert sorted(got[2]) == sorted(want[2]), "different arcs"
                assert got[3] == want[3], "different tree-edge levels"
                assert got[4] == want[4], "different non-tree levels"
                calls.append((len(got[1]), got[3]))
                return got

        # both construction sites build the checking subclass
        monkeypatch.setattr(flat_absorb, "_ARRAY_SIDE", 1)
        monkeypatch.setattr(flat_absorb, "FlatForest", Checked)
        monkeypatch.setitem(globals(), "FlatForest", Checked)
        g = _golden_graph(name)
        _forest_trace(g, 3, 30, False)
        _absorb_trace(g, 3, 30, True)
        assert len(calls) > 20 and max(size for size, _ in calls) > 1
        if name in ("gnm", "grid"):
            # promotions happen here, so some searches see tree edges
            # leaving the side below level i
            assert any(lmask for _, lmask in calls)


class NoSkipForest(FlatForest):
    """Reference twin that runs every level of a cut.

    Wherever :class:`FlatForest` jumps from level i to the next level
    with a bit in its masks, this subclass instead searches each level
    it would skip afresh, asserts that the search finds the same side
    and nothing to promote, and that the side has neither a tree edge
    leaving it nor a non-tree edge at that level; then it runs the level
    through the general per-level body rather than the closed-form
    charge."""

    skipped = 0

    def _endpoint_side(self, i, u, v):
        found = super()._endpoint_side(i, u, v)
        self.cur = (u, v, found)
        return found

    def _side_bfs(self, i, walk, budget):
        found = super()._side_bfs(i, walk, budget)
        self.cur = (walk.qu[0], walk.qv[0], found)
        return found

    def _side_arrays(self, i, u, v):
        found = super()._side_arrays(i, u, v)
        self.cur = (u, v, found)
        return found

    def _next_level(self, i, mask):
        j = super()._next_level(i, mask)
        u, v, (won_u, side, _, _, _) = self.cur
        members = set(side)
        for k in range(i - 1, j, -1):
            fresh = FlatForest._endpoint_side(self, k, u, v)
            if fresh is None:
                fresh = FlatForest._side_bfs(
                    self, k, flat_absorb._Walk(u, v), self.n + 1
                )
            assert fresh[0] == won_u, "a skipped level changes the winner"
            assert sorted(fresh[1]) == sorted(side), "a skipped level grows"
            assert fresh[2] == [], "a skipped level has tree edges to promote"
            for x in side:
                assert not (self.nontree[k][x] if k == 0
                            else self.nontree[k].get(x)), (
                    f"skipped level {k} has a non-tree edge at {x}"
                )
                for nbr, f in self.adj[x].items():
                    assert nbr in members or self.level[f] != k, (
                        f"skipped level {k} has a tree edge leaving the side"
                    )
            NoSkipForest.skipped += 1
        return i - 1


#: golden graphs whose traces promote edges past level 0, so that cuts
#: have levels to skip (the star and the path never do)
_MULTILEVEL = ("gnm", "grid", "spider")


class TestLevelSkip:
    """The jump to the next level with a bit in the masks is exact: the
    no-skip twin reproduces every golden trace (changes, answers, every
    tracker charge) while checking each jumped-over level, and the
    promotion counter and replacement-scan histogram match the tracked
    HDT structure's, idle levels included."""

    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize(
        "name,batches,invariants,forest,absorb",
        [case for case in _GOLDEN if case[0] in _MULTILEVEL],
        ids=[case[0] for case in _GOLDEN if case[0] in _MULTILEVEL],
    )
    def test_no_skip_twin_replays_goldens(
        self, monkeypatch, threshold, name, batches, invariants, forest,
        absorb,
    ):
        if threshold is not None:
            monkeypatch.setattr(flat_absorb, "_ARRAY_SIDE", threshold)
        monkeypatch.setattr(flat_absorb, "FlatForest", NoSkipForest)
        monkeypatch.setitem(globals(), "FlatForest", NoSkipForest)
        monkeypatch.setattr(NoSkipForest, "skipped", 0)
        g = _golden_graph(name)
        assert _forest_trace(g, 7, batches, invariants) == forest
        assert _absorb_trace(g, 7, batches, invariants) == absorb
        assert NoSkipForest.skipped > 0

    @pytest.mark.parametrize("name", ["gnm", "grid", "spider"])
    def test_scan_metrics_match_tracked_hdt(self, name):
        from repro.structures.hdt import HDTConnectivity

        g = _golden_graph(name)
        ref = HDTConnectivity(g, tracker=Tracker())
        flat = FlatForest(g, tracker=Tracker(), kernel_backend="numpy")
        rng = random.Random(5)
        for _ in range(40):
            vs = rng.sample(range(g.n), rng.randrange(1, 6))
            batch = sorted({e for v in vs for e in flat.live_incident(v)})
            assert ref.batch_delete(batch) == flat.batch_delete(batch)
        assert flat._c_promote.value == ref._c_promote.value > 0
        assert flat._h_scan.summary() == ref._h_scan.summary()
        assert flat._h_scan.count > flat._h_scan.total


class ResumeChecked(FlatForest):
    """Runs a fresh search beside every search of a cut and requires the
    walk, resumed from the level above or not, to find what the fresh
    one finds: the same hand-over to the arrays, winner, side, level-i
    tree edges, lmask and nmask bits up to i (the ones the cut reads)."""

    resumed = 0
    handed_over = 0

    def _side_bfs(self, i, walk, budget):
        u, v = walk.qu[0], walk.qv[0]
        resumed = walk.iu + walk.iv > 0
        got = super()._side_bfs(i, walk, budget)
        want = super()._side_bfs(i, flat_absorb._Walk(u, v), budget)
        if want is None:
            assert got is None, "the walk decided a search a fresh one hands over"
            ResumeChecked.handed_over += 1
        else:
            assert got is not None, "the walk handed over a search a fresh one decides"
            assert got[0] == want[0], "different winner"
            assert sorted(got[1]) == sorted(want[1]), "different side"
            assert sorted(got[2]) == sorted(want[2]), "different arcs"
            assert got[3] == want[3], "different tree-edge levels"
            used = (2 << i) - 1
            assert got[4] & used == want[4] & used, "different non-tree levels"
        ResumeChecked.resumed += resumed
        return got


class TestResumedSearch:
    """A cut's alternating search resumes at each lower level from where
    the level above stopped; on fuzzed batch sequences (both structures,
    invariants checked per batch) every search answers as a fresh search
    at its level would, with the hand-over budget counted over the cut."""

    @pytest.mark.parametrize("threshold", [None, 2, 5, 16])
    @pytest.mark.parametrize("name", ["gnm", "grid", "spider", "path"])
    def test_resumed_walk_matches_fresh_search(self, monkeypatch, threshold,
                                               name):
        if threshold is not None:
            monkeypatch.setattr(flat_absorb, "_ARRAY_SIDE", threshold)
        monkeypatch.setattr(flat_absorb, "FlatForest", ResumeChecked)
        monkeypatch.setitem(globals(), "FlatForest", ResumeChecked)
        monkeypatch.setattr(ResumeChecked, "resumed", 0)
        monkeypatch.setattr(ResumeChecked, "handed_over", 0)
        g = _golden_graph(name)
        for seed in range(2):
            _forest_trace(g, seed, 30, True)
            _absorb_trace(g, seed, 30, True)
        if name in ("gnm", "grid"):
            # promotions leave tree edges below a cut's level
            assert ResumeChecked.resumed > 0
        assert (ResumeChecked.handed_over > 0) == (threshold is not None)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, monkeypatch, seed):
        monkeypatch.setattr(flat_absorb, "_ARRAY_SIDE", 3 + seed)
        monkeypatch.setattr(flat_absorb, "FlatForest", ResumeChecked)
        monkeypatch.setitem(globals(), "FlatForest", ResumeChecked)
        monkeypatch.setattr(ResumeChecked, "resumed", 0)
        rng = random.Random(seed)
        n = rng.randrange(40, 160)
        g = gnm_random_connected_graph(n, rng.randrange(n, 3 * n), seed=seed)
        _forest_trace(g, seed, 40, True)
        _absorb_trace(g, seed, 40, True)
        assert ResumeChecked.resumed > 0


class TestWitnessAndPathErrors:
    """Canonical witness ties and the find_path_s2p sync error, on the
    flat structure and the tracked one it mirrors."""

    @staticmethod
    def _structures(g):
        from repro.structures.absorb_ds import AbsorptionStructure

        return [
            FlatAbsorptionStructure(g, tracker=Tracker(),
                                    kernel_backend="numpy"),
            AbsorptionStructure(g, tracker=Tracker()),
        ]

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["12", "21"])
    def test_same_depth_witnesses_keep_larger_id(self, order):
        # survivor 0 loses two neighbors absorbed at the same depth in
        # one batch; its new witness is the larger absorbed id
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        for s in self._structures(g):
            s.set_separator([3])
            s.batch_delete([(v, 5) for v in order])
            assert s.low_witness[0] == (5, 2)
            assert s.lowest_node(3) == (0, 2, 5)

    def test_find_path_error_names_q(self):
        g = path_graph(8)
        for s in self._structures(g):
            s.set_separator([3])
            s.unset_separator([3])
            with pytest.raises(RuntimeError) as exc:
                s.find_path_s2p(7, 0)
            assert "but 7 is flagged" in str(exc.value)
            assert "{q}" not in str(exc.value)


class TestMemoryGuard:
    """The flat forest keeps one level-0 adjacency, no per-level copies
    and no second copy of the incidence lists: its traced peak through a
    vertex-deletion sequence stays within a small multiple of the
    graph's own footprint."""

    #: traced peak / graph footprint on gnm(3000, 4500, seed=5), batches
    #: of 5 shuffled vertices until half are gone (CPython 3.11.7, numpy
    #: 2.4): 4.84 with one adjacency dict per level, an incident-edge set
    #: per vertex and a pair -> edge id map; 2.98 with one adjacency
    _MAX_RATIO = 3.9

    def test_peak_over_graph_footprint(self):
        import tracemalloc

        tracemalloc.start()
        try:
            g = gnm_random_connected_graph(3000, 4500, seed=5)
            graph_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            f = FlatForest(g, tracker=Tracker(), kernel_backend="numpy")
            order = list(range(g.n))
            random.Random(0).shuffle(order)
            for k in range(0, g.n // 2, 5):
                vs = order[k:k + 5]
                f.batch_delete(
                    sorted({e for v in vs for e in f.live_incident(v)})
                )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ratio = peak / graph_bytes
        assert ratio < self._MAX_RATIO, (
            f"traced peak {peak / 2**20:.2f} MiB is {ratio:.2f}x the "
            f"graph's {graph_bytes / 2**20:.2f} MiB"
        )
