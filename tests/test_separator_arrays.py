"""Array-native Lemma 4.1 inner loop: parity with the lockstep reference.

On the array engines ``paths_form_separator`` checks the complement as a
mask over the CSR endpoint arrays, and ``merge_paths`` runs its phases,
commits and kills on arrays.  The tracked engine keeps the per-path
object code as the lockstep reference.  These tests pin that both give
the same answers and consume the same ``random.Random`` stream, that the
array code charges the tracker exactly as the object code does under the
same kernels, and that a stalled separator round is counted.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core import dfs as dfs_mod
from repro.core import path_merge
from repro.core import separator as separator_mod
from repro.core.dfs import parallel_dfs
from repro.core.path_merge import merge_paths
from repro.core.reduction import paths_form_separator
from repro.core.separator import build_separator
from repro.core.verify import is_separator, is_valid_dfs_tree
from repro.graph import Graph
from repro.graph import generators as G
from repro.graph.connectivity import component_sizes, connected_components
from repro.kernels import subgraph
from repro.obs import Tracer, activate
from repro.pram import Tracker
from repro.pram.tracker import log2_ceil


def _path_cover(g: Graph, rng: random.Random) -> list[list[int]]:
    """Vertex-disjoint simple graph paths covering every vertex: greedy
    random walks that only step onto unvisited vertices."""
    seen = [False] * g.n
    order = list(range(g.n))
    rng.shuffle(order)
    paths = []
    for s in order:
        if seen[s]:
            continue
        seen[s] = True
        path = [s]
        while rng.random() < 0.9:
            nxt = [w for w in g.adj[path[-1]] if not seen[w]]
            if not nxt:
                break
            w = rng.choice(nxt)
            seen[w] = True
            path.append(w)
        paths.append(path)
    return paths


def _long_short(g: Graph, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """Long and short paths with free vertices between them: the cover's
    longest quarter, and half of the rest (the other half is left free
    for the connectors to grow through)."""
    rng = random.Random(seed)
    paths = _path_cover(g, rng)
    paths.sort(key=len, reverse=True)
    n_long = max(1, len(paths) // 4)
    shorts = [p for p in paths[n_long:] if rng.random() < 0.5]
    return paths[:n_long], shorts


_GRAPHS = {
    "gnm": lambda: G.gnm_random_connected_graph(300, 700, seed=11),
    "spider": lambda: G.make_family("spider", 400, seed=0),
}


# ----------------------------------------------------------------------
# paths_form_separator
# ----------------------------------------------------------------------


def _check(g, paths, backend):
    t = Tracker()
    verdict = paths_form_separator(g, t, copy.deepcopy(paths), backend=backend)
    return verdict, t.snapshot()


def _check_via_induced_graph(g, paths):
    """The array-engine check composed from the graph-level kernels: build
    the complement's induced ``Graph``, then numpy connectivity and
    component sizes — what the mask-based check must equal, charge for
    charge."""
    t = Tracker()
    q = {v for p in paths for v in p}
    keep = [v for v in range(g.n) if v not in q]
    t.charge(g.n + sum(map(len, paths)), log2_ceil(max(2, g.n)) + 1)
    if not keep:
        return True, t.snapshot()
    h, _ = g.subgraph(keep)
    t.charge(g.m, log2_ceil(max(2, g.m)))
    labels = connected_components(h, t, backend="numpy")
    sizes = component_sizes(labels, t, backend="numpy")
    return 2 * max(sizes.values()) <= g.n, t.snapshot()


def _assert_parity(g, paths):
    """The array engines charge connectivity in aggregate and the tracked
    engine per element, so the verdicts must agree across engines and
    the array snapshot must equal the induced-graph composition."""
    got = _check(g, paths, "numpy")
    assert got == _check_via_induced_graph(g, paths)
    assert got[0] == _check(g, paths, "tracked")[0]
    return got[0]


class TestSeparatorCheckParity:
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_path_sets(self, name, seed):
        g = _GRAPHS[name]()
        rng = random.Random(seed)
        cover = _path_cover(g, rng)
        # a random subset of the cover: small ones rarely separate,
        # large ones usually do
        keep = rng.random()
        paths = [p for p in cover if rng.random() < keep]
        verdict = _assert_parity(g, paths)
        assert verdict == is_separator(g, {v for p in paths for v in p})

    def test_both_verdicts_occur(self):
        g = G.path_graph(50)
        assert _assert_parity(g, []) is False
        assert _assert_parity(g, [[25]]) is True
        assert _assert_parity(g, [[10], [11, 12]]) is False

    def test_empty_complement(self):
        g = G.gnm_random_connected_graph(40, 80, seed=2)
        assert _assert_parity(g, _path_cover(g, random.Random(3))) is True

    @pytest.mark.parametrize("paths", [[], [[0], [3, 4]], [[v] for v in range(7)]])
    def test_edgeless_graph(self, paths):
        assert _assert_parity(Graph(7, []), paths) is True

    def test_builds_no_induced_graph(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("the array check built an induced Graph")

        monkeypatch.setattr(subgraph, "induced_subgraph_np", refuse)
        g = _GRAPHS["spider"]()
        paths = _path_cover(g, random.Random(0))[::3]
        _check(g, paths, "numpy")


# ----------------------------------------------------------------------
# merge_paths
# ----------------------------------------------------------------------


def _run_merge(g, longs, shorts, seed, threshold, backend):
    t = Tracker()
    rng = random.Random(seed)
    res = merge_paths(
        g, t, copy.deepcopy(longs), copy.deepcopy(shorts), rng, threshold,
        backend=backend,
    )
    states = [
        (s.orig, s.cur, s.killed_orig, s.killed_ext, s.status,
         s.joined_short, s.extension)
        for s in res.longs
    ]
    out = (res.p1, res.p2, sorted(res.joined_shorts), res.steps, states)
    return out, t.snapshot(), rng.random()


def _objects_instead_of_arrays(
    t, ans, long_paths, contact, contract_base, gp_n, threshold, max_steps,
    rng, backend,
):
    """Route the array engine's merge through the object loop, with the
    same structure, Luby kernel and tracker."""
    ckeys, cvals = contact
    as_dict = {
        (int(k) // gp_n, int(k) % gp_n): int(y)
        for k, y in zip(ckeys.tolist(), cvals.tolist())
    }
    return path_merge._merge_steps_objects(
        t, ans, long_paths, as_dict, contract_base, gp_n, threshold,
        max_steps, rng, backend,
    )


class TestMergePathsParity:
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threshold", [1.0, None])
    def test_result_matches_tracked(self, name, seed, threshold):
        g = _GRAPHS[name]()
        longs, shorts = _long_short(g, seed)
        tracked = _run_merge(g, longs, shorts, seed, threshold, "tracked")
        array = _run_merge(g, longs, shorts, seed, threshold, "numpy")
        assert array[0] == tracked[0]
        # the same rng stream was consumed
        assert array[2] == tracked[2]

    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threshold", [1.0, None])
    def test_snapshot_matches_object_loop(
        self, monkeypatch, name, seed, threshold
    ):
        g = _GRAPHS[name]()
        longs, shorts = _long_short(g, seed)
        array = _run_merge(g, longs, shorts, seed, threshold, "numpy")
        monkeypatch.setattr(
            path_merge, "_merge_steps_arrays", _objects_instead_of_arrays
        )
        objects = _run_merge(g, longs, shorts, seed, threshold, "numpy")
        assert array == objects

    def test_steps_actually_run(self):
        # guard against a vacuous parity: the inputs above make the
        # process take several steps, match, extend and backtrack
        g = _GRAPHS["gnm"]()
        longs, shorts = _long_short(g, 0)
        (p1, _, _, steps, states), _, _ = _run_merge(
            g, longs, shorts, 0, 1.0, "numpy"
        )
        assert steps > 3 and p1
        assert any(s[3] for s in states)  # some extension vertex died
        assert any(s[2] for s in states)  # some original vertex died


# ----------------------------------------------------------------------
# loud separator stalls
# ----------------------------------------------------------------------


def _stall_every_round(monkeypatch):
    monkeypatch.setattr(
        separator_mod, "reduce_paths", lambda g, t, paths, *a, **k: paths
    )


class TestSeparatorStalls:
    def test_no_stalls_normally(self):
        g = G.gnm_random_connected_graph(200, 500, seed=1)
        res = build_separator(g, Tracker(), random.Random(0))
        assert res.stalls == 0

    @pytest.mark.parametrize("backend", ["tracked", "numpy"])
    def test_forced_stall_is_counted(self, monkeypatch, backend):
        _stall_every_round(monkeypatch)
        g = G.gnm_random_connected_graph(60, 120, seed=4)
        trc = Tracer()
        with activate(trc):
            res = build_separator(
                g, Tracker(), random.Random(0), backend=backend
            )
        # four stalled rounds in a row end the construction ...
        assert res.stalls == 4 and res.rounds == 4
        # ... above the target, but still with a valid separator
        assert res.n_paths > 4 * g.n ** 0.5
        assert is_separator(g, res.vertices)
        rounds = [s for s in trc.spans if s.name == "separator.round"]
        assert [s.attrs["stalls"] for s in rounds] == [1, 2, 3, 4]

    def test_stall_count_in_dfs_stats_is_engine_independent(self, monkeypatch):
        # stall the first two rounds of every separator, then reduce
        # normally, so the recursion still splits into components
        build, reduce_paths = dfs_mod.build_separator, separator_mod.reduce_paths
        calls = [0]
        budget = [0]
        forced = [0]

        def build_counted(*a, **k):
            calls[0] += 1
            budget[0] = 2
            res = build(*a, **k)
            forced[0] += 2 - budget[0]  # small components need no round
            return res

        def stall_twice(g, t, paths, *a, **k):
            if budget[0]:
                budget[0] -= 1
                return paths
            return reduce_paths(g, t, paths, *a, **k)

        monkeypatch.setattr(dfs_mod, "build_separator", build_counted)
        monkeypatch.setattr(separator_mod, "reduce_paths", stall_twice)
        g = G.make_family("spider", 600, seed=2)
        stats = {}
        for kb in ("tracked", "numpy"):
            calls[0] = forced[0] = 0
            res = parallel_dfs(
                g, 0, rng=random.Random(3), kernel_backend=kb, small_cutoff=8
            )
            assert is_valid_dfs_tree(g, 0, res.parent)
            stats[kb] = {
                k: v for k, v in res.stats.items() if not k.startswith("seconds_")
            }
            # summed over every component that built a separator
            assert calls[0] > 1 and forced[0] > 2
            assert res.stats["separator_stalls"] == forced[0]
        assert stats["numpy"] == stats["tracked"]
