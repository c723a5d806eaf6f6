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
from repro.core import reduction
from repro.core import separator as separator_mod
from repro.core.dfs import parallel_dfs
from repro.core.path_merge import merge_paths
from repro.core.reduction import paths_form_separator, split_short_at
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


class TestAssembleMerged:
    """``_assemble_merged`` gathers the next L and S from P's arrays; the
    reference is the per-path rule: prefix + connector + y + the longer
    half of the short outward from y (``split_short_at``), the shorter
    half staying short."""

    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("backend", ["tracked", "numpy"])
    def test_matches_split_rule(self, name, seed, backend):
        g = _GRAPHS[name]()
        longs, shorts = _long_short(g, seed)
        rng = random.Random(seed)
        res = merge_paths(g, Tracker(), longs, shorts, rng, 1.0, backend=backend)
        assert res.p1  # some long path joined a short
        merged, remaining = reduction._assemble_merged(
            g, Tracker(), res, path_merge.FlatPaths.from_lists(shorts),
            rng, backend=backend,
        )
        want_merged, consumed = [], {}
        for st_ in res.longs:
            if st_.status == "succeeded":
                si, y = st_.joined_short
                absorbed, rest = split_short_at(shorts[si], shorts[si].index(y))
                want_merged.append(st_.cur + [y] + absorbed)
                consumed[si] = rest
            elif st_.status == "active":
                want_merged.append(st_.cur)
        want_remaining = [
            consumed.get(si, s) for si, s in enumerate(shorts)
            if consumed.get(si, s)
        ]
        assert merged.tolist() == want_merged
        assert remaining.tolist() == want_remaining

    @pytest.mark.parametrize("name", [*sorted(_GRAPHS), "gnm-2000"])
    @pytest.mark.parametrize("seed", range(3))
    def test_engines_leave_the_rng_alike(self, name, seed, monkeypatch):
        """Lemma 2.4 draws the same salts on both engines, and the numpy
        engine ranks the joined shorts without the dict-based entry.  The
        joined shorts hold 33–43 vertices on the small graphs and over
        200 on ``gnm-2000``, so both sides of the contraction's
        small-size cut-over (96) are covered."""
        ranked_by_dict = reduction.prefix_sums_on_lists

        def tracked_only(*a, backend=None, **k):
            assert backend != "numpy", "numpy engine built a rank dict"
            return ranked_by_dict(*a, backend=backend, **k)

        monkeypatch.setattr(reduction, "prefix_sums_on_lists", tracked_only)
        if name == "gnm-2000":
            g = G.gnm_random_connected_graph(2000, 4000, seed=11)
        else:
            g = _GRAPHS[name]()
        longs, shorts = _long_short(g, seed)
        out = {}
        for backend in ("tracked", "numpy"):
            res = merge_paths(
                g, Tracker(), longs, shorts, random.Random(seed), 1.0,
                backend=backend,
            )
            rng = random.Random(seed + 1)
            merged, remaining = reduction._assemble_merged(
                g, Tracker(), res, path_merge.FlatPaths.from_lists(shorts),
                rng, backend=backend,
            )
            out[backend] = (merged.tolist(), remaining.tolist(), rng.getstate())
        assert out["numpy"] == out["tracked"]


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


# ----------------------------------------------------------------------
# reduce_paths: engine parity over whole Lemma 4.1 reductions
# ----------------------------------------------------------------------


def _reduction_inputs(monkeypatch, g, seed):
    """Every ``reduce_paths`` input — (paths, rng state, goal) — of one
    tracked ``build_separator`` run."""
    inputs = []
    reduce_paths = separator_mod.reduce_paths

    def record(g_, t, paths, rng, goal, *a, **k):
        inputs.append((copy.deepcopy(paths), rng.getstate(), goal))
        return reduce_paths(g_, t, paths, rng, goal, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(separator_mod, "reduce_paths", record)
        build_separator(g, Tracker(), random.Random(seed), backend="tracked")
    return inputs


def _reduce_logged(monkeypatch, g, paths, state, goal, backend):
    """One ``reduce_paths`` call from a given rng state: the returned
    paths, the snapshot, the next rng draw, and how the call ended —
    "commit" (its last merge was committed), "A.1" (the merged set no
    longer separated), "A.2" (too few matched paths, a smaller candidate
    returned) or "other" (it stopped without committing)."""
    events = []

    def logged(name, fn):
        def call(*a, **k):
            out = fn(*a, **k)
            events.append((name, out))
            return out

        return call

    t = Tracker()
    rng = random.Random()
    rng.setstate(state)
    with monkeypatch.context() as m:
        for name in ("merge_paths", "_assemble_merged", "_fallback_candidates"):
            m.setattr(reduction, name, logged(name, getattr(reduction, name)))
        out = reduction.reduce_paths(
            g, t, copy.deepcopy(paths), rng, goal, backend=backend
        )
    # the events of the last iteration: its merge and what followed
    last = [name for name, _ in events]
    last = last[len(last) - last[::-1].index("merge_paths"):] if last else []
    end = "commit" if "_assemble_merged" in last else "other"
    if last and last[-1] == "_fallback_candidates":
        cands = events[-1][1]
        returned = [
            key for key in ("lhat_p_s", "l_p_shat")
            if out == [p for p in cands[key] if p]
        ]
        if last == ["_assemble_merged", "_fallback_candidates"]:
            assert returned == ["l_p_shat"]
            end = "A.1"
        elif returned:
            end = "A.2"
    return out, tuple(t.snapshot()), rng.random(), end


#: (family, n, graph seed, rng seed) of a tracked build_separator run ->
#: how its reductions end, and the summed (work, span) of all of them
#: per engine, as the code before P's array form charged them
_REDUCTIONS = {
    ("gnm", 300, 0, 0): (
        {"commit", "A.1"},
        {"tracked": (223524, 6104), "numpy": (220627, 3319)},
    ),
    ("spider", 100, 0, 0): (
        {"A.2"},
        {"tracked": (16131, 2311), "numpy": (18871, 1609)},
    ),
    ("spider", 400, 0, 0): (
        {"commit", "A.2"},
        {"tracked": (147586, 11588), "numpy": (204164, 8410)},
    ),
}


def _run_reductions(monkeypatch, case):
    fam, n, gseed, seed = case
    g = G.make_family(fam, n, seed=gseed)
    totals = {"tracked": (0, 0), "numpy": (0, 0)}
    ends = set()
    for paths, state, goal in _reduction_inputs(monkeypatch, g, seed):
        runs = {
            kb: _reduce_logged(monkeypatch, g, paths, state, goal, kb)
            for kb in totals
        }
        tracked, array = runs["tracked"], runs["numpy"]
        # the same paths, the same rng stream, the same ending
        assert array[0] == tracked[0]
        assert array[2] == tracked[2]
        assert array[3] == tracked[3]
        ends.add(array[3])
        for kb, run in runs.items():
            w, s = totals[kb]
            totals[kb] = (w + run[1][0], s + run[1][1])
    return ends, totals


class TestReducePathsParity:
    @pytest.mark.parametrize("case", sorted(_REDUCTIONS))
    def test_engines_agree(self, monkeypatch, case):
        assert _run_reductions(monkeypatch, case) == _REDUCTIONS[case]

    def test_every_ending_is_covered(self):
        # guard against a vacuous parity: the cases above commit merges
        # and end in both Appendix A returns
        ends = set().union(*(e for e, _ in _REDUCTIONS.values()))
        assert ends >= {"commit", "A.1", "A.2"}
