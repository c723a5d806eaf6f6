"""Base cases in one pass, and the first component without a copy.

On the numpy engine the driver solves all of a component's base-case
children (at most ``small_cutoff`` vertices) in one pass over the input
graph's CSR (``core.dfs._base_cases``) and charges each child, inside
the same ``parallel_for``, what solving it alone charges. The tracked
engine keeps the per-component loop (``core.dfs._base_case``: induce,
``sequential_dfs``, depth walk). Both must give the same trees, rng
state, charges and stats. ``_induced`` returns the input graph itself
when the component is all of it and the copy would be identical.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.analysis.trace import trace_dfs
from repro.core import dfs
from repro.graph.generators import make_family
from repro.obs.profile import PhaseProfiler
from repro.pram import Tracker
from repro.service.dynamic import DynamicGraph

FAMILIES = [("gnm", 600), ("grid", 400), ("spider", 400), ("path", 300)]


def _run(g, cutoff, kb="numpy"):
    t = Tracker()
    rng = random.Random(11)
    res = dfs.parallel_dfs(
        g, 3, tracker=t, rng=rng, small_cutoff=cutoff, kernel_backend=kb
    )
    stats = {k: v for k, v in res.stats.items() if not k.startswith("seconds_")}
    return res.parent, res.depth, res.levels, stats, tuple(t.snapshot()), rng.getstate()


def _per_component(g, children, parent, depth, pos):
    """The per-component loop over the same children, each charged on a
    tracker of its own."""
    assert (pos == -1).all()
    costs = []
    for vs, root, d0 in children:
        assert vs == sorted(vs) and root in vs
        t = Tracker()
        dfs._base_case(g, vs, root, d0, parent, depth, t, "numpy", PhaseProfiler())
        costs.append(tuple(t.snapshot()))
    return costs


@pytest.mark.parametrize("cutoff", [1, 8, 16, 100])
@pytest.mark.parametrize("family,n", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_one_pass_matches_per_component_loop(monkeypatch, family, n, cutoff):
    g = make_family(family, n, seed=5)
    passes = []
    one_pass = dfs._base_cases

    def checked(g, children, parent, depth, pos):
        # the pass and the loop write the same parents and depths and
        # charge the same per child
        p_ref, d_ref = dict(parent), dict(depth)
        want = _per_component(g, children, p_ref, d_ref, pos)
        got = one_pass(g, children, parent, depth, pos)
        assert [tuple(c) for c in got] == want
        assert (parent, depth) == (p_ref, d_ref)
        assert (pos == -1).all(), "the pass left positions behind"
        passes.append(len(children))
        return got

    want = _run(g, cutoff)
    monkeypatch.setattr(dfs, "_base_cases", _per_component)
    assert _run(g, cutoff) == want
    monkeypatch.setattr(dfs, "_base_cases", checked)
    assert _run(g, cutoff) == want
    # the tracked engine (per-component loop) builds the same tree
    assert _run(g, cutoff, "tracked")[:4] == want[:4]
    assert want[3]["sequential_base_cases"] == sum(passes)
    if cutoff >= 8 and family != "path":
        assert max(passes) > 1, "no pass solved several children"


def test_one_span_per_pass():
    g = make_family("gnm", 600, seed=5)
    res, trc, _ = trace_dfs(g, seed=3, kernel_backend="numpy")
    names = [s.name for s in trc.spans]
    stats = res.stats
    # a base case opens no dfs.solve span of its own, and a pass opens
    # one phase span for all its children
    assert names.count("dfs.solve") == (
        stats["components_processed"] - stats["sequential_base_cases"]
    )
    assert 0 < names.count("phase:base-case") < stats["sequential_base_cases"]
    assert "phase:induce" in names


def _layout(g):
    return copy.deepcopy((g.n, g.edges, g.adj, g.adj_eids))


@pytest.mark.parametrize("family", ["gnm", "grid", "path", "spider"])
def test_whole_graph_is_reused_when_the_copy_would_equal_it(family):
    g = make_family(family, 300, seed=2)
    vs = list(range(g.n))
    t_np, t_ref = Tracker(), Tracker()
    sub, mapping = dfs._induced(g, vs, t_np, backend="numpy")
    ref, ref_map = dfs._induced(g, vs, t_ref, backend="tracked")
    assert _layout(sub) == _layout(ref)
    assert mapping == ref_map
    assert t_np.snapshot() == t_ref.snapshot()
    # the spider's edges are not in the order _induced emits them
    assert (sub is g) == (family != "spider")


def test_service_component_graph_is_reused():
    dyn = DynamicGraph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (5, 6)])
    cg, _ = dyn.component_graph(1)
    assert dfs._is_whole(cg, list(range(cg.n)))


def test_a_proper_subset_is_copied():
    g = make_family("gnm", 50, seed=1)
    sub, _ = dfs._induced(g, list(range(g.n - 1)), Tracker(), backend="numpy")
    assert sub is not g and sub.n == g.n - 1


@pytest.mark.parametrize("family", ["gnm", "spider"])
def test_parallel_dfs_leaves_the_input_graph_as_it_was(family):
    g = make_family(family, 400, seed=4)
    before = _layout(g)
    dfs.parallel_dfs(g, 0, rng=random.Random(1), kernel_backend="numpy")
    assert _layout(g) == before
