"""The service's miss path: the root's component graph.

On a cache miss :meth:`~repro.service.store.ResidentGraph.compute` runs
``parallel_dfs`` on :meth:`~repro.service.dynamic.DynamicGraph.
component_graph` — the root's component, built from the resident forest
and its incidence lists — instead of on the whole-graph snapshot.  That
is exact when

* the component graph equals ``core.dfs._induced(snapshot, vertices)``
  in ``edges``, ``adj`` and ``adj_eids`` (the first ``solve`` of a
  whole-graph ``parallel_dfs`` runs on exactly that graph), and
* the served tree, mapped back to global ids, is byte-identical to a
  fresh whole-graph ``parallel_dfs``.

Both are checked on both engines over random insert/delete streams that
take the incremental and the rebuild path, plus the shapes a stream may
miss: an isolated root, a base-case component (<= 16 vertices), edges
inserted after load (edge ids past the initial m, out of canonical
order in the incidence lists) and the state after a rebuild.  The
component graph is cached per mutation counter.  The last test pins that the ``--verify-every`` audit is an oracle independent of
the miss path: a wrong miss path is caught as a ``lockstep_violation``.
"""

import asyncio
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.dfs import _induced, parallel_dfs
from repro.graph.generators import make_family
from repro.pram.tracker import Tracker
from repro.service import ServiceConfig, ServiceHandle, tree_bytes, tree_payload
from repro.service.store import ResidentGraph

BACKENDS = ("tracked", "numpy")

#: gnm components of these sizes (two past the base-case cutoff of 16,
#: one under it), then two isolated vertices
SIZES = (24, 20, 10)
N = sum(SIZES) + 2


def _load_edges() -> list[tuple[int, int]]:
    edges = []
    base = 0
    for k, size in enumerate(SIZES):
        g = make_family("gnm", size, seed=k)
        edges += [(u + base, v + base) for u, v in g.edges]
        base += size
    return edges


def _resident(kb: str, rebuild_fraction: float = 0.5) -> ResidentGraph:
    # a single component stays under rebuild_fraction * N; a merge of
    # the two largest lands over it (the rebuild path)
    return ResidentGraph(
        "g", N, _load_edges(), kernel_backend=kb,
        rebuild_fraction=rebuild_fraction,
    )


def check_miss(rg: ResidentGraph, root: int, seed: int) -> None:
    """Component graph == induced snapshot; served tree == whole-graph tree."""
    dyn = rg.dyn
    g = dyn.snapshot()
    sub, vertices = dyn.component_graph(root)
    comp = next(c for c in g.connected_components_seq() if root in c)
    assert vertices == sorted(comp)
    ref, _ = _induced(g, vertices, Tracker())
    assert sub.n == ref.n == len(vertices)
    assert sub.edges == ref.edges
    assert sub.adj == ref.adj
    assert sub.adj_eids == ref.adj_eids
    res = parallel_dfs(
        g, root, rng=random.Random(seed), kernel_backend=rg.kernel_backend
    )
    want = tree_payload(res.root, res.parent, res.depth)
    assert tree_bytes(rg.compute(root, seed)) == tree_bytes(want), (
        f"miss path diverges at root={root} seed={seed} "
        f"mutations={dyn.mutations}"
    )


@pytest.mark.parametrize("kb", BACKENDS)
@given(
    steps=st.lists(
        st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=6,
    ),
    seed=st.integers(0, 3),
)
@settings(max_examples=12, deadline=None)
def test_random_streams(kb, steps, seed):
    rg = _resident(kb)
    for batch in steps:
        ins, dels = set(), set()
        for u, v in batch:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in ins or key in dels:
                continue
            (dels if rg.dyn.has_edge(*key) else ins).add(key)
        rg.dyn.apply_batch(insert=sorted(ins), delete=sorted(dels))
        for root in sorted({batch[0][0], batch[-1][1]}):
            check_miss(rg, root, seed)


@pytest.mark.parametrize("kb", BACKENDS)
def test_isolated_root(kb):
    rg = _resident(kb)
    root = N - 1
    sub, vertices = rg.dyn.component_graph(root)
    assert vertices == [root] and sub.n == 1 and sub.m == 0
    check_miss(rg, root, 0)
    assert rg.compute(root, 0)["parent"] == {str(root): None}


@pytest.mark.parametrize("kb", BACKENDS)
def test_base_case_component(kb):
    rg = _resident(kb)
    root = SIZES[0] + SIZES[1] + 3
    assert rg.dyn.component_size(root) == SIZES[2] <= 16
    for seed in range(3):
        check_miss(rg, root, seed)


@pytest.mark.parametrize("kb", BACKENDS)
def test_inserted_edges_past_initial_m(kb):
    rg = _resident(kb)
    m0 = rg.dyn.m
    # vertex 0's highest neighbor already has a low edge id; an insert
    # towards a lower, non-adjacent vertex gets an id past m0, so the
    # incidence list is out of canonical pair order until sorted
    hi = max(w for w in range(SIZES[0]) if rg.dyn.has_edge(0, w))
    lo = next(w for w in range(1, hi) if not rg.dyn.has_edge(0, w))
    report = rg.dyn.apply_batch(insert=[(0, lo)])
    assert report.mode == "incremental"
    inc = rg.dyn._hdt.live_incident(0)
    assert max(inc) >= m0
    assert [rg.dyn._hdt.endpoints[e] for e in inc] != sorted(
        rg.dyn._hdt.endpoints[e] for e in inc
    )
    for root in (0, lo, SIZES[0] - 1):
        check_miss(rg, root, 1)
    # and after a delete of a load-time edge of the same vertex
    rg.dyn.apply_batch(delete=[(0, hi)])
    check_miss(rg, 0, 2)


@pytest.mark.parametrize("kb", BACKENDS)
def test_after_rebuild(kb):
    rg = _resident(kb)
    bridge = (1, SIZES[0] + 1)
    report = rg.dyn.apply_batch(insert=[bridge])
    assert report.mode == "rebuild"
    for root in (1, SIZES[0] + 5, N - 2):
        check_miss(rg, root, 0)
    report = rg.dyn.apply_batch(delete=[bridge], insert=[(2, N - 2)])
    assert report.mode == "rebuild"
    for root in (2, SIZES[0] + 1, N - 2):
        check_miss(rg, root, 3)


def test_cached_per_mutation():
    rg = _resident("numpy")
    dyn = rg.dyn
    first = dyn.component_graph(3)
    # any vertex of the component, same mutation counter: the same build
    assert dyn.component_graph(SIZES[0] - 1) is first
    # an update elsewhere still bumps the counter: a fresh, equal build
    dyn.apply_batch(insert=[(SIZES[0], N - 1)])
    again = dyn.component_graph(3)
    assert again is not first
    assert again[0].edges == first[0].edges and again[1] == first[1]
    check_miss(rg, 3, 0)


def test_verify_every_catches_a_wrong_miss_path(monkeypatch):
    """The self-audit recomputes on the whole graph, not through the
    miss path, so a wrong miss path is a lockstep violation."""
    real = ResidentGraph.compute

    def wrong(self, root, seed):
        tree = real(self, root, seed)
        depth = dict(tree["depth"])
        depth[str(root)] = 1
        return {**tree, "depth": depth}

    monkeypatch.setattr(ResidentGraph, "compute", wrong)

    async def main():
        async with ServiceHandle(ServiceConfig(verify_every=1)) as h:
            await h.op(
                "load", graph="g", n=N, edges=[list(e) for e in _load_edges()]
            )
            resp = await h.request(
                {"op": "dfs", "graph": "g", "root": 0, "id": "miss"}
            )
            return resp, h.service.counters, dict(h.service.recorder.anomalies)

    resp, counters, anomalies = asyncio.run(main())
    assert not resp["ok"]
    assert resp["error"]["code"] == "lockstep_violation"
    assert counters["lockstep_checks"] == 1
    assert counters["lockstep_violations"] == 1
    assert anomalies.get("lockstep_violation") == 1
