"""Unit + integration tests for the DFS service tier.

Covers the protocol boundary (validation, canonical encoding, the tree
byte-identity surface), the incremental-maintenance layer
(:mod:`repro.service.dynamic`), the resident-graph cache semantics
(:mod:`repro.service.store`), the in-process batching core via
:class:`~repro.service.server.ServiceHandle`, and a full TCP round trip.
Concurrency-heavy and fault-injection scenarios live in
``test_service_load.py`` / ``test_service_faults.py``; the stateful
model-based battery is ``test_service_stateful.py``.
"""

import asyncio
import json
import random
import threading

import pytest

from repro.core.dfs import parallel_dfs
from repro.graph.generators import make_family
from repro.graph.graph import Graph
from repro.service import (
    DFSService,
    DynamicGraph,
    GraphStore,
    ProtocolError,
    ResidentGraph,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
    ServiceServer,
    tree_bytes,
    tree_payload,
)
from repro.service import protocol


def run(coro):
    """Drive one coroutine to completion (no asyncio pytest plugin)."""
    return asyncio.run(coro)


def fresh_tree(n, edges, root, seed, kernel_backend="numpy", structure="flat"):
    """The byte-identity oracle: a fresh parallel_dfs on canonical state."""
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in edges}))
    res = parallel_dfs(
        g, root, rng=random.Random(seed),
        backend=structure, kernel_backend=kernel_backend,
    )
    return tree_payload(res.root, res.parent, res.depth)


def two_components(n_each=12, seed=0):
    """Disjoint union of two gnm instances (vertices 0..n-1, n..2n-1)."""
    a = make_family("gnm", n_each, seed=seed)
    b = make_family("gnm", n_each, seed=seed + 1)
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return a.n + b.n, edges


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_encode_is_canonical(self):
        line = protocol.encode({"b": 1, "a": [2, 3]})
        assert line == b'{"a":[2,3],"b":1}\n'

    def test_decode_round_trip(self):
        req = protocol.decode_request(
            protocol.encode({"op": "dfs", "graph": "g", "root": 3, "id": 7})
        )
        assert req == {"op": "dfs", "graph": "g", "root": 3, "id": 7}

    @pytest.mark.parametrize(
        "line,code",
        [
            (b"", "empty_line"),
            (b"   \n", "empty_line"),
            (b"{not json\n", "bad_json"),
            (b'"a string"\n', "bad_request"),
            (b'{"op":"nope"}\n', "unknown_op"),
            (b'{"op":"dfs","graph":"g"}\n', "missing_field"),
            (b'{"op":"ping","bogus":1}\n', "unknown_field"),
            (b'{"op":"dfs","graph":3,"root":0}\n', "bad_field"),
            (b'{"op":"dfs","graph":"g","root":"x"}\n', "bad_field"),
            (b'{"op":"update","graph":"g","insert":[[0]]}\n', "bad_field"),
            (b'{"op":"update","graph":"g","insert":"0-1"}\n', "bad_field"),
            (b"\xff\xfe\n", "bad_encoding"),
        ],
    )
    def test_malformed_requests(self, line, code):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(line)
        assert exc.value.code == code

    def test_oversized_line_rejected(self):
        blob = b'{"op":"ping","id":"' + b"x" * protocol.MAX_LINE + b'"}\n'
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(blob)
        assert exc.value.code == "line_too_long"

    def test_request_id_recovered_on_error(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(b'{"op":"nope","id":42}\n')
        assert exc.value.req_id == 42
        payload = protocol.error_payload(
            exc.value.code, exc.value.message, exc.value.req_id
        )
        assert payload["id"] == 42 and payload["ok"] is False

    def test_normalize_pairs_canonicalizes_order(self):
        assert protocol.normalize_pairs([[5, 2], [1, 3]], "insert") == [
            (2, 5), (1, 3),
        ]

    def test_tree_bytes_sorted_and_deterministic(self):
        t1 = tree_payload(0, {1: 0, 0: None}, {0: 0, 1: 1})
        t2 = tree_payload(0, {0: None, 1: 0}, {1: 1, 0: 0})
        assert tree_bytes(t1) == tree_bytes(t2)
        obj = json.loads(tree_bytes(t1))
        assert obj["root"] == 0 and obj["parent"]["1"] == 0


# ----------------------------------------------------------------------
# DynamicGraph: incremental maintenance
# ----------------------------------------------------------------------


class TestDynamicGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicGraph(0)
        with pytest.raises(ValueError):
            DynamicGraph(4, rebuild_fraction=2.0)
        dyn = DynamicGraph(4, [(0, 1)])
        with pytest.raises(ValueError):
            dyn.apply_batch(insert=[(0, 9)])
        with pytest.raises(ValueError):
            dyn.apply_batch(insert=[(2, 2)])
        with pytest.raises(ValueError):
            dyn.apply_batch(insert=[(1, 2)], delete=[(2, 1)])
        # validation precedes mutation: state untouched after the raises
        assert dyn.mutations == 0 and dyn.edge_pairs() == [(0, 1)]
        dyn.check_invariants()

    def test_noop_and_idempotent_skips(self):
        dyn = DynamicGraph(4, [(0, 1)])
        rep = dyn.apply_batch(insert=[(0, 1)], delete=[(2, 3)])
        assert rep.mode == "noop" and rep.mutations == 0
        assert rep.skipped_inserts == 1 and rep.skipped_deleted == 1
        assert dyn.mutations == 0
        rep = dyn.apply_batch()
        assert rep.mode == "noop"

    def test_incremental_merge_and_split_stamps(self):
        n, edges = two_components()
        # rebuild_fraction=1.0: affected can never exceed n -> always
        # the incremental HDT path
        dyn = DynamicGraph(n, edges, rebuild_fraction=1.0)
        half = n // 2
        assert not dyn.connected(0, half)
        rep = dyn.apply_batch(insert=[(0, half)])
        assert rep.mode == "incremental"
        assert rep.affected == n and rep.touched_components == 2
        assert dyn.connected(0, half) and dyn.mutations == 1
        assert all(s == 1 for s in dyn.stamp)
        rep = dyn.apply_batch(delete=[(0, half)])
        assert rep.mode == "incremental" and rep.mutations == 2
        assert not dyn.connected(0, half)
        dyn.check_invariants()

    def test_untouched_component_keeps_stamp(self):
        n, edges = two_components()
        half = n // 2
        dyn = DynamicGraph(n, edges, rebuild_fraction=1.0)
        # mutate only inside the second component
        rep = dyn.apply_batch(insert=[(half, half + 2)])
        if rep.mode == "noop":  # the pair may already exist; pick another
            rep = dyn.apply_batch(insert=[(half, half + 3)])
        assert rep.mode == "incremental"
        assert dyn.stamp[0] == 0, "first component must keep its stamp"
        assert dyn.stamp[half] == dyn.mutations
        dyn.check_invariants()

    def test_rebuild_path_invalidates_globally(self):
        n, edges = two_components()
        dyn = DynamicGraph(n, edges, rebuild_fraction=0.0)
        rep = dyn.apply_batch(insert=[(0, n // 2)])
        assert rep.mode == "rebuild" and rep.affected == n
        assert all(s == dyn.mutations for s in dyn.stamp)
        assert dyn.maintenance["rebuild_batches"] == 1
        dyn.check_invariants()

    def test_snapshot_cached_per_mutation(self):
        dyn = DynamicGraph(5, [(0, 1), (1, 2)])
        g1 = dyn.snapshot()
        assert dyn.snapshot() is g1
        dyn.apply_batch(insert=[(3, 4)])
        g2 = dyn.snapshot()
        assert g2 is not g1 and g2.m == 3

    def test_matches_recompute_over_random_schedule(self):
        rng = random.Random(7)
        n = 20
        dyn = DynamicGraph(n, [(0, 1), (2, 3)], rebuild_fraction=0.5)
        model = {(0, 1), (2, 3)}
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in model:
                dyn.apply_batch(delete=[key])
                model.discard(key)
            else:
                dyn.apply_batch(insert=[key])
                model.add(key)
            assert dyn.edge_pairs() == sorted(model)
        dyn.check_invariants()


# ----------------------------------------------------------------------
# ResidentGraph: cache semantics
# ----------------------------------------------------------------------


class TestResidentGraph:
    def test_miss_compute_install_hit(self):
        n, edges = two_components()
        rg = ResidentGraph("g", n, edges, kernel_backend="numpy")
        assert rg.lookup(0, 0) is None
        tree = rg.compute(0, 0)
        assert tree_bytes(tree) == tree_bytes(fresh_tree(n, edges, 0, 0))
        rg.install(0, 0, tree)
        assert rg.lookup(0, 0) is tree
        assert rg.hits == 1 and rg.misses == 1 and rg.hit_rate() == 0.5

    def test_update_elsewhere_preserves_cache(self):
        n, edges = two_components()
        half = n // 2
        rg = ResidentGraph(
            "g", n, edges, kernel_backend="numpy", rebuild_fraction=1.0
        )
        rg.install(0, 0, rg.compute(0, 0))
        # mutate the *other* component: stamp of root 0 unchanged
        rep = rg.dyn.apply_batch(delete=[rg.dyn.edge_pairs()[-1]])
        assert rep.mode == "incremental"
        cached = rg.lookup(0, 0)
        assert cached is not None, "untouched component must stay cached"
        # the cached tree is still byte-identical to a fresh recompute
        want = fresh_tree(n, rg.dyn.edge_pairs(), 0, 0)
        assert tree_bytes(cached) == tree_bytes(want)
        # mutate the root's own component: entry must go stale (deleting
        # an edge incident to the root always changes its component)
        incident = next(p for p in rg.dyn.edge_pairs() if 0 in p)
        rep = rg.dyn.apply_batch(delete=[incident])
        assert rep.mode == "incremental" and rep.affected > 0
        assert rg.lookup(0, 0) is None

    def test_lru_eviction(self):
        n, edges = two_components()
        rg = ResidentGraph("g", n, edges, kernel_backend="numpy", max_cache=3)
        for root in range(5):
            rg.install(root, 0, {"root": root, "parent": {}, "depth": {}})
        assert rg.cache_entries() == 3
        assert rg.lookup(0, 0) is None and rg.lookup(4, 0) is not None

    def test_bad_root_and_invalidate(self):
        n, edges = two_components()
        rg = ResidentGraph("g", n, edges, kernel_backend="numpy")
        with pytest.raises(ServiceError) as exc:
            rg.lookup(n, 0)
        assert exc.value.code == "bad_root"
        rg.install(0, 0, rg.compute(0, 0))
        rg.invalidate()
        assert rg.cache_entries() == 0


# ----------------------------------------------------------------------
# GraphStore
# ----------------------------------------------------------------------


class TestGraphStore:
    def test_load_get_drop(self):
        store = GraphStore(kernel_backend="numpy")
        rg = store.load("a", n=6, edges=[(0, 1), (2, 3)])
        assert store.get("a") is rg and "a" in store
        assert store.names() == ["a"]
        store.drop("a")
        with pytest.raises(ServiceError) as exc:
            store.get("a")
        assert exc.value.code == "no_such_graph"

    def test_load_family_and_errors(self):
        store = GraphStore(kernel_backend="numpy")
        rg = store.load("f", family="grid", n=16, seed=3)
        assert rg.dyn.n >= 16 and rg.dyn.m > 0
        with pytest.raises(ServiceError) as exc:
            store.load("x", family="nope", n=8)
        assert exc.value.code == "bad_family"
        with pytest.raises(ServiceError) as exc:
            store.load("x", family="grid")
        assert exc.value.code == "bad_graph"
        with pytest.raises(ServiceError) as exc:
            store.load("x")
        assert exc.value.code == "bad_graph"

    def test_max_graphs_and_replace(self):
        store = GraphStore(kernel_backend="numpy", max_graphs=2)
        store.load("a", n=2, edges=[])
        store.load("b", n=2, edges=[])
        with pytest.raises(ServiceError) as exc:
            store.load("c", n=2, edges=[])
        assert exc.value.code == "too_many_graphs"
        # replacing a resident name is allowed at the cap
        rg = store.load("a", n=5, edges=[(0, 4)])
        assert rg.dyn.n == 5


# ----------------------------------------------------------------------
# ServiceHandle: the in-process batching core
# ----------------------------------------------------------------------


class TestServiceHandle:
    @pytest.mark.parametrize("name", ["bogus", "rc", "lct"])
    def test_unknown_structure_fails_at_start(self, name):
        # rejected before any graph loads, not per dfs as compute_error
        with pytest.raises(ValueError, match="unknown absorption structure"):
            DFSService(ServiceConfig(structure=name))

    def test_ping_load_dfs_lockstep(self):
        async def main():
            n, edges = two_components()
            async with ServiceHandle() as h:
                assert (await h.op("ping"))["pong"] is True
                resp = await h.op(
                    "load", graph="g", n=n,
                    edges=[list(e) for e in edges],
                )
                assert resp["ok"] and resp["m"] == len(edges)
                r1 = await h.op("dfs", graph="g", root=0, seed=1)
                assert r1["ok"] and r1["cached"] is False
                want = fresh_tree(n, edges, 0, 1)
                assert tree_bytes(r1["tree"]) == tree_bytes(want)
                r2 = await h.op("dfs", graph="g", root=0, seed=1)
                assert r2["cached"] is True
                assert tree_bytes(r2["tree"]) == tree_bytes(want)
                return h.service.counters

        counters = run(main())
        assert counters["dfs_queries"] == 2 and counters["errors"] == 0

    def test_update_then_dfs_stays_lockstep(self):
        async def main():
            n, edges = two_components()
            async with ServiceHandle() as h:
                await h.op(
                    "load", graph="g", n=n,
                    edges=[list(e) for e in edges],
                )
                half = n // 2
                up = await h.op(
                    "update", graph="g", insert=[[0, half]],
                )
                assert up["ok"] and up["mutations"] == 1
                assert up["mode"] in ("incremental", "rebuild")
                post = edges + [(0, half)]
                resp = await h.op("dfs", graph="g", root=half, seed=0)
                want = fresh_tree(n, post, half, 0)
                assert tree_bytes(resp["tree"]) == tree_bytes(want)
                # deleting it again restores the original answer
                await h.op("update", graph="g", delete=[[0, half]])
                resp = await h.op("dfs", graph="g", root=0, seed=0)
                want = fresh_tree(n, edges, 0, 0)
                assert tree_bytes(resp["tree"]) == tree_bytes(want)

        run(main())

    def test_structured_errors_and_liveness(self):
        async def main():
            async with ServiceHandle() as h:
                r = await h.op("dfs", graph="ghost", root=0)
                assert not r["ok"] and r["error"]["code"] == "no_such_graph"
                r = await h.request({"op": "frobnicate"})
                assert r["error"]["code"] == "unknown_op"
                r = await h.request({"op": "dfs", "graph": "g"})
                assert r["error"]["code"] == "missing_field"
                await h.op("load", graph="g", n=4, edges=[[0, 1]])
                r = await h.op("dfs", graph="g", root=99)
                assert r["error"]["code"] == "bad_root"
                r = await h.op("update", graph="g", insert=[[0, 0]])
                assert r["error"]["code"] == "bad_update"
                # the service survived all of it
                assert (await h.op("ping"))["ok"]
                return h.service.counters

        counters = run(main())
        assert counters["errors"] == 5

    def test_stats_and_graphs_ops(self):
        async def main():
            async with ServiceHandle() as h:
                await h.op("load", graph="g", family="gnm", n=16, seed=0)
                await h.op("dfs", graph="g", root=0)
                await h.op("dfs", graph="g", root=0)
                r = await h.op("graphs")
                assert r["graphs"] == ["g"]
                r = await h.op("stats")
                assert r["service"]["responses"] >= 4
                gstats = r["graphs"]["g"]
                assert gstats["cache_hits"] == 1
                assert gstats["kernel_backend"] == "numpy"
                r = await h.op("stats", graph="g")
                assert r["stats"]["mutations"] == 0
                r = await h.op("drop", graph="g")
                assert r["dropped"] is True

        run(main())

    def test_submit_before_start_is_unavailable(self):
        async def main():
            h = ServiceHandle()
            r = await h.request({"op": "ping"})
            assert r["error"]["code"] == "unavailable"

        run(main())

    def test_verify_every_self_audit(self):
        async def main():
            cfg = ServiceConfig(verify_every=1)
            n, edges = two_components()
            async with ServiceHandle(cfg) as h:
                await h.op(
                    "load", graph="g", n=n, edges=[list(e) for e in edges]
                )
                for root in (0, 1, n // 2):
                    r = await h.op("dfs", graph="g", root=root)
                    assert r["ok"], r
                return h.service.counters

        counters = run(main())
        assert counters["lockstep_checks"] == 3
        assert counters["lockstep_violations"] == 0


# ----------------------------------------------------------------------
# TCP round trip
# ----------------------------------------------------------------------


class ServerThread:
    """A ServiceServer on its own event-loop thread (blocking-client tests)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config
        self._ready = threading.Event()
        self._loop = None
        self._stop_event = None
        self.address = None
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = ServiceServer(DFSService(self._config))
        await self.server.start()
        self.address = self.server.address
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(10)


class TestTCPRoundTrip:
    def test_full_session(self):
        n, edges = two_components()
        with ServerThread() as srv:
            host, port = srv.address
            with ServiceClient(host, port) as c:
                assert c.op("ping")["pong"] is True
                r = c.op(
                    "load", graph="g", n=n, edges=[list(e) for e in edges]
                )
                assert r["ok"] and r["m"] == len(edges)
                r = c.op("dfs", graph="g", root=0, seed=2, id="q1")
                assert r["ok"] and r["id"] == "q1"
                want = fresh_tree(n, edges, 0, 2)
                assert tree_bytes(r["tree"]) == tree_bytes(want)
                r = c.op("update", graph="g", insert=[[0, n // 2]])
                assert r["ok"] and r["mutations"] == 1
                r = c.op("dfs", graph="g", root=0, seed=2)
                want = fresh_tree(n, edges + [(0, n // 2)], 0, 2)
                assert tree_bytes(r["tree"]) == tree_bytes(want)
                r = c.op("dfs", graph="g", root=n + 5)
                assert not r["ok"] and r["error"]["code"] == "bad_root"
                assert c.op("ping")["ok"]

    def test_two_clients_share_resident_state(self):
        with ServerThread() as srv:
            host, port = srv.address
            with ServiceClient(host, port) as c1:
                c1.op("load", graph="g", family="gnm", n=24, seed=1)
                t1 = c1.op("dfs", graph="g", root=0)["tree"]
            with ServiceClient(host, port) as c2:
                r = c2.op("dfs", graph="g", root=0)
                assert r["cached"] is True
                assert tree_bytes(r["tree"]) == tree_bytes(t1)
