"""Fault-injection battery for the DFS service.

Each scenario injects one failure — a client vanishing mid-batch, a
worker thread raising during a batched DFS compute, an oversized or
malformed protocol line — and asserts the containment contract of
docs/service.md: the offending request gets a structured error (or its
response is dropped with the client), resident graphs and caches stay
consistent (the next query is still byte-identical to a fresh
recompute), and the server keeps serving everyone else.
"""

import asyncio
import random
import socket

from repro.core.dfs import parallel_dfs
from repro.graph.generators import make_family
from repro.graph.graph import Graph
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceHandle,
    protocol,
    tree_bytes,
    tree_payload,
)
from tests.test_service import ServerThread, run


def _oracle_bytes(n, edges, root, seed):
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in edges}))
    res = parallel_dfs(
        g, root, rng=random.Random(seed),
        backend="flat", kernel_backend="numpy",
    )
    return tree_bytes(tree_payload(res.root, res.parent, res.depth))


def _family_edges(n=20, seed=0):
    g = make_family("gnm", n, seed=seed)
    return g.n, [list(e) for e in g.edges]


# ----------------------------------------------------------------------
# client disconnect mid-batch
# ----------------------------------------------------------------------


def test_client_disconnect_mid_batch_server_survives():
    n, edges = _family_edges()
    with ServerThread() as srv:
        host, port = srv.address
        with ServiceClient(host, port) as c:
            assert c.op("load", graph="g", n=n, edges=edges)["ok"]
        # fire a burst of queries and slam the socket shut without ever
        # reading a response: the computes are in flight when the
        # connection dies, and their writes land on a dead writer
        raw = socket.create_connection((host, port))
        for root in range(8):
            raw.sendall(protocol.encode(
                {"op": "dfs", "graph": "g", "root": root, "id": root}
            ))
        raw.close()
        # a fresh client is served correctly afterwards, and the
        # resident state was never corrupted
        with ServiceClient(host, port) as c:
            assert c.op("ping")["pong"] is True
            r = c.op("dfs", graph="g", root=3, seed=0)
            assert r["ok"]
            assert tree_bytes(r["tree"]) == _oracle_bytes(n, edges, 3, 0)


def test_abrupt_reset_during_update_keeps_graph_consistent():
    n, edges = _family_edges()
    with ServerThread() as srv:
        host, port = srv.address
        with ServiceClient(host, port) as c:
            c.op("load", graph="g", n=n, edges=edges)
        raw = socket.create_connection((host, port))
        # RST instead of FIN: no graceful close handshake
        raw.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        raw.sendall(protocol.encode(
            {"op": "update", "graph": "g", "insert": [[0, n - 1]]}
        ))
        raw.close()
        with ServiceClient(host, port) as c:
            # whether or not the update landed before the reset, the
            # served tree must match a fresh recompute of the *served*
            # state — read the live edge set through the stats op
            stats = c.op("stats", graph="g")["stats"]
            r = c.op("dfs", graph="g", root=0, seed=1)
            assert r["ok"] and r["mutations"] == stats["mutations"]
            live = edges + [[0, n - 1]] if stats["mutations"] else edges
            assert tree_bytes(r["tree"]) == _oracle_bytes(n, live, 0, 1)


# ----------------------------------------------------------------------
# worker exception during a batched DFS compute
# ----------------------------------------------------------------------


def test_worker_exception_is_contained_and_cache_stays_clean():
    async def main():
        n, edges = _family_edges()
        async with ServiceHandle(
            ServiceConfig(kernel_backend="numpy")
        ) as h:
            await h.op("load", graph="g", n=n, edges=edges)
            rg = h.service.store.get("g")
            real_compute = rg.compute

            def bomb(root, seed):
                if root == 5:
                    raise RuntimeError("injected worker fault")
                return real_compute(root, seed)

            rg.compute = bomb
            # one poisoned and two healthy queries share a batch
            poisoned, ok1, ok2 = await asyncio.gather(
                h.op("dfs", graph="g", root=5, seed=0),
                h.op("dfs", graph="g", root=1, seed=0),
                h.op("dfs", graph="g", root=2, seed=0),
            )
            assert not poisoned["ok"]
            assert poisoned["error"]["code"] == "compute_error"
            assert "injected worker fault" in poisoned["error"]["message"]
            for r, root in ((ok1, 1), (ok2, 2)):
                assert r["ok"], r
                assert tree_bytes(r["tree"]) == _oracle_bytes(
                    n, edges, root, 0
                )
            # the failed compute must not have installed anything
            assert rg.lookup(5, 0) is None
            rg.compute = real_compute
            r = await h.op("dfs", graph="g", root=5, seed=0)
            assert r["ok"] and r["cached"] is False
            assert tree_bytes(r["tree"]) == _oracle_bytes(n, edges, 5, 0)
            return dict(h.service.counters)

    counters = run(main())
    assert counters["errors"] == 1  # exactly the poisoned response
    assert counters["lockstep_violations"] == 0


def test_update_exception_leaves_state_untouched():
    async def main():
        n, edges = _family_edges()
        async with ServiceHandle() as h:
            await h.op("load", graph="g", n=n, edges=edges)
            before = (await h.op("stats", graph="g"))["stats"]
            r = await h.op(
                "update", graph="g",
                insert=[[0, 1_000_000]],  # out of range: rejected
            )
            assert not r["ok"] and r["error"]["code"] == "bad_update"
            after = (await h.op("stats", graph="g"))["stats"]
            assert after["mutations"] == before["mutations"]
            assert after["m"] == before["m"]
            q = await h.op("dfs", graph="g", root=0, seed=0)
            assert tree_bytes(q["tree"]) == _oracle_bytes(n, edges, 0, 0)

    run(main())


# ----------------------------------------------------------------------
# protocol-level faults on a live socket
# ----------------------------------------------------------------------


def test_malformed_line_gets_error_and_connection_continues():
    with ServerThread() as srv:
        host, port = srv.address
        with ServiceClient(host, port) as c:
            c._sock.sendall(b"this is not json\n")
            resp = __import__("json").loads(c._rfile.readline())
            assert not resp["ok"] and resp["error"]["code"] == "bad_json"
            # same connection keeps working
            assert c.op("ping")["pong"] is True
            c._sock.sendall(b'{"op":"dfs"}\n')
            resp = __import__("json").loads(c._rfile.readline())
            assert resp["error"]["code"] == "missing_field"
            assert c.op("ping")["pong"] is True


def test_oversized_line_closes_only_that_connection():
    with ServerThread() as srv:
        host, port = srv.address
        raw = socket.create_connection((host, port))
        rfile = raw.makefile("rb")
        blob = b'{"pad":"' + b"x" * (protocol.MAX_LINE + 64) + b'"}\n'
        raw.sendall(blob)
        line = rfile.readline(protocol.MAX_LINE + 1)
        resp = __import__("json").loads(line)
        assert not resp["ok"] and resp["error"]["code"] == "line_too_long"
        # the stream is out of sync, so the server hangs up on us...
        assert rfile.readline() == b""
        raw.close()
        # ...but only on us
        with ServiceClient(host, port) as c:
            assert c.op("ping")["pong"] is True


def test_empty_lines_are_skipped_not_answered():
    with ServerThread() as srv:
        host, port = srv.address
        with ServiceClient(host, port) as c:
            c._sock.sendall(b"\n\n")
            assert c.op("ping", id="after-blanks")["id"] == "after-blanks"


# ----------------------------------------------------------------------
# JSON booleans are not integers
# ----------------------------------------------------------------------


def test_boolean_sizes_roots_and_seeds_are_rejected():
    cases = [
        {"op": "load", "graph": "g", "n": True, "edges": []},
        {"op": "dfs", "graph": "g", "root": False, "seed": 0},
        {"op": "dfs", "graph": "g", "root": 0, "seed": True},
    ]
    for req in cases:
        try:
            protocol.validate_request(dict(req, id=7))
        except protocol.ProtocolError as exc:
            assert exc.code == "bad_field"
            assert exc.req_id == 7
        else:
            raise AssertionError(f"accepted {req}")


def test_boolean_vertex_ids_in_pairs_are_rejected():
    for field, op in (("edges", "load"), ("insert", "update"),
                      ("delete", "update")):
        req = {"op": op, "graph": "g", field: [[0, 1], [True, 2]]}
        if op == "load":
            req["n"] = 3
        try:
            protocol.validate_request(req)
        except protocol.ProtocolError as exc:
            assert exc.code == "bad_field"
            assert field in str(exc)
        else:
            raise AssertionError(f"accepted {req}")


def test_boolean_fields_get_a_structured_error_in_process():
    async def main():
        n, edges = _family_edges()
        async with ServiceHandle() as h:
            r = await h.op("load", graph="b", n=True, edges=[])
            assert not r["ok"] and r["error"]["code"] == "bad_field"
            await h.op("load", graph="g", n=n, edges=edges)
            r = await h.op("update", graph="g", insert=[[False, 5]])
            assert not r["ok"] and r["error"]["code"] == "bad_field"
            r = await h.op("dfs", graph="g", root=True, seed=0)
            assert not r["ok"] and r["error"]["code"] == "bad_field"
            # the graph is untouched and still answers correctly
            q = await h.op("dfs", graph="g", root=0, seed=0)
            assert tree_bytes(q["tree"]) == _oracle_bytes(n, edges, 0, 0)

    run(main())


# ----------------------------------------------------------------------
# size limits: a short line must not make the server allocate O(n)
# ----------------------------------------------------------------------


def test_oversized_loads_are_rejected_at_the_boundary():
    big = protocol.MAX_N + 1
    cases = [
        {"op": "load", "graph": "g", "n": big, "edges": []},
        {"op": "load", "graph": "g", "family": "gnm", "n": 10**9, "seed": 0},
        {"op": "load", "graph": "g", "n": 4,
         "edges": [[0, 1]] * (protocol.MAX_M + 1)},
        {"op": "update", "graph": "g",
         "insert": [[0, 1]] * (protocol.MAX_M + 1)},
    ]
    for req in cases:
        try:
            protocol.validate_request(dict(req, id="x"))
        except protocol.ProtocolError as exc:
            assert exc.code == "too_large" and exc.req_id == "x"
        else:
            raise AssertionError(f"accepted {req['op']} of size {req.get('n')}")
    # the limits themselves are accepted
    ok = {"op": "load", "graph": "g", "family": "gnm",
          "n": protocol.MAX_N, "seed": 0}
    assert protocol.validate_request(ok) is ok


def test_oversized_loads_get_a_structured_error_over_tcp():
    with ServerThread() as srv:
        host, port = srv.address
        with ServiceClient(host, port) as c:
            for req in (
                {"graph": "e", "n": 10**9, "edges": []},
                {"graph": "f", "family": "path", "n": 10**9, "seed": 1},
            ):
                r = c.op("load", **req)
                assert not r["ok"] and r["error"]["code"] == "too_large"
            assert c.op("graphs")["graphs"] == []
            n, edges = _family_edges()
            assert c.op("load", graph="g", n=n, edges=edges)["ok"]
            q = c.op("dfs", graph="g", root=0, seed=0)
            assert tree_bytes(q["tree"]) == _oracle_bytes(n, edges, 0, 0)


def test_update_cannot_grow_a_graph_past_the_edge_limit(monkeypatch):
    import repro.service.dynamic as dynamic

    async def main():
        n, edges = _family_edges()
        async with ServiceHandle() as h:
            await h.op("load", graph="g", n=n, edges=edges)
            monkeypatch.setattr(dynamic, "MAX_M", len(edges) + 1)
            new = [[u, v] for u in range(n) for v in range(u + 1, n)
                   if [u, v] not in edges][:2]
            r = await h.op("update", graph="g", insert=new)
            assert not r["ok"] and r["error"]["code"] == "bad_update"
            assert "edges" in r["error"]["message"]
            # state untouched; one edge still fits
            q = await h.op("dfs", graph="g", root=0, seed=0)
            assert tree_bytes(q["tree"]) == _oracle_bytes(n, edges, 0, 0)
            r = await h.op("update", graph="g", insert=new[:1])
            assert r["ok"] and r["inserted"] == 1

    run(main())
