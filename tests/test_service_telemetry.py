"""Integration tests for the service's live telemetry plane.

The acceptance surface of the observability tier: a slow request must
produce a flight-recorder dump whose span tree reconstructs the request
end-to-end (client request id -> batch -> compute -> DFS phase spans),
the ``stats`` op must carry the server provenance block and the
OpenMetrics exposition, anomalies (protocol errors, lockstep
violations) must land in the recorder, and — the zero-overhead
contract — served trees must stay byte-identical with the recorder on.
"""

import asyncio
import json
import random

from repro.core.dfs import parallel_dfs
from repro.graph.graph import Graph
from repro.obs import Metrics, Tracer, activate, validate_trace_events
from repro.obs.flight import recorder, NULL_RECORDER
from repro.service import (
    DFSService,
    ServiceConfig,
    ServiceHandle,
    ServiceServer,
    tree_payload,
)
from repro.service.client import ServiceClient
from repro.service.server import git_sha


def run(coro):
    return asyncio.run(coro)


def ring_graph(n=24):
    return n, [[i, (i + 1) % n] for i in range(n)]


async def load_ring(h, name="g", n=24):
    n, edges = ring_graph(n)
    resp = await h.request(
        {"op": "load", "graph": name, "n": n, "edges": edges}
    )
    assert resp["ok"], resp
    return n


# ----------------------------------------------------------------------
# the headline: slow request -> dump -> end-to-end reconstruction
# ----------------------------------------------------------------------


class TestSlowRequestDump:
    def test_slow_request_dump_reconstructs_request(self, tmp_path):
        # an SLO no real compute can meet: every dfs response is an
        # anomaly, so the dump is produced deterministically
        config = ServiceConfig(
            slo_ms=0.000001, flight_dir=str(tmp_path)
        )

        async def main():
            async with ServiceHandle(config) as h:
                await load_ring(h)
                resp = await h.request(
                    {"op": "dfs", "graph": "g", "root": 0, "id": "cli-42"}
                )
                assert resp["ok"], resp
                rec = h.service.recorder
                assert rec.anomalies.get("slow_request", 0) >= 1
                return list(rec.dumps)

        dumps = run(main())
        assert dumps, "slow request produced no flight dump"
        # the load request trips the micro-SLO too; the dfs request's
        # anomaly is the most recent dump
        with open(dumps[-1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        # the bundle is schema-valid Perfetto
        assert validate_trace_events(events) == []
        # ... and the client's request id threads the whole story:
        mine = [
            e for e in events
            if e["args"].get("request_id") == "cli-42"
        ]
        names = [e["name"] for e in mine]
        # the batch span lists the request in its coalescing window
        batches = [
            e for e in events
            if e["name"] == "service.batch"
            and "cli-42" in e["args"].get("requests", [])
        ]
        assert batches, "no batch span names the request"
        # the executor-side compute span carries the id (bound_call
        # crossed the thread boundary) ...
        computes = [e for e in mine if e["name"] == "service.compute"]
        assert computes and computes[0]["args"]["graph"] == "g"
        # ... and so do the DFS phase spans underneath it
        assert any(n.startswith("phase:") for n in names) or any(
            n == "parallel_dfs" for n in names
        )
        # the anomaly instant event closes the loop
        assert any(n == "anomaly.slow_request" for n in names)
        # the request-completion event carries the measured latency
        reqs = [e for e in mine if e["name"] == "service.request"]
        assert reqs and reqs[0]["args"]["latency_ms"] > 0
        assert doc["otherData"]["reason"] == "slow_request"

    def test_no_dump_when_slo_met(self, tmp_path):
        config = ServiceConfig(slo_ms=60_000.0, flight_dir=str(tmp_path))

        async def main():
            async with ServiceHandle(config) as h:
                await load_ring(h)
                resp = await h.request(
                    {"op": "dfs", "graph": "g", "root": 0}
                )
                assert resp["ok"]
                return dict(h.service.recorder.anomalies)

        anomalies = run(main())
        assert "slow_request" not in anomalies
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# stats: provenance block + OpenMetrics exposition
# ----------------------------------------------------------------------


class TestStatsExposition:
    def test_server_block_has_provenance(self):
        async def main():
            async with ServiceHandle() as h:
                await load_ring(h)
                await h.request({"op": "dfs", "graph": "g", "root": 0})
                return await h.request({"op": "stats"})

        resp = run(main())
        srv = resp["server"]
        assert srv["git_sha"] == git_sha()
        assert srv["kernel_backend"] == "numpy"
        assert srv["structure"] == "flat"
        assert srv["uptime_s"] >= 0
        assert srv["flight"]["capacity"] == 4096
        assert srv["flight"]["spans"] > 0

    def test_openmetrics_format(self):
        async def main():
            async with ServiceHandle() as h:
                await load_ring(h)
                await h.request({"op": "dfs", "graph": "g", "root": 0})
                await h.request({"op": "dfs", "graph": "g", "root": 0})
                return await h.request(
                    {"op": "stats", "format": "openmetrics"}
                )

        resp = run(main())
        text = resp["openmetrics"]
        assert text.endswith("# EOF\n")
        assert "repro_service_requests_total" in text
        assert "repro_service_dfs_queries_total 2" in text
        assert "repro_service_cache_hits_total 1" in text
        assert 'repro_graph_n{graph="g"} 24' in text
        assert (
            f'git_sha="{git_sha()}"' in text
            and "repro_server_build_info" in text
        )
        assert 'repro_service_latency_ms{quantile="0.99"}' in text
        assert "repro_flight_spans" in text
        # no duplicate unlabelled sample lines anywhere
        samples = [
            line.split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))

    def test_bad_format_is_a_protocol_error(self):
        async def main():
            async with ServiceHandle() as h:
                return await h.request({"op": "stats", "format": "xml"})

        resp = run(main())
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_field"

    def test_openmetrics_over_tcp_and_protocol_error_anomaly(self):
        async def main():
            service = DFSService()
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            loop = asyncio.get_running_loop()

            def poll():
                with ServiceClient(host, port, timeout=10) as c:
                    c._sock.sendall(b"this is not json\n")
                    bad = json.loads(c._rfile.readline())
                    om = c.request({"op": "stats", "format": "openmetrics"})
                    return bad, om

            bad, om = await loop.run_in_executor(None, poll)
            await server.stop()
            return bad, om, dict(service.recorder.anomalies)

        bad, om, anomalies = run(main())
        assert not bad["ok"] and bad["error"]["code"] == "bad_json"
        assert anomalies.get("protocol_error") == 1
        assert 'reason="protocol_error"' in om["openmetrics"]


# ----------------------------------------------------------------------
# anomalies: lockstep violation, recorder install scoping
# ----------------------------------------------------------------------


class TestAnomalies:
    def test_lockstep_violation_fires_anomaly(self, monkeypatch):
        config = ServiceConfig(verify_every=1)

        async def main():
            async with ServiceHandle(config) as h:
                await load_ring(h)
                rg = h.service.store.get("g")
                real = rg.compute(0, 0)
                corrupt = dict(real)
                corrupt["depth"] = dict(real["depth"])
                corrupt["depth"]["1"] = 99999
                monkeypatch.setattr(
                    type(rg), "lookup", lambda self, r, s: corrupt
                )
                resp = await h.request(
                    {"op": "dfs", "graph": "g", "root": 0, "id": "bad"}
                )
                return resp, dict(h.service.recorder.anomalies)

        resp, anomalies = run(main())
        assert not resp["ok"]
        assert resp["error"]["code"] == "lockstep_violation"
        assert anomalies.get("lockstep_violation") == 1

    def test_recorder_installed_for_lifetime_only(self):
        async def main():
            service = DFSService()
            assert recorder() is NULL_RECORDER
            await service.start()
            installed = recorder()
            await service.stop()
            return installed is service.recorder, recorder()

        was_installed, after = run(main())
        assert was_installed
        assert after is NULL_RECORDER

    def test_recorder_joins_outer_activate_scope(self):
        tr = Tracer()
        mtr = Metrics()
        with activate(tr, mtr):
            async def main():
                async with ServiceHandle() as h:
                    await load_ring(h)
                    await h.request({"op": "dfs", "graph": "g", "root": 0})
                    return h.service.recorder

            rec = run(main())
        assert rec.tracer is tr and rec.metrics is mtr
        assert any(s.name == "service.compute" for s in tr.spans)


# ----------------------------------------------------------------------
# the zero-overhead contract: byte-identity with the recorder on
# ----------------------------------------------------------------------


class TestByteIdentityWithRecorderOn:
    def test_served_tree_matches_untraced_oracle(self):
        n, edges = ring_graph(32)
        g = Graph(
            n, sorted({(min(u, v), max(u, v)) for u, v in edges})
        )
        oracle = parallel_dfs(
            g, 0, rng=random.Random(0), backend="flat",
            kernel_backend="numpy",
        )
        expected = tree_payload(oracle.root, oracle.parent, oracle.depth)

        async def main():
            async with ServiceHandle() as h:
                await h.request(
                    {"op": "load", "graph": "g", "n": n, "edges": edges}
                )
                return await h.request(
                    {"op": "dfs", "graph": "g", "root": 0, "id": "x"}
                )

        resp = run(main())
        assert resp["ok"]
        assert resp["tree"] == expected
