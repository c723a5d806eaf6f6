"""Concurrency/load battery for the DFS service.

Pushes hundreds of concurrent requests through the in-process
:class:`~repro.service.server.ServiceHandle` (real batch loop + thread
executor) and checks the service-grade properties: zero dropped or
misordered responses (every request id comes back on its own future),
bounded queue depth and batch size, coalescing of identical in-flight
queries, and a populated obs latency reservoir.

``test_load_heavy_sustained`` is the big sustained-traffic variant; CI's
smoke tier deselects it by name (``-k "not heavy"``).
"""

import asyncio
import random

from repro.graph.generators import make_family
from repro.obs import Metrics, Tracer, activate
from repro.pram.tracker import Tracker
from repro.service import ServiceConfig, ServiceHandle


def _load_edges(n_each=12, parts=3):
    edges = []
    total = 0
    for k in range(parts):
        g = make_family("gnm", n_each, seed=k)
        edges.extend([u + total, v + total] for u, v in g.edges)
        total += g.n
    return total, edges


def _mixed_requests(n, count, seed, update_every=25):
    """A seeded stream: mostly dfs queries over a small key set (so the
    cache and the coalescer both get traffic), updates sprinkled in."""
    rng = random.Random(seed)
    reqs = []
    for i in range(count):
        if update_every and i % update_every == update_every - 1:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                v = (v + 1) % n
            key = [min(u, v), max(u, v)]
            field = rng.choice(["insert", "delete"])
            reqs.append({"op": "update", "graph": "g", field: [key],
                         "id": f"u{i}"})
        else:
            reqs.append({
                "op": "dfs", "graph": "g",
                "root": rng.randrange(n), "seed": rng.randrange(3),
                "id": f"q{i}",
            })
    return reqs


async def _drive(service_cfg, n, edges, requests):
    async with ServiceHandle(service_cfg) as h:
        resp = await h.op("load", graph="g", n=n, edges=edges)
        assert resp["ok"], resp
        responses = await asyncio.gather(
            *(h.request(dict(r)) for r in requests)
        )
        stats = await h.op("stats")
        return responses, stats, dict(h.service.counters)


def _check_responses(requests, responses, counters, max_batch):
    assert len(responses) == len(requests), "dropped responses"
    for req, resp in zip(requests, responses):
        # gather preserves position: response i answers request i, and
        # the echoed id proves the service didn't cross futures
        assert resp.get("id") == req["id"], (req, resp)
        if req["op"] == "dfs":
            # updates may race deletes of not-yet-present edges (noop is
            # fine); dfs must always succeed on a valid root
            assert resp["ok"], resp
            assert "tree" in resp and resp["tree"]["root"] == req["root"]
    assert counters["responses"] >= len(requests)
    assert counters["errors"] == 0
    assert counters["max_batch"] <= max_batch
    # batching actually happened: far fewer rounds than requests
    assert counters["batches"] < len(requests)
    # queue depth stayed bounded by the offered load
    assert 0 < counters["max_queue_depth"] <= len(requests)


def test_load_smoke_500_concurrent():
    n, edges = _load_edges()
    requests = _mixed_requests(n, 500, seed=1)
    cfg = ServiceConfig(kernel_backend="numpy", max_batch=64)
    with activate(Tracer(tracker=Tracker()), Metrics()) as obs:
        responses, stats, counters = asyncio.run(
            _drive(cfg, n, edges, requests)
        )
        reservoir = obs.metrics.reservoir("service.latency_ms")
    _check_responses(requests, responses, counters, cfg.max_batch)
    # the obs latency reservoir saw every response of the run
    assert reservoir.count >= len(requests)
    summary = reservoir.summary()
    assert summary["p50"] <= summary["p99"] <= summary["max"]
    assert summary["min"] >= 0.0 and summary["sampled"] > 0
    # identical concurrent queries coalesced into shared computes
    assert counters["coalesced"] > 0
    # stats op exposes the same picture over the protocol
    assert stats["service"]["dfs_queries"] == counters["dfs_queries"]
    assert 0.0 <= stats["graphs"]["g"]["cache_hit_rate"] <= 1.0


def test_load_updates_interleaved_stay_consistent():
    # tighter max_batch: updates act as barriers inside nearly every
    # round, exercising the segment split of _process_batch
    n, edges = _load_edges(n_each=10, parts=2)
    requests = _mixed_requests(n, 300, seed=7, update_every=5)
    cfg = ServiceConfig(kernel_backend="numpy", max_batch=8)
    responses, stats, counters = asyncio.run(_drive(cfg, n, edges, requests))
    _check_responses(requests, responses, counters, cfg.max_batch)
    assert counters["updates"] > 0
    final = stats["graphs"]["g"]
    assert final["mutations"] >= 1
    maint = final["maintenance"]
    assert maint["incremental_batches"] + maint["rebuild_batches"] >= 1


def test_load_heavy_sustained():
    # the sustained-traffic variant: several waves so cached keys are
    # re-queried across update epochs; excluded from the CI smoke tier
    n, edges = _load_edges(n_each=16, parts=3)
    cfg = ServiceConfig(kernel_backend="numpy", max_batch=64)

    async def waves():
        async with ServiceHandle(cfg) as h:
            await h.op("load", graph="g", n=n, edges=edges)
            all_pairs = []
            for wave in range(4):
                requests = _mixed_requests(n, 500, seed=wave, update_every=40)
                responses = await asyncio.gather(
                    *(h.request(dict(r)) for r in requests)
                )
                all_pairs.extend(zip(requests, responses))
            return all_pairs, dict(h.service.counters), (
                await h.op("stats")
            )

    pairs, counters, stats = asyncio.run(waves())
    requests = [r for r, _ in pairs]
    responses = [r for _, r in pairs]
    _check_responses(requests, responses, counters, cfg.max_batch)
    assert counters["dfs_queries"] >= 1900
    # sustained traffic over a small key set must hit the cache hard
    assert stats["graphs"]["g"]["cache_hits"] > 0
