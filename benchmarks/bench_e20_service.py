"""E20 — DFS-as-a-service: throughput, tail latency, cache effectiveness.

Drives a seeded mixed workload (~80% DFS queries over a bounded key set,
~20% edge-mutation batches) through the in-process
:class:`~repro.service.server.ServiceHandle` — the real asyncio batch
loop, component-stamp cache, incremental HDT maintenance, and thread
executor; only the TCP framing is skipped — and publishes the
service-grade numbers:

* **ops/sec** — end-to-end request throughput of the concurrent stream;
* **p50/p90/p99 latency** — from the ``service.latency_ms`` obs
  reservoir (deterministically decimated quantile sample, one
  observation per response);
* **cache hit rate** and **incremental vs. rebuild batch counts** — the
  two mechanisms E20 exists to measure: how often the component-stamp
  cache turns a query into an O(1) probe, and how often the maintenance
  layer stayed on the incremental path (docs/service.md).

The run self-audits the lockstep contract inline: a sample of served
trees is compared byte-for-byte against a fresh ``parallel_dfs`` on the
post-mutation canonical state, and the stream must finish with zero
structured errors.

The workload models service reality: most mutation batches are *local*
(both endpoints inside one resident component, so the maintenance layer
stays on the incremental path and only that component's cached trees
drop), while a periodic toggle of a designated bridge edge merges/splits
two components — an affected region past ``rebuild_fraction``, forcing
the full-rebuild path with its global invalidation.  Both paths show up
in the published maintenance counts.

A second table measures what one cache miss costs as the resident graph
grows: twelve, 120 and 1,200 components of 60-vertex gnm (n = 720 /
7,200 / 72,000); a one-edge update in component 0, then one miss there.
A miss runs ``parallel_dfs`` on the root's component graph, so its
time stays flat in n; the whole-graph recompute beside it (snapshot
plus ``parallel_dfs``, the lockstep oracle) grows with n.

Environment knobs: ``REPRO_E20_OPS`` total requests (default 1000; CI's
mini run uses 400), ``REPRO_E20_N`` vertices per component (default 120,
three components), ``REPRO_E20_SEED`` the stream seed.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time

from conftest import publish

from repro.analysis import format_table
from repro.core.dfs import parallel_dfs
from repro.graph.generators import make_family
from repro.graph.graph import Graph
from repro.obs import Metrics, Tracer, activate
from repro.pram.tracker import Tracker
from repro.service import (
    ServiceConfig,
    ServiceHandle,
    tree_bytes,
    tree_payload,
)
from repro.service.store import ResidentGraph

OPS = int(os.environ.get("REPRO_E20_OPS", "1000"))
N_EACH = int(os.environ.get("REPRO_E20_N", "120"))
SEED = int(os.environ.get("REPRO_E20_SEED", "0xE20"), 0)
PARTS = 3
#: fraction of the stream that is edge-mutation batches
UPDATE_FRACTION = 0.1
#: of those, fraction toggling the cross-component bridge (rebuild path)
BRIDGE_FRACTION = 0.2
#: distinct (root, seed) query keys — bounded so the cache sees re-asks
QUERY_KEYS = 24
#: requests submitted concurrently per wave
WAVE = 128
#: one component (N_EACH) stays under this fraction of n (incremental);
#: the bridged double component (2 * N_EACH) lands over it (rebuild)
REBUILD_FRACTION = 1.35 / PARTS


def _resident_graph():
    edges = []
    total = 0
    for k in range(PARTS):
        g = make_family("gnm", N_EACH, seed=SEED + k)
        edges.extend([u + total, v + total] for u, v in g.edges)
        total += g.n
    return total, edges


def _stream(n: int, count: int):
    """The seeded mixed request stream (reproducible across runs)."""
    rng = random.Random(SEED)
    keys = [
        (rng.randrange(n), rng.randrange(4)) for _ in range(QUERY_KEYS)
    ]
    bridge = [0, N_EACH]  # joins components 0 and 1 when present
    bridge_up = False
    reqs = []
    for i in range(count):
        if rng.random() < UPDATE_FRACTION:
            if rng.random() < BRIDGE_FRACTION:
                field = "delete" if bridge_up else "insert"
                bridge_up = not bridge_up
                reqs.append({
                    "op": "update", "graph": "g", field: [list(bridge)],
                    "id": f"u{i}",
                })
            else:
                # local batch: both endpoints inside one component
                base = rng.randrange(PARTS) * N_EACH
                u = base + rng.randrange(N_EACH)
                v = base + rng.randrange(N_EACH)
                if u == v:
                    v = base + (v - base + 1) % N_EACH
                field = "insert" if rng.random() < 0.5 else "delete"
                reqs.append({
                    "op": "update", "graph": "g",
                    field: [[min(u, v), max(u, v)]], "id": f"u{i}",
                })
        else:
            root, seed = rng.choice(keys)
            reqs.append({
                "op": "dfs", "graph": "g", "root": root, "seed": seed,
                "id": f"q{i}",
            })
    return reqs


async def _drive(handle: ServiceHandle, requests: list[dict]) -> tuple:
    n, edges = _resident_graph()
    resp = await handle.op("load", graph="g", n=n, edges=edges)
    assert resp["ok"], resp
    t0 = time.perf_counter()
    responses = []
    for i in range(0, len(requests), WAVE):
        wave = requests[i:i + WAVE]
        responses.extend(
            await asyncio.gather(*(handle.request(dict(r)) for r in wave))
        )
    elapsed = time.perf_counter() - t0
    stats = await handle.op("stats")

    # inline lockstep audit: served trees vs fresh parallel_dfs on the
    # final canonical state (the stream is drained, so state is stable)
    rg = handle.service.store.get("g")
    final_edges = rg.dyn.edge_pairs()
    rng = random.Random(SEED + 1)
    audits = 0
    for _ in range(5):
        root, seed = rng.randrange(n), rng.randrange(4)
        served = await handle.op("dfs", graph="g", root=root, seed=seed)
        res = parallel_dfs(
            Graph(n, sorted(final_edges)), root,
            rng=random.Random(seed), kernel_backend=rg.kernel_backend,
        )
        want = tree_payload(res.root, res.parent, res.depth)
        assert tree_bytes(served["tree"]) == tree_bytes(want), (
            f"lockstep violation at root={root} seed={seed}"
        )
        audits += 1
    return responses, stats, elapsed, audits


#: the service configuration of the measured stream
CONFIG = ServiceConfig(
    kernel_backend="numpy", max_batch=64, rebuild_fraction=REBUILD_FRACTION,
)
#: ledger stamp: the engine and structure the stream's computes ran
RAN = {"kernel_backend": CONFIG.kernel_backend, "structure": CONFIG.structure}


def run_stream() -> dict:
    n, _ = _resident_graph()
    requests = _stream(n, OPS)
    cfg = CONFIG

    async def main(handle):
        async with handle:
            return await _drive(handle, requests)

    with activate(Tracer(tracker=Tracker()), Metrics()) as obs:
        handle = ServiceHandle(cfg)  # instruments bind at construction
        responses, stats, elapsed, audits = asyncio.run(main(handle))
        latency = obs.metrics.reservoir("service.latency_ms").summary()

    dfs_reqs = [r for r in requests if r["op"] == "dfs"]
    errors = [r for r in responses if not r.get("ok")]
    assert not errors, f"structured errors in stream: {errors[:3]}"
    assert len(responses) == len(requests)
    for req, resp in zip(requests, responses):
        assert resp["id"] == req["id"], "misordered responses"

    counters = handle.service.counters
    g = stats["graphs"]["g"]
    maint = g["maintenance"]
    return {
        "ops": len(requests),
        "dfs_queries": len(dfs_reqs),
        "updates": len(requests) - len(dfs_reqs),
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(len(requests) / elapsed, 1),
        "latency_ms": latency,
        "cache_hit_rate": g["cache_hit_rate"],
        "cache_hits": g["cache_hits"],
        "cache_misses": g["cache_misses"],
        "mutations": g["mutations"],
        "incremental_batches": maint["incremental_batches"],
        "rebuild_batches": maint["rebuild_batches"],
        "noop_batches": maint["noop_batches"],
        "batches": counters["batches"],
        "coalesced": counters["coalesced"],
        "max_batch": counters["max_batch"],
        "max_queue_depth": counters["max_queue_depth"],
        "lockstep_audits": audits,
        "n": PARTS * N_EACH,
    }


def render(r: dict) -> str:
    lat = r["latency_ms"]
    head = format_table(
        ["ops", "ops/sec", "p50 ms", "p90 ms", "p99 ms", "hit rate"],
        [(
            r["ops"], r["ops_per_s"],
            round(lat["p50"], 3), round(lat["p90"], 3),
            round(lat["p99"], 3), r["cache_hit_rate"],
        )],
    )
    maint = format_table(
        ["mutations", "incremental", "rebuild", "noop",
         "batches", "coalesced", "max batch", "max depth"],
        [(
            r["mutations"], r["incremental_batches"], r["rebuild_batches"],
            r["noop_batches"], r["batches"], r["coalesced"],
            r["max_batch"], r["max_queue_depth"],
        )],
    )
    return "\n".join([
        f"service stream: n={r['n']} ({PARTS} components), "
        f"{r['dfs_queries']} queries + {r['updates']} updates, "
        f"{r['lockstep_audits']} inline lockstep audits passed:",
        head,
        "",
        "maintenance/batching:",
        maint,
    ])


def test_e20_service_throughput(benchmark):
    result = benchmark.pedantic(run_stream, rounds=1, iterations=1)
    # service-grade floors: the cache must be doing real work on a
    # bounded key set, and the tail must stay measurable and ordered
    assert result["cache_hit_rate"] > 0.1, result
    lat = result["latency_ms"]
    assert lat["count"] >= result["ops"]
    assert 0.0 <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]
    assert result["lockstep_audits"] == 5
    # both maintenance paths ran: local batches incremental, bridge
    # toggles (affected = two components) through the full rebuild
    assert result["incremental_batches"] >= 1, result
    assert result["rebuild_batches"] >= 1, result
    publish("e20_service", render(result), data=result, ran=RAN)


def test_e20_service_lockstep_smoke():
    """CI smoke: a short stream, every dfs response checked inline."""
    n, edges = _resident_graph()
    requests = _stream(n, 60)

    async def main():
        cfg = ServiceConfig(rebuild_fraction=REBUILD_FRACTION)
        async with ServiceHandle(cfg) as h:
            await h.op("load", graph="g", n=n, edges=edges)
            checked = 0
            for req in requests:
                resp = await h.request(dict(req))
                assert resp["ok"], resp
                if req["op"] != "dfs":
                    continue
                rg = h.service.store.get("g")
                res = parallel_dfs(
                    Graph(n, rg.dyn.edge_pairs()), req["root"],
                    rng=random.Random(req["seed"]),
                    kernel_backend=rg.kernel_backend,
                )
                want = tree_payload(res.root, res.parent, res.depth)
                assert tree_bytes(resp["tree"]) == tree_bytes(want), req
                checked += 1
            return checked

    checked = asyncio.run(main())
    assert checked >= 40


#: the miss-scaling table: resident graphs of this many components of
#: SCALE_N_EACH-vertex gnm
SCALE_PARTS = (12, 120, 1200)
SCALE_N_EACH = 60
#: timed update + miss pairs per size (the table reports medians)
SCALE_REPS = 5
#: a miss after a one-edge update at n = 72,000 must stay under this
#: (it cost ~370 ms when every miss ran on the whole graph)
MISS_TARGET_MS = 20.0


def miss_after_update(parts: int) -> dict:
    """Median times (ms) of a one-edge update in component 0, the cache
    miss after it, and the whole-graph recompute of the same tree."""
    edges = []
    for k in range(parts):
        g = make_family("gnm", SCALE_N_EACH, seed=k)
        base = k * SCALE_N_EACH
        edges.extend((u + base, v + base) for u, v in g.edges)
    n = parts * SCALE_N_EACH
    rg = ResidentGraph("g", n, edges, kernel_backend="numpy")
    pair = (0, SCALE_N_EACH // 2)
    apply_ms, miss_ms, whole_ms = [], [], []
    for seed in range(SCALE_REPS):
        t0 = time.perf_counter()
        if rg.dyn.has_edge(*pair):
            report = rg.dyn.apply_batch(delete=[pair])
        else:
            report = rg.dyn.apply_batch(insert=[pair])
        t1 = time.perf_counter()
        assert report.mode == "incremental", report
        # the update dropped component 0's trees: lookup misses
        assert rg.lookup(0, seed) is None
        tree = rg.compute(0, seed)
        rg.install(0, seed, tree)
        t2 = time.perf_counter()
        oracle = rg.recompute(0, seed)
        t3 = time.perf_counter()
        assert tree_bytes(tree) == tree_bytes(oracle), (parts, seed)
        apply_ms.append((t1 - t0) * 1e3)
        miss_ms.append((t2 - t1) * 1e3)
        whole_ms.append((t3 - t2) * 1e3)
    return {
        "n": n,
        "m": rg.dyn.m,
        "components": parts,
        "apply_ms": round(statistics.median(apply_ms), 3),
        "miss_ms": round(statistics.median(miss_ms), 3),
        "whole_graph_ms": round(statistics.median(whole_ms), 3),
    }


def render_scaling(rows: list[dict]) -> str:
    table = format_table(
        ["n", "m", "components", "apply ms", "miss ms", "whole-graph ms"],
        [
            (r["n"], r["m"], r["components"], r["apply_ms"], r["miss_ms"],
             r["whole_graph_ms"])
            for r in rows
        ],
    )
    return "\n".join([
        f"miss after a one-edge update vs resident n ({SCALE_N_EACH}-vertex "
        f"gnm components, numpy, median of {SCALE_REPS}; whole-graph = "
        "snapshot + parallel_dfs of the same tree):",
        table,
    ])


def test_e20_miss_scaling():
    rows = [miss_after_update(parts) for parts in SCALE_PARTS]
    big = rows[-1]
    assert big["n"] == 72_000
    assert big["miss_ms"] <= MISS_TARGET_MS, rows
    publish(
        "e20_miss_scaling", render_scaling(rows),
        data={"rows": rows}, ran={"kernel_backend": "numpy", "structure": "flat"},
    )
