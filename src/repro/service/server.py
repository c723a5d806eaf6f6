"""The asyncio DFS service: batching core, in-process handle, TCP server.

Architecture (docs/service.md has the full picture)::

    connections ──┐
                  ├── asyncio.Queue ── batch loop ── worker executor
    ServiceHandle ┘        │               │
                           │               ├─ dfs groups: coalesced,
                           │               │  cache-checked, computed
                           │               │  concurrently on threads
                           │               └─ updates/loads: barriers,
                           │                  applied inline in order
                           └── depth/batch/latency instruments (obs)

Every request is enqueued with a future; the single batch loop drains
the queue up to ``max_batch`` per round, splits the drained batch into
*segments* — maximal runs of ``dfs`` queries, separated by barrier ops
(``update``/``load``/``drop``) — and preserves arrival order across
segments.  Within a dfs segment, requests for the same
``(graph, root, seed)`` coalesce into one computation, cache probes are
O(1) against the per-component stamps of
:mod:`repro.service.dynamic`, and the distinct misses run concurrently
on a :class:`~concurrent.futures.ThreadPoolExecutor` (the numpy
backend releases the GIL for the array phases).

Failure containment: a compute error, a malformed request, or a client
that vanishes mid-batch produces a structured error (or a dropped
write) for *that* request only — resident graphs and caches are
untouched because updates validate before mutating and computes are
pure (docs/service.md "Fault model").
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import platform
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.dfs import check_structure
from ..kernels.dispatch import resolve_backend
from ..obs import runtime as obs
from ..obs.context import bound_call, request_scope
from ..obs.flight import FlightRecorder, install_recorder
from ..obs.metrics import NullMetrics
from . import protocol
from .protocol import ProtocolError
from .store import GraphStore, ServiceError

__all__ = [
    "DFSService",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceServer",
    "git_sha",
]

#: span/event ring capacity of the service's flight recorder
_FLIGHT_CAPACITY = 4096
#: hard cap on anomaly dump files per process (a flapping anomaly must
#: not fill a disk)
_FLIGHT_MAX_DUMPS = 16

_git_sha: str | None = None


def git_sha() -> str:
    """Short commit id of the running checkout (cached; "unknown" when
    git is unavailable) — the same provenance stamp the bench ledgers
    carry, now served live by the ``stats`` op."""
    global _git_sha
    if _git_sha is None:
        try:
            _git_sha = (
                subprocess.run(
                    ["git", "rev-parse", "--short=12", "HEAD"],
                    capture_output=True,
                    text=True,
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                    timeout=10,
                ).stdout.strip()
                or "unknown"
            )
        except (OSError, subprocess.SubprocessError):
            _git_sha = "unknown"
    return _git_sha


@dataclass
class ServiceConfig:
    """Tuning knobs for one service instance."""

    #: kernel execution engine for resident graphs ("tracked" |
    #: "numpy"); numpy is the service default — the measured 5.56x
    #: end-to-end engine (BENCH_PR6)
    kernel_backend: str = "numpy"
    #: Lemma 5.1 absorption structure name; only "flat" (the engine picks
    #: the implementation) — anything else fails at service start
    structure: str = "flat"
    #: max requests drained per batch round
    max_batch: int = 64
    #: executor threads for dfs computes (None = min(4, cpu))
    executor_workers: int | None = None
    #: affected-region fraction above which updates rebuild (see
    #: repro.service.dynamic)
    rebuild_fraction: float = 0.25
    #: LRU bound on cached trees per graph
    max_cache: int = 1024
    #: resident graph count bound
    max_graphs: int = 64
    #: when > 0, every Nth served dfs response is cross-checked against
    #: a fresh recompute (the lockstep contract, self-audited in prod)
    verify_every: int = 0
    #: request-latency SLO in milliseconds; a response slower than this
    #: fires the ``slow_request`` anomaly (reported against the live
    #: Reservoir p99). 0 disables the check.
    slo_ms: float = 0.0
    #: where the always-on flight recorder's anomaly dumps go (None =
    #: record rings, write no files); see docs/observability.md.
    #: Defaults from ``REPRO_FLIGHT_DIR`` so CI can collect dumps from
    #: every service a test battery spins up without threading the
    #: setting through each test.
    flight_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_FLIGHT_DIR")
    )


@dataclass
class _Pending:
    request: dict
    future: asyncio.Future
    t0: float
    #: correlation id: the client-assigned request id when one was
    #: given, else a server-synthesized one — stamped on every span and
    #: flight-recorder event the request touches
    rid: str = ""


class DFSService:
    """The batching service core (no sockets; see :class:`ServiceServer`)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        resolve_backend(self.config.kernel_backend)  # fail fast on typos
        check_structure(self.config.structure)  # at start, not per dfs
        self.store = GraphStore(
            kernel_backend=self.config.kernel_backend,
            rebuild_fraction=self.config.rebuild_fraction,
            max_cache=self.config.max_cache,
            max_graphs=self.config.max_graphs,
        )
        #: deterministic internal counters (the stats op reports these
        #: whether or not an obs registry is active)
        self.counters = {
            "requests": 0,
            "responses": 0,
            "errors": 0,
            "batches": 0,
            "dfs_queries": 0,
            "coalesced": 0,
            "updates": 0,
            "max_queue_depth": 0,
            "max_batch": 0,
            "lockstep_checks": 0,
            "lockstep_violations": 0,
        }
        self._served_since_verify = 0
        self._queue: asyncio.Queue[_Pending] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._batcher: asyncio.Task | None = None
        self._stopping = False
        self._t_start: float | None = None
        self._obs_prev: obs.Observation | None = None
        self._rec_prev = None
        # the always-on telemetry plane: a bounded flight recorder.
        # Inside an activate() scope it joins the caller's tracer and
        # registry (tests/benches collect everything in one place);
        # otherwise it owns a ring tracer + registry which start()
        # installs process-wide for the service's lifetime.
        self._owns_obs = not obs.enabled()
        if self._owns_obs:
            plane = {"backend": resolve_backend(self.config.kernel_backend)}
        else:
            plane = {"tracer": obs.tracer(), "metrics": obs.metrics()}
        self.recorder = FlightRecorder(
            _FLIGHT_CAPACITY,
            dump_dir=self.config.flight_dir,
            max_dumps=_FLIGHT_MAX_DUMPS,
            **plane,
        )
        # obs instruments, bound once at construction: the caller's
        # active registry when one exists, else the recorder's (so the
        # exposition endpoint sees them)
        m = self._bound_metrics()
        self._h_queue_depth = m.histogram("service.queue_depth")
        self._h_batch = m.histogram("service.batch_size")
        self._c_hits = m.counter("service.cache_hits")
        self._c_misses = m.counter("service.cache_misses")
        self._c_requests = m.counter("service.requests")
        self._c_errors = m.counter("service.errors")
        self._r_latency = m.reservoir("service.latency_ms")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._batcher is not None

    async def start(self) -> None:
        if self.started:
            raise RuntimeError("service already started")
        workers = self.config.executor_workers
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-dfs"
        )
        self._queue = asyncio.Queue()
        self._stopping = False
        self._t_start = time.monotonic()
        if self._owns_obs:
            self._obs_prev = obs.install(
                self.recorder.tracer, self.recorder.metrics
            )
        self._rec_prev = install_recorder(self.recorder)
        self._batcher = asyncio.create_task(
            self._batch_loop(), name="repro-service-batcher"
        )

    async def stop(self) -> None:
        if not self.started:
            return
        self._stopping = True
        assert self._batcher is not None and self._queue is not None
        # let the loop drain what is already enqueued, then cancel
        await self._queue.join()
        self._batcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._batcher
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._batcher = None
        self._queue = None
        self._executor = None
        install_recorder(self._rec_prev)
        self._rec_prev = None
        if self._obs_prev is not None:
            obs.install(self._obs_prev.tracer, self._obs_prev.metrics)
            self._obs_prev = None

    # ------------------------------------------------------------------
    # request entry
    # ------------------------------------------------------------------
    async def submit(self, request: dict) -> dict:
        """Validate, enqueue, and await one request (in-process entry)."""
        self.counters["requests"] += 1
        self._c_requests.value += 1
        try:
            request = protocol.validate_request(request)
        except ProtocolError as exc:
            self.note_protocol_error(exc.code)
            return self._count_error(
                protocol.error_payload(exc.code, exc.message, exc.req_id)
            )
        if not self.started or self._stopping:
            return self._count_error(
                protocol.error_payload(
                    "unavailable", "service is not running",
                    request.get("id"),
                )
            )
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        rid = request.get("id")
        rid = str(rid) if rid is not None else f"r{self.counters['requests']}"
        pending = _Pending(
            request, loop.create_future(), time.perf_counter(), rid
        )
        self._queue.put_nowait(pending)
        depth = self._queue.qsize()
        if depth > self.counters["max_queue_depth"]:
            self.counters["max_queue_depth"] = depth
        return await pending.future

    def note_protocol_error(self, code: str) -> None:
        """Record a malformed request (an anomaly: it means a client is
        broken or hostile, and the frames around it matter)."""
        self.recorder.anomaly("protocol_error", code=code)

    def _count_error(self, resp: dict) -> dict:
        self.counters["errors"] += 1
        self._c_errors.value += 1
        return resp

    # ------------------------------------------------------------------
    # batch loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.counters["batches"] += 1
            self.counters["max_batch"] = max(
                self.counters["max_batch"], len(batch)
            )
            # per-*batch* granularity: this is the service's pump loop,
            # one observation per drained batch, never per element
            self._h_queue_depth.observe(  # repro-lint: disable=R006
                len(batch) + self._queue.qsize()
            )
            self._h_batch.observe(len(batch))  # repro-lint: disable=R006
            try:
                with obs.span(  # repro-lint: disable=R006 — per-batch
                    "service.batch",
                    size=len(batch),
                    requests=[p.rid for p in batch],
                ):
                    await self._process_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _process_batch(self, batch: list[_Pending]) -> None:
        """Arrival order is preserved; dfs runs coalesce, barriers split."""
        group: list[_Pending] = []
        for pending in batch:
            if pending.request["op"] == "dfs":
                group.append(pending)
                continue
            if group:
                await self._run_dfs_group(group)
                group = []
            self._handle_barrier(pending)
        if group:
            await self._run_dfs_group(group)

    def _respond(self, pending: _Pending, resp: dict) -> None:
        rid = pending.request.get("id")
        if rid is not None and "id" not in resp:
            resp["id"] = rid
        self.counters["responses"] += 1
        ok = resp.get("ok", False)
        if not ok:
            self.counters["errors"] += 1
            self._c_errors.value += 1
        latency_ms = (time.perf_counter() - pending.t0) * 1000.0
        self._r_latency.observe(latency_ms)
        with request_scope(pending.rid):
            self.recorder.event(
                "service.request",
                op=pending.request.get("op"),
                ok=ok,
                latency_ms=round(latency_ms, 3),
            )
            if 0.0 < self.config.slo_ms < latency_ms:
                self.recorder.anomaly(
                    "slow_request",
                    request_id=pending.rid,
                    op=pending.request.get("op"),
                    latency_ms=round(latency_ms, 3),
                    slo_ms=self.config.slo_ms,
                    p99_ms=self._r_latency.quantile(0.99),
                )
        if not pending.future.done():
            pending.future.set_result(resp)

    # ------------------------------------------------------------------
    # barrier ops (applied inline, in arrival order)
    # ------------------------------------------------------------------
    def _handle_barrier(self, pending: _Pending) -> None:
        req = pending.request
        try:
            resp = self._barrier_response(req)
        except ServiceError as exc:
            resp = protocol.error_payload(exc.code, exc.message)
        except ValueError as exc:
            resp = protocol.error_payload("bad_update", str(exc))
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            resp = protocol.error_payload(
                "internal_error", f"{type(exc).__name__}: {exc}"
            )
        self._respond(pending, resp)

    def _barrier_response(self, req: dict) -> dict:
        op = req["op"]
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "graphs":
            return {"ok": True, "graphs": self.store.names()}
        if op == "stats":
            if "graph" in req:
                return {
                    "ok": True,
                    "graph": req["graph"],
                    "stats": self.store.get(req["graph"]).stats(),
                }
            if req.get("format") == "openmetrics":
                return {"ok": True, "openmetrics": self._openmetrics()}
            return {
                "ok": True,
                "graphs": self.store.stats(),
                "service": dict(self.counters),
                "server": self._server_info(),
            }
        if op == "load":
            rg = self.store.load(
                req["graph"],
                n=req.get("n"),
                edges=req.get("edges"),
                family=req.get("family"),
                seed=req.get("seed", 0),
            )
            return {
                "ok": True,
                "graph": rg.name,
                "n": rg.dyn.n,
                "m": rg.dyn.m,
                "mutations": rg.dyn.mutations,
            }
        if op == "drop":
            self.store.drop(req["graph"])
            return {"ok": True, "graph": req["graph"], "dropped": True}
        if op == "update":
            rg = self.store.get(req["graph"])
            report = rg.dyn.apply_batch(
                insert=req.get("insert"), delete=req.get("delete")
            )
            self.counters["updates"] += 1
            return {
                "ok": True,
                "graph": req["graph"],
                "mutations": report.mutations,
                "mode": report.mode,
                "inserted": report.inserted,
                "deleted": report.deleted,
                "skipped_inserts": report.skipped_inserts,
                "skipped_deletes": report.skipped_deleted,
                "affected": report.affected,
                "touched_components": report.touched_components,
            }
        raise ServiceError("unknown_op", f"unhandled op {op!r}")

    # ------------------------------------------------------------------
    # telemetry exposition
    # ------------------------------------------------------------------
    def _server_info(self) -> dict:
        """The ``server`` provenance block of the stats op."""
        uptime = (
            time.monotonic() - self._t_start
            if self._t_start is not None
            else 0.0
        )
        info: dict = {
            "git_sha": git_sha(),
            "uptime_s": round(uptime, 3),
            "kernel_backend": resolve_backend(self.config.kernel_backend),
            "structure": self.config.structure,
            "pid": os.getpid(),
            "python": platform.python_version(),
        }
        info["flight"] = self.recorder.stats()
        return info

    def _bound_metrics(self):
        """The registry the service instruments actually report to."""
        m = obs.metrics()
        if isinstance(m, NullMetrics):
            m = self.recorder.metrics
        return m

    def _openmetrics(self) -> str:
        """The OpenMetrics text exposition of the whole telemetry plane:
        obs registry + deterministic service ledger + per-graph gauges +
        build/flight provenance (:mod:`repro.service.exposition`)."""
        from .exposition import render_service_openmetrics

        return render_service_openmetrics(self)

    # ------------------------------------------------------------------
    # dfs groups (coalesced, executor-offloaded)
    # ------------------------------------------------------------------
    async def _run_dfs_group(self, group: list[_Pending]) -> None:
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        #: (graph, root, seed) -> list of pendings sharing one compute
        jobs: dict[tuple[str, int, int], list[_Pending]] = {}
        answered: list[tuple[_Pending, dict, bool]] = []
        for pending in group:
            req = pending.request
            self.counters["dfs_queries"] += 1
            name = req["graph"]
            root = req["root"]
            seed = req.get("seed", 0)
            try:
                rg = self.store.get(name)
                cached = rg.lookup(root, seed)
            except ServiceError as exc:
                self._respond(
                    pending, protocol.error_payload(exc.code, exc.message)
                )
                continue
            if cached is not None:
                self._c_hits.value += 1
                answered.append((pending, cached, True))
                continue
            self._c_misses.value += 1
            key = (name, root, seed)
            if key in jobs:
                self.counters["coalesced"] += 1
            jobs.setdefault(key, []).append(pending)

        keys = list(jobs)
        if keys:
            # run_in_executor does NOT propagate contextvars; bound_call
            # re-binds the request id (the first waiter's, for coalesced
            # keys) onto the executor thread so the compute span and the
            # parallel_dfs phase spans underneath carry the correlation
            futures = [
                loop.run_in_executor(
                    self._executor,
                    # one O(1) closure per *compute job*, each a full DFS
                    bound_call(  # repro-lint: disable=R006
                        jobs[key][0].rid,
                        self._compute_traced,
                        *key,
                    ),
                )
                for key in keys
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            for key, result in zip(keys, results):
                name, root, seed = key
                waiting = jobs[key]
                if isinstance(result, BaseException):
                    resp = protocol.error_payload(
                        "compute_error",
                        f"{type(result).__name__}: {result}",
                    )
                    for pending in waiting:
                        self._respond(pending, dict(resp))
                    continue
                self.store.get(name).install(root, seed, result)
                for pending in waiting:
                    answered.append((pending, result, False))

        for pending, tree, was_cached in answered:
            resp = await self._maybe_verify(pending, tree, was_cached)
            self._respond(pending, resp)

    def _compute_traced(
        self, name: str, root: int, seed: int, verify: bool = False
    ) -> dict:
        """Executor-thread body of one compute: a correlated span around
        the pure :meth:`~repro.service.store.ResidentGraph.compute`, or,
        for a self-audit, around the whole-graph
        :meth:`~repro.service.store.ResidentGraph.recompute` — an
        oracle independent of the miss path it checks."""
        attrs: dict = {"graph": name, "root": root, "seed": seed}
        if verify:
            attrs["verify"] = True
        with obs.span("service.compute", **attrs):
            rg = self.store.get(name)
            return (rg.recompute if verify else rg.compute)(root, seed)

    async def _maybe_verify(
        self, pending: _Pending, tree: dict, was_cached: bool
    ) -> dict:
        """Build the dfs response; self-audit every Nth one when enabled."""
        req = pending.request
        name = req["graph"]
        rg = self.store.get(name)
        if self.config.verify_every > 0:
            self._served_since_verify += 1
            if self._served_since_verify >= self.config.verify_every:
                self._served_since_verify = 0
                self.counters["lockstep_checks"] += 1
                loop = asyncio.get_running_loop()
                assert self._executor is not None
                fresh = await loop.run_in_executor(
                    self._executor,
                    bound_call(
                        pending.rid,
                        self._compute_traced,
                        name,
                        req["root"],
                        req.get("seed", 0),
                        True,
                    ),
                )
                if protocol.tree_bytes(fresh) != protocol.tree_bytes(tree):
                    self.counters["lockstep_violations"] += 1
                    self.recorder.anomaly(
                        "lockstep_violation",
                        request_id=pending.rid,
                        graph=name,
                        root=req["root"],
                        seed=req.get("seed", 0),
                        cached=was_cached,
                        mutations=rg.dyn.mutations,
                    )
                    return protocol.error_payload(
                        "lockstep_violation",
                        "served tree diverged from fresh recompute",
                    )
        return {
            "ok": True,
            "graph": name,
            "root": req["root"],
            "seed": req.get("seed", 0),
            "mutations": rg.dyn.mutations,
            "cached": was_cached,
            "tree": tree,
        }


class ServiceHandle:
    """In-process client for tests and benchmarks: no sockets, same core.

    ::

        async with ServiceHandle() as h:
            await h.request({"op": "load", "graph": "g", "n": 8,
                             "edges": [[0, 1], [1, 2]]})
            resp = await h.request({"op": "dfs", "graph": "g", "root": 0})
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.service = DFSService(config)

    async def __aenter__(self) -> "ServiceHandle":
        await self.service.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.service.stop()

    async def request(self, request: dict) -> dict:
        return await self.service.submit(request)

    async def op(self, op: str, **fields) -> dict:
        return await self.service.submit({"op": op, **fields})


class ServiceServer:
    """TCP front end speaking the line-delimited JSON protocol."""

    def __init__(
        self,
        service: DFSService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def start(self) -> None:
        if not self.service.started:
            await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client: read line, submit, write line.

        Pipelining happens across connections (each connection is
        request/response sequential); any connection-level failure is
        contained here — the service loop and the resident graphs never
        see it.
        """
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # overlong line: the stream is no longer in sync —
                    # answer structurally, then drop the connection
                    writer.write(
                        protocol.encode(
                            protocol.error_payload(
                                "line_too_long",
                                f"request line exceeds {protocol.MAX_LINE}"
                                " bytes; closing connection",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = protocol.decode_request(line)
                except ProtocolError as exc:
                    self.service.counters["errors"] += 1
                    self.service.note_protocol_error(exc.code)
                    writer.write(
                        protocol.encode(
                            protocol.error_payload(
                                exc.code, exc.message, exc.req_id
                            )
                        )
                    )
                    await writer.drain()
                    continue
                response = await self.service.submit(request)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, BrokenPipeError, asyncio.IncompleteReadError):
            # client went away (possibly mid-batch, with its compute
            # still in flight); its future result is simply dropped
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
