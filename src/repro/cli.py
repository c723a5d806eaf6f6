"""Command-line interface: run the algorithms without writing code.

Examples
--------
Run the parallel DFS on a generated graph and print the cost profile::

    python -m repro dfs --family gnm --n 1024 --seed 3

Sweep sizes and print the scaling table (the E1/E2 view)::

    python -m repro sweep --family grid --sizes 256,512,1024 --algorithm parallel

Self-check a batch of random instances against the DFS oracle::

    python -m repro selfcheck --trials 25 --max-n 120

Run the DFS service and talk to it (docs/service.md)::

    python -m repro serve --port 8765 --backend numpy
    python -m repro client --port 8765 --op load --graph g \
        --family gnm --n 1024 --seed 3
    python -m repro client --port 8765 --op dfs --graph g --root 0
    python -m repro client --port 8765 --op update --graph g --insert 1-2
"""

from __future__ import annotations

import argparse
import random
import sys

from .analysis.metrics import format_table, loglog_slope
from .analysis.runner import ALGORITHMS, sweep
from .baselines.sequential import sequential_dfs
from .core.dfs import parallel_dfs
from .core.verify import explain_dfs_tree
from .graph.generators import FAMILIES, gnm_random_connected_graph, make_family
from .pram import Tracker, brent_time_bounds

__all__ = ["main"]


#: ``--backend`` values: the kernel execution engine (the Lemma 5.1
#: structure follows it)
_KERNEL_BACKENDS = ("tracked", "numpy")


def _int_at_least(lo: int):
    """argparse type: an int ``>= lo`` (a bad value exits 2 with usage)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _size_list(text: str) -> list[int]:
    """argparse type: comma-separated positive ints (``--sizes``)."""
    return [_positive_int(s) for s in text.split(",")]


def _cmd_dfs(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    if args.edge_list is not None:
        from .graph.io import read_edge_list

        try:
            g = read_edge_list(args.edge_list)
        except (OSError, ValueError) as exc:
            print(f"repro dfs: {exc}", file=sys.stderr)
            return 2
    else:
        g = make_family(args.family, args.n, seed=args.seed)
    if not 0 <= args.root < g.n:
        print(f"repro dfs: root {args.root} out of range [0, {g.n})",
              file=sys.stderr)
        return 2
    t = Tracker()
    trc = mtr = None
    scope = nullcontext()
    if args.trace:
        from .kernels.dispatch import resolve_backend
        from .obs import Metrics, Tracer, activate

        trc = Tracer(tracker=t, backend=resolve_backend(args.backend))
        mtr = Metrics()
        scope = activate(trc, mtr)
    with scope:
        res = parallel_dfs(
            g,
            args.root,
            tracker=t,
            rng=random.Random(args.seed),
            kernel_backend=args.backend,
            verify=True,
        )
    seq = Tracker()
    sequential_dfs(g, args.root, seq)
    src = args.edge_list if args.edge_list else f"family={args.family}"
    print(f"{src} n={g.n} m={g.m} root={args.root}")
    print(f"tree: {len(res.parent)} vertices, max depth "
          f"{max(res.depth.values())}, recursion levels {res.levels}")
    print(f"work  W = {t.work:,}   (sequential: {seq.work:,})")
    print(f"depth D = {t.span:,}   (sequential: {seq.span:,})")
    for p in (16, 256, 4096):
        _, hi = brent_time_bounds(t.work, t.span, p)
        print(f"  Brent T_{p} <= {int(hi):,}")
    for k, v in sorted(res.stats.items()):
        print(f"  {k}: {v}")
    if args.save_tree:
        from .graph.io import save_dfs_tree

        save_dfs_tree(args.save_tree, res.root, res.parent, res.depth)
        print(f"tree written to {args.save_tree}")
    if args.trace:
        from .analysis.trace import write_exports

        out = write_exports(args.trace, trc, mtr)
        print(f"trace written to {args.trace} "
              f"({len(out['events'])} events)")
        if out["problems"]:
            for p in out["problems"]:
                print(f"trace validation: {p}", file=sys.stderr)
            return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = args.sizes
    ms = sweep(
        args.family,
        sizes,
        algorithm=args.algorithm,
        seeds=tuple(range(args.seeds)),
    )
    rows = [
        (
            m.n,
            m.m,
            m.work,
            round(m.work_per_edge, 1),
            m.span,
            round(m.span_per_sqrt_n, 1),
        )
        for m in ms
    ]
    print(
        format_table(
            ["n", "m", "work", "W/(m+n)", "span", "D/sqrt(n)"], rows
        )
    )
    if len(sizes) >= 2:
        ws = loglog_slope([m.n for m in ms], [m.work for m in ms])
        ds = loglog_slope([m.n for m in ms], [m.span for m in ms])
        print(f"\nwork slope vs n: {ws:.3f}   depth slope vs n: {ds:.3f}")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    bad = 0
    for trial in range(args.trials):
        n = rng.randrange(2, args.max_n)
        m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2) + 1)
        g = gnm_random_connected_graph(n, m, seed=rng.randrange(1 << 30))
        root = rng.randrange(n)
        res = parallel_dfs(g, root, rng=random.Random(trial))
        reason = explain_dfs_tree(g, root, res.parent)
        status = "ok" if reason is None else f"FAIL: {reason}"
        if reason is not None:
            bad += 1
        print(f"trial {trial:3d}: n={n:4d} m={m:5d} root={root:4d}  {status}")
    print(f"\n{args.trials - bad}/{args.trials} valid DFS trees")
    return 1 if bad else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import DFSService, ServiceConfig, ServiceServer

    config = ServiceConfig(
        kernel_backend=args.backend,
        max_batch=args.max_batch,
        executor_workers=args.workers,
        rebuild_fraction=args.rebuild_fraction,
        verify_every=args.verify_every,
        slo_ms=args.slo_ms,
    )
    if args.flight_dir is not None:  # else keep the REPRO_FLIGHT_DIR default
        config.flight_dir = args.flight_dir

    async def run() -> None:
        server = ServiceServer(DFSService(config), args.host, args.port)
        await server.start()
        host, port = server.address
        print(
            f"repro service listening on {host}:{port} "
            f"(backend={config.kernel_backend}, "
            f"max_batch={config.max_batch}, "
            f"rebuild_fraction={config.rebuild_fraction})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Poll a running service's ``stats`` op (optionally repeatedly)."""
    import json
    import time as _time

    from .service.client import ServiceClient

    request: dict = {"op": "stats"}
    if args.format == "openmetrics":
        request["format"] = "openmetrics"
    if args.graph is not None:
        request["graph"] = args.graph
    while True:
        with ServiceClient(
            args.host, args.port, timeout=args.timeout
        ) as client:
            response = client.request(request)
        if not response.get("ok"):
            print(
                json.dumps(response, sort_keys=True, indent=2),
                file=sys.stderr,
            )
            return 1
        if args.format == "openmetrics":
            # the exposition text is the payload; print it verbatim
            sys.stdout.write(response["openmetrics"])
            sys.stdout.flush()
        else:
            print(json.dumps(response, sort_keys=True, indent=2))
        if args.watch is None:
            return 0
        _time.sleep(args.watch)


def _parse_pairs(text: str) -> list[list[int]]:
    """``"0-1,2-3"`` -> ``[[0, 1], [2, 3]]`` (client-side edge syntax)."""
    pairs = []
    for chunk in text.split(","):
        u, sep, v = chunk.partition("-")
        if not sep:
            raise ValueError(f"bad edge {chunk!r}; expected u-v")
        pairs.append([int(u), int(v)])
    return pairs


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient

    if args.json is not None:
        request = json.loads(args.json)
    else:
        if args.op is None:
            print("client needs --op or --json", file=sys.stderr)
            return 2
        request = {"op": args.op}
        if args.graph is not None:
            request["graph"] = args.graph
        if args.root is not None:
            request["root"] = args.root
        if args.family is not None:
            request["family"] = args.family
        if args.n is not None:
            request["n"] = args.n
        if args.seed is not None:
            request["seed"] = args.seed
        try:
            if args.insert is not None:
                request["insert"] = _parse_pairs(args.insert)
            if args.delete is not None:
                request["delete"] = _parse_pairs(args.delete)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        response = client.request(request)
    try:
        print(json.dumps(response, sort_keys=True, indent=2))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if response.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel DFS (Ghaffari–Grunau–Qu, SPAA 2023) — "
        "reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dfs", help="run the parallel DFS on one graph")
    p.add_argument("--family", choices=sorted(FAMILIES), default="gnm")
    p.add_argument("--edge-list", default=None, metavar="FILE",
                   help="read the graph from an edge-list file instead")
    p.add_argument("--save-tree", default=None, metavar="FILE",
                   help="write the resulting DFS tree as JSON")
    p.add_argument("--trace", default=None, metavar="DIR",
                   help="record a span trace and write trace.json/.jsonl/"
                        ".txt into DIR (see docs/observability.md)")
    p.add_argument("--n", type=_positive_int, default=512)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend", choices=_KERNEL_BACKENDS, default=None,
        help="kernel engine (default: REPRO_KERNEL_BACKEND, else tracked)",
    )
    p.set_defaults(fn=_cmd_dfs)

    p = sub.add_parser("sweep", help="size sweep with scaling slopes")
    p.add_argument("--family", choices=sorted(FAMILIES), default="gnm")
    p.add_argument("--sizes", type=_size_list, default="256,512,1024")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="parallel")
    p.add_argument("--seeds", type=_positive_int, default=1)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("selfcheck", help="validate random instances")
    p.add_argument("--trials", type=_positive_int, default=20)
    # n is drawn from [2, max_n), so the range needs max_n >= 3
    p.add_argument("--max-n", type=_int_at_least(3), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selfcheck)

    p = sub.add_parser(
        "serve", help="run the DFS service (line-delimited JSON over TCP)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = ephemeral, printed on startup)")
    p.add_argument("--backend", choices=_KERNEL_BACKENDS, default="numpy",
                   help="kernel engine resident graphs run on")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="executor threads for query batches")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max requests coalesced per batch round")
    p.add_argument("--rebuild-fraction", type=float, default=0.25,
                   help="affected-region fraction above which an update "
                        "batch falls back to full recompute")
    p.add_argument("--verify-every", type=int, default=0, metavar="N",
                   help="self-audit every Nth dfs response against a "
                        "fresh recompute (0 = off)")
    p.add_argument("--slo-ms", type=float, default=0.0, metavar="MS",
                   help="latency SLO; slower responses fire the "
                        "slow_request flight-recorder anomaly (0 = off)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="write flight-recorder anomaly dumps (Perfetto "
                        "bundles) into DIR (default: record only)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "stats", help="poll a running DFS service's stats/metrics"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--format", choices=("json", "openmetrics"),
                   default="json",
                   help="json stats document or OpenMetrics text "
                        "exposition")
    p.add_argument("--graph", default=None,
                   help="per-graph stats instead of the service document")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="poll repeatedly at this interval until killed")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "client", help="send one request to a running DFS service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--json", default=None, metavar="REQ",
                   help="raw JSON request (overrides the field flags)")
    p.add_argument("--op", default=None,
                   help="operation (ping/load/update/dfs/stats/graphs/drop)")
    p.add_argument("--graph", default=None)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--insert", default=None, metavar="U-V,U-V",
                   help="edges to insert, e.g. 0-1,2-3")
    p.add_argument("--delete", default=None, metavar="U-V,U-V",
                   help="edges to delete")
    p.set_defaults(fn=_cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
