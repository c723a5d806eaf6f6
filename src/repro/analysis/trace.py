"""Trace CLI: one traced DFS run, exported in all three formats.

``python -m repro.analysis.trace --family gnm --n 2000 --out DIR`` runs
:func:`~repro.core.dfs.parallel_dfs` with the observability layer active
and writes into ``DIR``:

* ``trace.json``  — Chrome/Perfetto ``trace_event`` timeline (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
* ``trace.jsonl`` — one JSON object per span/metric for ``jq``/pandas;
* ``trace.txt``   — the terminal tree report (also printed).

The emitted events are schema-checked with
:func:`repro.obs.export.validate_trace_events`; a non-empty problem list
or an empty trace exits nonzero, which is what the CI trace-smoke step
gates on.  ``repro dfs --trace DIR`` (see :mod:`repro.cli`) reuses
:func:`write_exports` for the same artifacts.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Any, Callable

from ..graph.generators import FAMILIES, make_family
from ..obs import (
    Metrics,
    Tracer,
    activate,
    render_tree,
    validate_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from ..pram.tracker import Tracker

__all__ = ["trace_dfs", "write_exports", "main"]


def trace_dfs(
    g,
    root: int = 0,
    seed: int = 0,
    kernel_backend: str | None = None,
    clock: Callable[[], float] | None = None,
) -> tuple[Any, Tracer, Metrics]:
    """Run ``parallel_dfs`` with tracing active.

    Returns ``(DFSResult, tracer, metrics)``. ``clock`` is injectable
    for deterministic exports in tests.
    """
    from ..core.dfs import parallel_dfs
    from ..kernels.dispatch import resolve_backend

    t = Tracker()
    kwargs: dict[str, Any] = {"tracker": t, "backend": resolve_backend(kernel_backend)}
    if clock is not None:
        kwargs["clock"] = clock
    trc = Tracer(**kwargs)
    mtr = Metrics()
    with activate(trc, mtr):
        res = parallel_dfs(
            g,
            root,
            tracker=t,
            rng=random.Random(seed),
            kernel_backend=kernel_backend,
        )
    return res, trc, mtr


def write_exports(
    outdir: str, tracer: Tracer, metrics: Metrics | None = None
) -> dict[str, Any]:
    """Write all three artifacts into ``outdir``.

    Returns ``{"events": [...], "problems": [...], "paths": {...}}`` —
    callers decide how to react to validation problems.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "chrome": os.path.join(outdir, "trace.json"),
        "jsonl": os.path.join(outdir, "trace.jsonl"),
        "report": os.path.join(outdir, "trace.txt"),
    }
    events = write_chrome_trace(paths["chrome"], tracer, metrics)
    write_jsonl(paths["jsonl"], tracer, metrics)
    report = render_tree(tracer, metrics)
    with open(paths["report"], "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    return {
        "events": events,
        "problems": validate_trace_events(events),
        "paths": paths,
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.trace",
        description="run one traced parallel DFS and export the trace",
    )
    parser.add_argument("--family", choices=sorted(FAMILIES), default="gnm")
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--root", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kernel-backend", choices=("tracked", "numpy"), default=None
    )
    parser.add_argument("--out", default="trace_out", metavar="DIR")
    args = parser.parse_args(argv)

    g = make_family(args.family, args.n, seed=args.seed)
    res, trc, mtr = trace_dfs(
        g,
        root=args.root,
        seed=args.seed,
        kernel_backend=args.kernel_backend,
    )
    out = write_exports(args.out, trc, mtr)
    print(out["report"])
    print(
        f"\n{len(out['events'])} events "
        f"({len(trc.spans)} spans, {len(res.parent)} tree vertices) "
        f"-> {out['paths']['chrome']}"
    )
    if not out["events"]:
        print("error: empty trace", file=sys.stderr)
        return 1
    if out["problems"]:
        for p in out["problems"]:
            print(f"error: {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
