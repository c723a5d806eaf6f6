"""E14 — wall-clock sanity of the simulator itself.

The paper's claims are about work/depth, not Python wall time; this bench
exists so regressions in the *simulation's* speed are visible.
These are classic pytest-benchmark timings (several rounds each). The
per-case means are collected as they run and published to
``results/e14_wallclock.txt`` + the JSON ledger by the final test, so
the wall-clock history is committed like every other experiment (it
used to live only in pytest-benchmark's transient output).
"""

from __future__ import annotations

import random

from conftest import publish

from repro.analysis import format_table
from repro.baselines.sequential import sequential_dfs
from repro.core.dfs import parallel_dfs
from repro.graph.generators import gnm_random_connected_graph
from repro.pram import Tracker

G_SMALL = gnm_random_connected_graph(256, 768, seed=0)
G_MED = gnm_random_connected_graph(1024, 3072, seed=0)

#: (case, mean s, min s) rows accumulated by the benchmarks in file order
_ROWS: list[tuple[str, float, float]] = []


def _record(name: str, benchmark) -> None:
    st = benchmark.stats.stats
    _ROWS.append((name, round(st.mean, 4), round(st.min, 4)))


def test_e14_wallclock_parallel_dfs_small(benchmark):
    benchmark(
        lambda: parallel_dfs(G_SMALL, 0, tracker=Tracker(), rng=random.Random(0))
    )
    _record("parallel_dfs n=256", benchmark)


def test_e14_wallclock_parallel_dfs_medium(benchmark):
    benchmark.pedantic(
        lambda: parallel_dfs(G_MED, 0, tracker=Tracker(), rng=random.Random(0)),
        rounds=3,
        iterations=1,
    )
    _record("parallel_dfs n=1024", benchmark)


def test_e14_wallclock_sequential_dfs(benchmark):
    benchmark(lambda: sequential_dfs(G_MED, 0, Tracker()))
    _record("sequential_dfs n=1024", benchmark)


def test_e14_publish():
    """Write the collected wall-clock table (runs last in file order)."""
    assert _ROWS, "no benchmark rows collected before publish"
    publish(
        "e14_wallclock",
        format_table(["case", "mean s", "min s"], _ROWS),
        data={
            "cases": [
                {"case": c, "mean_s": m, "min_s": mn} for c, m, mn in _ROWS
            ]
        },
    )
