"""E16 — numpy kernel backend vs tracked backend, wall-clock.

The tracked backend is the measurement instrument (exact per-element
work/span counts); the numpy backend is the execution engine built from
the same round structure (``docs/kernels.md``). This experiment times
both through the public entry points (``prefix_sums_on_lists``,
``maximal_matching``) at n ∈ {1e3, 1e4, 1e5} and checks

* the numpy ranks are *identical* to the tracked ranks (prefix sums are
  uniquely determined by the list — any engine must agree exactly), and
* the numpy matching is *identical* to the tracked matching (the numpy
  kernel draws its priorities in rng lockstep with the tracked one, so a
  broken lockstep fails here) and is maximal,
* at n = 1e5 the numpy backend is ≥ 10× faster on both primitives.

Both engines are timed the same way: best of ``REPS`` runs each, the
runs alternating tracked, numpy, tracked, ..., so that a drift in host
speed reaches both sides of a ratio alike.
"""

from __future__ import annotations

import random
import time

from conftest import publish

from repro.analysis import format_table
from repro.graph.generators import gnm_random_connected_graph
from repro.listrank.ranking import prefix_sums_on_lists
from repro.matching.luby import is_maximal_matching, maximal_matching
from repro.pram import Tracker

SIZES = (1_000, 10_000, 100_000)
#: timed runs per engine and size (the best one counts)
REPS = 3


def _shuffled_list(n: int, seed: int = 3):
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    prev_of: dict[int, int | None] = {ids[0]: None}
    for i in range(1, n):
        prev_of[ids[i]] = ids[i - 1]
    values = {v: (v % 7) + 1 for v in ids}
    return ids, prev_of, values


def _best_of_alternating(tracked, numpy, reps: int = REPS):
    """Best wall clock of ``reps`` runs of each engine, alternating
    between them; returns ``(tracked s, its output, numpy s, its
    output)``."""
    best = [float("inf"), float("inf")]
    out: list[object] = [None, None]
    for _ in range(reps):
        for k, fn in enumerate((tracked, numpy)):
            t0 = time.perf_counter()
            out[k] = fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best[0], out[0], best[1], out[1]


def run_experiment():
    rank_rows = []
    match_rows = []
    for n in SIZES:
        ids, prev_of, values = _shuffled_list(n)
        t_tr, r_tracked, t_np, r_numpy = _best_of_alternating(
            lambda: prefix_sums_on_lists(
                Tracker(), ids, prev_of, values.__getitem__, backend="tracked"
            ),
            lambda: prefix_sums_on_lists(
                Tracker(), ids, prev_of, values.__getitem__, backend="numpy"
            ),
        )
        assert r_numpy == r_tracked, f"rank mismatch at n={n}"
        rank_rows.append((n, round(t_tr, 3), round(t_np, 4), round(t_tr / t_np, 1)))

        g = gnm_random_connected_graph(n, 2 * n, seed=7)
        t_tr, m_tracked, t_np, m_numpy = _best_of_alternating(
            lambda: maximal_matching(
                Tracker(), g.n, g.edges, random.Random(42), backend="tracked"
            ),
            lambda: maximal_matching(
                Tracker(), g.n, g.edges, random.Random(42), backend="numpy"
            ),
        )
        assert m_numpy == m_tracked, f"matching mismatch at n={n}"
        assert is_maximal_matching(g.n, g.edges, m_numpy)
        match_rows.append(
            (n, g.m, round(t_tr, 3), round(t_np, 4), round(t_tr / t_np, 1))
        )
    return rank_rows, match_rows


def render(rank_rows, match_rows):
    rk = format_table(
        ["n", "tracked s", "numpy s", "speedup"], rank_rows
    )
    mm = format_table(
        ["n", "m", "tracked s", "numpy s", "speedup"], match_rows
    )
    return "\n".join(
        [
            "list ranking (prefix_sums_on_lists, identical ranks):",
            rk,
            "",
            "Luby maximal matching (identical matchings, verified maximal):",
            mm,
        ]
    )


def test_e16_kernel_speedup(benchmark):
    rank_rows, match_rows = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    # acceptance: ≥10x on both primitives at n = 1e5; the table is
    # published only once it holds
    assert rank_rows[-1][0] == SIZES[-1]
    assert rank_rows[-1][-1] >= 10, f"ranking speedup {rank_rows[-1][-1]}x"
    assert match_rows[-1][-1] >= 10, f"matching speedup {match_rows[-1][-1]}x"
    publish(
        "e16_kernels",
        render(rank_rows, match_rows),
        data={
            "list_ranking": [
                {"n": n, "tracked_s": a, "numpy_s": b, "speedup": s}
                for n, a, b, s in rank_rows
            ],
            "matching": [
                {"n": n, "m": m, "tracked_s": a, "numpy_s": b, "speedup": s}
                for n, m, a, b, s in match_rows
            ],
        },
    )


if __name__ == "__main__":
    print(render(*run_experiment()))
