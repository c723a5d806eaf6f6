"""E8 — Theorem 3.2: absorption work/depth, plus the kernel fast path.

For a size sweep: builds the separator, runs the absorption, and checks
the theorem's two sides — total work Õ(m) (each absorption's work charged
to the edges it deletes) and depth Õ(√n) — plus the iteration count
against O(√n log n). Also reports the per-operation split (Lemma 5.1).

The backend-comparison table runs the same absorption on the pair the
driver runs: the tracked engine's
:class:`~repro.structures.absorb_ds.AbsorptionStructure` (HDT splay
forests + link-cut mirror, the per-element measurement instrument)
against the numpy engine's
:class:`~repro.structures.flat_absorb.FlatAbsorptionStructure` (flat
arrays, aggregate charges). It asserts the outputs are byte-identical
(parent/depth maps, absorbed sets, iteration counts) and reports both
wall clocks without a hard speedup gate; kernel-level speedups are
asserted in E16 and the E17 subsystem table.
"""

from __future__ import annotations

import random
import time

from conftest import publish

from repro.analysis import format_table, geometric_sizes, loglog_slope
from repro.core.absorption import absorb_separator
from repro.core.separator import build_separator
from repro.graph.generators import gnm_random_connected_graph
from repro.pram import Tracker
from repro.structures.absorb_ds import AbsorptionStructure
from repro.structures.flat_absorb import FlatAbsorptionStructure

SIZES = geometric_sizes(256, 4096)


def run_experiment():
    rows = []
    iters = []
    for n in SIZES:
        g = gnm_random_connected_graph(n, 3 * n, seed=0)
        t = Tracker()
        rng = random.Random(0)
        sep = build_separator(g, t, rng)
        parent = {0: None}
        depth = {0: 0}
        t.reset()
        out = absorb_separator(
            g, sep.paths, 0, 0, parent, depth, t=t, rng=rng
        )
        logn = g.n.bit_length()
        iters.append(out.iterations)
        rows.append(
            (
                n,
                g.m,
                out.iterations,
                round(out.iterations / (n**0.5), 2),
                t.work,
                round(t.work / (g.m * logn**2), 2),
                t.span,
                round(t.span / (n**0.5 * logn**3), 2),
            )
        )
    it_slope = loglog_slope(SIZES, iters)
    return rows, it_slope


def _absorb_once(g, kernel_backend):
    t = Tracker()
    rng = random.Random(0)
    sep = build_separator(g, t, rng)
    parent = {0: None}
    depth = {0: 0}
    t0 = time.perf_counter()
    out = absorb_separator(
        g, sep.paths, 0, 0, parent, depth, t=t, rng=rng,
        kernel_backend=kernel_backend,
    )
    wall = time.perf_counter() - t0
    return wall, out, parent, depth


def run_backend_comparison(sizes=(1000, 4000)):
    """Tracked AbsorptionStructure vs numpy FlatAbsorptionStructure:
    identical outputs, wall clock."""
    rows = []
    for n in sizes:
        g = gnm_random_connected_graph(n, 3 * n, seed=0)
        w_tr, o_tr, p_tr, d_tr = _absorb_once(g, "tracked")
        w_np, o_np, p_np, d_np = _absorb_once(g, "numpy")
        assert type(o_tr.structure) is AbsorptionStructure
        assert type(o_np.structure) is FlatAbsorptionStructure
        assert p_tr == p_np, f"n={n}: parent maps differ across backends"
        assert d_tr == d_np, f"n={n}: depth maps differ across backends"
        assert o_tr.absorbed_local == o_np.absorbed_local
        assert o_tr.iterations == o_np.iterations
        rows.append(
            (
                n,
                g.m,
                o_tr.iterations,
                round(w_tr, 3),
                round(w_np, 3),
                round(w_tr / w_np, 2),
            )
        )
    return rows


def render(rows, it_slope):
    table = format_table(
        [
            "n",
            "m",
            "iters",
            "iters/sqrt(n)",
            "work",
            "/(m lg^2 n)",
            "span",
            "/(sqrt(n) lg^3)",
        ],
        rows,
    )
    return "\n".join(
        [
            table,
            "",
            f"log-log slope of iterations vs n: {it_slope:.3f} "
            "(0.5 = the O(sqrt(n) log n) law)",
        ]
    )


def render_backends(cmp_rows):
    return format_table(
        ["n", "m", "iters", "tracked s", "numpy flat s", "ratio"], cmp_rows
    )


def test_e8_absorption(benchmark):
    rows, it_slope = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    cmp_rows = run_backend_comparison()
    publish(
        "e8_absorption",
        render(rows, it_slope)
        + "\n\nbackend comparison (byte-identical absorption outputs):\n"
        + render_backends(cmp_rows),
        data={
            "it_slope": round(it_slope, 4),
            "sweep": [
                {"n": n, "m": m, "iters": i, "work": w, "span": s}
                for n, m, i, _, w, _, s, _ in rows
            ],
            "backends": [
                {
                    "n": n, "m": m, "iters": i,
                    "tracked_s": a, "numpy_s": b, "ratio": r,
                }
                for n, m, i, a, b, r in cmp_rows
            ],
        },
    )
    assert 0.35 <= it_slope <= 0.78
    for n, m, iters, _, work, wn, span, sn in rows:
        # Theorem 3.2's own budget is O(m log^3 n); we sit near m log^2 n
        assert wn <= 4, f"n={n}: absorption work beyond Õ(m)"
        assert sn <= 10, f"n={n}: absorption span beyond Õ(sqrt n)"


def test_e8_smoke():
    """Tiny-n CI gate: the two engines' structures absorb identically."""
    rows = run_backend_comparison(sizes=(400,))
    assert len(rows) == 1  # identity asserts live inside the comparison


if __name__ == "__main__":
    rows, it_slope = run_experiment()
    print(render(rows, it_slope))
    print("\nbackend comparison (byte-identical absorption outputs):")
    print(render_backends(run_backend_comparison()))
