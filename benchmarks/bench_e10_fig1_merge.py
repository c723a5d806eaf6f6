"""E10 — Figure 1 regenerated: merging long and short paths.

The paper's Figure 1 illustrates one path-merging round: long paths extend
through D-vertices, reach short paths, and the merged path replaces
``l`` and ``s`` with ``l' p s'`` while ``l''`` is discarded and ``s''``
survives as a shorter short path. This bench constructs a crafted instance
where all of those events occur, runs the real Section 4.2/4.3 machinery,
and prints the before/after picture the figure shows.
"""

from __future__ import annotations

import random

from conftest import publish

from repro.core.path_merge import FlatPaths, merge_paths
from repro.core.reduction import _assemble_merged
from repro.graph.graph import Graph
from repro.pram import Tracker


def build_instance():
    # layout (vertex ids):
    #   long l  = 0-1-2          (head at 2)
    #   D path  = 3-4            (the connector p)
    #   short s = 5-6-7-8-9      (joined at 7 -> s' = 5,6 ; s'' = 8,9)
    # plus a decoy long 10-11 that dies (no route to any short)
    edges = [
        (0, 1), (1, 2),          # long l
        (2, 3), (3, 4), (4, 7),  # connector corridor into the short
        (5, 6), (6, 7), (7, 8), (8, 9),  # short s
        (10, 11),                # doomed long (isolated pair)
    ]
    return Graph(12, edges)


def run_experiment():
    g = build_instance()
    t = Tracker()
    rng = random.Random(4)
    longs = [[0, 1, 2], [10, 11]]
    shorts = [[5, 6, 7, 8, 9]]
    res = merge_paths(g, t, longs, shorts, rng, threshold=1.0)
    merged, remaining = (
        p.tolist()
        for p in _assemble_merged(g, t, res, FlatPaths.from_lists(shorts), rng)
    )
    return g, longs, shorts, res, merged, remaining


def render(g, longs, shorts, res, merged, remaining):
    lines = [
        "before (Figure 1 left):",
        f"  long paths  L = {longs}",
        f"  short paths S = {shorts}",
        "  D = {3, 4} (free vertices), decoy long 10-11 has no route",
        "",
        "merging events:",
    ]
    for i, st in enumerate(res.longs):
        lines.append(
            f"  long {i}: status={st.status}, extension p={st.extension}, "
            f"killed={st.killed_orig + st.killed_ext}"
        )
    lines += [
        "",
        "after (Figure 1 right):",
        f"  merged paths   = {merged}",
        f"  surviving shorts (the s'' pieces) = {remaining}",
        f"  steps = {res.steps}, |P1| = {len(res.p1)}, |P2| = {len(res.p2)}",
    ]
    return "\n".join(lines)


def test_e10_figure1(benchmark):
    g, longs, shorts, res, merged, remaining = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    publish("e10_fig1_merge", render(g, longs, shorts, res, merged, remaining))
    # the long reached the short through the D corridor
    assert res.longs[0].status == "succeeded"
    assert res.longs[0].extension == [3, 4]
    si, y = res.longs[0].joined_short
    assert (si, y) == (0, 7)
    # the decoy died
    assert res.longs[1].status == "dead"
    # merged path = l + p + y + longer half of s (5,6 side, outward)
    assert merged == [[0, 1, 2, 3, 4, 7, 6, 5]]
    # the shorter half survives as a short path
    assert remaining == [[8, 9]]


if __name__ == "__main__":
    print(render(*run_experiment()))
