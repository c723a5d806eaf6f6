"""Figure 1 of the paper, as a runnable trace: merging long and short paths.

Builds the crafted instance from benchmark E10 and narrates one merging
round (Section 4.2): the long path's head extends through free vertices,
reaches a contracted short path, and the merged path replaces l and s with
l' p s' while s'' survives.

Run:  python examples/figure1_path_merging.py
"""

import random

from repro.core.path_merge import FlatPaths, merge_paths
from repro.core.reduction import _assemble_merged
from repro.graph.graph import Graph
from repro.pram import Tracker


def main() -> None:
    #   long l  = 0-1-2      (head at 2)     D corridor = 3-4
    #   short s = 5-6-7-8-9  (reached at 7)  doomed long = 10-11
    g = Graph(12, [
        (0, 1), (1, 2),
        (2, 3), (3, 4), (4, 7),
        (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11),
    ])
    longs = [[0, 1, 2], [10, 11]]
    shorts = [[5, 6, 7, 8, 9]]

    print("before the round (Figure 1, left):")
    print(f"  L = {longs}")
    print(f"  S = {shorts}   D = [3, 4]")
    print()

    t = Tracker()
    rng = random.Random(4)
    res = merge_paths(g, t, longs, shorts, rng, threshold=1.0)

    print(f"the merging ran {res.steps} steps:")
    for i, st in enumerate(res.longs):
        print(f"  long {i} ({st.orig}): {st.status}")
        if st.extension:
            print(f"    grew the connector p = {st.extension}")
        if st.joined_short is not None:
            si, y = st.joined_short
            print(f"    reached short #{si} at contact vertex y = {y}")
        if st.killed_orig or st.killed_ext:
            print(f"    backtracked over {st.killed_orig + st.killed_ext} "
                  "(dead vertices)")
    print()

    merged, remaining = (
        p.tolist()
        for p in _assemble_merged(g, t, res, FlatPaths.from_lists(shorts), rng)
    )
    print("after the round (Figure 1, right):")
    print(f"  merged paths l' p s'      = {merged}")
    print(f"  surviving short piece s'' = {remaining}")
    print(f"  cost of the round: work={t.work}, span={t.span}")


if __name__ == "__main__":
    main()
