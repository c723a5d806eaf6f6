"""repro — reproduction of "Nearly Work-Efficient Parallel DFS in Undirected
Graphs" (Ghaffari, Grunau, Qu; SPAA 2023).

Public API highlights
---------------------
* :func:`repro.parallel_dfs` — the paper's main algorithm (Theorem 1.1):
  a DFS tree in Õ(m+n) work and Õ(√n) depth, measured by a work-span
  tracker.
* :class:`repro.Graph` and :mod:`repro.graph.generators` — inputs.
* :func:`repro.sequential_dfs` — the O(m+n) sequential comparator.
* :mod:`repro.pram` — the work-depth cost model (Brent's principle etc.).
* :mod:`repro.structures` — the batch-dynamic data structures (Lemmas 4.5,
  5.1, 6.1, 6.2).

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction results.
"""

from .graph import Graph
from .pram import Tracker, Cost, brent_time_bounds

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Tracker",
    "Cost",
    "brent_time_bounds",
    "parallel_dfs",
    "sequential_dfs",
    "__version__",
]


def __getattr__(name: str):
    # Lazy imports: the core DFS pulls in every substrate; keep base import cheap.
    if name == "parallel_dfs":
        from .core.dfs import parallel_dfs

        return parallel_dfs
    if name == "sequential_dfs":
        from .baselines.sequential import sequential_dfs

        return sequential_dfs
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
