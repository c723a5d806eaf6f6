"""Graph and result I/O: edge lists, DIMACS, and DFS-tree JSON.

Lets downstream users run the algorithms on their own graphs
(``python -m repro dfs --edge-list mygraph.txt``) and persist trees for
other tools.

Formats
-------
* **edge list** — one ``u v`` pair per line; ``#`` comments; vertex ids are
  arbitrary non-negative integers (gaps allowed; ``n`` = max id + 1).
* **DIMACS** — the classic ``p edge N M`` / ``e u v`` format (1-indexed on
  disk, converted to 0-indexed in memory).
* **DFS tree JSON** — ``{"root": r, "parent": {...}, "depth": {...}}`` with
  string keys (JSON objects), parsed back to ints.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graph import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "save_dfs_tree",
    "load_dfs_tree",
]


def read_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated edge list; ``#`` starts a comment.

    Raises ``ValueError`` with a one-line ``path:line: reason`` message
    on a malformed line, a self-loop or a repeated edge.
    """
    edges: list[tuple[int, int]] = []
    first_seen: dict[tuple[int, int], int] = {}
    n = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v', got {raw.rstrip()!r}"
                )
            u, v = int(parts[0]), int(parts[1])
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex id")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in first_seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate edge {key} "
                    f"(first on line {first_seen[key]})"
                )
            first_seen[key] = lineno
            edges.append((u, v))
            n = max(n, u + 1, v + 1)
    return Graph(n, edges)


def write_edge_list(g: Graph, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_dimacs(path: str | Path) -> Graph:
    """Read the DIMACS ``p edge`` format (1-indexed vertices)."""
    n = None
    edges: list[tuple[int, int]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] not in ("edge", "col"):
                    raise ValueError(f"{path}:{lineno}: bad problem line")
                n = int(parts[2])
            elif parts[0] == "e":
                if n is None:
                    raise ValueError(f"{path}:{lineno}: 'e' before 'p' line")
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                edges.append((u, v))
            else:
                raise ValueError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError(f"{path}: missing 'p edge' line")
    return Graph(n, edges)


def write_dimacs(g: Graph, path: str | Path, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"c {line}\n")
        fh.write(f"p edge {g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"e {u + 1} {v + 1}\n")


def save_dfs_tree(
    path: str | Path,
    root: int,
    parent: dict[int, int | None],
    depth: dict[int, int] | None = None,
) -> None:
    """Persist a DFS tree as JSON."""
    # sorted: the JSON bytes are a canonical function of the tree, not
    # of the parent dict's insertion history (lint R002)
    payload = {
        "root": root,
        "parent": {str(v): p for v, p in sorted(parent.items())},
    }
    if depth is not None:
        payload["depth"] = {str(v): d for v, d in sorted(depth.items())}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_dfs_tree(
    path: str | Path,
) -> tuple[int, dict[int, int | None], dict[int, int] | None]:
    """Load a DFS tree saved by :func:`save_dfs_tree`."""
    with open(path) as fh:
        payload = json.load(fh)
    root = int(payload["root"])
    # sorted: the loaded dicts get a canonical insertion order whatever
    # order the file carries (lint R002)
    parent = {
        int(v): (None if p is None else int(p))
        for v, p in sorted(payload["parent"].items(), key=lambda kv: int(kv[0]))
    }
    depth = None
    if "depth" in payload:
        depth = {
            int(v): int(d)
            for v, d in sorted(payload["depth"].items(), key=lambda kv: int(kv[0]))
        }
    return root, parent, depth
