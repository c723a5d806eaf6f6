"""Vertex-disjoint paths stored as doubly-linked lists.

Theorem 3.1 requires "each path is stored as one doubly-linked list". On a
PRAM the natural layout is two shared arrays ``next[v]`` / ``prev[v]``
indexed by vertex id — every pointer update is an O(1) operation and any
processor can touch any node without traversing. :class:`PathCollection`
models exactly that: a set of vertex-disjoint simple paths over integer
vertex ids, with O(1) link / cut / endpoint operations.

Vertices not on any path are simply absent. A path is referred to by any of
its member vertices; heads/tails are the members with no prev/next.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["PathCollection"]

_NIL = -1


class PathCollection:
    """A collection of vertex-disjoint doubly-linked paths over int vertices."""

    __slots__ = ("nxt", "prv")

    def __init__(self) -> None:
        #: successor pointer per member vertex (-1 = none / tail)
        self.nxt: dict[int, int] = {}
        #: predecessor pointer per member vertex (-1 = none / head)
        self.prv: dict[int, int] = {}

    # ------------------------------------------------------------------
    # membership / navigation (all O(1))
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self.nxt

    def __len__(self) -> int:
        return len(self.nxt)

    def next(self, v: int) -> int | None:
        w = self.nxt[v]
        return None if w == _NIL else w

    def prev(self, v: int) -> int | None:
        w = self.prv[v]
        return None if w == _NIL else w

    def is_head(self, v: int) -> bool:
        return self.prv[v] == _NIL

    def is_tail(self, v: int) -> bool:
        return self.nxt[v] == _NIL

    def is_singleton(self, v: int) -> bool:
        return self.prv[v] == _NIL and self.nxt[v] == _NIL

    # ------------------------------------------------------------------
    # structural updates (all O(1))
    # ------------------------------------------------------------------
    def add_singleton(self, v: int) -> None:
        if v in self.nxt:
            raise ValueError(f"vertex {v} already on a path")
        self.nxt[v] = _NIL
        self.prv[v] = _NIL

    def remove_singleton(self, v: int) -> None:
        if self.nxt[v] != _NIL or self.prv[v] != _NIL:
            raise ValueError(f"vertex {v} is not a singleton")
        del self.nxt[v]
        del self.prv[v]

    def link(self, u: int, v: int) -> None:
        """Join the path ending at tail ``u`` to the path starting at head ``v``."""
        if self.nxt[u] != _NIL:
            raise ValueError(f"{u} is not a tail")
        if self.prv[v] != _NIL:
            raise ValueError(f"{v} is not a head")
        self.nxt[u] = v
        self.prv[v] = u

    def cut_after(self, v: int) -> int | None:
        """Cut the link between ``v`` and its successor; return the old successor."""
        w = self.nxt[v]
        if w == _NIL:
            return None
        self.nxt[v] = _NIL
        self.prv[w] = _NIL
        return w

    def cut_before(self, v: int) -> int | None:
        """Cut the link between ``v`` and its predecessor; return the old predecessor."""
        u = self.prv[v]
        if u == _NIL:
            return None
        self.prv[v] = _NIL
        self.nxt[u] = _NIL
        return u

    def discard_path(self, member: int) -> list[int]:
        """Remove the entire path containing ``member``; return its vertices."""
        vs = self.path_of(member)
        for v in vs:
            del self.nxt[v]
            del self.prv[v]
        return vs

    # ------------------------------------------------------------------
    # traversal helpers (O(path length); used by tests and by steps whose
    # cost budget is proportional to the path length anyway)
    # ------------------------------------------------------------------
    def head_of(self, v: int) -> int:
        while self.prv[v] != _NIL:
            v = self.prv[v]
        return v

    def tail_of(self, v: int) -> int:
        while self.nxt[v] != _NIL:
            v = self.nxt[v]
        return v

    def iter_from(self, head: int) -> Iterator[int]:
        v = head
        while v != _NIL:
            yield v
            v = self.nxt[v]

    def path_of(self, member: int) -> list[int]:
        """All vertices of the path containing ``member``, head to tail."""
        return list(self.iter_from(self.head_of(member)))

    def heads(self) -> list[int]:
        """All path heads, ascending (O(total size); for tests/setup,
        not hot loops — hence no tracker charge)."""
        return sorted(v for v, p in self.prv.items() if p == _NIL)  # repro-lint: disable=R001

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the doubly-linked structure (test support)."""
        for v, w in self.nxt.items():
            if w != _NIL:
                assert w in self.prv, f"dangling next {v}->{w}"
                assert self.prv[w] == v, f"next/prev mismatch at {v}->{w}"
        for v, u in self.prv.items():
            if u != _NIL:
                assert u in self.nxt, f"dangling prev {v}->{u}"
                assert self.nxt[u] == v, f"prev/next mismatch at {u}<-{v}"
        # acyclicity: every vertex reaches a head in <= len steps
        seen_budget = len(self.nxt) + 1
        for v in self.nxt:
            x, steps = v, 0
            while self.prv[x] != _NIL:
                x = self.prv[x]
                steps += 1
                assert steps <= seen_budget, f"cycle detected through {v}"
