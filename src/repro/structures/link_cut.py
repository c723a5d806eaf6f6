"""Link-cut trees with path-flag aggregates.

This module provides the *path extraction* half of the Lemma 5.1 interface:
given the maximal spanning forest maintained by HDT, ``FindPathS2P`` must
report a tree path from a component vertex to the nearest separator vertex
using work proportional to the path length and polylog span.

The paper implements this with rake-and-compress trees (Section 6.4); we
provide that implementation in :mod:`repro.structures.rc_tree` and keep this
splay-based link-cut forest as a second, independently correct backend used
for cross-validation and for the backend ablation (DESIGN.md section 5).
Both support:

* ``link(u, v)`` / ``cut(u, v)`` — O(log n) amortized;
* ``set_flag(v)`` — mark v as a separator vertex;
* ``first_flagged_on_path(u, v)`` — the flagged vertex nearest to ``u`` on
  the tree path from ``u`` to ``v``, in O(log n) amortized (via a flag-count
  aggregate over the exposed path);
* ``path(u, v)`` — the explicit vertex path, O(d + log n).

Implementation: classic splay-based LCT with lazy path reversal (evert).
"""

from __future__ import annotations

from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker

__all__ = ["LinkCutForest"]


class _LctNode:
    __slots__ = ("left", "right", "parent", "flip", "vertex", "flag", "flag_count")

    def __init__(self, vertex: int) -> None:
        self.left: _LctNode | None = None
        self.right: _LctNode | None = None
        self.parent: _LctNode | None = None
        self.flip = False
        self.vertex = vertex
        self.flag = False
        self.flag_count = 0


class LinkCutForest:
    """A dynamic forest over vertices ``0..n-1`` with path queries."""

    def __init__(self, n: int, tracker: Tracker | None = None) -> None:
        self.n = n
        self.t = tracker if tracker is not None else Tracker()
        self._lg = (max(2, n) - 1).bit_length() + 1
        self.nodes = [_LctNode(v) for v in range(n)]
        self.t.charge(n, 1)
        # observability counter; the hot path bumps `.value` directly
        self._c_rot = _obs_metrics().counter("lct.splay_rotations")
        #: current edge set, canonical orientation (test support / guards)
        self._edges: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # splay machinery (within preferred-path trees)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_splay_root(x: _LctNode) -> bool:
        p = x.parent
        return p is None or (p.left is not x and p.right is not x)

    def _pull(self, x: _LctNode) -> None:
        fc = 1 if x.flag else 0
        if x.left is not None:
            fc += x.left.flag_count
        if x.right is not None:
            fc += x.right.flag_count
        x.flag_count = fc

    def _push(self, x: _LctNode) -> None:
        if x.flip:
            x.left, x.right = x.right, x.left
            for c in (x.left, x.right):
                if c is not None:
                    c.flip = not c.flip
            x.flip = False

    def _rotate(self, x: _LctNode) -> None:
        self.t.op(1)
        self._c_rot.value += 1
        p = x.parent
        g = p.parent
        p_was_root = self._is_splay_root(p)
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.parent = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.parent = p
            x.left = p
        p.parent = x
        x.parent = g
        if not p_was_root and g is not None:
            if g.left is p:
                g.left = x
            elif g.right is p:
                g.right = x
        self._pull(p)
        self._pull(x)

    def _splay(self, x: _LctNode) -> None:
        # push pending flips along the root-to-x path first
        stack = [x]
        y = x
        while not self._is_splay_root(y):
            self.t.op(1)
            y = y.parent
            stack.append(y)
        while stack:
            self._push(stack.pop())
        while not self._is_splay_root(x):
            p = x.parent
            if not self._is_splay_root(p):
                g = p.parent
                if (g.left is p) == (p.left is x):
                    self._rotate(p)
                else:
                    self._rotate(x)
            self._rotate(x)

    # ------------------------------------------------------------------
    # LCT core
    # ------------------------------------------------------------------
    def _access(self, x: _LctNode) -> _LctNode:
        """Make the root-to-x path preferred; x becomes its splay root."""
        self._splay(x)
        if x.right is not None:
            x.right.parent = x  # becomes a path-parent pointer
            x.right = None
            self._pull(x)
        last = x
        while x.parent is not None:
            self.t.op(1)
            y = x.parent
            self._splay(y)
            if y.right is not None:
                y.right.parent = y
            y.right = x
            self._pull(y)
            self._splay(x)
            last = y
        self._splay(x)
        return last

    def _make_root(self, x: _LctNode) -> None:
        self._access(x)
        x.flip = not x.flip
        self._push(x)

    def _find_root(self, x: _LctNode) -> _LctNode:
        self._access(x)
        while True:
            self._push(x)
            if x.left is None:
                break
            self.t.op(1)
            x = x.left
        self._splay(x)
        return x

    # ------------------------------------------------------------------
    # public forest API
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        return self._find_root(self.nodes[u]) is self._find_root(self.nodes[v])

    def link(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loop")
        key = (u, v) if u < v else (v, u)
        if key in self._edges:
            raise ValueError(f"edge {key} already present")
        if self.connected(u, v):
            raise ValueError(f"link({u}, {v}) would create a cycle")
        nu, nv = self.nodes[u], self.nodes[v]
        self._make_root(nu)
        nu.parent = nv
        self._edges.add(key)

    def cut(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if key not in self._edges:
            raise ValueError(f"edge {key} not in the forest")
        nu, nv = self.nodes[u], self.nodes[v]
        self._make_root(nu)
        self._access(nv)
        # v's splay tree now holds the path u..v; u is v's left descendant
        self._push(nv)
        nv.left.parent = None
        nv.left = None
        self._pull(nv)
        self._edges.discard(key)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def edge_set(self) -> set[tuple[int, int]]:
        """Current forest edges, canonical orientation."""
        return set(self._edges)

    def batch_update(
        self,
        cuts: list[tuple[int, int]],
        links: list[tuple[int, int]],
    ) -> None:
        """Apply a batch of cuts then links (mirror-replay convenience).

        Span charged as one cited batch-primitive (the RC backend handles
        the same batch in one O(log n log* n)-depth propagation; this splay
        backend is the ablation alternative)."""
        with self.t.primitive(2 * self._lg):
            for u, v in cuts:
                self.cut(u, v)
            for u, v in links:
                self.link(u, v)

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------
    def set_flag(self, v: int, value: bool) -> None:
        node = self.nodes[v]
        self._splay(node)
        node.flag = value
        self._pull(node)

    def get_flag(self, v: int) -> bool:
        return self.nodes[v].flag

    # ------------------------------------------------------------------
    # path queries
    # ------------------------------------------------------------------
    def _expose_path(self, u: int, v: int) -> _LctNode:
        """Return the splay root of the path u..v (u end = leftmost)."""
        if not self.connected(u, v):
            raise ValueError(f"{u} and {v} are in different trees")
        self._make_root(self.nodes[u])
        self._access(self.nodes[v])
        return self.nodes[v]

    def path(self, u: int, v: int) -> list[int]:
        """The explicit vertex path from u to v.

        Work O(d + log n); span O(height of the exposed splay tree): the
        extraction is a tree walk whose two sides are independent, so its
        critical path is the tree height, not the path length.
        """
        root = self._expose_path(u, v)
        out: list[int] = []
        max_depth = [0]

        def visit(x: _LctNode | None, depth: int) -> None:
            if x is None:
                return
            if depth > max_depth[0]:
                max_depth[0] = depth
            self._push(x)
            visit(x.left, depth + 1)
            out.append(x.vertex)
            visit(x.right, depth + 1)

        visit(root, 1)
        self.t.charge(len(out), max_depth[0])
        return out

    def first_flagged_on_path(self, u: int, v: int) -> int | None:
        """The flagged vertex nearest to u on the path u..v (u included)."""
        root = self._expose_path(u, v)
        if root.flag_count == 0:
            return None
        x = root
        # descend to the leftmost flagged node in the path order
        while True:
            self.t.op(1)
            self._push(x)
            if x.left is not None and x.left.flag_count > 0:
                x = x.left
                continue
            if x.flag:
                self._splay(x)
                return x.vertex
            x = x.right

    def path_prefix_to_first_flagged(self, u: int, v: int) -> list[int] | None:
        """Vertices from u up to (and including) the first flagged vertex on
        the path u..v, or None if no flagged vertex lies on it.

        Work O(prefix length + log n): the suffix past the flagged vertex is
        never touched.
        """
        q = self.first_flagged_on_path(u, v)
        if q is None:
            return None
        return self.path(u, q)


def _wrap_primitive(cls, names):
    """Charge listed operations' span as one cited-primitive depth."""
    for name in names:
        fn = getattr(cls, name)

        def make(fn):
            def wrapper(self, *args, **kwargs):
                with self.t.primitive(self._lg):
                    return fn(self, *args, **kwargs)

            wrapper.__name__ = fn.__name__
            wrapper.__doc__ = fn.__doc__
            return wrapper

        setattr(cls, name, make(fn))


_wrap_primitive(
    LinkCutForest,
    [
        "connected",
        "link",
        "cut",
        "set_flag",
        "path",
        "first_flagged_on_path",
    ],
)
