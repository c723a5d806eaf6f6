"""Euler tour trees: the dynamic-forest substrate of the HDT structure.

The parallelized HDT connectivity structure of [AABD19] stores each level's
spanning forest as Euler tours (R2 in Appendix C). An Euler tour tree
represents each tree of a forest as the cyclic sequence of a closed Euler
tour, kept in a balanced binary search tree so that ``link``/``cut`` are
sequence splits and concatenations costing ``O(log n)`` amortized.

Representation: one *vertex node* per vertex (its single designated tour
occurrence) and two *arc nodes* per tree edge ``{u, v}`` (the traversals
``u->v`` and ``v->u``). The tour of a tree is any cyclic rotation of a valid
Euler tour; ``link`` rotates both tours to start at the endpoints and
concatenates; ``cut`` removes the two arcs, which always bracket one side's
subtour.

The sequence is kept in a splay tree with parent pointers. Every node
carries two integer tags (``val1``, ``val2``) that the HDT layers read
per node in :meth:`EulerTourForest.component_collect` — ``val1`` on vertex
nodes for "number of incident non-tree edges at this level" and ``val2`` on
arc nodes for "this tree edge has exactly this level". The subtree
aggregates are the node count, the vertex count (component sizes), the
minimum vertex id (component representative) and the minimum vertex key.

Cost accounting: every pointer step / rotation charges one op to the
tracker; these operations are inherently sequential pointer chases, so work
and span coincide per operation (amortized ``O(log n)`` each), and batch
parallelism across *independent components* is expressed by the callers.
"""

from __future__ import annotations


from ..obs.runtime import metrics as _obs_metrics
from ..pram.tracker import Tracker

__all__ = ["EulerTourForest", "TourNode"]

_NO_VERTEX = 1 << 62
_NO_KEY = 1 << 62


class TourNode:
    """A node of the tour sequence: a vertex occurrence or a directed arc."""

    __slots__ = (
        "left",
        "right",
        "parent",
        "size",
        "vcount",
        "is_vertex",
        "label",
        "val1",
        "val2",
        "minv",
        "key3",
        "agg3key",
        "agg3arg",
    )

    def __init__(self, label, is_vertex: bool) -> None:
        self.left: TourNode | None = None
        self.right: TourNode | None = None
        self.parent: TourNode | None = None
        self.size = 1
        self.vcount = 1 if is_vertex else 0
        self.is_vertex = is_vertex
        #: vertex id (vertex node) or (u, v) tuple (arc node)
        self.label = label
        self.val1 = 0
        self.val2 = 0
        #: minimum vertex id among vertex nodes in this subtree (stable
        #: component representative; 2**62 when the subtree has none)
        self.minv = label if is_vertex else _NO_VERTEX
        #: per-vertex ordering key (e.g. depth of the lowest tree neighbor in
        #: T'); _NO_KEY = unset. agg3key/agg3arg = (min key, its vertex).
        self.key3 = _NO_KEY
        self.agg3key = _NO_KEY
        self.agg3arg = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "v" if self.is_vertex else "a"
        return f"<{kind}:{self.label}>"


class EulerTourForest:
    """A forest over vertices ``0..n-1`` maintained as Euler tours."""

    def __init__(self, n: int, tracker: Tracker | None = None) -> None:
        self.n = n
        self.t = tracker if tracker is not None else Tracker()
        # span bound charged per public operation (cited batch-parallel
        # primitive depth, see Tracker.primitive and DESIGN.md section 2)
        self._lg = (max(2, n) - 1).bit_length() + 1
        self.vnode: list[TourNode] = [TourNode(v, True) for v in range(n)]
        self.t.charge(n, 1)
        #: arc nodes keyed by directed pair
        self.arcs: dict[tuple[int, int], TourNode] = {}
        # observability instruments, bound once at construction; hot paths
        # bump `.value` directly (a no-op registry hands out unregistered
        # instruments, so the disabled path runs the identical code)
        self._c_rot = _obs_metrics().counter("ett.splay_rotations")
        self._h_splay = _obs_metrics().histogram("ett.splay_depth")

    # ------------------------------------------------------------------
    # splay machinery
    # ------------------------------------------------------------------
    def _pull(self, x: TourNode) -> None:
        size = 1
        vcount = 1 if x.is_vertex else 0
        minv = x.label if x.is_vertex else _NO_VERTEX
        l, r = x.left, x.right
        if l is not None:
            size += l.size
            vcount += l.vcount
            if l.minv < minv:
                minv = l.minv
        if r is not None:
            size += r.size
            vcount += r.vcount
            if r.minv < minv:
                minv = r.minv
        # canonical argmin: ties on the key resolve to the smallest vertex
        # id, so the winner is a function of the component's *contents*,
        # never of the current splay shape (the flat array structure must
        # agree with it, see docs/kernels.md)
        k3 = x.key3 if x.is_vertex else _NO_KEY
        a3 = x.label if (x.is_vertex and x.key3 != _NO_KEY) else -1
        if l is not None and (l.agg3key, l.agg3arg) < (k3, a3):
            k3 = l.agg3key
            a3 = l.agg3arg
        if r is not None and (r.agg3key, r.agg3arg) < (k3, a3):
            k3 = r.agg3key
            a3 = r.agg3arg
        x.size = size
        x.vcount = vcount
        x.minv = minv
        x.agg3key = k3
        x.agg3arg = a3

    def _rotate(self, x: TourNode) -> None:
        self.t.op(1)
        self._c_rot.value += 1
        p = x.parent
        g = p.parent
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
        if g is not None:
            if g.left is p:
                g.left = x
            else:
                g.right = x
        self._pull(p)
        self._pull(x)

    def _splay(self, x: TourNode) -> TourNode:
        r0 = self._c_rot.value
        while x.parent is not None:
            p = x.parent
            g = p.parent
            if g is None:
                self._rotate(x)
            elif (g.left is p) == (p.left is x):
                self._rotate(p)
                self._rotate(x)
            else:
                self._rotate(x)
                self._rotate(x)
        # rotation count == splay depth of x (amortized O(log n))
        self._h_splay.observe(self._c_rot.value - r0)
        return x

    def _find_root(self, x: TourNode) -> TourNode:
        while x.parent is not None:
            self.t.op(1)
            x = x.parent
        return self._splay(x)

    def _last(self, root: TourNode) -> TourNode:
        x = root
        while x.right is not None:
            self.t.op(1)
            x = x.right
        return x

    def _split_before(
        self, x: TourNode
    ) -> tuple[TourNode | None, TourNode]:
        """Split the sequence containing x into (prefix, suffix-starting-at-x)."""
        self._splay(x)
        l = x.left
        if l is not None:
            l.parent = None
            x.left = None
            self._pull(x)
        return l, x

    def _split_after(self, x: TourNode) -> tuple[TourNode, TourNode | None]:
        """Split into (prefix-ending-at-x, suffix)."""
        self._splay(x)
        r = x.right
        if r is not None:
            r.parent = None
            x.right = None
            self._pull(x)
        return x, r

    def _merge(
        self, a: TourNode | None, b: TourNode | None
    ) -> TourNode | None:
        if a is None:
            return b
        if b is None:
            return a
        last = self._splay(self._last(self._splay(a)))
        last.right = b
        b.parent = last
        self._pull(last)
        return last

    def _index(self, x: TourNode) -> int:
        """Position of x in its sequence (0-based)."""
        self._splay(x)
        return x.left.size if x.left is not None else 0

    # ------------------------------------------------------------------
    # forest operations
    # ------------------------------------------------------------------
    def _reroot(self, v: int) -> TourNode:
        """Rotate v's tour so it starts at v's vertex node; return the root."""
        prefix, suffix = self._split_before(self.vnode[v])
        out = self._merge(suffix, prefix)
        assert out is not None
        return out

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        return self._find_root(self.vnode[u]) is self._find_root(self.vnode[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def link(self, u: int, v: int) -> None:
        """Add tree edge {u, v}; endpoints must be in different trees."""
        if u == v:
            raise ValueError("self-loop")
        if (u, v) in self.arcs:
            raise ValueError(f"edge ({u}, {v}) already present")
        if self.connected(u, v):
            raise ValueError(f"link({u}, {v}) would create a cycle")
        a1 = TourNode((u, v), False)
        a2 = TourNode((v, u), False)
        self.arcs[(u, v)] = a1
        self.arcs[(v, u)] = a2
        tu = self._reroot(u)
        tv = self._reroot(v)
        self._merge(self._merge(self._merge(tu, a1), tv), a2)

    def cut(self, u: int, v: int) -> None:
        """Remove tree edge {u, v}."""
        try:
            a1 = self.arcs.pop((u, v))
            a2 = self.arcs.pop((v, u))
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) not in the forest") from None
        if self._index(a1) > self._index(a2):
            a1, a2 = a2, a1
        prefix, rest = self._split_before(a1)
        _, rest2 = self._split_after(a1)  # drop the leading arc
        if rest2 is None:  # pragma: no cover - tours always have >= 3 nodes
            raise AssertionError("malformed tour")
        mid, tail_with_a2 = self._split_before(a2)
        _, tail = self._split_after(a2)  # drop the second arc
        # mid is one component's tour; prefix+tail is the other's
        self._merge(prefix, tail)
        # (mid is already a standalone tree root or None — None impossible:
        # the segment between the arcs contains at least v's vertex node)
        assert mid is not None

    # ------------------------------------------------------------------
    # queries / aggregates
    # ------------------------------------------------------------------
    def component_size(self, v: int) -> int:
        """Number of vertices in v's tree."""
        return self._find_root(self.vnode[v]).vcount

    def component_rep(self, v: int) -> int:
        """Stable component representative: the minimum vertex id in v's tree."""
        return self._find_root(self.vnode[v]).minv

    def set_vertex_key(self, v: int, key: int | None) -> None:
        """Set (or clear, with None) v's ordering key for the min aggregate."""
        node = self._splay(self.vnode[v])
        node.key3 = _NO_KEY if key is None else key
        self._pull(node)

    def vertex_key(self, v: int) -> int | None:
        k = self.vnode[v].key3
        return None if k == _NO_KEY else k

    def component_min_key(self, v: int) -> tuple[int, int] | None:
        """(min key, vertex achieving it) over v's tree, or None if no keys."""
        root = self._find_root(self.vnode[v])
        if root.agg3key == _NO_KEY:
            return None
        return root.agg3key, root.agg3arg

    def set_vertex_val1(self, v: int, value: int) -> None:
        node = self._splay(self.vnode[v])
        node.val1 = value
        self._pull(node)

    def add_vertex_val1(self, v: int, delta: int) -> None:
        node = self._splay(self.vnode[v])
        node.val1 += delta
        if node.val1 < 0:
            raise ValueError(f"val1 of vertex {v} went negative")
        self._pull(node)

    def vertex_val1(self, v: int) -> int:
        return self.vnode[v].val1

    def set_arc_val2(self, u: int, v: int, value: int) -> None:
        """Tag the tree edge {u, v} (stored on its (u, v) arc node)."""
        node = self.arcs.get((u, v))
        if node is None:
            raise ValueError(f"edge ({u}, {v}) not in the forest")
        self._splay(node)
        node.val2 = value
        self._pull(node)

    # ------------------------------------------------------------------
    # enumeration (O(size of component); used on the *smaller* side only)
    # ------------------------------------------------------------------
    def component_collect(
        self, v: int
    ) -> tuple[list[int], list[tuple[int, int]], list[int]]:
        """One traversal of v's tree: ``(vertices, tagged_arcs, marked)``.

        ``vertices`` are all vertex labels, ``tagged_arcs`` the arc labels
        with ``val2 > 0`` (level-i tree edges), ``marked`` the vertex
        labels with ``val1 > 0`` (vertices holding level-i non-tree
        edges). This is the array-encoded read the canonical replacement
        search of :meth:`repro.structures.hdt.HDTConnectivity.batch_delete`
        runs on — one O(size) sweep whose result, once sorted by the
        caller, is independent of the splay shape.
        """
        root = self._find_root(self.vnode[v])
        verts: list[int] = []
        arcs2: list[tuple[int, int]] = []
        marked: list[int] = []
        stack = [root]
        while stack:
            self.t.op(1)
            x = stack.pop()
            if x.is_vertex:
                verts.append(x.label)
                if x.val1 > 0:
                    marked.append(x.label)
            elif x.val2 > 0:
                arcs2.append(x.label)
            if x.left is not None:
                stack.append(x.left)
            if x.right is not None:
                stack.append(x.right)
        return verts, arcs2, marked

    def component_vertices(self, v: int) -> list[int]:
        root = self._find_root(self.vnode[v])
        out: list[int] = []
        stack = [root]
        while stack:
            self.t.op(1)
            x = stack.pop()
            if x.is_vertex:
                out.append(x.label)
            if x.left is not None:
                stack.append(x.left)
            if x.right is not None:
                stack.append(x.right)
        return out

    def tour_sequence(self, v: int) -> list:
        """The tour labels of v's tree in order (test support)."""
        root = self._find_root(self.vnode[v])
        out: list = []

        def visit(x: TourNode | None) -> None:
            if x is None:
                return
            visit(x.left)
            out.append(x.label)
            visit(x.right)

        visit(root)
        return out

    def check_invariants(self) -> None:
        """Validate splay aggregates and tour well-formedness (tests)."""
        seen_roots = set()
        for v in range(self.n):
            root = self._find_root(self.vnode[v])
            if id(root) in seen_roots:
                continue
            seen_roots.add(id(root))
            seq = self.tour_sequence(v)
            # aggregate re-check
            stack = [root]
            while stack:
                x = stack.pop()
                size, vcount = 1, 1 if x.is_vertex else 0
                k3 = x.key3 if x.is_vertex else _NO_KEY
                for c in (x.left, x.right):
                    if c is not None:
                        assert c.parent is x
                        size += c.size
                        vcount += c.vcount
                        k3 = min(k3, c.agg3key)
                        stack.append(c)
                assert x.size == size
                assert x.vcount == vcount
                assert x.agg3key == k3
            # tour well-formedness: arcs pair up like balanced brackets
            # (cyclically). Rotate so the sequence starts at a vertex node.
            arcs_in_tour = [lab for lab in seq if isinstance(lab, tuple)]
            assert len(arcs_in_tour) % 2 == 0


def _wrap_primitive(cls, names):
    """Charge each listed public operation's span as one cited-primitive
    depth (O(log n)) while keeping its measured work.

    Semantically identical to wrapping the body in
    ``Tracker.primitive(self._lg)``; inlined (save span, restore
    ``s0 + _lg``) because these methods are the hottest call sites in the
    absorption phase and the contextmanager protocol is measurable there.
    """
    for name in names:
        fn = getattr(cls, name)

        def make(fn):
            def wrapper(self, *args, **kwargs):
                t = self.t
                s0 = t.span
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    t.span = s0 + self._lg

            wrapper.__name__ = fn.__name__
            wrapper.__doc__ = fn.__doc__
            return wrapper

        setattr(cls, name, make(fn))


_wrap_primitive(
    EulerTourForest,
    [
        "connected",
        "link",
        "cut",
        "component_size",
        "component_rep",
        "set_vertex_key",
        "component_min_key",
        "set_vertex_val1",
        "add_vertex_val1",
        "set_arc_val2",
        "component_vertices",
        "component_collect",
    ],
)
