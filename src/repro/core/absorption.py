"""Absorption of a path separator into an initial segment (Theorem 3.2).

Given a component ``C``, a path separator ``Q`` of ``C`` and a root ``y``
(already attached to the global partial DFS tree at a known depth), grow an
initial segment ``T'`` of ``C`` that contains every vertex of ``Q`` — so
``T'`` is itself a separator of ``C`` and every remaining component has at
most ``|C|/2`` vertices.

The loop is the proof of Theorem 3.2 verbatim, driven by the Lemma 5.1
structure of the execution engine
(:class:`~repro.structures.absorb_ds.AbsorptionStructure` under tracked,
:class:`~repro.structures.flat_absorb.FlatAbsorptionStructure` under
numpy; byte-identical answers):

1. ``FindCC`` — a component of ``C - T'`` still holding separator vertices;
2. ``LowestNode`` — its vertex ``v`` whose T'-neighbor ``x`` is lowest;
3. ``FindPathS2P`` — a path ``p`` from ``v`` to the first separator vertex
   ``q``, internally disjoint from ``Q``;
4. split the separator path ``l = l' q l''`` at ``q``, absorb ``p q l'``
   (the *longer* half, decided by list ranking per Lemma 2.4), assign
   depths by a prefix sum along the absorbed chain;
5. ``BatchDelete`` the absorbed chain: the HDT forest repairs itself with
   replacement edges, surviving neighbors learn their new lowest
   T'-neighbor, and the shorter half ``l''`` stays in ``Q``.

Each iteration halves one separator path, so there are ``O(√n log n)``
iterations, each polylog depth — ``O(√n polylog)`` depth and Õ(m) work
total (validated in E8).

Crucial bookkeeping for the recursive driver: T' is *global*. A component
deep in the recursion can be adjacent to T' vertices absorbed at earlier
levels, and Observation 2.2 requires attaching at the globally lowest such
vertex. The caller therefore passes ``seeds`` — every known
"(local vertex, global T' neighbor, its depth)" fact inherited from the
parent level — and the structure keeps all witnesses in global ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..graph.graph import Graph
from ..listrank.dllist import PathCollection
from ..listrank.ranking import prefix_sums_on_lists
from ..obs import runtime as obs
from ..pram.tracker import Tracker, log2_ceil
from ..structures.absorb_ds import AbsorptionStructure, make_absorption_structure
from ..structures.flat_absorb import FlatAbsorptionStructure

__all__ = ["AbsorptionOutcome", "absorb_separator"]


@dataclass
class AbsorptionOutcome:
    """The initial segment grown over one component."""

    #: absorbed vertices in *local* ids (including the root)
    absorbed_local: set[int]
    #: the Lemma 5.1 structure, still holding lowest-neighbor data for the
    #: remaining components (the driver queries it to place recursion
    #: roots); an AbsorptionStructure under the tracked engine, a
    #: FlatAbsorptionStructure under numpy
    structure: AbsorptionStructure | FlatAbsorptionStructure
    iterations: int = 0


def _ordered_piece(t: Tracker, pc: PathCollection, member: int) -> list[int]:
    """Materialize one doubly-linked path piece as an ordered list.

    On the PRAM this is Lemma 2.4 (rank every node, scatter by rank):
    O(len) work, O(log len) span — charged as such; the traversal below is
    the sequential simulation of that primitive.
    """
    out = pc.path_of(member)
    t.charge(len(out), log2_ceil(max(2, len(out))) + 1)
    return out


def absorb_separator(
    g: Graph,
    sep_paths: Sequence[Sequence[int]],
    root: int,
    root_depth: int,
    parent: dict[int, int | None],
    depth: dict[int, int],
    to_global: Mapping[int, int] | None = None,
    seeds: Iterable[tuple[int, int, int]] = (),
    t: Tracker | None = None,
    rng: random.Random | None = None,
    kernel_backend: str | None = None,
) -> AbsorptionOutcome:
    """Theorem 3.2 over the component graph ``g`` (local ids).

    ``root``/``sep_paths`` are local; ``parent``/``depth`` are the *global*
    DFS maps, written through ``to_global`` (identity if None). ``seeds``
    are inherited "(local v, global tree vertex, depth)" adjacency facts.
    The root's own global parent/depth entries must already be set.
    ``kernel_backend`` picks the execution engine ("tracked" | "numpy",
    :mod:`repro.kernels.dispatch`) and with it the Lemma 5.1 structure
    (:func:`~repro.structures.absorb_ds.make_absorption_structure`).
    """
    t = t if t is not None else Tracker()
    rng = rng if rng is not None else random.Random(0xAB5)
    if to_global is None:
        to_global = {v: v for v in range(g.n)}

    ds = make_absorption_structure(
        g, tracker=t, global_of=to_global, kernel_backend=kernel_backend
    )
    pc = PathCollection()
    sep_vertices: list[int] = []
    for path in sep_paths:
        prev = None
        for v in path:
            pc.add_singleton(v)
            if prev is not None:
                pc.link(prev, v)
            prev = v
            sep_vertices.append(v)
    t.charge(len(sep_vertices), log2_ceil(max(2, len(sep_vertices))) + 1)
    ds.set_separator(sep_vertices)

    for v_local, x_global, d in seeds:
        ds.set_tree_neighbor(v_local, x_global, d)

    absorbed_local: set[int] = {root}

    # absorb the root itself; if it sits on a separator path, split the
    # path around it (both pieces stay in Q)
    if root in pc:
        t.op(1)
        pc.cut_before(root)
        pc.cut_after(root)
        pc.remove_singleton(root)
    ds.batch_delete([(root, root_depth)])

    iterations = 0
    max_iterations = 8 * g.n + 64
    while True:
        q_probe = ds.find_cc()
        if q_probe is None:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("absorption did not converge (bug)")
        obs.metrics().counter("absorb.iterations").inc()

        with obs.span("absorb.iteration", iteration=iterations) as sp:
            v, x_global, dx = ds.lowest_node(q_probe)
            p = ds.find_path_s2p(q_probe, v)
            q = p[-1]

            # split l = l' q l'' and pick the longer half (Lemma 2.4
            # decides)
            before_member = pc.cut_before(q)
            after_member = pc.cut_after(q)
            pc.remove_singleton(q)
            piece_before = (
                _ordered_piece(t, pc, before_member)
                if before_member is not None
                else []
            )
            piece_after = (
                _ordered_piece(t, pc, after_member)
                if after_member is not None
                else []
            )
            if len(piece_before) >= len(piece_after):
                absorbed_half = list(reversed(piece_before))  # out from q
            else:
                absorbed_half = piece_after
            if absorbed_half:
                pc.discard_path(absorbed_half[0])
                t.charge(len(absorbed_half), 1)

            chain = p + absorbed_half  # v ... q ... l'-end
            sp.set("chain", len(chain))
            obs.metrics().histogram("absorb.chain").observe(len(chain))

            # depths via a prefix sum along the chain (Lemma 2.4): the
            # chain hangs below the tree vertex x at depth dx; each vertex
            # adds 1
            prev_of: dict[int, int | None] = {}
            prev = None
            for w in chain:
                prev_of[w] = prev
                prev = w
            t.charge(len(chain), 1)
            ranks = prefix_sums_on_lists(
                t, chain, prev_of, lambda w: 1, rng=rng, backend=kernel_backend
            )

            chain_depths: dict[int, int] = {}

            def attach(idx_w: tuple[int, int]) -> None:
                i, w = idx_w
                t.op(1)
                wg = to_global[w]
                parent[wg] = x_global if i == 0 else to_global[chain[i - 1]]
                d = dx + ranks[w]
                depth[wg] = d
                chain_depths[w] = d
                absorbed_local.add(w)

            t.parallel_for(list(enumerate(chain)), attach)

            ds.batch_delete([(w, chain_depths[w]) for w in chain])

    return AbsorptionOutcome(
        absorbed_local=absorbed_local, structure=ds, iterations=iterations
    )
