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
from ..kernels.dispatch import is_array_backend
from ..kernels.listrank import replay_contraction
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
    array_engine = is_array_backend(kernel_backend)
    # the separator paths as ranges of one flat sequence: the piece of
    # Q holding seq[j] is seq[lo_of[j]:hi_of[j]] (kept current for the
    # vertices still in Q); materializing a piece (Lemma 2.4: rank,
    # scatter by rank) is charged O(len) work, O(log len) span
    seq: list[int] = []
    lo_of: list[int] = []
    hi_of: list[int] = []
    for path in sep_paths:
        lo = len(seq)
        seq.extend(path)
        lo_of.extend([lo] * (len(seq) - lo))
        hi_of.extend([len(seq)] * (len(seq) - lo))
    at = {v: j for j, v in enumerate(seq)}
    t.charge(len(seq), log2_ceil(max(2, len(seq))) + 1)
    ds.set_separator(seq)

    for v_local, x_global, d in seeds:
        ds.set_tree_neighbor(v_local, x_global, d)

    absorbed_local: set[int] = {root}

    # absorb the root itself; if it sits on a separator path, split the
    # path around it (both pieces stay in Q)
    j = at.get(root)
    if j is not None:
        t.op(1)
        for k in range(lo_of[j], j):
            hi_of[k] = j
        for k in range(j + 1, hi_of[j]):
            lo_of[k] = j + 1
    ds.batch_delete([(root, root_depth)])

    c_iterations = obs.metrics().counter("absorb.iterations")
    h_chain = obs.metrics().histogram("absorb.chain")
    iterations = 0
    max_iterations = 8 * g.n + 64
    while True:
        q_probe = ds.find_cc()
        if q_probe is None:
            break
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("absorption did not converge (bug)")
        c_iterations.inc()

        with obs.span("absorb.iteration", iteration=iterations) as sp:
            v, x_global, dx = ds.lowest_node(q_probe)
            p = ds.find_path_s2p(q_probe, v)

            # split l = l' q l'' and absorb the longer half (Lemma 2.4
            # decides); the shorter one stays in Q with its new bounds
            j = at[p[-1]]
            lo, hi = lo_of[j], hi_of[j]
            n_before, n_after = j - lo, hi - j - 1
            if n_before:
                t.charge(n_before, log2_ceil(max(2, n_before)) + 1)
            if n_after:
                t.charge(n_after, log2_ceil(max(2, n_after)) + 1)
            if n_before >= n_after:
                absorbed_half = seq[lo:j][::-1]  # out from q
                for k in range(j + 1, hi):
                    lo_of[k] = j + 1
            else:
                absorbed_half = seq[j + 1 : hi]
                for k in range(lo, j):
                    hi_of[k] = j
            if absorbed_half:
                t.charge(len(absorbed_half), 1)

            chain = p + absorbed_half  # v ... q ... l'-end
            sp.set("chain", len(chain))
            h_chain.observe(len(chain))

            # depths via a prefix sum along the chain (Lemma 2.4): the
            # chain hangs below the tree vertex x at depth dx and each
            # vertex adds 1, so chain[i] ranks i + 1. The numpy engine
            # replays only the contraction's rng draws and charges; the
            # tracked engine runs the instrumented contraction.
            t.charge(len(chain), 1)
            if array_engine:
                replay_contraction(t, chain, (0, len(chain)), rng)
            else:
                prev_of: dict[int, int | None] = dict(zip(chain, [None] + chain))
                prefix_sums_on_lists(
                    t, chain, prev_of, lambda w: 1, rng=rng,
                    backend=kernel_backend,
                )

            # attach the chain (one parallel step: each vertex writes its
            # parent and depth)
            t.parallel_ops(len(chain))
            prev = x_global
            d = dx
            batch = []
            for w in chain:
                wg = to_global[w]
                d += 1
                parent[wg] = prev
                depth[wg] = d
                batch.append((w, d))
                prev = wg
            absorbed_local.update(chain)

            ds.batch_delete(batch)

    return AbsorptionOutcome(
        absorbed_local=absorbed_local, structure=ds, iterations=iterations
    )
