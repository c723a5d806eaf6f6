"""Vectorized numpy kernel backend for the PRAM hot paths.

The tracked implementations under :mod:`repro.graph.connectivity`,
:mod:`repro.listrank` and :mod:`repro.matching` are the *measurement
instrument*: per-element Python closures charging every elementary
operation to the :class:`~repro.pram.tracker.Tracker`, so the reported
work/span are exactly the quantities the paper's theorems bound. They
are also orders of magnitude slower than the hardware allows.

This package is the *execution engine*: each round-structured hot path —
Wyllie pointer jumping (Lemma 2.4), Luby local-minimum matching rounds
(Lemma 2.5), connectivity contraction, induced subgraphs — re-expressed
as whole-array numpy kernels. A kernel runs the same synchronous round
structure (a round becomes one batch of gathers/scatters over int64
arrays) and charges the Tracker *aggregate* work and span per round, so
a run under the numpy backend still produces meaningful asymptotic
counts while its wall clock is dominated by C loops.

Backend selection is handled by :mod:`repro.kernels.dispatch`; the
instrumented entry points (``graph.connectivity``, ``listrank.ranking``,
``matching.luby``, and the ``core`` drivers) accept ``backend="tracked"``
(default) or ``backend="numpy"`` and call the kernel here by name when
the numpy engine is chosen. See docs/kernels.md.
"""

from .dispatch import (
    BACKENDS,
    default_backend,
    is_array_backend,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "default_backend",
    "is_array_backend",
    "resolve_backend",
]
