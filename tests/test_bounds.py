"""Bound-regression gates: pinned tracked work/depth for the hot phases.

The tracked backend is a deterministic measurement instrument, so the
work/span of a fixed workload is an exact, reproducible number. These
tests pin those numbers for the two subsystems the kernel backend
touches — absorption (Theorem 3.2, the E8 workload) and HDT batch
deletion (Lemma 6.1, the E6 workload) — at two sizes each, and fail on
more than 2% drift in either direction.

Intent: a refactor that silently changes the *measured cost model* (not
just wall clock) must be a conscious decision. If you changed charging
on purpose, re-measure (each workload below is exactly reproducible with
a few lines of the driver code) and update the pins in the same commit.
"""

import random

import pytest

from repro.core.absorption import absorb_separator
from repro.core.separator import build_separator
from repro.graph.generators import gnm_random_connected_graph
from repro.pram import Tracker
from repro.structures import absorb_ds
from repro.structures.hdt import HDTConnectivity
from repro.structures.rc_tree import RCForest

# (n, work, span, iterations) for the E8 absorption workload:
# gnm(n, 3n, seed=0), separator + absorption with rng seed 0, tracker
# reset after separator construction. E8_PINS run the tracked structure
# with the rake-and-compress mirror (rebinding ``absorb_ds.Mirror``, the
# Appendix C hook) they were first measured with; E8_LCT_PINS run the
# driver's own tracked structure (link-cut mirror). The two differ in
# iterations because the mirrors may answer FindPathS2P with different
# valid paths.
E8_PINS = [
    (256, 166_133, 31_427, 65),
    (512, 393_666, 65_986, 102),
]
E8_LCT_PINS = [
    (256, 108_650, 14_124, 61),
    (512, 266_762, 25_396, 99),
]

# (n, work, max_batch_span) for the E6 HDT workload: gnm(n, 4n, seed=0),
# delete all edges in batches of 16, deletion order shuffled with seed 1,
# tracker reset after construction.
E6_PINS = [
    (256, 117_635, 123),
    (512, 252_244, 145),
]

TOLERANCE = 0.02


def _within(got: int, pinned: int) -> bool:
    return abs(got - pinned) <= TOLERANCE * pinned


@pytest.mark.parametrize("n,work_pin,span_pin,iters_pin", E8_PINS)
def test_e8_absorption_work_span_pinned(
    n, work_pin, span_pin, iters_pin, monkeypatch
):
    monkeypatch.setattr(absorb_ds, "Mirror", RCForest)
    _check_e8(n, work_pin, span_pin, iters_pin)


@pytest.mark.parametrize("n,work_pin,span_pin,iters_pin", E8_LCT_PINS)
def test_e8_link_cut_absorption_work_span_pinned(
    n, work_pin, span_pin, iters_pin
):
    _check_e8(n, work_pin, span_pin, iters_pin)


def _check_e8(n, work_pin, span_pin, iters_pin):
    g = gnm_random_connected_graph(n, 3 * n, seed=0)
    t = Tracker()
    rng = random.Random(0)
    sep = build_separator(g, t, rng)
    parent = {0: None}
    depth = {0: 0}
    t.reset()
    out = absorb_separator(g, sep.paths, 0, 0, parent, depth, t=t, rng=rng)
    assert out.iterations == iters_pin, (
        f"n={n}: iterations {out.iterations} != pinned {iters_pin}"
    )
    assert _within(t.work, work_pin), (
        f"n={n}: absorption work drifted >2%: {t.work} vs pinned {work_pin}"
    )
    assert _within(t.span, span_pin), (
        f"n={n}: absorption span drifted >2%: {t.span} vs pinned {span_pin}"
    )


@pytest.mark.parametrize("n,work_pin,span_pin", E6_PINS)
def test_e6_hdt_delete_all_work_pinned(n, work_pin, span_pin):
    g = gnm_random_connected_graph(n, 4 * n, seed=0)
    order = list(range(g.m))
    random.Random(1).shuffle(order)
    t = Tracker()
    hdt = HDTConnectivity(g, tracker=t)
    t.reset()
    max_span = 0
    for i in range(0, len(order), 16):
        s0 = t.span
        hdt.batch_delete(order[i : i + 16])
        max_span = max(max_span, t.span - s0)
    assert _within(t.work, work_pin), (
        f"n={n}: HDT deletion work drifted >2%: {t.work} vs pinned {work_pin}"
    )
    assert _within(max_span, span_pin), (
        f"n={n}: HDT max batch span drifted >2%: {max_span} vs pinned {span_pin}"
    )


def test_pins_are_backend_invariant_sanity():
    """The numpy backend may charge differently (it is an execution
    engine), but the *tracked* numbers above must not depend on which
    backends are registered — a fresh tracked run reproduces exactly."""
    n = 256
    g = gnm_random_connected_graph(n, 3 * n, seed=0)
    works = set()
    for _ in range(2):
        t = Tracker()
        rng = random.Random(0)
        sep = build_separator(g, t, rng)
        t.reset()
        absorb_separator(g, sep.paths, 0, 0, {0: None}, {0: 0}, t=t, rng=rng)
        works.add(t.work)
    assert len(works) == 1
