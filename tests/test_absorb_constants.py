"""Theorem 3.2's absorption loop, pinned end to end on both engines.

One ``absorb_separator`` call per case, over the separator that
``build_separator`` finds on the same graph and rng, exactly as
``parallel_dfs`` runs them at its first level. Each case pins what the
loop may not move however its per-iteration bookkeeping is arranged:

* the parent/depth maps it writes (a digest),
* the tracker (work, span) the call charges,
* the rng's next draw after it (one salt per Anderson–Miller round),
* the ``hdt.*``, ``flat.*`` and ``absorb.*`` metric values it records.

The graphs are the service benchmark's 60-vertex gnm components and one
gnm graph on 2,000 vertices. The tracked and numpy engines must build
the same tree and leave the rng in the same state.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from repro.core.absorption import absorb_separator
from repro.core.separator import build_separator
from repro.graph.generators import gnm_random_connected_graph, make_family
from repro.kernels.listrank import prefix_sums_on_lists_np, replay_contraction
from repro.listrank.ranking import anderson_miller_prefix_sums
from repro.obs import runtime as obs
from repro.obs.tracer import Tracer
from repro.pram import Tracker

#: metric families the absorption loop records
_PREFIXES = ("absorb.", "hdt.", "flat.")


def _graph(name: str, gseed: int):
    if name == "svc":
        # one component of the service benchmark's resident graph
        return make_family("gnm", 60, seed=gseed)
    assert name == "gnm2000"
    return gnm_random_connected_graph(2000, 4000, seed=gseed)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def absorb_case(name: str, gseed: int, seed: int, engine: str):
    """Run the separator, then time-free observables of one absorption.

    Returns ``(tree digest, (work, span) of the absorption, next rng
    draw, metrics)`` with ``metrics`` the recorded absorption metrics in
    name order."""
    g = _graph(name, gseed)
    t = Tracker()
    rng = random.Random(seed)
    root = seed * 7 % g.n
    with obs.activate(Tracer(tracker=t, backend=engine)) as o:
        sep = build_separator(g, t, rng, backend=engine)
        parent: dict[int, int | None] = {root: None}
        depth = {root: 0}
        w0, s0 = t.snapshot()
        absorb_separator(
            g, sep.paths, root, 0, parent, depth, t=t, rng=rng,
            kernel_backend=engine,
        )
        w1, s1 = t.snapshot()
        metrics = {
            k: v for k, v in o.metrics.as_dict().items()
            if k.startswith(_PREFIXES)
        }
    tree = _digest((sorted(parent.items()), sorted(depth.items())))
    return tree, (w1 - w0, s1 - s0), rng.getrandbits(62), metrics


#: (graph family, graph seed, rng seed) -> {engine: (tree digest,
#: (work, span), next draw, metrics digest)}, recorded from the loop
#: that ranked every chain by a full Anderson–Miller contraction, built
#: the flat forest by a vectorized tour pass and charged and observed
#: each cut one level at a time
_GOLDEN = {
    ('svc', 0, 0): {
        'tracked': ('eb601e1743aa1a83', (24449, 4120), 3353411595474065306, '21799e0dbf7cbc36'),
        'numpy': ('eb601e1743aa1a83', (10124, 6112), 3353411595474065306, 'bdf5ca89f397e397'),
    },
    ('svc', 3, 1): {
        'tracked': ('97b98d8747085ae6', (28144, 5795), 2416041266713418688, 'db394a9e922fbe32'),
        'numpy': ('97b98d8747085ae6', (12009, 7530), 2416041266713418688, 'c0f275f529d202fa'),
    },
    ('svc', 5, 2): {
        'tracked': ('bf43deb192656dbc', (25931, 5644), 4422606704161968567, '2fdab8af12b426fb'),
        'numpy': ('bf43deb192656dbc', (10949, 6783), 4422606704161968567, 'e88abb50872a5887'),
    },
    ('svc', 7, 3): {
        'tracked': ('dbbbc71296015064', (23630, 4929), 4416063055076896015, '4d33a686105fbb75'),
        'numpy': ('dbbbc71296015064', (9911, 5987), 4416063055076896015, '3cf6a6c5a7da7f63'),
    },
    ('svc', 11, 5): {
        'tracked': ('838fb0da0e8ae778', (22965, 4001), 3666990359977182861, '8713b8ffc76bf7c1'),
        'numpy': ('838fb0da0e8ae778', (9686, 5697), 3666990359977182861, 'e007a87650d88804'),
    },
    ('svc', 2, 6): {
        'tracked': ('402eed37e9f718f1', (26464, 5516), 1241711393355873803, '4ddfb4e78a6e2def'),
        'numpy': ('402eed37e9f718f1', (11172, 6878), 1241711393355873803, '8049ba5a61d9040a'),
    },
    ('gnm2000', 5, 4): {
        'tracked': ('ee4a5f049882caa7', (967972, 75562), 3905177522995569988, 'f5f3cbc4b5734aa6'),
        'numpy': ('ee4a5f049882caa7', (609091, 182821), 3905177522995569988, '0e521b7e40578b1c'),
    },
}

_CASES = sorted(_GOLDEN)
_IDS = [f"{name}-{gseed}-{seed}" for name, gseed, seed in _CASES]


@pytest.mark.parametrize("engine", ["tracked", "numpy"])
@pytest.mark.parametrize("name,gseed,seed", _CASES, ids=_IDS)
def test_absorption_golden(name, gseed, seed, engine):
    tree, cost, draw, metrics = absorb_case(name, gseed, seed, engine)
    want = _GOLDEN[(name, gseed, seed)][engine]
    assert tree == want[0], "absorption wrote a different tree"
    assert cost == want[1], "absorption charged a different (work, span)"
    assert draw == want[2], "absorption drew a different rng stream"
    assert _digest(metrics) == want[3], f"metrics moved: {metrics}"


@pytest.mark.parametrize("name,gseed,seed", _CASES, ids=_IDS)
def test_engines_agree(name, gseed, seed):
    tracked = absorb_case(name, gseed, seed, "tracked")
    flat = absorb_case(name, gseed, seed, "numpy")
    assert tracked[0] == flat[0], "engines wrote different trees"
    assert tracked[2] == flat[2], "engines left the rng in different states"
    # both engines run the same Lemma 5.1 operations and replacement scans
    for key in (
        "absorb.iterations", "absorb.chain", "absorb.batch_deletes",
        "absorb.batch_delete_edges", "hdt.promotions", "hdt.replacement_scan",
    ):
        assert tracked[3].get(key) == flat[3].get(key), key


def _list_sets(k: int, seed: int):
    """Offsets splitting k nodes into one list, into many lists (some
    empty), and into singletons then one list of the rest."""
    r = random.Random(k * 7 + seed)
    cuts = sorted(r.choices(range(k + 1), k=r.randint(1, 12)))
    n_single = min(k, r.randint(1, 8))
    return [
        [0, k],
        [0, *cuts, k],
        list(range(n_single + 1)) + ([k] if n_single < k else []),
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 17, 95, 96, 97, 150, 400])
def test_unit_chain_ranks_replays_the_contraction(k):
    """Lists held in order with unit values rank by position; the replay
    draws the salts and charges the (work, span) of the full contraction
    on the same lists, on both sides of the small-size cut-over, and
    leaves the rng where the tracked contraction leaves it."""
    for seed in range(4):
        ids = random.Random(k * 31 + seed).sample(range(10 * k + 5), k)
        for off in _list_sets(k, seed):
            prev_of: dict[int, int | None] = {}
            position = {}
            for a, b in zip(off, off[1:]):
                for i in range(a, b):
                    prev_of[ids[i]] = ids[i - 1] if i > a else None
                    position[ids[i]] = i - a + 1
            r_full, r_replay, r_tracked = (random.Random(seed) for _ in range(3))
            t_full, t_replay = Tracker(), Tracker()
            ranks = prefix_sums_on_lists_np(
                t_full, ids, prev_of, lambda w: 1, rng=r_full
            )
            replay_contraction(t_replay, ids, off, r_replay)
            anderson_miller_prefix_sums(
                Tracker(), ids, prev_of, lambda w: 1, rng=r_tracked
            )
            assert ranks == position, off
            assert t_replay.snapshot() == t_full.snapshot(), off
            assert r_replay.getstate() == r_tracked.getstate(), off
            assert r_full.getstate() == r_tracked.getstate(), off
