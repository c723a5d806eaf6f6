"""Hypothesis front-end for the differential fuzz harness.

The budgeted CLI (``python -m repro.analysis.fuzz``) explores with raw
seeds; these wrappers expose the same two case shapes to hypothesis so a
divergence shrinks to a minimal family/size/op-sequence instead of an
opaque seed. Op sequences are generated *structurally* (the abstract op
tuples of :func:`repro.analysis.fuzz.check_ops_case`), which is what
makes shrinking effective: hypothesis deletes ops and shrinks indices.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import random

from repro.analysis.fuzz import (
    ADVERSARIAL_FAMILIES,
    FUZZ_FAMILIES,
    check_dfs_case,
    check_ops_case,
    fuzz_graph,
    make_ops,
    run,
)
from repro.graph.generators import make_family

def _settings(max_examples):
    return settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=max_examples,
    )

_idx = st.integers(0, 63)
_depth = st.integers(0, 31)
_op = st.one_of(
    st.tuples(st.just("flag"), st.lists(_idx, min_size=1, max_size=4)),
    st.tuples(st.just("unflag"), st.lists(_idx, min_size=1, max_size=3)),
    st.tuples(st.just("witness"), _idx, _idx, _depth),
    st.tuples(
        st.just("delete"),
        st.lists(_idx, min_size=1, max_size=3),
        st.lists(_depth, min_size=1, max_size=3),
    ),
)


class TestDFSDifferential:
    @_settings(20)
    @given(
        family=st.sampled_from(FUZZ_FAMILIES),
        n=st.integers(16, 60),
        graph_seed=st.integers(0, 2**16 - 1),
        rng_seed=st.integers(0, 2**16 - 1),
        root=st.integers(0, 2**16 - 1),
    )
    def test_backends_and_oracle(self, family, n, graph_seed, rng_seed, root):
        check_dfs_case(family, n, graph_seed, rng_seed, root)


class TestOpsDifferential:
    @_settings(30)
    @given(
        family=st.sampled_from(FUZZ_FAMILIES),
        n=st.integers(8, 24),
        graph_seed=st.integers(0, 2**16 - 1),
        ops=st.lists(_op, max_size=8),
    )
    def test_lockstep_queries(self, family, n, graph_seed, ops):
        g = make_family(family, n, seed=graph_seed)
        check_ops_case(g, ops)


class TestAdversarialFamilies:
    """Every adversarial shape through the DFS oracle on every engine and
    through the Lemma 5.1 lockstep, at the smallest and largest fuzz
    sizes."""

    @pytest.mark.parametrize("family", sorted(ADVERSARIAL_FAMILIES))
    @pytest.mark.parametrize("n", [8, 80])
    def test_dfs_and_ops(self, family, n):
        for seed in range(3):
            check_dfs_case(family, n, seed, seed + 1, 5 * seed)
            g = fuzz_graph(family, n, seed)
            check_ops_case(g, make_ops(random.Random(seed), 6))

    def test_shapes(self):
        assert fuzz_graph("longpath", 20, 0).m == 39
        assert fuzz_graph("star", 20, 1).m == 19
        assert fuzz_graph("kbipartite", 20, 2).m == 3 * 17
        assert all(len(a) <= 2 for a in fuzz_graph("tinyforest", 40, 3).adj)
        iso = fuzz_graph("isolated", 40, 4)
        assert sum(1 for a in iso.adj if not a) >= 30
        assert [(g.n, g.m) for g in (fuzz_graph("tiny", 9, s) for s in range(3))] == [
            (1, 0), (2, 0), (2, 1),
        ]
        # k-tree with k = 1 + seed % 3: C(k+1, 2) clique edges, then k per vertex
        assert [fuzz_graph("ktree", 20, s).m for s in range(3)] == [19, 37, 54]


class TestBudgetedRunner:
    def test_short_run_is_clean(self):
        summary = run(budget=2.0, seed=1234)
        assert summary["cases"] > 0
        assert summary["failures"] == []

    def test_case_cap(self):
        summary = run(budget=60.0, seed=7, max_cases=5)
        assert summary["cases"] == 5
