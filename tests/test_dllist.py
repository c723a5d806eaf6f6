"""Tests for the doubly-linked path collection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.listrank import PathCollection


def make_path(pc: PathCollection, vs):
    for v in vs:
        pc.add_singleton(v)
    for a, b in zip(vs, vs[1:]):
        pc.link(a, b)
    return vs[0]


class TestBasics:
    def test_singleton(self):
        pc = PathCollection()
        pc.add_singleton(5)
        assert 5 in pc
        assert pc.is_singleton(5)
        assert pc.is_head(5) and pc.is_tail(5)
        assert pc.next(5) is None and pc.prev(5) is None

    def test_duplicate_add_rejected(self):
        pc = PathCollection()
        pc.add_singleton(1)
        with pytest.raises(ValueError):
            pc.add_singleton(1)

    def test_link_and_navigate(self):
        pc = PathCollection()
        make_path(pc, [1, 2, 3])
        assert pc.path_of(2) == [1, 2, 3]
        assert pc.head_of(3) == 1
        assert pc.tail_of(1) == 3
        assert pc.next(1) == 2 and pc.prev(3) == 2
        pc.check_invariants()

    def test_link_requires_tail_and_head(self):
        pc = PathCollection()
        make_path(pc, [1, 2])
        pc.add_singleton(3)
        with pytest.raises(ValueError):
            pc.link(1, 3)  # 1 is not a tail
        with pytest.raises(ValueError):
            pc.link(3, 2)  # 2 is not a head

    def test_len(self):
        pc = PathCollection()
        make_path(pc, [1, 2, 3])
        pc.add_singleton(9)
        assert len(pc) == 4


class TestCuts:
    def test_cut_after(self):
        pc = PathCollection()
        make_path(pc, [1, 2, 3, 4])
        w = pc.cut_after(2)
        assert w == 3
        assert pc.path_of(1) == [1, 2]
        assert pc.path_of(3) == [3, 4]
        pc.check_invariants()

    def test_cut_after_tail_is_noop(self):
        pc = PathCollection()
        make_path(pc, [1, 2])
        assert pc.cut_after(2) is None

    def test_cut_before(self):
        pc = PathCollection()
        make_path(pc, [1, 2, 3])
        u = pc.cut_before(3)
        assert u == 2
        assert pc.path_of(1) == [1, 2]
        assert pc.path_of(3) == [3]

    def test_discard_path(self):
        pc = PathCollection()
        make_path(pc, [1, 2, 3])
        make_path(pc, [7, 8])
        gone = pc.discard_path(2)
        assert gone == [1, 2, 3]
        assert 2 not in pc and 7 in pc
        assert pc.path_of(7) == [7, 8]


class TestHeads:
    def test_heads_listing(self):
        pc = PathCollection()
        make_path(pc, [1, 2])
        make_path(pc, [5, 6, 7])
        pc.add_singleton(9)
        assert sorted(pc.heads()) == [1, 5, 9]


class TestPropertyRandomOps:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=30, unique=True),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_split_merge_preserves_structure(self, vs, seed):
        import random

        rng = random.Random(seed)
        pc = PathCollection()
        make_path(pc, vs)
        members = list(vs)
        for _ in range(20):
            v = rng.choice(members)
            op = rng.randrange(3)
            if op == 0:
                pc.cut_after(v)
            elif op == 1:
                pc.cut_before(v)
            else:
                # rejoin two random pieces if possible
                tails = [x for x in members if pc.is_tail(x)]
                heads = [x for x in members if pc.is_head(x)]
                rng.shuffle(tails)
                rng.shuffle(heads)
                for tl in tails:
                    for hd in heads:
                        if pc.head_of(tl) != hd:
                            pc.link(tl, hd)
                            break
                    else:
                        continue
                    break
            pc.check_invariants()
        # every vertex still present exactly once across paths
        seen = []
        for h in pc.heads():
            seen += pc.path_of(h)
        assert sorted(seen) == sorted(vs)


class TestIterationAndSingletons:
    def test_iter_from_midpoint(self):
        pc = PathCollection()
        make_path(pc, [4, 5, 6, 7])
        assert list(pc.iter_from(6)) == [6, 7]

    def test_remove_singleton(self):
        pc = PathCollection()
        pc.add_singleton(3)
        pc.remove_singleton(3)
        assert 3 not in pc

    def test_remove_singleton_rejects_linked(self):
        pc = PathCollection()
        make_path(pc, [1, 2])
        import pytest

        with pytest.raises(ValueError):
            pc.remove_singleton(1)
