import functools
import random

import pytest
from hypothesis import given, strategies as st

from uctk.bk import MINUS_ONE, bk, bk_compare, bk_key, bk_sorted, entry_compare
from uctk.errors import IncomparableEntries
from uctk.level1 import enumerate_level1_up_to
from uctk.ordinals import U1

nodes = st.lists(st.integers(0, 4), max_size=5).map(tuple)


def cmp_int(a, b):
    return (a > b) - (a < b)


def test_spec_examples():
    assert bk_compare((0, 0), (0,), cmp_int) == -1
    assert bk_compare((0, 1), (0, 1), cmp_int) == 0
    assert bk_compare((0, 1), (0, 0, 5), cmp_int) == 1


def test_minus_one_below_everything():
    assert entry_compare(-1, 0) == -1
    assert entry_compare(-1, (0,)) == -1
    assert entry_compare((0, 1), -1) == 1


def test_nested_sequences_of_nodes():
    # entries that are nodes recurse through the same order
    assert bk(((0, 0),), ((0,),)) == -1
    assert bk(((0,), (1,)), ((0,), (0,))) == 1


@given(nodes, nodes)
def test_exactly_one_of_three(s, t):
    c = bk_compare(s, t, cmp_int)
    assert c in (-1, 0, 1)
    assert (c == 0) == (s == t)
    assert bk_compare(t, s, cmp_int) == -c


@given(nodes, nodes, nodes)
def test_transitivity(s, t, u):
    orderd = sorted([s, t, u], key=functools.cmp_to_key(lambda a, b: bk_compare(a, b, cmp_int)))
    assert bk_compare(orderd[0], orderd[2], cmp_int) <= 0


@given(nodes, st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
def test_lengthening_law(s, e):
    assert bk_compare(s + e, s, cmp_int) == -1


@given(nodes, nodes, nodes, nodes)
def test_antitone_prefix_law(s, t, e, e2):
    c = bk_compare(s, t, cmp_int)
    if c == -1 and not (s[:len(t)] == t or t[:len(s)] == s):
        assert bk_compare(s + e, t + e2, cmp_int) == -1


def test_sorting_helper():
    seqs = [(0,), (0, 0), (1,), ()]
    assert bk_sorted(seqs) == [(0, 0), (0,), (1,), ()]


def test_incomparable_entries_raise():
    with pytest.raises(TypeError):
        entry_compare((0,), "x")


def test_key_agrees_with_compare():
    # bk_key is the fast path; bk (through bk_compare) stays the definition
    pool = [()] + sorted({n for t in enumerate_level1_up_to(6, regular_only=False)
                          for n in t.nodes})
    rng = random.Random(0)

    def domseq():
        q = tuple(rng.choice(pool[1:]) for _ in range(rng.randrange(4)))
        return q + (MINUS_ONE,) if rng.random() < 0.5 else q

    for _ in range(20000):
        for s, t in ((rng.choice(pool), rng.choice(pool)), (domseq(), domseq())):
            a, b = bk_key(s), bk_key(t)
            assert (a > b) - (a < b) == bk(s, t), (s, t)


def test_key_rejects_entries_without_a_key():
    with pytest.raises(IncomparableEntries):
        bk_key((U1,))
    with pytest.raises(IncomparableEntries):
        bk_key(((0,), "x"))
