import functools
import itertools

import pytest

from uctk.bk import bk, bk_sorted
from uctk.errors import (CardinalityMismatch, ClosureViolation, ContainsEmpty,
                         KernelError, LengthMismatch, NotADescription, NotInRep,
                         NotRegular)
from uctk.grammar import parse_l1, parse_uord
from uctk.lemmas import order_type_oracle
from uctk.level1 import (EMPTY_TREE, FactorMap1, Level1Tree, Rep1Element, addable_nodes,
                         check_factor_map, desc_rank, descriptions,
                         enumerate_level1, enumerate_level1_up_to, factor_exists,
                         factorings, is_addable, is_regular, rep_compare, rep_order_type,
                         respects_level1, s1_member, seed, strict_factor_exists,
                         validate_level1, validate_tower)
from uctk.ordinals import OMEGA, CtblOrd


def ords(*texts):
    return [parse_uord(t).tail for t in texts]


class TestValidate:
    def test_empty_is_valid(self):
        assert len(validate_level1([])) == 0

    def test_small_valid(self):
        t = validate_level1([(0,), (1,), (0, 0)])
        assert (0, 0) in t

    def test_left_closure(self):
        with pytest.raises(ClosureViolation) as e:
            validate_level1([(1,)])
        assert e.value.node == (1,) and e.value.missing == (0,)

    def test_prefix_closure(self):
        with pytest.raises(ClosureViolation) as e:
            validate_level1([(0,), (1,), (1, 0, 0)])
        assert e.value.missing == (1, 0)

    def test_empty_node_rejected(self):
        with pytest.raises(ContainsEmpty):
            validate_level1([(), (0,)])


# every node of length at most 3 with entries 0-3, and the empty node
NODES = [()] + [n for k in (1, 2, 3) for n in itertools.product(range(4), repeat=k)]
# nodes with entries that are not naturals, as an API caller may pass
ODD_NODES = {("a",), (0, "a"), ("a", 0), (0.5,), (1.0,), (-1,), (0, -1)}


def _sorted_validate_level1(nodes) -> Level1Tree:
    """validate_level1 as it was before its one-lookup closure check, kept
    as its reference: every node rebuilt, the set sorted and each node's
    parent and lower siblings looked up in that order."""
    nodeset = frozenset(tuple(n) for n in nodes)
    if () in nodeset:
        raise ContainsEmpty()
    for node in sorted(nodeset):
        if len(node) > 1 and node[:-1] not in nodeset:
            raise ClosureViolation(node, node[:-1])
        for j in range(node[-1]):
            if node[:-1] + (j,) not in nodeset:
                raise ClosureViolation(node, node[:-1] + (j,))
    return Level1Tree(nodeset)


def _outcome(check, arg):
    """The value, or the error's class, code and detail."""
    try:
        return check(arg)
    except KernelError as e:
        return type(e), e.code, e.detail


class TestCheckingCore:
    """validate_level1 decides closure by one lookup per node and sorts
    only to name a violation: against the sorted scan it replaced, on every
    level-1 tree of at most 6 nodes, each with one node dropped and each
    with one node added that is not addable."""

    def test_validator_agrees_with_the_sorted_scan(self):
        sets = []
        for tree in enumerate_level1_up_to(6, regular_only=False):
            nodes = tree.nodes
            addable = set(addable_nodes(tree))
            sets.append(nodes)
            sets += [nodes - {n} for n in nodes]
            sets += [nodes | {n} for n in NODES if n not in nodes and n not in addable]
        outcomes = set()
        for nodes in sets:
            got = _outcome(validate_level1, nodes)
            assert got == _outcome(_sorted_validate_level1, nodes), sorted(nodes)
            outcomes.add(got[0] if isinstance(got, tuple) else type(got))
        assert outcomes == {Level1Tree, ClosureViolation, ContainsEmpty}
        assert len(sets) > 7000

    def test_addable_predicate_is_membership_in_addable_nodes(self):
        cases = 0
        for tree in enumerate_level1_up_to(5, regular_only=False):
            addable = addable_nodes(tree)
            for node in set(NODES) | set(addable) | tree.nodes | ODD_NODES:
                assert is_addable(tree, node) == (node in addable), (str(tree), node)
                cases += 1
        assert cases > 5000


class TestRegular:
    def test_examples(self):
        assert is_regular(parse_l1("{(0) (0 0)}"))
        assert not is_regular(parse_l1("{(0) (1)}"))
        assert is_regular(EMPTY_TREE)


class TestRep:
    def test_examples(self):
        t = parse_l1("{(0) (0 0)}")
        assert rep_compare(t, Rep1Element((0, 0), None), Rep1Element((0,), 3)) == -1
        assert rep_compare(t, Rep1Element((0,), 3), Rep1Element((0,), None)) == -1
        assert rep_compare(t, Rep1Element((0,), 3), Rep1Element((0,), 3)) == 0

    def test_block_structure(self):
        t = parse_l1("{(0)}")
        assert rep_compare(t, Rep1Element((0,), 3), Rep1Element((0,), 4)) == -1
        assert rep_compare(t, Rep1Element((0,), 100), Rep1Element((0,), None)) == -1

    def test_not_in_rep(self):
        with pytest.raises(NotInRep):
            rep_compare(parse_l1("{(0)}"), Rep1Element((1,), None), Rep1Element((0,), None))

    def test_order_type_examples(self):
        assert rep_order_type(EMPTY_TREE).is_zero()
        assert str(rep_order_type(parse_l1("{(0)}"))) == "w+1"
        assert str(rep_order_type(parse_l1("{(0) (0 0)}"))) == "w*2+1"

    def test_order_type_matches_rank_oracle(self):
        for t in enumerate_level1_up_to(5, regular_only=False):
            assert rep_order_type(t) == order_type_oracle(t)


class TestDescriptions:
    def test_examples(self):
        assert descriptions(EMPTY_TREE) == [()]
        assert descriptions(parse_l1("{(0)}")) == [(0,), ()]
        assert descriptions(parse_l1("{(0) (0 0)}")) == [(0, 0), (0,), ()]

    def test_seed_examples(self):
        t = parse_l1("{(0) (0 0)}")
        assert str(seed(t, (0, 0))) == "u1"
        assert str(seed(t, ())) == "u3"
        assert str(seed(EMPTY_TREE, ())) == "u1"

    def test_seed_rejects_foreign_node(self):
        with pytest.raises(NotADescription):
            seed(parse_l1("{(0)}"), (1,))

    def test_descriptions_are_fresh_equal_lists(self):
        t = parse_l1("{(0) (0 0) (1)}")
        first, second = descriptions(t), descriptions(t)
        assert first == second and first is not second
        first.append((9,))
        assert descriptions(t) == second

    def test_desc_rank_matches_the_sorted_descriptions(self):
        # the cached order and ranks against a fresh comparator sort
        for t in enumerate_level1_up_to(5, regular_only=False):
            descs = descriptions(t)
            assert descs == sorted(t.nodes, key=functools.cmp_to_key(bk)) + [()]
            for d in descs:
                assert desc_rank(t, d) == descs.index(d)
                assert desc_rank(t, list(d)) == descs.index(d)

    def test_one_cached_bk_order_serves_every_reader(self):
        for t in enumerate_level1_up_to(5, regular_only=False):
            order = t.bk_sorted()
            assert order == tuple(bk_sorted(t.nodes))
            assert descriptions(t) == [*order, ()]
            for i, d in enumerate(descriptions(t)):
                assert desc_rank(t, d) == i
            # an equal tree built separately reads the same cached tuple
            assert validate_level1(set(t.nodes)).bk_sorted() is order

    def test_desc_rank_rejects_foreign_nodes(self):
        t = parse_l1("{(0)}")
        for d in ((1,), (0, 0), [[0]]):
            with pytest.raises(NotADescription):
                desc_rank(t, d)


class TestFactorings:
    def test_counts(self):
        assert len(factorings(parse_l1("{(0)}"), parse_l1("{(0) (0 0)}"))) == 2
        assert len(factorings(EMPTY_TREE, EMPTY_TREE)) == 1
        assert len(factorings(parse_l1("{(0) (0 0)}"), parse_l1("{(0)}"))) == 0

    def test_enumeration_is_image_lexicographic(self):
        maps = factorings(parse_l1("{(0)}"), parse_l1("{(0) (0 0)}"))
        assert [m((0,)) for m in maps] == [(0, 0), (0,)]

    def test_identity_and_composition(self):
        p = parse_l1("{(0) (0 0)}")
        w = parse_l1("{(0) (0 0) (0 1)}")
        assert any(all(m(x) == x for x in p.nodes) for m in factorings(p, p))
        for m1 in factorings(p, w):
            for m2 in factorings(w, w):
                composition = tuple((x, m2(m1(x))) for x in p.bk_sorted())
                check_factor_map(FactorMap1(p, w, composition))  # validates

    def test_map_lookup(self):
        p = parse_l1("{(0) (0 0)}")
        w = parse_l1("{(0) (0 0) (0 1)}")
        for m in factorings(p, w):
            assert [m(x) for x, _ in m.mapping] == m.image()
            assert m(()) == ()
            with pytest.raises(NotADescription):
                m((1,))
        first, second = factorings(p, w), factorings(p, w)
        assert first == second and list(map(hash, first)) == list(map(hash, second))

    def test_exists_examples(self):
        small, big = parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")
        assert factor_exists(small, big) and strict_factor_exists(small, big)
        assert factor_exists(small, small) and not strict_factor_exists(small, small)
        assert not factor_exists(big, small) and not strict_factor_exists(big, small)


class TestEnumeration:
    def test_counts_are_catalan(self):
        counts = [len(enumerate_level1(n, regular_only=False)) for n in range(6)]
        assert counts == [1, 1, 2, 5, 14, 42]

    def test_addable_nodes_one_per_parent(self):
        t = parse_l1("{(0) (0 0)}")
        assert addable_nodes(t) == [(0, 0, 0), (0, 1), (1,)]


class TestTower:
    def test_valid(self):
        tower = validate_tower([EMPTY_TREE, parse_l1("{(0)}"),
                                parse_l1("{(0) (0 0)}")])
        assert tower.regular_flags == (True, True, True)

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch) as e:
            validate_tower([EMPTY_TREE, parse_l1("{(0) (0 0)}")])
        assert e.value.index == 1

    def test_non_regular_flagged(self):
        tower = validate_tower([EMPTY_TREE, parse_l1("{(0)}"),
                                parse_l1("{(0) (1)}")])
        assert tower.regular_flags == (True, True, False)


class TestRespects:
    def test_examples(self):
        t = parse_l1("{(0) (0 0)}")
        w, w2 = OMEGA, OMEGA * CtblOrd.natural(2)
        assert respects_level1(t, {(0, 0): w, (0,): w2})
        assert not respects_level1(t, {(0, 0): w2, (0,): w})
        assert not respects_level1(parse_l1("{(0)}"),
                                   {(0,): parse_uord("w+1").tail})


class TestS1:
    def test_examples(self):
        assert s1_member([parse_l1("{(0)}")], ords("w"))
        assert not s1_member([parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")],
                             ords("w", "w*2"))
        assert s1_member([parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")],
                         ords("w*2", "w"))
        assert s1_member([], [])

    def test_regularity_required(self):
        with pytest.raises(NotRegular):
            s1_member([parse_l1("{(0)}"), parse_l1("{(0) (1)}")],
                      ords("w*2", "w"))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            s1_member([parse_l1("{(0)}")], [])
