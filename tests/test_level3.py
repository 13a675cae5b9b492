import pytest

from uctk.cli import main
from uctk.errors import (CaseViolation, DegreeZero, DomainNotTree,
                         EmptyKeyPresent, InvalidElement, InvalidTower,
                         MissingEntry, NotRegular, TowerViolation)
from uctk.grammar import format_pl2, parse_l1, parse_pl2, parse_uord
from uctk.level1 import EMPTY_TREE
from uctk.level2 import (MINUS_ONE, LevelLe2Tree, QDescription, TreeOfTrees,
                         typical_trees, validate_level2)
from uctk.level2 import q_set_minus
from uctk.level3 import (cf3, completion_le2, is_regular_level3, make_rep3,
                         rep3_compare, rep3_from_payload,
                         s3_structural_member, ucf, validate_level3,
                         validate_partial_le2)
from uctk.ordinals import U1


def u(text):
    return parse_uord(text)


Q0, Q1, Q20, Q21 = typical_trees()
KEY = ((0,),)


class TestValidatePartial:
    def test_degree_cases(self):
        assert validate_partial_le2(Q0, 0, MINUS_ONE, EMPTY_TREE).d == 0
        assert validate_partial_le2(Q0, 1, (0,), EMPTY_TREE).d == 1
        pt = validate_partial_le2(Q21, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))
        assert pt.d == 2

    def test_degree2_tree_forced(self):
        with pytest.raises(CaseViolation):
            validate_partial_le2(Q21, 2, ((0,), (0,)), parse_l1("{(0)}"))

    def test_degree2_needs_degree1_stage(self):
        with pytest.raises(CaseViolation):
            validate_partial_le2(Q20, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))

    def test_degree1_rejects_existing(self):
        with pytest.raises(CaseViolation):
            validate_partial_le2(Q1, 1, (0,), EMPTY_TREE)

    def test_nonregular_level1_side_allowed(self):
        assert validate_partial_le2(Q1, 1, (1,), EMPTY_TREE).d == 1

    def test_parse_print_round_trip(self):
        pt = validate_partial_le2(Q21, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))
        assert parse_pl2(format_pl2(pt)) == pt


class TestUcf:
    def test_case1_degree0(self):
        assert ucf(validate_partial_le2(Q0, 0, MINUS_ONE, EMPTY_TREE)) == \
            (0, MINUS_ONE)

    def test_case2_long_level1(self):
        assert ucf(validate_partial_le2(Q1, 1, (0, 0), EMPTY_TREE)) == (1, (0,))

    def test_case3_short_level1(self):
        d, desc = ucf(validate_partial_le2(Q0, 1, (0,), EMPTY_TREE))
        assert d == 2 and desc == QDescription((), EMPTY_TREE, ((0,),), False)

    def test_case4_least_sibling_above(self):
        base = LevelLe2Tree(EMPTY_TREE, validate_level2({
            (): (EMPTY_TREE, (0,)),
            KEY: (parse_l1("{(0)}"), (0, 0)),
            ((1,),): (parse_l1("{(0)}"), MINUS_ONE),
        }))
        pt = validate_partial_le2(base, 2, ((0, 0),), parse_l1("{(0)}"))
        d, desc = ucf(pt)
        assert d == 2 and desc.q == KEY and not desc.extended

    def test_case5_worked_example(self):
        pt = validate_partial_le2(Q21, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))
        d, desc = ucf(pt)
        assert d == 2
        assert desc.q == KEY
        assert desc.tree == parse_l1("{(0) (0 0)}")
        assert desc.pvec == ((0,), (0, 0))
        assert desc.extended


class TestCf3:
    def test_cases(self):
        assert cf3(validate_partial_le2(Q0, 0, MINUS_ONE, EMPTY_TREE)) == 0
        assert cf3(validate_partial_le2(Q0, 1, (0,), EMPTY_TREE)) == 1
        assert cf3(validate_partial_le2(Q1, 1, (0, 0), EMPTY_TREE)) == 1
        assert cf3(validate_partial_le2(Q1, 1, (1,), EMPTY_TREE)) == 2
        assert cf3(validate_partial_le2(Q21, 2, ((0,), (0,)),
                                        parse_l1("{(0) (0 0)}"))) == 2


class TestCompletions:
    def test_degree1_unique(self):
        comps = completion_le2(validate_partial_le2(Q0, 1, (0,), EMPTY_TREE))
        assert comps == [Q1]

    def test_degree2_all_labels(self):
        comps = completion_le2(validate_partial_le2(Q0, 2, KEY, parse_l1("{(0)}")))
        assert comps == [Q20, Q21]

    def test_degree0_error(self):
        with pytest.raises(DegreeZero):
            completion_le2(validate_partial_le2(Q0, 0, MINUS_ONE, EMPTY_TREE))

    def test_outputs_validate_and_grow(self):
        pt = validate_partial_le2(Q21, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))
        for comp in completion_le2(pt):
            assert comp.cardinality() == Q21.cardinality() + 1
            assert comp.t2.tree(((0,), (0,))) == parse_l1("{(0) (0 0)}")


def r1_entry():
    return validate_partial_le2(Q0, 0, MINUS_ONE, EMPTY_TREE)


def small_l3():
    step1 = validate_partial_le2(Q0, 2, KEY, parse_l1("{(0)}"))
    step2 = validate_partial_le2(Q21, 0, MINUS_ONE, EMPTY_TREE)
    return validate_level3({((0,),): step1, ((0,), (0,)): step2})


class TestValidateLevel3:
    def test_single_entry(self):
        t = validate_level3({((0,),): r1_entry()})
        assert t.cardinality() == 1 and is_regular_level3(t)

    def test_branch_must_be_tower(self):
        step1 = validate_partial_le2(Q0, 2, KEY, parse_l1("{(0)}"))
        bad_second = validate_partial_le2(Q1, 0, MINUS_ONE, EMPTY_TREE)
        with pytest.raises(TowerViolation):
            validate_level3({((0,),): step1, ((0,), (0,)): bad_second})

    def test_two_step_branch(self):
        t = small_l3()
        assert t.cardinality() == 2
        assert t.tree(((0,), (0,))) == Q21

    def test_regularity(self):
        t = validate_level3({((0,),): r1_entry(), ((1,),): r1_entry()})
        assert not is_regular_level3(t)

    def test_empty_key(self):
        with pytest.raises(EmptyKeyPresent):
            validate_level3({(): r1_entry()})

    def test_domain_tree(self):
        with pytest.raises(DomainNotTree):
            validate_level3({((1,),): r1_entry()})

    def test_shares_the_tree_of_trees_base(self):
        t = small_l3()
        assert isinstance(t, TreeOfTrees) and isinstance(Q21.t2, TreeOfTrees)
        assert t.dom() == [KEY, ((0,), (0,))]
        assert KEY in t and ((1,),) not in t
        assert t.children(KEY).nodes == {(0,)}
        with pytest.raises(MissingEntry):
            t.label(((1,),))
        assert t == small_l3() and hash(t) == hash(small_l3())
        assert t != Q21.t2

    def test_q_set_minus_has_minus_one_fence(self):
        t = Q21.t2
        assert q_set_minus(t, ((1,),)) == [(MINUS_ONE,), KEY]


class TestRep3:
    def test_minus_one_extension_below(self):
        t = small_l3()
        vals = {(2, ()): U1}
        x = make_rep3(t, ((0,),), vals)
        y = make_rep3(t, ((0,), MINUS_ONE),
                      {(2, ()): U1, (2, KEY): u("u1*2")})
        assert rep3_compare(t, y, x) == -1
        assert rep3_compare(t, x, x) == 0

    def test_ordinal_slot_decides(self):
        t = small_l3()
        y1 = make_rep3(t, ((0,), (0,)),
                       {(2, ()): U1, (2, KEY): u("u1*2"), (0, MINUS_ONE): 7})
        y2 = make_rep3(t, ((0,), (0,)),
                       {(2, ()): U1, (2, KEY): u("u1*3"), (0, MINUS_ONE): 7})
        assert rep3_compare(t, y1, y2) == -1

    def test_validation_rejects_nonrespecting(self):
        t = small_l3()
        with pytest.raises(InvalidElement):
            make_rep3(t, ((0,), MINUS_ONE), {(2, ()): U1, (2, KEY): u("u2")})

    def test_payload_round_trip(self):
        t = small_l3()
        y = make_rep3(t, ((0,), MINUS_ONE), {(2, ()): U1, (2, KEY): u("u1*2")})
        assert rep3_from_payload(t, y.payload) == y


class TestRep3Order:
    def test_total_order_on_sampled_elements(self):
        t = small_l3()
        elts = [
            make_rep3(t, ((0,),), {(2, ()): U1}),
            make_rep3(t, ((0,), MINUS_ONE), {(2, ()): U1, (2, KEY): u("u1*2")}),
            make_rep3(t, ((0,), MINUS_ONE), {(2, ()): U1, (2, KEY): u("u1*3")}),
            make_rep3(t, ((0,), (0,)),
                      {(2, ()): U1, (2, KEY): u("u1*2"), (0, MINUS_ONE): 0}),
            make_rep3(t, ((0,), (0,)),
                      {(2, ()): U1, (2, KEY): u("u1*2"), (0, MINUS_ONE): 5}),
        ]
        for x in elts:
            for y in elts:
                c = rep3_compare(t, x, y)
                assert c == -rep3_compare(t, y, x)
                assert (c == 0) == (x.payload == y.payload)
        for x in elts:
            for y in elts:
                for z in elts:
                    if rep3_compare(t, x, y) <= 0 and rep3_compare(t, y, z) <= 0:
                        assert rep3_compare(t, x, z) <= 0


class TestS3Structural:
    def test_empty_node(self, capsys):
        v = s3_structural_member([], "plain")
        assert v and v.detail == "empty node"
        assert main(["s3-structural", "[]"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            'verdict=accepted detail="empty node" ordinal_clause=not-evaluated')

    def test_two_step_tower(self):
        t1 = validate_level3({((0,),): r1_entry()})
        t2 = validate_level3({((0,),): r1_entry(), ((0, 0),): r1_entry()})
        v = s3_structural_member([t1, t2], "minus")
        assert v and "length 2" in v.detail

    def test_nonregular_rejected(self):
        t = validate_level3({((0,),): r1_entry(), ((1,),): r1_entry()})
        with pytest.raises(NotRegular):
            s3_structural_member([t], "plain")

    def test_cardinality_checked(self):
        t = validate_level3({((0,),): r1_entry()})
        with pytest.raises(InvalidTower):
            s3_structural_member([t, t], "plain")
