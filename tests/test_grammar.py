import random

import pytest

from uctk.errors import ParseError
from uctk.grammar import (format_domseq, format_index_map, format_l1,
                          format_l2, format_l3, format_le2, format_node,
                          format_pl2, format_tower, format_uord, parse_domseq,
                          parse_index_map, parse_l1, parse_l2, parse_l3,
                          parse_le2, parse_node, parse_pl2, parse_rep_seq,
                          parse_shape, parse_tower, parse_uord)
from uctk.lemmas import rand_uord
from uctk.level1 import enumerate_level1_up_to
from uctk.level2 import enumerate_le2_trees


def test_node_round_trip():
    for text in ["()", "(0)", "(0 0)", "(2 0 1)"]:
        assert format_node(parse_node(text)) == text


def test_tree_and_tower():
    assert format_l1(parse_l1("{(0) (0 0)}")) == "{(0) (0 0)}"
    assert format_tower(parse_tower("[{} {(0)}]")) == "[{} {(0)}]"


def test_domseq():
    assert format_domseq(parse_domseq("((0) (0 0))")) == "((0) (0 0))"
    assert format_domseq(parse_domseq("((0) -1)")) == "((0) -1)"


def test_l2_and_le2():
    text = "() -> ({}, (0)); ((0)) -> ({(0)}, (0 0))"
    assert format_l2(parse_l2(text)) == text
    t = "({(0)} ; () -> ({}, (0)))"
    assert format_le2(parse_le2(t)) == t


def test_l3_and_pl2():
    pl2 = "(({} ; () -> ({}, (0))) @ (0, -1, {}))"
    assert format_pl2(parse_pl2(pl2)) == pl2
    l3 = f"((0)) -> {pl2}"
    assert format_l3(parse_l3(l3)) == l3


def test_index_map():
    assert format_index_map(parse_index_map("{1->2, 2->3}")) == "{1->2, 2->3}"
    with pytest.raises(ParseError):
        parse_index_map("{2->1}")


def test_rep_seq():
    assert parse_rep_seq("[(0), 3]") == ((0,), parse_uord("3"))
    assert parse_rep_seq("[]") == ()
    assert parse_rep_seq("[w, -1]") == (parse_uord("w"), -1)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_l1("{(0) (x)}")
    assert e.value.line == 1 and e.value.col >= 6
    with pytest.raises(ParseError):
        parse_uord("u0")
    with pytest.raises(ParseError):
        parse_uord("u1*0")
    with pytest.raises(ParseError):
        parse_l1("{(0)")


def test_round_trip_enumerated_trees():
    for t in enumerate_level1_up_to(4):
        assert parse_l1(format_l1(t)) == t
    for t in enumerate_le2_trees(3):
        from uctk.grammar import format_le2 as fmt
        assert parse_le2(fmt(t)) == t


def test_round_trip_random_ordinals():
    rng = random.Random(0)
    for _ in range(500):
        b = rand_uord(rng)
        assert parse_uord(format_uord(b)) == b


def test_shape_lists_each_domain_sequence_once():
    assert parse_shape("{() ((0)) ((0) -1)}") == [(), ((0,),), ((0,), -1)]
    assert parse_shape(" { } ") == []
    with pytest.raises(ParseError) as e:
        parse_shape("{() ((0))\n((0))}")
    assert (e.value.detail[0], e.value.line, e.value.col) == \
        ("domain sequence ((0)) listed twice", 2, 1)
    with pytest.raises(ParseError) as e:
        parse_shape("{() ((0))")
    assert (e.value.detail[0], e.value.line, e.value.col) == \
        ("unexpected end of input", 1, 10)


@pytest.mark.parametrize("parse, text, message, col", [
    (parse_node, "(0) x", "trailing input 'x'", 5),
    (parse_l1, "{(0)} junk", "trailing input 'junk'", 7),
    (parse_rep_seq, "[ $]", "unexpected '$'", 3),
    (parse_l1, "{(0)\n  $ (1)}", "unexpected '$'", 3),
], ids=["trailing-node", "trailing-tree", "stray", "stray-second-line"])
def test_errors_point_at_the_offending_token(parse, text, message, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.detail[0], e.value.col) == (message, col)
