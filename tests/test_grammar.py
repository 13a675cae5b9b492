import hashlib
import inspect
import random
import shlex
from pathlib import Path

import pytest
from conftest import _entered

from uctk import grammar, level1, level2
from uctk.errors import KernelError, ParseError
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
    for t in enumerate_level1_up_to(4, regular_only=False):
        assert parse_l1(format_l1(t)) == t
    for t in enumerate_le2_trees(3):
        from uctk.grammar import format_le2 as fmt
        assert parse_le2(fmt(t)) == t


def test_round_trip_random_ordinals():
    rng = random.Random(0)
    for _ in range(500):
        b = rand_uord(rng, 6)
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
    (parse_domseq, "(-1 -1)", "expected ')', got '-1'", 5),
    (parse_domseq, "((0) -1 (0))", "expected ')', got '('", 9),
    (parse_l2, "() -> ({}, (0)); (-1 (0)) -> ({(0)}, (0 0))", "expected ')', got '('", 22),
    (parse_shape, "{() ((0) -1 -1)}", "expected ')', got '-1'", 13),
], ids=["trailing-node", "trailing-tree", "stray", "stray-second-line",
        "minus-one-twice", "node-after-minus-one", "l2-key-minus-one-first",
        "shape-minus-one-twice"])
def test_errors_point_at_the_offending_token(parse, text, message, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.detail[0], e.value.col) == (message, col)


# -- the tokenizer ---------------------------------------------------------------

BATCH = Path(__file__).parent / "data" / "spec_examples.batch"
PARSERS = [getattr(grammar, name) for name in sorted(dir(grammar))
           if name.startswith("parse_")]


def _golden_arguments():
    """Every word after the command on each line of the worked examples,
    flags left out and flag values kept."""
    out = []
    for line in BATCH.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            out += [w for w in shlex.split(line)[1:] if not w.startswith("--")]
    return out


def _mutations(texts, per_text):
    """Each text with 1-3 characters dropped, replaced or inserted, drawn
    from an alphabet of tokens' characters, strays and whitespace."""
    rng = random.Random(0)
    alphabet = "(){}[];,@-^*+>0123456789uwx$ \n\t"
    out = []
    for text in texts:
        for _ in range(per_text):
            t = text
            for _ in range(rng.randint(1, 3)):
                j, op = rng.randrange(len(t) + 1), rng.randrange(3)
                keep = t[j + 1:] if op < 2 and j < len(t) else t[j:]
                t = t[:j] + ("" if op == 0 else rng.choice(alphabet)) + keep
            out.append(t)
    return out


EDGE_TEXTS = [
    "", " ", " \t\n ", "$", "$(0)", "(0)$", "u$3", "(0) $ (1)", "{(0)} ~",
    "(\u00a0 0\u2028)", "(0\x1c1)", "(\u0663)", "\u00a0$",
    "{(0)\n (0 0)\n\t(1)}", "{(0)\n\n  (x)}", "[(0),\n 3,\n $]",
]


def _tokens_by_scan(text):
    """The tokenizer as it was: a (token, position) pair per token from one
    pass of ``_SCAN``, or the message, line and column of the ParseError at
    the first stray character."""
    items = []
    for m in grammar._SCAN.finditer(text):
        if m.group(1) is None:
            pos = m.start(2)
            nxt = grammar._TOKEN.search(text, pos)
            gap = text[pos:nxt.start() if nxt else len(text)].strip()
            return (f"unexpected {gap!r}", *grammar._loc(text, pos))
        items.append((m.group(1), m.start(1)))
    return items


def _tokens_now(text):
    """The same from ``_Tokens``.  Positions are read once it is built, so
    a stray character it let through fails the comparison."""
    try:
        toks = grammar._Tokens(text)
    except ParseError as e:
        return e.detail[0], e.line, e.col
    assert toks.items[-1] is None
    return [(tok, toks.pos(i)) for i, tok in enumerate(toks.items[:-1])]


def test_tokens_and_positions_agree_with_the_one_pass_scan():
    golden = _golden_arguments()
    texts = golden + _mutations(golden, per_text=20) + EDGE_TEXTS
    strays = 0
    for text in texts:
        ref = _tokens_by_scan(text)
        assert _tokens_now(text) == ref, repr(text)
        strays += isinstance(ref, tuple)
    assert len(golden) == 133 and 0 < strays < len(texts)


class _CountingScan:
    """Stands in for ``grammar._SCAN``: counts ``finditer`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def finditer(self, text):
        self.calls += 1
        return self.pattern.finditer(text)


def test_a_valid_parse_scans_once(monkeypatch):
    """The tokens come from one ``findall``; ``_SCAN`` runs once more only
    to place an error: a stray character or the token a parse error names.
    The end of input needs no scan to place."""
    scan = _CountingScan(grammar._SCAN)
    monkeypatch.setattr(grammar, "_SCAN", scan)
    golden = _golden_arguments()
    counts = {"parsed": 0, "placed": 0}
    for text in golden + _mutations(golden, per_text=1) + EDGE_TEXTS:
        for parse in PARSERS:
            scan.calls = 0
            try:
                parse(text)
            except ParseError as e:
                placed = e.detail[0] != "unexpected end of input"
            except KernelError:
                placed = False
            else:
                placed = False
                counts["parsed"] += 1
            assert scan.calls == placed, (parse.__name__, text)
            counts["placed"] += placed
    assert counts["parsed"] > 100 and counts["placed"] > 100


def test_a_valid_parse_calls_no_token_method():
    """The descent reads ``toks.items`` by index and moves ``toks.i``
    itself: a valid parse builds its ``_Tokens`` and enters none of its
    other methods, which only an error reaches.  Checked on every golden
    argument with every parser that accepts it."""
    golden = _golden_arguments()
    valid = []
    for text in golden:
        for parse in PARSERS:
            try:
                parse(text)
            except KernelError:
                continue
            valid.append((parse, text))
    methods = [f for name, f in vars(grammar._Tokens).items()
               if inspect.isfunction(f) and name != "__init__"]

    def run():
        for parse, text in valid:
            parse(text)

    assert len(valid) > 100 and len(methods) >= 4
    assert _entered(methods, run) == set()


def test_a_valid_tree_parse_enters_no_normalising_pass():
    """The grammar builds level-1 and level-2 trees as int tuples and hands
    them to ``validate_level1`` and ``validate_level2``: parsing a valid
    level-1 tree or tower, level-2 tree or tower, or level <=2 tree enters
    neither ``as_domseq`` nor a routine that lists nodes or labels.
    Checked on every golden argument with every such parser that accepts
    it."""
    parsers = [grammar.parse_l1, grammar.parse_tower, grammar.parse_l2,
               grammar.parse_l2_tower, grammar.parse_le2]
    valid = []
    for text in _golden_arguments():
        for parse in parsers:
            try:
                parse(text)
            except KernelError:
                continue
            valid.append((parse, text))
    normalising = [level2.as_domseq, level2.child_labels, level1.regular_nodes,
                   level1.addable_nodes]

    def run():
        for parse, text in valid:
            parse(text)

    assert {parse for parse, _ in valid} == set(parsers) and len(valid) > 40
    assert _entered(normalising, run) == set()


# -- the descent's outcomes ------------------------------------------------------

def _outcome(parse, text) -> str:
    """One line: the parser and the text, then ``ok`` with the value's type
    and str, the ParseError's detail, line and column, or another kernel
    error's code and text."""
    head = f"{parse.__name__} {text!r}"
    try:
        value = parse(text)
    except ParseError as e:
        return f"{head} ParseError {e.detail[0]!r} {e.line} {e.col}"
    except KernelError as e:
        return f"{head} {e.code} {e}"
    return f"{head} ok {type(value).__name__} {value}"


# Recorded with the descent that read each token through a ``_Tokens``
# method call; the descent that reads ``toks.items`` by index must agree.
PARSE_OUTCOMES = "1509c1ef4ebf24bd24f39f22145fcdd46ad2f534c7cf6160aaa45d35cdb96f3b"


def test_every_parse_outcome_matches_the_recorded_hash():
    """Every parser on every golden argument, its mutations and the edge
    texts: 16 parsers by 2 809 texts."""
    golden = _golden_arguments()
    texts = golden + _mutations(golden, per_text=20) + EDGE_TEXTS
    h = hashlib.sha256()
    for parse in PARSERS:
        for text in texts:
            h.update(_outcome(parse, text).encode("utf-8", "surrogateescape") + b"\n")
    assert len(PARSERS) * len(texts) == 44944
    assert h.hexdigest() == PARSE_OUTCOMES
