"""One verdict type: every membership and respect check returns a
``Verdict``, a rejection names the clause it failed, and every rejected
CLI report carries that clause."""

import contextlib
import importlib
import io
import random
import shlex
import typing
from pathlib import Path

import pytest

from uctk import cli, grammar
from uctk.level1 import (is_regular, respects_level1, s1_member,
                         validate_level1)
from uctk.level2 import (CARD1_L2, MINUS_ONE, respects_le2,
                         respects_partial_le1, s2_member, typical_trees,
                         validate_partial_le1, weakly_respects_le2)
from uctk.level3 import (is_regular_level3, respects_partial_le2,
                         s3_structural_member)
from uctk.ordinals import U1
from uctk.value import ACCEPTED, Verdict

BENCH = Path(__file__).resolve().parent.parent / "bench"
BATCH = Path(__file__).parent / "data" / "spec_examples.batch"

u = grammar.parse_uord
_, _, Q20, Q21 = typical_trees()
ONE, TWO = validate_level1({(0,)}), validate_level1({(0,), (0, 0)})
PL1 = validate_partial_le1(ONE, MINUS_ONE)
PL2 = grammar.parse_pl2("(({} ; () -> ({}, (0))) @ (0, -1, {}))")
L3 = "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))"
L3_IRREGULAR = f"{L3}; ((1)) -> (({{}} ; () -> ({{}}, (0))) @ (0, -1, {{}}))"


def _q21(value):
    return {(2, ()): U1, (2, ((0,),)): u(value)}


# predicate, an accepted input, a rejected input and the clause it fails
CASES = [
    (respects_level1, (TWO, {(0, 0): u("w"), (0,): u("w*2")}),
     (TWO, {(0, 0): u("w*2"), (0,): u("w")}), "value-order"),
    (s1_member, ([ONE], [u("w")]), ([ONE, TWO], [u("w"), u("w*2")]), "value-order"),
    (is_regular, (TWO,), (grammar.parse_l1("{(0) (1)}"),), "regular"),
    (respects_partial_le1, (PL1, {(0,): u("w"), MINUS_ONE: u("3")}),
     (PL1, {(0,): u("w"), MINUS_ONE: u("w")}), "natural"),
    (respects_partial_le2, (PL2, {(2, ()): U1, (0, MINUS_ONE): u("3")}),
     (PL2, {(2, ()): U1}), "missing-value"),
    (is_regular_level3, (grammar.parse_l3(L3),), (grammar.parse_l3(L3_IRREGULAR),), "regular"),
    (respects_le2, (Q21, _q21("u1*2")), (Q20, _q21("u1*2")), "potential-tower((0))"),
    (weakly_respects_le2, (Q21, _q21("u1*2")), (Q21, _q21("u2")), "bound((0))"),
    (s2_member, ([CARD1_L2, Q21.t2], [U1, u("u1*2")], "respects"),
     ([CARD1_L2, Q21.t2], [U1, u("u2")], "respects"), "potential-tower((0))"),
]


@pytest.mark.parametrize("fn, accepted, rejected, clause", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_each_check_returns_a_verdict(fn, accepted, rejected, clause):
    assert typing.get_type_hints(fn)["return"] is Verdict
    assert fn(*accepted) is ACCEPTED
    v = fn(*rejected)
    assert type(v) is Verdict and not v and v.clause == clause


def test_s3_structural_member_accepts_with_a_detail():
    assert typing.get_type_hints(s3_structural_member)["return"] is Verdict
    v = s3_structural_member([grammar.parse_l3(L3)], "minus")
    assert type(v) is Verdict and v.ok and v.clause == ""
    assert v.detail == "regular level-3 tower of length 1, variant minus"


def test_rejection_details_print_nodes_in_the_grammar():
    assert respects_level1(*CASES[0][2]).detail == "(0 0) = w*2, (0) = w"
    le2 = grammar.parse_le2("({(0)} ; () -> ({}, (0)))")
    v = respects_le2(le2, {(1, (0,)): u("3"), (2, ()): U1})
    assert (v.clause, v.detail) == ("level1-part", "countable-limit: (0) = 3")


LE2_DEPTH2 = grammar.parse_le2(
    "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)); ((0) (0)) -> ({(0) (0 0)}, (0 0 0)))")

# a rejection of each clause whose detail was once empty, and the detail it gives
DETAILS = [
    (weakly_respects_le2, (Q21, {(2, ()): u("u2"), (2, ((0,),)): u("u1")}), "root-value", "u2"),
    (weakly_respects_le2, (Q21, _q21("u2")), "bound((0))", "u2 >= u2"),
    (respects_le2, (LE2_DEPTH2, {(2, ()): U1, (2, ((0,),)): u("u1*3"),
                                 (2, ((0,), (0,))): u("u2 + u1*2")}),
     "approximation((0) (0))", "[u1, u1*2, u2 + u1*2] != [u1, u1*3, u2 + u1*2]"),
]


@pytest.mark.parametrize("fn, args, clause, detail", DETAILS,
                         ids=[c[2].split("(")[0] for c in DETAILS])
def test_rejection_details_give_the_values_in_the_grammar(fn, args, clause, detail):
    v = fn(*args)
    assert (v.ok, v.clause, v.detail) == (False, clause, detail)


def test_weak_respects_reports_the_root_value():
    argv = ["weak-respects", "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)))", "u2", "u1"]
    (report,) = _reports([argv])
    assert (report["clause"], report["detail"]) == ("root-value", "u2")


def _reports(lines):
    """The structured report each argv prints, as a field dict."""
    out = []
    for argv in lines:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(list(argv))
        out += [dict(tok.split("=", 1) for tok in shlex.split(line))
                for line in buf.getvalue().splitlines()]
    return out


def _assert_rejections_name_a_clause(reports):
    rejected = [r for r in reports if r.get("verdict") == "rejected"]
    assert rejected
    for r in rejected:
        assert r["status"] == "rejected" and r["clause"] and "detail" in r, r


def test_every_rejection_of_the_worked_examples_names_a_clause():
    _assert_rejections_name_a_clause(_reports([["batch", str(BATCH)]]))


def test_every_rejection_of_the_benchmark_stream_names_a_clause(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    textgen = importlib.import_module("textgen")
    lines = [argv for argv, _ in textgen.LineGenerator(random.Random(1)).stream(2000)]
    _assert_rejections_name_a_clause(_reports(lines))
