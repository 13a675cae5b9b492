"""One writer for error details: every KernelError keeps the values it was
raised with and writes ``CODE: a, b`` through ``value.format_detail``
only when it is read."""

import pickle

import pytest
from conftest import _entered

from uctk import errors, level1, level2, ordinals, value
from uctk.bk import MINUS_ONE
from uctk.errors import (ClosureViolation, KernelError, NoTreeFound,
                         NotAFactoring, NotALimit, ParseError)
from uctk.level1 import EMPTY_TREE, FactorMap1, validate_level1
from uctk.ordinals import ONE, U1, CtblOrd, IndexMap, UOrd
from uctk.value import format_detail

# every printer of the grammar's forms, the detail writer among them
PRINTERS = [f for name, f in vars(value).items() if name.startswith(("format_", "_format_"))]
ONE_NODE = validate_level1({(0,)})


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = sorted(set(_subclasses(KernelError)), key=lambda c: c.__name__)


def _instance(cls):
    if cls is ParseError:
        return cls("unexpected end of input", 1, 5)
    return cls((1,), (0,))


@pytest.mark.parametrize("value, text", [
    ((0, 0), "(0 0)"),
    ((), "()"),
    (((0,), MINUS_ONE), "((0) -1)"),
    ((((0,),), (0,)), "(((0)) (0))"),
    ((2, ((0,), (1, 0))), "2:((0) (1 0))"),
    ((1, (0, 0)), "1:(0 0)"),
    ((2, ()), "2:()"),
    ([(2, ()), (2, ((0, 0),))], "[2:(), 2:((0 0))]"),
    ([U1, (0,), MINUS_ONE, 3], "[u1, (0), -1, 3]"),
    ([((5,),)], "[((5))]"),
    ([], "[]"),
    (UOrd.u(2, CtblOrd.natural(3)), "u2*3"),
    (ONE_NODE, "{(0)}"),
    ("missing root", "missing root"),
    (7, "7"),
    (None, "None"),
])
def test_format_detail_writes_the_grammar_forms(value, text):
    assert format_detail(value) == text


def test_every_error_reads_as_its_code_and_detail():
    assert len(ERRORS) > 30
    for cls in ERRORS:
        text = str(_instance(cls))
        assert text.startswith(f"{cls.code}: "), cls
        if cls not in (ClosureViolation, ParseError):
            assert text == f"{cls.code}: (1), (0)", cls
    assert str(ClosureViolation((1,), (0,))) == "CLOSURE_VIOLATION: (1), missing (0)"
    assert str(ParseError("unexpected end of input", 1, 5)) == \
        "PARSE_ERROR: unexpected end of input, line 1, col 5"


def test_an_error_raised_without_values_reads_as_its_bare_code():
    for cls in ERRORS:
        if cls not in (ClosureViolation, ParseError):  # each is raised with its values
            assert str(cls()) == cls.code, cls
    with pytest.raises(NoTreeFound) as e:
        level2.recover_tree(EMPTY_TREE, [(), ((0,),)], {(2, ()): U1, (2, ((0,),)): UOrd.u(2, ONE)})
    assert (str(e.value), e.value.detail) == ("NO_TREE_FOUND", ())
    with pytest.raises(errors.ContainsEmpty) as e:
        validate_level1({()})
    assert str(e.value) == "CONTAINS_EMPTY"


def test_every_error_comes_back_from_pickle_as_it_was():
    for cls in ERRORS:
        e = _instance(cls)
        back = pickle.loads(pickle.dumps(e))
        assert (type(back), str(back), back.detail) == (cls, str(e), e.detail), cls


def test_an_error_keeps_what_it_was_raised_with():
    e = ClosureViolation((1,), (0,))
    assert (e.node, e.missing, e.detail) == ((1,), (0,), ((1,), (0,)))
    payload = [U1, (0,)]
    assert errors.InvalidElement(payload).detail[0] is payload
    assert errors.NotCompletionAt(2).index == 2
    e = ParseError("unexpected end of input", 1, 5)
    assert (e.detail, e.line, e.col) == (("unexpected end of input", 1, 5), 1, 5)


def test_constructing_an_error_formats_nothing():
    assert _entered(PRINTERS, lambda: [_instance(cls) for cls in ERRORS]) == set()


def test_caught_errors_format_nothing():
    """NotALimit and NotAFactoring are the errors the recover and
    lemma-suites workloads raise and catch most; raised directly or by the
    kernel, and caught, neither is written."""
    successor = UOrd.from_nat(3)
    bad_map = FactorMap1(ONE_NODE, ONE_NODE, (((0,), (1,)),))

    def run():
        for raise_it in (lambda: ordinals.apply_shift_sup(IndexMap(1, 1, (1,)), successor),
                         lambda: level1.check_factor_map(bad_map)):
            for error in (NotALimit(successor), NotAFactoring(bad_map)):
                with pytest.raises(KernelError):
                    raise error
            with pytest.raises((NotALimit, NotAFactoring)):
                raise_it()

    assert _entered(PRINTERS, run) == set()


def test_a_recover_miss_writes_no_error_message():
    # analysing u2 at ((0)) raises OUT_OF_RANGE, which the walk catches; the
    # candidate then fails, so recover_tree raises NoTreeFound without
    # reading any error's message (its rejection verdict is still written)
    t = {(2, ()): U1, (2, ((0,),)): UOrd.u(2, ONE)}
    writers = [KernelError.__str__, ClosureViolation.__str__, ParseError.__str__]

    def run():
        with pytest.raises(NoTreeFound):
            level2.recover_tree(EMPTY_TREE, [(), ((0,),)], t)

    assert _entered(writers, run) == set()
