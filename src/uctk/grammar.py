"""Textual grammar: the parsers of every written form.

  node            (0 0)            empty node / constant description: ()
  level-1 tree    {(0) (0 0)}
  level-1 tower   [{} {(0)}]
  domain sequence ((0) (0 0)), possibly ending in -1
  domain shape    {() ((0)) ((1))}
  level-2 tree    () -> ({}, (0)); ((0)) -> ({(0)}, (0 0))
  level <=2 tree  ({(0)} ; <level-2 entries>)
  partial <=2     (<level <=2 tree> @ (d, q, P))
  level-3 tree    ((0)) -> (<level <=2 tree> @ (d, q, P)); ...
  index map       {1->2, 2->3}
  ordinal         u3*2 + u1*(w^2+3) + 5     (w is omega)
  rep point       [(0), 3, -1]; level <=2: (2, [u1, (0)])

A domain sequence may be listed once per shape or tree.  Parsing is
whitespace-insensitive.  The printers, in ``uctk.value``, emit the
canonical spacing used above, and parse(print(x)) = x on all canonical
forms.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .level1 import Level1Tree, validate_level1
from .level2 import LevelLe2Tree, validate_level2
from .level3 import check_degree, validate_level3, validate_partial_le2
from .ordinals import ONE, CtblOrd, IndexMap, UOrd
from .value import MINUS_ONE
# The printers are re-exported as they are: the CLI, the README's API and
# the benchmark's tracer name them grammar.format_*, and the tracer wraps
# each by identity wherever it is bound.
from .value import (format_ctbl, format_desc, format_domseq, format_index_map,  # noqa: F401
                    format_l1, format_l2, format_l3, format_le2, format_node,
                    format_pl2, format_rep1, format_rep2, format_rep3,
                    format_tower, format_uord)

_TOKEN = re.compile(r"->|[(){}\[\];,@]|\^|\*|\+|-?\d+|u\d+|w|[A-Za-z_]+")
# One pass over the text: whitespace, then a token or one stray character.
_SCAN = re.compile(r"\s*(?:(" + _TOKEN.pattern + r")|(\S))")
_INTEGER = re.compile(r"-?\d+").fullmatch
_NATURAL = re.compile(r"\d+").fullmatch
_SIDE = re.compile(r"[12]").fullmatch
_ULEVEL = re.compile(r"u\d+").fullmatch

# Countable ordinals are the one recursive part of the grammar: parentheses
# and exponents nest at most this deep, counted together.
MAX_NESTING = 200


class _Tokens:
    """The tokens of ``text`` as one list of strings, ended by a None
    sentinel.  The tokens come from one ``findall``; since no token holds
    whitespace, they miss a character exactly when their concatenation
    differs from the text's non-space characters, and only then is the text
    scanned again, to report the stray character.

    The readers read ``items[i]`` and advance ``i`` themselves, so a valid
    parse calls no method here.  A reader that meets a token it cannot take
    hands the cursor, at that token, to ``next`` or ``expect``, which raise;
    ``too_deep`` raises at an ordinal nested too deep.  A token's position
    is found by ``pos``, which only error reports call."""

    __slots__ = ("text", "items", "i", "depth")

    def __init__(self, text: str):
        self.text = text
        self.items = _TOKEN.findall(text)
        if "".join(self.items) != "".join(text.split()):
            for _ in _positions(text):  # raises at the stray character
                pass
        self.items.append(None)
        self.i = 0
        self.depth = 0  # open parentheses and exponents in an ordinal

    def next(self):
        tok = self.items[self.i]
        if tok is None:
            raise ParseError("unexpected end of input", *_loc(self.text, len(self.text)))
        self.i += 1
        return tok

    def expect(self, want: str):
        got = self.next()
        if got != want:
            raise ParseError(f"expected {want!r}, got {got!r}", *self.loc_back())

    def too_deep(self):
        """The ``(`` or ``^`` last read opened one ordinal nesting level
        more than ``MAX_NESTING``."""
        raise ParseError(f"ordinal nested deeper than {MAX_NESTING}", *self.loc_back())

    def pos(self, i: int) -> int:
        """Where token i starts in the text."""
        return next(islice(_positions(self.text), i, None))

    def loc_back(self):
        """Line and column of the token last read."""
        return _loc(self.text, self.pos(self.i - 1))


def _positions(text: str):
    """Where each token of ``text`` starts, in one pass over the text; a
    stray character is a parse error at it."""
    for m in _SCAN.finditer(text):
        if m.group(1) is None:
            pos = m.start(2)
            nxt = _TOKEN.search(text, pos)
            gap = text[pos:nxt.start() if nxt else len(text)].strip()
            raise ParseError(f"unexpected {gap!r}", *_loc(text, pos))
        yield m.start(1)


def _loc(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _parse_with(text, fn):
    toks = _Tokens(text)
    out = fn(toks)
    tok = toks.items[toks.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", *_loc(text, toks.pos(toks.i)))
    return out


# -- nodes, trees, sequences ---------------------------------------------------

def _skip(toks, want: str):
    """Step over the token ``want``; at any other token ``expect`` raises."""
    if toks.items[toks.i] != want:
        toks.expect(want)
    toks.i += 1


def _numeral(toks, digits: str) -> int:
    """``digits``, of the token last read, as an int.  Python converts at
    most ``sys.get_int_max_str_digits()`` digits; a longer numeral is a
    parse error at its token."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("number too long", *toks.loc_back()) from None


def _number(toks, match, what: str) -> int:
    """The next token as an int, if ``match`` takes it; any other token is
    the parse error ``<what>, got <token>``."""
    tok = toks.items[toks.i]
    if tok is None or not match(tok):
        tok = toks.next()
        raise ParseError(f"{what}, got {tok!r}", *toks.loc_back())
    toks.i += 1
    return _numeral(toks, tok)


def _node(toks) -> tuple:
    items = toks.items
    _skip(toks, "(")
    entries = []
    while items[toks.i] != ")":
        entries.append(_number(toks, _NATURAL, "node entries are naturals"))
    toks.i += 1
    return tuple(entries)


def parse_node(text: str) -> tuple:
    return _parse_with(text, _node)


def _l1(toks) -> Level1Tree:
    items = toks.items
    _skip(toks, "{")
    nodes = []
    while items[toks.i] != "}":
        nodes.append(_node(toks))
    toks.i += 1
    return validate_level1(nodes)


def parse_l1(text: str) -> Level1Tree:
    return _parse_with(text, _l1)


def _tower(toks):
    items = toks.items
    _skip(toks, "[")
    trees = []
    while items[toks.i] != "]":
        trees.append(_l1(toks))
    toks.i += 1
    return trees


def parse_tower(text: str):
    return _parse_with(text, _tower)


def _node_or_minus(toks):
    if toks.items[toks.i] == "-1":
        toks.i += 1
        return MINUS_ONE
    return _node(toks)


def _domseq(toks) -> tuple:
    """A parenthesized sequence of nodes, optionally ending in -1: after a
    -1 only the closing parenthesis may come."""
    items = toks.items
    _skip(toks, "(")
    out = []
    while items[toks.i] not in (")", "-1"):
        out.append(_node(toks))
    if items[toks.i] == "-1":
        toks.i += 1
        out.append(MINUS_ONE)
    _skip(toks, ")")
    return tuple(out)


def parse_domseq(text: str) -> tuple:
    return _parse_with(text, _domseq)


def _keyed(toks, close, label) -> dict:
    """``q -> label`` entries up to ``close``, each followed by at most one
    ';', as a dict; with ``label`` None, bare domain sequences, each mapped
    to None.  Once all are read, a sequence listed twice is a parse error
    at its second entry."""
    items = toks.items
    entries = []
    while items[toks.i] != close:
        at = toks.i
        q = _domseq(toks)
        value = None
        if label:
            _skip(toks, "->")
            value = label(toks)
            if items[toks.i] == ";":
                toks.i += 1
        entries.append((q, at, value))
    out = {}
    for q, at, value in entries:
        if q in out:
            raise ParseError(f"domain sequence {format_domseq(q)} listed twice",
                             *_loc(toks.text, toks.pos(at)))
        out[q] = value
    return out


def _shape(toks) -> list:
    _skip(toks, "{")
    keys = list(_keyed(toks, "}", None))
    _skip(toks, "}")
    return keys


def parse_shape(text: str) -> list:
    """A domain shape ``{q ...}``: its domain sequences, each listed once."""
    return _parse_with(text, _shape)


# -- level-2 / level <=2 trees ---------------------------------------------------

def _l2_label(toks):
    _skip(toks, "(")
    tree = _l1(toks)
    _skip(toks, ",")
    node = _node_or_minus(toks)
    _skip(toks, ")")
    return tree, node


def _l2_entries(toks, close):
    return validate_level2(_keyed(toks, close, _l2_label))


def parse_l2(text: str):
    return _parse_with(text, lambda t: _l2_entries(t, None))


def _le2(toks):
    _skip(toks, "(")
    t1 = _l1(toks)
    _skip(toks, ";")
    t2 = _l2_entries(toks, ")")
    _skip(toks, ")")
    return LevelLe2Tree(t1, t2)


def parse_le2(text: str):
    return _parse_with(text, _le2)


def _pl2(toks):
    items = toks.items
    _skip(toks, "(")
    base = _le2(toks)
    _skip(toks, "@")
    _skip(toks, "(")
    d = check_degree(_number(toks, _INTEGER, "the degree is a number"))
    _skip(toks, ",")
    if d == 0:
        if items[toks.i] != "-1":
            toks.next()
            raise ParseError("degree 0 extension is -1", *toks.loc_back())
        toks.i += 1
        q = MINUS_ONE
    elif d == 1:
        q = _node(toks)
    else:
        q = _domseq(toks)
    _skip(toks, ",")
    p = _l1(toks)
    _skip(toks, ")")
    _skip(toks, ")")
    return validate_partial_le2(base, d, q, p)


def parse_pl2(text: str):
    return _parse_with(text, _pl2)


def _l3_entries(toks, close):
    return validate_level3(_keyed(toks, close, _pl2))


def parse_l3(text: str):
    return _parse_with(text, lambda t: _l3_entries(t, None))


def _towers(toks, entries):
    """A bracketed list of bracketed trees, each read by ``entries``."""
    items = toks.items
    _skip(toks, "[")
    trees = []
    while items[toks.i] != "]":
        _skip(toks, "[")
        trees.append(entries(toks, "]"))
        _skip(toks, "]")
    toks.i += 1
    return trees


def parse_l2_tower(text: str):
    return _parse_with(text, lambda t: _towers(t, _l2_entries))


def parse_l3_tower(text: str):
    return _parse_with(text, lambda t: _towers(t, _l3_entries))


# -- index maps --------------------------------------------------------------------

def _index_map(toks) -> IndexMap:
    items = toks.items
    _skip(toks, "{")
    pairs = []
    while items[toks.i] != "}":
        i = _number(toks, _INTEGER, "an index is a number")
        _skip(toks, "->")
        pairs.append((i, _number(toks, _INTEGER, "an index is a number")))
        if items[toks.i] == ",":
            toks.i += 1
    toks.i += 1
    if [i for i, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ParseError("index map domain must be 1..n in order", *toks.loc_back())
    image = tuple(v for _, v in pairs)
    n2 = max(image) if image else 0
    return IndexMap(len(pairs), n2, image)


def parse_index_map(text: str) -> IndexMap:
    return _parse_with(text, _index_map)


# -- ordinals ------------------------------------------------------------------------

def _ctbl_atom(toks) -> CtblOrd:
    """A natural, ``w``, ``w^`` an atom, or a parenthesized expression.  A
    ``(`` or ``^`` opens one nesting level, closed once what it opens is
    read; a parse error abandons the whole parse."""
    items = toks.items
    tok = items[toks.i]
    if tok == "(":
        toks.i += 1
        toks.depth += 1
        if toks.depth > MAX_NESTING:
            toks.too_deep()
        out = _ctbl_expr(toks)
        _skip(toks, ")")
        toks.depth -= 1
        return out
    if tok == "w":
        toks.i += 1
        exp = ONE
        if items[toks.i] == "^":
            toks.i += 1
            toks.depth += 1
            if toks.depth > MAX_NESTING:
                toks.too_deep()
            exp = _ctbl_atom(toks)
            toks.depth -= 1
        return CtblOrd.omega_power(exp)
    return CtblOrd.natural(_number(toks, _NATURAL, "expected a countable ordinal"))


def _ctbl_product(toks) -> CtblOrd:
    items = toks.items
    out = _ctbl_atom(toks)
    while items[toks.i] == "*":
        toks.i += 1
        out = out * _ctbl_atom(toks)
    return out


def _ctbl_expr(toks) -> CtblOrd:
    items = toks.items
    out = _ctbl_product(toks)
    while items[toks.i] == "+":
        toks.i += 1
        out = out + _ctbl_product(toks)
    return out


def parse_ctbl(text: str) -> CtblOrd:
    return _parse_with(text, _ctbl_expr)


def _uord_term(toks) -> UOrd:
    items = toks.items
    tok = items[toks.i]
    if tok and _ULEVEL(tok):
        toks.i += 1
        level = _numeral(toks, tok[1:])
        if level < 1:
            raise ParseError("u-levels start at 1", *toks.loc_back())
        coeff = ONE
        if items[toks.i] == "*":
            toks.i += 1
            coeff = _ctbl_product(toks)
        if coeff.is_zero():
            raise ParseError("zero coefficient on a u-term", *toks.loc_back())
        return UOrd.u(level, coeff)
    return UOrd.from_ctbl(_ctbl_product(toks))


def _uord_expr(toks) -> UOrd:
    items = toks.items
    out = _uord_term(toks)
    while items[toks.i] == "+":
        toks.i += 1
        out = out + _uord_term(toks)
    return out


def parse_uord(text: str) -> UOrd:
    return _parse_with(text, _uord_expr)


def _rep_seq(toks) -> tuple:
    items = toks.items
    _skip(toks, "[")
    out = []
    while items[toks.i] != "]":
        if items[toks.i] in ("(", "-1"):
            out.append(_node_or_minus(toks))
        else:
            out.append(_uord_expr(toks))
        if items[toks.i] == ",":
            toks.i += 1
    toks.i += 1
    return tuple(out)


def parse_rep_seq(text: str):
    """Bracketed, comma-separated entries: nodes, -1, naturals or ordinals."""
    return _parse_with(text, _rep_seq)


def _rep2_point(toks):
    _skip(toks, "(")
    side = _number(toks, _SIDE, "rep2 element side is 1 or 2")
    _skip(toks, ",")
    entries = _rep_seq(toks)
    _skip(toks, ")")
    return side, entries


def parse_rep2_point(text: str):
    """A level <=2 representation point ``(d, [entries])``: the side d, 1 or
    2, and the entries as ``parse_rep_seq`` reads them."""
    return _parse_with(text, _rep2_point)
