"""Outputs recorded before the kernel's tree rules were each given one home,
kept as SHA-256 hashes: a refactoring that changes an enumeration order, a
tree's printed form or a CLI report moves one of them.  The cli-batch lines
are the benchmark's own (bench/textgen.py, seed 1), run through cli.main in
process; each gives its stdout, its stderr and its exit status.  Those
lines compare no level-2 or level-3 representation points, so rep-points
pins the two payload readers on a seeded set of its own.  respect-outcomes-4
was recorded before the respect walk decided clause (2) from each
element's parent: every verdict and error of ``respects_le2`` and
``recover_tree`` on the trees up to 4 domain elements, on respecting
tuples and on damaged ones."""

import contextlib
import hashlib
import importlib
import io
import random
import re
from pathlib import Path

import pytest

from uctk import cli, lemmas, level2, level3
from uctk.bk import bk_sorted
from uctk.errors import KernelError
from uctk.ordinals import OMEGA, ONE, U1, ZERO, CtblOrd, UOrd

BENCH = Path(__file__).resolve().parent.parent / "bench"

RECORDED = {
    "le2-trees-5":
        "3b8a764036934c4b3ae367c3ea3cb829df2f0af2d24716752a93911b9e8974df",
    "completions-3":
        "00091c4f3eb542a1f168f8b99d342aba625d6f014870b63e392de828a7851483",
    "cli-batch-seed-1":
        "cf25316ed9dcb7527e4221278402afcececa947c0345fb7629b83db809cb4c38",
    "rep-points":
        "72284b8a5547786a1905bb56d51ccb139377511296c307a97f483c313cb9d67b",
    "respect-outcomes-4":
        "0f751acc688ff9caac3af282be3ce240b4bd216b4b8f252c3e083a381134c81a",
}


def _le2_trees(monkeypatch):
    """str of every level <=2 tree with at most 5 domain elements, in order."""
    return [str(t) for t in level2.enumerate_le2_trees(5)]


def _completions(monkeypatch):
    """Every partial extension of the trees with at most 3 domain elements,
    each followed by its completions."""
    out = []
    for base in level2.enumerate_le2_trees(3):
        for pt in lemmas.enumerate_partial_le2(base):
            out.append(str(pt))
            if pt.d:
                out += [str(c) for c in level3.completion_le2(pt)]
    return out


def _cli_batch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    textgen = importlib.import_module("textgen")
    out = []
    for argv, _ in textgen.LineGenerator(random.Random(1)).stream(2000):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.main(list(argv))
            except SystemExit as e:
                status = ("exit", e.code)
        out += [stdout.getvalue(), stderr.getvalue(), repr(status)]
    return out


def _limits(nodes):
    """Countable limits rising with the Brouwer-Kleene order of the nodes."""
    return {p: UOrd.from_ctbl(OMEGA * CtblOrd.natural(k + 1))
            for k, p in enumerate(bk_sorted(nodes))}


_POOL = [UOrd.from_nat(3), UOrd.from_ctbl(OMEGA), UOrd.from_ctbl(OMEGA * CtblOrd.natural(7)),
         U1, UOrd.u(2, ONE), level2.MINUS_ONE, (0,), (0, 0), (1,), (5,)]


def _corruptions(rng, payload):
    """The payload, then seeded damage: truncated, one entry too many, one
    entry replaced from a pool of ordinals, -1 and nodes, two neighbours
    swapped."""
    out = [payload, payload + (rng.choice(_POOL),)]
    if payload:
        i = rng.randrange(len(payload))
        out += [payload[:i], payload[:i] + (rng.choice(_POOL),) + payload[i + 1:]]
    if len(payload) > 1:
        i = rng.randrange(len(payload) - 1)
        out.append(payload[:i] + (payload[i + 1], payload[i]) + payload[i + 2:])
    return out


def _outcome(fn, *args):
    try:
        return str(fn(*args))
    except KernelError as e:
        return f"{type(e).__name__} {e}"


def _rep2_payloads(rng, le2):
    t2 = le2.t2
    for q in level2.dom_star(t2):
        base = q[:-1] if q and q[-1] == level2.MINUS_ONE else q
        nodes = set(t2.tree(base).nodes)
        if base != q and t2.node(base) != level2.MINUS_ONE:
            nodes.add(t2.node(base))
        alphas = _limits(nodes)
        if base != q and t2.node(base) == level2.MINUS_ONE:
            alphas[level2.MINUS_ONE] = UOrd.from_nat(2)
        try:
            payload = level2.make_rep2(le2, q, alphas).payload
        except KernelError:
            continue
        yield from _corruptions(rng, payload)


def _level3_trees():
    """Level-3 trees along one branch and with a second root, grown from
    the partial extensions of the one-element level <=2 tree."""
    q0 = level2.typical_trees()[0]
    key, child, sibling = ((0,),), ((0,), (0,)), ((1,),)
    out = []
    for pt in lemmas.enumerate_partial_le2(q0):
        out.append({key: pt})
        out.append({key: pt, sibling: pt})
        if pt.d:
            for comp in level3.completion_le2(pt):
                for pt2 in lemmas.enumerate_partial_le2(comp)[:4]:
                    out.append({key: pt, child: pt2})
    return [level3.validate_level3(entries) for entries in out]


def _rep3_payloads(rng, tree):
    for r in tree.dom():
        for form in (r, r + (level2.MINUS_ONE,)):
            pt = tree.label(r)
            if form == r:
                values = level2.generate_respecting_tuple(tree.tree(r)) or {}
            elif pt.d == 0:
                values = {**(level2.generate_respecting_tuple(pt.base) or {}),
                          (0, level2.MINUS_ONE): UOrd.from_nat(4)}
            else:
                comp = rng.choice(level3.completion_le2(pt))
                values = level2.generate_respecting_tuple(comp) or {}
            try:
                payload = level3.make_rep3(tree, form, values).payload
            except KernelError:
                continue
            yield from _corruptions(rng, payload)


def _rep_points(monkeypatch):
    """str, or error class and message, of rep2_from_payload on the starred
    elements of every tree with at most 4 domain elements and of
    rep3_from_payload on grown level-3 trees, each on its honest payload
    and seeded corruptions of it."""
    rng = random.Random(10)
    out = []
    for le2 in level2.enumerate_le2_trees(4):
        out += [_outcome(level2.rep2_from_payload, le2, p) for p in _rep2_payloads(rng, le2)]
    for tree in _level3_trees():
        out += [_outcome(level3.rep3_from_payload, tree, p) for p in _rep3_payloads(rng, tree)]
    return out


# u_1*w, u_2, u_2*2 and u_1*2: each put in place of one value in turn
_REPLACEMENTS = (UOrd(((1, OMEGA),), ZERO), UOrd.u(2, ONE), UOrd.u(2, CtblOrd.natural(2)),
                 UOrd.u(1, CtblOrd.natural(2)))


def _respect_tuples(t):
    """The tuple, then for each key in turn the tuple with that value
    bumped by 1, with each of its u-term coefficients in turn raised by 1,
    replaced by each of ``_REPLACEMENTS``, or dropped."""
    out = [t]
    for key, v in t.items():
        out.append({**t, key: v + UOrd.from_nat(1)})
        out += [{**t, key: UOrd(v.uterms[:i] + ((k, c + ONE),) + v.uterms[i + 1:], v.tail)}
                for i, (k, c) in enumerate(v.uterms)]
        out += [{**t, key: r} for r in _REPLACEMENTS]
        out.append({k: w for k, w in t.items() if k != key})
    return out


def _respect_outcomes(monkeypatch):
    """respects_le2 and recover_tree on every realizable tree with at most
    4 domain elements, under its generated tuple and each damaged form of
    it, then respects_le2 of every tree with at most 4 domain elements
    under every generated tuple of a tree with its level-2 domain."""
    trees = level2.enumerate_le2_trees(4)
    out, by_dom = [], {}
    for tree in trees:
        t = level2.generate_respecting_tuple(tree)
        if t is None:
            continue
        dom = tree.t2.dom()
        by_dom.setdefault(tuple(dom), []).append(t)
        for case in _respect_tuples(t):
            out.append(_outcome(level2.respects_le2, tree, case))
            out.append(_outcome(level2.recover_tree, tree.t1, dom, case))
    for tree in trees:
        for t in by_dom.get(tuple(tree.t2.dom()), []):
            out.append(_outcome(level2.respects_le2, tree, t))
    return out


PRODUCERS = {"le2-trees-5": _le2_trees, "completions-3": _completions,
             "cli-batch-seed-1": _cli_batch, "rep-points": _rep_points,
             "respect-outcomes-4": _respect_outcomes}


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8", "surrogateescape"))
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(RECORDED))
def test_output_matches_the_recorded_hash(name, monkeypatch):
    got = _sha256(PRODUCERS[name](monkeypatch))
    assert got == RECORDED[name], f"{name}: hash moved from {RECORDED[name]} to {got}"


# What Python's repr leaves in a text and the grammar never writes: a
# one-tuple's ",)", a value class's "UOrd<", a list of strings' "', '" and
# a tuple of naturals' "(0, 0".
REPR = re.compile(r",\)|\w<|', '|\(\d+, \d")


@pytest.mark.parametrize("name", ["cli-batch-seed-1", "rep-points"])
def test_no_error_detail_holds_a_python_repr(name, monkeypatch):
    lines = PRODUCERS[name](monkeypatch)
    if name == "cli-batch-seed-1":
        details = [line.split(" detail=", 1)[1] for line in lines if " detail=" in line]
    else:
        details = [line for line in lines if re.match(r"\w+ [A-Z_]+: ", line)]
    assert len(details) > 100
    assert [d for d in details if REPR.search(d)] == []
