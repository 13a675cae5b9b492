"""The representation-point route and the tower step, each stated once
(``TreeOfTrees.point``/``read_point`` and ``level2.new_key``) and called
from both levels, against the per-level code they replaced, kept here as
the reference: the same value, or the same error class and detail.

The one change: a continuous level-2 point whose pending value is missing
is an InvalidElement naming q alone, where the replaced code added "missing
pending value"; the error class is compared there.  The degree-0 clause,
stated once in ``level2.respects_degree0``, is compared through both
partial respect checks against their earlier copies, and an ``ast`` test
keeps each of the four entry points one ``return`` into that route."""

import ast
import functools
import inspect
import random

from uctk.bk import bk_sorted
from uctk import level2, level3
from uctk.errors import (ArityError, InvalidElement, InvalidTower, KernelError,
                         LengthMismatch, NotRegular)
from uctk.grammar import parse_uord
from uctk.level1 import EMPTY_TREE, respects_level1
from uctk.level2 import (MINUS_ONE, LevelLe2Tree, Rep2Element, dom_star,
                         enumerate_le2_trees, generate_respecting_tuple,
                         make_rep2, respects_le2, respects_partial_le1,
                         rep2_from_payload, s2_member, typical_trees,
                         validate_level2, weakly_respects_le2)
from uctk.lemmas import enumerate_partial_le2
from uctk.level3 import (Rep3Element, completion_le2,
                         is_regular_level3, make_rep3, rep3_from_payload,
                         respects_partial_le2, s3_structural_member,
                         validate_level3)
from uctk.ordinals import OMEGA, U1, CtblOrd, UOrd, as_uord
from uctk.value import ACCEPTED, Verdict

# -- the replaced code -------------------------------------------------------------

def _old_respects_partial_le1(pt, alpha):
    if pt.node == MINUS_ONE:
        if MINUS_ONE not in alpha:
            return Verdict(False, "missing-value", "-1")
        v = as_uord(alpha[MINUS_ONE])
        if not (v.is_countable() and v.tail.is_natural()):
            return Verdict(False, "natural", f"-1 = {v}")
        return respects_level1(pt.base, alpha)
    return respects_level1(pt.completion(), alpha)


def _old_respects_partial_le2(pt, t):
    base_keys = set(pt.base.dom())
    verdict = respects_le2(pt.base, {k: v for k, v in t.items() if k in base_keys})
    if not verdict:
        return verdict
    key = (pt.d, pt.q)
    if key not in t:
        return Verdict(False, "missing-value", f"new entry of degree {pt.d}")
    if pt.d == 0:
        v = as_uord(t[key])
        return ACCEPTED if v.is_countable() and v.tail.is_natural() else \
            Verdict(False, "natural", f"-1 = {v}")
    comps = completion_le2(pt)
    if any(respects_le2(comp, t) for comp in comps):
        return ACCEPTED
    return Verdict(False, "completion", f"none of {len(comps)} respected")


def _old_make_rep2(le2, q, alphas):
    t2 = le2.t2
    continuous = bool(q) and q[-1] == MINUS_ONE
    base = q[:-1] if continuous else q
    if base not in t2:
        raise InvalidElement(q)
    if continuous:
        pt = t2.partial(base)
        if pt.node not in alphas:
            raise InvalidElement(q, "missing pending value")
        if not _old_respects_partial_le1(pt, alphas):
            raise InvalidElement(q)
    elif not respects_level1(t2.tree(q), alphas):
        raise InvalidElement(q)
    seq = []
    for i in range(len(base)):
        seq += [alphas[t2.node(base[:i])], base[i]]
    if continuous:
        seq += [alphas[pt.node], MINUS_ONE]
    return Rep2Element(2, tuple(seq))


def _old_rep2_from_payload(le2, payload):
    t2 = le2.t2
    if len(payload) % 2:
        raise InvalidElement(list(payload))
    q = tuple(payload[2 * i + 1] for i in range(len(payload) // 2))
    base = q[:-1] if q and q[-1] == MINUS_ONE else q
    if base not in t2:
        raise InvalidElement(list(payload))
    alphas = {}
    for i in range(len(base)):
        alphas[t2.node(base[:i])] = payload[2 * i]
    if q and q[-1] == MINUS_ONE:
        alphas[t2.node(base)] = payload[-2]
    elt = _old_make_rep2(le2, q, alphas)
    if elt.payload != tuple(payload):
        raise InvalidElement(list(payload))
    return elt


def _old_make_rep3(tree, r, values):
    continuous = bool(r) and r[-1] == MINUS_ONE
    base = r[:-1] if continuous else r
    if base not in tree:
        raise InvalidElement(r)
    if continuous:
        pt = tree.label(base)
        if not _old_respects_partial_le2(pt, values):
            raise InvalidElement(r)
    elif not respects_le2(tree.tree(r), values):
        raise InvalidElement(r)
    seq = []
    for i, entry in enumerate(base):
        if i:
            seq.append(values[tree.node(base[:i])])
        seq.append(entry)
    if continuous:
        seq += [values[(pt.d, pt.q)], MINUS_ONE]
    return Rep3Element(tuple(seq))


def _old_rep3_from_payload(tree, payload):
    if len(payload) % 2 == 0:
        raise InvalidElement(list(payload))
    r = tuple(payload[2 * i] for i in range((len(payload) + 1) // 2))
    base = r[:-1] if r and r[-1] == MINUS_ONE else r
    if base not in tree:
        raise InvalidElement(list(payload))
    values = {(2, ()): U1}
    for i in range(1, len(base)):
        values[tree.node(base[:i])] = payload[2 * i - 1]
    if r and r[-1] == MINUS_ONE:
        pt = tree.label(base)
        values[(pt.d, pt.q)] = payload[-2]
    elt = _old_make_rep3(tree, r, values)
    if elt.payload != tuple(payload):
        raise InvalidElement(list(payload))
    return elt


def _old_s2_member(towers, alphas, variant="respects"):
    towers = tuple(towers)
    alphas = tuple(alphas)
    if variant not in ("respects", "weak"):
        raise ArityError(f"unknown variant {variant!r}: respects or weak")
    if len(towers) != len(alphas):
        raise LengthMismatch(len(towers), len(alphas))
    if not towers:
        return ACCEPTED
    t = {}
    prev_dom = set()
    for i, (tree, a) in enumerate(zip(towers, alphas)):
        if tree.cardinality() != i + 1:
            raise InvalidTower("CARDINALITY_MISMATCH", i)
        dom = {(2, q) for q in tree.dom()}
        fresh = dom - prev_dom
        if len(fresh) != 1 or not prev_dom <= dom:
            raise InvalidTower(i)
        if i and not towers[i - 1].is_subtree_of(tree):
            raise InvalidTower(i)
        t[next(iter(fresh))] = a
        prev_dom = dom
    last = LevelLe2Tree(EMPTY_TREE, towers[-1])
    check = respects_le2 if variant == "respects" else weakly_respects_le2
    return check(last, t)


def _old_s3_structural_member(towers, variant="plain"):
    if variant not in ("minus", "plain"):
        raise ArityError(f"unknown variant {variant!r}: minus or plain")
    towers = tuple(towers)
    if not towers:
        return Verdict(True, "", "empty node")
    prev_dom = None
    for i, t in enumerate(towers):
        if not is_regular_level3(t):
            raise NotRegular(i)
        if t.cardinality() != i + 1:
            raise InvalidTower("CARDINALITY_MISMATCH", i)
        dom = set(t.dom())
        if prev_dom is not None:
            if not towers[i - 1].is_subtree_of(t) or len(dom - prev_dom) != 1:
                raise InvalidTower(i)
        prev_dom = dom
    return Verdict(True, "", f"regular level-3 tower of length {len(towers)}, "
                             f"variant {variant}")


# -- inputs --------------------------------------------------------------------------

def _outcome(fn, *args):
    """The value, or the error's class and detail."""
    try:
        return fn(*args)
    except KernelError as e:
        return type(e), e.detail


# the pending values tried at a continuous point: naturals, countable values
# with no natural tail, an uncountable one, and None for a missing value
_PENDING = (*map(parse_uord, ("0", "3", "w", "w+1", "u1")), None)


def _with_pending(values, key, value):
    """values with ``value`` at key, or without key when value is None."""
    out = {k: v for k, v in values.items() if k != key}
    if value is not None:
        out[key] = value
    return out


def _limits(nodes):
    """Countable limits rising with the Brouwer-Kleene order of the nodes."""
    return {p: UOrd.from_ctbl(OMEGA * CtblOrd.natural(k + 1))
            for k, p in enumerate(bk_sorted(nodes))}


def _damaged(rng, payload):
    """The payload, every truncation of it (both parities), one entry too
    many, and at two seeded places -1, a node outside every tree here, or an
    ordinal in place of what stood there."""
    out = [payload[:k] for k in range(len(payload) + 1)]
    out.append(payload + (MINUS_ONE,))
    for _ in range(2 if payload else 0):
        i = rng.randrange(len(payload))
        for stray in (MINUS_ONE, (7,), UOrd.from_ctbl(OMEGA * CtblOrd.natural(5))):
            out.append(payload[:i] + (stray,) + payload[i + 1:])
    return out


@functools.cache
def _realizable_level2():
    """The level-2 parts of the realizable trees with at most 5 domain
    elements, each with the tuple generated for it; the level-1 part takes
    no part in a level-2 representation point."""
    out = {}
    for tree in enumerate_le2_trees(5):
        if not len(tree.t1):
            t = generate_respecting_tuple(tree)
            if t is not None:
                out[tree.t2] = t
    return out


def _level3_trees():
    """Level-3 trees grown with validate_level3 from the partial extensions
    of the one-element tree and of their completions: one root, two roots
    (not regular), a root with a child, and one more level below."""
    q0 = typical_trees()[0]
    key, child, grand, sibling = ((0,),), ((0,), (0,)), ((0,), (0,), (0,)), ((1,),)
    out = []
    for pt in enumerate_partial_le2(q0):
        out += [{key: pt}, {key: pt, sibling: pt}]
        for comp in completion_le2(pt) if pt.d else ():
            for pt2 in enumerate_partial_le2(comp):
                out.append({key: pt, child: pt2})
                for comp2 in completion_le2(pt2)[:2] if pt2.d else ():
                    out += [{key: pt, child: pt2, grand: pt3}
                            for pt3 in enumerate_partial_le2(comp2)[:3]]
    return [validate_level3(entries) for entries in out]


def _carve(entries, validate):
    """The tower of prefixes of a tree, one element more at each stage in
    (length, lexicographic) order, and the elements in that order."""
    order = sorted(entries, key=lambda k: (len(k), k))
    return [validate({k: entries[k] for k in order[:n]})
            for n in range(1, len(order) + 1)], order


def _variants(rng, tower, pool):
    """The tower, with two neighbours swapped, with a stage dropped, and
    with a stage replaced by a foreign tree of the same cardinality."""
    out = [tower]
    if len(tower) > 1:
        i = rng.randrange(len(tower) - 1)
        out += [tower[:i] + [tower[i + 1], tower[i]] + tower[i + 2:],
                tower[:i] + tower[i + 1:]]
    i = rng.randrange(len(tower))
    same_size = [t for t in pool if t.cardinality() == i + 1 and t != tower[i]]
    if same_size:
        out.append(tower[:i] + [rng.choice(same_size)] + tower[i + 1:])
    return out


# -- tests ---------------------------------------------------------------------------

def test_rep2_layout_agrees_with_the_per_level_rule():
    rng = random.Random(0)
    cases, kinds, clauses = 0, set(), set()
    for t2 in _realizable_level2():
        le2 = LevelLe2Tree(EMPTY_TREE, t2)
        for q in dom_star(t2):
            continuous = q[-1:] == (MINUS_ONE,)
            base = q[:-1] if continuous else q
            node = t2.node(base)
            nodes = set(t2.tree(base).nodes) | ({node} if continuous else set())
            alphas = _limits(nodes - {MINUS_ONE})
            if node == MINUS_ONE and continuous:
                alphas[MINUS_ONE] = UOrd.from_nat(2)
            built = _outcome(make_rep2, le2, q, alphas)
            assert built == _outcome(_old_make_rep2, le2, q, alphas), (str(t2), q)
            payload = built.payload if isinstance(built, Rep2Element) else ()
            for p in _damaged(rng, payload):
                got = _outcome(rep2_from_payload, le2, p)
                assert got == _outcome(_old_rep2_from_payload, le2, p), (str(t2), p)
                kinds.add(type(got) is tuple and got[0])
                cases += 1
            for value in _PENDING if continuous else ():
                a = _with_pending(alphas, node, value)
                pt = t2.partial(base)
                verdict = _outcome(respects_partial_le1, pt, a)
                assert verdict == _outcome(_old_respects_partial_le1, pt, a), (str(t2), q, a)
                clauses.add((node == MINUS_ONE, getattr(verdict, "clause", verdict)))
                got, want = _outcome(make_rep2, le2, q, a), _outcome(_old_make_rep2, le2, q, a)
                if value is None:
                    assert got == (InvalidElement, (q,)) and want[0] is InvalidElement
                else:
                    assert got == want, (str(t2), q, a)
    assert kinds == {False, InvalidElement} and cases > 20000, (kinds, cases)
    assert {(True, ""), (True, "natural"), (True, "missing-value"),
            (False, ""), (False, "missing-value")} <= clauses, clauses


def test_rep3_layout_agrees_with_the_per_level_rule():
    rng = random.Random(1)
    cases, kinds, clauses = 0, set(), set()
    for tree in _level3_trees():
        for r in tree.dom():
            pt = tree.label(r)
            for form in (r, r + (MINUS_ONE,)):
                if form == r:
                    values = generate_respecting_tuple(tree.tree(r)) or {}
                elif pt.d == 0:
                    values = {**(generate_respecting_tuple(pt.base) or {}),
                              (0, MINUS_ONE): UOrd.from_nat(4)}
                else:
                    values = generate_respecting_tuple(rng.choice(completion_le2(pt))) or {}
                built = _outcome(make_rep3, tree, form, values)
                assert built == _outcome(_old_make_rep3, tree, form, values), (str(tree), form)
                payload = built.payload if isinstance(built, Rep3Element) else ()
                for p in _damaged(rng, payload):
                    got = _outcome(rep3_from_payload, tree, p)
                    assert got == _outcome(_old_rep3_from_payload, tree, p), (str(tree), p)
                    kinds.add(type(got) is tuple and got[0])
                    cases += 1
                for value in _PENDING if form != r else ():
                    v = _with_pending(values, (pt.d, pt.q), value)
                    verdict = _outcome(respects_partial_le2, pt, v)
                    assert verdict == _outcome(_old_respects_partial_le2, pt, v), \
                        (str(tree), form, v)
                    clauses.add((pt.d == 0, getattr(verdict, "clause", verdict)))
                    got = _outcome(make_rep3, tree, form, v)
                    assert got == _outcome(_old_make_rep3, tree, form, v), (str(tree), form, v)
    assert kinds == {False, InvalidElement} and cases > 2000, (kinds, cases)
    assert {(True, ""), (True, "natural"), (True, "missing-value"),
            (False, ""), (False, "missing-value")} <= clauses, clauses


def _body(fn):
    """The statements of fn, less its docstring."""
    node = ast.parse(inspect.getsource(fn)).body[0]
    return node.body[1:] if ast.get_docstring(node) is not None else node.body


def test_each_rep_point_entry_is_one_return_into_the_shared_route():
    hits = []
    for fn, method in ((level2.make_rep2, "point"), (level2.rep2_from_payload, "read_point"),
                       (level3.make_rep3, "point"), (level3.rep3_from_payload, "read_point")):
        body = _body(fn)
        calls = [n.func.attr for n in ast.walk(body[0]) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)] if body else []
        if len(body) != 1 or not isinstance(body[0], ast.Return) or method not in calls:
            hits.append(fn.__name__)
    assert hits == []


def test_s2_tower_step_agrees_with_the_loop_it_replaced():
    rng = random.Random(2)
    realizable = _realizable_level2()
    towers = [(_carve(dict(t2.entries), validate_level2), t) for t2, t in realizable.items()]
    pool = [stage for (tower, _), _ in towers for stage in tower]
    outcomes = set()
    for (tower, order), t in towers:
        alphas = [t[(2, q)] for q in order]
        for stages in _variants(rng, tower, pool):
            for variant in ("respects", "weak"):
                args = (stages, alphas[:len(stages)], variant)
                got = _outcome(s2_member, *args)
                assert got == _outcome(_old_s2_member, *args), [str(s) for s in stages]
                outcomes.add(got.ok if isinstance(got, Verdict) else got[1][0])
    assert outcomes == {True, False, "CARDINALITY_MISMATCH"} | set(range(1, 5)), outcomes


def test_s3_tower_step_agrees_with_the_loop_it_replaced():
    rng = random.Random(3)
    towers = [_carve(dict(tree.entries), validate_level3)[0] for tree in _level3_trees()]
    pool = [stage for tower in towers for stage in tower]
    outcomes = set()
    for tower in towers:
        for stages in _variants(rng, tower, pool) + [tower + tower[-1:]]:
            got = _outcome(s3_structural_member, stages, "plain")
            assert got == _outcome(_old_s3_structural_member, stages, "plain"), \
                [str(s) for s in stages]
            outcomes.add(got.ok if isinstance(got, Verdict) else got[0].__name__ + str(got[1]))
    assert {True, "NotRegular(1,)", "InvalidTower(1,)", "InvalidTower(2,)",
            "InvalidTower('CARDINALITY_MISMATCH', 1)"} <= outcomes, outcomes
