import gc
import itertools

import pytest
from conftest import _entered

from uctk import analysis, level2
from uctk.analysis import PotentialTower1, analyze, potential_and_approximation
from uctk.errors import (BadDescription, BadFirstEntry,
                         DegreeZeroHasNoCompletion, DomainNotTree, InvalidElement, KernelError,
                         MissingEntry, NoTreeFound, NotCompletionAt,
                         NotRespecting, RootNotCanonical, TowerViolation)
from uctk.grammar import parse_l1, parse_l2, parse_uord
from uctk.lemmas import recover_tree_by_search
from uctk.level1 import (EMPTY_TREE, Level1Tree, addable_nodes, enumerate_level1_up_to,
                         is_level1, respects_level1)
from uctk.level2 import (CARD1_L2, MINUS_ONE, ROOT_NODE, Level2Tree,
                         LevelLe2Tree, QDescription, Rep2Element, as_domseq,
                         check_tree_of_trees, child_labels,
                         enumerate_dom_shapes, enumerate_le2_trees,
                         enumerate_level2_with_dom, evaluate_description,
                         expand_potential, generate_respecting_tuple,
                         is_child_label, is_regular_description, make_rep2, q_descriptions,
                         q_potential, recover_tree, rep2_compare,
                         rep2_from_payload, respects_le2, s2_member,
                         typical_trees, validate_level2,
                         validate_partial_le1, validate_partial_tower_le1,
                         weakly_respects_le2)
from uctk.ordinals import OMEGA, U1, CtblOrd, UOrd
from uctk.value import ACCEPTED, Verdict, format_detail


def u(text):
    return parse_uord(text)


def ct(text):
    return parse_uord(text).tail


Q0, Q1, Q20, Q21 = typical_trees()
KEY = ((0,),)


def tup(*pairs):
    return dict(pairs)


def q21_tuple(second="u1*2"):
    return {(2, ()): U1, (2, KEY): u(second)}


class TestPartialLevel1:
    def test_completion_examples(self):
        assert validate_partial_le1(EMPTY_TREE, (0,)).completion() == \
            parse_l1("{(0)}")
        assert validate_partial_le1(parse_l1("{(0)}"), (0, 0)).completion() == \
            parse_l1("{(0) (0 0)}")
        with pytest.raises(DegreeZeroHasNoCompletion):
            validate_partial_le1(parse_l1("{(0)}"), MINUS_ONE).completion()

    def test_tower_classification(self):
        one = validate_partial_le1(EMPTY_TREE, (0,))
        t = validate_partial_tower_le1([one], None)
        assert not t.is_continuous()
        assert t.compress().tree == EMPTY_TREE
        assert t.compress().pvec == ((0,),)

        two = validate_partial_le1(parse_l1("{(0)}"), (0, 0))
        t2 = validate_partial_tower_le1([one, two], None)
        pot = t2.compress()
        assert pot.tree == parse_l1("{(0)}") and pot.pvec == ((0,), (0, 0))

        t3 = validate_partial_tower_le1([one], parse_l1("{(0)}"))
        assert t3.is_continuous()
        assert t3.compress().tree == parse_l1("{(0)}")
        assert t3.compress().pvec == ((0,),)

    def test_completion_chain_checked(self):
        one = validate_partial_le1(EMPTY_TREE, (0,))
        with pytest.raises(NotCompletionAt):
            validate_partial_tower_le1([one, one], None)

    def test_expand_round_trip(self):
        one = validate_partial_le1(EMPTY_TREE, (0,))
        two = validate_partial_le1(parse_l1("{(0)}"), (0, 0))
        for tower in (validate_partial_tower_le1([one, two], None),
                      validate_partial_tower_le1([one], parse_l1("{(0)}"))):
            again = expand_potential(tower.compress())
            assert again.compress() == tower.compress()

    def test_expand_checks_the_stages_as_the_validator_does(self):
        # a degree-0 stage inside the vector has no completion to extend
        with pytest.raises(NotCompletionAt) as e:
            expand_potential(PotentialTower1(parse_l1("{(0)}"), ((0,), MINUS_ONE, (0, 0))))
        assert e.value.index == 2
        with pytest.raises(BadFirstEntry):
            expand_potential(PotentialTower1(parse_l1("{(0)}"), ()))
        with pytest.raises(NotCompletionAt):
            expand_potential(PotentialTower1(parse_l1("{(0) (1)}"), ((0,), (0, 0))))


class TestValidateLevel2:
    def test_card_one(self):
        assert CARD1_L2.cardinality() == 1

    def test_q21_valid(self):
        t = parse_l2("() -> ({}, (0)); ((0)) -> ({(0)}, (0 0))")
        assert t == Q21.t2

    def test_tower_violation(self):
        with pytest.raises(TowerViolation):
            validate_level2({(): (EMPTY_TREE, (0,)),
                             KEY: (parse_l1("{(0) (1)}"), (0, 0))})

    def test_typical_trees(self):
        assert Q1.t1 == parse_l1("{(0)}") and Q1.t2.dom() == [()]
        assert Q0.t1 == EMPTY_TREE and Q0.t2.dom() == [()]
        assert Q20.t2.label(KEY) == (parse_l1("{(0)}"), MINUS_ONE)
        assert Q21.t2.label(KEY) == (parse_l1("{(0)}"), (0, 0))


def _listing_validate_level2(entries) -> Level2Tree:
    """validate_level2 as it was, kept as its reference:
    every key and node rebuilt, and each label looked for in the list of
    its parent's ``child_labels``."""
    items = {as_domseq(q): (t, (p if p == MINUS_ONE else tuple(p)))
             for q, (t, p) in dict(entries).items()}
    if () not in items:
        raise RootNotCanonical("missing root")
    if items[()] != (EMPTY_TREE, ROOT_NODE):
        raise RootNotCanonical(level2.PartialLevel1Tree(*items[()]))
    order = check_tree_of_trees(items)
    for q in order[1:]:
        if items[q] not in child_labels(items[q[:-1]], leaf=True):
            raise TowerViolation(q)
    return Level2Tree(tuple((q, items[q]) for q in order))


def _result(check, arg):
    """The value, or the error's class, code and detail."""
    try:
        return check(arg)
    except KernelError as e:
        return type(e), e.code, e.detail


def _damaged_level2(t2):
    """The entries of t2 with each label swapped for another of its
    parent's child labels, for its parent's tree, or for its own tree with
    (1); the root relabelled or dropped; and a key ending in -1 after each
    element, listed in reverse order, so the first one is the deepest."""
    entries = dict(t2.entries)
    out = [entries, {q: lab for q, lab in entries.items() if q},
           {**entries, (): (parse_l1("{(0)}"), (0, 0))},
           {**entries, **{q + (MINUS_ONE,): entries[q] for q in reversed(t2.dom())}}]
    for q in t2.dom()[1:]:
        parent, (tree, node) = entries[q[:-1]], entries[q]
        siblings = [lab for lab in child_labels(parent, True) if lab != entries[q]]
        for label in siblings[:1] + [(parent[0], node), (tree, (1,))]:
            out.append({**entries, q: label})
    return out


class TestCheckingCore:
    """validate_level2 makes no normalising pass and decides each label by
    ``is_child_label``: against the listing route it replaced, on every
    level-2 tree of at most 5 elements and on its damaged copies."""

    def test_validator_agrees_with_the_listing_route(self):
        outcomes, cases = set(), 0
        for shape in enumerate_dom_shapes(5):
            for t2 in enumerate_level2_with_dom(shape):
                for entries in _damaged_level2(t2):
                    got = _result(validate_level2, entries)
                    assert got == _result(_listing_validate_level2, entries), str(t2)
                    outcomes.add(got[0] if isinstance(got, tuple) else type(got))
                    cases += 1
                assert validate_level2(t2.entries) == t2
        assert outcomes == {Level2Tree, RootNotCanonical, DomainNotTree, TowerViolation}
        assert cases > 14000

    def test_a_minus_one_key_is_named_in_listing_order(self):
        entries = {(): (EMPTY_TREE, ROOT_NODE), ((0,), MINUS_ONE): (EMPTY_TREE, ROOT_NODE),
                   (MINUS_ONE,): (EMPTY_TREE, ROOT_NODE)}
        with pytest.raises(DomainNotTree) as e:
            validate_level2(entries)
        assert e.value.detail == (((0,), MINUS_ONE),)
        # before the root checks
        with pytest.raises(DomainNotTree):
            validate_level2({(MINUS_ONE,): (EMPTY_TREE, ROOT_NODE)})

    def test_child_label_predicate_is_membership_in_child_labels(self):
        nodes = [()] + [n for k in (1, 2, 3) for n in itertools.product(range(3), repeat=k)]
        cases = 0
        for tree in enumerate_level1_up_to(5, regular_only=False):
            for node in addable_nodes(tree) + [MINUS_ONE]:
                parent = (tree, node)
                labels = child_labels(parent, True)
                grown = tree if node == MINUS_ONE else Level1Tree(tree.nodes | {node})
                candidates = set(nodes) | set(addable_nodes(grown)) | {MINUS_ONE}
                for t in (grown, tree):
                    for a in candidates:
                        assert is_child_label(parent, (t, a)) == ((t, a) in labels), \
                            (str(tree), node, str(t), a)
                        cases += 1
        assert cases > 20000

    def test_a_domain_sequence_is_checked_not_rebuilt(self):
        for q in [(), KEY, ((0,), (0, 0), (1,))]:
            assert as_domseq(q) is q
        for q in [((0,), MINUS_ONE), ((0,), [0]), ((0,), 5)]:
            with pytest.raises(DomainNotTree):
                as_domseq(q)


class TestDescriptions:
    def test_q0(self):
        items = q_descriptions(Q0)
        assert all(d == 2 for d, _ in items)
        assert (2, QDescription((), EMPTY_TREE, ((0,),), False)) in items

    def test_q21(self):
        items = q_descriptions(Q21)
        disc = QDescription(KEY, parse_l1("{(0)}"), ((0,), (0, 0)), False)
        cont = QDescription(KEY + (MINUS_ONE,), parse_l1("{(0) (0 0)}"),
                            ((0,), (0, 0)), False)
        assert (2, disc) in items and (2, cont) in items

    def test_q1_has_level1_side(self):
        assert (1, (0,)) in q_descriptions(Q1)

    def test_degree_zero_stage_has_no_minus_description(self):
        items = q_descriptions(Q20)
        assert not any(d == 2 and desc.q == KEY + (MINUS_ONE,)
                       for d, desc in items)

    def test_regularity_classifier(self):
        disc = QDescription(KEY, parse_l1("{(0)}"), ((0,), (0, 0)), False)
        cont = QDescription(KEY + (MINUS_ONE,), parse_l1("{(0) (0 0)}"),
                            ((0,), (0, 0)), False)
        ext = QDescription(KEY, parse_l1("{(0) (0 0)}"), ((0,), (0, 0)),
                           extended=True)
        assert is_regular_description((2, disc))
        assert not is_regular_description((2, cont))
        assert is_regular_description((2, ext))


class TestRep2:
    def test_top_is_greatest(self):
        top = Rep2Element(2, ())
        below = make_rep2(Q21, (MINUS_ONE,), {(0,): ct("w")})
        assert rep2_compare(Q21, below, top) == -1

    def test_first_ordinal_slot_decides(self):
        a = make_rep2(Q21, KEY + (MINUS_ONE,), {(0,): ct("w*2"), (0, 0): ct("w")})
        b = make_rep2(Q21, KEY + (MINUS_ONE,), {(0,): ct("w*3"), (0, 0): ct("w")})
        assert rep2_compare(Q21, a, b) == -1

    def test_beta_minus_one_cofinal(self):
        xs = [make_rep2(Q21, KEY, {(0,): ct("w")}),
              make_rep2(Q21, KEY + (MINUS_ONE,), {(0,): ct("w*2"), (0, 0): ct("w")}),
              make_rep2(Q20, (MINUS_ONE,), {(0,): ct("w^2")})]
        for x in xs:
            beta = x.payload[0] + OMEGA
            fence = make_rep2(Q21, (MINUS_ONE,), {(0,): beta})
            assert rep2_compare(Q21, x, fence) == -1
            assert rep2_compare(Q21, fence, Rep2Element(2, ())) == -1

    def test_level1_part_below_level2_part(self):
        from uctk.level1 import Rep1Element
        one = LevelLe2Tree(parse_l1("{(0)}"), Q21.t2)
        x = Rep2Element(1, Rep1Element((0,), 3))
        assert rep2_compare(one, x, Rep2Element(2, ())) == -1

    def test_degree_zero_pending_is_natural(self):
        elt = make_rep2(Q20, KEY + (MINUS_ONE,), {(0,): ct("w"), MINUS_ONE: 3})
        assert elt.payload == (ct("w"), (0,), 3, MINUS_ONE)
        with pytest.raises(InvalidElement):
            make_rep2(Q20, KEY + (MINUS_ONE,), {(0,): ct("w"), MINUS_ONE: ct("w")})

    def test_payload_round_trip(self):
        elt = make_rep2(Q21, KEY + (MINUS_ONE,), {(0,): ct("w*2"), (0, 0): ct("w")})
        assert rep2_from_payload(Q21, elt.payload) == elt
        with pytest.raises(InvalidElement):
            rep2_from_payload(Q21, (ct("w"), (1,)))

    def test_mixed_value_types_compare(self):
        # Q21 is ({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0))); one point
        # holds a CtblOrd, the other a UOrd, and both are ordinals
        a = make_rep2(Q21, KEY, {(0,): OMEGA})
        b = make_rep2(Q21, KEY, {(0,): UOrd.from_ctbl(OMEGA * CtblOrd.natural(2))})
        assert rep2_compare(Q21, a, b) == -1
        assert rep2_compare(Q21, b, a) == 1
        same = make_rep2(Q21, KEY, {(0,): UOrd.from_ctbl(OMEGA)})
        assert rep2_compare(Q21, a, same) == 0


class TestRespect:
    def test_spec_examples(self):
        assert respects_le2(Q21, q21_tuple("u1*2"))
        v = respects_le2(Q20, q21_tuple("u1*2"))
        assert not v and "potential-tower" in v.clause
        assert respects_le2(Q20, q21_tuple("u1*w"))
        assert not respects_le2(Q21, q21_tuple("u1*w"))

    def test_root_must_be_u1(self):
        assert not respects_le2(Q0, {(2, ()): u("u1*2")})
        assert respects_le2(Q0, {(2, ()): U1})

    def test_missing_entry(self):
        with pytest.raises(MissingEntry):
            respects_le2(Q21, {(2, ()): U1})

    def test_weak_examples(self):
        assert weakly_respects_le2(Q21, q21_tuple("u1*2"))
        assert not weakly_respects_le2(Q21, q21_tuple("u2"))

    def test_respects_implies_weak_on_generated(self):
        for tree in enumerate_le2_trees(3):
            t = generate_respecting_tuple(tree)
            if t is None:
                continue
            assert respects_le2(tree, t)
            assert weakly_respects_le2(tree, t)

    def test_sibling_order(self):
        two = validate_level2({(): (EMPTY_TREE, (0,)),
                               KEY: (parse_l1("{(0)}"), (0, 0)),
                               ((1,),): (parse_l1("{(0)}"), (0, 0))})
        tree = LevelLe2Tree(EMPTY_TREE, two)
        good = {(2, ()): U1, (2, KEY): u("u1*2"), (2, ((1,),)): u("u1*3")}
        bad = {(2, ()): U1, (2, KEY): u("u1*3"), (2, ((1,),)): u("u1*2")}
        assert respects_le2(tree, good)
        v = respects_le2(tree, bad)
        assert not v and "sibling" in v.clause


class TestEvaluate:
    def test_continuous_value(self):
        pot = q_potential(Q21.t2, KEY + (MINUS_ONE,))
        d = QDescription(KEY + (MINUS_ONE,), pot.tree, pot.pvec, False)
        assert evaluate_description(Q21, q21_tuple(), (2, d), check=True) == u("u2 + u1")

    def test_discontinuous_lookup(self):
        pot = q_potential(Q21.t2, KEY)
        d = QDescription(KEY, pot.tree, pot.pvec, False)
        assert evaluate_description(Q21, q21_tuple(), (2, d), check=True) == u("u1*2")

    def test_constant_description(self):
        d = QDescription((), EMPTY_TREE, ((0,),), False)
        assert evaluate_description(Q21, q21_tuple(), (2, d), check=True) == U1

    def test_extended_embeds(self):
        ext = QDescription(KEY, parse_l1("{(0) (0 0)}"), ((0,), (0, 0)),
                           extended=True)
        assert evaluate_description(Q21, q21_tuple(), (2, ext), check=True) == u("u2*2")

    def test_not_respecting_rejected(self):
        d = QDescription((), EMPTY_TREE, ((0,),), False)
        with pytest.raises(NotRespecting):
            evaluate_description(Q21, q21_tuple("u2"), (2, d), check=True)

    def test_bad_description(self):
        with pytest.raises(BadDescription):
            evaluate_description(Q21, q21_tuple(),
                                 (2, QDescription(((1,),), EMPTY_TREE, (), False)),
                                 check=True)

    @pytest.mark.parametrize("desc", [
        # discontinuous at ((0)) with the wrong tree
        QDescription(KEY, parse_l1("{(0) (1)}"), ((0,), (0, 0)), False),
        # continuous at ((0) -1) and extended at ((0)) with the wrong vector
        QDescription(KEY + (MINUS_ONE,), parse_l1("{(0) (0 0)}"), ((0,), (1,)), False),
        QDescription(KEY, parse_l1("{(0) (0 0)}"), ((0,),), extended=True),
    ])
    def test_only_the_built_description_evaluates(self, desc):
        with pytest.raises(BadDescription):
            evaluate_description(Q21, q21_tuple(), (2, desc), check=True)


class TestRecover:
    def test_spec_examples(self):
        assert recover_tree(EMPTY_TREE, [(), KEY], q21_tuple("u1*2")) == Q21
        assert recover_tree(EMPTY_TREE, [(), KEY], q21_tuple("u1*w")) == Q20
        with pytest.raises(NoTreeFound):
            recover_tree(EMPTY_TREE, [(), KEY], q21_tuple("u2"))

    def test_exhaustive_small(self):
        for tree in enumerate_le2_trees(3):
            t = generate_respecting_tuple(tree)
            if t is None:
                continue
            assert recover_tree(tree.t1, tree.t2.dom(), t) == tree


def _outcome(recover, t1, shape, t):
    """The tree, or the class and code of the error."""
    try:
        return recover(t1, shape, t)
    except KernelError as e:
        return type(e), e.code


def _recover_then_respects(t1, dom_shape, t):
    """The route recover_tree replaced, kept as its reference: the same walk,
    then one respects_le2 call on the candidate, which analyses each value
    over the tree at its q a second time."""
    order = check_tree_of_trees(frozenset(as_domseq(q) for q in dom_shape))
    inner = {q[:-1] for q in order if q}
    labels = {(): (EMPTY_TREE, ROOT_NODE)}
    for q in order[1:]:
        choices = child_labels(labels[q[:-1]], q not in inner)
        tree = choices[0][0]
        try:
            label = (tree, analyze(level2._entry(t, (2, q)), tree).potential_tower.pvec[-1])
        except KernelError:
            label = None
        labels[q] = label if label in choices else choices[0]
    cand = LevelLe2Tree(t1, Level2Tree(tuple((q, labels[q]) for q in order)))
    if not respects_le2(cand, t):
        raise NoTreeFound()
    return cand


def _exact_outcome(recover, t1, shape, t):
    """The tree, or the class, code and message of the error."""
    try:
        return recover(t1, shape, t)
    except KernelError as e:
        return type(e), e.code, str(e)


def _same_as_replaced_route(t1, shape, t):
    assert _exact_outcome(recover_tree, t1, shape, t) == \
        _exact_outcome(_recover_then_respects, t1, shape, t), \
        (str(t1), shape, {k: str(v) for k, v in t.items()})


def _realizable(max_dom):
    """Each realizable tree with at most max_dom domain elements, with its
    generated respecting tuple."""
    for tree in enumerate_le2_trees(max_dom):
        t = generate_respecting_tuple(tree)
        if t is not None:
            yield tree, t


def _bumped(t, key):
    return {**t, key: t[key] + UOrd.from_nat(1)}


class TestRecoverRoutesAgree:
    """The direct route against the exhaustive search it replaced, and
    against the route that checked its candidate with respects_le2."""

    def _agree(self, t1, shape, t):
        direct = _outcome(recover_tree, t1, shape, t)
        assert direct == _outcome(recover_tree_by_search, t1, shape, t), \
            (str(t1), shape, {k: str(v) for k, v in t.items()})
        _same_as_replaced_route(t1, shape, t)
        return direct

    def test_realizable_trees_and_perturbed_tuples(self):
        trees = perturbations = 0
        for tree, t in _realizable(4):
            shape = tree.t2.dom()
            assert self._agree(tree.t1, shape, t) == tree
            trees += 1
            for k in t:
                dropped = {j: v for j, v in t.items() if j != k}
                perturbed = [dropped]
                if k[0] == 2:
                    perturbed += [_bumped(t, k), {**t, k: u("u1*w")}]
                for bad in perturbed:
                    self._agree(tree.t1, shape, bad)
                    perturbations += 1
        assert trees >= 10 and perturbations > trees

    def test_edge_shapes(self):
        root = {(2, ()): U1}
        assert self._agree(EMPTY_TREE, [], root) == \
            (RootNotCanonical, "ROOT_NOT_CANONICAL")
        assert self._agree(EMPTY_TREE, [KEY], q21_tuple()) == \
            (DomainNotTree, "DOMAIN_NOT_TREE")
        assert self._agree(EMPTY_TREE, [()], {}) == \
            (MissingEntry, "MISSING_ENTRY")
        assert self._agree(EMPTY_TREE, [()], root) == Q0
        assert self._agree(EMPTY_TREE, [(), ((1,),)],
                           {**root, (2, ((1,),)): u("u1*2")}) == \
            (DomainNotTree, "DOMAIN_NOT_TREE")
        assert self._agree(EMPTY_TREE, [(), ((0,), MINUS_ONE)],
                           {**root, (2, ((0,), MINUS_ONE)): u("u1*2")}) == \
            (DomainNotTree, "DOMAIN_NOT_TREE")


def test_recover_agrees_with_the_replaced_route_up_to_five_elements():
    trees = 0
    for tree, t in _realizable(5):
        for case in (t, _bumped(t, (2, tree.t2.dom()[-1]))):
            _same_as_replaced_route(tree.t1, tree.t2.dom(), case)
        trees += 1
    assert trees >= 700


class TestRecoverAnalysesOnce:
    """recover_tree analyses each value once, through the two-part
    ``potential_and_approximation``: its respect check reads the walk's
    analyses."""

    @staticmethod
    def _cases():
        """Each realizable tree with a non-root domain element, with its
        generated tuple and the key of its last level-2 value."""
        for tree, t in _realizable(4):
            if len(tree.t2.dom()) > 1:
                yield tree, t, (2, tree.t2.dom()[-1])

    @pytest.mark.parametrize("case", ["hit", "miss", "dropped"])
    def test_one_analyze_call_per_non_root_entry(self, case, monkeypatch):
        calls = []

        def counted(b, tree):
            calls.append(b)
            return potential_and_approximation(b, tree)

        monkeypatch.setattr(level2, "potential_and_approximation", counted)
        trees = 0
        for tree, t, last in self._cases():
            n = len(tree.t2.dom()) - 1
            t, outcome, analysed = {
                "hit": (t, tree, n),
                "miss": (_bumped(t, last), (NoTreeFound, "NO_TREE_FOUND"), n),
                # the dropped value is missed when it is read, before its analysis
                "dropped": ({k: v for k, v in t.items() if k != last},
                            (MissingEntry, "MISSING_ENTRY"), n - 1),
            }[case]
            calls.clear()
            assert _outcome(recover_tree, tree.t1, tree.t2.dom(), t) == outcome
            assert len(calls) == analysed, str(tree)
            trees += 1
        assert trees >= 5

    def test_a_hit_builds_no_full_analysis_and_lists_no_labels(self):
        # each label is decided by the is_child_label rule; child_labels
        # only gives the stand-in label of a value that fixes none
        cases = list(self._cases())

        def run():
            for tree, t, _ in cases:
                assert recover_tree(tree.t1, tree.t2.dom(), t) == tree

        assert not _entered([analysis.analyze, level2.child_labels], run)

    def test_a_miss_leaves_no_cyclic_garbage(self):
        # a stored KernelError would keep its traceback, which holds the
        # recover_tree frame, which holds the stored error: a cycle
        tree, t, last = next(c for c in self._cases() if len(c[0].t2.dom()) > 2)
        miss = _bumped(t, last)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(NoTreeFound):
                recover_tree(tree.t1, tree.t2.dom(), miss)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRespectReadsEachValueOnce:
    """The respect walks keep each value they read: respects_le2 reads each
    level-1 value and the root once and every other level-2 value twice,
    the second time for its analysis; weakly_respects_le2 reads each level-2
    value once.  Trees with a non-root level-2 element only: on the others
    both walks read each value once."""

    @pytest.mark.parametrize("check, reads", [
        (respects_le2, lambda t1, n: t1 + 1 + 2 * (n - 1)),
        (weakly_respects_le2, lambda t1, n: n),
    ], ids=["respects", "weakly"])
    def test_entry_reads_per_accepted_tree(self, check, reads, monkeypatch):
        calls = []
        entry = level2._entry

        def counted(t, key):
            calls.append(key)
            return entry(t, key)

        monkeypatch.setattr(level2, "_entry", counted)
        trees = 0
        for tree, t in _realizable(4):
            n = len(tree.t2.dom())
            calls.clear()
            if n == 1 or not check(tree, t):
                continue
            assert len(calls) == reads(len(tree.t1), n), str(tree)
            trees += 1
        assert trees == 94


def test_recovered_tree_is_the_validated_tree():
    # recover_tree builds its level-2 tree from its labels without
    # validate_level2; the labels must pass it and give the same tree
    trees = 0
    for tree, t in _realizable(5):
        built = recover_tree(tree.t1, tree.t2.dom(), t).t2
        assert built.entries == validate_level2(dict(built.entries)).entries
        assert built == tree.t2
        trees += 1
    assert trees >= 700


class TestS2:
    def test_spec_examples(self):
        assert s2_member([CARD1_L2], [U1], "respects")
        assert s2_member([CARD1_L2], [U1], "weak")
        tower = [CARD1_L2, Q21.t2]
        assert s2_member(tower, [U1, u("u1*2")], "respects")
        assert s2_member(tower, [U1, u("u1*2")], "weak")
        assert not s2_member(tower, [U1, u("u2")], "respects")
        assert not s2_member(tower, [U1, u("u2")], "weak")

    def test_empty_node(self):
        assert s2_member([], [], "respects")


class TestDeepBranch:
    """A three-stage chain branch with hand-computed values."""

    def _tree(self):
        deep = validate_level2({
            (): (EMPTY_TREE, (0,)),
            KEY: (parse_l1("{(0)}"), (0, 0)),
            ((0,), (0,)): (parse_l1("{(0) (0 0)}"), (0, 0, 0)),
        })
        return LevelLe2Tree(EMPTY_TREE, deep)

    def _good(self):
        return {(2, ()): U1, (2, KEY): u("u1*2"),
                (2, ((0,), (0,))): u("u2 + u1*3")}

    def test_respects_with_approximation_chaining(self):
        tree = self._tree()
        assert respects_le2(tree, self._good())
        # the next approximation of the deep value is u1*2, not u1*3
        bad = dict(self._good())
        bad[(2, ((0,), (0,)))] = u("u2*2 + u1*3")
        v = respects_le2(tree, bad)
        assert not v and "approximation" in v.clause

    def test_continuous_value_at_depth_two(self):
        tree = self._tree()
        q = ((0,), (0,), MINUS_ONE)
        pot = q_potential(tree.t2, q)
        d = QDescription(q, pot.tree, pot.pvec, False)
        assert evaluate_description(tree, self._good(), (2, d), check=True) == \
            u("u3 + u2*2 + u1")

    def test_recover_at_depth_three(self):
        tree = self._tree()
        assert recover_tree(EMPTY_TREE, tree.t2.dom(), self._good()) == tree

    def test_s2_three_stage_tower(self):
        tree = self._tree()
        towers = [CARD1_L2,
                  validate_level2(dict(list(tree.t2.entries)[:2])),
                  tree.t2]
        alphas = [U1, u("u1*2"), u("u2 + u1*3")]
        assert s2_member(towers, alphas, "respects")
        assert s2_member(towers, alphas, "weak")
        assert not s2_member(towers, [U1, u("u1*2"), u("u3")], "weak")


def _old_children(dom, q) -> Level1Tree:
    """The children's indices of q, found by a scan of the whole domain."""
    return Level1Tree(frozenset(k[-1] for k in dom if len(k) == len(q) + 1 and k[:len(q)] == q))


def _old_check_tree_of_trees(dom):
    """check_tree_of_trees as it was, kept as its reference: the children of
    each element found by a scan of the whole domain."""
    if not dom:
        raise RootNotCanonical("missing root")
    order = sorted(dom, key=level2.dom_sort_key)
    for q in order:
        if q and q[:-1] not in dom:
            raise DomainNotTree(q)
    for q in order:
        if not is_level1(_old_children(dom, q).nodes):
            raise DomainNotTree(q)
    return order


def _old_respects_le2(le2, t):
    """respects_le2 as it was, kept as its reference: the sibling order of
    each element read off the level-1 tree of its children, Brouwer-Kleene
    sorted."""
    t1_vals = {p: level2._entry(t, (1, p)) for p in le2.t1.nodes}
    v = respects_level1(le2.t1, t1_vals)
    if not v:
        return Verdict(False, "level1-part", f"{v.clause}: {v.detail}")
    t2 = le2.t2
    branch = {(): level2._entry(t, (2, ()))}
    if branch[()].compare(U1) != 0:
        return Verdict(False, "root-value", str(branch[()]))
    for q in t2.dom():
        if not q:
            continue
        branch[q] = level2._entry(t, (2, q))
        try:
            an = analyze(branch[q], t2.tree(q))
        except KernelError as e:
            an = e.code
        if isinstance(an, str):
            return Verdict(False, f"potential-tower{format_detail(q)}", an)
        pot = q_potential(t2, q)
        if an.potential_tower != pot:
            return Verdict(False, f"potential-tower{format_detail(q)}",
                           f"{an.potential_tower} != {pot}")
        expected = tuple(branch[q[:l]] for l in range(len(q) + 1))
        if an.approximation_sequence != expected:
            got, want = (", ".join(map(str, vs)) for vs in (an.approximation_sequence, expected))
            return Verdict(False, f"approximation{format_detail(q)}", f"[{got}] != [{want}]")
    for q in t2.dom():
        vals = [branch[q + (a,)] for a in _old_children(t2.dom(), q).bk_sorted()]
        if any(x.compare(y) >= 0 for x, y in zip(vals, vals[1:])):
            return Verdict(False, f"sibling-order{format_detail(q)}", "")
    return ACCEPTED


def _checked(check, dom):
    """The canonical order, or the class and values of the error."""
    try:
        return check(dom)
    except (KernelError, TypeError) as e:  # the old route: a -1 entry reaches is_level1
        return type(e), e.args


class TestReplacedRoutesAgree:
    """check_tree_of_trees gathers children in its predecessor pass, and
    respects_le2 reads sibling order off canonical order; each against the
    route it replaced."""

    def test_tree_of_trees_order_on_every_shape(self):
        shapes = enumerate_dom_shapes(6)
        for shape in shapes:
            assert check_tree_of_trees(shape) == _old_check_tree_of_trees(shape), sorted(shape)
        assert len(shapes) > 300

    def test_tree_of_trees_first_error_on_damaged_sets(self):
        """The same order or first error as the old route, except where a -1
        entry made it raise a bare TypeError: that is a DomainNotTree naming
        the element that ends in -1."""
        outcomes, type_errors = set(), 0
        for shape in enumerate_dom_shapes(5):
            for q in shape:
                # dropping q loses a parent or a left sibling, or leaves a tree
                for damaged in (shape - {q}, shape | {q + (MINUS_ONE,)}):
                    got = _checked(check_tree_of_trees, damaged)
                    want = _checked(_old_check_tree_of_trees, damaged)
                    if isinstance(want, tuple) and want[0] is TypeError:
                        want, type_errors = (DomainNotTree, (q + (MINUS_ONE,),)), type_errors + 1
                    assert got == want, sorted(damaged)
                    outcomes.add(got[0] if isinstance(got, tuple) else list)
        assert outcomes == {list, RootNotCanonical, DomainNotTree} and type_errors > 100

    @pytest.mark.parametrize("dom", [{(), (MINUS_ONE,)}, {(), ((0,),), ((0,), MINUS_ONE)},
                                     {(), ((0,),), ((1,),), ((0,), MINUS_ONE)}])
    def test_a_minus_one_entry_is_not_a_tree(self, dom):
        q = next(k for k in dom if k and k[-1] == MINUS_ONE)
        with pytest.raises(DomainNotTree) as info:
            check_tree_of_trees(dom)
        assert info.value.args == (q,)

    def test_respects_le2_on_hits_misses_and_swapped_siblings(self):
        trees = sibling_order = 0
        for tree, t in _realizable(5):
            dom = tree.t2.dom()
            cases = [t, _bumped(t, (2, dom[-1]))]
            for q in dom:
                siblings = [(2, k) for k in dom if k and k[:-1] == q]
                for a, b in zip(siblings, siblings[1:]):
                    cases += [{**t, a: t[b], b: t[a]}, {**t, b: t[a]}]  # swapped, equal
            for case in cases:
                got, want = respects_le2(tree, case), _old_respects_le2(tree, case)
                assert (got.ok, got.clause, got.detail) == (want.ok, want.clause, want.detail), \
                    (str(tree), {k: str(v) for k, v in case.items()})
                sibling_order += got.clause.startswith("sibling-order")
            trees += 1
        assert trees >= 700 and sibling_order >= 500


def test_recover_never_scans_the_domain_for_children():
    """recover_tree reads every element's children off canonical order, on a
    hit and on a miss."""
    cases = [(tree, t) for tree, t in _realizable(4) if len(tree.t2.dom()) > 2]

    def run():
        for tree, t in cases:
            assert recover_tree(tree.t1, tree.t2.dom(), t) == tree
            with pytest.raises(NoTreeFound):
                recover_tree(tree.t1, tree.t2.dom(), _bumped(t, (2, tree.t2.dom()[-1])))

    assert len(cases) >= 5
    assert _entered([level2._children_of, level2.TreeOfTrees.children], run) == set()


class TestTreeOfTrees:
    def test_check_returns_canonical_order(self):
        dom = {((0,), (0,)), ((1,),), (), KEY}
        assert check_tree_of_trees(dom) == [(), KEY, ((1,),), ((0,), (0,))]

    def test_check_names_first_violation(self):
        with pytest.raises(DomainNotTree) as e:
            check_tree_of_trees({(), ((0,), (0,))})
        assert e.value.detail == (((0,), (0,)),)
        with pytest.raises(DomainNotTree) as e:
            check_tree_of_trees({(), ((1,),)})
        assert e.value.detail == ((),)


class TestGenerator:
    def test_unrealizable_off_chain_pending(self):
        # a pending node hanging off the chain needs non-additive ordinals
        t2 = validate_level2({
            (): (EMPTY_TREE, (0,)),
            KEY: (parse_l1("{(0)}"), (0, 0)),
            ((0,), (0,)): (parse_l1("{(0) (0 0)}"), (0, 1)),
        })
        assert generate_respecting_tuple(LevelLe2Tree(EMPTY_TREE, t2)) is None

    def test_realizable_counts(self):
        trees = enumerate_le2_trees(4)
        realizable = [t for t in trees
                      if generate_respecting_tuple(t) is not None]
        assert len(realizable) >= 10
        assert len(realizable) < len(trees)
