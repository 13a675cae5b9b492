"""One-element growth reads the addable-node rule: a level-1 tree grown by
one node is a tree exactly when the node is one of ``addable_nodes``.  The
kernel's growth sites build the grown tree directly and its one-element
checks read that rule; here they are held to the route they replaced,
which validated the whole grown set, and shown never to enter it."""

import itertools

from conftest import _entered

from uctk.errors import CaseViolation, DomainNotTree, KernelError
from uctk.level1 import (EMPTY_TREE, addable_nodes, enumerate_level1_up_to,
                         is_level1, regular_nodes, validate_level1)
from uctk.lemmas import enumerate_partial_le2
from uctk.level2 import (CARD1_L2, MINUS_ONE, LevelLe2Tree, as_domseq,
                         check_tree_of_trees, child_labels, enumerate_le2_trees,
                         validate_level2, validate_partial_le1)
from uctk.level3 import PartialLevelLe2Tree, completion_le2, validate_partial_le2

# every node of length at most 3 with entries 0-2, and the empty node
NODES = [()] + [n for k in (1, 2, 3) for n in itertools.product(range(3), repeat=k)]
# two sequences whose predecessor no tree with at most 4 elements holds
MISSING_PREFIX = [((7,), (0,)), ((0,), (5,), (0,))]


def _completion_by_revalidation(tree, node):
    return validate_level1(set(tree.nodes) | {node})


def _validate_partial_le2_by_revalidation(base, d, q, p):
    """The degree-1 and degree-2 branches of ``validate_partial_le2`` as
    they were: each extension checked by validating the whole grown set."""
    if d == 1:
        q = tuple(q)
        if q in base.t1.nodes:
            raise CaseViolation("node already present", q)
        if not is_level1(set(base.t1.nodes) | {q}):
            raise CaseViolation("extension is not a level-1 tree", q)
        if len(p):
            raise CaseViolation("degree 1 carries no tree component")
        return PartialLevelLe2Tree(base, 1, q, EMPTY_TREE)
    q = as_domseq(q)
    t2 = base.t2
    if q in t2 or not q:
        raise CaseViolation("sequence not a fresh extension", q)
    try:
        check_tree_of_trees(set(t2.dom()) | {q})
    except DomainNotTree:
        raise CaseViolation("domain extension is not a tree of trees", q)
    tree, node = t2.label(q[:-1])
    if node == MINUS_ONE:
        raise CaseViolation("predecessor stage has degree 0", q)
    if p != _completion_by_revalidation(tree, node):
        raise CaseViolation("tree component must be the completion", q)
    return PartialLevelLe2Tree(base, 2, q, p)


def _completion_le2_by_revalidation(pt):
    """The degree-2 branch of ``completion_le2`` as it was: each completion
    built by validating the whole grown level-2 tree."""
    entries = dict(pt.base.t2.entries)
    labels = child_labels(pt.base.t2.label(pt.q[:-1]), leaf=True)
    return [LevelLe2Tree(pt.base.t1, validate_level2({**entries, pt.q: label}))
            for label in labels[-1:] + labels[:-1]]


def _outcome(validate, *args):
    """The value, or the error's class, code and message."""
    try:
        return validate(*args)
    except KernelError as e:
        return type(e), e.code, str(e)


def _grid():
    """(base, d, q, p): every level <=2 tree with at most 4 domain elements,
    extended at degree 1 by each of NODES, and at degree 2 below each domain
    element by each of NODES and by the MISSING_PREFIX sequences; p is the
    completion of the predecessor's label where it has one."""
    for tree in enumerate_le2_trees(4):
        t2 = tree.t2
        for node in NODES:
            yield tree, 1, node, EMPTY_TREE
        seqs = [q + (node,) for q in t2.dom() for node in NODES] + MISSING_PREFIX
        for q in seqs:
            p = EMPTY_TREE
            if q[:-1] in t2 and t2.node(q[:-1]) != MINUS_ONE:
                p = _completion_by_revalidation(*t2.label(q[:-1]))
            yield tree, 2, q, p


def _degree2_partials():
    """Every degree-2 partial tree over a level <=2 tree with at most 4
    domain elements."""
    return [pt for tree in enumerate_le2_trees(4)
            for pt in enumerate_partial_le2(tree) if pt.d == 2]


def test_partial_le2_checks_agree_with_whole_set_validation():
    cases, accepted = 0, {1: 0, 2: 0}
    for args in _grid():
        new = _outcome(validate_partial_le2, *args)
        assert new == _outcome(_validate_partial_le2_by_revalidation, *args), \
            (str(args[0]), *args[1:3])
        accepted[args[1]] += isinstance(new, PartialLevelLe2Tree)
        cases += 1
    assert cases == 23458
    assert 0 < accepted[1] < cases and 0 < accepted[2] < cases


def test_grown_trees_are_the_validated_trees():
    """The completion of a partial level <=1 tree, the tree of every child
    label below it, and the degree-1 completion of a partial level <=2 tree
    over the same pair."""
    cases = 0
    for base in enumerate_level1_up_to(5, regular_only=True):
        for node in regular_nodes(base):
            grown = _completion_by_revalidation(base, node)
            assert validate_partial_le1(base, node).completion() == grown
            assert {tree for tree, _ in child_labels((base, node), leaf=True)} == {grown}
            pt = validate_partial_le2(LevelLe2Tree(base, CARD1_L2), 1, node, EMPTY_TREE)
            assert [comp.t1 for comp in completion_le2(pt)] == [grown]
            cases += 1
    assert cases == 100


def test_growth_never_enters_whole_set_validation():
    """At every level <=2 tree with at most 4 domain elements: each growth
    site on each label and addable node, the one-element checks on each
    addable node and on one that is not addable, and the completions of
    every degree-2 partial tree over it."""
    trees = enumerate_le2_trees(4)
    partials = _degree2_partials()

    def run():
        for tree in trees:
            t2 = tree.t2
            for node in addable_nodes(tree.t1) + [(5,)]:
                try:
                    completion_le2(validate_partial_le2(tree, 1, node, EMPTY_TREE))
                except CaseViolation:
                    assert node == (5,)
            for q in t2.dom():
                child_labels(t2.label(q), leaf=True)
                p = EMPTY_TREE if t2.node(q) == MINUS_ONE else t2.partial(q).completion()
                for a in addable_nodes(t2.children(q)) + [(5,)]:
                    try:
                        validate_partial_le2(tree, 2, q + (a,), p)
                    except CaseViolation:
                        pass
        for pt in partials:
            completion_le2(pt)

    assert not _entered([validate_level1, is_level1, check_tree_of_trees,
                         validate_level2], run)


def test_degree2_completions_are_the_validated_trees():
    cases = 0
    for pt in _degree2_partials():
        grown, validated = completion_le2(pt), _completion_le2_by_revalidation(pt)
        assert grown == validated, str(pt)
        assert [c.t2.entries for c in grown] == [c.t2.entries for c in validated]
        cases += len(grown)
    assert cases == 1674
