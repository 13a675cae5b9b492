"""The level-2 tower rule, stated once in ``level2.child_labels``, against
the rule it replaced: ``validate_partial_le1`` at every element plus "the
parent has degree 1 and its completion is the element's tree", written here
with ``is_level1`` and ``is_regular`` only.  The enumerator builds its trees
without validating them; these tests stand in for that validation."""

import functools

from uctk.errors import CaseViolation, KernelError, RootNotCanonical, TowerViolation
from uctk.level1 import EMPTY_TREE, addable_nodes, is_level1, is_regular, validate_level1
from uctk.level2 import (MINUS_ONE, Level2Tree, check_tree_of_trees, child_labels,
                         enumerate_le2_trees, generate_respecting_tuple,
                         validate_level2, validate_partial_le1)


def _old_partial_ok(tree, node) -> bool:
    """A regular base, and either -1 over a nonempty base or a new node whose
    completion is a regular level-1 tree."""
    if not is_regular(tree):
        return False
    if node == MINUS_ONE:
        return len(tree) > 0
    completed = set(tree.nodes) | {node}
    return node not in tree.nodes and is_level1(completed) and (1,) not in completed


@functools.cache
def _old_child_ok(parent, label) -> bool:
    ptree, pnode = parent
    return _old_partial_ok(*label) and pnode != MINUS_ONE and \
        validate_level1(set(ptree.nodes) | {pnode}) == label[0]


def _old_validate_level2(entries, order):
    """The old rule on entries over a checked domain in canonical order."""
    if entries[()] != (EMPTY_TREE, (0,)):
        raise RootNotCanonical(entries[()])
    for q in order[1:]:
        if not _old_child_ok(entries[q[:-1]], entries[q]):
            raise TowerViolation(q)
    return Level2Tree(tuple((q, entries[q]) for q in order))


def _outcome(validate, *args):
    """The value, or the error's class and detail."""
    try:
        return validate(*args)
    except KernelError as e:
        return type(e), e.detail


def test_enumerated_trees_pass_validation():
    trees = {tree.t2 for tree in enumerate_le2_trees(6)}
    for t2 in trees:
        assert validate_level2(t2.entries) == t2, str(t2)
    assert len(trees) == 13523


def test_child_labels_agree_with_the_rule_they_replaced():
    """Every label of every realizable tree with at most 5 domain elements
    is replaced by each label of a pool: the child labels of every label in
    the tree, -1 on an inner element, the irregular pending node (1), a node
    that is not addable, one already present, and two wrong trees."""
    cases, kept = 0, set()
    for t2 in {tree.t2 for tree in enumerate_le2_trees(5)
               if generate_respecting_tuple(tree) is not None}:
        entries = dict(t2.entries)
        order = check_tree_of_trees(entries)
        inner = {q[:-1] for q in entries if q}
        pool = {label for parent in entries.values() for label in child_labels(parent, leaf=True)}
        for q, (tree, node) in entries.items():
            if not q:
                continue
            bigger = validate_level1(set(tree.nodes) | {addable_nodes(tree)[0]})
            labels = pool | {(tree, (1,)), (tree, (2,)), (tree, max(tree.nodes)),
                             (EMPTY_TREE, node), (bigger, node)}
            if q in inner:
                labels.add((tree, MINUS_ONE))
            for label in labels:
                changed = {**entries, q: label}
                new = _outcome(validate_level2, changed)
                assert new == _outcome(_old_validate_level2, changed, order), \
                    (str(t2), q, label)
                kept.add(isinstance(new, Level2Tree))
                try:
                    validate_partial_le1(*label)
                except CaseViolation:
                    assert not _old_partial_ok(*label), label
                else:
                    assert _old_partial_ok(*label), label
                cases += 1
    assert kept == {True, False} and cases > 15000
