"""Malformed input to the API's tree checks raises a KernelError, never a
bare exception, with the code and the element recorded here.  The inputs
are keys that are not domain sequences, given as a level-2 key, a level-3
key, a ``recover_tree`` shape and a degree-2 extension, domain sets whose
nodes hold entries that are not naturals, entries that are not key-label
pairs, labels that are not level-2 or level-3 labels,
pending nodes that are not nodes, level-1 nodes that are not tuples of
naturals, domain sets holding elements that are not tuples, level-2 trees
built without validation that lack an element's parent or hold a label
that is not a pair, and tuples of values that are not mappings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uctk.errors import KernelError
from uctk.grammar import parse_uord
from uctk.level1 import EMPTY_TREE, is_addable, validate_level1
from uctk.level2 import (MINUS_ONE, ROOT_NODE, Level2Tree, LevelLe2Tree, check_tree_of_trees,
                         recover_tree, respects_le2, typical_trees, validate_level2,
                         validate_partial_le1)
from uctk.level3 import validate_level3, validate_partial_le2

Q0, Q1, Q20, Q21 = typical_trees()
ONE = validate_level1({(0,)})
TWO = validate_level1({(0,), (0, 0)})
ROOT = {(): (EMPTY_TREE, ROOT_NODE)}
LABEL3 = validate_partial_le2(Q0, 1, (0,), EMPTY_TREE)

# each key as the text of the DOMAIN_NOT_TREE that names it: -1, an int and
# a string, alone, at the end and in the middle
KEYS = {}
for text, x in (("-1", MINUS_ONE), ("5", 5), ("a", "a")):
    KEYS |= {f"({text})": (x,), f"((0) {text})": ((0,), x),
             f"((0) {text} (0))": ((0,), x, (0,))}

USES = {
    "level-2 key": lambda k: validate_level2({**dict(Q21.t2.entries), k: (TWO, MINUS_ONE)}),
    "level-3 key": lambda k: validate_level3({((0,),): LABEL3, k: LABEL3}),
    "recover shape": lambda k: recover_tree(EMPTY_TREE, [(), ((0,),), k], {}),
    "degree-2 q": lambda k: validate_partial_le2(Q21, 2, k, TWO),
}


def _key_outcome(use, text):
    # a string inside a level-2 key meets the canonical sort first
    if use == "level-2 key" and "a" in text:
        return "INVALID_ELEMENT: a"
    return f"DOMAIN_NOT_TREE: {text}"


CASES = [(f"{use} {text}", USES[use], KEYS[text], _key_outcome(use, text))
         for use in USES for text in KEYS]
CASES += [
    ("level-3 key ()", USES["level-3 key"], (), "EMPTY_KEY_PRESENT"),
    ("degree-2 q ()", USES["degree-2 q"], (),
     "CASE_VIOLATION: sequence not a fresh extension, ()"),
    ("label node (1)", validate_level2, {**ROOT, ((0,),): (ONE, (1,))}, "TOWER_VIOLATION: ((0))"),
    ("label -1 at an inner element", validate_level2,
     {**ROOT, ((0,),): (ONE, MINUS_ONE), ((0,), (0,)): (TWO, MINUS_ONE)},
     "TOWER_VIOLATION: ((0) (0))"),
    ("label string node", validate_level2, {**ROOT, ((0,),): (ONE, "a")},
     "TOWER_VIOLATION: ((0))"),
    ("root label string node", validate_level2, {(): (EMPTY_TREE, "a")},
     "ROOT_NOT_CANONICAL: ({}, (a))"),
    ("label frozenset tree", validate_level2, {**ROOT, ((0,),): (frozenset({(0,)}), (0, 0))},
     "TOWER_VIOLATION: ((0))"),
    ("label string tree", validate_level2, {**ROOT, ((0,),): ("{(0)}", (0, 0))},
     "TOWER_VIOLATION: ((0))"),
    ("root label frozenset tree", validate_level2, {(): (frozenset(), ROOT_NODE)},
     "ROOT_NOT_CANONICAL: (frozenset(), (0))"),
    ("partial level <=1 string node", lambda node: validate_partial_le1(ONE, node), "a",
     "CASE_VIOLATION: completion is not a regular level-1 tree, a"),
    ("degree-1 string node", lambda node: validate_partial_le2(Q0, 1, node, EMPTY_TREE), "a",
     "CASE_VIOLATION: extension is not a level-1 tree, a"),
    ("level-1 node (-1)", validate_level1, {(-1,)}, "INVALID_ELEMENT: (-1)"),
    ("level-1 node ending in -1", validate_level1, {(0,), (0, -1)}, "INVALID_ELEMENT: (0 -1)"),
    ("level-1 float node 0.0", validate_level1, {(0.0,)}, "INVALID_ELEMENT: (0.0)"),
    ("level-1 string node", validate_level1, {("a",)}, "INVALID_ELEMENT: (a)"),
    ("level-1 float node 0.5", validate_level1, {(0.5,)}, "INVALID_ELEMENT: (0.5)"),
    ("level-1 list node", validate_level1, [[0]], "INVALID_ELEMENT: [[0]]"),
    ("level-1 string entry in an unclosed set", validate_level1, {(0, "a", 0), (0, 1, 0)},
     "INVALID_ELEMENT: (0 a 0)"),
    ("level-2 int key", validate_level2, {5: None}, "DOMAIN_NOT_TREE: 5"),
]
CASES += [(f"{use} bare int", USES[use], 5, "DOMAIN_NOT_TREE: 5")
          for use in ("level-3 key", "recover shape", "degree-2 q")]
CASES += [
    ("recover shape None", USES["recover shape"], None, "DOMAIN_NOT_TREE: None"),
    ("root label None", validate_level2, {(): None}, "ROOT_NOT_CANONICAL: None"),
    ("root label triple", validate_level2, {(): (EMPTY_TREE, ROOT_NODE, 1)},
     "ROOT_NOT_CANONICAL: ({} (0) 1)"),
    ("label list node", validate_level2, {**ROOT, ((0,),): (ONE, [0])}, "TOWER_VIOLATION: ((0))"),
    ("label triple", validate_level2, {**ROOT, ((0,),): (ONE, (0, 0), 1)},
     "TOWER_VIOLATION: ((0))"),
    ("partial level <=1 list node", lambda node: validate_partial_le1(ONE, node), [0],
     "CASE_VIOLATION: completion is not a regular level-1 tree, [0]"),
    ("degree-1 list node", lambda node: validate_partial_le2(Q0, 1, node, EMPTY_TREE), [0],
     "CASE_VIOLATION: extension is not a level-1 tree, [0]"),
    ("level-3 label None", validate_level3, {((0,),): None}, "TOWER_VIOLATION: ((0))"),
    ("level-3 label level <=2 tree", validate_level3, {((0,),): Q0}, "TOWER_VIOLATION: ((0))"),
    ("level-3 string label at an inner key", validate_level3,
     {((0,),): LABEL3, ((0,), (0,)): "a"}, "TOWER_VIOLATION: ((0) (0))"),
]
# pending nodes whose last entry compares equal to a natural, a root label
# whose node does not print as a node, and tree arguments of another kind
CASES += [
    ("partial level <=1 float pending node", lambda node: validate_partial_le1(ONE, node),
     (0, 0.0), "CASE_VIOLATION: completion is not a regular level-1 tree, (0 0.0)"),
    ("partial level <=1 bool pending node", lambda node: validate_partial_le1(ONE, node),
     (0, False), "CASE_VIOLATION: completion is not a regular level-1 tree, (0 False)"),
    ("degree-1 float node", lambda node: validate_partial_le2(Q0, 1, node, EMPTY_TREE), (0.0,),
     "CASE_VIOLATION: extension is not a level-1 tree, (0.0)"),
    ("label float node", validate_level2, {**ROOT, ((0,),): (ONE, (0, 0.0))},
     "TOWER_VIOLATION: ((0))"),
    ("label bool node", validate_level2, {**ROOT, ((0,),): (ONE, (0, False))},
     "TOWER_VIOLATION: ((0))"),
    ("root label int node", validate_level2, {(): (EMPTY_TREE, 5)},
     "ROOT_NOT_CANONICAL: ({} 5)"),
    ("root label None node", validate_level2, {(): (EMPTY_TREE, None)},
     "ROOT_NOT_CANONICAL: ({} None)"),
    ("partial level <=1 set base", lambda base: validate_partial_le1(base, (0, 0)), {(0,)},
     "CASE_VIOLATION: base not a level-1 tree, {(0,)}"),
    ("partial level <=1 level-2 base", lambda base: validate_partial_le1(base, (0, 0)), Q0.t2,
     "CASE_VIOLATION: base not a level-1 tree, () -> ({}, (0))"),
    ("degree-1 set base", lambda base: validate_partial_le2(base, 1, (0,), EMPTY_TREE), {(0,)},
     "CASE_VIOLATION: base not a level <=2 tree, {(0,)}"),
    ("degree-2 None base", lambda base: validate_partial_le2(base, 2, ((0,),), ONE), None,
     "CASE_VIOLATION: base not a level <=2 tree, None"),
]
# domain sets with a node entry that is not a natural: the entry is named
# wherever it sits, below a missing parent too, except a bool, which
# validate_level1 rejects among the children of ((0))
CASES += [
    ("domain string node", check_tree_of_trees, {(), (("a",),)}, "INVALID_ELEMENT: a"),
    ("domain float node", check_tree_of_trees, {(), ((0.5,),)}, "INVALID_ELEMENT: 0.5"),
    ("domain float node at depth 2", check_tree_of_trees, {(), ((0,),), ((0,), (0.5,))},
     "INVALID_ELEMENT: 0.5"),
    ("domain string node below a missing parent", check_tree_of_trees, {(), ((0,), ("a",))},
     "INVALID_ELEMENT: a"),
    ("domain string last entry below a missing parent", check_tree_of_trees,
     {(), ((0,),), ((1,),), ((2,), "a")}, "INVALID_ELEMENT: a"),
    ("domain float non-last entry", check_tree_of_trees, {(), ((0,),), ((0,), (0.0, 0))},
     "INVALID_ELEMENT: 0.0"),
    ("domain bool node", check_tree_of_trees, {(), ((0,),), ((0,), (False,))},
     "DOMAIN_NOT_TREE: ((0))"),
]
# domain sets with an element that is not a tuple, and domains that are not
# collections: the element, or the input, is named
CASES += [
    ("domain empty string element", check_tree_of_trees, {(), ""}, "DOMAIN_NOT_TREE: "),
    ("domain int element", check_tree_of_trees, {(), 0}, "DOMAIN_NOT_TREE: 0"),
    ("domain None element", check_tree_of_trees, {(), None}, "DOMAIN_NOT_TREE: None"),
    ("domain two string elements", check_tree_of_trees, {(), "b", "a"}, "DOMAIN_NOT_TREE: a"),
    ("domain None", check_tree_of_trees, None, "DOMAIN_NOT_TREE: None"),
    ("domain int", check_tree_of_trees, 5, "DOMAIN_NOT_TREE: 5"),
]
# a level-2 tree built without validation whose element ((0) (0)) has no
# parent: the respect walk names the missing parent, as it names a missing
# root
CASES += [
    ("respect walk below a missing parent",
     lambda t2: respects_le2(LevelLe2Tree(EMPTY_TREE, t2),
                             {(2, ()): parse_uord("u1"), (2, ((0,), (0,))): parse_uord("u2")}),
     Level2Tree((((), (EMPTY_TREE, ROOT_NODE)), (((0,), (0,)), (TWO, (0, 0, 0))))),
     "MISSING_ENTRY: ((0))"),
]
# a level-2 tree built without validation with a label that is not a pair:
# the respect walk raises what validate_level2 raises for the same entries
# (checked below), TOWER_VIOLATION at the element, or ROOT_NOT_CANONICAL
# naming a root label
CHILD = (ONE, (0, 0))
UNCHECKED_LABELS = [
    ("None label", {**ROOT, ((0,),): None}, "TOWER_VIOLATION: ((0))"),
    ("int label", {**ROOT, ((0,),): 5}, "TOWER_VIOLATION: ((0))"),
    ("triple label", {**ROOT, ((0,),): (*CHILD, 1)}, "TOWER_VIOLATION: ((0))"),
    ("None root label", {(): None, ((0,),): CHILD}, "ROOT_NOT_CANONICAL: None"),
    ("int root label", {(): 5, ((0,),): CHILD}, "ROOT_NOT_CANONICAL: 5"),
    ("triple root label", {(): (EMPTY_TREE, ROOT_NODE, 1), ((0,),): CHILD},
     "ROOT_NOT_CANONICAL: ({} (0) 1)"),
]


def _walk(entries):
    return respects_le2(LevelLe2Tree(EMPTY_TREE, Level2Tree(tuple(entries.items()))),
                        {(2, ()): parse_uord("u1"), (2, ((0,),)): parse_uord("u1")})


CASES += [(f"respect walk {name}", _walk, entries, expected)
          for name, entries, expected in UNCHECKED_LABELS]
# a tuple that is not a mapping holds no value, as an empty list does
CASES += [(f"respect walk tuple {name}", lambda t: respects_le2(Q21, t), t, "MISSING_ENTRY: 2:()")
          for name, t in (("list", []), ("None", None), ("string", "ab"), ("int", 5))]
# entries that are not pairs: the input is named as given
CASES += [
    ("level-2 entry of length 1", validate_level2, [((),)], "DOMAIN_NOT_TREE: [(())]"),
    ("level-2 string entries", validate_level2, "ab", "DOMAIN_NOT_TREE: ab"),
    ("level-2 entry of length 3", validate_level2, [(1, 2, 3)], "DOMAIN_NOT_TREE: [(1 2 3)]"),
    ("level-3 entry of length 1", validate_level3, [((0,),)], "DOMAIN_NOT_TREE: [((0))]"),
    ("level-3 string entries", validate_level3, "x", "DOMAIN_NOT_TREE: x"),
]


@pytest.mark.parametrize("call, arg, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_malformed_input_raises_the_recorded_kernel_error(call, arg, expected):
    with pytest.raises(KernelError) as e:
        call(arg)
    assert str(e.value) == expected


# entries of the wrong kind: strings, floats, bools, None, negative ints and
# lists, beside naturals so that some nodes and keys are well formed
NATURALS = st.integers(0, 2)
WRONG = st.one_of(st.text(max_size=2), st.floats(), st.booleans(), st.none(),
                  st.integers(max_value=-1), st.lists(NATURALS, max_size=2))
ENTRIES = st.one_of(NATURALS, WRONG, st.tuples(NATURALS))  # a tuple entry: bad nesting
NODES = st.one_of(st.lists(ENTRIES, max_size=3).map(tuple), WRONG)
KEYS = st.one_of(st.lists(st.one_of(NODES, NATURALS), max_size=3).map(tuple), WRONG)


@pytest.mark.parametrize("entries, expected", [c[1:] for c in UNCHECKED_LABELS],
                         ids=[c[0] for c in UNCHECKED_LABELS])
def test_the_respect_walk_raises_what_validation_raises(entries, expected):
    with pytest.raises(KernelError) as e:
        validate_level2(entries)
    assert str(e.value) == expected


def test_an_unhashable_node_is_not_addable():
    assert is_addable(ONE, [0]) is False


@pytest.mark.parametrize("tree, node", [(ONE, (0, 0.0)), (ONE, (0, False)), (EMPTY_TREE, (0.0,)),
                                        (ONE, (True,)), (TWO, (0, 1.0))])
def test_a_last_entry_that_is_not_an_int_is_not_addable(tree, node):
    # each node compares equal to the addable node of naturals it stands for
    assert is_addable(tree, tuple(map(int, node))) is True
    assert is_addable(tree, node) is False


def _returns_or_raises_a_kernel_error(call, arg):
    """call(arg) returns, or raises a KernelError whose text can be read."""
    try:
        call(arg)
    except KernelError as e:
        str(e)


@given(st.lists(NODES, max_size=5))
def test_level1_nodes_of_the_wrong_kind_raise_a_kernel_error(nodes):
    _returns_or_raises_a_kernel_error(validate_level1, nodes)


@given(st.lists(KEYS, max_size=4), st.booleans())
def test_level2_keys_of_the_wrong_kind_raise_a_kernel_error(keys, with_root):
    pairs = [*ROOT.items()] * with_root + [(k, (ONE, MINUS_ONE)) for k in keys]
    _returns_or_raises_a_kernel_error(validate_level2, pairs)


PENDING = st.one_of(NODES, st.just(MINUS_ONE))
TREES = st.one_of(st.sampled_from([EMPTY_TREE, ONE, TWO]), WRONG)
# pairs, the shape of a level-2 label, and tuples of other lengths
LABELS = st.one_of(WRONG, st.tuples(TREES, PENDING),
                   st.lists(st.one_of(TREES, PENDING), max_size=3).map(tuple))


@given(LABELS, st.booleans())
def test_level2_labels_of_the_wrong_kind_raise_a_kernel_error(label, at_root):
    entries = {(): label} if at_root else {**ROOT, ((0,),): label}
    _returns_or_raises_a_kernel_error(validate_level2, entries)


@given(PENDING)
def test_pending_nodes_of_the_wrong_kind_raise_a_kernel_error(node):
    _returns_or_raises_a_kernel_error(lambda n: validate_partial_le1(ONE, n), node)
    _returns_or_raises_a_kernel_error(lambda n: validate_partial_le2(Q0, 1, n, EMPTY_TREE), node)
    assert is_addable(ONE, node) in (False, True)


# tree arguments of another kind: collections of nodes, None, and a level-2
# tree where a level-1 or level <=2 tree belongs
SMALL_NODES = st.lists(NATURALS, min_size=1, max_size=2).map(tuple)
BASES = st.one_of(st.sets(SMALL_NODES, max_size=2), st.frozensets(SMALL_NODES, max_size=2),
                  st.lists(SMALL_NODES, max_size=2), st.none(), st.just(Q21.t2))


@given(BASES, PENDING, st.integers(0, 2))
def test_bases_of_the_wrong_kind_raise_a_kernel_error(base, node, d):
    _returns_or_raises_a_kernel_error(lambda n: validate_partial_le1(base, n), node)
    _returns_or_raises_a_kernel_error(lambda n: validate_partial_le2(base, d, n, EMPTY_TREE), node)
    assert is_addable(base, node) is False


@given(st.lists(KEYS, max_size=4))
def test_domain_elements_of_the_wrong_kind_raise_a_kernel_error(keys):
    _returns_or_raises_a_kernel_error(check_tree_of_trees, [(), *keys])


@given(st.lists(KEYS, max_size=4))
def test_shape_and_level3_keys_of_the_wrong_kind_raise_a_kernel_error(keys):
    _returns_or_raises_a_kernel_error(lambda ks: recover_tree(EMPTY_TREE, [(), *ks], {}), keys)
    _returns_or_raises_a_kernel_error(validate_level3, [(k, LABEL3) for k in keys])


# tuples of length 0 to 3 where key-label pairs belong, with keys, level-2
# and level-3 labels among their entries
ENTRY_PARTS = st.one_of(KEYS, st.just(ROOT[()]), st.just((ONE, MINUS_ONE)), st.just(LABEL3))


@given(st.lists(st.lists(ENTRY_PARTS, max_size=3).map(tuple), max_size=3))
def test_entries_that_are_not_pairs_raise_a_kernel_error(entries):
    _returns_or_raises_a_kernel_error(validate_level2, entries)
    _returns_or_raises_a_kernel_error(validate_level3, entries)
