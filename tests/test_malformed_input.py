"""Malformed input to the API's tree checks raises a KernelError, never a
bare exception, with the code and the element recorded here.  The inputs
are keys that are not domain sequences, given as a level-2 key, a level-3
key, a ``recover_tree`` shape and a degree-2 extension, and labels that
are not level-2 labels."""

import pytest

from uctk.errors import KernelError
from uctk.level1 import EMPTY_TREE, validate_level1
from uctk.level2 import (MINUS_ONE, ROOT_NODE, recover_tree, typical_trees, validate_level2,
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
]


@pytest.mark.parametrize("call, arg, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_malformed_input_raises_the_recorded_kernel_error(call, arg, expected):
    with pytest.raises(KernelError) as e:
        call(arg)
    assert str(e.value) == expected
