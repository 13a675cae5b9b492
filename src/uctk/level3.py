"""Level-3 machinery: partial level <=2 trees with their uniform cofinality
and cofinality invariants, completions, level-3 trees and towers, the
ordinal representation rep(R), and the structural side of S_3.

Ordinal tuples below delta^1_3 have no normal form in this kernel, so the
S_3 operations validate tower structure only and say so explicitly.
"""

from __future__ import annotations

from bisect import bisect

from . import bk
from .errors import (ArityError, CaseViolation, DegreeZero, EmptyKeyPresent, NotRegular,
                     TowerViolation)
from .level1 import EMPTY_TREE, Level1Tree, is_addable
from .level2 import (CONSTANT_DESC, MINUS_ONE, Level2Tree, LevelLe2Tree,
                     TreeOfTrees, as_domseq, check_tree_of_trees, child_labels,
                     description, dom_sort_key, new_key, q_set_plus, respects_degree0,
                     respects_le2)
from .ordinals import U1
from .value import ACCEPTED, Value, Verdict, format_l3, format_pl2, format_rep3


# -- partial level <= 2 trees ---------------------------------------------------

class PartialLevelLe2Tree(Value):
    """(Q, (d, q, P)): a level <=2 tree with one pending extension of
    degree 0, 1 or 2."""

    __slots__ = ("base", "d",
                 "q",  # -1, a node, or a domain sequence
                 "p")

    def __str__(self) -> str:
        return format_pl2(self)


def check_degree(d: int) -> int:
    """d, if it is the degree of a pending extension: 0, 1 or 2."""
    if d not in (0, 1, 2):
        raise CaseViolation("degree must be 0, 1 or 2", d)
    return d


def validate_partial_le2(base: LevelLe2Tree, d: int, q, p) -> PartialLevelLe2Tree:
    if check_degree(d) == 0:
        if q != MINUS_ONE or len(p):
            raise CaseViolation("degree 0 must be (0, -1, {})")
        return PartialLevelLe2Tree(base, 0, MINUS_ONE, EMPTY_TREE)
    if d == 1:
        if q in base.t1.nodes:
            raise CaseViolation("node already present", q)
        if not is_addable(base.t1, q):
            raise CaseViolation("extension is not a level-1 tree", q)
        if len(p):
            raise CaseViolation("degree 1 carries no tree component")
        return PartialLevelLe2Tree(base, 1, q, EMPTY_TREE)
    q = as_domseq(q)
    t2 = base.t2
    if q in t2 or not q:
        raise CaseViolation("sequence not a fresh extension", q)
    if q[:-1] not in t2 or not is_addable(t2.children(q[:-1]), q[-1]):
        raise CaseViolation("domain extension is not a tree of trees", q)
    parent = t2.partial(q[:-1])
    if parent.degree() == 0:
        raise CaseViolation("predecessor stage has degree 0", q)
    if p != parent.completion():
        raise CaseViolation("tree component must be the completion", q)
    return PartialLevelLe2Tree(base, 2, q, p)


def respects_partial_le2(pt: PartialLevelLe2Tree, t) -> Verdict:
    """Restriction respects the base (its verdict is passed on); the new
    entry is a natural (degree 0) or extends to a respecting tuple of some
    completion."""
    base_keys = set(pt.base.dom())
    verdict = respects_le2(pt.base, {k: v for k, v in t.items() if k in base_keys})
    if not verdict:
        return verdict
    key = (pt.d, pt.q)
    if key not in t:
        return Verdict(False, "missing-value", f"new entry of degree {pt.d}")
    if pt.d == 0:
        return respects_degree0(t[key])
    comps = completion_le2(pt)
    if any(respects_le2(comp, t) for comp in comps):
        return ACCEPTED
    return Verdict(False, "completion", f"none of {len(comps)} respected")


def ucf(pt: PartialLevelLe2Tree):
    """Uniform cofinality: (0, -1) or a regular extended Q-description.

    The five cases follow the degree, the length of the new object, and the
    set of same-tree neighbours above it.
    """
    if pt.d == 0:
        return (0, MINUS_ONE)
    if pt.d == 1:
        if len(pt.q) > 1:
            return (1, pt.q[:-1])
        return (2, CONSTANT_DESC)
    t2 = pt.base.t2
    above = q_set_plus(t2, pt.q)
    least = min(above, key=bk.bk_key)
    return (2, description(t2, least, extended=least == pt.q[:-1]))


def cf3(pt: PartialLevelLe2Tree) -> int:
    if pt.d == 0:
        return 0
    if pt.d == 1:
        if Level1Tree(pt.base.t1.nodes | {pt.q}).bk_sorted()[0] == pt.q:
            return 1
    return 2


def completion_le2(pt: PartialLevelLe2Tree):
    """All completions; degree 1 has exactly one, degree 2 one per label of
    the new stage (the -1 label first, then pending nodes in order)."""
    if pt.d == 0:
        raise DegreeZero(pt)
    if pt.d == 1:
        return [LevelLe2Tree(Level1Tree(pt.base.t1.nodes | {pt.q}), pt.base.t2)]
    entries = pt.base.t2.entries
    at = bisect(entries, dom_sort_key(pt.q), key=lambda e: dom_sort_key(e[0]))
    labels = child_labels(pt.base.t2.label(pt.q[:-1]), leaf=True)
    return [LevelLe2Tree(pt.base.t1,
                         Level2Tree(entries[:at] + ((pt.q, label),) + entries[at:]))
            for label in labels[-1:] + labels[:-1]]


# -- level-3 trees ---------------------------------------------------------------

class Level3Tree(TreeOfTrees):
    """Map from a tree of level-1 trees (without the root) to partial level
    <=2 trees, forming a partial tower of discontinuous type along every
    branch."""

    __slots__ = ()

    def tree(self, r) -> LevelLe2Tree:
        return self.label(r).base

    def node(self, r):
        lab = self.label(r)
        return (lab.d, lab.q)

    def partial(self, r) -> PartialLevelLe2Tree:
        return self.label(r)

    def __str__(self) -> str:
        return format_l3(self)


def is_regular_level3(tree: Level3Tree) -> Verdict:
    return Verdict(False, "regular", "((1)) is in the domain") if ((1,),) in tree else ACCEPTED


def validate_level3(entries) -> Level3Tree:
    """Domain a tree of level-1 trees without the empty sequence; every
    branch a partial level <=2 tower of discontinuous type."""
    items = {}
    for r, pt in dict(entries).items():
        r = as_domseq(r)
        if r == ():
            raise EmptyKeyPresent()
        items[r] = pt
    order = check_tree_of_trees(set(items) | {()})[1:]
    for r in order:
        pt = items[r]
        if len(r) == 1:
            if pt.base.cardinality() != 1:
                raise TowerViolation(r)
        else:
            parent = items[r[:-1]]
            if parent.d == 0 or pt.base not in completion_le2(parent):
                raise TowerViolation(r)
    return Level3Tree(tuple((r, items[r]) for r in order))


# -- ordinal representation -------------------------------------------------------

class Rep3Element(Value):
    """Interleaving (r(0), beta_{q_1}, r(1), ..., beta_{q_{k-1}}, r(k-1))."""

    __slots__ = ("payload",)

    def __str__(self) -> str:
        return format_rep3(self)


def make_rep3(tree: Level3Tree, r, values) -> Rep3Element:
    """Build and validate beta (+) r; ``values`` maps dom(R_tree(r)) keys,
    plus the pending key for the r++(-1) form, to their ordinals."""
    return Rep3Element(tree.point(r, values, respects_partial_le2, respects_le2))


def rep3_from_payload(tree: Level3Tree, payload) -> Rep3Element:
    """Reconstruct and validate beta (+) r from its interleaved sequence;
    the root entry is forced to u_1 and not interleaved."""
    return Rep3Element(tree.read_point(payload, {(2, ()): U1}, respects_partial_le2,
                                       respects_le2))


def rep3_compare(tree: Level3Tree, x: Rep3Element, y: Rep3Element) -> int:
    for e in (x, y):
        rep3_from_payload(tree, e.payload)
    return bk.bk(x.payload, y.payload)


# -- S3, structural part ------------------------------------------------------------

def s3_structural_member(towers, variant: str) -> Verdict:
    """Validate the regular-tower part of an S_3 (plain) or S_3^- (minus) node.

    The ordinal clause quantifies over tuples below delta^1_3, which this
    kernel does not represent; the verdict is explicit about checking
    structure only.
    """
    if variant not in ("minus", "plain"):
        raise ArityError(f"unknown variant {variant!r}: minus or plain")
    towers = tuple(towers)
    if not towers:
        return Verdict(True, "", "empty node")
    for i, t in enumerate(towers):
        if not is_regular_level3(t):
            raise NotRegular(i)
        new_key(towers, i)
    return Verdict(True, "", f"regular level-3 tower of length {len(towers)}, "
                             f"variant {variant}")
