"""Level-2 machinery: partial level <=1 trees and towers, level-2 and
level <=2 trees, Q-descriptions, the ordinal representation rep(Q) with its
Brouwer-Kleene order, respect and weak respect of ordinal tuples,
description evaluation, recovery of the unique representing tree, and S_2
membership.

Domain elements of a level-2 tree are finite sequences of nodes; -1 is the
distinguished element sitting below every node.
"""

from __future__ import annotations

from functools import partial

from . import bk
from .analysis import (PotentialTower1, potential_and_approximation, tree_embed,
                       tree_embed_sup)
from .bk import MINUS_ONE
from .errors import (ArityError, BadDescription, BadFirstEntry,
                     CaseViolation, DegreeZeroHasNoCompletion, DomainNotTree,
                     IncomparableEntries, InvalidElement, InvalidTower, KernelError,
                     LengthMismatch, MissingEntry, NoTreeFound, NotCompletionAt, NotInRep,
                     NotRespecting, RootNotCanonical, TowerViolation)
from .level1 import (EMPTY_TREE, Level1Tree, Node, addable_nodes, desc_rank,
                     enumerate_level1_up_to, is_addable, is_level1, is_regular,
                     regular_nodes, rep_compare, respects_level1,
                     validate_level1)
from .ordinals import OMEGA, ONE, U1, ZERO, CtblOrd, UOrd, as_uord
from .value import (ACCEPTED, Value, Verdict, format_desc, format_detail, format_l2,
                    format_le2, format_node, format_rep2, set_field)

ROOT_NODE: Node = (0,)
DomSeq = tuple  # tuple of nodes (each a tuple of naturals)


# -- partial level <= 1 trees and towers --------------------------------------

class PartialLevel1Tree(Value):
    """A regular tree with one addable pending node; -1 is the level-0 pending."""

    __slots__ = ("base",
                 "node")  # Node or -1

    def degree(self) -> int:
        return 0 if self.node == MINUS_ONE else 1

    def completion(self) -> Level1Tree:
        if self.node == MINUS_ONE:
            raise DegreeZeroHasNoCompletion(self)
        return Level1Tree(self.base.nodes | {self.node})

    def cardinality(self) -> int:
        return len(self.base) + 1

    def __str__(self) -> str:
        return f"({self.base}, {format_node(self.node)})"


def validate_partial_le1(base: Level1Tree, node) -> PartialLevel1Tree:
    if not isinstance(base, Level1Tree):
        raise CaseViolation("base not a level-1 tree", base)
    if not is_regular(base):
        raise CaseViolation("base not regular", base)
    if node == MINUS_ONE:
        if not len(base):
            raise CaseViolation("degree 0 needs a nonempty base")
        return PartialLevel1Tree(base, MINUS_ONE)
    try:
        present = node in base.nodes
    except TypeError:  # a node that cannot be hashed, such as a list
        present = False
    if present:
        raise CaseViolation("pending node already present", node)
    if not _is_pending(base, node):
        raise CaseViolation("completion is not a regular level-1 tree", node)
    return PartialLevel1Tree(base, node)


def _is_pending(tree: Level1Tree, node) -> bool:
    """A label's pending node over a regular tree: -1, or an addable node
    other than (1), so that the completion stays regular."""
    return node == MINUS_ONE or node != (1,) and is_addable(tree, node)


def respects_partial_le1(pt: PartialLevel1Tree, alpha) -> Verdict:
    if pt.node == MINUS_ONE:
        if MINUS_ONE not in alpha:
            return Verdict(False, "missing-value", "-1")
        return respects_degree0(alpha[MINUS_ONE]) and respects_level1(pt.base, alpha)
    return respects_level1(pt.completion(), alpha)


def respects_degree0(value) -> Verdict:
    """The value at a degree-0 pending element, -1 at level 2 and (0, -1)
    at level 3: a countable ordinal with a natural tail."""
    v = as_uord(value)
    if v.is_countable() and v.tail.is_natural():
        return ACCEPTED
    return Verdict(False, "natural", f"-1 = {v}")


class PartialTowerLe1(Value):
    __slots__ = ("entries",  # PartialLevel1Tree stages
                 "final_tree")  # completion stage of a continuous-type tower

    def is_continuous(self) -> bool:
        return self.final_tree is not None

    def compress(self):
        pvec = tuple(pt.node for pt in self.entries)
        tree = self.final_tree if self.is_continuous() else \
            (self.entries[-1].base if self.entries else EMPTY_TREE)
        return PotentialTower1(tree, pvec)


def validate_partial_tower_le1(entries, final_tree) -> PartialTowerLe1:
    """Validate a partial level <=1 tower; the trailing tree, when present,
    must complete the last stage (continuous type)."""
    entries = tuple(entries)
    if final_tree is None and not entries:
        raise BadFirstEntry("empty tower")
    if entries:
        if entries[0].cardinality() != 1:
            raise BadFirstEntry(entries[0])
        for i in range(1, len(entries)):
            if entries[i - 1].degree() == 0 or \
                    entries[i].base != entries[i - 1].completion():
                raise NotCompletionAt(i)
    if final_tree is not None:
        if entries:
            if entries[-1].degree() == 0 or final_tree != entries[-1].completion():
                raise NotCompletionAt(len(entries))
        elif len(final_tree):
            raise BadFirstEntry(final_tree)
    return PartialTowerLe1(entries, final_tree)


def expand_potential(potential) -> PartialTowerLe1:
    """Rebuild the full tower from its compressed (P_*, pvec) form: the
    tower that ``validate_partial_tower_le1`` accepts and that compresses
    back to ``potential``."""
    stages = []
    base = EMPTY_TREE
    for p in potential.pvec:
        stages.append(validate_partial_le1(base, p))
        if p != MINUS_ONE:
            base = stages[-1].completion()
    tower = validate_partial_tower_le1(
        stages, potential.tree if potential.is_continuous() else None)
    if tower.compress() != potential:
        raise NotCompletionAt(len(stages))
    return tower


# -- trees of level-1 trees ------------------------------------------------------

def as_domseq(q) -> DomSeq:
    """q, a domain sequence: a tuple of nodes.  A q that is not a tuple,
    or an entry that is not a node, such as the -1 that ends a continuous
    description, raises DomainNotTree."""
    if not isinstance(q, tuple):
        raise DomainNotTree(q)
    for n in q:
        if not isinstance(n, tuple):
            raise DomainNotTree(q)
    return q


def dom_sort_key(q):
    """The canonical order of domain sequences: by length, then
    Brouwer-Kleene."""
    return (len(q), bk.bk_key(q))


def _children_of(dom, q) -> Level1Tree:
    """The level-1 tree of indices a with q++(a) in dom."""
    return Level1Tree(frozenset(k[-1] for k in dom
                                if len(k) == len(q) + 1 and k[:len(q)] == q))


def check_tree_of_trees(dom):
    """Check that dom, a set of domain sequences with the root () among them,
    is a tree of level-1 trees and return it in canonical order.

    Raises RootNotCanonical on an empty set, DomainNotTree naming the first
    element whose predecessor is missing or whose last entry is not a node
    (such as -1), else the first whose children do not form a level-1
    tree.  The order is built by walking out from the root and appending
    each element's children in the ``bk.bk_key`` order of their last node:
    the children of the elements of one length then follow in the order of
    those elements, as ``dom_sort_key`` has them.  Only a set that fails is
    sorted by ``dom_sort_key``, in ``_check_in_sorted_order``, to name the
    first bad element.  A dom that is not a collection, or an element that
    is not a tuple, is named first, by DomainNotTree."""
    if not dom:
        return _check_in_sorted_order(dom)
    children = {}
    try:
        for q in dom:
            if q != ():
                if type(q) is not tuple or q[:-1] not in dom or type(q[-1]) is not tuple:
                    return _check_in_sorted_order(dom)
                children.setdefault(q[:-1], []).append(q)
    except TypeError:  # dom cannot be iterated
        return _check_in_sorted_order(dom)
    order = [()]
    for q in order:  # the loop reads the children it appends
        kids = children.get(q)
        if kids:
            try:
                kids.sort(key=lambda k: bk.bk_key(k[-1]))
            except IncomparableEntries:  # an entry that is not a natural
                return _check_in_sorted_order(dom)
            if not is_level1([k[-1] for k in kids]):
                return _check_in_sorted_order(dom)
            order += kids
    return order


def _check_in_sorted_order(dom):
    """``check_tree_of_trees`` on dom sorted into canonical order: the
    sort raises IncomparableEntries at an entry that is not a natural, and
    the two passes over the order name the first bad element.  The pass
    that checks predecessors gathers the children's indices.  Only a
    collection of tuples is sorted."""
    try:
        bad = [q for q in dom if type(q) is not tuple]
    except TypeError:  # not a collection, such as None or an int
        raise DomainNotTree(dom) from None
    if bad:  # named by repr, not by the set's iteration order
        raise DomainNotTree(min(bad, key=repr))
    if not dom:
        raise RootNotCanonical("missing root")
    order = sorted(dom, key=dom_sort_key)
    children = {}
    for q in order:
        if q:
            if q[:-1] not in dom or type(q[-1]) is not tuple:
                raise DomainNotTree(q)
            children.setdefault(q[:-1], []).append(q[-1])
    for q in order:
        if q in children and not is_level1(children[q]):
            raise DomainNotTree(q)
    return order


class TreeOfTrees(Value):
    """A tree of level-1 trees with a label on every element: level-2 trees
    label theirs with partial level <=1 trees, level-3 trees with partial
    level <=2 trees.  Each level reads a label through its ``tree``, ``node``
    and ``partial``.  Equality and hashing go by ``entries``, the canonically
    sorted ((key, label), ...) tuple; lookups go through a dict."""

    __slots__ = ("entries", "_labels")

    def __init__(self, entries: tuple):
        set_field(self, "entries", entries)
        set_field(self, "_labels", dict(entries))

    def dom(self):
        return [k for k, _ in self.entries]

    def __contains__(self, key) -> bool:
        return key in self._labels

    def label(self, key):
        try:
            return self._labels[key]
        except KeyError:
            raise MissingEntry(key) from None

    def cardinality(self) -> int:
        return len(self.entries)

    def children(self, key) -> Level1Tree:
        """The level-1 tree of child indices below key."""
        return _children_of(self._labels, key)

    def is_subtree_of(self, other) -> bool:
        return all(k in other and other.label(k) == v for k, v in self.entries)

    def point(self, q, values, respects_partial, respects_tree) -> tuple:
        """The representation point values (+) q: each entry of q written
        after the value at ``node`` of that entry's prefix, when the prefix
        is in the domain.  A level-2 tree holds the root, a level-3 tree does
        not.  InvalidElement(q) unless q, less a trailing -1, is in the
        domain and the values respect the partial label there (q ends in -1)
        or the tree at q."""
        continuous = bool(q) and q[-1] == MINUS_ONE
        base = q[:-1] if continuous else q
        if base not in self:
            raise InvalidElement(q)
        if not (respects_partial(self.partial(base), values) if continuous
                else respects_tree(self.tree(q), values)):
            raise InvalidElement(q)
        out = []
        for i, entry in enumerate(q):
            if q[:i] in self:
                out.append(values[self.node(q[:i])])
            out.append(entry)
        return tuple(out)

    def read_point(self, payload, forced, respects_partial, respects_tree) -> tuple:
        """The point ``payload`` spells, built again by ``point`` with the
        ``forced`` values the layout leaves out; InvalidElement unless the
        payload has the layout's parity, q less a trailing -1 is in the
        domain, and ``point`` gives the payload back."""
        start = int(() in self)
        if len(payload) % 2 == start:
            raise InvalidElement(list(payload))
        q = tuple(payload[start::2])
        base = q[:-1] if q and q[-1] == MINUS_ONE else q
        if base not in self:
            raise InvalidElement(list(payload))
        values = {self.node(q[:i]): payload[start + 2 * i - 1]
                  for i in range(len(q)) if q[:i] in self}
        point = self.point(q, {**forced, **values}, respects_partial, respects_tree)
        if point != tuple(payload):
            raise InvalidElement(list(payload))
        return point

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self}>"


class Level2Tree(TreeOfTrees):
    """Map from a tree of level-1 trees to partial level <=1 trees, forming a
    partial tower of discontinuous type along every branch."""

    __slots__ = ()

    def tree(self, q) -> Level1Tree:
        return self.label(q)[0]

    def node(self, q):
        return self.label(q)[1]

    def partial(self, q) -> PartialLevel1Tree:
        return PartialLevel1Tree(*self.label(q))

    def __str__(self) -> str:
        return format_l2(self)


def child_labels(parent, leaf: bool):
    """The labels a child of an element labelled ``parent`` = (P, p) may
    take, in order: (P+, a) for each a in ``regular_nodes`` of P+, P grown by
    its addable p, then (P+, -1) at a leaf.  None under a degree-0 parent."""
    tree, node = parent
    if node == MINUS_ONE:
        return []
    completion = Level1Tree(tree.nodes | {node})
    out = [(completion, a) for a in regular_nodes(completion)]
    if leaf:
        out.append((completion, MINUS_ONE))
    return out


def is_child_label(parent, label) -> bool:
    """Whether ``label`` is one of ``child_labels(parent, True)``, decided
    without listing them: the parent has degree 1, the label's tree is the
    parent's tree grown by the parent's node, and the label's node is
    ``_is_pending`` over that tree.  The parent's node is -1 or addable to
    its tree, as in every level-2 label, so the grown tree is closed.  A
    label that is not a pair is not a child label."""
    tree, node = parent
    if node == MINUS_ONE:
        return False
    try:
        label_tree, label_node = label
    except (TypeError, ValueError):  # not a pair, such as None or a triple
        return False
    return label_tree == Level1Tree(tree.nodes | {node}) and _is_pending(label_tree, label_node)


def validate_level2(entries) -> Level2Tree:
    """Check a level-2 tree given as a dict or pairs from domain sequences
    (tuples of int tuples) to (Level1Tree, node or -1) labels.  A key that
    is not a tuple or ends in -1 raises DomainNotTree first, in listing
    order; then the root must be labelled ({}, (0)), the keys must form a
    tree of level-1 trees, and each other label must be one of the
    ``child_labels`` of its parent's, decided by ``is_child_label``, else
    TowerViolation at it."""
    try:
        items = dict(entries)
    except (TypeError, ValueError):  # an unhashable key, or an entry that is not a pair
        raise DomainNotTree(entries) from None
    for q in items:
        if type(q) is not tuple or q and q[-1] == MINUS_ONE:
            raise DomainNotTree(q)
    if () not in items:
        raise RootNotCanonical("missing root")
    root = items[()]
    if root != (EMPTY_TREE, ROOT_NODE):
        try:
            tree, node = root
        except (TypeError, ValueError):  # not a pair, such as None or a triple
            raise RootNotCanonical(root) from None
        # a pair is named as a partial tree when its node prints as one
        named = node == MINUS_ONE or hasattr(node, "__iter__")
        raise RootNotCanonical(PartialLevel1Tree(tree, node) if named else root)
    order = check_tree_of_trees(items)
    for q in order[1:]:
        if not is_child_label(items[q[:-1]], items[q]):
            raise TowerViolation(q)
    return Level2Tree(tuple((q, items[q]) for q in order))


class LevelLe2Tree(Value):
    __slots__ = ("t1", "t2")

    def cardinality(self) -> int:
        return len(self.t1) + self.t2.cardinality()

    def dom(self):
        """Canonical order: level-1 nodes by Brouwer-Kleene, then level-2
        domain sequences by length, then Brouwer-Kleene."""
        out = [(1, p) for p in self.t1.bk_sorted()]
        out += [(2, q) for q in self.t2.dom()]
        return out

    def __str__(self) -> str:
        return format_le2(self)

    def __repr__(self) -> str:
        return f"LevelLe2Tree<{self}>"


CARD1_L2 = validate_level2({(): (EMPTY_TREE, ROOT_NODE)})


def typical_trees():
    """The four typical level <=2 trees Q^0, Q^1, Q^20, Q^21."""
    q0 = LevelLe2Tree(EMPTY_TREE, CARD1_L2)
    q1 = LevelLe2Tree(validate_level1({(0,)}), CARD1_L2)
    root = {(): (EMPTY_TREE, ROOT_NODE)}
    one = validate_level1({(0,)})
    q20 = LevelLe2Tree(EMPTY_TREE, validate_level2({**root, ((0,),): (one, MINUS_ONE)}))
    q21 = LevelLe2Tree(EMPTY_TREE, validate_level2({**root, ((0,),): (one, (0, 0))}))
    return q0, q1, q20, q21


# -- descriptions ---------------------------------------------------------------

class QDescription(Value):
    """(q, P, pvec); continuous iff q ends in -1, extended iff the tree is
    the completion rather than the tree at q."""

    __slots__ = ("q", "tree", "pvec", "extended")

    def is_continuous(self) -> bool:
        return bool(self.q) and self.q[-1] == MINUS_ONE

    def __str__(self) -> str:
        return format_desc(self)


CONSTANT_DESC = QDescription((), EMPTY_TREE, (ROOT_NODE,), False)


def q_potential(t2: Level2Tree, q: DomSeq):
    """Q[q] for q in dom, or Q[q++(-1)] for q of continuous type."""
    continuous = bool(q) and q[-1] == MINUS_ONE
    base = q[:-1] if continuous else q
    pvec = tuple(t2.node(base[:l]) for l in range(len(base) + 1))
    tree = t2.partial(base).completion() if continuous else t2.tree(q)
    return PotentialTower1(tree, pvec)


def dom_star(t2: Level2Tree):
    out = list(t2.dom())
    for q in t2.dom():
        out.append(q + (MINUS_ONE,))
    return sorted(out, key=dom_sort_key)


def q_set_plus(t2: Level2Tree, q: DomSeq):
    """Q{q,+}: the predecessor plus the same-tree siblings whose index lies
    Brouwer-Kleene above the last entry of q."""
    out = [q[:-1]]
    for a in t2.children(q[:-1]).nodes:
        if bk.bk(a, q[-1]) > 0:
            out.append(q[:-1] + (a,))
    return out


def q_set_minus(t2: Level2Tree, q: DomSeq):
    """Q{q,-}: the predecessor's -1 extension plus the same-tree siblings
    below the last entry of q."""
    out = [q[:-1] + (MINUS_ONE,)]
    for a in t2.children(q[:-1]).nodes:
        if bk.bk(a, q[-1]) < 0:
            out.append(q[:-1] + (a,))
    return out


def description(t2: Level2Tree, q: DomSeq, extended: bool) -> QDescription:
    """The Q-description at q, continuous when q ends in -1; ``extended``
    gives the continuous one at q++(-1) with the -1 dropped."""
    pot = q_potential(t2, q + (MINUS_ONE,) if extended else q)
    return QDescription(q, pot.tree, pot.pvec, extended)


def q_descriptions(le2: LevelLe2Tree):
    """All descriptions (d, ...): the level-1 nodes and, on the level-2 side,
    one description per starred domain element that has one."""
    out = [(1, p) for p in le2.t1.bk_sorted()]
    for q in dom_star(le2.t2):
        if q and q[-1] == MINUS_ONE and le2.t2.node(q[:-1]) == MINUS_ONE:
            continue  # a degree-0 stage has no completion, hence no description
        out.append((2, description(le2.t2, q, extended=False)))
    return out


def extended_descriptions(le2: LevelLe2Tree):
    """desc* adds, for each continuous description, its form with the -1
    dropped: same tree and vector over the completion."""
    out = q_descriptions(le2)
    out += [(2, description(le2.t2, desc.q[:-1], extended=True))
            for d, desc in out if d == 2 and desc.is_continuous()]
    return out


def is_regular_description(item) -> bool:
    """Regular: discontinuous members of desc(Q), and the extended forms."""
    d, desc = item
    if d == 1:
        return True
    if desc.extended:
        return True
    return not desc.is_continuous()


# -- ordinal representation -----------------------------------------------------

class Rep2Element(Value):
    """(1, rep point of the level-1 part) or (2, alpha interleaved with q)."""

    __slots__ = ("side",
                 "payload")  # side 1: Rep1Element sequence; side 2: interleaving

    def __str__(self) -> str:
        return format_rep2(self)


def make_rep2(le2: LevelLe2Tree, q: DomSeq, alphas) -> Rep2Element:
    """Build and validate the level-2 representation point alpha (+) q.

    ``alphas`` assigns countable ordinals to the nodes of the tree at q (and
    to the pending node, or -1, for the q++(-1) form)."""
    return Rep2Element(2, le2.t2.point(q, alphas, respects_partial_le1, respects_level1))


def rep2_from_payload(le2: LevelLe2Tree, payload) -> Rep2Element:
    """Reconstruct and validate a level-2 representation point from its
    interleaved sequence."""
    return Rep2Element(2, le2.t2.read_point(payload, {}, respects_partial_le1,
                                            respects_level1))


def rep2_compare(le2: LevelLe2Tree, x: Rep2Element, y: Rep2Element) -> int:
    """The level-1 part sits below the level-2 part; within a part the order
    is Brouwer-Kleene on the validated sequences.  A level-1 point with a
    negative index is NOT_IN_REP, as in level1.rep_compare, whichever side
    the other point is on."""
    for e in (x, y):
        if e.side == 1:
            if e.payload.node not in le2.t1.nodes:
                raise InvalidElement(e.payload, "level-1 node outside the tree")
            if e.payload.index is not None and e.payload.index < 0:
                raise NotInRep(e.payload)
        elif e.side == 2:
            rep2_from_payload(le2, e.payload)
        else:
            raise InvalidElement(e)
    if x.side != y.side:
        return -1 if x.side < y.side else 1
    if x.side == 1:
        return rep_compare(le2.t1, x.payload, y.payload)
    return bk.bk(x.payload, y.payload)


# -- respect ---------------------------------------------------------------------

def _entry(t, key):
    """The value at ``key`` in the tuple t, as a ``UOrd``, read with one
    lookup; MissingEntry when t holds no such key or cannot be indexed."""
    try:
        v = t[key]
    except (KeyError, TypeError):
        raise MissingEntry(key) from None
    return v if type(v) is UOrd else as_uord(v)


def _passing_node(b: UOrd, tree: Level1Tree, m: int, parent, parent_val: UOrd):
    """The node at q when b, the value at a non-root q of length m labelled
    with tree, passes clause (2) given that q's parent passed it, else None;
    ``parent`` and ``parent_val`` are the parent's label and value.

    Proof.  ``potential_and_approximation`` gives b = u_k0*c_0 + ... +
    tail, with j u-terms, the approximation sequence u_1, A_1, ..., A_{j-1},
    b', where A_i = u_i*c_0 + ... + u_2*c_{i-2} + u_1*(c_{i-1}+1) and b'
    puts c_0, ..., c_{j-1} on the levels j, ..., 1 over b's tail.  The
    parent passed, so the path before b is the parent's approximation
    sequence, which ends in its value.  The two agree iff b's levels are m,
    ..., 1 (so b' = b) and, for m >= 2, the parent's value is A_{m-1}: its
    coefficients are then c_0, ..., c_{m-3}, c_{m-2}+1, which give A_1, ...,
    A_{m-2} again.  The potential tower is then the chain of m nodes with
    the vector (0), ..., (0)^m and, unless b is continuous (zero tail, last
    coefficient 1), one node more: -1 at cofinality omega, (0)^{m+1} at
    u_1.  Each element that passed compared its parent's node with the
    chain, so the parent's vector is (0), ..., (0)^{m-1} and then its node,
    and the branch's vector agrees iff b is not continuous, the parent's
    node is (0)^m and q's node is the one returned.  The tree at q must
    then be the chain (0), ..., (0)^m: a tree of m nodes is that chain iff it
    holds the parent's node and, for m >= 2, the parent's tree, the chain of
    m - 1 nodes since the parent passed (the root's tree is not read).  Such
    a b is an uncountable limit of level m, so the analysis raises nothing.

    The walk unpacks every label it is given before its children's, so a
    parent label that is not a pair is the root's: RootNotCanonical, as in
    ``validate_level2``."""
    try:
        parent_tree, parent_node = parent
    except (TypeError, ValueError):  # not a pair, such as None or a triple
        raise RootNotCanonical(parent) from None
    terms, head = b.uterms, parent_val.uterms
    if len(terms) != m or len(tree) != m or parent_node != (0,) * m or \
            parent_node not in tree.nodes or m > 1 and not tree.nodes >= parent_tree.nodes:
        return None
    for i, (k, c) in enumerate(terms):
        if k != m - i or i < m - 2 and head[i][1] != c:
            return None
    if m > 1 and (parent_val.tail != ZERO or head[-1][1] != terms[-2][1] + ONE):
        return None
    if b.tail.terms:
        return MINUS_ONE if b.tail.is_limit() else None
    last = terms[-1][1]
    if last == ONE:
        return None
    return MINUS_ONE if last.is_limit() else (0,) * (m + 1)


def respects_le2(le2: LevelLe2Tree, t) -> Verdict:
    """The executable respect criterion.

    (1) the level-1 part respects the level-1 tree; (2) each stored level-2
    value has potential tower Q[q] and approximation sequence the branch
    values, the root value being u_1; (3) sibling values follow the
    Brouwer-Kleene order of their indices.  Clause (2) is accepted at each
    element by one rule, ``_passing_node``, from its parent's label and
    value.  The rejection ``Verdict`` is built only on a rejection, and the
    analysis runs only in ``_rejection``, to write it.
    """
    fail = _respects(le2.t1, le2.t2.dom(), t, le2.t2._labels)
    return ACCEPTED if fail is None else fail()


def _respects(t1: Level1Tree, order, t, labels):
    """``respects_le2`` on the level-1 tree t1 and the level-2 elements in
    canonical ``order`` labelled by ``labels``: None when the tuple t
    respects the tree, else a zero-argument callable that builds the
    rejection ``Verdict``.  The walk stops at the failure, so everything
    the callable reads is fixed; a caller that only tests the outcome
    builds no rejection.  An element with no label gets, in ``labels``,
    the one clause (2) fixes: its parent's tree grown by its parent's node,
    and the node ``_passing_node`` returns, which must not be -1 at an
    inner element.  A label given is never replaced.  A given label that
    is not a pair raises the error ``validate_level2`` gives for it.

    Canonical order puts every parent before its children, so the walk
    keeps one value per element and decides clause (2) at each by
    ``_passing_node``, which reads the parent's label and value.  At the
    first element that fails it, ``_rejection`` writes the verdict."""
    t1_vals = {p: _entry(t, (1, p)) for p in t1.nodes}
    v = respects_level1(t1, t1_vals)
    if not v:
        return lambda: Verdict(False, "level1-part", f"{v.clause}: {v.detail}")
    root = _entry(t, (2, ()))
    if root.compare(U1) != 0:
        return lambda: Verdict(False, "root-value", str(root))
    if () not in labels:  # a Level2Tree built without its root
        raise MissingEntry(())
    values = {(): root}
    inner = {q[:-1] for q in order if q}
    for q in order:
        if not q:
            continue
        up = q[:-1]
        val = values[q] = _entry(t, (2, q))  # a missing value raises here, before its analysis
        try:
            parent = labels[up]
        except KeyError:  # a Level2Tree built without q's parent
            raise MissingEntry(up) from None
        given = q in labels
        if given:
            try:
                tree, node = labels[q]
            except (TypeError, ValueError):  # not a pair, such as None or a triple
                raise TowerViolation(q) from None
        else:
            tree = Level1Tree(parent[0].nodes | {parent[1]})
        passing = _passing_node(val, tree, len(q), parent, values[up])
        if passing is None or (passing != node if given else passing == MINUS_ONE and q in inner):
            # a partial: a lambda would make the five names cells of the whole walk
            return partial(_rejection, q, tree, labels, values, inner)
        if not given:
            labels[q] = (tree, passing)
    # canonical order lists the children of each q together, in the
    # Brouwer-Kleene order of their last entries, and in the order of their q
    last = {}
    for q, val in values.items():
        if q:
            up = q[:-1]
            prev = last.get(up)
            if prev is not None and prev.compare(val) >= 0:
                return lambda: Verdict(False, f"sibling-order{format_detail(up)}", "")
            last[up] = val
    return None


def _rejection(q, tree, labels, values, inner) -> Verdict:
    """The rejection at q, the first element whose value fails clause (2),
    labelled with tree: the analysis of the value, its potential tower
    against the branch's vector (the nodes in ``labels``, and at q with no
    label the analysis's last node, which must be ``_is_pending`` and -1
    only at a leaf) and its approximation sequence against the branch's
    values.  ``_passing_node``'s proof shows that one of them differs."""
    try:
        potential, approx = potential_and_approximation(values[q], tree)
    except KernelError as e:
        return Verdict(False, f"potential-tower{format_detail(q)}", e.code)
    if q in labels:
        node = labels[q][1]
    else:
        node = potential.pvec[-1]
        if not _is_pending(tree, node) or node == MINUS_ONE and q in inner:
            return Verdict(False, f"pending-node{format_detail(q)}", format_node(node))
    pvec = tuple(labels[q[:i]][1] for i in range(len(q))) + (node,)
    if potential.pvec != pvec or potential.tree != tree:
        return Verdict(False, f"potential-tower{format_detail(q)}",
                       f"{potential} != {PotentialTower1(tree, pvec)}")
    path = tuple(values[q[:i]] for i in range(len(q) + 1))
    got, want = (", ".join(map(str, vs)) for vs in (approx, path))
    return Verdict(False, f"approximation{format_detail(q)}", f"[{got}] != [{want}]")


def weakly_respects_le2(le2: LevelLe2Tree, t) -> Verdict:
    """beta_empty = u_1 and each level-2 value sits below the embedded image
    of its predecessor."""
    branch = {(): _entry(t, (2, ()))}
    if branch[()].compare(U1) != 0:
        return Verdict(False, "root-value", str(branch[()]))
    t2 = le2.t2
    for q in t2.dom():
        if not q:
            continue
        try:
            bound = tree_embed(t2.tree(q[:-1]), t2.tree(q), branch[q[:-1]])
        except KernelError as e:
            return Verdict(False, f"embed{format_detail(q)}", e.code)
        val = branch[q] = _entry(t, (2, q))
        if val.compare(bound) >= 0:
            return Verdict(False, f"bound{format_detail(q)}", f"{val} >= {bound}")
    return ACCEPTED


# -- description evaluation ------------------------------------------------------

def evaluate_description(le2: LevelLe2Tree, t, item, check: bool) -> UOrd:
    """Value of a description under a respecting tuple.

    A level-2 description must be the one ``description`` builds at its q.
    Discontinuous descriptions are direct lookups; extended ones embed into
    the completion; continuous ones take the sup-embedding of the
    predecessor value.
    """
    if check and not respects_le2(le2, t):
        raise NotRespecting(le2)
    d, desc = item
    if d == 1:
        if desc not in le2.t1.nodes:
            raise BadDescription(item)
        return _entry(t, (1, desc))
    t2 = le2.t2
    try:
        expected = description(t2, desc.q, desc.extended)
    except KernelError:
        raise BadDescription(item) from None
    if desc != expected:
        raise BadDescription(item)
    if not (desc.extended or desc.is_continuous()):
        return _entry(t, (2, desc.q))
    q = desc.q if desc.extended else desc.q[:-1]
    embed = tree_embed if desc.extended else tree_embed_sup
    return embed(t2.tree(q), desc.tree, _entry(t, (2, q)))


# -- enumeration and recovery -----------------------------------------------------

def enumerate_dom_shapes(max_nodes: int):
    """Trees of level-1 trees (as sets of domain sequences including the
    root) with at most ``max_nodes`` elements."""
    shapes = [frozenset({()})]
    frontier = [frozenset({()})]
    for _ in range(max_nodes - 1):
        nxt = set()
        for shape in frontier:
            for q in shape:
                for a in addable_nodes(_children_of(shape, q)):
                    nxt.add(shape | {q + (a,)})
        frontier = sorted(nxt, key=lambda s: sorted(map(dom_sort_key, s)))
        shapes.extend(frontier)
    return shapes


def enumerate_level2_with_dom(shape):
    """All level-2 trees over a fixed domain shape, canonically ordered;
    each label is one of its parent's ``child_labels``, so none needs
    validating."""
    dom = check_tree_of_trees(shape)
    inner = {q[:-1] for q in dom if q}

    def build(i, assigned):
        if i == len(dom):
            yield Level2Tree(tuple((q, assigned[q]) for q in dom))
            return
        q = dom[i]
        for label in child_labels(assigned[q[:-1]], q not in inner):
            yield from build(i + 1, {**assigned, q: label})

    yield from build(1, {(): (EMPTY_TREE, ROOT_NODE)})


def enumerate_le2_trees(max_dom: int):
    """All level <=2 trees with at most ``max_dom`` domain elements: by
    the shape of the level-2 part, then its labels, then the level-1 part by
    size."""
    level1_trees = enumerate_level1_up_to(max_dom - 1, regular_only=False)
    out = []
    for shape in enumerate_dom_shapes(max_dom):
        t1s = [t1 for t1 in level1_trees if len(t1) <= max_dom - len(shape)]
        for t2 in enumerate_level2_with_dom(shape):
            out += [LevelLe2Tree(t1, t2) for t1 in t1s]
    return out


def recover_tree(t1: Level1Tree, dom_shape, t) -> LevelLe2Tree:
    """Read the representing level <=2 tree off the tuple: ``_respects``,
    given only the root's label (empty tree, (0)), reads every other label
    off its value as it checks it, and stops at the first element that
    fails.  The outcome, a tree or an error, is the one a search over every
    labelling gives, the independent oracle in ``lemmas``.  Every label read
    is one ``is_child_label`` allows, so the tree is not validated.  A miss
    raises NoTreeFound without building the walk's rejection, so it
    analyses no value and formats no text.
    """
    try:
        dom = frozenset(as_domseq(q) for q in dom_shape)
    except TypeError:  # a key that cannot be hashed, such as a tuple holding a list
        raise DomainNotTree(dom_shape) from None
    order = check_tree_of_trees(dom)
    labels = {(): (EMPTY_TREE, ROOT_NODE)}
    if _respects(t1, order, t, labels) is not None:
        raise NoTreeFound()
    return LevelLe2Tree(t1, Level2Tree(tuple((q, labels[q]) for q in order)))


# -- respecting tuple generation ----------------------------------------------------

def generate_respecting_tuple(le2: LevelLe2Tree):
    """A respecting tuple for the tree, or None when no ordinal in the
    additive fragment can realize some branch.

    Fragment ordinals always induce chain-shaped potential towers, so a
    pending node off the chain has no additive witness.  For realizable
    trees the branch values are forced up to coefficients: the parent value
    must reappear as the child's next approximation, which pins the child's
    inherited coefficients; the fresh lowest coefficient orders siblings.
    """
    t2 = le2.t2
    values = {(2, ()): U1}
    coeffs = {(): ()}
    for q in t2.dom():
        if not q:
            continue
        n = len(q)
        if t2.tree(q).nodes != frozenset((0,) * j for j in range(1, n + 1)):
            return None
        if t2.node(q) not in (MINUS_ONE, (0,) * (n + 1)):
            return None
        rank = desc_rank(t2.children(q[:-1]), q[-1])
        parent = coeffs[q[:-1]]
        head = parent[:-1] + (CtblOrd.natural(parent[-1].natural_value() - 1),) if parent else ()
        coeffs[q] = head + (CtblOrd.natural(3 * rank + 2),)
        uterms = tuple((n - l, c) for l, c in enumerate(coeffs[q]))
        tail = OMEGA if t2.node(q) == MINUS_ONE else CtblOrd.natural(0)
        values[(2, q)] = UOrd(uterms, tail)
    for i, p in enumerate(le2.t1.bk_sorted()):
        values[(1, p)] = UOrd.from_ctbl(OMEGA * CtblOrd.natural(i + 1))
    return values


# -- S2 ------------------------------------------------------------------------------

def new_key(towers, i):
    """The one domain element that stage i of a tower of trees adds: stage
    i has i+1 elements and extends stage i-1, else InvalidTower at i."""
    tree = towers[i]
    if tree.cardinality() != i + 1:
        raise InvalidTower("CARDINALITY_MISMATCH", i)
    if i and not towers[i - 1].is_subtree_of(tree):
        raise InvalidTower(i)
    return next(k for k, _ in tree.entries if not i or k not in towers[i - 1])


def s2_member(towers, alphas, variant: str) -> Verdict:
    """Membership of a level-2 tower node in S_2^- (respects) or S_2 (weak).

    Each new domain element receives the ordinal arriving with its tree; the
    assembled tuple must (weakly) respect the last tree.
    """
    towers = tuple(towers)
    alphas = tuple(alphas)
    if variant not in ("respects", "weak"):
        raise ArityError(f"unknown variant {variant!r}: respects or weak")
    if len(towers) != len(alphas):
        raise LengthMismatch(len(towers), len(alphas))
    if not towers:
        return ACCEPTED
    t = {(2, new_key(towers, i)): a for i, a in enumerate(alphas)}
    last = LevelLe2Tree(EMPTY_TREE, towers[-1])
    check = respects_le2 if variant == "respects" else weakly_respects_le2
    return check(last, t)
