"""Level-1 trees of uniform cofinalities.

A level-1 tree is a finite set of nonempty finite sequences of naturals,
closed under predecessors and under lowering the last entry.  Its ordinal
representation puts an omega-block below each node, ordered by
Brouwer-Kleene; descriptions are the nodes plus the constant description
(the empty sequence), which is the top.
"""

from __future__ import annotations

import functools
import itertools

from . import bk
from .errors import (CardinalityMismatch, ClosureViolation, ContainsEmpty,
                     InvalidElement, InvalidTower, LengthMismatch, NotADescription,
                     NotAFactoring, NotInRep, NotRegular, NotSubtree)
from .ordinals import ONE, OMEGA, ZERO, CtblOrd, UOrd, as_uord
from .value import (ACCEPTED, Value, Verdict, format_detail, format_l1, format_node,
                    format_rep1, set_field)

Node = tuple  # tuple of naturals

EMPTY_DESC: Node = ()  # the constant description


class Level1Tree(Value):
    __slots__ = ("nodes",)

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def bk_sorted(self) -> tuple:
        """The nodes in Brouwer-Kleene order, from the cache that
        ``descriptions`` and ``desc_rank`` read."""
        return _bk_order(self.nodes)[0]

    def is_subtree_of(self, other: "Level1Tree") -> bool:
        return self.nodes <= other.nodes

    def __str__(self) -> str:
        return format_l1(self)

    def __repr__(self) -> str:
        return f"Level1Tree<{self}>"


EMPTY_TREE = Level1Tree(frozenset())


def validate_level1(nodes) -> Level1Tree:
    """Check both tree clauses on a collection of int tuples; raises naming
    the first violating node, and InvalidElement at a node that is not a
    tuple of naturals.  The set is closed when each node's parent and left
    sibling are in it, which one lookup each decides; only a set that is
    not closed is sorted, to name the first violating node.  Only each
    node's last entry is checked for its type, so a non-last entry that is
    not an int but equals a natural, such as 0.0 or False, passes when the
    node it equals is present: {(0), (0.0 0)} is accepted."""
    try:
        nodes = frozenset(nodes)
    except TypeError:  # a node that cannot be hashed, such as a list
        raise InvalidElement(nodes) from None
    if () in nodes:
        raise ContainsEmpty()
    for node in nodes:
        if type(node) is not tuple or type(node[-1]) is not int or node[-1] < 0:
            raise InvalidElement(node)
        parent, last = node[:-1], node[-1]
        if (parent and parent not in nodes) or (last > 0 and parent + (last - 1,) not in nodes):
            _raise_first_violation(nodes)
    return Level1Tree(nodes)


def _raise_first_violation(nodes: frozenset):
    """InvalidElement at a node with an entry that is not a natural, else
    ClosureViolation at the least node, in sorted order, that misses its
    parent or a left sibling, naming the first node it misses."""
    for node in nodes:
        if type(node) is not tuple or any(type(i) is not int or i < 0 for i in node):
            raise InvalidElement(node)
    for node in sorted(nodes):
        if len(node) > 1 and node[:-1] not in nodes:
            raise ClosureViolation(node, node[:-1])
        for j in range(node[-1]):
            if node[:-1] + (j,) not in nodes:
                raise ClosureViolation(node, node[:-1] + (j,))


def is_level1(nodes) -> bool:
    """Whether ``nodes`` form a level-1 tree."""
    try:
        validate_level1(nodes)
        return True
    except (ContainsEmpty, ClosureViolation, InvalidElement):
        return False


def is_regular(tree: Level1Tree) -> Verdict:
    return Verdict(False, "regular", "(1) is a node") if (1,) in tree.nodes else ACCEPTED


def addable_nodes(tree: Level1Tree):
    """The canonical gap realizers: one addable child per node (and the root).

    p++(j) is addable iff j = 0 or p++(j-1) is present; exactly one such j is
    new per parent, and inserting it makes the new node the immediate
    Brouwer-Kleene predecessor of its parent.
    """
    out = []
    for parent in [EMPTY_DESC, *tree.nodes]:
        j = 0
        while parent + (j,) in tree.nodes:
            j += 1
        out.append(parent + (j,))
    return sorted(out)


def is_addable(tree: Level1Tree, node: Node) -> bool:
    """Whether ``node`` is one of ``addable_nodes(tree)``, decided without
    listing them: a new node whose parent (or the root) and left sibling,
    if it has one, are in the tree.  In a closed tree the left sibling
    stands for every lower one.  A node that cannot be hashed, such as a
    list, is not addable, nor is one whose last entry is not an int, such
    as 0.0 or False, which compare equal to naturals, nor any node of a
    tree that is not a Level1Tree."""
    try:
        nodes = tree.nodes
        if not node or node in nodes:
            return False
        parent, last = node[:-1], node[-1]
        return type(last) is int and (not parent or parent in nodes) and \
            (last == 0 or parent + (last - 1,) in nodes)
    except (TypeError, AttributeError):  # a node or a tree of another kind
        return False


def regular_nodes(tree: Level1Tree):
    """The addable nodes that keep a regular tree regular: all but (1)."""
    return [a for a in addable_nodes(tree) if a != (1,)]


def enumerate_level1(size: int, regular_only: bool):
    """All level-1 trees with exactly ``size`` nodes, deterministically."""
    layer = {frozenset()}
    for _ in range(size):
        nxt = set()
        for nodes in layer:
            tree = Level1Tree(nodes)
            for a in regular_nodes(tree) if regular_only else addable_nodes(tree):
                nxt.add(nodes | {a})
        layer = nxt
    return sorted((Level1Tree(n) for n in layer), key=lambda t: sorted(t.nodes))


def enumerate_level1_up_to(max_size: int, regular_only: bool):
    out = []
    for size in range(max_size + 1):
        out.extend(enumerate_level1(size, regular_only))
    return out


# -- ordinal representation --------------------------------------------------

class Rep1Element(Value):
    """(p) or (p, n) for p in P; (p) is the sup of its omega-block."""

    __slots__ = ("node",
                 "index")  # None for the block sup (p)

    def as_seq(self):
        return (self.node,) if self.index is None else (self.node, self.index)

    def __str__(self) -> str:
        return format_rep1(self)


def rep_compare(tree: Level1Tree, x: Rep1Element, y: Rep1Element) -> int:
    for e in (x, y):
        if e.node not in tree.nodes:
            raise NotInRep(e)
        if e.index is not None and e.index < 0:
            raise NotInRep(e)
    return bk.bk(x.as_seq(), y.as_seq())


def rep_order_type(tree: Level1Tree) -> CtblOrd:
    """Order type of the representation: omega * card + 1 on nonempty trees."""
    if not tree.nodes:
        return ZERO
    return OMEGA * CtblOrd.natural(len(tree.nodes)) + ONE


# -- descriptions, seeds, factoring ------------------------------------------

@functools.lru_cache(maxsize=1024)
def _bk_order(nodes: frozenset):
    """A node set in Brouwer-Kleene order, and the rank of each description
    with the constant one last.  Cached by node set, not per tree, so equal
    trees share one entry."""
    order = tuple(bk.bk_sorted(nodes))
    return order, {d: i for i, d in enumerate((*order, EMPTY_DESC))}


def descriptions(tree: Level1Tree):
    """desc(P) = P plus the constant description, in increasing order."""
    return [*tree.bk_sorted(), EMPTY_DESC]


def desc_rank(tree: Level1Tree, d: Node) -> int:
    try:
        return _bk_order(tree.nodes)[1][d]
    except (KeyError, TypeError):  # TypeError: an unhashable d, such as a list
        raise NotADescription(d, tree) from None


def seed(tree: Level1Tree, d: Node) -> UOrd:
    """seed of a description: u_{rank+1}; the constant gives u_{card+1}."""
    return UOrd.u(desc_rank(tree, d) + 1, ONE)


class FactorMap1(Value):
    """Order preserving map of descriptions fixing the constant."""

    __slots__ = ("source", "target", "mapping", "_images")

    def __init__(self, source: Level1Tree, target: Level1Tree, mapping: tuple):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "mapping", mapping)  # ((p, sigma(p)), ...) over source nodes, bk-sorted
        set_field(self, "_images", dict(mapping))

    def __call__(self, d: Node) -> Node:
        if d == EMPTY_DESC:
            return EMPTY_DESC
        try:
            return self._images[d]
        except KeyError:
            raise NotADescription(d, self.source) from None

    def image(self):
        return [w for _, w in self.mapping]

    def __str__(self) -> str:
        body = ", ".join(f"{format_node(p)}->{format_node(w)}" for p, w in self.mapping)
        return "{" + body + "}"


def check_factor_map(fm: FactorMap1) -> list:
    """Raise NotAFactoring unless every image is a node of the target and
    the images' ranks there strictly increase in listing order; returns
    those ranks, one per entry of ``fm.mapping``."""
    img = fm.image()
    if not all(w in fm.target.nodes for w in img):
        raise NotAFactoring(fm)
    ranks = [desc_rank(fm.target, w) for w in img]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise NotAFactoring(fm)
    return ranks


def factorings(source: Level1Tree, target: Level1Tree):
    """All maps factoring the pair, lexicographic in their images."""
    src = source.bk_sorted()
    out = []
    for combo in itertools.combinations(target.bk_sorted(), len(src)):
        out.append(FactorMap1(source, target, tuple(zip(src, combo))))
    return out


def factor_exists(source: Level1Tree, target: Level1Tree) -> bool:
    return len(factorings(source, target)) > 0


def strict_factor_exists(source: Level1Tree, target: Level1Tree) -> bool:
    """Some factoring map plus a node of the target above its whole image:
    the target's last node in Brouwer-Kleene order is above every other
    node, so it is such a node exactly when the image misses it."""
    order = target.bk_sorted()
    return bool(order) and any(order[-1] not in fm.image()
                               for fm in factorings(source, target))


# -- towers and S1 ------------------------------------------------------------

class Level1Tower(Value):
    """(P_i)_{i<=n} with card(P_i) = i and inclusions."""

    __slots__ = ("trees",)

    def __len__(self):
        return len(self.trees)

    @property
    def regular_flags(self) -> tuple:
        return tuple(bool(is_regular(t)) for t in self.trees)


def validate_tower(trees) -> Level1Tower:
    trees = tuple(trees)
    for i, t in enumerate(trees):
        if len(t) != i:
            raise CardinalityMismatch(i)
    for i, j in zip(range(len(trees)), range(1, len(trees))):
        if not trees[i].is_subtree_of(trees[j]):
            raise NotSubtree(i, j)
    return Level1Tower(trees)


def respects_level1(tree: Level1Tree, alpha) -> Verdict:
    """Every value a countable limit, and node order mirrored by value order."""
    prev = None
    for p in tree.bk_sorted():
        if p not in alpha:
            return Verdict(False, "missing-value", format_detail(p))
        v = as_uord(alpha[p])
        if not (v.is_countable() and v.is_limit()):
            return Verdict(False, "countable-limit", f"{format_detail(p)} = {v}")
        if prev and not prev[1] < v:
            return Verdict(False, "value-order",
                           f"{format_detail(prev[0])} = {prev[1]}, {format_detail(p)} = {v}")
        prev = p, v
    return ACCEPTED


def s1_member(trees, alphas) -> Verdict:
    """Membership of ((P_i), (alpha_i)) in the tree S_1.

    Trees are given from cardinality 1 on (the empty stage is implicit);
    each new node receives the ordinal arriving with its tree, and the
    assembled tuple must respect the last tree.  All stages must be regular.
    """
    trees = tuple(trees)
    alphas = tuple(alphas)
    if len(trees) != len(alphas):
        raise LengthMismatch(len(trees), len(alphas))
    if not trees:
        return ACCEPTED
    prev = EMPTY_TREE
    beta = {}
    for i, (t, a) in enumerate(zip(trees, alphas)):
        if not is_regular(t):
            raise NotRegular(i)
        if len(t) != i + 1 or not prev.is_subtree_of(t):
            raise InvalidTower(i)
        (node,) = t.nodes - prev.nodes
        beta[node] = a
        prev = t
    return respects_level1(trees[-1], beta)
