"""Effective analysis of ordinals below u_omega.

Factoring maps between level-1 trees act on ordinals through index shifts on
seeds; the analysis of a limit ordinal reads its signature, continuity,
uniform cofinality, induced tower, factoring map, approximation sequence and
potential partial tower straight off the normal form.
"""

from __future__ import annotations

from .bk import MINUS_ONE
from .errors import BelowOmega1, NotADescription, NotALimit, NotSubtree, OutOfRange
from .level1 import (FactorMap1, Level1Tree, Level1Tower, check_factor_map,
                     descriptions)
from .ordinals import (ONE, U1, ZERO, IndexMap, UOrd, apply_shift, apply_shift_sup, cf_l,
                       cf_level)
from .value import Value, format_node


def factor_to_shift(fm: FactorMap1) -> IndexMap:
    """The index shift induced on seeds by a factoring map.

    Sends the seed of each description to the seed of its image; the constant
    description goes to the constant description.  The images' ranks are
    the ones ``check_factor_map`` computes, read off in the source's order.
    """
    rank_of = dict(zip([p for p, _ in fm.mapping], check_factor_map(fm)))
    image = []
    for p in fm.source.bk_sorted():
        if p not in rank_of:
            raise NotADescription(p, fm.source)
        image.append(rank_of[p] + 1)
    n2 = len(fm.target) + 1
    image.append(n2)  # the constant description
    return IndexMap(len(fm.source) + 1, n2, tuple(image))


def inclusion_shift(sub: Level1Tree, sup: Level1Tree) -> IndexMap:
    if not sub.is_subtree_of(sup):
        raise NotSubtree(sub, sup)
    fm = FactorMap1(sub, sup, tuple((p, p) for p in sub.bk_sorted()))
    return factor_to_shift(fm)


def _check_range(tree: Level1Tree, b: UOrd) -> None:
    # levels up to card+1 are meaningful: u_{card+1} is the constant seed
    if b.max_level() > len(tree) + 1:
        raise OutOfRange(b, tree)


def tree_embed(sub: Level1Tree, sup: Level1Tree, b: UOrd) -> UOrd:
    """j^{P,P'} on the fragment: move seeds of P to the same nodes in P'."""
    _check_range(sub, b)
    return apply_shift(inclusion_shift(sub, sup), b)


def tree_embed_sup(sub: Level1Tree, sup: Level1Tree, b: UOrd) -> UOrd:
    _check_range(sub, b)
    return apply_shift_sup(inclusion_shift(sub, sup), b)


def chain_node(length: int):
    return (0,) * length


class PotentialTower1(Value):
    """Compressed partial tower (P_*, pvec).

    Continuous type iff card(P_*) = lh(pvec); discontinuous iff one less.
    """

    __slots__ = ("tree",
                 "pvec")  # nodes, possibly ending in -1

    def is_continuous(self) -> bool:
        return len(self.tree) == len(self.pvec)

    def __str__(self) -> str:
        body = " ".join(format_node(p) for p in self.pvec)
        return f"({self.tree}, ({body}))"


class OrdAnalysis(Value):
    __slots__ = ("signature",  # nodes of W, decreasing seed levels
                 "signature_seeds",  # their u-levels as UOrds
                 "essentially_continuous", "uniform_cofinality", "induced_tower",
                 "factoring_map", "approximation_sequence", "potential_tower")


def potential_and_approximation(b: UOrd, tree: Level1Tree) -> tuple:
    """The two parts of ``analyze`` that respect reads: the pair
    (potential tower, approximation sequence) of a limit ordinal
    u_1 <= b < u_{card(W)+1} over W, after the same range checks in the
    same order.

    ``analyze`` builds these two parts here and adds the rest; the level-2
    respect criterion and ``recover_tree`` read only this pair.  They skip
    ``check_factor_map``, which cannot fail once OutOfRange has passed: each
    level k of b is at most card(W), so ``descriptions(W)[k-1]`` is a node
    of W, and the levels strictly decrease, so the reversed images of the
    chain strictly increase in Brouwer-Kleene order.
    """
    if b.is_countable():
        raise BelowOmega1(b)
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > len(tree):
        raise OutOfRange(b, tree)

    m = len(b.uterms)
    coeffs = [c for _, c in b.uterms]
    approx = [U1]
    for i in range(1, m):
        # u_i*c_0 + ... + u_1*c_{i-1}, plus u_1: the u_1 merges onto the last term
        head = tuple((i - l, coeffs[l]) for l in range(i - 1))
        approx.append(UOrd(head + ((1, coeffs[i - 1] + ONE),), ZERO))
    approx.append(UOrd(tuple((m - l, coeffs[l]) for l in range(m)), b.tail))  # m >= 1: b >= u_1

    pvec = tuple(chain_node(i) for i in range(1, m + 1))  # (0), (0 0), ...: the chain of m nodes
    chain = Level1Tree(frozenset(pvec))
    if b.tail.is_zero() and coeffs[-1] == ONE:  # continuous; normal forms: equal iff the same
        potential = PotentialTower1(chain, pvec)
    elif not cf_level(b):
        # cofinality omega: no u-level is the cofinality of this uncountable limit
        potential = PotentialTower1(chain, pvec + (MINUS_ONE,))
    else:
        # cofinality u_{lowest level}: the pending node extends the chain
        potential = PotentialTower1(chain, pvec + (chain_node(m + 1),))
    return potential, tuple(approx)


def analyze(b: UOrd, tree: Level1Tree) -> OrdAnalysis:
    """Full analysis of a limit ordinal u_1 <= b < u_{card(W)+1} over W.

    The potential tower and approximation sequence come from
    ``potential_and_approximation``, and continuity is read off the
    potential tower; the signature, its seeds, uniform cofinality, induced
    tower and factoring map are built here, for ``uctk analyze`` and the
    analysis suite, which read every field.
    """
    potential, approx = potential_and_approximation(b, tree)
    descs = descriptions(tree)
    m = len(b.uterms)
    # signature: nodes of W whose seeds are the u-levels of b, top down
    signature = tuple(descs[k - 1] for k, _ in b.uterms)
    seeds = tuple(UOrd.u(k, ONE) for k, _ in b.uterms)

    chain = potential.pvec[:m]
    # the chain trees {(0), (0 0), ...} of 0 to m nodes: the shapes realizing decreasing patterns
    towers = tuple(Level1Tree(frozenset(chain[:i])) for i in range(m)) + (potential.tree,)
    # a factoring, as ``potential_and_approximation`` shows
    fmap = FactorMap1(potential.tree, tree, tuple((chain[i], signature[i]) for i in reversed(range(m))))

    return OrdAnalysis(signature, seeds, potential.is_continuous(), cf_l(b),
                       Level1Tower(towers), fmap, approx, potential)


def recover_from_analysis(analysis: OrdAnalysis) -> UOrd:
    """Push the last approximation through the factoring map; recovers b."""
    shift = factor_to_shift(analysis.factoring_map)
    return apply_shift(shift, analysis.approximation_sequence[-1])
