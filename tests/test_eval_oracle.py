"""The a.e.-evaluation oracle of criterion 4 against its own earlier form
and against the code it checks.

``EvalOracle.signature_holds`` sorts the evaluation points on their
projections and compares neighbours; ``_pairwise_signature_holds`` is the
rule it replaced, every pair of points compared in the Brouwer-Kleene
order.  The oracle must also stay an independent route: it never enters the
analysis it is run against, nor the sort key behind the analysis's
Brouwer-Kleene order, and neither do the order-type and
cofinality oracles enter the closed forms they check, and the sup shift's
closed form and decomposition recursion share none of their own code."""

import itertools
import random

from conftest import _entered

from uctk import analysis, bk, level1, ordinals
from uctk.grammar import parse_l1, parse_uord
from uctk.lemmas import (EvalOracle, cf_oracle, order_type_oracle, rand_index_map,
                         rand_limit_uord)
from uctk.level1 import enumerate_level1_up_to
from uctk.ordinals import CtblOrd


def _pairwise_signature_holds(oracle, claimed) -> bool:
    """(a) strict lexicographic monotonicity in the claimed projection,
    (b) the projection determines the value, over every pair of points."""
    claimed = tuple(claimed)
    if set(claimed) - set(oracle.tree.nodes):
        return False
    points = [(tuple(x[w] for w in claimed), oracle.evaluate(x))
              for x in oracle.assignments(2)]
    for px, fx in points:
        for py, fy in points:
            if px == py:
                if fx.compare(fy) != 0:
                    return False
            elif bk.bk_compare(px, py, CtblOrd.compare) < 0 \
                    and fx.compare(fy) >= 0:
                return False
    return True


def _claims(tree, signature):
    """The analysis's signature, its prefix and its reverse, the empty
    claim, every permutation of up to 3 tree nodes, and a foreign node."""
    yield signature
    yield signature[:-1]
    yield tuple(reversed(signature))
    yield ()
    for k in range(1, 4):
        yield from itertools.permutations(sorted(tree.nodes), k)
    yield signature + ((7,),)


def test_sorted_signature_check_agrees_with_pairwise():
    """Every level-1 tree with 1-4 nodes, with 4 seeded limits each."""
    rng = random.Random(11)
    cases, accepted = 0, 0
    for tree in [t for t in enumerate_level1_up_to(4, regular_only=False) if len(t) >= 1]:
        drawn = 0
        while drawn < 4:
            b = rand_limit_uord(rng, max_level=len(tree))
            if b.is_countable():
                continue
            drawn += 1
            oracle = EvalOracle(b, tree)
            for claimed in _claims(tree, analysis.analyze(b, tree).signature):
                fast = oracle.signature_holds(claimed)
                assert fast == _pairwise_signature_holds(oracle, claimed), \
                    f"b={b}, W={tree}, claimed={claimed}"
                cases += 1
                accepted += fast
    assert 0 < accepted < cases


# the analysis, and the Brouwer-Kleene order it reads through the kernel's
# sort key; the oracle orders the nodes by bk.bk, the definition
_PRODUCTION = (analysis.analyze, analysis.potential_and_approximation,
               analysis.factor_to_shift,
               analysis.inclusion_shift, analysis.recover_from_analysis,
               analysis.chain_node, level1.descriptions,
               level1.Level1Tree.bk_sorted, level1._bk_order.__wrapped__,
               bk.bk_key, bk.bk_sorted)


def test_oracle_never_enters_the_analysis():
    inputs = [(parse_uord(b), parse_l1(w)) for b, w in [
        ("u2 + u1", "{(0) (0 0)}"),
        ("u3 + u1*2", "{(0) (0 0) (0 1)}"),
        ("u2*w + w", "{(0) (1) (0 0)}"),
        ("u4 + u2*3", "{(0) (0 0) (0 0 0) (1)}"),
    ]]
    signatures = [analysis.analyze(b, tree).signature for b, tree in inputs]

    def run():
        for (b, tree), signature in zip(inputs, signatures):
            oracle = EvalOracle(b, tree)
            oracle.signature_holds(signature)
            oracle.essentially_continuous()
            oracle.approximation_sequence()

    assert not _entered(_PRODUCTION, run)


def test_order_type_and_cofinality_oracles_never_enter_the_closed_forms():
    trees = [parse_l1(w) for w in ("{}", "{(0)}", "{(0) (1) (0 0)}")]
    values = [parse_uord(b) for b in ("0", "5", "w", "u2 + u1*3", "u3*w", "u1*(w+1)")]
    assert not _entered([level1.rep_order_type, level1.Level1Tree.bk_sorted,
                         level1._bk_order.__wrapped__],
                        lambda: [order_type_oracle(t) for t in trees])
    assert not _entered([ordinals.cf_l], lambda: [cf_oracle(b) for b in values])


def test_sup_shift_closed_form_and_decomposition_share_no_code():
    rng = random.Random(5)
    pairs = []
    for _ in range(200):
        b = rand_limit_uord(rng, 4)
        n = max(b.max_level(), 1)
        pairs.append((rand_index_map(rng, n, n + rng.randrange(0, 3)), b))
    assert not all(ordinals.shift_is_continuous(s, b) for s, b in pairs)
    oracle = (ordinals._strip_one_u, ordinals.decompose_shift,
              ordinals.shift_sup_by_decomposition)
    assert not _entered(oracle, lambda: [ordinals.apply_shift_sup(s, b)
                                         for s, b in pairs])
    assert not _entered([ordinals.apply_shift_sup],
                        lambda: [ordinals.shift_sup_by_decomposition(s, b)
                                 for s, b in pairs])
