import random

import pytest

from uctk.analysis import (OrdAnalysis, PotentialTower1, analyze, chain_node,
                           factor_to_shift, potential_and_approximation,
                           recover_from_analysis, tree_embed, tree_embed_sup)
from uctk.bk import MINUS_ONE
from uctk.errors import (BelowOmega1, KernelError, NotALimit, NotSubtree,
                         OutOfRange)
from uctk.grammar import parse_l1, parse_uord
from uctk.lemmas import (EvalOracle, _realizable, cf_oracle, rand_limit_uord,
                         rand_qualifying_beta, rand_uord)
from uctk.level1 import (FactorMap1, Level1Tower, Level1Tree, check_factor_map,
                         descriptions, enumerate_level1_up_to)
from uctk.ordinals import ONE, U1, ZERO, Cofinality, UOrd, cf_l


def u(text):
    return parse_uord(text)


class TestFactorToShift:
    def test_rank_example(self):
        p, w = parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")
        fm = FactorMap1(p, w, (((0,), (0,)),))
        assert factor_to_shift(fm).image == (2, 3)
        fm2 = FactorMap1(p, w, (((0,), (0, 0)),))
        assert factor_to_shift(fm2).image == (1, 3)

    def test_identity(self):
        p = parse_l1("{(0) (0 0)}")
        fm = FactorMap1(p, p, (((0, 0), (0, 0)), ((0,), (0,))))
        assert factor_to_shift(fm).image == (1, 2, 3)


class TestTreeEmbed:
    def test_examples(self):
        p, p2 = parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")
        assert tree_embed(p, p2, u("u1*2")) == u("u2*2")
        assert tree_embed_sup(p, p2, u("u1*2")) == u("u2 + u1")
        assert tree_embed(p, p, u("u1*2")) == u("u1*2")
        assert tree_embed_sup(p, p, u("u1*2")) == u("u1*2")

    def test_constant_seed_is_allowed(self):
        # the constant description seed u_{card+1} maps to u_{card'+1}
        p, p2 = parse_l1("{}"), parse_l1("{(0)}")
        assert tree_embed(p, p2, u("u1")) == u("u2")

    def test_errors(self):
        p, p2 = parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")
        with pytest.raises(NotSubtree):
            tree_embed(p2, p, u("u1"))
        with pytest.raises(OutOfRange):
            tree_embed(p, p2, u("u3"))


class TestAnalyze:
    def test_u2_is_essentially_continuous(self):
        an = analyze(u("u2"), parse_l1("{(0) (0 0)}"))
        assert an.signature == ((0,),)
        assert [str(s) for s in an.signature_seeds] == ["u2"]
        assert an.essentially_continuous
        assert an.uniform_cofinality == Cofinality.u(2)
        # continuous-type potential tower: the pending chain is completed
        assert an.potential_tower.tree == parse_l1("{(0)}")
        assert an.potential_tower.pvec == ((0,),)
        assert an.potential_tower.is_continuous()

    def test_u1_times_2(self):
        an = analyze(u("u1*2"), parse_l1("{(0)}"))
        assert an.signature == ((0,),)
        assert not an.essentially_continuous
        assert an.uniform_cofinality == Cofinality.u(1)
        assert an.potential_tower.tree == parse_l1("{(0)}")
        assert an.potential_tower.pvec == ((0,), (0, 0))
        assert [str(x) for x in an.approximation_sequence] == ["u1", "u1*2"]

    def test_u1_times_omega(self):
        an = analyze(u("u1*w"), parse_l1("{(0)}"))
        assert an.signature == ((0,),)
        assert not an.essentially_continuous
        assert an.uniform_cofinality == Cofinality.omega()
        assert an.potential_tower.pvec == ((0,), -1)

    def test_two_level_approximations(self):
        an = analyze(u("u3*2 + u1*5 + w"), parse_l1("{(0) (0 0) (0 0 0)}"))
        assert [str(x) for x in an.approximation_sequence] == \
            ["u1", "u1*3", "u2*2 + u1*5 + w"]
        assert an.signature == ((0,), (0, 0, 0))

    def test_errors(self):
        with pytest.raises(BelowOmega1):
            analyze(u("w*2"), parse_l1("{(0)}"))
        with pytest.raises(NotALimit):
            analyze(u("u1 + 1"), parse_l1("{(0)}"))
        with pytest.raises(OutOfRange):
            analyze(u("u2"), parse_l1("{(0)}"))

    def test_recovery(self):
        rng = random.Random(5)
        tree = parse_l1("{(0) (0 0) (0 1) (1)}")
        for _ in range(100):
            b = rand_limit_uord(rng, max_level=4)
            if b.is_countable():
                continue
            an = analyze(b, tree)
            assert recover_from_analysis(an) == b
            assert an.uniform_cofinality == cf_l(b) == cf_oracle(b)
            assert an.potential_tower.is_continuous() == an.essentially_continuous

    def test_oracle_rejects_wrong_signature(self):
        b = u("u2 + u1")
        tree = parse_l1("{(0) (0 0)}")
        oracle = EvalOracle(b, tree)
        an = analyze(b, tree)
        assert oracle.signature_holds(an.signature)
        assert not oracle.signature_holds(an.signature[:1])
        assert not oracle.signature_holds(tuple(reversed(an.signature)))

    def test_oracle_continuity_matches(self):
        tree = parse_l1("{(0) (0 0)}")
        for text, expected in [("u2", True), ("u2 + u1", True),
                               ("u2*2", False), ("u2 + u1*2", False),
                               ("u2 + w", False), ("u2*w", False)]:
            an = analyze(u(text), tree)
            oracle = EvalOracle(u(text), tree)
            assert an.essentially_continuous == oracle.essentially_continuous() \
                == expected, text

    def test_factoring_targets_signature(self):
        b = u("u3 + u1*2")
        tree = parse_l1("{(0) (0 0) (0 1)}")
        an = analyze(b, tree)
        sigma = an.factoring_map
        assert [sigma(p) for p in ((0,), (0, 0))] == list(an.signature)


def _chain_tree(size):
    return Level1Tree(frozenset((0,) * j for j in range(1, size + 1)))


def _old_analyze(b, tree):
    """analyze as it was, kept as its reference: each chain tree and chain
    node built on its own, and continuity tested by compare."""
    if b.is_countable():
        raise BelowOmega1(b)
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > len(tree):
        raise OutOfRange(b, tree)
    descs = descriptions(tree)
    m = len(b.uterms)
    signature = tuple(descs[k - 1] for k, _ in b.uterms)
    seeds = tuple(UOrd.u(k, ONE) for k, _ in b.uterms)
    coeffs = [c for _, c in b.uterms]
    continuous = b.tail.is_zero() and coeffs[-1].compare(ONE) == 0
    towers = [_chain_tree(i) for i in range(m + 1)]
    pvec = tuple(chain_node(i + 1) for i in range(m))
    fmap = FactorMap1(towers[m], tree,
                      tuple((chain_node(i + 1), signature[i]) for i in reversed(range(m))))
    check_factor_map(fmap)
    approx = [U1]
    for i in range(1, m):
        approx.append(UOrd(tuple((i - l, coeffs[l]) for l in range(i)), ZERO) + U1)
    if m >= 1:
        approx.append(UOrd(tuple((m - l, coeffs[l]) for l in range(m)), b.tail))
    ucf = cf_l(b)
    if continuous:
        potential = PotentialTower1(towers[m], pvec)
    elif ucf.kind == "omega":
        potential = PotentialTower1(towers[m], pvec + (MINUS_ONE,))
    else:
        potential = PotentialTower1(towers[m], pvec + (chain_node(m + 1),))
    return OrdAnalysis(signature, seeds, continuous, ucf,
                       Level1Tower(tuple(towers)), fmap, tuple(approx), potential)


def _analysed(route, b, tree):
    """The analysis, or the class and values of the error."""
    try:
        return route(b, tree)
    except KernelError as e:
        return type(e), e.args


def test_analyze_agrees_with_the_route_it_replaced():
    """Seeded betas over every level-1 tree of at most 5 nodes: qualifying
    ones of each cofinality level, and any below u_{card+2}, which also
    meet the countable, successor and out-of-range rejections."""
    rng = random.Random(24)
    outcomes = set()
    for tree in enumerate_level1_up_to(5, regular_only=False):
        betas = [rand_uord(rng, len(tree) + 1) for _ in range(6)]
        betas += [rand_qualifying_beta(rng, len(tree), k)
                  for k in range(1, len(tree) + 1) for _ in range(2)]
        for b in betas:
            got = _analysed(analyze, b, tree)
            assert got == _analysed(_old_analyze, b, tree), (str(b), str(tree))
            assert repr(got) == repr(_analysed(_old_analyze, b, tree))
            outcomes.add(got[0] if isinstance(got, tuple) else
                         (got.essentially_continuous, got.uniform_cofinality.kind))
    assert outcomes >= {BelowOmega1, NotALimit, OutOfRange,
                        (True, "u"), (False, "u"), (False, "omega")}


def test_the_respect_route_reads_the_two_parts_analyze_builds():
    """potential_and_approximation gives the potential tower and
    approximation sequence of analyze and of its reference _old_analyze
    (analyze builds the pair through it, so only the reference can tell a
    fault in the shared code), or an error of the same class and values,
    and the factoring map it does not build always checks: on every value of
    the generated respecting tuples up to 5 domain elements (a level-2
    value over the tree at its element, a level-1 value over the level-1
    tree), on those values plus 1, and on seeded draws over every level-1
    tree of at most 4 nodes."""
    inputs = []
    for le2, t in _realizable(5):
        for (d, key), b in t.items():
            tree = le2.t2.tree(key) if d == 2 else le2.t1
            inputs += [(b, tree), (b + UOrd.from_ctbl(ONE), tree)]
    rng = random.Random(32)
    for tree in enumerate_level1_up_to(4, regular_only=False):
        inputs += [(rand_uord(rng, len(tree) + 1), tree) for _ in range(8)]
    outcomes = set()
    for b, tree in inputs:
        got = _analysed(potential_and_approximation, b, tree)
        full = _analysed(analyze, b, tree)
        assert full == _analysed(_old_analyze, b, tree), (str(b), str(tree))
        if isinstance(full, OrdAnalysis):
            assert got == (full.potential_tower, full.approximation_sequence), (str(b), str(tree))
            check_factor_map(full.factoring_map)
            outcomes.add((full.essentially_continuous, full.uniform_cofinality.kind))
        else:
            assert got == full, (str(b), str(tree))
            outcomes.add(got[0])
    assert outcomes >= {BelowOmega1, NotALimit, OutOfRange,
                        (True, "u"), (False, "u"), (False, "omega")}
