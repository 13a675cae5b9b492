"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single pass line; run with -s (or rely on pytest's
captured output on failure) to see them.
"""

import random
import subprocess
import sys
from pathlib import Path

from uctk.grammar import format_l1, format_uord, parse_l1, parse_le2, parse_uord
from uctk.lemmas import (order_type_oracle, rand_index_map,
                         rand_limit_uord, rand_uord, suite_analysis,
                         suite_desc_eval, suite_lemma_level2_ucf,
                         suite_lemma_level2_ucf_another,
                         suite_respect_hierarchy, suite_tree_property,
                         suite_ucf_cf3, suite_uniqueness)
from uctk.level1 import (enumerate_level1_up_to, factor_exists,
                         rep_order_type, s1_member, strict_factor_exists)
from uctk.level2 import enumerate_le2_trees, s2_member, typical_trees
from uctk.ordinals import (OMEGA, ONE, U1, CtblOrd, UOrd, apply_shift,
                           apply_shift_sup, shift_is_continuous,
                           shift_sup_by_decomposition)

BATCH = Path(__file__).parent / "data" / "spec_examples.batch"


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_01_order_type_law():
    trees = [t for t in enumerate_level1_up_to(6, regular_only=False) if len(t) >= 1]
    assert len(trees) > 100
    for tree in trees:
        closed = OMEGA * CtblOrd.natural(len(tree)) + ONE
        assert rep_order_type(tree) == closed == order_type_oracle(tree), tree
    _report(1, f"o.t.(<^P) = w*card(P)+1 on {len(trees)} trees, rank oracle agrees")


def test_criterion_02_factoring_iff_order_type():
    trees = enumerate_level1_up_to(4, regular_only=False)
    pairs = 0
    for p in trees:
        for w in trees:
            ot_p, ot_w = rep_order_type(p), rep_order_type(w)
            assert factor_exists(p, w) == (ot_p.compare(ot_w) <= 0), (p, w)
            assert strict_factor_exists(p, w) == (ot_p.compare(ot_w) < 0), (p, w)
            pairs += 1
    _report(2, f"factoring <-> order type on {pairs} pairs (trees up to 4 nodes)")


def test_criterion_03_shift_continuity_and_decomposition():
    rng = random.Random(0)
    pairs = 10000
    for _ in range(pairs):
        b = rand_limit_uord(rng, max_level=6)
        n = max(b.max_level(), 1)
        sigma = rand_index_map(rng, n, n + rng.randrange(0, 4))
        closed = apply_shift_sup(sigma, b)
        assert closed == shift_sup_by_decomposition(sigma, b), (sigma, b)
        assert (closed == apply_shift(sigma, b)) == \
            shift_is_continuous(sigma, b), (sigma, b)
    _report(3, f"closed form = decomposition recursion on {pairs} (sigma, beta) "
               f"pairs; continuity criterion exact")


def test_criterion_04_analysis_coherence():
    res = suite_analysis(count=1000, seed=0)
    assert res.passed, res.failures[:3]
    _report(4, f"ucf/cf agreement, tower type, approximation closed form vs "
               f"a.e.-evaluation oracle on {res.cases} checks (1000 ordinals)")


def test_criterion_05_level2_uniform_cofinality_lemmas():
    res_a = suite_lemma_level2_ucf(max_partial_nodes=4, max_w=5, betas=100, seed=0)
    assert res_a.passed, res_a.failures[:3]
    res_b = suite_lemma_level2_ucf_another(max_partial_nodes=4, max_w=5,
                                           betas=100, seed=0)
    assert res_b.passed, res_b.failures[:3]
    _report(5, f"both lemma identities hold: {res_a.cases} + {res_b.cases} instances")


def test_criterion_06_uniqueness_of_representing_tree():
    res = suite_uniqueness(max_dom=4)
    assert res.passed, res.failures[:3]
    _report(6, f"recover_tree exact and unique over level <=2 trees with <=4 "
               f"domain nodes ({res.cases} checks)")


def test_criterion_07_continuous_description_evaluation():
    res = suite_desc_eval(max_dom=4)
    assert res.passed, res.failures[:3]
    _report(7, f"continuous values = sup-embedding of predecessor; evaluation "
               f"monotone ({res.cases} checks)")


def test_criterion_08_respect_hierarchy():
    res = suite_respect_hierarchy(max_dom=4)
    assert res.passed, res.failures[:3]
    q0, q1, q20, q21 = typical_trees()
    key = ((0,),)
    two = {(2, ()): U1, (2, key): parse_uord("u1*2")}
    lim = {(2, ()): U1, (2, key): parse_uord("u1*w")}
    from uctk.level2 import respects_le2
    assert respects_le2(q21, two) and not respects_le2(q21, lim)
    assert respects_le2(q20, lim) and not respects_le2(q20, two)
    _report(8, f"respects => weakly respects ({res.cases} checks); "
               f"Q20/Q21 discriminators classify as specified")


def test_criterion_09_s1_s2_tree_property():
    res = suite_tree_property(max_dom=4, seed=0)
    assert res.passed, res.failures[:3]
    # the worked membership examples
    w, w2 = UOrd.from_ctbl(OMEGA).tail, UOrd.from_ctbl(OMEGA * CtblOrd.natural(2)).tail
    one, two = parse_l1("{(0)}"), parse_l1("{(0) (0 0)}")
    assert s1_member([one], [w])
    assert not s1_member([one, two], [w, w2])
    assert s1_member([], [])
    q0, q1, q20, q21 = typical_trees()
    from uctk.level2 import CARD1_L2
    assert s2_member([CARD1_L2], [U1], "respects")
    assert s2_member([CARD1_L2, q21.t2], [U1, parse_uord("u1*2")], "weak")
    assert not s2_member([CARD1_L2, q21.t2], [U1, parse_uord("u2")], "respects")
    _report(9, f"initial segments of accepted S1/S2 nodes accepted "
               f"({res.cases} checks); worked examples reproduce")


def test_criterion_10_ucf_cf3_coverage():
    res = suite_ucf_cf3(max_base_dom=3)
    assert res.passed, res.failures[:3]
    # worked case-5 example
    from uctk.level3 import ucf, validate_partial_le2
    q21 = typical_trees()[3]
    pt = validate_partial_le2(q21, 2, ((0,), (0,)), parse_l1("{(0) (0 0)}"))
    d, desc = ucf(pt)
    assert (d, desc.q, desc.tree, desc.pvec, desc.extended) == \
        (2, ((0,),), parse_l1("{(0) (0 0)}"), ((0,), (0, 0)), True)
    _report(10, f"ucf always (0,-1) or a regular extended description; all 5 "
                f"ucf and 3 cf3 cases exercised ({res.cases} checks)")


def test_criterion_11_cli_determinism_and_roundtrip():
    cmd = [sys.executable, "-m", "uctk.cli", "batch", str(BATCH)]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == ""
    rng = random.Random(0)
    trees = enumerate_level1_up_to(5, regular_only=False)
    for _ in range(1000):
        b = rand_uord(rng, 6)
        assert parse_uord(format_uord(b)) == b
        t = rng.choice(trees)
        assert parse_l1(format_l1(t)) == t
    le2s = enumerate_le2_trees(4)
    from uctk.grammar import format_le2
    for t in le2s:
        assert parse_le2(format_le2(t)) == t
    _report(11, f"batch output byte-identical across runs; 1000 ordinal and "
                f"tree round-trips plus {len(le2s)} level <=2 round-trips")
