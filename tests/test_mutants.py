"""The mutation gate: each row of ``MUTANTS`` is a one-line edit of a kernel
function that the lemma suites must catch.  The edited source is compiled in
the function's module globals and swapped into its ``__code__`` for one run
of ``check_lemmas(bound, 0)``, in which the row's suite must fail; the
original code comes back in a ``finally``.  ``level1._bk_order`` is emptied
before and after each row, so no order the edit computed outlives it."""

import inspect
import textwrap
from contextlib import contextmanager

import pytest

import test_recorded_outputs as recorded
from uctk import analysis, bk, lemmas, level1, level2, ordinals

# (name, function, source text, its replacement, bound, the suite that fails)
MUTANTS = [
    ("cf_level ignores a limit coefficient", ordinals.cf_level,
     "return 0 if coeff.is_limit() else level", "return level", 2, "shift"),
    ("apply_shift_sup lowers to the wrong level", ordinals.apply_shift_sup,
     "uterms.append((sigma(k - 1) + 1, ONE))", "uterms.append((sigma(k - 1) + 2, ONE))",
     2, "shift"),
    ("shift_is_continuous always true", ordinals.shift_is_continuous,
     "return not k or sigma(k) == sigma(k - 1) + 1", "return True", 2, "desc_eval"),
    ("analyze reads continuity off the tail alone", analysis.analyze,
     "potential.is_continuous(), cf_l(b)", "b.tail.is_zero(), cf_l(b)", 2, "analysis"),
    ("rep_order_type off by one", level1.rep_order_type,
     "CtblOrd.natural(len(tree.nodes))", "CtblOrd.natural(len(tree.nodes) + 1)",
     2, "order_type"),
    ("bk_key reverses siblings", bk.bk_key, "[(0, e) if", "[(0, -e) if", 2, "analysis"),
    ("child_labels drops -1 at a leaf", level2.child_labels, "if leaf:", "if False:",
     2, "uniqueness"),
    ("regular_nodes keeps (1)", level1.regular_nodes, " if a != (1,)", "", 2,
     "tree_property"),
    ("respects_degree0 accepts everything", level2.respects_degree0,
     "if v.is_countable() and v.tail.is_natural():", "if True:", 2, "respect_hierarchy"),
    ("desc_rank off by one", level1.desc_rank,
     "return _bk_order(tree.nodes)[1][d]", "return _bk_order(tree.nodes)[1][d] + 1",
     2, "analysis"),
    # two equal ranks first occur in the sup swap's sigma' over a W of 4 nodes
    ("check_factor_map accepts equal ranks", level1.check_factor_map, "a >= b", "a > b",
     3, "lemma_level2_ucf"),
    ("strict_factor_exists always true", level1.strict_factor_exists,
     "return bool(order) and", "return True or", 2, "factor_order"),
    ("factor_to_shift reads a rank off by one", analysis.factor_to_shift,
     "image.append(rank_of[p] + 1)", "image.append(rank_of[p] + 2)", 2, "lemma_level2_ucf"),
    ("_passing_node reads no -1 off a limit coefficient", level2._passing_node,
     "return MINUS_ONE if last.is_limit() else (0,) * (m + 1)", "return (0,) * (m + 1)",
     2, "uniqueness"),
]


@contextmanager
def _mutated(func, old: str, new: str):
    """``func`` running its source with the one occurrence of ``old``
    replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    original = func.__code__
    level1._bk_order.cache_clear()
    func.__code__ = namespace[func.__name__].__code__
    try:
        yield
    finally:
        func.__code__ = original
        level1._bk_order.cache_clear()


@pytest.mark.parametrize("func, old, new, bound, suite", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_the_suites_catch_the_mutant(func, old, new, bound, suite):
    original = func.__code__
    with _mutated(func, old, new):
        failed = {r.name for r in lemmas.check_lemmas(bound, 0) if not r.passed}
    assert lemmas.SUITES[suite].report in failed
    assert func.__code__ is original


def test_reversed_addable_nodes_only_reorders():
    """Equivalent for the suites: the reversed list holds the same nodes,
    and each suite checks a law on every case it builds from them, so only
    the order of the cases changes.  Tier-1 still catches it: the order
    shows in the recorded ``enumerate_le2_trees`` strings of
    ``test_recorded_outputs.py`` and ``tests/data/value_forms.json``."""
    trees = level1.enumerate_level1_up_to(4, regular_only=False)
    listed = [level1.addable_nodes(t) for t in trees]
    le2 = [str(t) for t in level2.enumerate_le2_trees(3)]
    with _mutated(level1.addable_nodes, "return sorted(out)", "return sorted(out, reverse=True)"):
        relisted = [level1.addable_nodes(t) for t in trees]
        le2_again = [str(t) for t in level2.enumerate_le2_trees(3)]
    assert relisted == [nodes[::-1] for nodes in listed]
    assert le2_again != le2 and sorted(le2_again) == sorted(le2)


@pytest.mark.parametrize("old, new", [
    ("if m > 1 and (parent_val.tail != ZERO or head[-1][1] != terms[-2][1] + ONE):",
     "if False:"),
    (" or i < m - 2 and head[i][1] != c", ""),
], ids=["last coefficient and tail", "leading coefficients"])
def test_a_dropped_parent_value_comparison_passes_the_suites_not_tier1(old, new, monkeypatch):
    """``level2._passing_node`` without a part of its comparison of the
    parent's value with b's last inner approximation accepts tuples whose
    approximation sequence is not the path.  Every tuple a suite hands the
    respect walk is a generated one, which passes that comparison, so no
    suite fails; the respect outcomes recorded in
    ``test_recorded_outputs.py`` hold such tuples and move."""
    with _mutated(level2._passing_node, old, new):
        failed = {r.name for r in lemmas.check_lemmas(2, 0) if not r.passed}
        outcomes = recorded._respect_outcomes(monkeypatch)
    assert failed == set()
    assert recorded._sha256(outcomes) != recorded.RECORDED["respect-outcomes-4"]
