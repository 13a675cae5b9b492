import inspect
import io
import random
import re
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from uctk import lemmas
from uctk.analysis import tree_embed, tree_embed_sup
from uctk.cli import MAX_BOUND, main
from uctk.errors import NotAFactoring
from uctk.lemmas import SuiteResult
from uctk.ordinals import apply_shift, apply_shift_sup


class Detail:
    """A counterexample text that counts how often it is formatted."""

    def __init__(self, text):
        self.text = text
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.text


def test_callable_detail_is_formatted_only_on_failure():
    res = SuiteResult("suite")
    detail = Detail("P={(0)}: 1 != 2")
    res.check(True, detail)
    assert detail.calls == 0 and res.passed
    res.check(False, detail)
    assert detail.calls == 1 and res.failures == ["P={(0)}: 1 != 2"]
    assert res.line() == "FAIL suite: 2 cases; first counterexample: P={(0)}: 1 != 2"


def test_plain_string_detail_is_kept():
    res = SuiteResult("suite")
    res.check(False, "empty tree")
    assert res.failures == ["empty tree"]
    assert res.line() == "FAIL suite: 1 cases; first counterexample: empty tree"


def test_only_five_failures_are_formatted():
    res = SuiteResult("suite")
    details = [Detail(f"case {i}") for i in range(7)]
    for d in details:
        res.check(False, d)
    assert res.cases == 7
    assert res.failures == [f"case {i}" for i in range(5)]
    assert [d.calls for d in details] == [1, 1, 1, 1, 1, 0, 0]


def test_shift_per_configuration_is_the_tree_embedding():
    # both ucf suites at their acceptance bounds compute j^{P,P'} once per
    # configuration; on betas of each, it agrees with tree_embed(_sup),
    # which builds the inclusion shift afresh for every beta
    configs = [c[:5] for c in lemmas._lemma_a_configs(4, 5)]
    assert len(configs) * 100 == 91500
    configs += [c[:5] for c in lemmas._completion_configs(4, 5)]
    assert len(configs) == 915 + 1912
    rng = random.Random(0)
    for base, p, completion, k, j in configs:
        for _ in range(3):
            beta = lemmas.rand_qualifying_beta(rng, len(base), k)
            assert apply_shift(j, beta) == tree_embed(base, completion, beta), (base, p, beta)
            assert apply_shift_sup(j, beta) == tree_embed_sup(base, completion, beta), \
                (base, p, beta)


def test_check_lemmas_looks_each_suite_up_when_called(monkeypatch):
    # the benchmark and bench/layertrace.py replace the module's suite_*
    # attributes; check_lemmas must call the replacement, not a function
    # object it captured earlier
    calls = []
    original = lemmas.suite_order_type

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(lemmas, "suite_order_type", counting)
    results = lemmas.check_lemmas(1, 0)
    assert calls == [{"max_nodes": 3}] and len(results) == 11


def _reference_suites(bound, seed):
    """The suites and sizes of check_lemmas as a hand-written list of
    partials, the route lemmas.SUITES replaced; kept to pin the table."""
    return [
        ("order_type", partial(lemmas.suite_order_type, max_nodes=max(bound, 3))),
        ("factor_order", partial(lemmas.suite_factor_order, max_nodes=min(bound, 4))),
        ("shift", partial(lemmas.suite_shift, pairs=200 * bound, seed=seed)),
        ("analysis", partial(lemmas.suite_analysis, count=50 * bound, seed=seed)),
        ("lemma_level2_ucf",
         partial(lemmas.suite_lemma_level2_ucf, max_partial_nodes=min(max(bound, 2), 4),
                 max_w=min(max(bound + 1, 3), 5), betas=10, seed=seed)),
        ("lemma_level2_ucf_another",
         partial(lemmas.suite_lemma_level2_ucf_another,
                 max_partial_nodes=min(max(bound, 2), 4),
                 max_w=min(max(bound + 1, 3), 5), betas=10, seed=seed)),
        ("uniqueness", partial(lemmas.suite_uniqueness, max_dom=min(bound, 4))),
        ("desc_eval", partial(lemmas.suite_desc_eval, max_dom=min(bound, 4))),
        ("respect_hierarchy", partial(lemmas.suite_respect_hierarchy, max_dom=min(bound, 4))),
        ("tree_property",
         partial(lemmas.suite_tree_property, max_dom=min(bound, 4), seed=seed)),
        ("ucf_cf3", partial(lemmas.suite_ucf_cf3, max_base_dom=min(max(bound, 2), 3))),
    ]


def test_check_lemmas_runs_each_suite_at_the_reference_size(monkeypatch):
    # every suite_* is replaced by a recording stub, so that each call also
    # shows that check_lemmas looks the suite up when it runs
    calls = []

    def stub(name):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return SuiteResult(name)
        return record

    reference = _reference_suites(1, 0)
    assert [f.func.__name__ for _, f in reference] == [f"suite_{n}" for n, _ in reference]
    for name, _ in reference:
        monkeypatch.setattr(lemmas, f"suite_{name}", stub(name))
    for bound in range(1, MAX_BOUND["check-lemmas"] + 1):
        for seed in (0, 7):
            calls.clear()
            results = lemmas.check_lemmas(bound, seed)
            assert calls == [(name, (), f.keywords)
                             for name, f in _reference_suites(bound, seed)], (bound, seed)
            assert [r.name for r in results] == [name for name, _, _ in calls]


def test_no_suite_has_a_size_default():
    suites = [f for name, f in vars(lemmas).items() if name.startswith("suite_")]
    assert len(suites) == 11
    for suite in suites:
        params = inspect.signature(suite).parameters.values()
        assert all(p.default is p.empty for p in params), suite.__name__


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_every_suite_checks_a_case_at_small_bounds(bound):
    # a suite that counts no case passes without checking anything
    assert [r.name for r in lemmas.check_lemmas(bound, 0) if not r.cases] == []


def test_each_suite_reports_under_its_listed_name():
    results = lemmas.check_lemmas(1, 0)
    assert [r.name for r in results] == [s.report for s in lemmas.SUITES.values()]


def _faulty_shift(error):
    """A stand-in for ``shift_is_continuous``, which only the shift suite
    calls: it raises ``error``."""
    def shift_is_continuous(sigma, b):
        raise error
    return shift_is_continuous


def test_a_kernel_error_in_a_suite_is_its_counterexample(monkeypatch):
    monkeypatch.setattr(lemmas, "shift_is_continuous",
                        _faulty_shift(NotAFactoring("a probe")))
    results = lemmas.check_lemmas(1, 0)
    assert [r.name for r in results] == [s.report for s in lemmas.SUITES.values()]
    assert [r.passed for r in results] == [True, True, False] + [True] * 8
    shift = results[2]
    assert shift.line() == (f"FAIL {lemmas.SUITES['shift'].report}: 0 cases; "
                            "first counterexample: NOT_A_FACTORING: a probe")
    assert all(r.cases for r in results[3:])

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check-lemmas", "--bound", "1"])
    line = buf.getvalue()
    assert code == 1 and line.startswith("status=rejected command=check-lemmas suites=11 ")
    assert all(f"suite{i}=" in line for i in range(11))
    assert '"FAIL shift continuity criterion and decomposition recursion: 0 cases; ' \
        'first counterexample: NOT_A_FACTORING: a probe"' in line


def test_any_other_exception_in_a_suite_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(lemmas, "shift_is_continuous", _faulty_shift(ZeroDivisionError()))
    with pytest.raises(ZeroDivisionError):
        lemmas.check_lemmas(1, 0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check-lemmas", "--bound", "1"])
    assert code == 3 and buf.getvalue().startswith(
        "status=error command=check-lemmas code=INTERNAL_ERROR detail=\"ZeroDivisionError")


def test_readme_gives_each_suites_size_at_four_bounds():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$",
                      readme, re.M)
    assert [(suite, arg, *map(int, sizes)) for suite, arg, *sizes in rows] == [
        (name, arg, *(suite.size(bound, 0)[arg] for bound in (1, 2, 4, 10)))
        for name, suite in lemmas.SUITES.items() for arg in suite.size(1, 0) if arg != "seed"]
