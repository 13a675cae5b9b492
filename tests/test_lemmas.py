import inspect
import io
import random
from contextlib import redirect_stdout

import pytest

from uctk import lemmas
from uctk.analysis import tree_embed, tree_embed_sup
from uctk.cli import main
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
    assert [r.name for r in results] == list(lemmas.SUITE_NAMES.values())


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
    assert [r.name for r in results] == list(lemmas.SUITE_NAMES.values())
    assert [r.passed for r in results] == [True, True, False] + [True] * 8
    shift = results[2]
    assert shift.line() == (f"FAIL {lemmas.SUITE_NAMES['shift']}: 0 cases; "
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
