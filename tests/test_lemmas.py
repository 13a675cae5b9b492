import random

from uctk import lemmas
from uctk.analysis import tree_embed, tree_embed_sup
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
