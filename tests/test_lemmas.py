from uctk.lemmas import SuiteResult


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
