"""The lemma-suites benchmark wraps ``lemmas.suite_<name>`` for each name of
``bench/spec.py`` ``SUITES`` and zips that list with the results of
``check_lemmas`` by position.  A suite added, dropped, renamed or moved in
``lemmas.SUITES`` would show only as per-suite metrics under the wrong name;
comparing the two lists here finds out."""

import importlib
from pathlib import Path

from uctk import lemmas

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_suite_table_is_the_benchmarks_suite_list(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.import_module("spec")
    assert list(lemmas.SUITES) == spec.SUITES
    assert [s.function.__name__ for s in lemmas.SUITES.values()] == \
        [f"suite_{name}" for name in spec.SUITES]
