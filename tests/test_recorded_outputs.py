"""Outputs recorded before the kernel's tree rules were each given one home,
kept as SHA-256 hashes: a refactoring that changes an enumeration order, a
tree's printed form or a CLI report moves one of them.  The cli-batch lines
are the benchmark's own (bench/textgen.py, seed 1), run through cli.main in
process; each gives its stdout, its stderr and its exit status."""

import contextlib
import hashlib
import importlib
import io
import random
from pathlib import Path

import pytest

from uctk import cli, lemmas, level2, level3

BENCH = Path(__file__).resolve().parent.parent / "bench"

RECORDED = {
    "le2-trees-5":
        "3b8a764036934c4b3ae367c3ea3cb829df2f0af2d24716752a93911b9e8974df",
    "completions-3":
        "00091c4f3eb542a1f168f8b99d342aba625d6f014870b63e392de828a7851483",
    "cli-batch-seed-1":
        "dd07ea91fca1b30fe179c8ca47798e7fa752e0266b998bca0e3604d427b71a11",
}


def _le2_trees(monkeypatch):
    """str of every level <=2 tree with at most 5 domain elements, in order."""
    return [str(t) for t in level2.enumerate_le2_trees(5)]


def _completions(monkeypatch):
    """Every partial extension of the trees with at most 3 domain elements,
    each followed by its completions."""
    out = []
    for base in level2.enumerate_le2_trees(3):
        for pt in lemmas.enumerate_partial_le2(base):
            out.append(str(pt))
            if pt.d:
                out += [str(c) for c in level3.completion_le2(pt)]
    return out


def _cli_batch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    textgen = importlib.import_module("textgen")
    out = []
    for argv, _ in textgen.LineGenerator(random.Random(1)).stream(2000):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.main(list(argv))
            except SystemExit as e:
                status = ("exit", e.code)
        out += [stdout.getvalue(), stderr.getvalue(), repr(status)]
    return out


PRODUCERS = {"le2-trees-5": _le2_trees, "completions-3": _completions,
             "cli-batch-seed-1": _cli_batch}


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8", "surrogateescape"))
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(RECORDED))
def test_output_matches_the_recorded_hash(name, monkeypatch):
    got = _sha256(PRODUCERS[name](monkeypatch))
    assert got == RECORDED[name], f"{name}: hash moved from {RECORDED[name]} to {got}"
