"""The traced benchmark wraps kernel functions by name; a kernel name that
bench/layertrace.py wraps and that goes away breaks
``bench/run.py --trace 1``.  Installing the tracer finds out."""

import importlib
from pathlib import Path

from uctk import grammar, level2, value

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layertrace = importlib.import_module("layertrace")
    originals = (grammar.parse_uord, level2.respects_le2)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert (grammar.parse_uord, level2.respects_le2) != originals
        grammar.parse_uord("u3")
        assert tracer.counts["grammar.parse_calls"] == 1
    finally:
        tracer.uninstall()
    assert (grammar.parse_uord, level2.respects_le2) == originals


def test_grammar_names_the_printers_the_tracer_wraps(monkeypatch):
    """The tracer wraps grammar.format_* and rebinds every name bound to the
    same object, so the kernel's calls through uctk.value are counted too."""
    monkeypatch.syspath_prepend(str(BENCH))
    layertrace = importlib.import_module("layertrace")
    names = [attr for _, attr, _, _ in layertrace.TARGETS if attr.startswith("format_")]
    assert len(names) == 15
    for name in names:
        assert getattr(grammar, name) is getattr(value, name), name
