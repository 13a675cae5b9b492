"""No helper that nothing calls: every module-level function or class in
``src/uctk`` whose name starts with ``_`` is named, in code, outside its own
definition somewhere in the package.  Docstrings and comments are not code,
so a helper that only they mention, or only its own body calls, fails."""

import ast
from pathlib import Path

import uctk

SRC = Path(uctk.__file__).parent


def _names(node) -> set:
    """The names that the code under node reads, as a bare name, an
    attribute or an imported name."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _unreferenced(sources: dict) -> list:
    """``module.name`` for each module-level ``_`` function or class of
    ``sources`` (module name -> source) that no code outside its own
    definition names."""
    helpers, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                helpers.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [f"{module}.{name}" for module, name in helpers if name not in used]


def test_every_helper_is_used():
    assert _unreferenced({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_guard_finds_a_helper_that_only_text_or_its_own_body_names():
    sources = {"a": '''
def _called():
    pass

def _recursive(n):
    """Calls _recursive and mentions _in_a_docstring."""
    return _recursive(n - 1)  # and _in_a_comment

def _in_a_docstring():
    pass

def _in_a_comment():
    pass

class _Imported:
    pass

def _read_as_an_attribute():
    pass

def public():
    return _called()
''', "b": '''
from .a import _Imported
from . import a

def public():
    return a._read_as_an_attribute
'''}
    assert _unreferenced(sources) == ["a._recursive", "a._in_a_docstring",
                                      "a._in_a_comment"]
