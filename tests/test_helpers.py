"""No name that nothing reads: every module-level function, class or
assigned name in ``src/uctk``, helper or public, is named, in code, outside
its own definition somewhere in the package, or is a public name on
``KEEP`` with the reason it stays.  Docstrings and comments are not code,
so a name that only they mention, or only its own body reads, fails."""

import ast
from pathlib import Path

import uctk

SRC = Path(uctk.__file__).parent

# Public names that no package code names, each with the reason it stays.
_BENCH = "the benchmark names it; it goes with the benchmark change"
KEEP = {
    "grammar.parse_ctbl": _BENCH + " (bench/workloads.py, bench/layertrace.py)",
    "level2.expand_potential": _BENCH + " (bench/layertrace.py)",
    "level2.q_set_minus": _BENCH + " (bench/layertrace.py)",
    "level2.make_rep2": _BENCH + " (bench/layertrace.py)",
    "level3.make_rep3": _BENCH + " (bench/layertrace.py)",
}


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


def _defined(stmt) -> list:
    """The names a module-level statement defines: a function or class, or
    the names an assignment binds; dunder names are left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _unreferenced(sources: dict) -> list:
    """``module.name`` for each module-level function, class or assigned
    name of ``sources`` (module name -> source) that no code outside its
    own definition names."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _names(stmt)
            for name in _defined(stmt):
                defined.append((module, name))
                names.discard(name)
            used |= names
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_helper_is_used():
    # exact, so that a kept name that gains a caller leaves the list
    unreferenced = _unreferenced({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})
    assert sorted(unreferenced) == sorted(KEEP)


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
                                      "a._in_a_comment", "a.public", "b.public"]


def test_the_guard_finds_a_public_name_that_only_text_or_its_own_definition_names():
    sources = {"a": '''
LIMIT = 3
UNREAD: int = 4
FIRST, SECOND = 1, 2
Node = tuple  # an alias that nothing reads
__version__ = "0"

def in_a_docstring():
    pass

def recursive(n):
    """Calls recursive and mentions in_a_docstring."""
    return recursive(n - 1)

class Read:
    pass

def main():
    return LIMIT + FIRST, Read()
''', "b": '''
from .a import main
from . import a

def run():
    return main(), a.SECOND, run
'''}
    assert _unreferenced(sources) == ["a.UNREAD", "a.Node", "a.in_a_docstring",
                                      "a.recursive", "b.run"]
