"""The kernel's import graph has no cycle: each module imports the kernel
modules it uses once, at its top, and any one of them can be imported
first.  No module reads another module's private name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import uctk

SRC = Path(uctk.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# The one import a function may make: only check-lemmas runs the suites, so
# every other command starts without loading them.
LAZY = {("cli", "cmd_check_lemmas", "lemmas")}


def _imported(node) -> list:
    """The uctk modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("uctk.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and not (node.module or "").startswith("uctk"):
        return []
    module = node.module.removeprefix("uctk").lstrip(".") if node.module else ""
    return [module.split(".")[0]] if module else [a.name for a in node.names]


def _body(fn):
    """The nodes of a function's body, less those of the functions in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _function_imports(module: str) -> list:
    """(module, function, imported) for each import in a function body."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [(module, fn.name, imported)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in _body(fn)
            for imported in _imported(node)]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list:
    """``module.name`` for each private name of a kernel module that
    ``source`` reads: imported by name, or read as an attribute of a kernel
    module it imports."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) and _imported(n)]
    out, modules = [], set()
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.module not in (None, "uctk"):
            out += [f"{_imported(node)[0]}.{a.name}" for a in node.names if _is_private(a.name)]
        else:  # the names are kernel modules, bound as themselves or an alias
            modules |= {a.asname or a.name.split(".")[-1] for a in node.names}
    out += [f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules and _is_private(n.attr)]
    return out


def test_no_module_reads_another_modules_private_name():
    assert [hit for m in MODULES for hit in _private_reads((SRC / f"{m}.py").read_text())] == []


def test_the_private_name_guard_finds_a_planted_read():
    source = '''
from .level2 import _key, public
from uctk.level1 import _tree
from . import level3
from . import grammar as g
import uctk.bk as bk


def f(self, obj):
    self._cache, obj._field, level3.__name__, public._attr
    return level3._helper, g._Tokens, bk._entry_key
'''
    assert _private_reads(source) == ["level2._key", "level1._tree", "level3._helper",
                                      "g._Tokens", "bk._entry_key"]


def test_no_function_imports_a_kernel_module():
    assert [hit for m in MODULES for hit in _function_imports(m)] == sorted(LAZY)


def test_each_module_imports_first_on_its_own():
    script = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    for key in [k for k in sys.modules if k == 'uctk' or k.startswith('uctk.')]:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('uctk.' + name)\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": path})
