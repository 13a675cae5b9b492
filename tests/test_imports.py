"""The kernel's import graph has no cycle: each module imports the kernel
modules it uses once, at its top, and any one of them can be imported
first."""

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
