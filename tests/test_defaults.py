"""Each default is stated once.  A command flag's default is a keyword-only
parameter of its handler in ``uctk.cli`` and nowhere else; every other
function in ``src/uctk`` takes its values from its callers, with two
exemptions."""

import ast
from pathlib import Path

import uctk
from uctk.cli import COMMAND_FLAGS

SRC = Path(uctk.__file__).parent

# cli.main is the console-script entry, called with no argv; SuiteResult is
# mutable and each suite starts one as SuiteResult(name) (tests/test_values.py).
EXEMPT = {"cli.main", "lemmas.SuiteResult.__init__"}


def _functions(node, prefix):
    """(qualname, function) for each function and lambda under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
            yield name, child
            yield from _functions(child, f"{name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _defaults(module: str, source: str) -> list:
    """Each default in source, written ``module.qualname(param=default)``,
    less a flag default of a cli handler and the exemptions."""
    hits = []
    for name, fn in _functions(ast.parse(source), ""):
        if f"{module}.{name}" in EXEMPT:
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        flags = (module == "cli" and name.startswith("cmd_")
                 and not isinstance(fn, ast.Lambda))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None and not (flags and a.arg in COMMAND_FLAGS)]
        hits += [f"{module}.{name}({a.arg}={ast.unparse(d)})" for a, d in pairs]
    return hits


def test_no_default_outside_the_command_flags():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in _defaults(path.stem, path.read_text())] == []


def test_the_guard_finds_each_kind_of_default():
    source = """
def positional(a, b=1):
    pass

def keyword(a, *, seed=0):
    pass

pick = lambda x, y=2: y

class Oracle:
    def assignments(self, nodes, extra=2):
        def inner(k=3):
            pass

def cmd_enumerate(args, *, bound=3, depth=1):
    pass

def cmd_shift(args, sup=False):
    pass
"""
    assert _defaults("cli", source) == [
        "cli.positional(b=1)", "cli.keyword(seed=0)", "cli.<lambda>(y=2)",
        "cli.Oracle.assignments(extra=2)",
        "cli.Oracle.assignments.<locals>.inner(k=3)",
        "cli.cmd_enumerate(depth=1)", "cli.cmd_shift(sup=False)"]
    # a flag default outside cli is no handler's
    assert _defaults("lemmas", "def cmd_enumerate(args, *, bound=3):\n    pass\n") == [
        "lemmas.cmd_enumerate(bound=3)"]
    assert _defaults("cli", "def main(argv=None):\n    pass\n") == []
