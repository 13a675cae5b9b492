import argparse
import ast
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import _entered
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uctk import cli, grammar, level2, level3
from uctk.errors import ArityError
from uctk.cli import HANDLERS, MAX_BOUND, _build_parser, _quote, _read_words, main
from uctk.grammar import MAX_NESTING

BATCH = Path(__file__).parent / "data" / "spec_examples.batch"
EXPECTED = BATCH.with_suffix(".expected")


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_seed_command():
    code, out = run("seed", "{(0) (0 0)}", "()")
    assert code == 0 and out.strip().endswith("result=u3")


def test_order_type_text_format():
    code, out = run("order-type", "{(0)}", "--format", "text")
    assert code == 0 and out.strip() == "w+1"


def test_exit_code_domain_rejection():
    code, out = run("validate", "l1", "{(1)}")
    assert code == 1 and "CLOSURE_VIOLATION" in out


def test_exit_code_parse_error():
    code, out = run("order-type", "{(0")
    assert code == 2 and "PARSE_ERROR" in out


def test_exit_code_arity():
    code, out = run("seed", "{(0)}")
    assert code == 2 and "ARITY_ERROR" in out


def test_rejected_verdict_is_exit_one():
    code, out = run("respects",
                    "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)))",
                    "u1", "u1*w")
    assert code == 1 and "verdict=rejected" in out


def test_compare_rep2_level1_side():
    le2 = "({(0) (0 0)} ; () -> ({}, (0)))"
    code, out = run("compare", "--rep2", le2, "(1, [(0 0)])", "(1, [(0), 3])")
    assert code == 0 and "result=less" in out
    code, out = run("compare", "--rep2", le2, "(1, [(0)])", "(2, [])")
    assert code == 0 and "result=less" in out


@pytest.mark.parametrize("x, y", [("(1, [(0), -1])", "(2, [])"),
                                  ("(2, [])", "(1, [(0), -1])"),
                                  ("(1, [(0), -1])", "(1, [(0)])")])
def test_compare_rep2_negative_level1_index_is_not_in_rep(x, y):
    """A level-1 point with index -1 is refused whichever side the other
    point is on, as level1.rep_compare refuses it."""
    code, out = run("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", x, y)
    assert code == 1
    assert out.strip().endswith('code=NOT_IN_REP detail="NOT_IN_REP: [(0), -1]"')


def test_compare_rep3():
    l3 = "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))"
    code, out = run("compare", "--rep3", l3, "[(0), 3, -1]", "[(0)]")
    assert code == 0 and "result=less" in out


# two-point compares and how many of their points lie on side 2 of a level <=2
# tree or in a level-3 tree
REP_COMPARES = [
    (("compare", "--rep2", "({(0) (0 0)} ; () -> ({}, (0)))", "(1, [(0 0)])", "(1, [(0), 3])"),
     0),
    (("compare", "--rep2", "({(0) (0 0)} ; () -> ({}, (0)))", "(1, [(0)])", "(2, [])"), 1),
    (("compare", "--rep2", "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, -1))", "(2, [])",
      "(2, [w, (0), 3, -1])"), 2),
    (("compare", "--rep3", "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))", "[(0), 3, -1]",
      "[(0)]"), 2),
]


def test_compare_checks_each_point_once(monkeypatch):
    """The compare functions check the points; the CLI only reads them."""
    reads = []
    for module, name in ((level2, "rep2_from_payload"), (level3, "rep3_from_payload")):
        read = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, read=read: reads.append(a) or read(*a))
    for argv, points in REP_COMPARES:
        reads.clear()
        code, out = run(*argv)
        assert (code, len(reads)) == (0, points), argv


@pytest.mark.parametrize("command", [("ucf",), ("cf3",), ("complete",), ("validate", "pl2")],
                         ids=" ".join)
@pytest.mark.parametrize("degree", [5, 3, -2])
@pytest.mark.parametrize("rest", ["-1, {}", "(0), {}", "((0)), {(0)}"],
                         ids=["minus-one", "node", "domseq"])
def test_a_degree_outside_0_to_2_is_a_case_violation(command, degree, rest):
    code, out = run(*command, f"(({{}} ; () -> ({{}}, (0))) @ ({degree}, {rest}))")
    assert code == 1 and out.count("\n") == 1
    assert out.endswith(f' code=CASE_VIOLATION detail="CASE_VIOLATION: degree must be '
                        f'0, 1 or 2, {degree}"\n')


def test_pretty_output():
    code, out = run("cfl", "u3", "--pretty")
    assert code == 0 and "[cfl] ok" in out and "result: u3" in out


def test_enumerate_bound_below_one_is_an_arity_error():
    code, out = run("enumerate", "l1", "--bound", "0")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out


def test_check_lemmas_bound_below_one_is_an_arity_error():
    code, out = run("check-lemmas", "--bound", "0")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out


def test_check_lemmas_takes_no_positional_argument(monkeypatch):
    from uctk import lemmas
    monkeypatch.setattr(lemmas, "check_lemmas", lambda **kw: pytest.fail("a suite ran"))
    code, out = run("check-lemmas", "foo", "--bound", "1")
    assert code == 2 and out.count("\n") == 1
    assert out.startswith("status=error command=check-lemmas input=foo code=ARITY_ERROR ")


# The command flags, and those each command reads; every other (command,
# flag) pair is a stray flag.
FLAGS = ("seed", "bound", "variant", "regular", "extended", "timings", "at",
         "rep1", "rep2", "rep3")
TAKES = {"compare": {"rep1", "rep2", "rep3"}, "eval-desc": {"at", "extended"},
         "s2": {"variant"}, "s3-structural": {"variant"},
         "enumerate": {"bound", "regular"}, "check-lemmas": {"bound", "seed", "timings"}}
SWITCHES = {"regular", "extended", "timings"}


def test_each_handler_takes_the_flags_it_reads():
    assert {command: set(handler.__kwdefaults__ or ()) for command, handler
            in HANDLERS.items()} == {command: TAKES.get(command, set()) for command in HANDLERS}
    assert tuple(cli.COMMAND_FLAGS) == FLAGS and set(FLAGS) == set().union(*TAKES.values())
    assert sum(map(len, TAKES.values())) == 12


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(HANDLERS) + ["batch"]
    for flag in FLAGS if flag not in TAKES.get(command, ())])
def test_a_stray_flag_is_an_arity_error(command, flag, monkeypatch, tmp_path):
    def stand_in(*args, **flags):
        pytest.fail(f"{command} ran")

    if command == "batch":
        monkeypatch.setattr(cli, "run_command", stand_in)
        batch = tmp_path / "one.batch"
        batch.write_text("cfl u3\n")
        args, detail = [str(batch)], f"batch takes no --{flag}"
    else:
        stand_in.__kwdefaults__ = HANDLERS[command].__kwdefaults__
        monkeypatch.setitem(HANDLERS, command, stand_in)
        args, detail = [], f"ARITY_ERROR: {command} takes no --{flag}"
    value = [] if flag in SWITCHES else ["1"]
    assert run(command, *args, f"--{flag}", *value) == (
        2, f'status=error command={command} code=ARITY_ERROR detail="{detail}"\n')


def test_enumerate_le2_takes_no_regular(monkeypatch):
    monkeypatch.setattr(level2, "enumerate_le2_trees", lambda bound: pytest.fail("it ran"))
    assert run("enumerate", "le2", "--bound", "2", "--regular") == (
        2, 'status=error command=enumerate input=le2 code=ARITY_ERROR '
           'detail="ARITY_ERROR: enumerate le2 takes no --regular"\n')


def test_a_batch_line_takes_no_output_flag(tmp_path):
    batch = tmp_path / "output_flags.batch"
    batch.write_text("cfl u3 --pretty\ncfl u3 --format text\ncfl u3 --seed 3\ncfl u2\n")
    code, out = run("batch", str(batch))
    assert code == 2 and out.splitlines() == [
        'status=error command=batch input="cfl u3 --pretty" code=ARITY_ERROR '
        'detail="ARITY_ERROR: unrecognized arguments: --pretty"',
        'status=error command=batch input="cfl u3 --format text" code=ARITY_ERROR '
        'detail="ARITY_ERROR: unrecognized arguments: --format text"',
        'status=error command=cfl input=u3 code=ARITY_ERROR '
        'detail="ARITY_ERROR: cfl takes no --seed"',
        "status=ok command=cfl input=u2 result=u2"]


@pytest.mark.parametrize("flags", [
    ["--pretty", "--format", "text"], ["--format", "text", "--pretty"],
    ["--pretty", "--format", "structured"], ["--format", "structured", "--pretty"],
], ids=["pretty-text", "text-pretty", "pretty-structured", "structured-pretty"])
@pytest.mark.parametrize("command", ["cfl", "batch"])
def test_pretty_with_format_is_an_arity_error(command, flags, monkeypatch, tmp_path):
    def stand_in(*args, **flags):
        pytest.fail(f"{command} ran")

    monkeypatch.setattr(cli, "run_command", stand_in)
    batch = tmp_path / "one.batch"
    batch.write_text("cfl u3\n")
    args = [str(batch)] if command == "batch" else ["u3"]
    assert run(command, *args, *flags) == (
        2, f'status=error command={command} code=ARITY_ERROR '
           'detail="--pretty and --format exclude each other"\n')


def test_readme_lists_the_flags_each_handler_takes():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| `--(\w+)[^`]*` \| `([^`]+)` \|", readme, re.M)
    table = {}
    for command, flag, default in rows:
        table.setdefault(command, {})[flag] = ast.literal_eval(default)
    assert table == {command: handler.__kwdefaults__
                     for command, handler in HANDLERS.items() if handler.__kwdefaults__}


@pytest.mark.parametrize("name", sorted(MAX_BOUND))
def test_bound_above_the_maximum_is_an_arity_error(name):
    code, out = run(*name.split(), "--bound", str(MAX_BOUND[name] + 1))
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out
    assert f"--bound for {name} is at most {MAX_BOUND[name]}" in out


def test_bound_up_to_the_maximum_runs(monkeypatch):
    monkeypatch.setitem(MAX_BOUND, "enumerate l1", 2)
    monkeypatch.setitem(MAX_BOUND, "check-lemmas", 1)
    assert run("enumerate", "l1", "--bound", "2")[0] == 0
    assert run("enumerate", "l1", "--bound", "3")[0] == 2
    assert run("check-lemmas", "--bound", "1")[0] == 0
    assert run("check-lemmas", "--bound", "2")[0] == 2


def test_cli_import_loads_neither_dataclasses_nor_the_suites():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import uctk.cli\n"
        "uctk.cli.main(['cfl', 'u3'])\n"
        "loaded = set(sys.modules) - before\n"
        "assert 'dataclasses' not in loaded and 'uctk.lemmas' not in loaded, sorted(loaded)\n"
        "uctk.cli.main(['check-lemmas', '--bound', '1'])\n"
        "assert 'uctk.lemmas' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "status=ok command=cfl input=u3 result=u3"
    assert lines[1].startswith("status=ok command=check-lemmas suites=11 ")


def test_package_import_loads_no_kernel_module():
    script = "import sys, uctk\nprint(sorted(m for m in sys.modules if m.startswith('uctk')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['uctk']\n"


def test_shift_with_bad_index_map_is_a_report():
    code, out = run("shift", "{1->3, 2->2}", "u1")
    assert code == 1 and out.count("\n") == 1 and "code=OUT_OF_RANGE" in out


def test_batch_goes_on_after_a_bad_index_map(tmp_path):
    batch = tmp_path / "bad_index_map.batch"
    batch.write_text('cfl u3\nshift "{1->3, 2->2}" u1\ncfl "u2 + u1*2"\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].endswith("result=u3")
    assert "code=OUT_OF_RANGE" in lines[1]
    assert lines[2].endswith("result=u1")


# each case's argv, exit status and exact detail; a detail writes nodes and
# domain sequences as the grammar does
MALFORMED = [
    (("validate", "l2", "() -> ({}, (0)); ((0) -1) -> ({(0)}, (0 0))"),
     1, "DOMAIN_NOT_TREE: ((0) -1)"),
    (("recover", "{}", "{() ((0) -1)}", "u1", "u1"), 1, "DOMAIN_NOT_TREE: ((0) -1)"),
    (("s1", "[{(0)}]", "u1"), 1, "INVALID_ELEMENT: S1 ordinals are countable, u1"),
    (("compare", "[(0)]", "[5]"), 1, "INVALID_ELEMENT: (0), 5"),
    (("compare", "--rep1", "{(0)}", "[(0), w]", "[(0)]"), 1,
     "INVALID_ELEMENT: [(0), w], index is not a natural"),
    (("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", "(1, [(0 0)])", "(2, [])"),
     1, "INVALID_ELEMENT: [(0 0)], level-1 node outside the tree"),
    (("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", "(x, [(0 0)])", "(2, [])"),
     2, "PARSE_ERROR: rep2 element side is 1 or 2, got 'x', line 1, col 2"),
    (("validate", "l2", "() -> ({}, (0)); (-1 (0)) -> ({(0)}, (0 0))"), 2,
     "PARSE_ERROR: expected ')', got '(', line 1, col 22"),
    (("eval-desc", "({} ; () -> ({}, (0)))", "u1", "--at", "(-1 -1)"), 2,
     "PARSE_ERROR: expected ')', got '-1', line 1, col 5"),
    (("eval-desc", "({} ; () -> ({}, (0)))", "u1", "--at", "((0))"), 1, "MISSING_ENTRY: ((0))"),
    (("compare", "--rep3", "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))", "[(0)]", "[u1]"),
     1, "INVALID_ELEMENT: [u1]"),
    (("seed", "{(0)}", "(1)"), 1, "NOT_A_DESCRIPTION: (1), {(0)}"),
    (("validate", "l2", "() -> ({}, (0)); ((0)) -> ({}, (0))"), 1, "TOWER_VIOLATION: ((0))"),
    (("validate", "pl2", "(({(0)} ; () -> ({}, (0))) @ (1, (0), {}))"), 1,
     "CASE_VIOLATION: node already present, (0)"),
    (("validate", "l2", "() -> ({}, (1))"), 1, "ROOT_NOT_CANONICAL: ({}, (1))"),
    (("compare", "--rep2", "({} ; () -> ({}, (0)))", "(2, [(0)])", "(2, [u1])"), 1,
     "INVALID_ELEMENT: [(0)]"),
    (("eval-desc", "({} ; () -> ({}, (0)))", "u1", "--at", ""), 2,
     "PARSE_ERROR: unexpected end of input, line 1, col 1"),
    # an error raised without values reads as its bare code, unquoted
    (("validate", "l1", "{()}"), 1, "CONTAINS_EMPTY"),
    (("recover", "{}", "{() ((0))}", "u1", "u2"), 1, "NO_TREE_FOUND"),
    # both points are read before either is checked: an unreadable second
    # point is reported over an invalid first one
    (("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", "(1, [(0 0)])", "(2, ["), 2,
     "PARSE_ERROR: unexpected end of input, line 1, col 6"),
    (("compare", "--rep3", "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))", "[u1]", "[u1"), 2,
     "PARSE_ERROR: unexpected end of input, line 1, col 4"),
]


@pytest.mark.parametrize("argv, exit_code, detail", MALFORMED, ids=[
    f"argv{i}-{exit_code}-{detail.split(':')[0]}"
    for i, (_, exit_code, detail) in enumerate(MALFORMED)])
def test_malformed_input_is_one_coded_report(argv, exit_code, detail):
    got, out = run(*argv)
    code = detail.split(":")[0]
    assert got == exit_code and out.count("\n") == 1
    field = f'"{detail}"' if " " in detail else detail
    assert out.endswith(f" code={code} detail={field}\n")


def test_batch_goes_on_after_a_continuous_domain_sequence(tmp_path):
    batch = tmp_path / "continuous_domseq.batch"
    batch.write_text('cfl u3\nrecover {} "{() ((0) -1)}" u1 u1\ncfl "u2 + u1*2"\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].endswith("result=u3")
    assert "code=DOMAIN_NOT_TREE" in lines[1]
    assert lines[2].endswith("result=u1")


@pytest.mark.parametrize("argv", [
    ("shift", "{1->x}", "u1"),
    ("validate", "pl2", "(({} ; () -> ({}, (0))) @ (x, -1, {}))"),
])
def test_non_numeric_token_is_a_parse_error(argv):
    code, out = run(*argv)
    assert code == 2 and out.count("\n") == 1 and "code=PARSE_ERROR" in out


DEEP_CFL = "w^(" * 600 + "1" + ")" * 600


def test_deep_nesting_is_a_parse_error():
    code, out = run("cfl", DEEP_CFL)
    assert code == 2 and out.count("\n") == 1 and "code=PARSE_ERROR" in out
    assert f"nested deeper than {MAX_NESTING}" in out


def test_nesting_up_to_the_cap_parses():
    code, out = run("cfl", "(" * MAX_NESTING + "w" + ")" * MAX_NESTING)
    assert code == 0 and out.count("\n") == 1
    code, out = run("cfl", "(" * (MAX_NESTING + 1) + "w" + ")" * (MAX_NESTING + 1))
    assert code == 2 and "code=PARSE_ERROR" in out


def test_batch_goes_on_after_unparsable_lines(tmp_path):
    batch = tmp_path / "unparsable.batch"
    batch.write_text('cfl u3\nshift "{1->x}" u1\n'
                     'validate pl2 "(({} ; () -> ({}, (0))) @ (x, -1, {}))"\n'
                     f'cfl "{DEEP_CFL}"\ncfl "u2 + u1*2"\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 5
    assert lines[0].endswith("result=u3")
    assert all("code=PARSE_ERROR" in line for line in lines[1:4])
    assert lines[4].endswith("result=u1")


# Longer than the 4 300 digits Python converts to an int by default: a node
# entry, a natural, a u-level, an index and a degree, each a parse error at
# the numeral's token.
LONG = "1" * 5000
PL2_DEGREE = "(({} ; () -> ({}, (0))) @ (%s, -1, {}))"


@pytest.mark.parametrize("argv, col", [
    (("validate", "l1", "{(0 %s)}" % LONG), 5),
    (("cfl", LONG), 1),
    (("cfl", "u" + LONG), 1),
    (("shift-sup", "{1->%s}" % LONG, "u1"), 5),
    (("validate", "pl2", PL2_DEGREE % LONG), 28),
], ids=["node-entry", "natural", "u-level", "index", "degree"])
def test_a_numeral_too_long_is_a_parse_error(argv, col):
    code, out = run(*argv)
    assert code == 2 and out.count("\n") == 1
    assert out.endswith(f' code=PARSE_ERROR detail="PARSE_ERROR: number too long, line 1, col {col}"\n')


def test_batch_goes_on_after_a_numeral_too_long(tmp_path):
    batch = tmp_path / "long_numeral.batch"
    batch.write_text(f'validate l1 "{{({LONG})}}"\ncfl "u2 + u1*2"\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 2
    assert "code=PARSE_ERROR" in lines[0] and "number too long" in lines[0]
    assert lines[1].endswith("result=u1")


def test_check_lemmas_timings_are_opt_in():
    _, plain = run("check-lemmas", "--bound", "1")
    code, timed = run("check-lemmas", "--bound", "1", "--timings")
    seconds = re.compile(r" suite(\d+)_seconds=\d+\.\d{3}(?=\s)")
    sizes = re.compile(r" suite(\d+)_([a-z_]+)=(\d+)(?=\s)")
    assert code == 0
    assert [int(i) for i in seconds.findall(timed)] == list(range(11))
    # each suite's keyword arguments at --bound 1, less its seed
    ucf2 = [("max_partial_nodes", "2"), ("max_w", "3"), ("betas", "10")]
    assert [(int(i), name, size) for i, name, size in sizes.findall(timed)] == [
        (i, name, size) for i, args in enumerate(
            [[("max_nodes", "3")], [("max_nodes", "1")], [("pairs", "200")],
             [("count", "50")], ucf2, ucf2, [("max_dom", "1")], [("max_dom", "1")],
             [("max_dom", "1")], [("max_dom", "1")], [("max_base_dom", "2")]])
        for name, size in args]
    assert sizes.sub("", seconds.sub("", timed)) == plain


def test_check_lemmas_small():
    code, out = run("check-lemmas", "--bound", "2")
    assert code == 0 and "pass" in out


def test_batch_runs_and_is_deterministic():
    cmd = [sys.executable, "-m", "uctk.cli", "batch", str(BATCH)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 1  # the batch includes rejection examples
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") >= 60
    assert "status=error code=PARSE_ERROR" not in first.stdout


@pytest.mark.parametrize("argv", [["cfl", "u3"], ["enumerate", "l1", "--bound", "9"],
                                  ["check-lemmas", "--bound", "1"], ["batch", str(BATCH)],
                                  ["--help"], ["cfl", "u3", "-h"]])
def test_a_closed_stdout_ends_quietly_with_status_4(argv):
    # the pipe's read end is closed before uctk starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "uctk.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (4, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["cfl", "u3"], ["--help"], ["cfl", "u3", "-h"],
                                  ["batch", str(BATCH)]])
def test_a_full_stdout_device_ends_quietly_with_status_4(argv):
    # every write to /dev/full fails with ENOSPC, not a broken pipe
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "uctk.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (4, "")


@pytest.mark.parametrize("argv", [["cfl", "u3"], ["--help"], ["batch", str(BATCH)]])
def test_a_process_started_without_stdout_ends_quietly_with_status_4(argv):
    # fd 1 is closed before uctk's interpreter starts, which then has no sys.stdout
    launch = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
    proc = subprocess.run([sys.executable, "-c", launch, sys.executable, "-m", "uctk.cli",
                           *argv], stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (4, "")


def test_batch_expected_lines():
    code, out = run("batch", str(BATCH))
    lines = out.splitlines()
    assert 'status=ok command=seed input="{(0) (0 0)} ()" result=u3' in lines
    assert 'status=ok command=shift-sup input="{1->2} u1" result=u1' in lines
    assert any(line.startswith("status=ok command=recover") and
               "(0 0)" in line for line in lines)


def test_batch_matches_golden_transcript():
    # every report of the worked examples is pinned byte-for-byte; the
    # transcript changes only with an intended change of output
    cmd = [sys.executable, "-m", "uctk.cli", "batch", str(BATCH)]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 1  # the batch includes rejection examples
    assert proc.stdout == EXPECTED.read_bytes()


def test_usage_is_formatted_once_per_parser(monkeypatch, capsys):
    run("cfl", "u3")
    calls = []
    format_usage = argparse.ArgumentParser.format_usage

    def counted(self):
        calls.append(self)
        return format_usage(self)

    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counted)
    for argv in [("cfl", "u3"), ("seed", "{(0) (0 0)}", "()"),
                 ("order-type", "{(0)}", "--format", "text"),
                 ("validate", "l1", "{(1)}")]:
        run(*argv)
    assert calls == []
    monkeypatch.undo()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["cfl", "u3", "--bogus"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(_build_parser(batch_line=False).format_usage())
    assert captured.err.endswith("uctk: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [("nosuch", "u3"), ("cfl", "u3", "--seed", "x"), ()])
def test_argv_usage_error_exits_as_argparse_does(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.startswith(_build_parser(batch_line=False).format_usage())
    assert "uctk: error: " in captured.err


def test_batch_goes_on_after_lines_that_do_not_parse(tmp_path, capsys):
    batch = tmp_path / "argv_errors.batch"
    batch.write_text('cfl u3\nnosuch u3\ncfl u3 --bogus\ncfl "u3\n'
                     'cfl u3 --seed x\n--pretty\ncfl "u2 + u1*2"\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 7
    assert lines[0].endswith("result=u3")
    codes = [re.search(r" code=(\w+)", line).group(1) for line in lines[1:6]]
    assert codes == ["ARITY_ERROR", "ARITY_ERROR", "PARSE_ERROR",
                     "ARITY_ERROR", "ARITY_ERROR"]
    assert all(line.startswith("status=error command=batch input=")
               for line in lines[1:6])
    assert lines[3].endswith('No closing quotation, line 1, col 8"')
    assert lines[6].endswith("result=u1")
    assert capsys.readouterr().err == ""


# What argparse prints for help and for usage errors on argv, recorded at 80
# columns; the one-pass reader leaves each of these argv to argparse.
ARGPARSE_TEXTS = json.loads((BATCH.parent / "argparse_texts.json").read_text())


@pytest.fixture
def columns_80(monkeypatch):
    """argparse wraps its help and usage to the terminal's width, and the
    parser keeps the usage it formatted when it was built."""
    monkeypatch.setenv("COLUMNS", "80")
    _build_parser.cache_clear()
    yield
    _build_parser.cache_clear()


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("cfl", "u3", "-h")])
def test_help_on_argv_prints_the_help(argv, capsys, columns_80):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    assert capsys.readouterr() == (ARGPARSE_TEXTS["help"], "")


@pytest.mark.parametrize("case", ARGPARSE_TEXTS["errors"],
                         ids=[" ".join(c["argv"]) or "empty" for c in ARGPARSE_TEXTS["errors"]])
def test_argv_usage_errors_print_as_recorded(case, capsys, columns_80):
    with pytest.raises(SystemExit) as exit_:
        main(case["argv"])
    assert exit_.value.code == case["exit"]
    assert capsys.readouterr() == ("", case["stderr"])


def test_help_on_a_batch_line_is_one_report(tmp_path, capsys):
    batch = tmp_path / "help.batch"
    batch.write_text("cfl u3\ncfl u3 -h\n--help\ncfl u2\n")
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 4
    assert lines[1] == ('status=error command=batch input="cfl u3 -h" code=ARITY_ERROR '
                        'detail="ARITY_ERROR: unrecognized arguments: -h"')
    assert lines[2].startswith("status=error command=batch input=--help code=ARITY_ERROR ")
    assert lines[3].endswith("result=u2")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, reason", [("missing.batch", "No such file or directory"),
                                          (".", "Is a directory")])
def test_unreadable_batch_file_is_one_report(tmp_path, name, reason):
    path = tmp_path / name
    code, out = run("batch", str(path))
    assert code == 2 and out == (f"status=error command=batch input={path} code=ARITY_ERROR "
                                 f'detail="cannot read batch file: {reason}"\n')


class _FailingFile(io.StringIO):
    """A batch file whose read fails with EIO after its first line."""

    def __iter__(self):
        yield self.readline()
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def test_batch_file_whose_read_fails_ends_in_one_report(monkeypatch):
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FailingFile("cfl u3\ncfl u2\n"),
                        raising=False)
    code, out = run("batch", "eio.batch")
    assert code == 2 and out.splitlines() == [
        "status=ok command=cfl input=u3 result=u3",
        'status=error command=batch input=eio.batch code=ARITY_ERROR '
        'detail="cannot read batch file: Input/output error"']


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/mem")
def test_reading_proc_self_mem_as_a_batch_file_is_one_report():
    # the file opens, and its first read, at offset 0 of an unmapped page, fails with EIO
    proc = subprocess.run([sys.executable, "-m", "uctk.cli", "batch", "/proc/self/mem"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout == ("status=error command=batch input=/proc/self/mem code=ARITY_ERROR "
                           'detail="cannot read batch file: Input/output error"\n')


def test_batch_line_that_is_not_utf8_is_a_parse_error(tmp_path):
    batch = tmp_path / "bytes.batch"
    batch.write_bytes(b"cfl u3\n\xff\xfe\ncfl \xc3 u3\n# \xff\ncfl u2\n")
    code, out = run("batch", str(batch))
    assert code == 2 and out.splitlines() == [
        "status=ok command=cfl input=u3 result=u3",
        r'status=error command=batch input="\\xff\\xfe" code=PARSE_ERROR '
        r'detail="PARSE_ERROR: not UTF-8, line 1, col 1"',
        r'status=error command=batch input="cfl \\xc3 u3" code=PARSE_ERROR '
        r'detail="PARSE_ERROR: not UTF-8, line 1, col 5"',
        "status=ok command=cfl input=u2 result=u2"]


def test_control_characters_in_a_batch_line_are_escaped(tmp_path):
    batch = tmp_path / "control.batch"
    batch.write_bytes(b'cfl u3\x00\ncfl "u3\x1b[2J"\ncfl "u3\tu2"\ncfl u2\n')
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 4 and all(line.isprintable() for line in lines)
    assert lines[0].startswith(r'status=error command=cfl input="u3\x00" code=PARSE_ERROR ')
    assert lines[1].startswith(r'status=error command=cfl input="u3\x1b[2J" code=PARSE_ERROR ')
    assert lines[2].startswith(r'status=error command=cfl input="u3\tu2" code=PARSE_ERROR ')
    assert lines[3] == "status=ok command=cfl input=u2 result=u2"


def test_quote_leaves_bare_only_plain_values():
    assert _quote("u3") == "u3" and _quote("u1 + 2") == '"u1 + 2"' and _quote("") == '""'
    assert _quote('a\\b"c') == r'"a\\b\"c"' and _quote('"') == r'"\""'
    assert _quote('a\\"\x07\n\u2028') == r'"a\\\"\x07\n\u2028"'


@pytest.mark.parametrize("text", ['a"b c', 'a"b', 'a\\b', "\\", '"', 'u1 + "', "", "x=y"])
def test_structured_line_splits_back_into_its_fields(text):
    flags = _build_parser(batch_line=False).parse_intermixed_args(["cfl"])
    report = cli.run_command("cfl", [text], flags)
    code, out = run("cfl", text)
    assert out == report.line() + "\n"
    assert [tok.split("=", 1) for tok in shlex.split(out)] == [
        ["status", report.status], ["command", "cfl"],
        *([k, str(v)] for k, v in report.fields.items())]


def test_pretty_and_text_output_escape_control_characters():
    code, out = run("cfl", 'u3\x1b[2J\x00 "\\', "--pretty")
    assert code == 2 and all(line.isprintable() for line in out.splitlines())
    assert out.splitlines()[1] == '  input: u3\\x1b[2J\\x00 "\\'
    flags = _build_parser(batch_line=False).parse_intermixed_args(["cfl", "--format", "text"])
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit(cli.Report("cfl", "ok", result='u3\x1b[2J\x00 "\\'), flags)
    assert buf.getvalue() == 'u3\\x1b[2J\\x00 "\\\n'


def test_batch_command_on_a_batch_line_names_its_input(tmp_path):
    batch = tmp_path / "nested.batch"
    batch.write_text("batch x\ncfl u2\n")
    code, out = run("batch", str(batch))
    assert code == 2 and out.splitlines() == [
        "status=error command=batch input=x code=ARITY_ERROR "
        "detail=\"unknown command 'batch'\"",
        "status=ok command=cfl input=u2 result=u2"]


@pytest.mark.parametrize("flags, expected", [
    (["--pretty"], ["[batch] error", "  input: {path}", "  code: ARITY_ERROR",
                    "  detail: cannot read batch file: No such file or directory"]),
    (["--format", "text"], ["error"]),
], ids=["pretty", "text"])
def test_batch_file_reports_honour_the_output_flags(tmp_path, flags, expected):
    path = tmp_path / "missing.batch"
    code, out = run("batch", str(path), *flags)
    assert code == 2 and out.splitlines() == [line.format(path=path) for line in expected]
    code, out = run("batch", *flags)
    assert code == 2 and out.splitlines() == (
        ["[batch] error", "  code: ARITY_ERROR", "  detail: batch <file>"]
        if flags == ["--pretty"] else ["error"])


def test_an_exception_in_a_handler_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise ValueError("not a kernel error")

    monkeypatch.setitem(cli.HANDLERS, "cfl", broken)
    code, out = run("cfl", "u3")
    assert code == 3 and out.count("\n") == 1
    assert re.fullmatch(r'status=error command=cfl input=u3 code=INTERNAL_ERROR '
                        r'detail="ValueError: not a kernel error \(at test_cli\.py:\d+\)"\n',
                        out)
    batch = tmp_path / "internal.batch"
    batch.write_text("cfl u3\norder-type {(0)}\ncfl u2\n# the worst status wins\nseed {(0)}\n")
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 3 and len(lines) == 4
    assert [re.search(r" code=(\w+)", line).group(1) if " code=" in line else "ok"
            for line in lines] == ["INTERNAL_ERROR", "ok", "INTERNAL_ERROR", "ARITY_ERROR"]
    assert capsys.readouterr().err == ""


# -- fuzzing: token strings over the grammar's alphabet -------------------------

TOKENS = ["(", ")", "{", "}", "[", "]", ";", ",", "@", "->", "^", "*", "+",
          "-1", "0", "1", "2", "3", "u1", "u2", "u3", "w",
          "l1", "l2", "le2", "l3", "pl2"]
TOKEN = re.compile(r"->|-?\d+|u\d+|[A-Za-z_]+|\S")
NEGATIVE_INTEGER = re.compile(r"-\d+")


def _worked_examples():
    """The arguments of each command's lines in the worked-examples batch."""
    out = {}
    for line in BATCH.read_text().splitlines():
        if line and not line.startswith("#"):
            command, *words = shlex.split(line)
            out.setdefault(command, []).append(words)
    return out


EXAMPLES = _worked_examples()


def _argparse_takes(word):
    # argparse owns what begins with "-": an option, or a usage error on argv
    return word.startswith("-") and not NEGATIVE_INTEGER.fullmatch(word)


fuzz_text = st.builds(
    lambda toks, sep: sep.join(toks),
    st.lists(st.sampled_from(TOKENS), max_size=12),
    st.sampled_from(["", " "]),
).filter(lambda s: not _argparse_takes(s))
fuzz_flags = st.lists(st.one_of(
    st.sampled_from(["--extended", "--regular", "--timings"]).map(lambda f: [f]),
    st.tuples(st.sampled_from(["--rep1", "--rep2", "--rep3", "--at", "--variant"]),
              fuzz_text).map(list),
    # bounds kept small: enumerate takes --bound, and a large one runs for seconds
    st.tuples(st.sampled_from(["--seed", "--bound"]), st.integers(-1, 3).map(str)).map(list),
), max_size=2)


@st.composite
def mutated(draw, words):
    """A worked example's words with tokens of its arguments replaced,
    inserted or deleted; options and their values stay as they are."""
    words = list(words)
    editable = [i for i, w in enumerate(words)
                if not w.startswith("--") and not (i and words[i - 1].startswith("--"))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(editable))
        toks = TOKEN.findall(words[i])
        j = draw(st.integers(0, len(toks)))
        toks[j:j + draw(st.integers(0, 1))] = draw(
            st.lists(st.sampled_from(TOKENS), max_size=2))
        words[i] = " ".join(toks)
        assume(not _argparse_takes(words[i]))
    return words


@pytest.mark.parametrize("command", sorted(set(HANDLERS) - {"check-lemmas"}))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_give_one_report(command, data):
    argv = [command, *data.draw(st.one_of(
        st.builds(lambda args, flags: args + [w for flag in flags for w in flag],
                  st.lists(fuzz_text, max_size=4), fuzz_flags),
        st.sampled_from(EXAMPLES[command]).flatmap(mutated),
    ))]
    code, out = run(*argv)
    assert code in (0, 1, 2), argv
    assert out.count("\n") == 1 and out.endswith("\n"), argv


# -- fuzzing: whole batch files ------------------------------------------------

EXAMPLE_LINES = [line for line in BATCH.read_text().splitlines()
                 if line and not line.startswith(("#", "check-lemmas"))]
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def batch_lines(draw):
    """A worked example, as it is, with -h, --help or bytes that are not
    UTF-8 mixed in, or commented out; or -h alone, or a blank line."""
    line = draw(st.sampled_from(EXAMPLE_LINES)).encode()
    help_flag = draw(st.sampled_from([b"-h", b"--help", b"--he"]))
    i = draw(st.integers(0, len(line)))
    return draw(st.sampled_from([
        line, line + b" " + help_flag, help_flag,
        line[:i] + draw(st.sampled_from(NOT_UTF8)) + line[i:],
        draw(st.sampled_from([b"#", b"  # ", b"#\xff"])) + line,
        draw(st.sampled_from([b"", b" ", b"\t  "])),
    ]))


def _exit_status(report):
    if report.startswith("status=ok "):
        return 0
    return 2 if re.search(r" code=(PARSE_ERROR|ARITY_ERROR) ", report) else 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lines=st.lists(batch_lines(), min_size=1, max_size=10))
def test_fuzzed_batch_files_give_one_report_per_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.batch"
    path.write_bytes(b"\n".join(lines) + b"\n")
    code, out = run("batch", str(path))
    texts = [raw.decode(errors="surrogateescape").strip() for raw in lines]
    reports = out.splitlines()
    assert len(reports) == len([t for t in texts if t and not t.startswith("#")])
    assert code in (0, 1, 2) and code == max(map(_exit_status, reports), default=0)


LE2_TWO = "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)))"
LE2_SIBLINGS = "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)); ((0 0)) -> ({(0)}, (0 0)))"


@pytest.mark.parametrize("argv, code, line", [
    (("enumerate", "le2", "--bound", "2"), 0,
     'status=ok command=enumerate input=le2 kind=le2 count=4 result="({} ; () -> ({}, (0))); '
     '({(0)} ; () -> ({}, (0))); ({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0))); '
     '({} ; () -> ({}, (0)); ((0)) -> ({(0)}, -1))"'),
    (("eval-desc", LE2_TWO, "u1", "u1*2", "--at", "((0))", "--extended"), 0,
     f'status=ok command=eval-desc input="{LE2_TWO} u1 u1*2" '
     'at="(((0)), {(0) (0 0)}, ((0) (0 0)))" result=u2*2'),
    (("descriptions", "({(0)} ; () -> ({}, (0)))"), 0,
     'status=ok command=descriptions input="({(0)} ; () -> ({}, (0)))" count=4 '
     'result="(1, (0)); (2, ((), {}, ((0))), disc, reg); (2, ((-1), {(0)}, ((0))), cont, irr); '
     '(2, ((), {(0)}, ((0))), ext, reg)"'),
    (("recover", "{}", "{() ((0))}", "u1"), 2,
     'status=error command=recover input="{} {() ((0))} u1" code=ARITY_ERROR '
     'detail="ARITY_ERROR: domain has 2 entries"'),
    (("validate", "pl2", "(({} ; () -> ({}, (0))) @ (1, (0), {}))"), 0,
     'status=ok command=validate input="pl2 (({} ; () -> ({}, (0))) @ (1, (0), {}))" '
     'kind=pl2 result="(({} ; () -> ({}, (0))) @ (1, (0), {}))"'),
    # level-2 domain sequences go by length, then Brouwer-Kleene: ((0 0)) before ((0))
    (("respects", LE2_SIBLINGS, "u1"), 2,
     f'status=error command=respects input="{LE2_SIBLINGS} u1" code=ARITY_ERROR '
     "detail=\"ARITY_ERROR: tree has 3 domain entries "
     "(canonical order [2:(), 2:((0 0)), 2:((0))])\""),
], ids=["enumerate-le2", "eval-desc-extended", "descriptions-le2-level1-part",
        "recover-too-few-ordinals", "validate-pl2-degree-1", "respects-canonical-order"])
def test_command_reports_as_recorded(argv, code, line):
    assert run(*argv) == (code, line + "\n")


S2_TOWER = "[[() -> ({}, (0))] [() -> ({}, (0)); ((0)) -> ({(0)}, (0 0))]]"
S3_TOWER = "[[((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))]]"
L3_ENTRY = "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))"


@pytest.mark.parametrize("argv, col", [
    (("recover", "{}", "{() ()}", "u2", "u1"), 5),
    (("recover", "{}", "{() ((0)) ()}", "u1", "u2", "u3"), 11),
    (("validate", "l2", "() -> ({}, (0)); ((0)) -> ({(0)}, (0 0)); "
      "((0)) -> ({(0)}, -1)"), 43),
    (("validate", "l3", f"{L3_ENTRY}; {L3_ENTRY}"), 50),
    (("validate", "le2", "({} ; () -> ({}, (0)); () -> ({}, (0)))"), 24),
])
def test_a_domain_sequence_listed_twice_is_a_parse_error(argv, col):
    code, out = run(*argv)
    assert code == 2 and out.count("\n") == 1 and "code=PARSE_ERROR" in out
    assert re.search(r"domain sequence \S+ listed twice, line 1, col (\d+)",
                     out).group(1) == str(col)


def test_batch_goes_on_after_a_domain_sequence_listed_twice(tmp_path):
    batch = tmp_path / "twice.batch"
    batch.write_text("recover {} \"{() ()}\" u2 u1\n"
                     f"validate l3 \"{L3_ENTRY}; {L3_ENTRY}\"\n"
                     "recover {} \"{() ((0))}\" u1 u1*2\n")
    code, out = run("batch", str(batch))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 3
    assert all("code=PARSE_ERROR" in line for line in lines[:2])
    assert lines[2].endswith('result="({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)))"')


@pytest.mark.parametrize("argv, variant", [
    (("s2", S2_TOWER, "u1", "u1+5"), "respects"),
    (("s3-structural", S3_TOWER), "plain"),
])
def test_only_the_documented_variants_are_accepted(argv, variant):
    code, out = run(*argv, "--variant", "bogus")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out
    assert "unknown variant 'bogus'" in out
    assert run(*argv)[1] == run(*argv, "--variant", variant)[1]


def test_s2_reads_no_unknown_variant_as_weak():
    # a node that the weak check accepts and the respects check rejects
    towers = grammar.parse_l2_tower(S2_TOWER)
    alphas = [grammar.parse_uord("u1"), grammar.parse_uord("u1+5")]
    assert level2.s2_member(towers, alphas, "weak")
    assert not level2.s2_member(towers, alphas, "respects")
    with pytest.raises(ArityError):
        level2.s2_member(towers, alphas, "bogus")
    with pytest.raises(ArityError):
        level3.s3_structural_member([], "bogus")


@pytest.mark.parametrize("argv", [
    ("s2", S2_TOWER, "u1", "u1+5"),
    ("s3-structural", S3_TOWER),
])
def test_an_empty_variant_is_an_unknown_variant(argv):
    code, out = run(*argv, "--variant", "")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out
    assert "unknown variant ''" in out


def test_an_empty_rep_flag_is_read_not_dropped():
    code, out = run("compare", "--rep1", "", "[(5), 3]", "[(5), 3]")
    assert code == 2 and out.count("\n") == 1 and "code=PARSE_ERROR" in out


@pytest.mark.parametrize("flags", [
    ("--rep1", "{(0)}", "--rep3", "X"),
    ("--rep1", "{(0)}", "--rep2", "({(0)} ; () -> ({}, (0)))"),
    ("--rep2", "", "--rep3", ""),
])
def test_compare_takes_one_rep_flag(flags):
    code, out = run("compare", *flags, "[(5), 3]", "[(5), 3]")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out
    assert "compare takes one of --rep1, --rep2, --rep3" in out


@pytest.mark.parametrize("point, message", [
    ("(2, [u1, (0), $])", "unexpected '$', line 1, col 15"),
    ("(1 [(0)])", "expected ',', got '[', line 1, col 4"),
    ("(3, [])", "rep2 element side is 1 or 2, got '3', line 1, col 2"),
], ids=["stray-character", "missing-comma", "bad-side"])
def test_rep2_points_are_read_by_the_grammar(point, message):
    code, out = run("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", point, "(2, [])")
    assert code == 2 and out.count("\n") == 1 and f"PARSE_ERROR: {message}" in out


# -- the one-pass reader against argparse --------------------------------------

READER_COMMANDS = ["cfl", "compare", "enumerate", "check-lemmas", "batch", "nosuch"]
READER_WORDS = [
    *READER_COMMANDS, *(f"--{name}" for name in cli._ARGV_FLAGS),
    "--seed=3", "--bou", "--he", "--help", "-h", "--", "-", "-1", "-x", "",
    "a b", "\u0663", "3_0", "3", " 3", "3.5", "x", "text", "structured", "xml",
    "u3", "{(0)}", "[(0)]",
]


def _by_argparse(words, batch_line):
    """The namespace argparse gives for words, or None if it raises."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_build_parser(batch_line=batch_line).parse_intermixed_args(words))
    except (ArityError, SystemExit):
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(words=st.one_of(
    st.lists(st.sampled_from(READER_WORDS), max_size=7),
    st.builds(lambda command, rest: [command, *(w for ws in rest for w in ws)],
              st.sampled_from(READER_COMMANDS),
              st.lists(st.one_of(st.tuples(st.sampled_from(READER_WORDS)),
                                 st.tuples(st.sampled_from(READER_WORDS),
                                           st.sampled_from(READER_WORDS))),
                       max_size=4)),
), batch_line=st.booleans())
def test_the_reader_agrees_with_argparse(words, batch_line):
    fast = _read_words(words, batch_line)
    slow = _by_argparse(words, batch_line)
    if fast is not None:
        assert vars(fast) == slow, words


@pytest.mark.parametrize("words", [
    ["cfl", "u3"], ["compare", "--rep1", "{(0)}", "[(0)]", "[(0), 1]"],
    ["enumerate", "l1", "--bound", "2", "--regular", "--bound", "3"],
    ["cfl", "u3", "--pretty", "--format", "text"], ["check-lemmas", "--seed", "\u0663"],
    ["batch", "", "--at", "a b"],
])
@pytest.mark.parametrize("batch_line", [False, True])
def test_the_reader_reads_the_usual_shape(words, batch_line):
    fast = _read_words(words, batch_line)
    if batch_line and "--pretty" in words:  # --pretty and --format are an argv's flags only
        assert fast is None and _by_argparse(words, batch_line) is None
    else:
        assert vars(fast) == _by_argparse(words, batch_line)


@pytest.mark.parametrize("argv, code, line", [
    (["cfl", "u3"], 0, "status=ok command=cfl input=u3 result=u3"),
    (["cfl", "u3", "--bou", "3"], 2, "status=error command=cfl input=u3 code=ARITY_ERROR "
     'detail="ARITY_ERROR: cfl takes no --bound"'),
])
def test_main_reads_sys_argv_when_given_none(argv, code, line, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["uctk", *argv])
    assert main(None) == code
    assert capsys.readouterr() == (line + "\n", "")


def _argparse_entered(run) -> set:
    """Which of argparse's parse and the parser's build run() enters, from an
    empty parser cache."""
    _build_parser.cache_clear()
    return _entered([argparse.ArgumentParser.parse_known_args, _build_parser.__wrapped__], run)


def test_well_formed_words_never_reach_argparse(tmp_path):
    batch = tmp_path / "well_formed.batch"
    batch.write_text('cfl u3\ncompare --rep1 "{(0)}" "[(0)]" "[(0), 1]"\n'
                     'enumerate l1 --bound 2\n')
    for argv in [["cfl", "u3"], ["compare", "--rep1", "{(0)}", "[(0)]", "[(0), 1]"],
                 ["eval-desc", "({} ; () -> ({}, (0)))", "u1", "--at", "()"],
                 ["enumerate", "l1", "--bound", "2"], ["batch", str(batch)]]:
        assert not _argparse_entered(lambda: run(*argv)), argv


@pytest.mark.parametrize("argv", [["-h"], ["cfl", "u3", "--seed=3"],
                                  ["cfl", "u3", "--bou", "3"], ["cfl", "--", "u3"]])
def test_other_spellings_go_to_argparse(argv, tmp_path):
    def run_argv():
        try:
            run(*argv)
        except SystemExit:
            pass

    assert _argparse_entered(run_argv) == {"ArgumentParser.parse_known_args", "_build_parser"}
    batch = tmp_path / "spelling.batch"
    batch.write_text(shlex.join(argv) + "\n")
    assert _argparse_entered(lambda: run("batch", str(batch))) == \
        {"ArgumentParser.parse_known_args", "_build_parser"}


def test_a_well_formed_argv_imports_no_argparse():
    script = ("import sys\nimport uctk.cli\nuctk.cli.main(['cfl', 'u3'])\n"
              "assert 'argparse' not in sys.modules\n"
              "uctk.cli.main(['cfl', 'u3', '--bou', '3'])\n"
              "assert 'argparse' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
