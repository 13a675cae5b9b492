import argparse
import io
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uctk import cli
from uctk.cli import HANDLERS, MAX_BOUND, _build_parser, _quote, main
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


def test_compare_rep3():
    l3 = "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))"
    code, out = run("compare", "--rep3", l3, "[(0), 3, -1]", "[(0)]")
    assert code == 0 and "result=less" in out


def test_pretty_output():
    code, out = run("cfl", "u3", "--pretty")
    assert code == 0 and "[cfl] ok" in out and "result: u3" in out


def test_enumerate_bound_below_one_is_an_arity_error():
    code, out = run("enumerate", "l1", "--bound", "0")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out


def test_check_lemmas_bound_below_one_is_an_arity_error():
    code, out = run("check-lemmas", "--bound", "0")
    assert code == 2 and out.count("\n") == 1 and "code=ARITY_ERROR" in out


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


@pytest.mark.parametrize("argv, exit_code, code", [
    (("validate", "l2", "() -> ({}, (0)); ((0) -1) -> ({(0)}, (0 0))"),
     1, "DOMAIN_NOT_TREE"),
    (("recover", "{}", "{() ((0) -1)}", "u1", "u1"), 1, "DOMAIN_NOT_TREE"),
    (("s1", "[{(0)}]", "u1"), 1, "INVALID_ELEMENT"),
    (("compare", "[(0)]", "[5]"), 1, "INVALID_ELEMENT"),
    (("compare", "--rep1", "{(0)}", "[(0), w]", "[(0)]"), 1, "INVALID_ELEMENT"),
    (("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", "(1, [(0 0)])", "(2, [])"),
     1, "INVALID_ELEMENT"),
    (("compare", "--rep2", "({(0)} ; () -> ({}, (0)))", "(x, [(0 0)])", "(2, [])"),
     2, "PARSE_ERROR"),
])
def test_malformed_input_is_one_coded_report(argv, exit_code, code):
    got, out = run(*argv)
    assert got == exit_code and out.count("\n") == 1 and f"code={code}" in out


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


def test_check_lemmas_timings_are_opt_in():
    _, plain = run("check-lemmas", "--bound", "1")
    code, timed = run("check-lemmas", "--bound", "1", "--timings")
    seconds = re.compile(r" suite(\d+)_seconds=\d+\.\d{3}(?=\s)")
    assert code == 0
    assert [int(i) for i in seconds.findall(timed)] == list(range(11))
    assert seconds.sub("", timed) == plain


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
    assert captured.err.startswith(_build_parser().format_usage())
    assert captured.err.endswith("uctk: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [("nosuch", "u3"), ("cfl", "u3", "--seed", "x"), ()])
def test_argv_usage_error_exits_as_argparse_does(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.startswith(_build_parser().format_usage())
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


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("cfl", "u3", "-h")])
def test_help_on_argv_prints_the_help(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    assert capsys.readouterr().out == _build_parser().format_help()


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


def test_batch_line_that_is_not_utf8_is_a_parse_error(tmp_path):
    batch = tmp_path / "bytes.batch"
    batch.write_bytes(b"cfl u3\n\xff\xfe\ncfl \xc3 u3\n# \xff\ncfl u2\n")
    code, out = run("batch", str(batch))
    assert code == 2 and out.splitlines() == [
        "status=ok command=cfl input=u3 result=u3",
        r'status=error command=batch input=\xff\xfe code=PARSE_ERROR '
        r'detail="PARSE_ERROR: not UTF-8, line 1, col 1"',
        r'status=error command=batch input="cfl \xc3 u3" code=PARSE_ERROR '
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


def test_quote_escapes_only_values_with_control_characters():
    assert _quote("u3") == "u3" and _quote("u1 + 2") == '"u1 + 2"' and _quote("") == '""'
    assert _quote('a\\b"c') == 'a\\b"c'  # printable values are left as they are
    assert _quote('a\\"\x07\n\u2028') == r'"a\\\"\x07\n\u2028"'


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
    def broken(args, flags):
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
    st.sampled_from(["--extended", "--regular"]).map(lambda f: [f]),
    st.tuples(st.sampled_from(["--rep1", "--rep2", "--rep3", "--at", "--variant"]),
              fuzz_text).map(list),
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
