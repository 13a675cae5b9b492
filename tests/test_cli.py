import io
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from uctk.cli import main
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
