"""The cli-batch benchmark judges order-type, cfl, shift-sup and recover
answers against references it imports from uctk, and reads the ``result=``
field of each report.  A name it imports that goes away, or a field it reads
that changes, would show only as wrong ops of a benchmark run; judging the
first lines of its stream here finds out."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LINES = 400


def test_cli_batch_judge_finds_no_valid_line_wrong(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    batch = workloads.CliBatch(1)
    lines = batch.lines[:LINES]
    kinds = {check[0] for _, check in lines if check is not None}
    assert {"order-type", "cfl", "shift-sup", "recover", "malformed"} <= kinds
    wrong = []
    for argv, check in lines:
        if check is not None and check[0] == "malformed":
            continue
        verdict = batch._judge((argv, check), batch._call(argv)[1])
        if verdict is not None:
            wrong.append((argv, verdict))
    assert not wrong
