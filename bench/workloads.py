"""The three workloads.  Each builds its inputs from the seed, runs one pass
of fixed work per ``run_pass`` call, and checks every answer against an
independent reference.

A pass returns a ``Pass``: its wall time, one latency sample per op (the
same ops in the same order on every pass), the host-speed units timed
between ops (see hostspeed.py), and which ops failed, by their index in the
pass.  An op *fails* when the program gave no single report or a wrong
answer; ``wrong`` counts the failures that are not a recorded known defect,
and any of those makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pickle
import random
import shlex
import subprocess
import sys
import time
from array import array
from pathlib import Path
from dataclasses import dataclass

from hostspeed import HostSpeed
from spec import SUITES

clock = time.perf_counter


@dataclass
class Pass:
    seconds: float
    samples_ms: array  # one latency per op; an array keeps peak RSS off the pass count
    attempted: int     # ops in the pass
    failures: dict     # index of a failed op -> what failed
    wrong: int         # failures that are not a recorded known defect
    ticks: list        # hostspeed units timed between the ops


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


# -- lemma-suites ------------------------------------------------------------------

class LemmaSuites:
    """One op is one lemma case, i.e. one SuiteResult.check call.  Cases are
    not separate calls, so a case's latency is the time since the previous
    check in its suite (or since the suite began): the work of building and
    checking that case.  ``attempted`` and ``failed`` count suites, because a
    SuiteResult keeps at most five failures."""

    BOUND = 4

    def __init__(self, seed: int):
        from uctk import lemmas

        self.lemmas = lemmas
        self.seed = seed
        self.inputs_digest = digest([f"check_lemmas(bound={self.BOUND}, seed={seed})"])
        self.suite_cases = {}
        self.speed = HostSpeed()
        self._case_ms = array("d")
        self._last = 0.0
        for s in SUITES:   # mark where each suite starts; 11 calls a pass
            name = f"suite_{s}"
            setattr(lemmas, name, self._marked(getattr(lemmas, name)))
        check = lemmas.SuiteResult.check

        def timed_check(result, ok, detail):
            now = clock()
            self._case_ms.append(1000.0 * (now - self._last))
            self._last = clock() if self.speed.tick(len(self._case_ms)) else now
            return check(result, ok, detail)

        lemmas.SuiteResult.check = timed_check

    def _marked(self, fn):
        def wrapper(*args, **kwargs):
            self._last = clock()
            return fn(*args, **kwargs)
        return wrapper

    def run_pass(self) -> Pass:
        self._case_ms = array("d")
        self.speed.reset()
        t0 = clock()
        results = self.lemmas.check_lemmas(bound=self.BOUND, seed=self.seed)
        seconds = clock() - t0
        if len(results) != len(SUITES):
            raise RuntimeError("check_lemmas no longer runs the eleven known suites")
        self.suite_cases = {s: r.cases for s, r in zip(SUITES, results)}
        failures = {i: f"suite {s} failed" for i, (s, r) in enumerate(zip(SUITES, results))
                    if not r.passed}
        return Pass(seconds, self._case_ms, len(results), failures,
                    wrong=len(failures), ticks=self.speed.ticks)


# -- recover ---------------------------------------------------------------------------

def recover_queries(seed: int, six_sample: int) -> list:
    """The recover workload's queries, in a seeded order."""
    from uctk import level2
    from uctk.ordinals import UOrd

    rng = random.Random(seed)
    small, six = [], []
    for tree in level2.enumerate_le2_trees(6):
        values = level2.generate_respecting_tuple(tree)
        if values is not None:
            (small if tree.cardinality() <= 5 else six).append((tree, values))
    queries = []
    for tree, values in small + rng.sample(six, six_sample):
        shape = tree.t2.dom()
        last = (2, shape[-1])
        miss = {**values, last: values[last] + UOrd.from_nat(1)}
        queries.append((tree.t1, shape, values, tree))
        queries.append((tree.t1, shape, miss, None))
    rng.shuffle(queries)
    return queries


class Recover:
    """Every realizable level <=2 tree with at most 5 domain elements plus a
    seeded sample of 6-element ones.  Each gives a hit (its generated
    respecting tuple, which must recover exactly that tree) and a miss (the
    last level-2 value made a successor, which must raise NoTreeFound after
    the search exhausts every candidate)."""

    SIX_SAMPLE = 64

    def __init__(self, seed: int):
        from uctk import level2
        from uctk.errors import NoTreeFound

        import textgen

        self.level2 = level2
        self.no_tree = NoTreeFound
        self.speed = HostSpeed()
        # A child process enumerates every tree up to 6 domain elements, so
        # that the list it builds does not set this process's peak RSS.
        child = subprocess.run([sys.executable, __file__, "recover", str(seed)],
                               capture_output=True, check=True, timeout=300)
        self.queries = pickle.loads(child.stdout)
        self.inputs_digest = digest(
            " ".join([textgen.p_l1(t1.nodes), *map(textgen.p_domseq, shape),
                      *(textgen.p_uord(textgen.from_uord(v[k])) for k in sorted(v))])
            for t1, shape, v, _ in self.queries)

    def run_pass(self) -> Pass:
        recover = self.level2.recover_tree
        samples, outcomes = array("d"), []
        self.speed.reset()
        start = clock()
        for t1, shape, values, _ in self.queries:
            t0 = clock()
            try:
                got = recover(t1, shape, values)
            except self.no_tree:
                got = None
            except Exception as e:  # recorded as a failed op; the run goes on
                got = e
            samples.append(1000.0 * (clock() - t0))
            outcomes.append(got)
            self.speed.tick(len(samples))
        seconds = clock() - start
        failures = {}
        for i, ((*_, expected), got) in enumerate(zip(self.queries, outcomes)):
            if isinstance(got, Exception):
                failures[i] = f"recover raised {type(got).__name__}"
            elif got != expected:
                failures[i] = "recover: wrong tree" if expected else "recover: miss found a tree"
        return Pass(seconds, samples, len(self.queries), failures,
                    wrong=len(failures), ticks=self.speed.ticks)


# -- cli-batch ----------------------------------------------------------------------------

# Exceptions seen escaping cli.main on malformed lines of textgen's kinds
# when the benchmark was written: ValueError from
# IndexMap on a non-increasing map, from natural_value on "[(0), w]" and from
# int() on a mutated degree token; TypeError from entry_compare on a node
# against a natural; SystemExit from argparse when a mutated argument begins
# with "-".
# Each is a failed op.  The same escape on a valid line, or any other escape,
# is an unexpected defect and makes the run incorrect.
KNOWN_ESCAPES = {f"escaped {name}" for name in ("ValueError", "TypeError", "SystemExit")}


class CliBatch:
    """A closed loop with one client: the next line starts when the last
    returns.  Each line goes through cli.main(argv) in process and must print
    exactly one report line and exit 0, 1 or 2.  order-type, cfl, shift-sup
    and recover answers are checked against order_type_oracle, cf_oracle,
    shift_sup_by_decomposition and the generating tree; later passes must
    repeat the first pass byte for byte."""

    LINES = 2000

    def __init__(self, seed: int):
        from uctk import cli

        import textgen

        self.cli = cli
        self.lines = textgen.LineGenerator(random.Random(seed)).stream(self.LINES)
        self.inputs_digest = digest(shlex.join(argv) for argv, _ in self.lines)
        self.op_labels = ["malformed" if check and check[0] == "malformed" else argv[0]
                          for argv, check in self.lines]
        self.speed = HostSpeed()
        self.first = None            # outcomes of the first pass
        self.first_verdicts = None

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as e:
                code, escaped = e.code, "SystemExit"
            except Exception as e:  # recorded as a failed op; the run goes on
                code, escaped = None, type(e).__name__
            ms = 1000.0 * (clock() - t0)
        return ms, (out.getvalue(), code, escaped)

    def run_pass(self) -> Pass:
        samples, outcomes = array("d"), []
        self.speed.reset()
        start = clock()
        for argv, _ in self.lines:
            ms, outcome = self._call(argv)
            samples.append(ms)
            outcomes.append(outcome)
            self.speed.tick(len(samples))
        seconds = clock() - start
        if self.first is None:
            self.first = outcomes
            self.first_verdicts = [self._judge(line, o) for line, o in zip(self.lines, outcomes)]
        verdicts = [v if o == f else "output changed between passes"
                    for v, o, f in zip(self.first_verdicts, outcomes, self.first)]
        failures = {}
        wrong = 0
        for i, ((argv, check), verdict) in enumerate(zip(self.lines, verdicts)):
            if verdict is None:
                continue
            malformed = check is not None and check[0] == "malformed"
            failures[i] = f"{argv[0]}: {verdict}{' (malformed)' if malformed else ''}"
            if not (malformed and verdict in KNOWN_ESCAPES):
                wrong += 1
        return Pass(seconds, samples, len(self.lines), failures, wrong, self.speed.ticks)

    def _judge(self, line, outcome):
        argv, check = line
        text, code, escaped = outcome
        if escaped is not None:
            return f"escaped {escaped}"
        reports = text.splitlines()
        if len(reports) != 1 or code not in (0, 1, 2):
            return f"{len(reports)} report lines, exit {code}"
        if check is None or check[0] == "malformed":
            return None
        fields = dict(tok.split("=", 1) for tok in shlex.split(reports[0]))
        if fields.get("status") != "ok":
            return f"status {fields.get('status')} on a valid {check[0]} line"
        if not _agrees(check, fields["result"]):
            return f"disagrees with the {check[0]} reference"
        return None


def _agrees(check, result) -> bool:
    from uctk import grammar, lemmas
    from uctk.level1 import Level1Tree
    from uctk.ordinals import IndexMap, shift_sup_by_decomposition

    import textgen

    kind, data = check
    if kind == "order-type":
        expected = lemmas.order_type_oracle(Level1Tree(frozenset(data)))
        return grammar.parse_ctbl(result).compare(expected) == 0
    if kind == "cfl":
        return result == str(lemmas.cf_oracle(textgen.to_uord(data)))
    if kind == "shift-sup":
        image, b = data
        sigma = IndexMap(len(image), max(image), image)
        expected = shift_sup_by_decomposition(sigma, textgen.to_uord(b))
        return grammar.parse_uord(result).compare(expected) == 0
    if kind == "recover":
        return grammar.parse_le2(result) == data
    raise ValueError(kind)


WORKLOADS = {"lemma-suites": LemmaSuites, "recover": Recover, "cli-batch": CliBatch}


if __name__ == "__main__":   # workloads.py recover SEED: the queries, pickled, on stdout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if sys.argv[1:2] != ["recover"]:
        sys.exit("usage: workloads.py recover SEED")
    sys.stdout.buffer.write(pickle.dumps(recover_queries(int(sys.argv[2]), Recover.SIX_SAMPLE)))
