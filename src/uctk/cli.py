"""uctk command line front-end.

One structured report per line by default (key=value pairs, deterministic
field order); --pretty switches to a human-readable block.  Exit status: 0
ok, 1 domain rejection, 2 usage or parse error, 3 internal error, 4 no
report written: stdout is closed, or its reader has gone.
"""

from __future__ import annotations

import functools
import os
import shlex
import sys
from types import SimpleNamespace

from . import analysis, bk, grammar, level1, level2, level3, ordinals
from .bk import MINUS_ONE
from .errors import ArityError, InvalidElement, KernelError, ParseError
from .value import format_detail


def _visible(value) -> str:
    """value with each non-printable character written as its repr escape
    (\\t, \\x1b, \\u2028, ...); a printable value is returned as it is."""
    value = str(value)
    if value.isprintable():
        return value
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in value)


def _quote(value) -> str:
    """value as one field of the structured line: bare when it is nonempty,
    printable and holds no space, '"' or '\\'; else in double quotes, with
    '\\' and '"' backslash-escaped and non-printable characters as in
    ``_visible``, so that shlex.split gives each printable value back."""
    value = str(value)
    if value and value.isprintable() and " " not in value and '"' not in value \
            and "\\" not in value:
        return value
    return '"' + _visible(value.replace("\\", "\\\\").replace('"', '\\"')) + '"'


class Report:
    def __init__(self, command: str, status: str, **fields):
        self.command = command
        self.status = status
        self.fields = fields

    @property
    def exit_code(self) -> int:
        if self.status == "ok":
            return 0
        code = self.fields.get("code")
        if code == "INTERNAL_ERROR":
            return 3
        return 2 if code in ("PARSE_ERROR", "ARITY_ERROR") else 1

    def line(self) -> str:
        parts = [f"status={self.status}", f"command={self.command}"]
        for k, v in self.fields.items():
            parts.append(f"{k}={_quote(v)}")
        return " ".join(parts)

    def pretty(self) -> str:
        lines = [f"[{self.command}] {self.status}"]
        for k, v in self.fields.items():
            lines.append(f"  {k}: {_visible(v)}")
        return "\n".join(lines)


def _verdict(command: str, verdict, **fields) -> Report:
    """The report of a membership or respect check; a rejection carries
    the clause it failed and its detail."""
    if verdict:
        return Report(command, "ok", verdict="accepted", **fields)
    return Report(command, "rejected", verdict="rejected", clause=verdict.clause,
                  detail=verdict.detail, **fields)


# -- argument decoding helpers ---------------------------------------------------

def _need(args, n, usage):
    if len(args) != n:
        raise ArityError(f"expected {n} argument(s): {usage}")


def _tuple2_from_args(le2, ordinals_text):
    dom = le2.dom()
    if len(ordinals_text) != len(dom):
        raise ArityError(f"tree has {len(dom)} domain entries "
                         f"(canonical order {format_detail(dom)})")
    return {k: grammar.parse_uord(t) for k, t in zip(dom, ordinals_text)}


# The largest --bound each command takes: the largest that ran in under
# 10 s on a 2-core host (4.5 s, 2.8 s and 8.4 s); the next bound up took
# 18 s, 55 s (at 620 MB) and 17 s, and each step multiplies the work.
MAX_BOUND = {"enumerate l1": 11, "enumerate le2": 6, "check-lemmas": 10}


def _bound(bound: int, name: str) -> int:
    """bound, if it is 1 to MAX_BOUND[name]."""
    if bound < 1:
        raise ArityError(f"--bound must be at least 1, got {bound}")
    if bound > MAX_BOUND[name]:
        raise ArityError(f"--bound for {name} is at most {MAX_BOUND[name]}, got {bound}")
    return bound


# -- command handlers --------------------------------------------------------------

def cmd_validate(args):
    _need(args, 2, "validate <kind:l1|l2|le2|l3|pl2> <text>")
    kind, text = args
    parser = {"l1": grammar.parse_l1, "l2": grammar.parse_l2,
              "le2": grammar.parse_le2, "l3": grammar.parse_l3,
              "pl2": grammar.parse_pl2}.get(kind)
    if parser is None:
        raise ArityError(f"unknown kind {kind!r}")
    obj = parser(text)
    return Report("validate", "ok", kind=kind, result=str(obj))


def cmd_regular(args):
    _need(args, 1, "regular <level-1 tree | level-3 tree>")
    text = args[0]
    if text.lstrip().startswith("{"):
        tree = grammar.parse_l1(text)
        return _verdict("regular", level1.is_regular(tree), tree=str(tree))
    tree = grammar.parse_l3(text)
    return _verdict("regular", level3.is_regular_level3(tree), tree=str(tree))


_ORDERINGS = {-1: "less", 0: "equal", 1: "greater"}


def cmd_compare(args, *, rep1=None, rep2=None, rep3=None):
    given = [f"--rep{i}" for i, tree in enumerate((rep1, rep2, rep3), 1) if tree is not None]
    if len(given) > 1:
        raise ArityError(f"compare takes one of --rep1, --rep2, --rep3, got {' '.join(given)}")
    if rep1 is not None:
        _need(args, 2, "compare --rep1 TREE [node] / [node, n]")
        tree = grammar.parse_l1(rep1)
        elts = [_rep1_elt(grammar.parse_rep_seq(t), t) for t in args]
        c = level1.rep_compare(tree, *elts)
    elif rep2 is not None:
        _need(args, 2, "compare --rep2 LE2 (d, [entries]) x2")
        le2 = grammar.parse_le2(rep2)
        c = level2.rep2_compare(le2, *map(_rep2_elt, args))
    elif rep3 is not None:
        _need(args, 2, "compare --rep3 L3 [entries] x2")
        tree = grammar.parse_l3(rep3)
        elts = [level3.Rep3Element(grammar.parse_rep_seq(t)) for t in args]
        c = level3.rep3_compare(tree, *elts)
    else:
        _need(args, 2, "compare SEQ SEQ")
        c = bk.bk(grammar.parse_rep_seq(args[0]), grammar.parse_rep_seq(args[1]))
    return Report("compare", "ok", result=_ORDERINGS[c])


def _rep1_elt(seq, text):
    """The level-1 representation point that the entries seq, read from
    text, spell: [node] or [node, n]."""
    if len(seq) == 1 and isinstance(seq[0], tuple):
        return level1.Rep1Element(seq[0], None)
    if len(seq) == 2 and isinstance(seq[0], tuple):
        idx = seq[1]
        if isinstance(idx, ordinals.UOrd):
            if not (idx.is_countable() and idx.tail.is_natural()):
                raise InvalidElement(text, "index is not a natural")
            idx = idx.tail.natural_value()
        elif idx != MINUS_ONE:
            raise InvalidElement(text, "index is not a natural")
        return level1.Rep1Element(seq[0], idx)
    raise ParseError(f"not a representation point: {text}", 1, 1)


def _rep2_elt(text):
    """The level <=2 point that text spells, unchecked against the tree:
    ``level2.rep2_compare`` checks it."""
    d, seq = grammar.parse_rep2_point(text)
    return level2.Rep2Element(d, _rep1_elt(seq, text) if d == 1 else seq)


def cmd_order_type(args):
    _need(args, 1, "order-type <level-1 tree>")
    tree = grammar.parse_l1(args[0])
    return Report("order-type", "ok", result=grammar.format_ctbl(level1.rep_order_type(tree)))


def cmd_descriptions(args):
    _need(args, 1, "descriptions <level-1 tree | level <=2 tree>")
    text = args[0]
    if text.lstrip().startswith("{"):
        tree = grammar.parse_l1(text)
        descs = [grammar.format_node(d) for d in level1.descriptions(tree)]
        return Report("descriptions", "ok", count=len(descs), result=" ".join(descs))
    le2 = grammar.parse_le2(text)
    items = level2.extended_descriptions(le2)
    parts = []
    for d, desc in items:
        if d == 1:
            parts.append(f"(1, {grammar.format_node(desc)})")
        else:
            kind = "ext" if desc.extended else \
                ("cont" if desc.is_continuous() else "disc")
            reg = "reg" if level2.is_regular_description((d, desc)) else "irr"
            parts.append(f"(2, {desc}, {kind}, {reg})")
    return Report("descriptions", "ok", count=len(parts), result="; ".join(parts))


def cmd_seed(args):
    _need(args, 2, "seed <level-1 tree> <node or ()>")
    tree = grammar.parse_l1(args[0])
    d = grammar.parse_node(args[1])
    return Report("seed", "ok", result=grammar.format_uord(level1.seed(tree, d)))


def cmd_factorings(args):
    _need(args, 2, "factorings <P> <W>")
    p = grammar.parse_l1(args[0])
    w = grammar.parse_l1(args[1])
    maps = level1.factorings(p, w)
    return Report("factorings", "ok", count=len(maps),
                  exists=str(level1.factor_exists(p, w)).lower(),
                  strict=str(level1.strict_factor_exists(p, w)).lower(),
                  result="; ".join(str(m) for m in maps))


def cmd_tower(args):
    _need(args, 1, "tower <[T0 T1 ...]>")
    trees = grammar.parse_tower(args[0])
    tower = level1.validate_tower(trees)
    flagstr = " ".join("regular" if f else "non-regular" for f in tower.regular_flags)
    return Report("tower", "ok", length=len(tower), result=flagstr or "empty")


def cmd_s1(args):
    if not args:
        raise ArityError("s1 <[T1 ...]> [ordinals...]")
    trees = grammar.parse_tower(args[0])
    alphas = [grammar.parse_uord(t) for t in args[1:]]
    for a in alphas:
        if not a.is_countable():
            raise InvalidElement("S1 ordinals are countable", a)
    return _verdict("s1", level1.s1_member(trees, alphas))


def cmd_analyze(args):
    _need(args, 2, "analyze <ordinal> <level-1 tree>")
    b = grammar.parse_uord(args[0])
    tree = grammar.parse_l1(args[1])
    an = analysis.analyze(b, tree)
    return Report(
        "analyze", "ok",
        signature=" ".join(grammar.format_node(w) for w in an.signature),
        seeds=" ".join(grammar.format_uord(s) for s in an.signature_seeds),
        continuous=str(an.essentially_continuous).lower(),
        ucf=str(an.uniform_cofinality),
        tower=grammar.format_tower(an.induced_tower.trees),
        factoring=str(an.factoring_map),
        approximations="; ".join(grammar.format_uord(x)
                                 for x in an.approximation_sequence),
        potential=str(an.potential_tower),
    )


def cmd_cfl(args):
    _need(args, 1, "cfl <ordinal>")
    return Report("cfl", "ok", result=str(ordinals.cf_l(grammar.parse_uord(args[0]))))


def cmd_shift(args, sup):
    _need(args, 2, "shift <index map> <ordinal>")
    sigma = grammar.parse_index_map(args[0])
    b = grammar.parse_uord(args[1])
    out = ordinals.apply_shift_sup(sigma, b) if sup else ordinals.apply_shift(sigma, b)
    return Report("shift-sup" if sup else "shift", "ok", result=grammar.format_uord(out))


def cmd_respects(args, weak):
    if len(args) < 1:
        raise ArityError("respects <le2 tree> <ordinals in canonical dom order...>")
    le2 = grammar.parse_le2(args[0])
    t = _tuple2_from_args(le2, args[1:])
    fn = level2.weakly_respects_le2 if weak else level2.respects_le2
    return _verdict("weak-respects" if weak else "respects", fn(le2, t))


def cmd_eval_desc(args, *, at=None, extended=False):
    if len(args) < 2:
        raise ArityError("eval-desc <le2 tree> <ordinals...> --at Q [--extended]")
    if at is None:
        raise ArityError("eval-desc requires --at")
    le2 = grammar.parse_le2(args[0])
    t = _tuple2_from_args(le2, args[1:])
    desc = level2.description(le2.t2, grammar.parse_domseq(at), extended)
    val = level2.evaluate_description(le2, t, (2, desc), check=True)
    return Report("eval-desc", "ok", at=str(desc), result=grammar.format_uord(val))


def cmd_recover(args):
    if len(args) < 2:
        raise ArityError("recover <level-1 tree> <domain shape> <ordinals...>")
    t1 = grammar.parse_l1(args[0])
    shape = sorted(grammar.parse_shape(args[1]), key=level2.dom_sort_key)
    ordered = [(1, p) for p in t1.bk_sorted()] + [(2, q) for q in shape]
    texts = args[2:]
    if len(texts) != len(ordered):
        raise ArityError(f"domain has {len(ordered)} entries")
    t = {k: grammar.parse_uord(x) for k, x in zip(ordered, texts)}
    tree = level2.recover_tree(t1, shape, t)
    return Report("recover", "ok", result=str(tree))


def cmd_s2(args, *, variant="respects"):
    if not args:
        raise ArityError("s2 <[[entries] ...]> [ordinals...] [--variant respects|weak]")
    towers = grammar.parse_l2_tower(args[0])
    alphas = [grammar.parse_uord(t) for t in args[1:]]
    return _verdict("s2", level2.s2_member(towers, alphas, variant), variant=variant)


def cmd_ucf(args):
    _need(args, 1, "ucf <partial le2 tree>")
    pt = grammar.parse_pl2(args[0])
    value = level3.ucf(pt)
    if value == (0, MINUS_ONE):
        return Report("ucf", "ok", result="(0, -1)")
    d, desc = value
    if d == 1:
        return Report("ucf", "ok", result=f"(1, {grammar.format_node(desc)})")
    return Report("ucf", "ok", result=f"(2, {desc})",
                  extended=str(desc.extended).lower())


def cmd_cf3(args):
    _need(args, 1, "cf3 <partial le2 tree>")
    return Report("cf3", "ok", result=str(level3.cf3(grammar.parse_pl2(args[0]))))


def cmd_complete(args):
    _need(args, 1, "complete <partial le2 tree>")
    pt = grammar.parse_pl2(args[0])
    comps = level3.completion_le2(pt)
    return Report("complete", "ok", count=len(comps),
                  result="; ".join(str(c) for c in comps))


def cmd_s3_structural(args, *, variant="plain"):
    _need(args, 1, "s3-structural <[[l3 entries] ...]> [--variant minus|plain]")
    towers = grammar.parse_l3_tower(args[0])
    v = level3.s3_structural_member(towers, variant)
    return _verdict("s3-structural", v, detail=v.detail, ordinal_clause="not-evaluated")


def cmd_enumerate(args, *, bound=3, regular=False):
    _need(args, 1, "enumerate <l1|le2> [--bound N] [--regular]")
    kind = args[0]
    if kind not in ("l1", "le2"):
        raise ArityError(f"unknown kind {kind!r}")
    bound = _bound(bound, f"enumerate {kind}")
    if kind == "l1":
        trees = level1.enumerate_level1_up_to(bound, regular_only=regular)
    elif regular:  # --regular keeps the regular level-1 trees; it has no level <=2 reading
        raise ArityError("enumerate le2 takes no --regular")
    else:
        trees = level2.enumerate_le2_trees(bound)
    return Report("enumerate", "ok", kind=kind, count=len(trees),
                  result="; ".join(str(t) for t in trees))


def cmd_check_lemmas(args, *, bound=4, seed=0, timings=False):
    _need(args, 0, "check-lemmas [--bound N] [--seed S] [--timings]")
    from . import lemmas  # only this command runs the suites; others start faster

    bound = _bound(bound, "check-lemmas")
    results = lemmas.check_lemmas(bound=bound, seed=seed)
    all_ok = all(r.passed for r in results)
    fields = {}
    for i, (r, suite) in enumerate(zip(results, lemmas.SUITES.values())):
        fields[f"suite{i}"] = r.line()
        if timings:
            fields[f"suite{i}_seconds"] = f"{r.seconds:.3f}"
            for name, size in suite.size(bound, seed).items():
                if name != "seed":
                    fields[f"suite{i}_{name}"] = size
    return Report("check-lemmas", "ok" if all_ok else "rejected",
                  suites=len(results),
                  cases=sum(r.cases for r in results), **fields)


HANDLERS = {
    "validate": cmd_validate,
    "regular": cmd_regular,
    "compare": cmd_compare,
    "order-type": cmd_order_type,
    "descriptions": cmd_descriptions,
    "seed": cmd_seed,
    "factorings": cmd_factorings,
    "tower": cmd_tower,
    "s1": cmd_s1,
    "analyze": cmd_analyze,
    "cfl": cmd_cfl,
    "shift": lambda a: cmd_shift(a, sup=False),
    "shift-sup": lambda a: cmd_shift(a, sup=True),
    "respects": lambda a: cmd_respects(a, weak=False),
    "weak-respects": lambda a: cmd_respects(a, weak=True),
    "eval-desc": cmd_eval_desc,
    "recover": cmd_recover,
    "s2": cmd_s2,
    "ucf": cmd_ucf,
    "cf3": cmd_cf3,
    "complete": cmd_complete,
    "s3-structural": cmd_s3_structural,
    "enumerate": cmd_enumerate,
    "check-lemmas": cmd_check_lemmas,
}


# The command flags and the type of each one's value (None: a switch).  A handler
# takes those it reads as keyword-only parameters, with their defaults; a flag
# that is not given parses as None and is not passed on.
COMMAND_FLAGS = {"seed": int, "bound": int, "variant": str, "regular": None,
                 "extended": None, "timings": None, "at": str, "rep1": str,
                 "rep2": str, "rep3": str}


# An argv's flags; a batch line takes COMMAND_FLAGS only.
_ARGV_FLAGS = {"pretty": None, "format": str, **COMMAND_FLAGS}


def _read_words(words, batch_line: bool):
    """The namespace ``_build_parser(batch_line)`` gives for words, read in
    one pass; None unless each word is a positional (no leading '-') or a
    whole --name of that parser's flags, each valued flag's next word has no
    leading '-' and converts (--format: text or structured), and the first
    positional is a command or batch.  Help, usage errors and every other
    spelling (--name=value, --, abbreviations) are left to argparse."""
    kinds = COMMAND_FLAGS if batch_line else _ARGV_FLAGS
    flags = dict.fromkeys(kinds)
    if not batch_line:
        flags["pretty"] = False
    positionals = []
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
        elif not word.startswith("--") or (name := word[2:]) not in kinds:
            return None
        elif kinds[name] is None:
            flags[name] = True
        else:
            value = next(words, "-")
            if value.startswith("-") or name == "format" and value not in ("text", "structured"):
                return None
            try:
                flags[name] = kinds[name](value)
            except ValueError:
                return None
    if not positionals or positionals[0] not in HANDLERS and positionals[0] != "batch":
        return None
    return SimpleNamespace(command=positionals[0], args=positionals[1:], **flags)


@functools.cache
def _build_parser(batch_line: bool):
    """The argument parser for the words ``_read_words`` leaves to it, built
    once per process: building it costs more than most commands.  A batch
    line's parser raises ArityError on a usage error, where an argv's exits,
    so that the line can report it; it has no -h/--help, whose action would
    print the help and exit mid-batch, so there -h is an unrecognized
    argument.  Nor has it --pretty or --format: the batch's own flags decide
    its output."""
    import argparse  # only this fallback needs it; a well-formed argv starts faster

    class _ArgvParser(argparse.ArgumentParser):
        def print_help(self):
            # -h calls this; argparse's own writer drops an OSError, and
            # main must see a broken pipe
            sys.stdout.write(self.format_help())

    class _LineParser(argparse.ArgumentParser):
        def error(self, message):
            raise ArityError(message)

    p = (_LineParser if batch_line else _ArgvParser)(
        prog="uctk", add_help=not batch_line, description=__doc__)
    p.add_argument("command", choices=sorted(HANDLERS) + ["batch"])
    p.add_argument("args", nargs="*")
    if not batch_line:
        p.add_argument("--pretty", action="store_true")
        # no default: a --format that is given must be told apart from none,
        # which prints structured lines, to reject it beside --pretty
        p.add_argument("--format", choices=["text", "structured"])
    for name, kind in COMMAND_FLAGS.items():
        if kind is None:
            p.add_argument(f"--{name}", action="store_true", default=None)
        else:
            p.add_argument(f"--{name}", type=kind)
    # parse_intermixed_args formats the usage on every call while usage is
    # None (it keeps the text for its error messages), which costs more than
    # most commands; format it once here, the same text argparse would print.
    p.usage = p.format_usage()[len("usage: "):]
    return p


def _internal_error(command: str, e: Exception) -> Report:
    """The report of an exception that no handler should raise: its type,
    message and the line that raised it."""
    tb = e.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
    return Report(command, "error", code="INTERNAL_ERROR",
                  detail=f"{type(e).__name__}: {e} (at {where})")


def _given(command: str, takes, flags) -> dict:
    """The command flags given in the namespace flags, by name; ArityError
    at the first one that is not in takes."""
    given = {name: value for name in COMMAND_FLAGS
             if (value := getattr(flags, name)) is not None}
    for name in given:
        if name not in takes:
            raise ArityError(f"{command} takes no --{name}")
    return given


def run_command(command: str, args, flags) -> Report:
    handler = HANDLERS.get(command)
    if handler is None:
        report = Report(command, "error", code="ARITY_ERROR",
                        detail=f"unknown command {command!r}")
    else:
        try:
            report = handler(args, **_given(command, handler.__kwdefaults__ or (), flags))
        except KernelError as e:
            report = Report(command, "error", code=e.code, detail=str(e))
        except Exception as e:  # a defect; still one report, and a batch goes on
            report = _internal_error(command, e)
    if args:
        report.fields = {"input": " ".join(args), **report.fields}
    return report


def _emit(report: Report, flags) -> None:
    if flags.pretty:
        print(report.pretty())
    elif flags.format == "text":
        print(_visible(report.fields.get("result", report.status)))
    else:
        print(report.line())


def _printable(text: str) -> str:
    """text with the bytes that were not UTF-8 written as \\x escapes."""
    return text.encode(errors="surrogateescape").decode(errors="backslashreplace")


def _parse_line(line):
    """The namespace of one batch line; ParseError or ArityError if the
    line is not UTF-8, does not split into words or argparse rejects them."""
    try:
        line.encode()
    except UnicodeEncodeError as e:  # bytes read as surrogates: not UTF-8
        raise ParseError("not UTF-8", 1, e.start + 1) from None
    try:
        words = shlex.split(line)
    except ValueError as e:  # an unclosed quote or escape, at the line's end
        raise ParseError(str(e), 1, len(line) + 1) from None
    return (_read_words(words, batch_line=True)
            or _build_parser(batch_line=True).parse_intermixed_args(words))


def main(argv=None) -> int:
    """Run one argv; its exit status.  Where no report can be written, the
    status is 4: a process started without stdout (fd 1 closed) runs
    nothing, and once stdout's reader has gone, help included, no more
    reports are written: stdout is pointed at os.devnull, so that the
    interpreter's last flush cannot fail again."""
    if sys.stdout is None:  # what Python makes of a closed fd 1
        return 4
    try:
        try:
            return _main(sys.argv[1:] if argv is None else argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4


def _main(argv) -> int:
    ns = (_read_words(argv, batch_line=False)
          or _build_parser(batch_line=False).parse_intermixed_args(argv))
    if ns.pretty and ns.format is not None:
        print(Report(ns.command, "error", code="ARITY_ERROR",
                     detail="--pretty and --format exclude each other").line())
        return 2
    if ns.command == "batch":
        try:
            _given("batch", (), ns)
            if len(ns.args) != 1:
                raise ArityError("batch <file>")
        except ArityError as e:
            _emit(Report("batch", "error", code=e.code, detail=e.detail[0]), ns)
            return 2
        try:
            fh = open(ns.args[0], encoding="utf-8", errors="surrogateescape")
        except OSError as e:
            _emit(Report("batch", "error", input=_printable(ns.args[0]), code="ARITY_ERROR",
                         detail=f"cannot read batch file: {e.strerror}"), ns)
            return 2
        worst = 0
        with fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    sub = _parse_line(line)
                except KernelError as e:
                    report = Report("batch", "error", input=_printable(line), code=e.code,
                                    detail=str(e))
                else:
                    report = run_command(sub.command, sub.args, sub)
                _emit(report, ns)
                worst = max(worst, report.exit_code)
        return worst
    report = run_command(ns.command, ns.args, ns)
    _emit(report, ns)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
