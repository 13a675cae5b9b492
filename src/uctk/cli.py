"""uctk command line front-end.

One structured report per line by default (key=value pairs, deterministic
field order); --pretty switches to a human-readable block.  Exit status: 0
ok, 1 domain rejection, 2 usage or parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys

from . import analysis, bk, grammar, level1, level2, level3, ordinals
from .bk import MINUS_ONE
from .errors import ArityError, InvalidElement, KernelError, ParseError


def _escape(ch: str) -> str:
    if ch in '\\"':
        return "\\" + ch
    return ch if ch.isprintable() else repr(ch)[1:-1]  # \t, \x1b, \u2028, ...


def _quote(value: str) -> str:
    value = str(value)
    if not value.isprintable():  # a control character would break the line
        return '"' + "".join(map(_escape, value)) + '"'
    return f'"{value}"' if (" " in value or value == "") else value


class Report:
    def __init__(self, command: str, status: str = "ok", **fields):
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
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)


def _ok(command: str, **fields) -> Report:
    return Report(command, "ok", **fields)


def _verdict(command: str, accepted: bool, **fields) -> Report:
    return Report(command, "ok" if accepted else "rejected",
                  verdict=("accepted" if accepted else "rejected"), **fields)


# -- argument decoding helpers ---------------------------------------------------

def _need(args, n, usage):
    if len(args) != n:
        raise ArityError(f"expected {n} argument(s): {usage}")


def _tuple2_from_args(le2, ordinals_text):
    dom = le2.dom()
    if len(ordinals_text) != len(dom):
        raise ArityError(f"tree has {len(dom)} domain entries "
                         f"(canonical order {[_dom_label(k) for k in dom]})")
    return {k: grammar.parse_uord(t) for k, t in zip(dom, ordinals_text)}


# The largest --bound each command takes: the largest that ran in under
# 10 s on a 2-core host (4.5 s, 2.8 s and 8.4 s); the next bound up took
# 18 s, 55 s (at 620 MB) and 17 s, and each step multiplies the work.
MAX_BOUND = {"enumerate l1": 11, "enumerate le2": 6, "check-lemmas": 10}


def _bound(flags, default: int, name: str) -> int:
    """--bound when given (1 to MAX_BOUND[name]), else the command's default."""
    if flags.bound is None:
        return default
    if flags.bound < 1:
        raise ArityError(f"--bound must be at least 1, got {flags.bound}")
    if flags.bound > MAX_BOUND[name]:
        raise ArityError(f"--bound for {name} is at most {MAX_BOUND[name]}, "
                         f"got {flags.bound}")
    return flags.bound


def _dom_label(key) -> str:
    d, q = key
    return f"{d}:{grammar.format_node(q) if d == 1 else grammar.format_domseq(q)}"


# -- command handlers --------------------------------------------------------------

def cmd_validate(args, flags):
    _need(args, 2, "validate <kind:l1|l2|le2|l3|pl2> <text>")
    kind, text = args
    parser = {"l1": grammar.parse_l1, "l2": grammar.parse_l2,
              "le2": grammar.parse_le2, "l3": grammar.parse_l3,
              "pl2": grammar.parse_pl2}.get(kind)
    if parser is None:
        raise ArityError(f"unknown kind {kind!r}")
    obj = parser(text)
    return _ok("validate", kind=kind, result=str(obj))


def cmd_regular(args, flags):
    _need(args, 1, "regular <level-1 tree | level-3 tree>")
    text = args[0]
    if text.lstrip().startswith("{"):
        tree = grammar.parse_l1(text)
        return _verdict("regular", level1.is_regular(tree), tree=str(tree))
    tree = grammar.parse_l3(text)
    return _verdict("regular", level3.is_regular_level3(tree), tree=str(tree))


_ORDERINGS = {-1: "less", 0: "equal", 1: "greater"}


def cmd_compare(args, flags):
    if flags.rep1:
        _need(args, 2, "compare --rep1 TREE [node] / [node, n]")
        tree = grammar.parse_l1(flags.rep1)
        elts = [_rep1_elt(t) for t in args]
        c = level1.rep_compare(tree, *elts)
    elif flags.rep2:
        _need(args, 2, "compare --rep2 LE2 (d, [entries]) x2")
        le2 = grammar.parse_le2(flags.rep2)
        elts = [_rep2_elt(le2, t) for t in args]
        c = level2.rep2_compare(le2, *elts)
    elif flags.rep3:
        _need(args, 2, "compare --rep3 L3 [entries] x2")
        tree = grammar.parse_l3(flags.rep3)
        elts = [level3.rep3_from_payload(tree, grammar.parse_rep_seq(t))
                for t in args]
        c = level3.rep3_compare(tree, *elts)
    else:
        _need(args, 2, "compare SEQ SEQ")
        c = bk.bk(grammar.parse_rep_seq(args[0]), grammar.parse_rep_seq(args[1]))
    return _ok("compare", result=_ORDERINGS[c])


def _rep1_elt(text):
    seq = grammar.parse_rep_seq(text)
    if len(seq) == 1 and isinstance(seq[0], tuple):
        return level1.Rep1Element(seq[0])
    if len(seq) == 2 and isinstance(seq[0], tuple):
        idx = seq[1]
        if isinstance(idx, ordinals.UOrd):
            if not (idx.is_countable() and idx.tail.is_natural()):
                raise InvalidElement(text, "index is not a natural")
            idx = idx.tail.natural_value()
        elif idx != MINUS_ONE:
            raise InvalidElement(text, "index is not a natural")
        return level1.Rep1Element(seq[0], idx)
    raise ParseError(f"not a representation point: {text}")


def _rep2_elt(le2, text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"rep2 element is (d, [entries]): {text}")
    d, _, rest = text[1:-1].partition(",")
    if d.strip() not in ("1", "2"):
        raise ParseError(f"rep2 element side is 1 or 2: {text}")
    if d.strip() == "1":
        elt = _rep1_elt(rest.strip())
        if elt.node not in le2.t1.nodes:
            raise InvalidElement(elt, "level-1 node outside the tree")
        return level2.Rep2Element(1, elt)
    return level2.rep2_from_payload(le2, grammar.parse_rep_seq(rest.strip()))


def cmd_order_type(args, flags):
    _need(args, 1, "order-type <level-1 tree>")
    tree = grammar.parse_l1(args[0])
    return _ok("order-type", result=grammar.format_ctbl(level1.rep_order_type(tree)))


def cmd_descriptions(args, flags):
    _need(args, 1, "descriptions <level-1 tree | level <=2 tree>")
    text = args[0]
    if text.lstrip().startswith("{"):
        tree = grammar.parse_l1(text)
        descs = [grammar.format_node(d) for d in level1.descriptions(tree)]
        return _ok("descriptions", count=len(descs), result=" ".join(descs))
    le2 = grammar.parse_le2(text)
    items = level2.extended_descriptions(le2)
    parts = []
    for d, desc in items:
        if d == 1:
            parts.append(f"(1, {grammar.format_node(desc)})")
        else:
            kind = "ext" if desc.extended else \
                ("cont" if desc.is_continuous() else "disc")
            reg = "reg" if level2.is_regular_description(le2, (d, desc)) else "irr"
            parts.append(f"(2, {desc}, {kind}, {reg})")
    return _ok("descriptions", count=len(parts), result="; ".join(parts))


def cmd_seed(args, flags):
    _need(args, 2, "seed <level-1 tree> <node or ()>")
    tree = grammar.parse_l1(args[0])
    d = grammar.parse_node(args[1])
    return _ok("seed", result=grammar.format_uord(level1.seed(tree, d)))


def cmd_factorings(args, flags):
    _need(args, 2, "factorings <P> <W>")
    p = grammar.parse_l1(args[0])
    w = grammar.parse_l1(args[1])
    maps = level1.factorings(p, w)
    return _ok("factorings", count=len(maps),
               exists=str(level1.factor_exists(p, w)).lower(),
               strict=str(level1.strict_factor_exists(p, w)).lower(),
               result="; ".join(str(m) for m in maps))


def cmd_tower(args, flags):
    _need(args, 1, "tower <[T0 T1 ...]>")
    trees = grammar.parse_tower(args[0])
    tower = level1.validate_tower(trees)
    flagstr = " ".join("regular" if f else "non-regular" for f in tower.regular_flags)
    return _ok("tower", length=len(tower), result=flagstr or "empty")


def cmd_s1(args, flags):
    if not args:
        raise ArityError("s1 <[T1 ...]> [ordinals...]")
    trees = grammar.parse_tower(args[0])
    alphas = [grammar.parse_uord(t) for t in args[1:]]
    for a in alphas:
        if not a.is_countable():
            raise InvalidElement("S1 ordinals are countable", a)
    ok = level1.s1_member(trees, alphas)
    return _verdict("s1", ok)


def cmd_analyze(args, flags):
    _need(args, 2, "analyze <ordinal> <level-1 tree>")
    b = grammar.parse_uord(args[0])
    tree = grammar.parse_l1(args[1])
    an = analysis.analyze(b, tree)
    return _ok(
        "analyze",
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


def cmd_cfl(args, flags):
    _need(args, 1, "cfl <ordinal>")
    return _ok("cfl", result=str(ordinals.cf_l(grammar.parse_uord(args[0]))))


def cmd_shift(args, flags, sup=False):
    _need(args, 2, "shift <index map> <ordinal>")
    sigma = grammar.parse_index_map(args[0])
    b = grammar.parse_uord(args[1])
    out = ordinals.apply_shift_sup(sigma, b) if sup else ordinals.apply_shift(sigma, b)
    return _ok("shift-sup" if sup else "shift", result=grammar.format_uord(out))


def cmd_respects(args, flags, weak=False):
    if len(args) < 1:
        raise ArityError("respects <le2 tree> <ordinals in canonical dom order...>")
    le2 = grammar.parse_le2(args[0])
    t = _tuple2_from_args(le2, args[1:])
    fn = level2.weakly_respects_le2 if weak else level2.respects_le2
    v = fn(le2, t)
    fields = {} if v else {"clause": v.clause, "detail": v.detail}
    return _verdict("weak-respects" if weak else "respects", bool(v), **fields)


def cmd_eval_desc(args, flags):
    if len(args) < 2:
        raise ArityError("eval-desc <le2 tree> <ordinals...> --at Q [--extended]")
    if not flags.at:
        raise ArityError("eval-desc requires --at")
    le2 = grammar.parse_le2(args[0])
    t = _tuple2_from_args(le2, args[1:])
    q = grammar.parse_domseq(flags.at)
    if flags.extended:
        base = q
        pot = level2.q_potential(le2.t2, base + (MINUS_ONE,))
        desc = level2.QDescription(base, pot.tree, pot.pvec, extended=True)
    else:
        pot = level2.q_potential(le2.t2, q)
        desc = level2.QDescription(q, pot.tree, pot.pvec)
    val = level2.evaluate_description(le2, t, (2, desc))
    return _ok("eval-desc", at=str(desc), result=grammar.format_uord(val))


def cmd_recover(args, flags):
    if len(args) < 2:
        raise ArityError("recover <level-1 tree> <domain shape> <ordinals...>")
    t1 = grammar.parse_l1(args[0])
    shape = sorted(_parse_shape(args[1]), key=level2._dom_sort_key)
    ordered = [(1, p) for p in bk.bk_sorted(t1.nodes)] + [(2, q) for q in shape]
    texts = args[2:]
    if len(texts) != len(ordered):
        raise ArityError(f"domain has {len(ordered)} entries")
    t = {k: grammar.parse_uord(x) for k, x in zip(ordered, texts)}
    tree = level2.recover_tree(t1, shape, t)
    return _ok("recover", result=str(tree))


def _parse_shape(text):
    def inner(toks):
        toks.expect("{")
        out = []
        while toks.peek() != "}":
            out.append(grammar._domseq(toks))
        toks.expect("}")
        return out
    return grammar._parse_with(text, inner)


def cmd_s2(args, flags):
    if not args:
        raise ArityError("s2 <[[entries] ...]> [ordinals...] [--variant respects|weak]")
    towers = grammar.parse_l2_tower(args[0])
    alphas = [grammar.parse_uord(t) for t in args[1:]]
    ok = level2.s2_member(towers, alphas, flags.variant or "respects")
    return _verdict("s2", ok, variant=flags.variant or "respects")


def cmd_ucf(args, flags):
    _need(args, 1, "ucf <partial le2 tree>")
    pt = grammar.parse_pl2(args[0])
    value = level3.ucf(pt)
    if value == (0, MINUS_ONE):
        return _ok("ucf", result="(0, -1)")
    d, desc = value
    if d == 1:
        return _ok("ucf", result=f"(1, {grammar.format_node(desc)})")
    return _ok("ucf", result=f"(2, {desc})",
               extended=str(desc.extended).lower())


def cmd_cf3(args, flags):
    _need(args, 1, "cf3 <partial le2 tree>")
    return _ok("cf3", result=str(level3.cf3(grammar.parse_pl2(args[0]))))


def cmd_complete(args, flags):
    _need(args, 1, "complete <partial le2 tree>")
    pt = grammar.parse_pl2(args[0])
    comps = level3.completion_le2(pt)
    return _ok("complete", count=len(comps),
               result="; ".join(str(c) for c in comps))


def cmd_s3_structural(args, flags):
    _need(args, 1, "s3-structural <[[l3 entries] ...]> [--variant minus|plain]")
    towers = grammar.parse_l3_tower(args[0])
    v = level3.s3_structural_member(towers, flags.variant or "plain")
    return _verdict("s3-structural", bool(v), detail=v.detail,
                    ordinal_clause=v.ordinal_clause)


def cmd_enumerate(args, flags):
    _need(args, 1, "enumerate <l1|le2> [--bound N] [--regular]")
    kind = args[0]
    if kind not in ("l1", "le2"):
        raise ArityError(f"unknown kind {kind!r}")
    bound = _bound(flags, 3, f"enumerate {kind}")
    if kind == "l1":
        trees = level1.enumerate_level1_up_to(bound, regular_only=flags.regular)
    else:
        trees = level2.enumerate_le2_trees(bound)
    return _ok("enumerate", kind=kind, count=len(trees),
               result="; ".join(str(t) for t in trees))


def cmd_check_lemmas(args, flags):
    from . import lemmas  # only this command runs the suites; others start faster

    results = lemmas.check_lemmas(bound=_bound(flags, 4, "check-lemmas"),
                                  seed=flags.seed or 0)
    all_ok = all(r.passed for r in results)
    fields = {}
    for i, r in enumerate(results):
        fields[f"suite{i}"] = r.line()
        if flags.timings:
            fields[f"suite{i}_seconds"] = f"{r.seconds:.3f}"
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
    "shift": lambda a, f: cmd_shift(a, f, sup=False),
    "shift-sup": lambda a, f: cmd_shift(a, f, sup=True),
    "respects": lambda a, f: cmd_respects(a, f, weak=False),
    "weak-respects": lambda a, f: cmd_respects(a, f, weak=True),
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


class _Parser(argparse.ArgumentParser):
    """Raises ArityError on a usage error instead of exiting, so that a
    batch line can report it; ``main`` exits as argparse does for argv."""

    def error(self, message):
        raise ArityError(message)


@functools.cache
def _build_parser(batch_line: bool = False):
    """The argument parser, built once per process: building it costs more
    than most commands, and in-process callers run ``main`` many times.
    A batch line's parser has no -h/--help, whose action would print the
    help and exit mid-batch; there -h is an unrecognized argument."""
    p = _Parser(prog="uctk", add_help=not batch_line, description=__doc__)
    p.add_argument("command", choices=sorted(HANDLERS) + ["batch"])
    p.add_argument("args", nargs="*")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--format", choices=["text", "structured"], default="structured")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--regular", action="store_true")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--at", default=None)
    p.add_argument("--rep1", default=None)
    p.add_argument("--rep2", default=None)
    p.add_argument("--rep3", default=None)
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


def run_command(command: str, args, flags) -> Report:
    handler = HANDLERS.get(command)
    if handler is None:
        report = Report(command, "error", code="ARITY_ERROR",
                        detail=f"unknown command {command!r}")
    else:
        try:
            report = handler(args, flags)
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
        print(report.fields.get("result", report.status))
    else:
        print(report.line())


def _printable(text: str) -> str:
    """text with the bytes that were not UTF-8 written as \\x escapes."""
    return text.encode(errors="surrogateescape").decode(errors="backslashreplace")


def _parse_line(parser, line):
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
    return parser.parse_intermixed_args(words)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_intermixed_args(argv)
    except ArityError as e:
        argparse.ArgumentParser.error(parser, *e.detail)
    if ns.command == "batch":
        if len(ns.args) != 1:
            _emit(Report("batch", "error", code="ARITY_ERROR", detail="batch <file>"), ns)
            return 2
        try:
            fh = open(ns.args[0], encoding="utf-8", errors="surrogateescape")
        except OSError as e:
            _emit(Report("batch", "error", input=_printable(ns.args[0]), code="ARITY_ERROR",
                         detail=f"cannot read batch file: {e.strerror}"), ns)
            return 2
        line_parser = _build_parser(batch_line=True)
        worst = 0
        with fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    sub = _parse_line(line_parser, line)
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
