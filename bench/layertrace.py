"""Outside-in tracing at uctk's layer boundaries.

Each layer is a module of ``uctk``.  The tracer wraps chosen public
functions and methods from outside the package: a wrapper is bound under
every name, in every ``uctk`` module, that holds the original, because
``from .analysis import analyze`` gives ``level2`` and ``lemmas`` names of
their own that patching ``uctk.analysis`` alone would miss.

A wrapper always bumps its call counter.  It opens a span only when the
caller is in another layer, or when it is marked ``always`` (suites, oracle
entry points, ``check_lemmas``, ``cli.main``); a call inside the caller's own
layer passes straight through.  This keeps the cost bounded: opening a span
on every public function and method made ``check_lemmas(4)`` about four
times slower, and ``CtblOrd.is_zero`` alone ran 6.2 M times, so only the
hottest methods are wrapped and the cheap predicates are left alone.

Spans are kept in memory (name, start, end, parent) until ``collect``
folds them into self and inclusive times; a layer's self time is its spans'
durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

from spec import LAYERS, SUITES

# the entry points of the a.e.-evaluation oracle; lemmas.oracle_s is their
# inclusive time
ORACLE_METHODS = ("__init__", "signature_holds", "essentially_continuous",
                  "approximation_sequence")

# (module, attribute, counter or None, always open a span)
TARGETS = [
    ("bk", "bk", "bk.compare_calls", False),
    ("bk", "bk_compare", "bk.compare_calls", False),
    ("bk", "bk_sorted", "bk.sort_calls", False),
    ("bk", "bk_key", "bk.key_calls", False),
    ("ordinals", "CtblOrd.compare", "ordinals.compare_calls", False),
    ("ordinals", "UOrd.compare", "ordinals.compare_calls", False),
    ("ordinals", "CtblOrd.__add__", "ordinals.arith_calls", False),
    ("ordinals", "CtblOrd.__mul__", "ordinals.arith_calls", False),
    ("ordinals", "UOrd.__add__", "ordinals.arith_calls", False),
    ("ordinals", "apply_shift", "ordinals.shift_calls", False),
    ("ordinals", "apply_shift_sup", "ordinals.shift_calls", False),
    ("ordinals", "shift_sup_by_decomposition", "ordinals.shift_calls", False),
    ("ordinals", "decompose_shift", "ordinals.shift_calls", False),
    ("ordinals", "shift_is_continuous", None, False),
    ("ordinals", "cf_l", None, False),
    ("level1", "descriptions", "level1.descriptions_calls", False),
    ("level1", "factorings", "level1.factorings_calls", False),
    ("level1", "Level1Tree.bk_sorted", None, False),
    *[("level1", name, None, False) for name in (
        "validate_level1", "is_level1", "addable_nodes", "enumerate_level1",
        "enumerate_level1_up_to", "desc_rank", "seed", "check_factor_map",
        "factor_exists", "strict_factor_exists", "respects_level1",
        "rep_order_type", "rep_compare", "s1_member", "validate_tower")],
    ("analysis", "factor_to_shift", "analysis.factor_to_shift_calls", False),
    ("analysis", "inclusion_shift", "analysis.inclusion_shift_calls", False),
    ("analysis", "analyze", "analysis.analyze_calls", False),
    *[("analysis", name, None, False) for name in (
        "tree_embed", "tree_embed_sup", "recover_from_analysis")],
    ("level2", "respects_le2", "level2.respects_calls", False),
    ("level2", "recover_tree", None, False),
    *[("level2", name, None, False) for name in (
        "weakly_respects_le2", "validate_level2", "enumerate_le2_trees",
        "generate_respecting_tuple", "evaluate_description",
        "q_descriptions", "extended_descriptions", "q_potential",
        "s2_member", "rep2_compare", "make_rep2", "rep2_from_payload",
        "validate_partial_le1", "respects_partial_le1", "expand_potential",
        "typical_trees", "dom_star", "q_set_plus", "q_set_minus",
        "is_regular_description")],
    *[("level3", name, "level3.calls", False) for name in (
        "ucf", "cf3", "completion_le2", "validate_partial_le2",
        "respects_partial_le2", "validate_level3", "is_regular_level3",
        "s3_structural_member", "make_rep3", "rep3_from_payload",
        "rep3_compare")],
    ("lemmas", "check_lemmas", None, True),
    *[("lemmas", f"suite_{s}", None, True) for s in SUITES],
    *[("lemmas", f"EvalOracle.{m}", None, True) for m in ORACLE_METHODS],
    *[("grammar", name, "grammar.parse_calls", False) for name in (
        "parse_node", "parse_l1", "parse_tower", "parse_domseq", "parse_l2",
        "parse_le2", "parse_pl2", "parse_l3", "parse_l2_tower",
        "parse_l3_tower", "parse_index_map", "parse_ctbl", "parse_uord",
        "parse_rep_seq")],
    *[("grammar", name, "grammar.format_calls", False) for name in (
        "format_node", "format_l1", "format_tower", "format_domseq",
        "format_l2", "format_le2", "format_pl2", "format_l3",
        "format_index_map", "format_ctbl", "format_uord", "format_desc",
        "format_rep1", "format_rep2", "format_rep3")],
    ("cli", "main", None, True),
    ("cli", "run_command", None, False),
    ("cli", "Report.line", "cli.reports", False),
    ("cli", "Report.pretty", "cli.reports", False),
]



class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.errors = Counter()
        self.self_s = Counter()       # layer -> seconds
        self.inclusive_s = Counter()  # span name -> seconds
        self.span_names = []          # name id -> (layer id, name)
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]            # open span ids; -1 is outside uctk
        self._layer_stack = [-1]      # layer id of each open span
        self._patches = []            # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        from uctk.errors import KernelError

        for module in LAYERS:
            importlib.import_module(f"uctk.{module}")
        modules = [m for name, m in sys.modules.items()
                   if name == "uctk" or name.startswith("uctk.")]
        for module, attr, counter, always in TARGETS:
            owner = sys.modules[f"uctk.{module}"]
            layer = LAYERS.index(module)
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(original, layer, name, counter, always,
                                     KernelError)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, name, counter, always,
                                 KernelError)
            if attr == "recover_tree":
                wrapper = self._count_candidates(wrapper)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, layer, name, counter, always, kernel_error):
        counts = self.counts
        errors = self.errors
        stack = self._stack
        layer_stack = self._layer_stack
        names, parents = self._names, self._parents
        starts, ends = self._starts, self._ends
        name_id = len(self.span_names)
        self.span_names.append((layer, name))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if not always and layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            layer_stack.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except kernel_error:
                if layer_stack[-2] != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                layer_stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _count_candidates(self, fn):
        """recover_tree examines one candidate per respects_le2 call it
        makes; a return (not a raise) is one tree found."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["level2.respects_calls"]
            try:
                out = fn(*args, **kwargs)
            finally:
                counts["level2.recover_candidates"] += \
                    counts["level2.respects_calls"] - before
            counts["level2.recover_found"] += 1
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- aggregation ---------------------------------------------------------

    def collect(self):
        """Fold the stored spans into self and inclusive times, then drop
        them.  Call only with no span open."""
        if len(self._stack) != 1:
            raise RuntimeError("collect() with spans still open")
        n = len(self._starts)
        child = array("d", bytes(8 * n))
        for p, s, e in zip(self._parents, self._starts, self._ends):
            if p >= 0:
                child[p] += e - s
        by_name = [0.0] * len(self.span_names)
        self_by_name = [0.0] * len(self.span_names)
        for nid, s, e, c in zip(self._names, self._starts, self._ends, child):
            by_name[nid] += e - s
            self_by_name[nid] += e - s - c
        for (layer, name), incl, own in zip(self.span_names, by_name, self_by_name):
            self.inclusive_s[name] += incl
            self.self_s[layer] += own
        for arr in (self._names, self._parents, self._starts, self._ends):
            del arr[:]

    def metrics(self, passes: int) -> dict:
        """Per-layer figures per traced pass (the ``trace.*`` and
        ``lemmas.*.cases`` entries are filled in by the caller)."""
        counters = {c for _, _, c, _ in TARGETS if c} | {"level2.recover_candidates"}
        out = {key: self.counts[key] / passes for key in counters}
        found, cand = self.counts["level2.recover_found"], self.counts["level2.recover_candidates"]
        out["level2.recover_hit_ratio"] = found / cand if cand else 0.0
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[i] / passes
            out[f"{layer}.errors"] = self.errors[i] / passes
        for s in SUITES:
            out[f"lemmas.{s}.s"] = self.inclusive_s[f"lemmas.suite_{s}"] / passes
        out["lemmas.oracle_s"] = sum(self.inclusive_s[f"lemmas.EvalOracle.{m}"]
                                     for m in ORACLE_METHODS) / passes
        return out
