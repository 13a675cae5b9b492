"""Seeded CLI line stream for the ``cli-batch`` workload.

The generator writes grammar text with its own printers, not uctk's, so a
change to uctk's printers cannot change the inputs.  It takes tree shapes
and respecting tuples from uctk's enumerators, which only decide *which*
objects appear.

Ordinals are kept here as plain tuples: a countable ordinal is
``((exponent, coefficient), ...)`` with natural exponents, decreasing; an
ordinal below u_omega is ``(((level, countable), ...), countable tail)``.
"""

from __future__ import annotations

import random

MINUS_ONE = -1
ALPHABET = "(){}[];,@^*+ 0123456789uw-"

# The non-lemma commands, weighted by how often each appears among the worked
# examples of tests/data/spec_examples.batch, the repository's record of CLI
# use (68 lines).  check-lemmas is left out because one call would swamp the
# stream, and the lemma-suites workload covers it.
COMMAND_WEIGHTS = {
    "compare": 6, "validate": 5, "descriptions": 4, "ucf": 4,
    "regular": 3, "order-type": 3, "seed": 3, "factorings": 3, "s1": 3,
    "analyze": 3, "cfl": 3, "shift-sup": 3, "respects": 3, "eval-desc": 3,
    "s2": 3, "cf3": 3,
    "tower": 2, "shift": 2, "weak-respects": 2, "recover": 2, "complete": 2,
    "s3-structural": 2,
    "enumerate": 1,
}
COMMANDS = list(COMMAND_WEIGHTS)

# The worked examples hold no malformed line, so the malformed share is a
# choice: one line in twenty, which puts 25 lines of each of the four kinds
# below into a 2 000-line pass, enough for each error path to run in every
# pass while the valid mix decides the time.
MALFORMED_SHARE = 0.05
MALFORMED_KINDS = ["mutate", "arity", "index-map", "mixed-compare"]
# The malformed lines are drawn from this fixed seed, and only their places
# in the stream from the run's seed.  Every seed then meets the same lines
# that escape cli.main (ROADMAP item 3), so the number of failed ops is the
# same on every seed and every run.
MALFORMED_SEED = 0


# -- printers -----------------------------------------------------------------

def p_node(n) -> str:
    return "-1" if n == MINUS_ONE else "(" + " ".join(map(str, n)) + ")"


def p_l1(nodes) -> str:
    return "{" + " ".join(p_node(n) for n in sorted(nodes)) + "}"


def p_domseq(q) -> str:
    return "(" + " ".join(p_node(e) for e in q) + ")"


def p_l2(t2) -> str:
    return "; ".join(f"{p_domseq(q)} -> ({p_l1(tree.nodes)}, {p_node(p)})"
                     for q, (tree, p) in t2.entries)


def p_le2(le2) -> str:
    return f"({p_l1(le2.t1.nodes)} ; {p_l2(le2.t2)})"


def p_pl2(pt) -> str:
    q = {0: lambda: "-1", 1: lambda: p_node(pt.q), 2: lambda: p_domseq(pt.q)}[pt.d]()
    return f"({p_le2(pt.base)} @ ({pt.d}, {q}, {p_l1(pt.p.nodes)}))"


def p_l3(entries) -> str:
    return "; ".join(f"{p_domseq(r)} -> {p_pl2(pt)}" for r, pt in entries)


def _power(e: int) -> str:
    return "w" if e == 1 else f"w^{e}"


def p_ctbl(c) -> str:
    if not c:
        return "0"
    return " + ".join(str(k) if e == 0 else (_power(e) if k == 1 else f"{_power(e)}*{k}")
                      for e, k in c)


def p_uord(u) -> str:
    uterms, tail = u
    parts = []
    for level, c in uterms:
        if c == ((0, 1),):
            parts.append(f"u{level}")
        elif len(c) == 1:
            parts.append(f"u{level}*{p_ctbl(c)}")
        else:
            parts.append(f"u{level}*({p_ctbl(c)})")
    if tail or not parts:
        parts.append(p_ctbl(tail))
    return " + ".join(parts)


def p_map(image) -> str:
    return "{" + ", ".join(f"{i}->{v}" for i, v in enumerate(image, 1)) + "}"


# -- conversions to and from uctk's ordinal objects ------------------------------

def to_ctbl(c):
    from uctk.ordinals import CtblOrd
    return CtblOrd(tuple((CtblOrd.natural(e), k) for e, k in c))


def to_uord(u):
    from uctk.ordinals import UOrd
    return UOrd(tuple((level, to_ctbl(c)) for level, c in u[0]), to_ctbl(u[1]))


def from_uord(u):
    def ctbl(c):
        return tuple((e.natural_value(), k) for e, k in c.terms)
    return tuple((level, ctbl(c)) for level, c in u.uterms), ctbl(u.tail)


# -- random objects ---------------------------------------------------------------

def addable(nodes):
    out = []
    for parent in [()] + sorted(nodes):
        j = 0
        while parent + (j,) in nodes:
            j += 1
        out.append(parent + (j,))
    return out


def rand_tree(rng, max_nodes, regular=False, min_nodes=0):
    nodes = set()
    for _ in range(rng.randint(min_nodes, max_nodes)):
        nodes.add(rng.choice([a for a in addable(nodes) if not (regular and a == (1,))]))
    return frozenset(nodes)


def rand_chain(rng, size, regular=False):
    """Trees of cardinality 1..size, each one node more than the last."""
    out, nodes = [], set()
    for _ in range(size):
        nodes.add(rng.choice([a for a in addable(nodes) if not (regular and a == (1,))]))
        out.append(frozenset(nodes))
    return out


def rand_ctbl(rng, nonzero=False, limit=False):
    exps = sorted(rng.sample(range(3), rng.randrange(1 if nonzero else 0, 3)), reverse=True)
    c = tuple((e, rng.randrange(1, 4)) for e in exps)
    if limit:
        c = tuple(t for t in c if t[0]) or ((rng.randrange(1, 3), rng.randrange(1, 4)),)
    return c


def rand_uord(rng, max_level, limit=False, uncountable=False):
    levels = sorted(rng.sample(range(1, max_level + 1),
                               rng.randrange(1 if uncountable else 0, max_level + 1)),
                    reverse=True)
    uterms = tuple((level, rand_ctbl(rng, nonzero=True)) for level in levels)
    tail = rand_ctbl(rng) if rng.random() < 0.5 else ()
    if limit and (tail or not uterms):
        tail = rand_ctbl(rng, limit=True)
    return uterms, tail


def max_level(u) -> int:
    return u[0][0][0] if u[0] else 0


def rand_image(rng, n):
    n2 = n + rng.randrange(0, 3)
    return tuple(sorted(rng.sample(range(1, n2 + 1), n)))


# -- the line stream -------------------------------------------------------------

class LineGenerator:
    """Builds (argv, check) pairs; ``check`` names the independent reference
    an answer is compared with, ``("malformed", kind)`` on a malformed line,
    or is None."""

    def __init__(self, rng: random.Random):
        from uctk import lemmas, level2, level3

        self.rng = rng
        trees = level2.enumerate_le2_trees(4)
        self.le2 = trees
        self.realizable = [(t, level2.generate_respecting_tuple(t)) for t in trees]
        self.realizable = [(t, v) for t, v in self.realizable if v is not None]
        self.partials = [pt for base in level2.enumerate_le2_trees(2)
                         for pt in lemmas.enumerate_partial_le2(base)]
        q0 = level2.typical_trees()[0]
        self.l3 = []
        for pt in lemmas.enumerate_partial_le2(q0):
            self.l3.append(((((0,),), pt),))
            if pt.d:
                for comp in level3.completion_le2(pt):
                    for child in lemmas.enumerate_partial_le2(comp):
                        self.l3.append(((((0,),), pt), (((0,), (0,)), child)))

    def stream(self, n: int):
        rng = self.rng
        bad = set(rng.sample(range(n), round(n * MALFORMED_SHARE)))
        kinds = [MALFORMED_KINDS[k % len(MALFORMED_KINDS)] for k in range(len(bad))]
        self.rng = random.Random(MALFORMED_SEED)
        malformed = iter([(self.malformed(kind), ("malformed", kind)) for kind in kinds])
        self.rng = rng
        return [next(malformed) if i in bad else self.valid() for i in range(n)]

    def valid(self):
        command = self.rng.choices(COMMANDS, weights=COMMAND_WEIGHTS.values())[0]
        return getattr(self, "c_" + command.replace("-", "_"))()

    def _tuple_args(self, tree, values):
        return [p_uord(from_uord(values[k])) for k in tree.dom()]

    # -- malformed lines ---------------------------------------------------------

    def malformed(self, kind):
        rng = self.rng
        if kind == "index-map":
            b = rand_uord(rng, 3, limit=True, uncountable=True)
            n = max_level(b)
            if rng.random() < 0.5 and n >= 2:   # non-increasing
                image = (n + 1,) + tuple(range(n, 1, -1))
            else:                                # domain shorter than b's levels
                image = tuple(range(1, n))
            return [rng.choice(["shift", "shift-sup"]), p_map(image), p_uord(b)]
        if kind == "mixed-compare":
            return rng.choice([["compare", "[(0)]", "[5]"],
                               ["compare", "[5, (0 0)]", "[(1)]"],
                               ["compare", "--rep1", "{(0)}", "[(0), w]", "[(0)]"]])
        argv, _ = self.valid()
        positional = [i for i, a in enumerate(argv)
                      if i and not a.startswith("--") and not argv[i - 1].startswith("--")]
        if kind == "arity":
            if positional and rng.random() < 0.5:
                del argv[positional[-1]]
            else:
                argv.append("u1")
            return argv
        i = rng.choice(positional)   # mutate: drop, replace or insert one character
        text = argv[i]
        j = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0 and j < len(text):
            text = text[:j] + text[j + 1:]
        elif op == 1 and j < len(text):
            text = text[:j] + rng.choice(ALPHABET) + text[j + 1:]
        else:
            text = text[:j] + rng.choice(ALPHABET) + text[j:]
        argv[i] = text
        return argv

    # -- one generator per command -------------------------------------------------

    def c_validate(self):
        rng = self.rng
        kind = rng.choice(["l1", "l2", "le2", "pl2", "l3"])
        text = {"l1": lambda: p_l1(rand_tree(rng, 5)),
                "l2": lambda: p_l2(rng.choice(self.le2).t2),
                "le2": lambda: p_le2(rng.choice(self.le2)),
                "pl2": lambda: p_pl2(rng.choice(self.partials)),
                "l3": lambda: p_l3(rng.choice(self.l3))}[kind]()
        return ["validate", kind, text], None

    def c_regular(self):
        rng = self.rng
        if rng.random() < 0.7:
            return ["regular", p_l1(rand_tree(rng, 5))], None
        return ["regular", p_l3(rng.choice(self.l3))], None

    def c_compare(self):
        rng = self.rng
        if rng.random() < 0.5:
            seq = lambda: "[" + ", ".join(p_node(rng.choice(addable(rand_tree(rng, 3))))
                                          for _ in range(rng.randint(1, 3))) + "]"
            return ["compare", seq(), seq()], None
        tree = sorted(rand_tree(rng, 4, min_nodes=1))
        elt = lambda: f"[{p_node(rng.choice(tree))}, {rng.randrange(5)}]" \
            if rng.random() < 0.5 else f"[{p_node(rng.choice(tree))}]"
        return ["compare", "--rep1", p_l1(tree), elt(), elt()], None

    def c_order_type(self):
        tree = rand_tree(self.rng, 6)
        return ["order-type", p_l1(tree)], ("order-type", tree)

    def c_descriptions(self):
        rng = self.rng
        if rng.random() < 0.5:
            return ["descriptions", p_l1(rand_tree(rng, 5))], None
        return ["descriptions", p_le2(rng.choice(self.le2))], None

    def c_seed(self):
        rng = self.rng
        tree = rand_tree(rng, 4)
        node = rng.choice(sorted(tree) + [()])
        return ["seed", p_l1(tree), p_node(node)], None

    def c_factorings(self):
        rng = self.rng
        return ["factorings", p_l1(rand_tree(rng, 3)), p_l1(rand_tree(rng, 4))], None

    def c_tower(self):
        rng = self.rng
        chain = [frozenset()] + rand_chain(rng, rng.randint(0, 4))
        return ["tower", "[" + " ".join(p_l1(t) for t in chain) + "]"], None

    def c_s1(self):
        rng = self.rng
        chain = rand_chain(rng, rng.randint(0, 3), regular=True)
        alphas = [p_ctbl(((1, rng.randint(1, 6)),)) for _ in chain]
        return ["s1", "[" + " ".join(p_l1(t) for t in chain) + "]", *alphas], None

    def c_analyze(self):
        rng = self.rng
        tree = rand_tree(rng, 4, min_nodes=1)
        b = rand_uord(rng, len(tree), limit=True, uncountable=True)
        return ["analyze", p_uord(b), p_l1(tree)], None

    def c_cfl(self):
        b = rand_uord(self.rng, 4)
        return ["cfl", p_uord(b)], ("cfl", b)

    def c_shift(self):
        rng = self.rng
        b = rand_uord(rng, 3)
        image = rand_image(rng, max(max_level(b), 1))
        return ["shift", p_map(image), p_uord(b)], None

    def c_shift_sup(self):
        rng = self.rng
        b = rand_uord(rng, 3, limit=True)
        image = rand_image(rng, max(max_level(b), 1))
        return ["shift-sup", p_map(image), p_uord(b)], ("shift-sup", (image, b))

    def _respecting(self, command):
        rng = self.rng
        tree, values = rng.choice(self.realizable)
        args = self._tuple_args(tree, values)
        if rng.random() < 0.5:   # perturb one value so some verdicts reject
            i = rng.randrange(len(args))
            args[i] = rng.choice(["u1", "u1*2", "u2", "u2 + u1", "w"])
        return [command, p_le2(tree), *args], None

    def c_respects(self):
        return self._respecting("respects")

    def c_weak_respects(self):
        return self._respecting("weak-respects")

    def c_eval_desc(self):
        rng = self.rng
        tree, values = rng.choice(self.realizable)
        q = rng.choice(tree.t2.dom())
        argv = ["eval-desc", p_le2(tree), *self._tuple_args(tree, values)]
        if tree.t2.node(q) != MINUS_ONE and rng.random() < 0.5:
            if rng.random() < 0.5:
                return argv + ["--at", p_domseq(q), "--extended"], None
            q = q + (MINUS_ONE,)
        return argv + ["--at", p_domseq(q)], None

    def c_recover(self):
        rng = self.rng
        tree, values = rng.choice(self.realizable)
        shape = "{" + " ".join(p_domseq(q) for q in tree.t2.dom()) + "}"
        return (["recover", p_l1(tree.t1.nodes), shape, *self._tuple_args(tree, values)],
                ("recover", tree))

    def c_s2(self):
        rng = self.rng
        tree, values = rng.choice([tv for tv in self.realizable if not len(tv[0].t1)])
        entries = sorted(tree.t2.entries, key=lambda kv: (len(kv[0]), kv[0]))
        stages = []
        for k in range(1, len(entries) + 1):
            stage = "; ".join(f"{p_domseq(q)} -> ({p_l1(t.nodes)}, {p_node(p)})"
                              for q, (t, p) in entries[:k])
            stages.append(f"[{stage}]")
        alphas = [p_uord(from_uord(values[(2, q)])) for q, _ in entries]
        argv = ["s2", "[" + " ".join(stages) + "]", *alphas]
        if rng.random() < 0.5:
            argv += ["--variant", "weak"]
        return argv, None

    def c_ucf(self):
        return ["ucf", p_pl2(self.rng.choice(self.partials))], None

    def c_cf3(self):
        return ["cf3", p_pl2(self.rng.choice(self.partials))], None

    def c_complete(self):
        return ["complete", p_pl2(self.rng.choice(self.partials))], None

    def c_s3_structural(self):
        rng = self.rng
        entries = rng.choice(self.l3)
        stages = [f"[{p_l3(entries[:k])}]" for k in range(1, len(entries) + 1)]
        argv = ["s3-structural", "[" + " ".join(stages) + "]"]
        if rng.random() < 0.5:
            argv += ["--variant", "minus"]
        return argv, None

    def c_enumerate(self):
        rng = self.rng
        if rng.random() < 0.6:
            argv = ["enumerate", "l1", "--bound", str(rng.randint(1, 4))]
            return argv + (["--regular"] if rng.random() < 0.5 else []), None
        return ["enumerate", "le2", "--bound", str(rng.randint(1, 3))], None
