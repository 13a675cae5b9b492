"""Independent oracles and executable lemma suites.

Every production closed form in the kernel is cross-checked here against a
computation that goes through the defining construction instead:

  * order types by rank accumulation rather than the closed form;
  * L-cofinalities by fundamental-sequence recursion;
  * j^sigma_sup by the continuity-plus-decomposition recursion;
  * the ordinal analysis by evaluating the represented function on tuples
    drawn from a pool of ordinals closed under the arithmetic in play, then
    decoding the result back into indiscernible normal form;
  * recovery of the representing level <=2 tree by exhaustive search over
    labellings rather than reading the labels off the tuple.

The suites are deterministic given (bound, seed) and report the first
counterexample verbatim.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from functools import cmp_to_key

from . import bk
from .analysis import (analyze, factor_to_shift, inclusion_shift,
                       recover_from_analysis)
from .errors import KernelError, MultipleTreesFound, NoTreeFound, NotAFactoring
from .level1 import (EMPTY_DESC, EMPTY_TREE, FactorMap1, Level1Tree,
                     addable_nodes, desc_rank,
                     enumerate_level1_up_to, factor_exists, factorings,
                     regular_nodes, rep_order_type, s1_member,
                     strict_factor_exists)
from .level2 import (MINUS_ONE, LevelLe2Tree, as_domseq, enumerate_le2_trees,
                     enumerate_level2_with_dom, evaluate_description,
                     extended_descriptions, generate_respecting_tuple,
                     is_regular_description, q_descriptions, q_set_plus,
                     recover_tree, respects_le2, respects_partial_le1, s2_member,
                     typical_trees, validate_level2, validate_partial_le1,
                     weakly_respects_le2)
from .level3 import PartialLevelLe2Tree, cf3, ucf, validate_partial_le2
from .ordinals import (ONE, OMEGA, U1, ZERO, Cofinality, CtblOrd, IndexMap,
                       UOrd, apply_shift, apply_shift_sup, cf_l,
                       shift_is_continuous, shift_sup_by_decomposition)
from .value import Value


class SuiteResult(Value):
    """A suite's case count and first failures; unlike the kernel's values
    it is mutable, and so unhashable."""

    __slots__ = ("name", "cases", "failures", "seconds")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, cases: int = 0, failures: list = None,
                 seconds: float = 0.0):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.seconds = seconds  # wall time of the suite, set by check_lemmas

    def check(self, ok: bool, detail):
        """Count one case.  ``detail`` is the counterexample text, or a
        zero-argument callable returning it, called only when the case
        fails so that passing cases format nothing."""
        self.cases += 1
        if not ok and len(self.failures) < 5:
            self.failures.append(detail() if callable(detail) else detail)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status} {self.name}: {self.cases} cases"
        if self.failures:
            out += f"; first counterexample: {self.failures[0]}"
        return out


# -- independent oracles ---------------------------------------------------------

def order_type_oracle(tree: Level1Tree) -> CtblOrd:
    """Accumulate omega+1 per node; the sum does not depend on the order
    the nodes come in, so the oracle reads no Brouwer-Kleene order."""
    acc = ZERO
    for _ in tree.nodes:
        acc = (acc + OMEGA) + ONE
    return acc


def cf_oracle(b: UOrd) -> Cofinality:
    """Cofinality by fundamental-sequence recursion on the last component."""
    if b.is_zero():
        return Cofinality.zero()
    if not b.tail.is_zero():
        t = b.tail
        if t.is_successor():
            return Cofinality.successor()
        return Cofinality.omega()  # countable limits have an omega ladder
    level, coeff = b.uterms[-1]
    if coeff.is_limit():
        return Cofinality.omega()  # u_k * lambda climbs along lambda
    return Cofinality.u(level)     # u_k * (c+1) climbs along u_k itself


class EvalOracle:
    """Almost-everywhere evaluation oracle for the analysis of b over W.

    The represented function substitutes tuple entries for the u-levels of
    b.  Entries are drawn from omega-power blocks v_j = w^(mu*j) with mu a
    single omega power exceeding every coefficient, so products and sums
    never cross blocks; evaluated values decode uniquely back into u-terms.
    """

    def __init__(self, b: UOrd, tree: Level1Tree):
        self.b = b
        self.tree = tree
        # the Brouwer-Kleene order by its definition, not the kernel's key
        self.order = sorted(tree.nodes, key=cmp_to_key(bk.bk))
        self.descs = [*self.order, EMPTY_DESC]
        self.sig_nodes = tuple(self.descs[k - 1] for k, _ in b.uterms)
        self.coeffs = [c for _, c in b.uterms]
        self.tail = b.tail
        s = ZERO
        for c in self.coeffs + [self.tail]:
            if not c.is_zero() and s.compare(c.leading_exponent()) < 0:
                s = c.leading_exponent()
        self.mu = CtblOrd.omega_power(s + ONE)
        self._pools = {}
        # v_j * c_i by (j, i), and the sum of the first len(js) signature
        # terms by the tuple js of their pool indices, each built on first
        # use; the tables live and die with this oracle
        self._products = {}
        self._prefixes = {(): ZERO}

    def pool(self, j: int) -> CtblOrd:
        """v_j = w^(mu*j), built once per oracle."""
        v = self._pools.get(j)
        if v is None:
            v = self._pools[j] = CtblOrd.omega_power(self.mu * CtblOrd.natural(j))
        return v

    def assignments(self, extra: int):
        """Order-respecting assignments to the tree's nodes, each node sent
        to the index j of its pool v_j.  The pools strictly increase with j,
        so the indices order as the pools do."""
        n = len(self.order)
        return [dict(zip(self.order, combo))
                for combo in itertools.combinations(range(1, n + extra + 1), n)]

    def _prefix(self, js: tuple) -> CtblOrd:
        """v_{js[0]}*c_1 + ... + v_{js[i]}*c_{i+1} for i = len(js) - 1: the
        first len(js) terms of an evaluation, from the two tables."""
        val = self._prefixes.get(js)
        if val is None:
            i = len(js) - 1
            term = self._products.get((js[i], i))
            if term is None:
                term = self._products[js[i], i] = self.pool(js[i]) * self.coeffs[i]
            val = self._prefixes[js] = self._prefix(js[:i]) + term
        return val

    def evaluate(self, assignment) -> CtblOrd:
        return self._prefix(tuple([assignment[w] for w in self.sig_nodes])) + self.tail

    def decode(self, value: CtblOrd, slot_level) -> UOrd:
        """Read a pool evaluation back as a sum of u-terms plus tail."""
        per_slot = {}
        tail = ZERO
        for exp, coeff in value.terms:
            j, rem = self._split_exponent(exp)
            if j == 0:
                tail = tail + CtblOrd(((rem, coeff),))
            else:
                cur = per_slot.get(j, ZERO)
                per_slot[j] = cur + CtblOrd(((rem, coeff),))
        uterms = tuple((slot_level(j), per_slot[j])
                       for j in sorted(per_slot, reverse=True))
        return UOrd(uterms, tail)

    def _split_exponent(self, exp: CtblOrd):
        if exp.is_zero() or exp.compare(self.mu) < 0:
            return 0, exp
        lead_exp, lead_coeff = exp.terms[0]
        if lead_exp.compare(self.mu.leading_exponent()) != 0:
            return 0, exp
        return lead_coeff, CtblOrd(exp.terms[1:])

    # -- the defining clauses, evaluated -----------------------------------

    def signature_holds(self, claimed) -> bool:
        """(a) strict lexicographic monotonicity in the claimed projection,
        (b) the projection determines the value.

        The projections all have len(claimed) entries, so their
        Brouwer-Kleene order is lexicographic.  Sorted by projection, then
        value, the points satisfy both clauses for every pair exactly when
        each neighbour has an equal value under an equal projection and a
        larger value under a larger one."""
        claimed = tuple(claimed)
        if set(claimed) - set(self.tree.nodes):
            return False
        points = sorted((tuple([x[w] for w in claimed]), self.evaluate(x).key)
                        for x in self.assignments(2))
        for (px, fx), (py, fy) in zip(points, points[1:]):
            if px == py:
                if fx != fy:
                    return False
            elif fx >= fy:
                return False
        return True

    def sup_strictly_below(self, assignment) -> CtblOrd:
        """sup of evaluations over tuples lexicographically below: drop at
        some position, where the freed coordinates sup to the dropped value
        by block closure."""
        js = tuple([assignment[w] for w in self.sig_nodes])
        best = ZERO
        for drop in range(len(js)):
            val = self._prefix(js[:drop]) + self.pool(js[drop])
            if best.compare(val) < 0:
                best = val
        return best

    def essentially_continuous(self) -> bool:
        if not self.sig_nodes:
            return False
        for assignment in self.assignments(1):
            if self.evaluate(assignment).compare(
                    self.sup_strictly_below(assignment)) != 0:
                return False
        return True

    def approximation(self, i: int) -> UOrd:
        """[f_i] by evaluating the defining sup on the induced chain and
        decoding; the sup pins the first i projections and frees the rest."""
        if i == 0:
            return U1
        # the chain's l-th node (0)*(l+1) gets the pool v_{i-l}
        val = self._prefix(tuple(range(i, 0, -1)))
        if i < len(self.sig_nodes):
            val = val + self.pool(1)  # freed tail sups to the last node's pool
        else:
            val = val + self.tail
        return self.decode(val, lambda j: j)

    def approximation_sequence(self):
        return tuple(self.approximation(i) for i in range(len(self.sig_nodes) + 1))


# -- seeded generators -------------------------------------------------------------

# The generators build each normal form directly, with the draws of summing
# its terms by ordinal addition (tests/test_seeded_draws.py holds them to
# recorded draws).  Every draw is a random() or a getrandbits() call: _below
# and _sample make the getrandbits calls of the stdlib's randrange, choice
# and sample in the same order, so the cases depend only on the generator's
# word stream, not on how a Python release implements those three.
# In _terms1, which draws every countable ordinal the suites use, _below's
# loop is written out in place with each bound's width, 3 bits below 4 and
# 6 and 2 below 2 and 3, and terms merge on their exponents' int values,
# naturals 0..5, with one CtblOrd built at the end.
_NATURALS = tuple(CtblOrd.natural(n) for n in range(6))


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1: Random._randbelow written out."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """rng.sample(range(lo, hi + 1), k): the pool-swap branch that
    Random.sample takes for every population of at most 21, and only it."""
    n = hi - lo + 1
    if not 0 <= k <= n <= 21:
        raise ValueError(f"sample of {k} from {n} elements, not 0 <= k <= n <= 21")
    bits = rng.getrandbits
    pool = list(range(lo, hi + 1))
    result = []
    for i in range(n, n - k, -1):
        width = i.bit_length()
        j = bits(width)
        while j >= i:
            j = bits(width)
        result.append(pool[j])
        pool[j] = pool[i - 1]
    return result


def _add_natural(terms: list, n: int) -> None:
    """terms := terms + n for n >= 1, where every exponent is one of
    _NATURALS, so that exponent 0 is ZERO itself."""
    if terms and terms[-1][0] is ZERO:
        n += terms.pop()[1]
    terms.append((ZERO, n))


def _terms1(rng: random.Random) -> list:
    """The terms of rand_ctbl(rng), each exponent one of _NATURALS.
    Terms merge on the exponents' int values, kept in ``exps``."""
    bits = rng.getrandbits
    kind = bits(3)
    while kind >= 4:
        kind = bits(3)
    if not kind:
        n = bits(3)
        while n >= 6:
            n = bits(3)
        return [(ZERO, n)] if n else []
    rand = rng.random
    terms, exps = [], []
    count = bits(2)
    while count >= 2:
        count = bits(2)
    for _ in range(count + 1):
        if rand() < 0.4:  # a draw below 4 that is dropped, then 0..5
            while bits(3) >= 4:
                pass
            exp = bits(3)
            while exp >= 6:
                exp = bits(3)
        else:  # 1..3
            exp = bits(2)
            while exp >= 3:
                exp = bits(2)
            exp += 1
        coeff = bits(2)
        while coeff >= 3:
            coeff = bits(2)
        coeff += 1
        while exps and exps[-1] < exp:  # terms := terms + w^exp*coeff
            exps.pop()
            terms.pop()
        if exps and exps[-1] == exp:
            exps.pop()
            coeff += terms.pop()[1]
        exps.append(exp)
        terms.append((_NATURALS[exp], coeff))
    if rand() < 0.5:
        n = bits(3)
        while n >= 4:
            n = bits(3)
        if n:
            _add_natural(terms, n)
    return terms


def _uterms(rng: random.Random, lo: int, hi: int) -> list:
    """u-terms at sorted(_sample(rng, lo, hi, _below(rng, hi - lo + 2)),
    reverse=True), a random set of the levels lo..hi, highest first, each
    with the coefficient rand_ctbl(rng), or ONE where that is zero.
    Raises ValueError before any draw unless 0 <= hi - lo + 1 <= 21, the
    populations _sample takes."""
    n = hi - lo + 1
    if not 0 <= n <= 21:
        raise ValueError(f"levels {lo}..{hi}: {n} levels, not 0 <= n <= 21")
    width = (n + 1).bit_length()
    k = rng.getrandbits(width)
    while k > n:
        k = rng.getrandbits(width)
    if not k:
        return []
    levels = _sample(rng, lo, hi, k)
    levels.sort(reverse=True)
    uterms = []
    for level in levels:
        terms = _terms1(rng)
        uterms.append((level, CtblOrd(tuple(terms)) if terms else ONE))
    return uterms


def rand_ctbl(rng: random.Random) -> CtblOrd:
    """A countable ordinal.  With odds 1/4 a natural 0..5.  Else the sum of
    one or two terms w^e*c, with c in 1..3 and e a natural: with odds 0.4
    one in 0..5, drawn after a draw below 4 that is dropped, else one in
    1..3; then with odds 1/2 a natural 1..3 more."""
    return CtblOrd(tuple(_terms1(rng)))


def rand_uord(rng: random.Random, max_level: int) -> UOrd:
    uterms = _uterms(rng, 1, max_level)
    tail = rand_ctbl(rng) if rng.random() < 0.6 else ZERO
    return UOrd(tuple(uterms), tail)


def rand_limit_uord(rng: random.Random, max_level: int) -> UOrd:
    while True:
        b = rand_uord(rng, max_level)
        if b.is_limit():
            return b


def rand_index_map(rng: random.Random, n: int, n2: int) -> IndexMap:
    return IndexMap(n, n2, tuple(sorted(_sample(rng, 1, n2, n))))


def rand_qualifying_beta(rng: random.Random, max_level: int, k: int) -> UOrd:
    """A limit below u_{max_level+1} with L-cofinality u_k: its last
    coefficient is a random countable ordinal plus 1, 2 or 3."""
    if not 1 <= k <= max_level:
        raise ValueError(f"level {k} outside 1..{max_level}")
    uterms = _uterms(rng, k + 1, max_level)
    last = _terms1(rng)
    plus = rng.getrandbits(2)
    while plus >= 3:
        plus = rng.getrandbits(2)
    _add_natural(last, plus + 1)
    uterms.append((k, CtblOrd(tuple(last))))
    return UOrd(tuple(uterms), ZERO)


def enumerate_partial_le1(max_completion: int):
    """All partial level <=1 trees of degree 1 whose completion has at most
    ``max_completion`` nodes, base regular."""
    return [(base, p)
            for base in enumerate_level1_up_to(max_completion - 1, regular_only=True)
            for p in regular_nodes(base)]


def _pred_in_tree(tree: Level1Tree, node):
    i = desc_rank(tree, node)
    return tree.bk_sorted()[i - 1] if i else None


# -- suites ---------------------------------------------------------------------------

def suite_order_type(max_nodes: int) -> SuiteResult:
    res = SuiteResult(SUITES["order_type"].report)
    for tree in enumerate_level1_up_to(max_nodes, regular_only=False):
        if not len(tree):
            res.check(rep_order_type(tree) == ZERO == order_type_oracle(tree),
                      "empty tree")
            continue
        closed = OMEGA * CtblOrd.natural(len(tree)) + ONE
        got = rep_order_type(tree)
        orc = order_type_oracle(tree)
        res.check(got == closed == orc,
                  lambda: f"P={tree}: closed {closed}, got {got}, oracle {orc}")
    return res


def suite_factor_order(max_nodes: int) -> SuiteResult:
    res = SuiteResult(SUITES["factor_order"].report)
    trees = enumerate_level1_up_to(max_nodes, regular_only=False)
    for p in trees:
        for w in trees:
            c = order_type_oracle(p).compare(order_type_oracle(w))
            ot_le, ot_lt = c <= 0, c < 0
            res.check(factor_exists(p, w) == ot_le,
                      lambda: f"factor_exists({p},{w}) != ({ot_le})")
            res.check(strict_factor_exists(p, w) == ot_lt,
                      lambda: f"strict_factor_exists({p},{w}) != ({ot_lt})")
    return res


def suite_shift(pairs: int, seed: int) -> SuiteResult:
    """Seeded limits below u_7 and index maps from their levels."""
    res = SuiteResult(SUITES["shift"].report)
    rng = random.Random(seed)
    for _ in range(pairs):
        b = rand_limit_uord(rng, 6)
        n = max(b.max_level(), 1)
        n2 = n + _below(rng, 4)
        sigma = rand_index_map(rng, n, n2)
        closed = apply_shift_sup(sigma, b)
        orc = shift_sup_by_decomposition(sigma, b)
        res.check(closed.compare(orc) == 0,
                  lambda: f"sigma={sigma}, b={b}: closed {closed} != oracle {orc}")
        cont = shift_is_continuous(sigma, b)
        res.check((closed.compare(apply_shift(sigma, b)) == 0) == cont,
                  lambda: f"sigma={sigma}, b={b}: continuity criterion mismatch")
    return res


def suite_analysis(count: int, seed: int) -> SuiteResult:
    res = SuiteResult(SUITES["analysis"].report)
    rng = random.Random(seed)
    pool_trees = [t for t in enumerate_level1_up_to(5, regular_only=False) if len(t) >= 1]
    produced = 0
    while produced < count:
        tree = pool_trees[_below(rng, len(pool_trees))]
        b = rand_limit_uord(rng, max_level=len(tree))
        if b.is_countable():
            continue
        produced += 1
        an = analyze(b, tree)
        oracle = EvalOracle(b, tree)
        res.check(oracle.signature_holds(an.signature),
                  lambda: f"b={b}, W={tree}: signature {an.signature} rejected")
        res.check(an.essentially_continuous == oracle.essentially_continuous(),
                  lambda: f"b={b}, W={tree}: continuity mismatch")
        ucf_prod = an.uniform_cofinality
        ucf_orc = cf_oracle(b)
        res.check(ucf_prod == ucf_orc == cf_l(b),
                  lambda: f"b={b}: ucf {ucf_prod} vs cofinality oracle {ucf_orc}")
        res.check(an.potential_tower.is_continuous() == an.essentially_continuous,
                  lambda: f"b={b}: potential tower type vs continuity")
        orc_approx = oracle.approximation_sequence()
        res.check(an.approximation_sequence == orc_approx,
                  lambda: f"b={b}: approximations "
                  f"{tuple(map(str, an.approximation_sequence))}"
                  f" vs oracle {tuple(map(str, orc_approx))}")
        res.check(recover_from_analysis(an).compare(b) == 0,
                  lambda: f"b={b}: factoring does not recover b")
    return res


def _degree1_configs(max_partial_nodes: int, max_w: int):
    """The degree-1 configurations both level-2 ucf lemmas walk: (P, p, P+,
    k, j, W, sigma) for sigma factoring the completion P+ into W, with u_k
    the L-cofinality of the betas and j = j^{P,P+}."""
    ws = enumerate_level1_up_to(max_w, regular_only=False)
    for base, p in enumerate_partial_le1(max_partial_nodes):
        if len(p) < 2:
            continue  # the qualifying cofinality would exceed the bound
        completion = Level1Tree(base.nodes | {p})
        k = desc_rank(base, p[:-1]) + 1
        j = inclusion_shift(base, completion)
        for w in ws:
            for fm in factorings(completion, w):
                yield base, p, completion, k, j, w, fm


def _lemma_a_configs(max_partial_nodes: int, max_w: int):
    """The sup swap's configurations: (P-, p, P, k, j, W, sigma, the shift
    of sigma'), where sigma' sends p to the predecessor of sigma(p) and is a
    factoring."""
    for base, p, completion, k, j, w, fm in _degree1_configs(max_partial_nodes, max_w):
        pred = _pred_in_tree(w, fm(p))
        if pred is None:
            continue
        try:
            mapping = tuple((x, pred if x == p else fm(x)) for x, _ in fm.mapping)
            s2 = factor_to_shift(FactorMap1(completion, w, mapping))
        except NotAFactoring:
            continue
        yield base, p, completion, k, j, w, fm, s2


def suite_lemma_level2_ucf(max_partial_nodes: int, max_w: int, betas: int,
                           seed: int) -> SuiteResult:
    """sigma^W o j^{P-,P}_sup = (sigma')^W_sup o j^{P-,P} on qualifying betas."""
    res = SuiteResult(SUITES["lemma_level2_ucf"].report)
    rng = random.Random(seed)
    for base, p, _, k, j, w, fm, s2 in _lemma_a_configs(max_partial_nodes, max_w):
        s1 = factor_to_shift(fm)
        for _ in range(betas):
            beta = rand_qualifying_beta(rng, len(base), k)
            lhs = apply_shift(s1, apply_shift_sup(j, beta))
            rhs = apply_shift_sup(s2, apply_shift(j, beta))
            res.check(lhs == rhs,
                      lambda: f"P-={base}, p={p}, W={w}, sigma={fm}, beta={beta}: "
                      f"{lhs} != {rhs}")
    return res


def _completion_configs(max_partial_nodes: int, max_w: int):
    """The completion route's degree-1 configurations: (P, p, P+, k, j, W,
    sigma') with sigma'(p) the predecessor of sigma'(p-)."""
    for base, p, completion, k, j, w, fm2 in _degree1_configs(max_partial_nodes, max_w):
        if _pred_in_tree(w, fm2(p[:-1])) == fm2(p):
            yield base, p, completion, k, j, w, fm2


def suite_lemma_level2_ucf_another(max_partial_nodes: int, max_w: int, betas: int,
                                   seed: int) -> SuiteResult:
    """sigma^W = (sigma')^W_sup o j^{P,P+} in both displayed cases."""
    res = SuiteResult(SUITES["lemma_level2_ucf_another"].report)
    rng = random.Random(seed)
    # case 1: degree-0 pending, omega-cofinal beta, sigma' = sigma
    for base in enumerate_level1_up_to(max_partial_nodes - 1, regular_only=True):
        if not len(base):
            continue
        for w in enumerate_level1_up_to(max_w, regular_only=False):
            for fm in factorings(base, w):
                s = factor_to_shift(fm)
                for _ in range(max(betas // 10, 5)):
                    beta = rand_limit_uord(rng, max_level=len(base))
                    if cf_l(beta).kind != "omega" or beta.is_countable():
                        continue
                    lhs = apply_shift(s, beta)
                    rhs = apply_shift_sup(s, beta)
                    res.check(lhs == rhs,
                              lambda: f"P={base}, W={w}, beta={beta}: {lhs} != {rhs}")
    # case 2: degree-1 pending; sigma'(p) is the predecessor of sigma(p-)
    for base, p, completion, k, j, w, fm2 in _completion_configs(max_partial_nodes, max_w):
        s = factor_to_shift(make_restriction(fm2, base))
        s2 = factor_to_shift(fm2)
        for _ in range(betas):
            beta = rand_qualifying_beta(rng, len(base), k)
            lhs = apply_shift(s, beta)
            rhs = apply_shift_sup(s2, apply_shift(j, beta))
            res.check(lhs == rhs,
                      lambda: f"P={base}, p={p}, W={w}, sigma'={fm2}, "
                      f"beta={beta}: {lhs} != {rhs}")
    return res


def make_restriction(fm: FactorMap1, sub: Level1Tree) -> FactorMap1:
    mapping = tuple((x, y) for x, y in fm.mapping if x in sub.nodes)
    return FactorMap1(sub, fm.target, mapping)


def _realizable(max_dom: int):
    """(tree, t) for each level <=2 tree with at most ``max_dom`` domain
    elements that has a generated respecting tuple t."""
    for tree in enumerate_le2_trees(max_dom):
        t = generate_respecting_tuple(tree)
        if t is not None:
            yield tree, t


def recover_tree_by_search(t1: Level1Tree, dom_shape, t) -> LevelLe2Tree:
    """Search all level <=2 trees over the domain for the one the tuple
    respects.  A second match would falsify the uniqueness lemma."""
    shape = frozenset(as_domseq(q) for q in dom_shape)
    found = []
    for t2 in enumerate_level2_with_dom(shape):
        cand = LevelLe2Tree(t1, t2)
        if respects_le2(cand, t):
            found.append(cand)
    if not found:
        raise NoTreeFound()
    if len(found) > 1:
        raise MultipleTreesFound(found)
    return found[0]


def suite_uniqueness(max_dom: int) -> SuiteResult:
    """The search oracle finds exactly the generating tree, and the direct
    recovery reads the same tree off the tuple."""
    res = SuiteResult(SUITES["uniqueness"].report)
    realizable = 0
    for tree, t in _realizable(max_dom):
        realizable += 1
        verdict = respects_le2(tree, t)
        res.check(bool(verdict), lambda: f"{tree}: generated tuple rejected: {verdict}")
        shape = tree.t2.dom()
        got = recover_tree(tree.t1, shape, t)
        found = recover_tree_by_search(tree.t1, shape, t)
        res.check(got == tree and found == tree,
                  lambda: f"{tree}: recovered {got}, search found {found}")
    # Q^20 and Q^21 as validate_level2 builds them, not from child_labels
    _, _, q20, q21 = typical_trees()
    for tree, value in ((q20, UOrd.u(1, OMEGA)), (q21, UOrd.u(1, CtblOrd.natural(2)))):
        t = {(2, ()): U1, (2, ((0,),)): value}
        shape = tree.t2.dom()
        got = recover_tree(tree.t1, shape, t)
        found = recover_tree_by_search(tree.t1, shape, t)
        res.check(got == tree and found == tree,
                  lambda: f"{tree} on (u1, {value}): recovered {got}, search found {found}")
    res.check(realizable >= (10 if max_dom >= 4 else 1),
              lambda: f"only {realizable} realizable trees")
    return res


def _desc_sort_key(item):
    """Value order on descriptions: by side, then length, then lexicographic
    position with -1 least."""
    d, desc = item
    if d == 1:
        return (1, 0, bk.bk_key(desc))
    return (2, len(desc.q), bk.bk_key(desc.q))


def suite_desc_eval(max_dom: int) -> SuiteResult:
    """Continuous descriptions evaluate to the sup-embedding of their
    predecessor (checked against the decomposition oracle), and evaluation
    is monotone in the (length, lexicographic) description order; the
    constant description and the root's -1 form share the value u_1."""
    res = SuiteResult(SUITES["desc_eval"].report)
    for tree, t in _realizable(max_dom):
        if not respects_le2(tree, t):
            continue
        items = q_descriptions(tree)
        values = [evaluate_description(tree, t, it, check=False) for it in items]
        for it, val in zip(items, values):
            d, desc = it
            if d == 2 and desc.is_continuous():
                base = desc.q[:-1]
                sub = tree.t2.tree(base)
                orc = shift_sup_by_decomposition(inclusion_shift(sub, desc.tree),
                                                 t[(2, base)])
                res.check(val.compare(orc) == 0,
                          lambda: f"{tree} at {desc}: {val} != oracle {orc}")
        ordered = sorted(range(len(items)), key=lambda i: _desc_sort_key(items[i]))
        for a, b2 in zip(ordered, ordered[1:]):
            v1, v2 = values[a], values[b2]
            tie_ok = (items[a][0] == items[b2][0] == 2
                      and items[a][1].q == () and items[b2][1].q == (MINUS_ONE,))
            if tie_ok:
                res.check(v1.compare(v2) == 0,
                          lambda: f"{tree}: constant/-1 pair not tied: {v1} vs {v2}")
            else:
                res.check(v1.compare(v2) < 0,
                          lambda: f"{tree}: {items[a]} -> {v1} not below "
                          f"{items[b2]} -> {v2}")
        for d, desc in extended_descriptions(tree):
            if d == 2 and desc.extended:
                plain = t[(2, desc.q)]
                val = evaluate_description(tree, t, (d, desc), check=False)
                res.check(plain.compare(val) < 0,
                          lambda: f"{tree}: extended value not above stored "
                          f"at {desc.q}")
    return res


def suite_respect_hierarchy(max_dom: int) -> SuiteResult:
    res = SuiteResult(SUITES["respect_hierarchy"].report)
    for tree, t in _realizable(max_dom):
        if respects_le2(tree, t):
            weak = weakly_respects_le2(tree, t)
            res.check(bool(weak), lambda: f"{tree}: respects but not weakly: {weak.clause}")
    _, _, q20, q21 = typical_trees()
    two = UOrd.u(1, CtblOrd.natural(2))
    lim = UOrd.u(1, OMEGA)
    for name, tree, value, accepts in (("Q21", q21, two, True), ("Q20", q20, two, False),
                                       ("Q20", q20, lim, True), ("Q21", q21, lim, False)):
        v = respects_le2(tree, {(2, ()): U1, (2, ((0,),)): value})
        res.check(bool(v) == accepts, lambda: f"{name} on (u1, {value}): {v.clause or 'accepted'}")
    # degree 0: the value at -1 is countable with a natural tail
    pt = validate_partial_le1(Level1Tree(frozenset({(0,)})), MINUS_ONE)
    for value, accepts in ((CtblOrd.natural(3), True), (OMEGA, False)):
        v = respects_partial_le1(pt, {MINUS_ONE: value, (0,): OMEGA})
        res.check(bool(v) == accepts, lambda: f"{pt} with -1 = {value}: {v.clause or 'accepted'}")
    return res


def _l2_tower_from_tree(tree) -> list:
    """Peel the level-2 domain longest first and, within a length,
    lexicographically last first, so that each prefix is a level-2 tree: that
    index has no extension and no right neighbour among its siblings.  The
    Brouwer-Kleene-last one can have an extension, as (1) beside (1 0)."""
    entries = dict(tree.entries)
    towers = [tree]
    order = sorted(entries, key=lambda q: (len(q), q))
    for q in reversed(order[1:]):
        del entries[q]
        towers.append(validate_level2(dict(entries)))
    return list(reversed(towers))


def suite_tree_property(max_dom: int, seed: int) -> SuiteResult:
    res = SuiteResult(SUITES["tree_property"].report)
    rng = random.Random(seed)
    # S1: random regular towers with order-respecting ordinals
    for _ in range(50):
        size = _below(rng, 4) + 1
        trees, cur = [], EMPTY_TREE
        for _ in range(size):
            nodes = regular_nodes(cur)
            cur = Level1Tree(cur.nodes | {nodes[_below(rng, len(nodes))]})
            trees.append(cur)
        alphas = []
        prev = EMPTY_TREE
        for t in trees:
            node = next(iter(t.nodes - prev.nodes))
            alphas.append(UOrd.from_ctbl(OMEGA * CtblOrd.natural(desc_rank(trees[-1], node) + 1)))
            prev = t
        if s1_member(trees, [a.tail for a in alphas]):
            for cut in range(len(trees)):
                v = s1_member(trees[:cut], [a.tail for a in alphas[:cut]])
                res.check(bool(v), lambda: f"S1 prefix {cut} of {list(map(str, trees))} "
                          f"rejected: {v.clause}")
    # S2: towers carved out of realizable level <=2 trees with empty level-1 part
    for tree, t in _realizable(max_dom):
        if len(tree.t1):
            continue
        towers = _l2_tower_from_tree(tree.t2)
        alphas = []
        prev = set()
        for stage in towers:
            q = next(iter(set(stage.dom()) - prev))
            alphas.append(t[(2, q)])
            prev = set(stage.dom())
        for variant in ("respects", "weak"):
            if s2_member(towers, alphas, variant):
                for cut in range(len(towers)):
                    v = s2_member(towers[:cut], alphas[:cut], variant)
                    res.check(bool(v), lambda: f"S2 prefix {cut} rejected ({variant}): {v.clause}")
    return res


def suite_ucf_cf3(max_base_dom: int) -> SuiteResult:
    res = SuiteResult(SUITES["ucf_cf3"].report)
    ucf_cases = {i: 0 for i in range(1, 6)}
    cf_cases = {0: 0, 1: 0, 2: 0}
    for base in enumerate_le2_trees(max_base_dom):
        for pt in enumerate_partial_le2(base):
            value = ucf(pt)
            case = _ucf_case(pt)
            ucf_cases[case] += 1
            cf_cases[cf3(pt)] += 1
            if value == (0, MINUS_ONE):
                res.check(pt.d == 0, lambda: f"{pt}: (0,-1) on positive degree")
                continue
            d, desc = value
            if d == 1:
                res.check(desc in base.t1.nodes, lambda: f"{pt}: ucf node outside tree")
                continue
            found = [item for item in extended_descriptions(base)
                     if item[0] == 2 and item[1] == desc]
            res.check(len(found) == 1 and is_regular_description(found[0]),
                      lambda: f"{pt}: ucf {desc} is not a regular extended description")
    res.check(all(ucf_cases.values()),
              lambda: f"ucf cases not all exercised: {ucf_cases}")
    res.check(all(cf_cases.values()),
              lambda: f"cf3 cases not all exercised: {cf_cases}")
    return res


def _ucf_case(pt: PartialLevelLe2Tree) -> int:
    if pt.d == 0:
        return 1
    if pt.d == 1:
        return 2 if len(pt.q) > 1 else 3
    above = q_set_plus(pt.base.t2, pt.q)
    least = min(above, key=bk.bk_key)
    return 4 if least != pt.q[:-1] else 5


def enumerate_partial_le2(base: LevelLe2Tree):
    """All partial level <=2 extensions of a base tree."""
    out = [validate_partial_le2(base, 0, MINUS_ONE, EMPTY_TREE)]
    for q in addable_nodes(base.t1):
        out.append(validate_partial_le2(base, 1, q, EMPTY_TREE))
    for q in base.t2.dom():
        if base.t2.node(q) == MINUS_ONE:
            continue
        completion = base.t2.partial(q).completion()
        for a in addable_nodes(base.t2.children(q)):
            out.append(validate_partial_le2(base, 2, q + (a,), completion))
    return out


def _ucf2_size(bound: int, seed: int) -> dict:
    # both level-2 ucf suites; below 2 partial nodes and 3 nodes of W the sup swap has no case
    return {"max_partial_nodes": min(max(bound, 2), 4), "max_w": min(max(bound + 1, 3), 5),
            "betas": 10, "seed": seed}


# The suites check_lemmas runs, in order, by the short name the benchmark and --timings use.
Suite = namedtuple("Suite", "function size report")
SUITES = {
    "order_type": Suite(suite_order_type, lambda bound, seed: {"max_nodes": max(bound, 3)},
                        "order-type law: o.t.(<^P) = w*card(P)+1 vs rank oracle"),
    "factor_order": Suite(suite_factor_order, lambda bound, seed: {"max_nodes": min(bound, 4)},
                          "factoring existence vs order-type comparison"),
    "shift": Suite(suite_shift, lambda bound, seed: {"pairs": 200 * bound, "seed": seed},
                   "shift continuity criterion and decomposition recursion"),
    "analysis": Suite(suite_analysis, lambda bound, seed: {"count": 50 * bound, "seed": seed},
                      "analysis coherence against the a.e.-evaluation oracle"),
    "lemma_level2_ucf": Suite(suite_lemma_level2_ucf, _ucf2_size,
                              "level-2 uniform cofinality lemma (sup swap)"),
    "lemma_level2_ucf_another": Suite(suite_lemma_level2_ucf_another, _ucf2_size,
                                      "level-2 uniform cofinality lemma (completion route)"),
    "uniqueness": Suite(suite_uniqueness, lambda bound, seed: {"max_dom": min(bound, 4)},
                        "uniqueness of the representing level <=2 tree"),
    "desc_eval": Suite(suite_desc_eval, lambda bound, seed: {"max_dom": min(bound, 4)},
                       "description evaluation: continuous values and monotonicity"),
    "respect_hierarchy": Suite(suite_respect_hierarchy,
                               lambda bound, seed: {"max_dom": min(bound, 4)},
                               "respects implies weakly respects; typical discriminators"),
    "tree_property": Suite(suite_tree_property,
                           lambda bound, seed: {"max_dom": min(bound, 4), "seed": seed},
                           "S1/S2 accept every initial segment of an accepted node"),
    # the 5 ucf cases need bases of at least 2 domain nodes to all occur
    "ucf_cf3": Suite(suite_ucf_cf3, lambda bound, seed: {"max_base_dom": min(max(bound, 2), 3)},
                     "ucf totality/regularity and case coverage; cf3 cases"),
}


def check_lemmas(bound: int, seed: int):
    """Run the SUITES in order at a size bound, each by the module's current
    binding of its name (the benchmark wraps them there); returns SuiteResults
    with their wall times in ``seconds``.  A suite that raises a KernelError
    fails with 0 cases and the error as its counterexample, and the suites
    after it still run; any other exception propagates."""
    results = []
    for suite in SUITES.values():
        start = time.perf_counter()
        try:
            res = globals()[suite.function.__name__](**suite.size(bound, seed))
        except KernelError as e:  # the cases checked before it are not counted
            res = SuiteResult(suite.report, 0, [str(e)])
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
