import itertools
import random

import pytest
from conftest import _ref_ctbl
from hypothesis import given, settings, strategies as st

from uctk.errors import (CriterionFails, InvalidElement, LevelOutOfRange,
                         NotALimit, OutOfRange)
from uctk.grammar import format_ctbl, format_uord, parse_ctbl, parse_uord
from uctk.lemmas import cf_oracle, rand_qualifying_beta, rand_uord
from uctk.ordinals import (OMEGA, ONE, U1, ZERO, Cofinality, CtblOrd,
                           IndexMap, UOrd, _strip_one_u, apply_shift,
                           apply_shift_sup, as_uord, cf_l, decompose_shift,
                           shift_is_continuous, shift_sup_by_decomposition)


def ctbl(text):
    return parse_ctbl(text)


def uord(text):
    return parse_uord(text)


# -- strategies ---------------------------------------------------------------

ctbl_atoms = st.integers(0, 5).map(CtblOrd.natural)


def _sum_terms(parts):
    out = ZERO
    for p in parts:
        out = out + p
    return out


def _sum_uords(parts):
    out = UOrd((), ZERO)
    for p in parts:
        out = out + p
    return out


ctbl_ords = st.recursive(
    ctbl_atoms,
    lambda inner: st.lists(
        st.tuples(inner, st.integers(1, 3)), min_size=1, max_size=3
    ).map(lambda ps: _sum_terms([CtblOrd(((e, c),)) for e, c in ps])),
    max_leaves=6,
)

uords = st.builds(
    lambda levels, coeffs, tail: _sum_uords(
        [UOrd.u(k, c if not c.is_zero() else ONE)
         for k, c in zip(sorted(set(levels), reverse=True), coeffs)]
        + [UOrd.from_ctbl(tail)]),
    st.lists(st.integers(1, 5), max_size=3),
    st.lists(ctbl_ords, min_size=3, max_size=3),
    ctbl_ords,
)


# -- countable arithmetic -------------------------------------------------------

def test_ctbl_basics():
    assert ctbl("0").is_zero()
    assert ctbl("5").natural_value() == 5
    assert ctbl("w") == OMEGA
    assert ctbl("w+1").is_successor()
    assert ctbl("w*2").is_limit()
    assert ctbl("w^2+w*2+5") == OMEGA * OMEGA + OMEGA * ctbl("2") + ctbl("5")


def test_ctbl_absorption():
    assert ctbl("5") + OMEGA == OMEGA
    assert ctbl("w+5") + OMEGA == ctbl("w*2")
    assert ctbl("w^2") + ctbl("w") == ctbl("w^2+w")


def test_ctbl_mul():
    assert ctbl("w") * ctbl("w") == ctbl("w^2")
    assert ctbl("w*2+1") * ctbl("2") == ctbl("w*4+1")
    assert ctbl("w+1") * ctbl("w") == ctbl("w^2")
    assert ctbl("2") * ctbl("w") == ctbl("w")


@given(ctbl_ords, ctbl_ords, ctbl_ords)
@settings(max_examples=60)
def test_ctbl_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ctbl_ords, ctbl_ords, ctbl_ords)
@settings(max_examples=60)
def test_ctbl_left_add_monotone(a, b, c):
    if a < b:
        assert c + a < c + b


@given(ctbl_ords, ctbl_ords, ctbl_ords)
@settings(max_examples=60)
def test_ctbl_mul_left_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(ctbl_ords, ctbl_ords)
@settings(max_examples=60)
def test_ctbl_total_order(a, b):
    assert (a.compare(b) == 0) == (a == b)
    assert a.compare(b) == -b.compare(a)


def recursive_ctbl_compare(a, b):
    """Cantor normal forms compared term by term: the reference for the key."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        c = recursive_ctbl_compare(e1, e2)
        if c != 0:
            return c
        if c1 != c2:
            return -1 if c1 < c2 else 1
    n1, n2 = len(a.terms), len(b.terms)
    return (n1 > n2) - (n1 < n2)


def recursive_uord_compare(a, b):
    for (k1, c1), (k2, c2) in zip(a.uterms, b.uterms):
        if k1 != k2:
            return 1 if k1 > k2 else -1
        c = recursive_ctbl_compare(c1, c2)
        if c != 0:
            return c
    n1, n2 = len(a.uterms), len(b.uterms)
    if n1 != n2:
        return 1 if n1 > n2 else -1
    return recursive_ctbl_compare(a.tail, b.tail)


def _seeded_pool(draw, reparse, size=400):
    """Seeded values, each twice: as drawn and as a new object parsed from
    its text, with no key built yet."""
    values = [draw() for _ in range(size)]
    return values + [reparse(str(v)) for v in values]


@pytest.mark.parametrize("kind", ["ctbl", "uord"])
def test_key_agrees_with_the_recursive_comparison(kind):
    # the cached key is the order; the recursive comparison stays the reference
    rng = random.Random(0)
    if kind == "ctbl":
        pool = _seeded_pool(lambda: _ref_ctbl(rng, rng.randrange(4)), parse_ctbl)
        reference = recursive_ctbl_compare
    else:
        pool = _seeded_pool(lambda: rand_uord(rng, rng.randrange(1, 7)), parse_uord)
        reference = recursive_uord_compare
    equal = 0
    for _ in range(50000):
        a, b = rng.choice(pool), rng.choice(pool)
        c = reference(a, b)
        assert a.compare(b) == c, (a, b)
        assert ((a < b), (a <= b), (a > b), (a >= b), (a == b)) == \
            (c < 0, c <= 0, c > 0, c >= 0, c == 0), (a, b)
        equal += c == 0
    assert equal > 500  # equal pairs, mostly of distinct objects, are covered


# -- u-ordinal arithmetic ----------------------------------------------------------

def test_uord_examples():
    assert uord("u2 + u1") < uord("u2*2")
    assert uord("u1*2 + 5") + uord("u1") == uord("u1*3")
    assert uord("u2") + uord("u2") == uord("u2*2")


@given(uords, uords, uords)
@settings(max_examples=60)
def test_uord_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(uords, uords, uords)
@settings(max_examples=60)
def test_uord_left_add_monotone(a, b, c):
    if a < b:
        assert c + a < c + b


# -- cofinality ---------------------------------------------------------------------

def test_cf_examples():
    assert cf_l(uord("u3")) == Cofinality.u(3)
    assert cf_l(uord("u1*w")) == Cofinality.omega()
    assert cf_l(uord("u2 + u1*2")) == Cofinality.u(1)
    assert cf_l(uord("0")) == Cofinality.zero()
    assert cf_l(uord("u1 + 3")) == Cofinality.successor()
    assert cf_l(uord("w*2")) == Cofinality.omega()


@given(uords)
@settings(max_examples=80)
def test_cf_agrees_with_fundamental_sequence_oracle(b):
    assert cf_l(b) == cf_oracle(b)


# -- shifts ---------------------------------------------------------------------------

def imap(*image):
    return IndexMap(len(image), max(image) if image else 0, tuple(image))


def test_apply_shift_examples():
    assert apply_shift(imap(2), uord("u1 + 5")) == uord("u2 + 5")
    assert apply_shift(IndexMap(3, 3, (1, 2, 3)), uord("u3*2 + u1")) == uord("u3*2 + u1")
    assert apply_shift(imap(1, 3), uord("u2*2 + u1")) == uord("u3*2 + u1")
    with pytest.raises(LevelOutOfRange):
        apply_shift(imap(2), uord("u2"))


def test_apply_shift_sup_examples():
    assert apply_shift_sup(imap(2), uord("u1")) == uord("u1")
    assert apply_shift_sup(imap(1, 3), uord("u2")) == uord("u2")
    assert apply_shift_sup(imap(2), uord("u1*w")) == uord("u2*w")
    with pytest.raises(NotALimit):
        apply_shift_sup(imap(2), uord("u1 + 1"))


def test_decompose_examples():
    s2, t2 = decompose_shift(imap(1, 3), 2)
    assert s2.image == (1, 2, 3) and t2.image == (1, 3)
    s1, t1 = decompose_shift(imap(3), 1)
    assert s1.image == (1, 3) and t1.image == (2,)
    s1b, t1b = decompose_shift(imap(2), 1)
    assert s1b.image == (1, 2) and t1b.image == (2,)
    with pytest.raises(CriterionFails):
        decompose_shift(imap(1, 2), 2)


def test_shift_functoriality():
    import random
    from uctk.lemmas import rand_index_map, rand_limit_uord
    rng = random.Random(7)
    for _ in range(300):
        inner = rand_index_map(rng, 3, 5)
        outer = rand_index_map(rng, 5, 7)
        b = rand_uord(rng, max_level=3)
        assert apply_shift(outer, apply_shift(inner, b)) == \
            apply_shift(outer.compose(inner), b)


def test_sup_closed_form_against_decomposition_recursion():
    import random
    from uctk.lemmas import rand_index_map, rand_limit_uord
    rng = random.Random(3)
    for _ in range(500):
        b = rand_limit_uord(rng, 5)
        n = max(b.max_level(), 1)
        sigma = rand_index_map(rng, n, n + rng.randrange(0, 3))
        assert apply_shift_sup(sigma, b) == shift_sup_by_decomposition(sigma, b)


def _sup_by_stripping(sigma, b):
    """apply_shift_sup as it was before it built its discontinuous result in
    one pass: strip the last u_k, shift, and append u_{sigma(k-1)+1}."""
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > sigma.n:
        raise LevelOutOfRange(b, sigma)
    if shift_is_continuous(sigma, b):
        return apply_shift(sigma, b)
    delta, k = _strip_one_u(b)
    return UOrd(apply_shift(sigma, delta).uterms + ((sigma(k - 1) + 1, ONE),), ZERO)


def _outcome(f, sigma, b):
    try:
        return f(sigma, b)
    except (NotALimit, LevelOutOfRange) as e:
        return type(e), e.code


def test_one_pass_sup_agrees_with_the_stripping_route():
    """Every level pattern below u_5, a successor, limit and zero tail, the
    last coefficients 1, 2, 3, w+1, w*2+3, w^2+1 and w, and every index map
    {1..n} -> {1..n+2} with n <= 4."""
    heads = [ctbl(t) for t in ("1", "w+2", "w^2")]
    lasts = [ctbl(t) for t in ("1", "2", "3", "w+1", "w*2+3", "w^2+1", "w")]
    tails = [ZERO, ONE, OMEGA]
    maps = [IndexMap(n, n + 2, image) for n in range(5)
            for image in itertools.combinations(range(1, n + 3), n)]
    seen = set()
    for size in range(5):
        for levels in itertools.combinations(range(4, 0, -1), size):
            for last in lasts if levels else [ZERO]:
                coeffs = [heads[i % 3] for i in range(size - 1)] + [last]
                for tail in tails:
                    b = UOrd(tuple(zip(levels, coeffs)), tail)
                    for sigma in maps:
                        got = _outcome(apply_shift_sup, sigma, b)
                        assert got == _outcome(_sup_by_stripping, sigma, b), (sigma, b)
                        seen.add(got if isinstance(got, tuple) else
                                 shift_is_continuous(sigma, b))
    assert seen == {True, False, (NotALimit, "NOT_A_LIMIT"),
                    (LevelOutOfRange, "LEVEL_OUT_OF_RANGE")}


def test_sup_monotonicity_bracketing():
    import random
    from uctk.lemmas import rand_index_map, rand_limit_uord
    rng = random.Random(11)
    for _ in range(300):
        b = rand_limit_uord(rng, 4)
        n = max(b.max_level(), 1)
        sigma = rand_index_map(rng, n, n + rng.randrange(0, 3))
        sup = apply_shift_sup(sigma, b)
        assert sup <= apply_shift(sigma, b)
        bp = rand_uord(rng, max_level=n)
        if bp < b:
            assert apply_shift(sigma, bp) < sup


def _old_cf_l(b):
    """cf_l as it was, kept as its reference: the zero, successor and limit
    tests, and a new Cofinality for each answer."""
    if b.is_zero():
        return Cofinality.zero()
    if not b.tail.is_zero():
        return Cofinality.successor() if b.tail.is_successor() else Cofinality.omega()
    level, coeff = b.uterms[-1]
    if coeff.is_limit():
        return Cofinality.omega()
    return Cofinality.u(level)


def _old_shift_is_continuous(sigma, b):
    """shift_is_continuous as it was: the level read off a Cofinality."""
    c = _old_cf_l(b)
    if c.kind != "u":
        return True
    return sigma(c.level) == sigma(c.level - 1) + 1


def _old_apply_shift_sup(sigma, b):
    """apply_shift_sup as it was: the continuous case through apply_shift,
    which checks the levels again."""
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > sigma.n:
        raise LevelOutOfRange(b, sigma)
    if _old_shift_is_continuous(sigma, b):
        return apply_shift(sigma, b)
    image = sigma.image
    k, coeff = b.uterms[-1]
    n = coeff.terms[-1][1]
    c = coeff.terms[:-1] + (((ZERO, n - 1),) if n > 1 else ())
    uterms = [(image[lv - 1], d) for lv, d in b.uterms[:-1]]
    if c:
        uterms.append((image[k - 1], CtblOrd(c)))
    uterms.append((sigma(k - 1) + 1, ONE))
    return UOrd(tuple(uterms), ZERO)


def _result(f, *args):
    """f(*args), or the class and values of its error."""
    try:
        return f(*args)
    except (NotALimit, LevelOutOfRange, IndexError) as e:
        return type(e), e.args


def test_cofinality_level_agrees_with_the_routes_it_replaced():
    """cf_l, shift_is_continuous and apply_shift_sup against their old
    copies on seeded ordinals, qualifying betas and edge values, each
    against every index map {1..n} -> {1..n2} with n2 <= 6."""
    rng = random.Random(25)
    values = [uord(t) for t in ("0", "u1 + 3", "u1*w", "w*2")]
    values += [rand_uord(rng, 6) for _ in range(40)]
    for _ in range(24):
        top = rng.randrange(1, 7)
        values.append(rand_qualifying_beta(rng, top, rng.randrange(1, top + 1)))
    maps = [IndexMap(n, n2, image) for n2 in range(7) for n in range(n2 + 1)
            for image in itertools.combinations(range(1, n2 + 1), n)]
    assert len(maps) == 127
    seen = set()
    for b in values:
        assert cf_l(b) == _old_cf_l(b), b
        seen.add(cf_l(b).kind)
        for sigma in maps:
            for new, old in ((shift_is_continuous, _old_shift_is_continuous),
                             (apply_shift_sup, _old_apply_shift_sup)):
                got = _result(new, sigma, b)
                assert got == _result(old, sigma, b), (new.__name__, sigma, b)
                seen.add(got[0] if isinstance(got, tuple) else type(got))
    assert seen == {"zero", "successor", "omega", "u", bool, UOrd,
                    NotALimit, LevelOutOfRange, IndexError}


# -- parsing and printing ----------------------------------------------------------------

def test_print_examples():
    assert format_uord(uord("u3*2 + u1*(w^2+3) + 5")) == "u3*2 + u1*(w^2+3) + 5"
    assert format_uord(U1) == "u1"
    assert format_uord(UOrd.from_ctbl(ZERO)) == "0"
    assert format_ctbl(ctbl("w^(w+1)*2+w")) == "w^(w+1)*2+w"


@given(uords)
@settings(max_examples=80)
def test_uord_roundtrip(b):
    assert parse_uord(format_uord(b)) == b


@given(ctbl_ords)
@settings(max_examples=80)
def test_ctbl_roundtrip(c):
    assert parse_ctbl(format_ctbl(c)) == c


def test_index_map_errors_are_coded():
    with pytest.raises(OutOfRange):
        IndexMap(2, 3, (3, 2))
    with pytest.raises(OutOfRange):
        IndexMap(2, 3, (1,))
    with pytest.raises(OutOfRange):
        IndexMap(1, 1, (1,)).compose(IndexMap(2, 2, (1, 2)))


def test_as_uord_normalises_tuple_values():
    assert as_uord(3) == UOrd.from_nat(3)
    assert as_uord(OMEGA) == UOrd.from_ctbl(OMEGA)
    assert as_uord(U1) is U1
    with pytest.raises(InvalidElement):
        as_uord(-1)
