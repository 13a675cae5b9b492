"""The seeded generators of the lemma suites draw what they drew before
they built normal forms directly: the same values, and the same RNG calls
in the same order, so the generator that follows sees the same state.
tests/data/seeded_draws.json holds the draws recorded from the generators
that built each value by ordinal addition.  The draw helpers they use,
``_below`` and ``_sample``, are held to the stdlib calls they replace:
``randrange`` with one and two arguments, ``choice`` and ``sample``.  The
suites' draws, which merge terms on int exponents, are held to the route
they replace: terms merged on CtblOrd exponents by ``key``, kept in
conftest.py as ``_ref_ctbl`` and built up here to the ordinals below u_7.
``_ref_ctbl`` also makes the recorded depth-0 and depth-2 draws, which no
kernel generator makes."""

import json
import random
from pathlib import Path

import pytest
from conftest import _add_term_by_key, _entered, _ref_ctbl

from uctk import lemmas
from uctk.ordinals import ONE, ZERO, CtblOrd, UOrd, _Ordered

RECORDED = Path(__file__).parent / "data" / "seeded_draws.json"
SEEDS = range(6)


def _tail_free_uord(rng, max_level):
    """rand_uord's u-terms with no tail and no draw for one.  The recorded
    stream holds such draws, made when rand_uord could leave its tail out;
    the groups after them start from the RNG state they leave."""
    return UOrd(tuple(lemmas._uterms(rng, 1, max_level)), ZERO)


def draws(seed):
    """The str of each draw, group by group; each group ends with the repr
    of the next rng.random(), which pins the RNG state it leaves."""
    rng = random.Random(seed)
    groups = {}

    def group(name, make, count=20):
        groups[name] = [str(make()) for _ in range(count)] + [repr(rng.random())]

    group("rand_ctbl depth 0", lambda: _ref_ctbl(rng, 0))
    group("rand_ctbl depth 1", lambda: lemmas.rand_ctbl(rng))
    group("rand_ctbl depth 2", lambda: _ref_ctbl(rng, 2))
    group("rand_uord", lambda: lemmas.rand_uord(rng, 6))
    group("rand_uord 3 no tail", lambda: _tail_free_uord(rng, 3))
    for max_level in (1, 3, 5):
        group(f"rand_limit_uord {max_level}",
              lambda: lemmas.rand_limit_uord(rng, max_level))
    for max_level in range(1, 5):
        for k in range(1, max_level + 1):
            group(f"rand_qualifying_beta {max_level} {k}",
                  lambda: lemmas.rand_qualifying_beta(rng, max_level, k), count=10)
    return groups


def test_generators_reproduce_the_recorded_draws():
    recorded = json.loads(RECORDED.read_text())
    assert sorted(recorded) == [str(s) for s in SEEDS]
    for seed in SEEDS:
        got = draws(seed)
        assert list(got) == list(recorded[str(seed)])
        for name, values in got.items():
            assert values == recorded[str(seed)][name], (seed, name)


def _twins(seed):
    return random.Random(seed), random.Random(seed)


def test_below_is_randrange():
    for seed in SEEDS:
        rng, ref = _twins(seed)
        for n in range(1, 65):
            assert lemmas._below(rng, n) == ref.randrange(n), (seed, n)
            assert rng.random() == ref.random(), (seed, n)


def test_below_indexing_is_choice():
    for seed in SEEDS:
        rng, ref = _twins(seed)
        for n in range(1, 65):
            seq = [f"item {i}" for i in range(n)]
            assert seq[lemmas._below(rng, len(seq))] == ref.choice(seq), (seed, n)
            assert rng.random() == ref.random(), (seed, n)


def test_shifted_below_is_two_argument_randrange():
    for seed in SEEDS:
        rng, ref = _twins(seed)
        for lo in range(4):
            for n in range(1, 33):
                assert lemmas._below(rng, n) + lo == ref.randrange(lo, lo + n), (seed, lo, n)
                assert rng.random() == ref.random(), (seed, lo, n)


def test_sample_is_the_stdlib_sample_up_to_21_elements():
    cases = 0
    for lo in range(1, 4):
        for hi in range(lo, lo + 21):
            for k in range(hi - lo + 2):
                rng, ref = _twins(cases)
                assert lemmas._sample(rng, lo, hi, k) == \
                    ref.sample(range(lo, hi + 1), k), (lo, hi, k)
                assert rng.random() == ref.random(), (lo, hi, k)
                cases += 1
    assert cases == 3 * sum(range(2, 23))


@pytest.mark.parametrize("lo, hi, k", [(1, 2, 3), (1, 0, 1), (3, 3, 2), (1, 22, 1),
                                       (2, 30, 0), (1, 3, -1)])
def test_sample_rejects_before_any_draw(lo, hi, k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        lemmas._sample(rng, lo, hi, k)
    assert rng.getstate() == state


def test_index_map_larger_than_its_range_is_a_value_error():
    with pytest.raises(ValueError):
        lemmas.rand_index_map(random.Random(0), 3, 2)


@pytest.mark.parametrize("max_level", [-1, -3, 22])
def test_uord_rejects_a_level_count_outside_zero_to_21(max_level):
    # getrandbits(0) is always 0, so a count below 0 would be redrawn
    # forever; more than 21 levels is more than _sample takes
    for draw in (lemmas.rand_uord, lemmas.rand_limit_uord):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            draw(rng, max_level)
        assert rng.getstate() == state


@pytest.mark.parametrize("max_level, k", [(2, 0), (2, 3), (1, -1), (0, 0), (4, 5)])
def test_qualifying_beta_rejects_a_level_outside_one_to_max_level(max_level, k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        lemmas.rand_qualifying_beta(rng, max_level, k)
    assert rng.getstate() == state


# -- the ordinals below u_7 by the key-merging route ----------------------------

def _ref_uterms(rng, lo, hi):
    levels = sorted(lemmas._sample(rng, lo, hi, lemmas._below(rng, hi - lo + 2)),
                    reverse=True)
    uterms = []
    for level in levels:
        coeff = _ref_ctbl(rng, 1)
        uterms.append((level, ONE if coeff.is_zero() else coeff))
    return uterms


def _ref_uord(rng, max_level):
    uterms = _ref_uterms(rng, 1, max_level)
    tail = _ref_ctbl(rng, 1) if rng.random() < 0.6 else ZERO
    return UOrd(tuple(uterms), tail)


def _ref_limit_uord(rng, max_level):
    while True:
        b = _ref_uord(rng, max_level)
        if b.is_limit():
            return b


def _ref_qualifying_beta(rng, max_level, k):
    uterms = _ref_uterms(rng, k + 1, max_level)
    last = list(_ref_ctbl(rng, 1).terms)
    _add_term_by_key(last, ZERO, lemmas._below(rng, 3) + 1)
    uterms.append((k, CtblOrd(tuple(last))))
    return UOrd(tuple(uterms), ZERO)


def _draw_pairs():
    """(generator, its reference) for every draw the suites make: rand_ctbl
    (the reference at depth 1), and the ordinals below u_7 for every level
    m <= 6 and every 1 <= k <= m."""
    pairs = [(lemmas.rand_ctbl, lambda r: _ref_ctbl(r, 1))]
    for m in range(7):
        pairs.append((lambda r, m=m: lemmas.rand_uord(r, m),
                      lambda r, m=m: _ref_uord(r, m)))
    for m in range(1, 7):
        pairs.append((lambda r, m=m: lemmas.rand_limit_uord(r, m),
                      lambda r, m=m: _ref_limit_uord(r, m)))
        for k in range(1, m + 1):
            pairs.append((lambda r, m=m, k=k: lemmas.rand_qualifying_beta(r, m, k),
                          lambda r, m=m, k=k: _ref_qualifying_beta(r, m, k)))
    return pairs


_GETRANDBITS, _RANDOM = random.Random.getrandbits, random.Random.random


class _LoggedRandom(random.Random):
    """A generator that logs each ``getrandbits(k)`` and ``random()`` call,
    with its argument and result, in ``log``."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        r = _GETRANDBITS(self, k)
        self.log.append((k, r))
        return r

    def random(self):
        r = _RANDOM(self)
        self.log.append(r)
        return r


def test_depth1_draws_are_the_key_merging_draws():
    """After each draw the two generators have made the same calls, with
    the same arguments and results, in the same order; twins seeded alike
    that make the same calls are in the same state, and the states are
    compared once per seed to catch a call the log does not see."""
    pairs = _draw_pairs()
    assert len(pairs) == 1 + 7 + 6 + 21
    for seed in range(2000):
        rng, ref = _LoggedRandom(seed), _LoggedRandom(seed)
        for i, (draw, ref_draw) in enumerate(pairs):
            got, want = draw(rng), ref_draw(ref)
            assert got == want and str(got) == str(want), (seed, i, str(got), str(want))
            assert rng.log == ref.log, (seed, i)
            rng.log.clear()
            ref.log.clear()
        assert rng.getstate() == ref.getstate(), seed


def test_the_log_sees_every_draw():
    """Each draw of ``_draw_pairs`` makes only logged calls: replaying its
    log from the seed leaves a fresh generator in the drawing one's state."""
    for seed in range(3):
        for draw, _ in _draw_pairs():
            rng, replay = _LoggedRandom(seed), random.Random(seed)
            draw(rng)
            for call in rng.log:
                assert (replay.getrandbits(call[0]) == call[1] if isinstance(call, tuple)
                        else replay.random() == call)
            assert rng.log and replay.getstate() == rng.getstate()


def test_suite_draws_build_no_key():
    """A key built or read to merge two terms is used once; the depth-1
    draws compare int exponents instead."""
    def run():
        rng = random.Random(7)
        for _ in range(50):
            lemmas.rand_ctbl(rng)
            for m in range(1, 7):
                lemmas.rand_uord(rng, m)
                lemmas.rand_limit_uord(rng, m)
                for k in range(1, m + 1):
                    lemmas.rand_qualifying_beta(rng, m, k)

    watched = (_Ordered.key.fget, CtblOrd._make_key, UOrd._make_key)
    assert _entered(watched, run) == set()
