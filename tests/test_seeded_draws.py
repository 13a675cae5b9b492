"""The seeded generators of the lemma suites draw what they drew before
they built normal forms directly: the same values, and the same RNG calls
in the same order, so the generator that follows sees the same state.
tests/data/seeded_draws.json holds the draws recorded from the generators
that built each value by ordinal addition.  The draw helpers they use,
``_below`` and ``_sample``, are held to the stdlib calls they replace:
``randrange`` with one and two arguments, ``choice`` and ``sample``."""

import json
import random
from pathlib import Path

import pytest

from uctk import lemmas
from uctk.ordinals import ONE, ZERO, UOrd

RECORDED = Path(__file__).parent / "data" / "seeded_draws.json"
SEEDS = range(6)


def _tail_free_uord(rng, max_level):
    """rand_uord's u-terms with no tail and no draw for one.  The recorded
    stream holds such draws, made when rand_uord could leave its tail out;
    the groups after them start from the RNG state they leave."""
    levels = sorted(lemmas._sample(rng, 1, max_level, lemmas._below(rng, max_level + 1)),
                    reverse=True)
    coeffs = [lemmas.rand_ctbl(rng, 1) for _ in levels]
    return UOrd(tuple((k, ONE if c.is_zero() else c) for k, c in zip(levels, coeffs)), ZERO)


def draws(seed):
    """The str of each draw, group by group; each group ends with the repr
    of the next rng.random(), which pins the RNG state it leaves."""
    rng = random.Random(seed)
    groups = {}

    def group(name, make, count=20):
        groups[name] = [str(make()) for _ in range(count)] + [repr(rng.random())]

    for depth in range(3):
        group(f"rand_ctbl depth {depth}", lambda: lemmas.rand_ctbl(rng, depth))
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


@pytest.mark.parametrize("max_level, k", [(2, 0), (2, 3), (1, -1), (0, 0), (4, 5)])
def test_qualifying_beta_rejects_a_level_outside_one_to_max_level(max_level, k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        lemmas.rand_qualifying_beta(rng, max_level, k)
    assert rng.getstate() == state
