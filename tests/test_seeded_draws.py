"""The seeded generators of the lemma suites draw what they drew before
they built normal forms directly: the same values, and the same RNG calls
in the same order, so the generator that follows sees the same state.
tests/data/seeded_draws.json holds the draws recorded from the generators
that built each value by ordinal addition."""

import json
import random
from pathlib import Path

from uctk import lemmas

RECORDED = Path(__file__).parent / "data" / "seeded_draws.json"
SEEDS = range(6)


def draws(seed):
    """The str of each draw, group by group; each group ends with the repr
    of the next rng.random(), which pins the RNG state it leaves."""
    rng = random.Random(seed)
    groups = {}

    def group(name, make, count=20):
        groups[name] = [str(make()) for _ in range(count)] + [repr(rng.random())]

    for depth in range(3):
        group(f"rand_ctbl depth {depth}", lambda: lemmas.rand_ctbl(rng, depth))
    group("rand_uord", lambda: lemmas.rand_uord(rng))
    group("rand_uord 3 no tail", lambda: lemmas.rand_uord(rng, 3, allow_tail=False))
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
