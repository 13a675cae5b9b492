import sys

from hypothesis import HealthCheck, settings

from uctk import lemmas
from uctk.ordinals import ZERO, CtblOrd

settings.register_profile(
    "kernel",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kernel")


def _entered(production, run) -> set:
    """The names of the functions in ``production`` that ``run()`` calls."""
    forbidden = {f.__code__: f.__qualname__ for f in production}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in forbidden:
            entered.add(forbidden[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


# -- the key-merging draw of a countable ordinal -------------------------------
# lemmas.rand_ctbl draws what _ref_ctbl(rng, 1) draws; the other depths are
# drawn only by tests, from here.

_NATURALS = tuple(CtblOrd.natural(n) for n in range(6))


def _add_term_by_key(terms, exp, coeff):
    if terms:
        key = exp.key
        while terms and terms[-1][0].key < key:
            terms.pop()
        if terms and terms[-1][0].key == key:
            coeff += terms.pop()[1]
    terms.append((exp, coeff))


def _ref_ctbl(rng, depth):
    below = lemmas._below
    if below(rng, 4) == 0 or depth <= 0:
        return _NATURALS[below(rng, 6)]
    terms = []
    for _ in range(below(rng, 2) + 1):
        exp = _ref_ctbl(rng, depth - 1) if rng.random() < 0.4 else \
            _NATURALS[1:4][below(rng, 3)]
        _add_term_by_key(terms, exp, below(rng, 3) + 1)
    if rng.random() < 0.5:
        n = below(rng, 4)
        if n:
            _add_term_by_key(terms, ZERO, n)
    return CtblOrd(tuple(terms))
