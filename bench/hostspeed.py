"""How fast the host runs Python right now, sampled between ops.

The shared host the benchmark was tuned on ran the same work up to 1.8
times slower for minutes at a time, so two sets of runs at different times
disagreed by more than any useful bound.  A pass therefore times a fixed
pure-Python unit, which uses nothing of uctk, every ``INTERVAL`` seconds
between ops, and each op's time is scaled by the unit's nominal time over its
local measured time: timings are reported at the speed of a host on which
the unit takes ``UNIT_S``.  A change to uctk moves the ops and not the unit,
so it shows in full.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

clock = time.perf_counter

INTERVAL = 0.02   # seconds of ops between two units
UNIT_S = 0.0004   # about the unit's time on a quiet 2.1 GHz Xeon vCPU; only a scale
SMOOTH = 4        # each unit time is the median of this many neighbours each side

_rng = random.Random(0)
_DATA = [(_rng.random(), i, str(i)) for i in range(300)]


def _unit() -> dict:
    """Sorting with a key function, tuple building and dict updates: the
    interpreter paths uctk spends its time on."""
    d = {}
    for k in range(3):
        for a, b, c in sorted(_DATA, key=lambda t: (t[0] * (k + 1)) % 1):
            d[c] = (d.get(c, (0,))[0] + a, b)
    return d


class HostSpeed:
    def __init__(self):
        self.ticks = []
        self._next = 0.0

    def reset(self) -> None:
        """Start a pass: forget earlier ticks and take one before the first op."""
        self.ticks = []
        self._next = 0.0
        self.tick(0)

    def tick(self, done: int) -> bool:
        """Time one unit if ``INTERVAL`` has gone since the last; ``done`` is
        the number of ops finished so far.  Returns whether a unit ran."""
        if clock() < self._next:
            return False
        t0 = clock()
        _unit()
        t1 = clock()
        self.ticks.append((done, t1 - t0))
        self._next = t1 + INTERVAL
        return True


def unit_seconds(n: int) -> float:
    """The median time of ``n`` units run back to back."""
    times = []
    for _ in range(n):
        t0 = clock()
        _unit()
        times.append(clock() - t0)
    return statistics.median(times)


def scaled(samples_ms, ticks) -> array:
    """Each op's time at the nominal speed: op i is scaled by the smoothed
    unit time of the last tick taken before it."""
    units = [u for _, u in ticks]
    smooth = [statistics.median(units[max(0, j - SMOOTH):j + SMOOTH + 1])
              for j in range(len(units))]
    out = array("d")
    j = 0
    for i, ms in enumerate(samples_ms):
        while j + 1 < len(ticks) and ticks[j + 1][0] <= i:
            j += 1
        out.append(ms * UNIT_S / smooth[j])
    return out
