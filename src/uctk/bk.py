"""Brouwer-Kleene comparison over finite sequences.

A sequence is below another iff it is a proper lengthening of it, or the
entries at the first differing index compare below.  Entry orders are
supplied by a comparator returning -1/0/1; ``entry_compare`` dispatches on
the entry kinds used throughout the kernel:

  * naturals (and the distinguished -1, which sits below every natural),
  * nodes, i.e. tuples of naturals, compared by Brouwer-Kleene recursively,
  * -1 against a node: -1 is below every node,
  * ordinals (naturals, ``CtblOrd`` or ``UOrd``), compared as ``UOrd``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import IncomparableEntries
from .ordinals import as_uord
from .value import MINUS_ONE

LESS = -1
EQUAL = 0
GREATER = 1


def bk_compare(s: Sequence, t: Sequence, entry_cmp: Callable) -> int:
    """Compare two finite sequences in the Brouwer-Kleene order."""
    for a, b in zip(s, t):
        c = entry_cmp(a, b)
        if c != 0:
            return c
    if len(s) > len(t):
        return LESS        # proper lengthening comes first
    if len(s) < len(t):
        return GREATER
    return EQUAL


def entry_compare(a, b) -> int:
    """Comparator for the entry kinds occurring in representations."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return bk_compare(a, b, entry_compare)
    if isinstance(a, tuple):
        if b == MINUS_ONE:
            return GREATER
        raise IncomparableEntries(a, b)
    if isinstance(b, tuple):
        if a == MINUS_ONE:
            return LESS
        raise IncomparableEntries(a, b)
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    return as_uord(a).compare(as_uord(b))


def bk(s: Sequence, t: Sequence) -> int:
    """Brouwer-Kleene comparison with the standard entry dispatch."""
    return bk_compare(s, t, entry_compare)


def bk_key(seq: Sequence) -> tuple:
    """Native sort key for the Brouwer-Kleene order on nodes and domain
    sequences: entries map to ``(0, e)`` for a natural or -1 and to
    ``(1, bk_key(e))`` for a node, and a closing ``(2,)`` puts a proper
    lengthening below the sequence it extends.  ``bk`` stays the definition;
    ordinal entries have no key and go through ``bk``/``bk_compare``."""
    return (*map(_entry_key, seq), (2,))


def _entry_key(e) -> tuple:
    if isinstance(e, tuple):
        return (1, bk_key(e))
    if isinstance(e, int):
        return (0, e)
    raise IncomparableEntries(e)


def bk_sorted(seqs):
    return sorted(seqs, key=bk_key)
