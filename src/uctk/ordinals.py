"""Ordinals below u_omega in indiscernible normal form.

Countable ordinals are kept in base-omega Cantor normal form (structurally
below epsilon_0).  An ordinal below u_omega is a sum

    u_{k_1}*c_1 + ... + u_{k_j}*c_j + tail

with strictly decreasing levels k_i >= 1, nonzero countable coefficients c_i
and a countable tail.  Addition absorbs lower terms on the left, as ordinal
addition does; multiplication is only available on the countable fragment,
which is all the shift and analysis machinery needs.
"""

from __future__ import annotations

from .errors import (CriterionFails, InvalidElement, LevelOutOfRange, NotALimit,
                     OutOfRange)
from .value import Value, format_ctbl, format_index_map, format_uord, set_field


class _Ordered:
    """Order by ``key``: nested tuples of ints that sort as the ordinals
    do, built on first use and kept in the ``_key`` slot (None until then).
    Each class defines its own ``compare``, where bench/layertrace.py counts
    the calls."""

    __slots__ = ()

    @property
    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._make_key()
            set_field(self, "_key", key)
        return key

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key


class CtblOrd(_Ordered, Value):
    """Countable ordinal in Cantor normal form.

    ``terms`` lists (exponent, coefficient) pairs with strictly decreasing
    exponents and coefficients >= 1; zero is the empty list.
    """

    __slots__ = ("terms", "_key")

    # -- construction ------------------------------------------------------

    @staticmethod
    def natural(n: int) -> "CtblOrd":
        if n < 0:
            raise ValueError("naturals only")
        if n == 0:
            return ZERO
        return CtblOrd(((ZERO, n),))

    @staticmethod
    def omega_power(exp: "CtblOrd") -> "CtblOrd":
        return CtblOrd(((exp, 1),))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_natural(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0].is_zero())

    def natural_value(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_natural():
            raise ValueError(f"{self} is not a natural")
        return self.terms[0][1]

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def finite_part(self) -> int:
        return self.terms[-1][1] if self.is_successor() else 0

    def leading_exponent(self) -> "CtblOrd":
        if self.is_zero():
            raise ValueError("zero has no leading exponent")
        return self.terms[0][0]

    # -- order and arithmetic ----------------------------------------------

    def _make_key(self) -> tuple:
        # terms compare by exponent, then coefficient; a longer sum of
        # equal leading terms is larger
        return tuple([(e.key, c) for e, c in self.terms])

    def compare(self, other: "CtblOrd") -> int:
        a, b = self.key, other.key
        return (a > b) - (a < b)

    def __add__(self, other: "CtblOrd") -> "CtblOrd":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lead = other.terms[0][0]
        lead_key = lead.key
        kept = [t for t in self.terms if t[0].key > lead_key]
        merged = list(other.terms)
        if len(kept) < len(self.terms) and self.terms[len(kept)][0].key == lead_key:
            merged[0] = (lead, self.terms[len(kept)][1] + other.terms[0][1])
        return CtblOrd(tuple(kept) + tuple(merged))

    def __mul__(self, other: "CtblOrd") -> "CtblOrd":
        if self.is_zero() or other.is_zero():
            return ZERO
        out = ZERO
        lead_exp, lead_coeff = self.terms[0]
        for exp, coeff in other.terms:
            if exp.is_zero():
                part = CtblOrd(((lead_exp, lead_coeff * coeff),) + self.terms[1:])
            else:
                part = CtblOrd(((lead_exp + exp, coeff),))
            out = out + part
        return out

    def __str__(self) -> str:
        return format_ctbl(self)

    def __repr__(self) -> str:
        return f"CtblOrd<{self}>"


ZERO = CtblOrd(())
ONE = CtblOrd.natural(1)
OMEGA = CtblOrd.omega_power(ONE)


class UOrd(_Ordered, Value):
    """Ordinal below u_omega: u-terms with countable coefficients plus tail."""

    __slots__ = ("uterms",  # ((level, CtblOrd coeff), ...), levels decreasing
                 "tail", "_key")

    @staticmethod
    def u(level: int, coeff: CtblOrd) -> "UOrd":
        if level < 1:
            raise ValueError("u-levels start at 1")
        if coeff.is_zero():
            raise ValueError("zero coefficient")
        return UOrd(((level, coeff),), ZERO)

    @staticmethod
    def from_ctbl(c: CtblOrd) -> "UOrd":
        return UOrd((), c)

    @staticmethod
    def from_nat(n: int) -> "UOrd":
        return UOrd((), CtblOrd.natural(n))

    def is_zero(self) -> bool:
        return not self.uterms and self.tail.is_zero()

    def is_countable(self) -> bool:
        return not self.uterms

    def is_limit(self) -> bool:
        if not self.tail.is_zero():
            return self.tail.is_limit()
        return bool(self.uterms)

    def max_level(self) -> int:
        return self.uterms[0][0] if self.uterms else 0

    def _make_key(self) -> tuple:
        # u-terms compare by level, then coefficient, before the tail
        return tuple([(k, c.key) for k, c in self.uterms]), self.tail.key

    def compare(self, other: "UOrd") -> int:
        a, b = self.key, other.key
        return (a > b) - (a < b)

    def __add__(self, other: "UOrd") -> "UOrd":
        if other.is_zero():
            return self
        if not other.uterms:
            return UOrd(self.uterms, self.tail + other.tail)
        lead = other.uterms[0][0]
        kept = [t for t in self.uterms if t[0] > lead]
        merged = list(other.uterms)
        if len(kept) < len(self.uterms) and self.uterms[len(kept)][0] == lead:
            merged[0] = (lead, self.uterms[len(kept)][1] + other.uterms[0][1])
        return UOrd(tuple(kept) + tuple(merged), other.tail)

    def __str__(self) -> str:
        return format_uord(self)

    def __repr__(self) -> str:
        return f"UOrd<{self}>"


U1 = UOrd.u(1, ONE)


def as_uord(v) -> UOrd:
    """The one normal form of a tuple value: a natural, a CtblOrd or a UOrd."""
    if isinstance(v, UOrd):
        return v
    if isinstance(v, CtblOrd):
        return UOrd.from_ctbl(v)
    if isinstance(v, int) and v >= 0:
        return UOrd.from_nat(v)
    raise InvalidElement(v, "not an ordinal")


# -- L-cofinality -----------------------------------------------------------

class Cofinality(Value):
    """zero | successor | omega | u(k)."""

    __slots__ = ("kind", "level")

    @staticmethod
    def zero():
        return Cofinality("zero", 0)

    @staticmethod
    def successor():
        return Cofinality("successor", 0)

    @staticmethod
    def omega():
        return Cofinality("omega", 0)

    @staticmethod
    def u(level: int):
        return Cofinality("u", level)

    def __str__(self) -> str:
        return f"u{self.level}" if self.kind == "u" else self.kind


CF_ZERO, CF_SUCCESSOR, CF_OMEGA = Cofinality.zero(), Cofinality.successor(), Cofinality.omega()


def cf_level(b: UOrd) -> int:
    """k when b has L-cofinality u_k, else 0: the last component of b is a
    u-term u_k*c whose coefficient c is a successor."""
    if b.tail.terms or not b.uterms:
        return 0
    level, coeff = b.uterms[-1]
    return 0 if coeff.is_limit() else level


def cf_l(b: UOrd) -> Cofinality:
    """L-cofinality of an ordinal below u_omega.

    The uncountable L-regular cardinals below u_omega are exactly the u_n,
    and the cofinality of a sum is that of its last component.
    """
    level = cf_level(b)
    if level:
        return Cofinality.u(level)
    if b.tail.terms:
        return CF_SUCCESSOR if b.tail.is_successor() else CF_OMEGA
    return CF_OMEGA if b.uterms else CF_ZERO


# -- index maps and shifts ---------------------------------------------------

class IndexMap(Value):
    """Order preserving map {1..n} -> {1..n2}, with the convention sigma(0)=0."""

    __slots__ = ("n", "n2", "image")

    def __init__(self, n: int, n2: int, image: tuple):
        set_field(self, "n", n)
        set_field(self, "n2", n2)
        set_field(self, "image", image)  # image[i-1] = sigma(i)
        if len(image) != n:
            raise OutOfRange("image length mismatch", list(image))
        prev = 0
        for v in image:
            if not (prev < v <= n2):
                raise OutOfRange("not strictly increasing into range", self)
            prev = v

    def __call__(self, i: int) -> int:
        if i == 0:
            return 0
        return self.image[i - 1]

    def compose(self, inner: "IndexMap") -> "IndexMap":
        """self after inner."""
        if inner.n2 > self.n:
            raise OutOfRange("composition range mismatch", self, inner)
        return IndexMap(inner.n, self.n2, tuple(self(inner(i)) for i in range(1, inner.n + 1)))

    def __str__(self) -> str:
        return format_index_map(self)


def apply_shift(sigma: IndexMap, b: UOrd) -> UOrd:
    """j^sigma: substitute u_k by u_{sigma(k)}; countable parts are fixed."""
    if b.max_level() > sigma.n:
        raise LevelOutOfRange(b, sigma)
    image = sigma.image  # sigma(k) for the levels k >= 1
    return UOrd(tuple([(image[k - 1], c) for k, c in b.uterms]), b.tail)


def _strip_one_u(b: UOrd):
    """Write a limit b of L-cofinality u_k as delta + u_k; return (delta, k).
    Only the oracle shift_sup_by_decomposition calls it."""
    level, coeff = b.uterms[-1]
    n = coeff.finite_part()  # coefficient is a successor here
    lowered = CtblOrd(coeff.terms[:-1] + (((ZERO, n - 1),) if n > 1 else ()))
    if lowered.is_zero():
        delta = UOrd(b.uterms[:-1], ZERO)
    else:
        delta = UOrd(b.uterms[:-1] + ((level, lowered),), ZERO)
    return delta, level


def shift_is_continuous(sigma: IndexMap, b: UOrd) -> bool:
    """Continuity criterion: j^sigma(b) = j^sigma_sup(b) unless the
    L-cofinality is some u_k with sigma(k) > sigma(k-1)+1."""
    k = cf_level(b)
    return not k or sigma(k) == sigma(k - 1) + 1


def apply_shift_sup(sigma: IndexMap, b: UOrd) -> UOrd:
    """j^sigma_sup(b) = sup of the j^sigma image of b, for limit b."""
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > sigma.n:
        raise LevelOutOfRange(b, sigma)
    image = sigma.image
    if shift_is_continuous(sigma, b):  # j^sigma(b), its levels checked above
        return UOrd(tuple([(image[k - 1], c) for k, c in b.uterms]), b.tail)
    # b = delta + u_k*(c+1) with a zero tail: the levels of j^sigma(delta)
    # are at least sigma(k) > sigma(k-1)+1, so u_{sigma(k-1)+1} is the last
    # term, after u_{sigma(k)}*c when c is not zero
    k, coeff = b.uterms[-1]
    n = coeff.terms[-1][1]  # the finite part: coeff is a successor here
    c = coeff.terms[:-1] + (((ZERO, n - 1),) if n > 1 else ())
    uterms = [(image[lv - 1], d) for lv, d in b.uterms[:-1]]
    if c:
        uterms.append((image[k - 1], CtblOrd(c)))
    uterms.append((sigma(k - 1) + 1, ONE))
    return UOrd(tuple(uterms), ZERO)


def decompose_shift(sigma: IndexMap, k: int):
    """Split sigma = sigma_k o tau_k at a gap sigma(k) > sigma(k-1)+1.

    sigma_k fills the gap position, tau_k skips index k; the pair factors
    j^sigma_sup into a continuous and a discontinuous part.
    """
    if not (1 <= k <= sigma.n):
        raise CriterionFails(f"k={k} out of range")
    if sigma(k) <= sigma(k - 1) + 1:
        raise CriterionFails(f"sigma({k}) = sigma({k - 1})+1")
    image_k = tuple(sigma(i) for i in range(1, k)) + (sigma(k - 1) + 1,) + \
        tuple(sigma(i - 1) for i in range(k + 1, sigma.n + 2))
    sigma_k = IndexMap(sigma.n + 1, sigma.n2, image_k)
    tau_k = IndexMap(sigma.n, sigma.n + 1,
                     tuple(i if i < k else i + 1 for i in range(1, sigma.n + 1)))
    assert sigma_k.compose(tau_k).image == sigma.image
    return sigma_k, tau_k


def shift_sup_by_decomposition(sigma: IndexMap, b: UOrd) -> UOrd:
    """Independent route to j^sigma_sup via the decomposition recursion.

    Uses only the continuity criterion, the factoring sigma = sigma_k o tau_k,
    and the fact that a map fixing {1..k-1} pointwise fixes every ordinal
    below u_k, so the sup of its image over u_k is u_k itself.
    """
    if not b.is_limit():
        raise NotALimit(b)
    if b.max_level() > sigma.n:
        raise LevelOutOfRange(b, sigma)
    if shift_is_continuous(sigma, b):
        return apply_shift(sigma, b)
    k = cf_l(b).level
    if all(sigma(i) == i for i in range(1, k)):
        delta, _ = _strip_one_u(b)
        return apply_shift(sigma, delta) + UOrd.u(k, ONE)
    sigma_k, tau_k = decompose_shift(sigma, k)
    return apply_shift(sigma_k, shift_sup_by_decomposition(tau_k, b))
