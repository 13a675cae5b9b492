"""The base of the kernel's immutable value types.

A value class lists its fields in ``__slots__``, in the order its
``__init__`` takes them, and sets each once through ``set_field``; a slot
whose name begins with "_" holds a cache built from the fields.  Equality
and hashing go by the fields and the exact class, repr lists the fields,
and pickling calls the class on them, so ``__init__`` rebuilds the caches.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ())
                            if not name.startswith("_"))
        get = attrgetter(*cls._fields)
        # the fields as a tuple; attrgetter returns a lone field bare
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


class Verdict(Value):
    """The outcome of a membership or respect check, truthy when accepted.
    A rejection names the clause it failed and, in ``detail``, what failed
    it; an acceptance with no detail is the one ``ACCEPTED``."""

    __slots__ = ("ok", "clause", "detail")

    def __init__(self, ok: bool, clause: str = "", detail: str = ""):
        set_field(self, "ok", ok)
        set_field(self, "clause", clause)
        set_field(self, "detail", detail)

    def __bool__(self) -> bool:
        return self.ok


ACCEPTED = Verdict(True)
