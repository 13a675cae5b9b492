"""The base of the kernel's immutable value types, and their printers.

A value class states its fields once, in ``__slots__``; a slot whose name
begins with "_" holds a cache built from the fields.  A class whose
``__slots__`` names fields and that defines no ``__init__`` is given one,
compiled from that list as ``dataclasses`` compiles its constructors: it
takes the fields in order, with no defaults, and stores each once through
its slot's own member descriptor (the descriptor's ``__set__``, bound once
when the class is compiled, which costs less than ``object.__setattr__``),
then sets each cache slot to None.  A class writes its own ``__init__``
only to build a cache or check its fields, and it takes the same arguments.
Equality and hashing are compiled from the same list: ``__eq__`` asks for
the exact class, then compares the fields in order, and ``__hash__``
hashes the tuple of the fields.  A class that writes its own ``__eq__`` or
``__hash__`` keeps it.  Each compiled method's code has a file name that
names its class and method, such as ``<uctk.value CtblOrd.__init__>``, so
profiles and tracebacks tell the classes apart.  Repr lists the fields,
and pickling calls the class on them, so ``__init__`` builds or empties
the caches again.

The printers write each kernel value in the notation ``uctk.grammar``
reads back.  They read only the values' fields, so this module imports no
other kernel module, and every module can import its printers at the top.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__

MINUS_ONE = -1  # the distinguished entry below every natural and every node


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
        own = cls.__dict__.get("__slots__", ())
        if not any(not n.startswith("_") for n in own):
            return  # no field of its own: the parent's methods serve
        for name, compile_method in (("__init__", _constructor), ("__eq__", _equality),
                                     ("__hash__", _hash)):
            if name not in cls.__dict__:
                setattr(cls, name, compile_method(cls))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


def _compiled(cls, name, params, body, names):
    """The method ``name`` of cls, written out and compiled with ``names``
    as its globals."""
    namespace = {}
    code = compile(f"def {name}({params}):{body}",
                   f"<{__name__} {cls.__qualname__}.{name}>", "exec")
    exec(code, names, namespace)
    method = namespace[name]
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


def _constructor(cls):
    """``__init__(self, *fields)``: stores each field once, and None in
    each cache slot, each through the ``__set__`` of its slot."""
    caches = [name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())
              if name.startswith("_")]
    stores = [(name, name) for name in cls._fields] + [(name, "None") for name in caches]
    body = "".join(f"\n    set_{name}(self, {value})" for name, value in stores)
    setters = {f"set_{name}": getattr(cls, name).__set__ for name, _ in stores}
    return _compiled(cls, "__init__", ", ".join(("self", *cls._fields)), body, setters)


def _equality(cls):
    """``__eq__``: the exact class, then the fields in order."""
    fields = " and ".join(f"self.{name} == other.{name}" for name in cls._fields)
    return _compiled(cls, "__eq__", "self, other",
                     "\n    if other.__class__ is not self.__class__:"
                     "\n        return NotImplemented"
                     f"\n    return {fields}", {})


def _hash(cls):
    """``__hash__``: the hash of the tuple of the fields."""
    fields = "".join(f"self.{name}, " for name in cls._fields)
    return _compiled(cls, "__hash__", "self", f"\n    return hash(({fields}))", {})


class Verdict(Value):
    """The outcome of a membership or respect check, truthy when accepted.
    A rejection names the clause it failed and, in ``detail``, what failed
    it; an acceptance with no detail is the one ``ACCEPTED``."""

    __slots__ = ("ok", "clause", "detail")

    def __bool__(self) -> bool:
        return self.ok


ACCEPTED = Verdict(True, "", "")


# -- printers --------------------------------------------------------------------------

def format_node(node) -> str:
    if node == MINUS_ONE:
        return "-1"
    return "(" + " ".join(str(i) for i in node) + ")"


def format_l1(tree) -> str:
    return "{" + " ".join(format_node(n) for n in sorted(tree.nodes)) + "}"


def format_tower(trees) -> str:
    return "[" + " ".join(format_l1(t) for t in trees) + "]"


def format_domseq(q) -> str:
    return "(" + " ".join(format_node(n) for n in q) + ")"


def format_l2(t2) -> str:
    parts = []
    for q, (tree, node) in t2.entries:
        parts.append(f"{format_domseq(q)} -> ({format_l1(tree)}, {format_node(node)})")
    return "; ".join(parts)


def format_le2(le2) -> str:
    return f"({format_l1(le2.t1)} ; {format_l2(le2.t2)})"


def format_pl2(pt) -> str:
    if pt.d == 0:
        ext = "(0, -1, {})"
    elif pt.d == 1:
        ext = f"(1, {format_node(pt.q)}, {{}})"
    else:
        ext = f"(2, {format_domseq(pt.q)}, {format_l1(pt.p)})"
    return f"({format_le2(pt.base)} @ {ext})"


def format_l3(t3) -> str:
    parts = []
    for r, pt in t3.entries:
        parts.append(f"{format_domseq(r)} -> {format_pl2(pt)}")
    return "; ".join(parts)


def format_index_map(m) -> str:
    return "{" + ", ".join(f"{i}->{m(i)}" for i in range(1, m.n + 1)) + "}"


def _format_ctbl_exponent(exp) -> str:
    if exp.is_natural():
        return str(exp.natural_value())
    if len(exp.terms) == 1 and exp.terms[0][1] == 1 and exp.terms[0][0].is_natural() \
            and exp.terms[0][0].natural_value() == 1:
        return "w"
    return "(" + format_ctbl(exp) + ")"


def format_ctbl(c) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for exp, coeff in c.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp.is_natural() and exp.natural_value() == 1:
            base = "w"
        else:
            base = f"w^{_format_ctbl_exponent(exp)}"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


def _format_coeff(c) -> str:
    if c.is_natural():
        return str(c.natural_value())
    if len(c.terms) == 1 and c.terms[0][1] == 1:
        return format_ctbl(c)  # a bare omega power: w, w^2, ...
    return "(" + format_ctbl(c) + ")"


def format_uord(b) -> str:
    if b.is_zero():
        return "0"
    parts = []
    for level, coeff in b.uterms:
        if coeff.is_natural() and coeff.natural_value() == 1:
            parts.append(f"u{level}")
        else:
            parts.append(f"u{level}*{_format_coeff(coeff)}")
    if not b.tail.is_zero():
        parts.append(format_ctbl(b.tail))
    return " + ".join(parts)


def format_desc(desc) -> str:
    pvec = "(" + " ".join(format_node(p) for p in desc.pvec) + ")"
    return f"({format_domseq(desc.q)}, {format_l1(desc.tree)}, {pvec})"


def format_rep1(elt) -> str:
    if elt.index is None:
        return f"[{format_node(elt.node)}]"
    return f"[{format_node(elt.node)}, {elt.index}]"


def format_rep2(elt) -> str:
    if elt.side == 1:
        return f"(1, {format_rep1(elt.payload)})"
    return f"(2, {format_detail(list(elt.payload))})"


def format_rep3(elt) -> str:
    return format_detail(list(elt.payload))


def format_detail(x) -> str:
    """x in the grammar's form, for any x; every error detail and every
    representation payload is written here.  A list, such as a payload, is
    [a, b]; a level key (d, q), d 1 or 2, is d:q; any other tuple, such as a
    node or a domain sequence, is (0 0) or ((0) -1); anything else is
    written by str, which is the grammar's form of every kernel value.  A
    raise site hands over a payload as a list, since a tuple of nodes would
    read as a domain sequence."""
    if isinstance(x, list):
        return "[" + ", ".join(map(format_detail, x)) + "]"
    if isinstance(x, tuple):
        if len(x) == 2 and isinstance(x[1], tuple) and x[0] in (1, 2):
            return f"{x[0]}:{format_detail(x[1])}"
        return "(" + " ".join(map(format_detail, x)) + ")"
    return str(x)
