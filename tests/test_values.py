"""The kernel's value types on seeded values and on the worked examples:
each pickles to an equal value with an equal hash, refuses assignment, and
prints as recorded in tests/data/value_forms.json (the str and repr the
types had as dataclasses).  Each type states its fields once, in
``__slots__``, and is built from exactly those fields, with no defaults."""

import ast
import importlib
import inspect
import json
import pickle
import random
from pathlib import Path

import pytest
from conftest import _ref_ctbl

import uctk
from uctk import analysis, grammar, lemmas, level1, level2, level3, ordinals, value

RECORDED = Path(__file__).parent / "data" / "value_forms.json"

LE2 = "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0)))"
LE2_CONTINUOUS = "({} ; () -> ({}, (0)); ((0)) -> ({(0)}, -1))"
PL2 = "(({} ; () -> ({}, (0)); ((0)) -> ({(0)}, (0 0))) @ (2, ((0) (0)), {(0) (0 0)}))"
L3 = "((0)) -> (({} ; () -> ({}, (0))) @ (0, -1, {}))"


def worked_example_values():
    """Values that the worked examples of spec_examples.batch build."""
    u = grammar.parse_uord
    tree = grammar.parse_l1("{(0) (0 0)}")
    le2, le2_cont = grammar.parse_le2(LE2), grammar.parse_le2(LE2_CONTINUOUS)
    t = {(2, ()): u("u1"), (2, ((0,),)): u("u1*2")}
    an = analysis.analyze(u("u1*2"), grammar.parse_l1("{(0)}"))
    pl2 = grammar.parse_pl2(PL2)
    l3 = grammar.parse_l3(L3)
    return [
        tree, level1.EMPTY_TREE, ordinals.ZERO, u("u3*2 + u1*(w^2+3) + 5"),
        grammar.parse_ctbl("w^(w+1)*2 + 3"), grammar.parse_index_map("{1->1, 2->3}"),
        ordinals.cf_l(u("u2 + u1*2")), ordinals.cf_l(u("u1*w")), ordinals.cf_l(u("5")),
        level1.Rep1Element((0, 0), None), level1.Rep1Element((0,), 3),
        *level1.factorings(grammar.parse_l1("{(0)}"), tree),
        level1.validate_tower(grammar.parse_tower("[{} {(0)} {(0) (1)}]")),
        an, analysis.analyze(u("u2"), tree), analysis.analyze(u("u1*w"), grammar.parse_l1("{(0)}")),
        an.potential_tower, level2.expand_potential(an.potential_tower),
        le2, le2.t2, le2_cont, le2.t2.partial(((0,),)),
        *(desc for d, desc in level2.extended_descriptions(le2_cont) if d == 2),
        level2.Rep2Element(1, level1.Rep1Element((0,), 3)), level2.Rep2Element(2, ()),
        level2.rep2_from_payload(le2, (u("w"), (0,))),
        level2.respects_le2(le2, t), level2.respects_le2(le2_cont, t),
        level2.weakly_respects_le2(le2, {**t, (2, ((0,),)): u("u2")}),
        pl2, *level3.completion_le2(pl2), level3.ucf(pl2)[1],
        l3, level3.rep3_from_payload(l3, grammar.parse_rep_seq("[(0), 3, -1]")),
        level3.s3_structural_member(grammar.parse_l3_tower(f"[[{L3}]]"), "plain"),
        level3.s3_structural_member([], "minus"),
        lemmas.SuiteResult("suite", 2, ["P={(0)}: 1 != 2"], 0.25),
    ]


def seeded_values(seed):
    """Ordinals, index maps, analyses, level <=2 trees with their
    descriptions and verdicts, and partial level <=2 trees, drawn from a
    seeded generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        n2 = rng.randrange(1, 7)
        out += [_ref_ctbl(rng, 2), lemmas.rand_uord(rng, 6),
                lemmas.rand_index_map(rng, rng.randrange(n2 + 1), n2)]
    trees = level1.enumerate_level1_up_to(4, regular_only=False)[1:]
    for _ in range(4):
        w = rng.choice(trees)
        b = lemmas.rand_qualifying_beta(rng, len(w), rng.randrange(1, len(w) + 1))
        an = analysis.analyze(b, w)
        out += [w, an, level2.expand_potential(an.potential_tower)]
    for le2 in rng.sample(level2.enumerate_le2_trees(3), 4):
        t = level2.generate_respecting_tuple(le2)
        out += [le2, le2.t2, *(desc for d, desc in level2.q_descriptions(le2) if d == 2)]
        if t is not None:
            out.append(level2.respects_le2(le2, t))
        pl2 = rng.choice(lemmas.enumerate_partial_le2(le2))
        out.append(pl2)
        if pl2.d == 2:  # a QDescription; lower degrees give -1 or a node
            out.append(level3.ucf(pl2)[1])
    return out


def sample_values():
    return worked_example_values() + seeded_values(0) + seeded_values(1)


VALUES = sample_values()


def test_every_value_type_is_sampled():
    names = {type(v).__name__ for v in VALUES}
    assert names >= {
        "CtblOrd", "UOrd", "Cofinality", "IndexMap", "Level1Tree", "Rep1Element",
        "FactorMap1", "Level1Tower", "PotentialTower1", "OrdAnalysis",
        "PartialLevel1Tree", "PartialTowerLe1", "Level2Tree", "LevelLe2Tree",
        "QDescription", "Rep2Element", "Verdict", "PartialLevelLe2Tree",
        "Level3Tree", "Rep3Element", "SuiteResult"}


def test_str_and_repr_are_as_recorded():
    recorded = json.loads(RECORDED.read_text())
    got = [[type(v).__name__, str(v), repr(v)] for v in VALUES]
    assert len(got) == len(recorded)
    for g, r in zip(got, recorded):
        assert g == r


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_pickle_round_trips(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    assert (str(copy), repr(copy)) == (str(value), repr(value))
    if isinstance(value, lemmas.SuiteResult):  # mutable, so unhashable
        return
    assert hash(copy) == hash(value)
    if isinstance(value, level1.FactorMap1):  # the lookup dict is rebuilt
        assert all(copy(p) == w for p, w in value.mapping)
    if isinstance(value, level2.TreeOfTrees):
        assert all(copy.label(k) == label for k, label in value.entries)


def _fields(value):
    return [name for c in type(value).__mro__ for name in c.__dict__.get("__slots__", ())
            if not name.startswith("_")]


@pytest.mark.parametrize("value", [v for v in VALUES if not isinstance(v, lemmas.SuiteResult)],
                         ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    before = repr(value)
    for name in _fields(value) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_equality_and_hash_leave_out_the_lookup_dicts():
    fm = level1.factorings(grammar.parse_l1("{(0)}"), grammar.parse_l1("{(0) (0 0)}"))[0]
    same = level1.FactorMap1(fm.source, fm.target, fm.mapping)
    assert same == fm and hash(same) == hash(fm) == hash((fm.source, fm.target, fm.mapping))
    t2 = grammar.parse_le2(LE2).t2
    assert hash(t2) == hash((t2.entries,))
    assert level2.Level2Tree(t2.entries) == t2
    assert level3.Level3Tree(t2.entries) != t2  # same entries, another class


def test_suite_result_stays_mutable():
    res = lemmas.SuiteResult("suite")
    res.seconds = 1.5
    res.check(False, "x")
    assert (res.cases, res.failures, res.seconds) == (1, ["x"], 1.5)
    assert res == lemmas.SuiteResult("suite", 1, ["x"], 1.5)
    with pytest.raises(TypeError):
        hash(res)
    # its own __hash__ = None stands, also over fields that would all hash
    assert lemmas.SuiteResult.__hash__ is None
    with pytest.raises(TypeError):
        hash(lemmas.SuiteResult("suite", 1, (), 1.5))


def _by_class():
    out = {}
    for v in VALUES:
        out.setdefault(type(v), []).append(v)
    return out


def test_equality_and_hash_agree_with_the_field_tuple():
    """Within each class, == and != are those of the field tuples, and the
    hash is the hash of that tuple."""
    pairs = 0
    for cls, values in _by_class().items():
        for v in values:
            if cls is not lemmas.SuiteResult:
                assert hash(v) == hash(v._values(v)), repr(v)
            for w in values:
                same = v._values(v) == w._values(w)
                assert (v == w, v != w) == (same, not same), (repr(v), repr(w))
                pairs += 1
    assert pairs > 1000


def test_values_of_different_classes_with_equal_fields_are_unequal():
    """Each sampled value against a value of every other class with as many
    fields, holding the same field values."""
    classes = list(_by_class())
    pairs = 0
    for v in VALUES:
        for cls in classes:
            if cls is type(v) or len(cls._fields) != len(v._fields):
                continue
            w = object.__new__(cls)  # same fields, no constructor checks
            for name, field in zip(cls._fields, v._values(v)):
                value.set_field(w, name, field)
            assert w._values(w) == v._values(v)
            assert not v == w and not w == v and v != w and w != v, (repr(v), cls)
            pairs += 1
    assert pairs > 500


def test_a_class_that_writes_its_own_equality_keeps_it():
    class Plain(value.Value):
        __slots__ = ("a",)

    class Own(value.Value):
        __slots__ = ("a",)

        def __eq__(self, other):
            return True

    class OwnHash(value.Value):
        __slots__ = ("a",)

        def __hash__(self):
            return 7

    assert Plain(1) == Plain(1) != Plain(2) and hash(Plain(1)) == hash((1,))
    assert Own(1) == Own(2) and Own.__hash__ is None  # Python's rule for an own __eq__
    assert OwnHash(1) != OwnHash(2) and hash(OwnHash(1)) == 7


SRC = Path(uctk.__file__).parent


def _value_classes():
    """Every Value subclass that a uctk module defines, each module imported."""
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"uctk.{path.stem}")
    out, stack = [], [value.Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("uctk."):
                out.append(cls)
    return out


# SuiteResult is exempt: it is mutable, it belongs to the lemma suites rather
# than the kernel, and each of the 11 suites starts one as SuiteResult(name)
# and relies on the defaults of its counts.
@pytest.mark.parametrize("cls", [c for c in _value_classes() if c is not lemmas.SuiteResult],
                         ids=lambda c: c.__name__)
def test_a_value_takes_its_fields_and_nothing_else(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls._fields)
    assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def _sets_a_parameter(stmt, params) -> bool:
    """stmt is set_field(self, "x", x) or self.x = x for a parameter x, or
    it empties a cache: set_field(self, "_x", None) or self._x = None."""
    def plain(name, value):
        if isinstance(value, ast.Name):
            return name == value.id in params
        return name.startswith("_") and isinstance(value, ast.Constant) and value.value is None

    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return (isinstance(call.func, ast.Name) and call.func.id == "set_field"
                and len(call.args) == 3 and isinstance(call.args[1], ast.Constant)
                and plain(call.args[1].value, call.args[2]))
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        return isinstance(target, ast.Attribute) and plain(target.attr, stmt.value)
    return False


def _constructors_that_only_set_fields(source):
    hits = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                params = {a.arg for a in fn.args.args[1:]}
                body = [s for s in fn.body if not isinstance(s, ast.Expr)
                        or not isinstance(s.value, ast.Constant)]
                if all(_sets_a_parameter(s, params) for s in body):
                    hits.append(cls.name)
    return hits


def test_no_constructor_only_sets_its_fields():
    """Value builds that constructor itself, cache slots emptied; a class
    writes its own only to build a cache or check its fields."""
    hits = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
            for name in _constructors_that_only_set_fields(path.read_text())]
    assert hits == []


def test_emptying_a_cache_counts_as_only_setting_fields():
    source = """
class Fields:
    def __init__(self, a, b):
        set_field(self, "a", a)
        self.b = b
        set_field(self, "_key", None)
        self._images = None

class Cache:
    def __init__(self, a):
        set_field(self, "a", a)
        set_field(self, "_images", dict(a))

class Named:
    def __init__(self, a):
        set_field(self, "key", None)
"""
    assert _constructors_that_only_set_fields(source) == ["Fields"]


def _compiled_constructor(cls) -> bool:
    return cls.__init__.__code__.co_filename == f"<uctk.value {cls.__qualname__}.__init__>"


def _caches(cls):
    return [name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())
            if name.startswith("_")]


def test_every_compiled_constructor_empties_each_cache_slot():
    class Cached(value.Value):
        __slots__ = ("a", "_b")

    class Below(Cached):
        __slots__ = ("c", "_d")

    assert (Cached(1)._b, Below(1, 2)._b, Below(1, 2)._d) == (None, None, None)
    classes = {type(v) for v in VALUES if _compiled_constructor(type(v))}
    assert {ordinals.CtblOrd, ordinals.UOrd} <= classes
    for v in VALUES:
        cls = type(v)
        if cls in classes:
            fresh = cls(*v._values(v))
            assert all(getattr(fresh, name) is None for name in _caches(cls)), repr(v)
            assert fresh._values(fresh) == v._values(v)


def test_pickling_round_trips_every_value_at_once():
    """One pickle of every sampled value: equal values, their caches built
    again from the fields."""
    keys = [v.key for v in VALUES if isinstance(v, ordinals._Ordered)]
    copies = pickle.loads(pickle.dumps(VALUES))
    assert [type(c) for c in copies] == [type(v) for v in VALUES] and copies == VALUES
    ordered = [c for c in copies if isinstance(c, ordinals._Ordered)]
    assert len(ordered) > 20 and all(c._key is None for c in ordered)
    assert [c.key for c in ordered] == keys


def test_compiled_methods_name_their_class():
    files = {cls.__init__.__code__.co_filename for cls in (ordinals.CtblOrd, ordinals.UOrd)}
    assert files == {"<uctk.value CtblOrd.__init__>", "<uctk.value UOrd.__init__>"}
    assert ordinals.IndexMap.__eq__.__code__.co_filename == "<uctk.value IndexMap.__eq__>"
    assert level2.Level2Tree.__hash__.__code__.co_filename == "<uctk.value TreeOfTrees.__hash__>"
