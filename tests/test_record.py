"""The record classes keep the semantics they had as dataclasses: equality
by class and compared fields, the hash of the tuple of compared fields,
``Name(field=value, ...)`` as repr, no order, ``replace``, and
``FrozenInstanceError`` on assignment to a frozen record.  Checked on
every record class of the package with stand-in field values, and on every
record inside random Seq terms."""

from __future__ import annotations

import copy
import importlib
import pickle
from functools import cached_property

import pytest
from hypothesis import given, settings

from pcsp import record as record_module
from pcsp.record import FrozenInstanceError, fields, record, replace
from pcsp.syntax import BANG, QUERY, T_TYPE, TVal

from test_syntax import terms

MODULES = ["syntax", "errors", "lts", "parser", "analysis", "reduction",
           "report", "ssos", "cose"]
RECORDS = {cls.__qualname__: cls
           for mod in (importlib.import_module(f"pcsp.{m}") for m in MODULES)
           for cls in vars(mod).values()
           if isinstance(cls, type) and cls.__module__ == mod.__name__
           and "__record_fields__" in vars(cls)}


def _wide(n, **options):
    """A module-level record class (so that pickle finds it) of n fields,
    more than any class of the package has."""
    name = f"Wide{n}"
    cls = record(**options)(type(name, (), {
        "__module__": __name__, "__qualname__": name,
        "__annotations__": {f"w{i}": "str" for i in range(n)}}))
    globals()[name] = cls
    return cls


WIDE = {cls.__qualname__: cls for cls in (
    _wide(7, frozen=True, slots=True), _wide(8, frozen=True),
    _wide(10, frozen=True), _wide(12))}
MUTABLE = {"Equation", "Definitions", "Lts", "NormalisedSpec", "Verdict",
           "TraceWitness", "ThresholdReport", "SizeResult", "PmcpVerdict",
           "ConditionReport", "Wide12"}
# classes whose hash is their own: TVal hashes by identity
OWN_HASH = {"TVal"}

# Two stand-in values per field (a, b): strings, except where a class
# checks its fields on construction.
STAND_INS = {
    "TVal": {"index": (1, 2)},
    "Field": {"sel": (BANG, BANG), "payload": (TVal(0), TVal(1)),
              "ty": (None, None), "bang_is_t": (True, False)},
    "Guard": {"t_atoms": ((("x", "y"),), (("x", "z"),))},
}


def _values(cls, which: int) -> dict:
    given_ = STAND_INS.get(cls.__qualname__, {})
    return {f.name: given_.get(f.name, (f"a{i}", f"b{i}"))[which]
            for i, f in enumerate(fields(cls)) if f.init}


def _field_tuple(x, keep) -> tuple:
    return tuple(getattr(x, f.name) for f in fields(x) if keep(f))


def _check_record(x):
    """The properties of one record that do not depend on stand-in values."""
    cls = type(x)
    assert repr(x) == cls.__qualname__ + "(" + ", ".join(
        f"{f.name}={getattr(x, f.name)!r}" for f in fields(x) if f.repr) + ")"
    assert replace(x) == x and copy.copy(x) == x and copy.deepcopy(x) == x
    assert x.__eq__(object()) is NotImplemented
    if cls.__qualname__ in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        return
    assert pickle.loads(pickle.dumps(x)) == x
    if cls.__qualname__ not in OWN_HASH:
        assert hash(x) == hash(_field_tuple(x, lambda f: f.compare))
    for f in fields(x):
        with pytest.raises(FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(x, f.name)


def test_the_package_has_its_record_classes():
    assert len(RECORDS) == 51
    assert MUTABLE <= RECORDS.keys() | WIDE.keys()
    # no record class derives from another
    assert not [cls for cls in RECORDS.values()
                if any("__record_fields__" in vars(base) for base in cls.__mro__[1:])]
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("name", sorted(RECORDS) + sorted(WIDE))
def test_record_semantics(name):
    cls = RECORDS.get(name) or WIDE[name]
    a, b = _values(cls, 0), _values(cls, 1)
    x = cls(**a)
    _check_record(x)
    assert x == cls(**a)
    assert x != cls(**b) or a == b
    for f in fields(cls):
        if not f.init or a[f.name] == b[f.name]:
            continue
        y = replace(x, **{f.name: b[f.name]})
        assert y == cls(**{**a, f.name: b[f.name]})
        assert getattr(y, f.name) == b[f.name] and getattr(x, f.name) == a[f.name]
        assert (x == y) is not f.compare
        if name not in MUTABLE | OWN_HASH and not f.compare:
            assert hash(x) == hash(y)
        if name in MUTABLE:
            setattr(y, f.name, a[f.name])
            assert y == x
    with pytest.raises(TypeError):
        x < x


def test_classes_with_as_many_fields_share_one_template():
    @record(frozen=True)
    class Other:
        x0: int
        x1: int
        x2: int
        x3: int
        x4: int
        x5: int
        x6: int

    wide = WIDE["Wide7"]
    for method in ("__init__", "__eq__", "__hash__"):
        mine, theirs = getattr(Other, method).__code__, getattr(wide, method).__code__
        assert mine.co_code == theirs.co_code
        assert (mine.co_varnames + mine.co_names) != (theirs.co_varnames + theirs.co_names)
    for kind in ("init", "eq", "hash"):
        assert record_module._template(kind, 7) is record_module._template(kind, 7)
        assert record_module._template(kind, 7).__code__.co_filename == f"<record {kind} template>"


def _records_in(obj):
    if isinstance(obj, tuple):
        for item in obj:
            yield from _records_in(item)
    elif hasattr(obj, "__record_fields__"):
        yield obj
        for f in fields(obj):
            yield from _records_in(getattr(obj, f.name))


@given(terms())
@settings(max_examples=60, deadline=None)
def test_every_record_in_a_term_keeps_its_semantics(term):
    found = list(_records_in(term))
    assert found[0] is term
    for x in found:
        _check_record(x)
        assert replace(x) is x if type(x) is TVal else replace(x) is not x


def test_what_single_classes_keep():
    syntax, lts = importlib.import_module("pcsp.syntax"), importlib.import_module("pcsp.lts")
    # fields that take no part in equality
    alpha = syntax.Construct("c", (), uid=1)
    assert alpha == syntax.Construct("c", (), uid=2) and hash(alpha) == hash(("c", ()))
    ty = syntax.NamedType("X", (syntax.Atom("X", "u", 0),))
    assert ty == syntax.NamedType("X", ()) and hash(ty) == hash(("X",))
    # Event keeps its slots and the hash it computes once
    event = lts.Event("c", (TVal(0),))
    assert not hasattr(event, "__dict__") and event._hash == hash(("c", (TVal(0),)))
    assert repr(event) == "Event(channel='c', values=(TVal(index=0),))"
    # __post_init__ checks run, default factories give fresh values
    with pytest.raises(AssertionError):
        syntax.Field(QUERY, "x", None)
    assert syntax.Field(QUERY, "x", T_TYPE).bang_is_t is False
    d1, d2 = syntax.Definitions(), syntax.Definitions()
    assert d1 == d2 and d1.equations is not d2.equations and d1.filename == "<input>"
    # the operator table keeps its cached layout
    assert isinstance(vars(syntax.Operator)["layout"], cached_property)
    assert syntax.OPERATORS[syntax.Hide].symbol == "\\"
