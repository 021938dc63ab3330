"""Record classes: fields declared by annotation, and the methods that
``dataclasses`` would give them, with no code generated per class.

Every term, label and report of the toolkit is a record.
``dataclasses`` writes the source of each class's ``__init__``, ``__eq__``,
``__hash__`` and ``__repr__`` and ``exec``-s it, one method at a time.
Without cached bytecode every run of ``pcsp`` pays that again: for the
package's record classes it took 55-65 ms of start-up, while the builds
most commands make take a few.  ``record`` takes each method from a shared
template instead.  There is one template per kind (``__init__``,
``__eq__``, ``__hash__``) and number of fields, written once as source over
that number and compiled the first time a class needs it, never per class.
A class's copy of it has the template's placeholder parameters or
attributes renamed to the class's fields (``code.replace``), so that
construction, equality and hashing run the same bytecode as the generated
methods did.  ``repr`` and ``replace`` are shared functions over the field
names.

What is kept from ``dataclasses``:

- equality holds between records of the same class whose compared fields
  are equal;
- ``hash`` is the hash of the tuple of the compared fields; a mutable
  record is unhashable, and a ``__hash__`` the class defines is kept;
- ``repr`` is ``Name(field=value, ...)`` over the fields with ``repr=True``;
- a field's default may be a value or a ``default_factory``, called for
  each construction that does not give the field; a ``field(init=False)``
  is no parameter; ``__post_init__`` runs once the fields are set;
- assigning or deleting an attribute of a frozen record raises
  ``FrozenInstanceError``, an ``AttributeError``;
- ``slots=True`` gives the class ``__slots__`` instead of an instance dict,
  and a ``__reduce__`` through the constructor, so that pickle and copy
  work; ``init=False`` leaves construction to the class (``TVal`` interns
  through ``__new__``).
"""

from __future__ import annotations

from operator import attrgetter
from types import FunctionType

_set = object.__setattr__
_MISSING = object()  # no default
_FACTORY = object()  # the parameter default of a field with a default_factory


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class RecordField:
    """One declared field of a record class."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING, init=True,
                 repr=True, compare=True):
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare

    def has_default(self) -> bool:
        return self.default is not _MISSING or self.default_factory is not _MISSING


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True,
          compare=True) -> RecordField:
    """A field with a default, or one left out of construction (init),
    printing (repr), or equality and hashing (compare)."""
    return RecordField(default, default_factory, init, repr, compare)


def fields(obj) -> tuple[RecordField, ...]:
    """The fields of a record class or record, in declaration order."""
    return obj.__record_fields__


def replace(obj, /, **changes):
    """A new record of obj's class, with changes and obj's other fields."""
    for f in obj.__record_fields__:
        if f.init and f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


# ---------------------------------------------------------------------------
# Method templates, one per kind and number of fields, written once as
# source over that number.  The constructor template stores its arguments
# a0, a1, ... under the names n0, n1, ..., in order, and then calls post
# (the default factories and __post_init__), if there is one; _constructor
# renames the parameters to the field names, so calls by keyword and
# defaults work as usual.  The equality and hash templates read the
# attributes f0, f1, ...: _over renames them to the compared fields, so
# that each reads them as directly as a method written for the class
# would.

def _each(form, n):
    """form filled in with 0, 1, ..., n - 1, joined."""
    return "".join(form.format(i) for i in range(n))


_SOURCES = {
    "init": lambda n: (
        f"def _init{n}(post{_each(', n{}', n)}):\n"
        f"    def __init__(self{_each(', a{}', n)}):\n"
        + _each("        _set(self, n{0}, a{0})\n", n)
        + "        if post is not None:\n"
        "            post(self)\n"
        "    return __init__\n"),
    "eq": lambda n: (
        f"def _eq{n}(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        + (f"        return ({_each('self.f{}, ', n)}) == ({_each('other.f{}, ', n)})\n"
           if n else "        return True\n")
        + "    return NotImplemented\n"),
    "hash": lambda n: f"def _hash{n}(self):\n    return hash(({_each('self.f{}, ', n)}))\n",
}
_TEMPLATES = {}  # (kind, number of fields) -> template


def _template(kind, n):
    """The template of kind for n fields, compiled the first time a record
    class needs it."""
    template = _TEMPLATES.get((kind, n))
    if template is None:
        code = compile(_SOURCES[kind](n), f"<record {kind} template>", "exec")
        made = {}
        exec(code, globals(), made)
        template = _TEMPLATES[kind, n] = made.popitem()[1]
    return template


def _constructor(init_fields, post_init):
    names = tuple(f.name for f in init_fields)
    factories = tuple((f.name, f.default_factory) for f in init_fields
                      if f.default_factory is not _MISSING)
    post = post_init
    if factories:
        def post(self):
            for name, make in factories:
                if getattr(self, name) is _FACTORY:
                    _set(self, name, make())
            if post_init is not None:
                post_init(self)
    init = _template("init", len(names))(post, *names)
    init.__code__ = init.__code__.replace(co_varnames=("self",) + names)
    defaults = []
    for f in init_fields:
        if f.has_default():
            defaults.append(f.default if f.default_factory is _MISSING else _FACTORY)
        elif defaults:
            raise TypeError(f"field {f.name!r} without a default follows one with a default")
    init.__defaults__ = tuple(defaults) or None
    return init


def _over(kind, names):
    """The template of kind for len(names) fields, reading names for f0, f1, ..."""
    template = _template(kind, len(names))
    placeholder = {f"f{i}": name for i, name in enumerate(names)}
    code = template.__code__
    code = code.replace(co_names=tuple(placeholder.get(n, n) for n in code.co_names))
    return FunctionType(code, template.__globals__, template.__name__)


# ---------------------------------------------------------------------------
# The methods shared as they are

def _values(names):
    """A function giving the tuple of a record's values of names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def _representation(names):
    def __repr__(self):
        return (self.__class__.__qualname__ + "("
                + ", ".join([f"{n}={getattr(self, n)!r}" for n in names]) + ")")
    return __repr__


def _reduction(values):
    def __reduce__(self):
        return self.__class__, values(self)
    return __reduce__


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=False, init=True, slots=False):
    """Make cls a record class over its annotated fields (see the module
    docstring); usable bare or with arguments, as ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: _make_record(cls, frozen, init, slots)
    return _make_record(cls, frozen, init, slots)


def _make_record(cls, frozen, init, slots):
    own = cls.__dict__
    annotated = own.get("__annotations__", {})
    all_fields = []
    for name in annotated:
        spec = own.get(name, _MISSING)
        f = spec if isinstance(spec, RecordField) else RecordField(default=spec)
        f.name = name
        all_fields.append(f)
        if spec is f and f.default is _MISSING:
            delattr(cls, name)
        elif spec is f:
            setattr(cls, name, f.default)
    all_fields = tuple(all_fields)
    compared = [f.name for f in all_fields if f.compare]
    methods = {"__record_fields__": all_fields, "__eq__": _over("eq", compared),
               "__repr__": _representation([f.name for f in all_fields if f.repr])}
    if init:
        methods["__init__"] = _constructor([f for f in all_fields if f.init],
                                           getattr(cls, "__post_init__", None))
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    if "__hash__" not in own:
        methods["__hash__"] = _over("hash", compared) if frozen else None
    for name in ("__init__", "__repr__", "__eq__"):
        if name in own:
            methods.pop(name, None)
    if not slots:
        for name, value in methods.items():
            setattr(cls, name, value)
        return cls
    # a frozen record with slots cannot be rebuilt attribute by attribute,
    # as pickle and copy do by default
    if "__reduce__" not in own:
        methods["__reduce__"] = _reduction(_values([f.name for f in all_fields if f.init]))
    ns = {k: v for k, v in own.items()
          if k not in annotated and k not in ("__dict__", "__weakref__")}
    ns.update(methods, __slots__=tuple(annotated), __qualname__=cls.__qualname__)
    return type(cls)(cls.__name__, cls.__bases__, ns)
