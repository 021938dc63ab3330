"""Abstract syntax for the CSP subset, and the construct field algebra.

Values of the distinguished type t are naturals 0..#T-1; all other data
belongs to finite enumerations declared in the source file.  A prefix
construct ``c S1 x1:X1 ... Sk xk:Xk`` carries one selector per field:
``$`` (nondeterministic selection), ``?`` (deterministic input) or ``!``
(output).  The six index-set functions, the selector replacement function
and capture-avoiding substitution defined here are the ground layer that
every semantics consumes.

``binders`` alone says what a node binds, each name with its annotation
(typed by ``binder_type``); ``_rebind`` alone says where a binder scopes.
It rewrites free names through an environment and either lets binders
shadow it (``substitute``) or renames them to ``#0, #1, ...`` in traversal
order (``canonicalise``).  A canonicalising walk also records the free
names it meets, so ``free_vars`` comes from it; the semantics canonicalise
one node of a state at a time, for its leaf class.
The operator table ``OPERATORS`` is the one owner of operator syntax:
for each operator other than prefix, guard, if/then/else and call it gives
the symbols and layout, the binding level and the level of each operand,
and the parser and the printer both read it.  ``subterms``/``map_subterms``
read the subterm table, the process-term fields of each of the 16 term
classes, which the operator table gives for its operators; walkers that
only descend into subterms take them from there and keep explicit cases
for the node kinds they act on.  ``KEEPING`` gives the operands each
operator stays around when they move, ``selections`` the $-selections of
a construct in one scope, for every semantics.  Every other field is data:
``t_values``/``permute_t`` find and rename the t-values in it, for the
side-condition checkers, the symmetry reduction and the renaming of
events.  ``unfold_walk`` visits every node reachable through the
equations, unfolding each identifier once.
"""

from __future__ import annotations

import itertools
import re
import sys
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Optional, Union

from .errors import SemanticsError
from .record import field, fields, record, replace

# structural equality/canonicalisation recurse over whole terms
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

# ---------------------------------------------------------------------------
# Values and types

DOLLAR = "$"
QUERY = "?"
BANG = "!"


_TVALS: dict[int, "TVal"] = {}  # index -> its one TVal


@record(frozen=True, init=False)
class TVal:
    """A value of the distinguished type: an index into T = {0..#T-1}.

    There is one instance per index (copies and unpickled values included),
    so a TVal hashes by identity, in C: the state keys of the semantics are
    tuples of values, hashed on every lookup."""

    index: int

    __hash__ = object.__hash__

    def __new__(cls, index: int):
        got = _TVALS.get(index)
        if got is None:
            got = _TVALS[index] = object.__new__(cls)
            object.__setattr__(got, "index", index)
        return got

    def __reduce__(self):
        return TVal, (self.index,)

    def __str__(self) -> str:
        return str(self.index)


@record(frozen=True)
class Atom:
    """A member of a declared finite non-t type; ordinal is its declaration rank."""

    type_name: str
    name: str
    ordinal: int

    def __str__(self) -> str:
        return self.name


Value = Union[TVal, Atom]


def value_key(v: Value):
    """Total order on values: t-values ascending, then atoms in declaration order."""
    if isinstance(v, TVal):
        return (0, v.index, "")
    return (1, v.ordinal, v.type_name)


@record(frozen=True)
class TType:
    """The distinguished type parameter t."""

    def __str__(self) -> str:
        return "t"


@record(frozen=True)
class NamedType:
    """A declared finite enumeration, e.g. ``datatype X = a | b``."""

    name: str
    values: tuple[Atom, ...] = field(compare=False)

    def __str__(self) -> str:
        return self.name


@record(frozen=True)
class SetType:
    """A literal set annotation ``{d1, d2}``; members are values or variables,
    homogeneous in t-ness."""

    items: tuple[Union[str, Value], ...]
    is_t: bool

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.items) + "}"


@record(frozen=True)
class DiffType:
    """The annotation ``t \\ {d1, ...}``: the whole of t minus listed members."""

    excluded: tuple[Union[str, Value], ...]

    def __str__(self) -> str:
        return "(t\\{" + ",".join(str(i) for i in self.excluded) + "})"


TypeExpr = Union[TType, NamedType, SetType, DiffType]

T_TYPE = TType()


def type_is_t(ty: TypeExpr) -> bool:
    """Whether an annotation ranges over (a subset of) the distinguished type."""
    if isinstance(ty, (TType, DiffType)):
        return True
    if isinstance(ty, SetType):
        return ty.is_t
    return False


# ---------------------------------------------------------------------------
# Constructs

@record(frozen=True)
class Field:
    """One field of a prefix construct.

    For ``$``/``?`` the payload is the input variable and ty its annotation;
    for ``!`` the payload is a variable or value, ty is None (null) and
    bang_is_t records whether the payload is of type t.
    """

    sel: str
    payload: Union[str, Value]
    ty: Optional[TypeExpr] = None
    bang_is_t: bool = False

    def __post_init__(self):
        if self.sel in (DOLLAR, QUERY):
            assert isinstance(self.payload, str) and self.ty is not None
        else:
            assert self.sel == BANG and self.ty is None

    def is_t(self) -> bool:
        if self.sel == BANG:
            return self.bang_is_t
        return type_is_t(self.ty)


@record(frozen=True)
class Construct:
    """A prefix communication c S1 x1:X1 ... Sk xk:Xk.

    uid identifies the construct's place in the source syntax; it survives
    substitution and selector replacement but does not take part in term
    equality.
    """

    channel: str
    fields: tuple[Field, ...] = ()
    uid: int = field(default=-1, compare=False)


@record(frozen=True)
class IndexSets:
    """The six index-set functions of a construct, 1-based positions."""

    dollar_t: frozenset[int]
    dollar_nont: frozenset[int]
    query_t: frozenset[int]
    query_nont: frozenset[int]
    bang_t: frozenset[int]
    bang_nont: frozenset[int]

    @property
    def query(self) -> frozenset[int]:
        return self.query_t | self.query_nont


def classify_fields(alpha: Construct) -> IndexSets:
    """Partition {1..k} by selector and t-ness of each field."""
    buckets = {key: set() for key in
               ("$t", "$n", "?t", "?n", "!t", "!n")}
    for pos, f in enumerate(alpha.fields, start=1):
        if f.sel == DOLLAR:
            buckets["$t" if f.is_t() else "$n"].add(pos)
        elif f.sel == QUERY:
            buckets["?t" if f.is_t() else "?n"].add(pos)
        else:
            buckets["!t" if f.is_t() else "!n"].add(pos)
    return IndexSets(
        frozenset(buckets["$t"]), frozenset(buckets["$n"]),
        frozenset(buckets["?t"]), frozenset(buckets["?n"]),
        frozenset(buckets["!t"]), frozenset(buckets["!n"]),
    )


def replace_selections(alpha: Construct, scope: str) -> Construct:
    """Turn $-fields in scope ('t' or 'non-t') into !-fields with null
    annotation; all other fields are unchanged."""
    return Construct(alpha.channel, tuple(
        Field(BANG, f.payload, None, bang_is_t=f.is_t())
        if f.sel == DOLLAR and f.is_t() == (scope == "t") else f
        for f in alpha.fields), uid=alpha.uid)


def selections(alpha: Construct, scope: str, tvalues: tuple[TVal, ...]):
    """The $-selections of a construct in scope ('t' or 'non-t'): their
    names in field order, and every tuple of their values, the last field
    varying fastest.  No names and one empty tuple when none is in scope."""
    chosen = [f for f in alpha.fields if f.sel == DOLLAR and f.is_t() == (scope == "t")]
    return (tuple(f.payload for f in chosen),
            itertools.product(*[domain_values(f.ty, tvalues) for f in chosen]))


# ---------------------------------------------------------------------------
# Guards
#
# A guard is one record, Guard: a conjunction of equality atoms over t-values
# and of boolean expressions over other data, or its negation.  Only
# equalities are tested on t, which is all a data-independent process may
# do with t-values.  A guard is on t iff it has t-atoms, and mixed iff it
# also has other parts; a mixed guard is outside Seq.  The parser leaves a
# guard as the boolean expression it reads, and resolution classifies it.

TTerm = Union[str, TVal]  # a side of a t-equality atom


# Non-t boolean expressions: naturals with +, -, min, and non-t value equality.

@record(frozen=True)
class NatLit:
    value: int


@record(frozen=True)
class VarRef:
    name: str


@record(frozen=True)
class NatOp:
    op: str  # '+' or '-'
    left: "ScalarExpr"
    right: "ScalarExpr"


@record(frozen=True)
class NatMin:
    left: "ScalarExpr"
    right: "ScalarExpr"


ScalarExpr = Union[NatLit, VarRef, NatOp, NatMin, Atom, TVal]


@record(frozen=True)
class Cmp:
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left: ScalarExpr
    right: ScalarExpr


@record(frozen=True)
class BoolNot:
    arg: "BoolExpr"


@record(frozen=True)
class BoolAnd:
    left: "BoolExpr"
    right: "BoolExpr"


@record(frozen=True)
class BoolOr:
    left: "BoolExpr"
    right: "BoolExpr"


@record(frozen=True)
class BoolLit:
    value: bool


BoolExpr = Union[Cmp, BoolNot, BoolAnd, BoolOr, BoolLit]


@record(frozen=True)
class Guard:
    """(all t_atoms equal and all other hold) != negated.  A guard with no
    t-atom keeps its boolean whole, its negation inside, as its one other
    part.  The conditional label of the symbolic semantics is the guard on
    t itself."""

    negated: bool
    t_atoms: tuple[tuple[TTerm, TTerm], ...]
    other: tuple[BoolExpr, ...] = ()

    def negate(self) -> "Guard":
        return Guard(not self.negated, self.t_atoms, self.other)

    def __str__(self) -> str:
        from .pretty import fmt_guard
        return fmt_guard(self)


def eval_scalar(e: ScalarExpr):
    if isinstance(e, NatLit):
        return e.value
    if isinstance(e, (Atom, TVal)):
        return e
    if isinstance(e, VarRef):
        raise SemanticsError(f"unbound variable {e.name!r} in guard or argument")
    if isinstance(e, (NatOp, NatMin)):
        a, b = eval_scalar(e.left), eval_scalar(e.right)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise SemanticsError("arithmetic on non-natural operands")
        if e.__class__ is NatMin:
            return min(a, b)
        return a + b if e.op == "+" else max(a - b, 0)
    raise SemanticsError(f"cannot evaluate {e!r}")


def eval_bool(b: BoolExpr) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, BoolNot):
        return not eval_bool(b.arg)
    if isinstance(b, BoolAnd):
        return eval_bool(b.left) and eval_bool(b.right)
    if isinstance(b, BoolOr):
        return eval_bool(b.left) or eval_bool(b.right)
    if isinstance(b, Cmp):
        lv, rv = eval_scalar(b.left), eval_scalar(b.right)
        if b.op == "==":
            return lv == rv
        if b.op == "!=":
            return lv != rv
        if not (isinstance(lv, int) and isinstance(rv, int)):
            raise SemanticsError("ordering comparison on non-natural operands")
        return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[b.op]
    raise SemanticsError(f"cannot evaluate {b!r}")


def eval_guard(g: Guard, env: Optional[dict] = None) -> bool:
    """Whether a guard holds, its t-variables taking their values in env."""
    holds = True
    for l, r in g.t_atoms:
        if env:
            l, r = env.get(l, l), env.get(r, r)
        if l.__class__ is str or r.__class__ is str:
            raise SemanticsError(f"guard variable {l if l.__class__ is str else r!r} "
                                 "is not bound by the environment")
        holds = holds and l == r
    return (holds and all(map(eval_bool, g.other))) != g.negated


# ---------------------------------------------------------------------------
# Process terms

Arg = Union[Value, ScalarExpr]


@record(frozen=True)
class Stop:
    pass


@record(frozen=True)
class Prefix:
    construct: Construct
    cont: "ProcessTerm"


@record(frozen=True)
class ExtChoice:
    left: "ProcessTerm"
    right: "ProcessTerm"


@record(frozen=True)
class IntChoice:
    left: "ProcessTerm"
    right: "ProcessTerm"


@record(frozen=True)
class Sliding:
    left: "ProcessTerm"
    right: "ProcessTerm"


@record(frozen=True)
class If:
    guard: Guard
    then: "ProcessTerm"
    els: "ProcessTerm"


# --- event-set descriptors (hiding, parallel alphabets) --------------------

@record(frozen=True)
class ChanPrefixItem:
    """``{| c.d1...dm |}`` item: all events of channel c extending the datums."""

    channel: str
    datums: tuple[Union[str, Value], ...] = ()


@record(frozen=True)
class EventLitItem:
    """A complete event literal ``c.d1...dk`` inside an explicit set."""

    channel: str
    datums: tuple[Union[str, Value], ...]


@record(frozen=True)
class EventSet:
    closures: tuple[ChanPrefixItem, ...] = ()
    literals: tuple[EventLitItem, ...] = ()


@record(frozen=True)
class Hide:
    proc: "ProcessTerm"
    hidden: EventSet


@record(frozen=True)
class Rename:
    proc: "ProcessTerm"
    pairs: tuple[tuple[Union[str, EventLitItem], Union[str, EventLitItem]], ...]


@record(frozen=True)
class AlphaPar:
    left: "ProcessTerm"
    left_alpha: EventSet
    right: "ProcessTerm"
    right_alpha: EventSet


@record(frozen=True)
class SharedPar:
    left: "ProcessTerm"
    shared: EventSet
    right: "ProcessTerm"


@record(frozen=True)
class Interleave:
    left: "ProcessTerm"
    right: "ProcessTerm"


# Replicated operators whose index set depends on t stay primitive and are
# expanded when the instantiation is known; non-t index sets are desugared
# to binary operators at parse time.

@record(frozen=True)
class ReplAlphaPar:
    var: str
    domain: TypeExpr
    alpha: EventSet
    body: "ProcessTerm"


@record(frozen=True)
class ReplInterleave:
    var: str
    domain: TypeExpr
    body: "ProcessTerm"


@record(frozen=True)
class ReplIntChoice:
    var: str
    domain: TypeExpr
    body: "ProcessTerm"


@record(frozen=True)
class ReplExtChoice:
    var: str
    domain: TypeExpr
    body: "ProcessTerm"


@record(frozen=True)
class Ident:
    name: str
    args: tuple[Arg, ...] = ()


ProcessTerm = Union[
    Stop, Prefix, ExtChoice, IntChoice, Sliding, If, Hide, Rename,
    AlphaPar, SharedPar, Interleave,
    ReplAlphaPar, ReplInterleave, ReplIntChoice, ReplExtChoice, Ident,
]

REPLICATED = (ReplAlphaPar, ReplInterleave, ReplIntChoice, ReplExtChoice)

# Binding levels of the concrete syntax, loosest to tightest.  A subterm
# prints in parentheses when its operator binds more loosely than the level
# of the place it prints in.  At OPEN, the loosest, stand the operators whose
# body extends as far right as it can: if/then/else and the replicated ones.
OPEN, HIDE, PAR, INT, EXT, SLIDE, GUARD, PREFIX, ATOM = range(9)


@record(frozen=True)
class Operator:
    """A process operator of the concrete syntax.  form lays out the fields
    of cls in source order, as a format string whose literal text is the
    operator's symbols, spaced as they print.  The operator binds at level;
    operands maps each subterm field to the level it prints at, and the
    parser reads a subterm that follows a symbol at that level."""

    cls: type
    form: str
    level: int
    operands: dict[str, int]

    @cached_property
    def layout(self) -> tuple[tuple[list[str], Optional[str]], ...]:
        """The form as (symbols, field) pairs: the symbols before each field
        in source order, and last the symbols after the last field (None)."""
        parts = re.split(r"\{(\w+)\}", self.form)
        return tuple(zip((text.split() for text in parts[0::2]), parts[1::2] + [None]))

    @property
    def symbol(self) -> str:
        """The first symbol of the form: the token that introduces it."""
        return next(s for symbols, _ in self.layout for s in symbols)


# The operator table: every operator but prefix, guard, if/then/else and
# call, which the parser and the printer handle one by one.  The operators
# of a level associate to the left, so a left operand could print at its
# operator's own level; the synchronising parallels and [> print it one
# level tighter, so that a mixed chain such as (P ||| Q) [|X|] R reads
# unambiguously.
OPERATORS: dict[type, Operator] = {op.cls: op for op in (
    Operator(Hide, "{proc} \\ {hidden}", HIDE, {"proc": HIDE}),
    Operator(Interleave, "{left} ||| {right}", PAR, {"left": PAR, "right": PAR + 1}),
    Operator(SharedPar, "{left} [|{shared}|] {right}", PAR,
             {"left": PAR + 1, "right": PAR + 1}),
    Operator(AlphaPar, "{left} [{left_alpha} || {right_alpha}] {right}", PAR,
             {"left": PAR + 1, "right": PAR + 1}),
    Operator(IntChoice, "{left} |~| {right}", INT, {"left": INT, "right": INT + 1}),
    Operator(ExtChoice, "{left} [] {right}", EXT, {"left": EXT, "right": EXT + 1}),
    Operator(Sliding, "{left} [> {right}", SLIDE, {"left": SLIDE + 1, "right": SLIDE + 1}),
    Operator(Rename, "{proc} [[{pairs}]]", ATOM, {"proc": ATOM}),
    Operator(ReplInterleave, "||| {var}:{domain} @ {body}", OPEN, {"body": OPEN}),
    Operator(ReplIntChoice, "|~| {var}:{domain} @ {body}", OPEN, {"body": OPEN}),
    Operator(ReplExtChoice, "[] {var}:{domain} @ {body}", OPEN, {"body": OPEN}),
    Operator(ReplAlphaPar, "|| {var}:{domain} @ [{alpha}] {body}", OPEN, {"body": OPEN}),
)}

# The subterm table: the process-term fields of each term class, in source
# order; the operator table gives them for its operators.  Every other
# field (constructs, guards, event sets, binders, domains, arguments) is
# data.
_SUBTERM_FIELDS: dict[type, tuple[str, ...]] = {
    Stop: (),
    Prefix: ("cont",),
    If: ("then", "els"),
    Ident: (),
    **{cls: tuple(op.operands) for cls, op in OPERATORS.items()},
}


# The keeping table: the operands, by subterm position, that an operator
# stays around when they move by τ (or, symbolically, by a condition).
# Both of [] and the left of [> keep their choice, which a visible move
# resolves; the parallels, hiding, renaming and the replicated operators
# other than internal choice stay around every move of their operands.
KEEPING: dict[type, tuple[int, ...]] = {
    ExtChoice: (0, 1), Sliding: (0,),
    **{cls: (0, 1) for cls in (Interleave, SharedPar, AlphaPar)},
    **{cls: (0,) for cls in (Hide, Rename, ReplInterleave, ReplExtChoice, ReplAlphaPar)},
}


# Each class's subterm tuple as one call: an attrgetter of two or more
# fields makes the tuple itself.
_SUBTERMS = {cls: (attrgetter(*names) if len(names) > 1
                   else (lambda term, get=attrgetter(*names): (get(term),)) if names
                   else (lambda term: ()))
             for cls, names in _SUBTERM_FIELDS.items()}


def subterms(term: ProcessTerm) -> tuple[ProcessTerm, ...]:
    """The immediate process subterms of a term, in source order."""
    return _SUBTERMS[type(term)](term)


def with_subterms(term: ProcessTerm, new) -> ProcessTerm:
    """The term with its immediate process subterms replaced by new, in
    source order, and every other field kept."""
    names = _SUBTERM_FIELDS[type(term)]
    if not names:
        return term
    return replace(term, **dict(zip(names, new)))


def map_subterms(term: ProcessTerm, fn) -> ProcessTerm:
    """The term with fn applied to each immediate process subterm and every
    other field kept."""
    return with_subterms(term, [fn(sub) for sub in subterms(term)])


# ---------------------------------------------------------------------------
# The t-values of data: one walk over record fields

# Classes that hold no t-value; the walks do not look into them.
_NO_TVALS = (str, int, bool, type(None), Atom, NamedType, TType)
_DATA_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _data_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, is data) for each constructor field of a record class, in order;
    a process term's subterms (the subterm table) are not its data."""
    got = _DATA_FIELDS.get(cls)
    if got is None:
        subs = _SUBTERM_FIELDS.get(cls, ())
        got = _DATA_FIELDS[cls] = tuple(
            (f.name, f.name not in subs) for f in fields(cls) if f.init)
    return got


def t_values(obj) -> Iterator[TVal]:
    """Each t-value in obj, in field order: obj is a value, a type, a
    construct, a guard, an event set, an event, a tuple of these, or a
    process term, whose subterms are not looked into."""
    cls = obj.__class__
    if cls is TVal:
        yield obj
    elif cls is tuple:
        for x in obj:
            yield from t_values(x)
    elif cls not in _NO_TVALS:
        for name, data in _data_fields(cls):
            if data:
                yield from t_values(getattr(obj, name))


def permute_t(obj, pi: tuple[int, ...]):
    """obj (as for t_values) with every t-value v renamed to pi[v]; a
    process term keeps its subterms."""
    cls = obj.__class__
    if cls is TVal:
        return TVal(pi[obj.index])
    if cls is tuple:
        return tuple([permute_t(x, pi) for x in obj])
    if cls in _NO_TVALS:
        return obj
    return cls(*[permute_t(getattr(obj, name), pi) if data else getattr(obj, name)
                 for name, data in _data_fields(cls)])


def t_field_atoms(obj, channels: dict) -> Iterator[Atom]:
    """Each datatype value that stands where a t-value belongs in obj (as
    for t_values, subterms included): a t output field, an item of a subset
    of t, or a datum of an event item in a t field of its channel's
    signature (channels)."""
    cls = obj.__class__
    if cls is tuple:
        for x in obj:
            yield from t_field_atoms(x, channels)
        return
    if cls in _NO_TVALS:
        return
    if cls is Field:
        held = (obj.payload,) if obj.sel == BANG and obj.bang_is_t else ()
    elif cls is SetType:
        held = obj.items if obj.is_t else ()
    elif cls is DiffType:
        held = obj.excluded
    elif cls in (ChanPrefixItem, EventLitItem):
        held = [d for d, ty in zip(obj.datums, channels.get(obj.channel, ()))
                if type_is_t(ty)]
    else:
        held = ()
    yield from (v for v in held if v.__class__ is Atom)
    for name, _ in _data_fields(cls):
        yield from t_field_atoms(getattr(obj, name), channels)


# ---------------------------------------------------------------------------
# Definitions

@record
class Equation:
    name: str
    params: tuple[str, ...]
    body: ProcessTerm
    # inferred parameter types: 't', 'nat', a datatype name, or None (unused)
    param_types: tuple[Optional[str], ...] = ()


@record(frozen=True)
class Assertion:
    lhs: str
    model: str  # 'traces' | 'failures'
    rhs: str


@record
class Definitions:
    """The global environment: channel signatures, non-t types, constants and
    process equations."""

    channels: dict[str, tuple[TypeExpr, ...]] = field(default_factory=dict)
    datatypes: dict[str, tuple[Atom, ...]] = field(default_factory=dict)
    consts: dict[str, int] = field(default_factory=dict)
    equations: dict[str, Equation] = field(default_factory=dict)
    assertions: list[Assertion] = field(default_factory=list)
    filename: str = "<input>"

    def body(self, name: str) -> ProcessTerm:
        eq = self.equations.get(name)
        if eq is None:
            raise SemanticsError(f"undefined process {name!r}")
        if eq.params:
            raise SemanticsError(f"process {name!r} expects {len(eq.params)} argument(s)")
        return eq.body


# ---------------------------------------------------------------------------
# Binders

def binders(node) -> dict[str, Optional[TypeExpr]]:
    """The names a node binds over its subterms, in binding order, each with
    its annotation: the $- and ?-fields of a prefix (or of a construct) in
    field order, and the index variable of a replicated operator with its
    domain.  Every other node binds nothing."""
    if node.__class__ is Prefix:
        node = node.construct
    if node.__class__ is Construct:
        return {f.payload: f.ty for f in node.fields if f.sel != BANG}
    if node.__class__ in REPLICATED:
        return {node.var: node.domain}
    return {}


def binder_type(ty: TypeExpr) -> Optional[str]:
    """The type tag of a binder annotated ty: 't' for a subset of t, else
    the name of its datatype, or None for a set of non-t variables."""
    if type_is_t(ty):
        return "t"
    if isinstance(ty, SetType):
        return next((i.type_name for i in ty.items if isinstance(i, Atom)), None)
    if isinstance(ty, NamedType):
        return ty.name
    return None


# ---------------------------------------------------------------------------
# Substitution, alpha canonicalisation and free names: one binder-aware pass

SubstValue = Union[Value, int]


class _Renamer:
    """Sequential bound-variable renamer; traversal order is deterministic, so
    alpha-equivalent terms canonicalise to equal terms.  The fresh names are
    no identifier the tokenizer accepts, so a free variable of the source
    never meets a canonical binder."""

    __slots__ = ("counter",)

    def __init__(self):
        self.counter = itertools.count()

    def fresh(self) -> str:
        return f"#{next(self.counter)}"


class _Scope(dict):
    """The env of a canonicalising walk: free names map to their values,
    names bound in scope to their fresh names.  Every leaf looks a name up
    with ``in`` first, so ``__contains__`` records in ``free`` each name
    that no binder in scope holds.  Substitution uses plain dicts and
    records nothing."""

    __slots__ = ("free",)

    def __contains__(self, name) -> bool:
        value = self.get(name)
        if value.__class__ is not str:
            self.free.add(name)
        return value is not None


def _bind(name: str, env: dict, ren: Optional[_Renamer]) -> tuple[str, dict]:
    """Enter the scope of a binder: without a renamer the binder shadows its
    entry of env (substitution), with one it gets the next fresh name
    (canonicalisation).  Returns the binder's new name and the inner env."""
    if ren is None:
        if name not in env:
            return name, env
        return name, {k: v for k, v in env.items() if k != name}
    new = ren.fresh()
    inner = _Scope(env)
    inner[name] = new
    inner.free = env.free
    return new, inner


# Leaf rewriters: a name in env becomes its value (or its fresh bound name);
# every other name stays.

def _datum(d, env):
    if isinstance(d, str) and d in env:
        v = env[d]
        if isinstance(v, int):
            raise SemanticsError(f"natural value substituted into event field {d!r}")
        return v
    return d


def _tterm(s: TTerm, env) -> TTerm:
    if isinstance(s, str) and s in env:
        v = env[s]
        if not isinstance(v, (str, TVal)):
            raise SemanticsError(f"non-t value substituted for t-variable {s!r}")
        return v
    return s


def _scalar(e: ScalarExpr, env) -> ScalarExpr:
    if isinstance(e, VarRef):
        if e.name not in env:
            return e
        v = env[e.name]
        if isinstance(v, str):
            return VarRef(v)
        return NatLit(v) if isinstance(v, int) else v
    if isinstance(e, NatOp):
        return NatOp(e.op, _scalar(e.left, env), _scalar(e.right, env))
    if isinstance(e, NatMin):
        return NatMin(_scalar(e.left, env), _scalar(e.right, env))
    return e


def _bool(b: BoolExpr, env) -> BoolExpr:
    if isinstance(b, Cmp):
        return Cmp(b.op, _scalar(b.left, env), _scalar(b.right, env))
    if isinstance(b, BoolNot):
        return BoolNot(_bool(b.arg, env))
    if isinstance(b, (BoolAnd, BoolOr)):
        return type(b)(_bool(b.left, env), _bool(b.right, env))
    return b


def _guard(g, env):
    # a guard as parsed is a boolean expression, which resolution classifies
    if g.__class__ is not Guard:
        return _bool(g, env)
    return Guard(g.negated, tuple((_tterm(l, env), _tterm(r, env)) for l, r in g.t_atoms),
                 tuple(_bool(b, env) for b in g.other))


def _type(ty, env):
    if isinstance(ty, SetType):
        return SetType(tuple(_datum(i, env) for i in ty.items), ty.is_t)
    if isinstance(ty, DiffType):
        return DiffType(tuple(_datum(i, env) for i in ty.excluded))
    return ty


def _item(x, env):
    """An event-set item or a side of a renaming pair with the names in env
    replaced by their values; a channel name stays."""
    if isinstance(x, str):
        return x
    return type(x)(x.channel, tuple(_datum(d, env) for d in x.datums))


def subst_event_set(s: EventSet, env) -> EventSet:
    """An event set with the names in env replaced by their values."""
    return EventSet(tuple(_item(c, env) for c in s.closures),
                    tuple(_item(e, env) for e in s.literals))


def _rebind(term: ProcessTerm, env: dict, ren: Optional[_Renamer]) -> ProcessTerm:
    """Rewrite the free names of a term through env and its binders through
    _bind.  Input binders scope over the fields to their right and over the
    continuation; replicated binders scope over the alphabet and the body,
    not over the domain.  Canonicalising, the _Scope env records the free
    names."""
    if ren is None and not env:
        return term
    if isinstance(term, Stop):
        return term
    if isinstance(term, Prefix):
        fields = []
        for f in term.construct.fields:
            if f.sel == BANG:
                fields.append(Field(BANG, _datum(f.payload, env), None, f.bang_is_t))
            else:
                ty = _type(f.ty, env)
                name, env = _bind(f.payload, env, ren)
                fields.append(Field(f.sel, name, ty, f.bang_is_t))
        alpha = Construct(term.construct.channel, tuple(fields), uid=term.construct.uid)
        return Prefix(alpha, _rebind(term.cont, env, ren))
    if isinstance(term, (ExtChoice, IntChoice, Sliding, Interleave)):
        return type(term)(_rebind(term.left, env, ren), _rebind(term.right, env, ren))
    if isinstance(term, If):
        return If(_guard(term.guard, env),
                  _rebind(term.then, env, ren), _rebind(term.els, env, ren))
    if isinstance(term, Hide):
        return Hide(_rebind(term.proc, env, ren), subst_event_set(term.hidden, env))
    if isinstance(term, Rename):
        return Rename(_rebind(term.proc, env, ren),
                      tuple((_item(a, env), _item(b, env)) for a, b in term.pairs))
    if isinstance(term, AlphaPar):
        return AlphaPar(_rebind(term.left, env, ren), subst_event_set(term.left_alpha, env),
                        _rebind(term.right, env, ren), subst_event_set(term.right_alpha, env))
    if isinstance(term, SharedPar):
        return SharedPar(_rebind(term.left, env, ren), subst_event_set(term.shared, env),
                         _rebind(term.right, env, ren))
    if isinstance(term, REPLICATED):
        domain = _type(term.domain, env)
        var, env = _bind(term.var, env, ren)
        if isinstance(term, ReplAlphaPar):
            return ReplAlphaPar(var, domain, subst_event_set(term.alpha, env),
                                _rebind(term.body, env, ren))
        return type(term)(var, domain, _rebind(term.body, env, ren))
    if isinstance(term, Ident):
        return Ident(term.name, tuple(_scalar(a, env) for a in term.args))
    raise SemanticsError(f"unknown process term {term!r}")


def substitute(term: ProcessTerm, mapping: dict[str, SubstValue]) -> ProcessTerm:
    """Capture-avoiding substitution of values for free variables.

    Mapped values are concrete (t-values, atoms, or naturals for process
    parameters), so no renaming of binders is ever needed; binders simply
    shadow entries of the mapping.
    """
    return _rebind(term, mapping, None)


def canonicalise(term: ProcessTerm, env: Optional[dict[str, SubstValue]] = None
                 ) -> tuple[ProcessTerm, frozenset[str]]:
    """Rename bound variables by a deterministic scheme, so that two terms are
    alpha-equivalent iff their canonical forms are equal.  Free variables in
    env are replaced by their values, so the canonical form under env equals
    that of ``substitute(t, env)``; other free variables are kept by name.
    Idempotent.  Returns (canonical form, free names): the same walk
    records the free names, whether or not env replaced them."""
    ren = _Renamer()
    scope = _Scope(env or ())
    scope.free = set()
    canon = _rebind(term, scope, ren)
    return canon, frozenset(scope.free)


def free_vars(term: ProcessTerm) -> frozenset[str]:
    """Free variables of a process term."""
    return canonicalise(term)[1]


# ---------------------------------------------------------------------------
# Comms: concrete and semi-symbolic event enumeration

def check_instantiated(v, tvalues: tuple[TVal, ...]) -> None:
    """Reject a t-value outside the instantiation."""
    if isinstance(v, TVal) and v.index >= len(tvalues):
        raise SemanticsError(
            f"t-value {v.index} outside the instantiation of size {len(tvalues)}")


def domain_values(ty: TypeExpr, tvalues: tuple[TVal, ...]):
    """Concrete members of an annotation, in canonical order."""
    if isinstance(ty, TType):
        return list(tvalues)
    if isinstance(ty, NamedType):
        return list(ty.values)
    if isinstance(ty, SetType):
        out = []
        for item in ty.items:
            if isinstance(item, str):
                raise SemanticsError(f"unbound variable {item!r} in set annotation")
            out.append(item)
        seen = set()
        uniq = [v for v in out if not (v in seen or seen.add(v))]
        if ty.is_t:
            for v in uniq:
                check_instantiated(v, tvalues)
        return sorted(uniq, key=value_key)
    if isinstance(ty, DiffType):
        excl = set()
        for item in ty.excluded:
            if isinstance(item, str):
                raise SemanticsError(f"unbound variable {item!r} in set annotation")
            excl.add(item)
        return [v for v in tvalues if v not in excl]
    raise SemanticsError(f"bad annotation {ty!r}")


def _enumerate(alpha: Construct, step) -> list[tuple]:
    """The tuples a construct describes, enumerated field by field from
    the left: step(field, binding) lists the (item, binding) options of a
    field under the bindings of the inputs to its left."""
    rows = [((), {})]
    for f in alpha.fields:
        rows = [(items + (item,), inner) for items, binding in rows
                for item, inner in step(f, binding)]
    return [items for items, _ in rows]


def comms(alpha: Construct, tvalues: tuple[TVal, ...]) -> list[tuple[Value, ...]]:
    """Value tuples of the concrete events a $-free construct describes.

    Fields enumerate left-to-right with values ascending; input bindings are
    visible to the fields to their right, so an output field may repeat an
    earlier input of the same communication."""
    if any(f.sel == DOLLAR for f in alpha.fields):
        raise SemanticsError("comms applied to a construct with nondeterministic selections")

    def step(f, binding):
        if f.sel == QUERY:
            return [(v, {**binding, f.payload: v})
                    for v in domain_values(_type(f.ty, binding), tvalues)]
        v = f.payload
        if isinstance(v, str):
            v = binding.get(v)
            if v is None:
                raise SemanticsError(f"unbound output variable {f.payload!r}")
            if isinstance(v, TVal) != f.bang_is_t:
                raise SemanticsError(
                    f"output variable {f.payload!r} bound to a value "
                    "of the wrong type within one construct")
        check_instantiated(v, tvalues)
        return [(v, binding)]

    return _enumerate(alpha, step)


def comms_nont(alpha: Construct) -> list[Construct]:
    """Visible symbolic events of a construct with no non-t nondeterministic
    selections: non-t deterministic inputs are resolved to outputs (visible
    to the non-t fields to their right), the parts involving t stay
    symbolic."""
    if classify_fields(alpha).dollar_nont:
        raise SemanticsError(
            "comms_nont applied to a construct with non-t nondeterministic selections")

    def step(f, binding):
        if f.sel == QUERY and not f.is_t():
            return [(Field(BANG, v, None, bang_is_t=False), {**binding, f.payload: v})
                    for v in domain_values(_type(f.ty, binding), ())]
        if (f.sel == BANG and not f.bang_is_t
                and isinstance(f.payload, str) and f.payload in binding):
            return [(Field(BANG, binding[f.payload], None, False), binding)]
        return [(f, binding)]

    return [Construct(alpha.channel, fs, uid=alpha.uid) for fs in _enumerate(alpha, step)]


def construct_binding(alpha: Construct, values: tuple[Value, ...],
                      positions) -> dict[str, Value]:
    """Binding of input variables at the given 1-based positions to values."""
    return {alpha.fields[i - 1].payload: values[i - 1] for i in sorted(positions)}


def unfold_walk(term: ProcessTerm, defs: Definitions, where: str = "",
                seen: Optional[set] = None) -> Iterator[tuple[ProcessTerm, str]]:
    """Every node of a term in pre-order, each with the name of the equation
    whose body it is in (where, for the term's own nodes).  Each identifier
    is unfolded where it is first met and never again: seen holds the names
    already unfolded and collects the new ones.  Iterative, so the depth of
    a term costs no stack."""
    seen = set() if seen is None else seen
    stack = [(term, where)]
    while stack:
        node, where = stack.pop()
        yield node, where
        if isinstance(node, Ident) and node.name not in seen:
            eq = defs.equations.get(node.name)
            if eq is not None:
                seen.add(node.name)
                stack.append((eq.body, node.name))
        stack.extend((sub, where) for sub in reversed(subterms(node)))
