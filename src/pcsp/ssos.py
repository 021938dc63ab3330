"""Semi-Symbolic Operational Semantics.

Builds the SSLTS of a sequential process with the distinguished type t left
uninstantiated.  Labels are τ, visible symbolic events (constructs whose
non-t inputs have been resolved to concrete outputs), or conditional events
(a t-condition or its negation).  There is one rule per term class
(_RULES).  External and sliding choice alike promote τ and conditional
labels through the operands they keep (syntax.KEEPING); non-t conditionals
are evaluated during construction.  The non-t projection of a visible
symbolic event is the key by which the traces threshold groups events.

The symbolic states of one build live in a Table, keyed by canonical form
and construct uids: a state is canonicalised once and its moves computed
once.  build_sslts explores its table keying states by class, the id of
the canonical form; the translation semantics (cose) instantiates the
states of its own table.
"""

from __future__ import annotations

from typing import Union

from .conditions import check_seq
from .errors import SemanticsError
from .lts import TAU, Lts, build
from .pretty import fmt_condition, fmt_construct, fmt_term
from .record import record
from .std_semantics import call_binding, check_guarded_recursion, eval_guard
from .syntax import (
    BANG, KEEPING, Condition, Construct, Definitions, ExtChoice, Ident, If,
    IntChoice, MixedGuard, Prefix, ProcessTerm, Sliding, Stop, canonicalise,
    classify_fields, comms_nont, construct_binding, free_vars, replace_selections,
    selections, substitute, subterms, value_key, with_subterms,
)


@record(frozen=True)
class Vis:
    """A visible symbolic event label."""

    event: Construct

    def __str__(self) -> str:
        return fmt_construct(self.event)


@record(frozen=True)
class Cond:
    """A conditional symbolic event label: a t-condition or its negation."""

    condition: Condition

    def __str__(self) -> str:
        return fmt_condition(self.condition)


def sym_label_key(label):
    if label is TAU:
        return (0, "")
    if isinstance(label, Cond):
        return (1, fmt_condition(label.condition))
    return (2, label.event.channel, _vis_struct_key(label.event))


def _vis_struct_key(e: Construct):
    parts = []
    for f in e.fields:
        if f.sel == BANG:
            if isinstance(f.payload, str):
                parts.append((0, "v", f.payload))
            else:
                parts.append((1,) + value_key(f.payload))
        else:
            parts.append((2, f.sel, f.payload))
    return tuple(parts)


def fmt_sym_label(label) -> str:
    return "τ" if label is TAU else str(label)


def unfold_ident(term: Ident, defs: Definitions):
    if free_vars(term):  # every variable left in a symbolic state is of type t
        raise SemanticsError(f"cannot unfold {fmt_term(term)}: the symbolic semantics "
                             "cannot yet pass a symbolic t-variable as an argument")
    eq, mapping = call_binding(term, defs)
    return substitute(eq.body, mapping)


# The symbolic rules, one per term class of the sequential fragment: each
# gives the (label, construct_uid, target term) triples of a term.

def _prefix(term: Prefix, defs: Definitions) -> list:
    """Resolve the non-t selections by one τ per choice of values, the
    chosen selections becoming outputs; then the visible symbolic events."""
    alpha = term.construct
    names, values = selections(alpha, "non-t", ())
    if names:
        stripped = Prefix(replace_selections(alpha, "non-t"), term.cont)
        return [(TAU, alpha.uid, substitute(stripped, dict(zip(names, vs))))
                for vs in values]
    query = classify_fields(alpha).query_nont
    return [(Vis(eps), alpha.uid, substitute(term.cont, construct_binding(
                alpha, [f.payload for f in eps.fields], query)))
            for eps in comms_nont(alpha)]


def _choice(term, defs: Definitions) -> list:
    """τ and conditional moves of the operands a choice keeps (KEEPING)
    keep it around their targets, visible moves resolve it; [> also slides."""
    out = [(TAU, None, term.right)] if term.__class__ is Sliding else []
    subs = subterms(term)
    for i in KEEPING[term.__class__]:
        for lab, uid, nxt in successors(subs[i], defs):
            if lab is TAU or lab.__class__ is Cond:
                nxt = with_subterms(term, subs[:i] + (nxt,) + subs[i + 1:])
            out.append((lab, uid, nxt))
    return out


def _if(term: If, defs: Definitions) -> list:
    """A t-condition moves by it, or by its negation, to the branch it
    selects; any other guard is evaluated, and the branch it takes moves."""
    g = term.guard
    if isinstance(g, Condition):
        return [(Cond(g), None, term.then), (Cond(g.negate()), None, term.els)]
    if isinstance(g, MixedGuard):
        raise SemanticsError(
            "mixed t/non-t guard reached the symbolic semantics (Seq violation)")
    return successors(term.then if eval_guard(g) else term.els, defs)


_RULES = {
    Stop: lambda term, defs: [],
    Prefix: _prefix,
    ExtChoice: _choice,
    Sliding: _choice,
    IntChoice: lambda term, defs: [(TAU, None, term.left), (TAU, None, term.right)],
    If: _if,
    Ident: lambda term, defs: [(TAU, None, unfold_ident(term, defs))],
}


def successors(term: ProcessTerm, defs: Definitions) -> list:
    """Symbolic successor triples (label, construct_uid, target term)."""
    rule = _RULES.get(term.__class__)
    if rule is None:
        raise SemanticsError(
            f"{type(term).__name__} is outside the sequential fragment; "
            "the symbolic semantics is defined on Seq processes only")
    return rule(term, defs)


class State:
    """A symbolic state: its term, canonical form, sorted free names, class
    (the id of its canonical form, uids aside), moves and the edges the
    translation semantics derives from them (cose), once computed."""

    __slots__ = ("term", "canon", "free", "cls", "moves", "edges")


class Table:
    """The symbolic states of one build, keyed by canonical form and
    construct uids as the standard semantics keys its leaves: terms equal up
    to the names of bound variables, uids included, share a state and so its
    moves, which the symbolic rules compute once."""

    def __init__(self, defs: Definitions):
        self.defs = defs
        self.states: dict = {}   # (canonical form, uids) -> State
        self.classes: dict = {}  # canonical form -> class

    def state(self, term: ProcessTerm) -> State:
        canon, free, uids = canonicalise(term)
        st = self.states.get((canon, uids))
        if st is None:
            st = self.states[canon, uids] = State()
            st.term, st.canon, st.free = term, canon, tuple(sorted(free))
            st.cls = self.classes.setdefault(canon, len(self.classes))
            st.moves = st.edges = None
        return st

    def moves(self, st: State) -> list:
        """The (label, construct_uid, target state) triples of a state."""
        if st.moves is None:
            st.moves = [(lab, uid, self.state(nxt))
                        for lab, uid, nxt in successors(st.term, self.defs)]
        return st.moves


def require_seq(term: ProcessTerm, defs: Definitions) -> None:
    """The precondition of the symbolic rules, which the SSLTS and the
    translation semantics both apply: the process is in the Seq fragment,
    on which alone the rules are defined, and its recursion is guarded.  A
    violation is a hard error."""
    report = check_seq(term, defs)
    if not report.ok():
        raise SemanticsError(
            "process is not in the Seq fragment: "
            + "; ".join(f.message for f in report.findings))
    check_guarded_recursion(term, defs)


def build_sslts(defs: Definitions, proc: Union[str, ProcessTerm],
                max_states: int = 100_000) -> Lts:
    """Breadth-first closure of the symbolic transition rules over a table
    of symbolic states: an Lts whose states are terms, keyed by class, with
    symbolic labels, an empty alphabet and tsize 0.  require_seq runs
    first."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    require_seq(term, defs)
    table = Table(defs)
    root = table.state(term)
    lts = build(root, root.cls,
                lambda st: [(lab, uid, nxt, nxt.cls) for lab, uid, nxt in table.moves(st)],
                alphabet=frozenset(), tsize=0, max_states=max_states,
                describe=lambda st: fmt_term(st.term), order=sym_label_key)
    lts.states = [st.term for st in lts.states]
    return lts


# ---------------------------------------------------------------------------
# The non-t projection of visible symbolic events

def nont_event_key(e: Construct):
    """The non-t projection of a visible symbolic event: the channel plus the
    concrete non-t fields; every t field collapses to a wildcard."""
    parts = []
    for f in e.fields:
        if f.is_t():
            parts.append(("t",))
        else:
            parts.append(("v",) + value_key(f.payload))
    return (e.channel, tuple(parts))
