"""Semi-Symbolic Operational Semantics.

Builds the SSLTS of a sequential process with the distinguished type t left
uninstantiated.  Labels are τ, visible symbolic events (constructs whose
non-t inputs have been resolved to concrete outputs), or conditional events
(a t-condition or its negation).  Conditional and τ labels are promoted
through external and sliding choice alike; non-t conditionals are evaluated
during construction.  The non-t projection of a visible symbolic event is
the key by which the traces threshold groups events.
"""

from __future__ import annotations

import itertools
from typing import Union

from .conditions import check_seq
from .errors import SemanticsError
from .lts import TAU, Lts, build
from .pretty import fmt_condition, fmt_construct, fmt_term
from .record import record
from .std_semantics import call_binding, check_guarded_recursion, eval_guard
from .syntax import (
    BANG, Condition, Construct, Definitions, ExtChoice, Ident, If, IntChoice,
    MixedGuard, Prefix, ProcessTerm, Sliding, Stop, alpha_canonical,
    classify_fields, comms_nont, construct_binding, domain_values,
    replace_selections, substitute, value_key,
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


SymLabel = object  # TAU, Vis, or Cond


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


def _promote(succ, wrap):
    """An operand's successors under a choice: τ and conditional labels keep
    the choice (wrap puts it around the target), visible labels resolve it."""
    return [(lab, uid, wrap(nxt) if lab is TAU or isinstance(lab, Cond) else nxt)
            for lab, uid, nxt in succ]


def resolve_selections(term: Prefix, scope: str, tvalues):
    """The τ-stage of a prefix that resolves its $-selections in scope ('t'
    or 'non-t'): one (τ, construct_uid, target) triple per choice of values,
    the chosen selections becoming outputs.  None when the prefix has no
    selection in scope."""
    alpha = term.construct
    sets = classify_fields(alpha)
    positions = sorted(sets.dollar_t if scope == "t" else sets.dollar_nont)
    if not positions:
        return None
    names = [alpha.fields[i - 1].payload for i in positions]
    domains = [domain_values(alpha.fields[i - 1].ty, tvalues) for i in positions]
    stripped = Prefix(replace_selections(alpha, scope), term.cont)
    return [(TAU, alpha.uid, substitute(stripped, dict(zip(names, vs))))
            for vs in itertools.product(*domains)]


def unfold_ident(term: Ident, defs: Definitions):
    eq, mapping = call_binding(term, defs)
    return substitute(eq.body, mapping)


def successors(term: ProcessTerm, defs: Definitions):
    """Symbolic successor triples (label, construct_uid, target term)."""
    if isinstance(term, Stop):
        return []
    if isinstance(term, Prefix):
        out = resolve_selections(term, "non-t", ())
        if out is not None:
            return out
        alpha = term.construct
        query = classify_fields(alpha).query_nont
        return [(Vis(eps), alpha.uid, substitute(term.cont, construct_binding(
                    alpha, [f.payload for f in eps.fields], query)))
                for eps in comms_nont(alpha)]
    if isinstance(term, ExtChoice):
        return (_promote(successors(term.left, defs), lambda t: ExtChoice(t, term.right))
                + _promote(successors(term.right, defs), lambda t: ExtChoice(term.left, t)))
    if isinstance(term, IntChoice):
        return [(TAU, None, term.left), (TAU, None, term.right)]
    if isinstance(term, Sliding):
        return [(TAU, None, term.right)] + _promote(
            successors(term.left, defs), lambda t: Sliding(t, term.right))
    if isinstance(term, If):
        g = term.guard
        if isinstance(g, Condition):
            return [(Cond(g), None, term.then), (Cond(g.negate()), None, term.els)]
        if isinstance(g, MixedGuard):
            raise SemanticsError(
                "mixed t/non-t guard reached the symbolic semantics (Seq violation)")
        branch = term.then if eval_guard(g) else term.els
        return successors(branch, defs)
    if isinstance(term, Ident):
        return [(TAU, None, unfold_ident(term, defs))]
    raise SemanticsError(
        f"{type(term).__name__} is outside the sequential fragment; "
        "the symbolic semantics is defined on Seq processes only")


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
    """Breadth-first closure of the symbolic transition rules: an Lts with
    symbolic labels, an empty alphabet and tsize 0.  require_seq runs
    first."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    require_seq(term, defs)

    def succ(t):
        return [(lab, uid, nxt, alpha_canonical(nxt))
                for lab, uid, nxt in successors(t, defs)]

    return build(term, alpha_canonical(term), succ, alphabet=frozenset(),
                 tsize=0, max_states=max_states, describe=fmt_term,
                 order=sym_label_key)


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
