"""Semi-Symbolic Operational Semantics.

Builds the SSLTS of a sequential process with the distinguished type t left
uninstantiated.  Labels are τ, visible symbolic events (constructs whose
non-t inputs have been resolved to concrete outputs), or conditional events
(a t-condition or its negation).  Conditional and τ labels are promoted
through external and sliding choice alike; non-t conditionals are evaluated
during construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BoundExceeded, SemanticsError
from .lts import TAU, tau_closure
from .pretty import fmt_condition, fmt_construct, fmt_term
from .std_semantics import eval_guard, unfold_ident
from .syntax import (
    BANG, Condition, Construct, Definitions, ExtChoice, Ident, If, IntChoice,
    MixedGuard, Prefix, ProcessTerm, Sliding, Stop, alpha_canonical,
    classify_fields, comms_nont, domain_values, replace_selections,
    substitute, value_key,
)


@dataclass(frozen=True)
class Vis:
    """A visible symbolic event label."""

    event: Construct

    def __str__(self) -> str:
        return fmt_construct(self.event)


@dataclass(frozen=True)
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


@dataclass
class Sslts:
    """A rooted, finite semi-symbolic LTS with deduplicated states."""

    root: int
    states: list
    keys: list
    edges: list[list[tuple]]  # (SymLabel, target, construct_uid | None)

    def n_states(self) -> int:
        return len(self.states)

    def n_edges(self) -> int:
        return sum(len(es) for es in self.edges)


def successors(term: ProcessTerm, defs: Definitions):
    """Symbolic successor triples (label, construct_uid, target term)."""
    if isinstance(term, Stop):
        return []
    if isinstance(term, Prefix):
        alpha, cont = term.construct, term.cont
        sets = classify_fields(alpha)
        out = []
        if sets.dollar_nont:
            positions = sorted(sets.dollar_nont)
            domains = [domain_values(alpha.fields[i - 1].ty, ()) for i in positions]
            stripped = replace_selections(alpha, "non-t")
            for vs in itertools.product(*domains):
                binding = {alpha.fields[i - 1].payload: v
                           for i, v in zip(positions, vs)}
                out.append((TAU, alpha.uid, substitute(Prefix(stripped, cont), binding)))
            return out
        for eps in comms_nont(alpha):
            binding = {}
            for i in sorted(classify_fields(alpha).query_nont):
                binding[alpha.fields[i - 1].payload] = eps.fields[i - 1].payload
            out.append((Vis(eps), alpha.uid, substitute(cont, binding)))
        return out
    if isinstance(term, ExtChoice):
        out = []
        for lab, uid, nxt in successors(term.left, defs):
            if lab is TAU or isinstance(lab, Cond):
                out.append((lab, uid, ExtChoice(nxt, term.right)))
            else:
                out.append((lab, uid, nxt))
        for lab, uid, nxt in successors(term.right, defs):
            if lab is TAU or isinstance(lab, Cond):
                out.append((lab, uid, ExtChoice(term.left, nxt)))
            else:
                out.append((lab, uid, nxt))
        return out
    if isinstance(term, IntChoice):
        return [(TAU, None, term.left), (TAU, None, term.right)]
    if isinstance(term, Sliding):
        out = [(TAU, None, term.right)]
        for lab, uid, nxt in successors(term.left, defs):
            if lab is TAU or isinstance(lab, Cond):
                out.append((lab, uid, Sliding(nxt, term.right)))
            else:
                out.append((lab, uid, nxt))
        return out
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


def build_sslts(defs: Definitions, proc: Union[str, ProcessTerm],
                max_states: int = 100_000, *, require_seq: bool = True) -> Sslts:
    """Breadth-first closure of the symbolic transition rules.

    With require_seq (the default) the Seq checker runs first and a violation
    is a hard error, since the rules are only defined on that fragment.
    """
    term = defs.body(proc) if isinstance(proc, str) else proc
    if require_seq:
        from .conditions import check_seq
        report = check_seq(term, defs)
        if not report.ok():
            raise SemanticsError(
                "process is not in the Seq fragment: "
                + "; ".join(f.message for f in report.findings))
    states = [term]
    keys = [alpha_canonical(term)]
    index = {keys[0]: 0}
    edges = []
    frontier = 0
    while frontier < len(states):
        out = []
        seen = set()
        succ = sorted(successors(states[frontier], defs),
                      key=lambda s: sym_label_key(s[0]))
        for lab, uid, nxt in succ:
            key = alpha_canonical(nxt)
            tgt = index.get(key)
            if tgt is None:
                if len(states) >= max_states:
                    raise BoundExceeded("state", max_states, fmt_term(nxt))
                tgt = len(states)
                index[key] = tgt
                states.append(nxt)
                keys.append(key)
            dd = (sym_label_key(lab), tgt, uid)
            if dd not in seen:
                seen.add(dd)
                out.append((lab, tgt, uid))
        edges.append(sorted(out, key=lambda e: (sym_label_key(e[0]), e[1])))
        frontier += 1
    return Sslts(0, states, keys, edges)


# ---------------------------------------------------------------------------
# Symbolic traces and their equivalences

SymbolicTrace = tuple


def symbolic_traces(s: Sslts, maxlen: int) -> Iterator[SymbolicTrace]:
    """All label sequences of length <= maxlen forming root paths (paths may
    revisit states, so the enumeration is by length)."""
    frontier = [((), s.root)]
    yield ()
    for _ in range(maxlen):
        nxt = []
        for trace, st in frontier:
            for lab, tgt, _ in s.edges[st]:
                t2 = trace + (lab,)
                nxt.append((t2, tgt))
                yield t2
        frontier = nxt


def nontau_equiv(sigma: SymbolicTrace, rho: SymbolicTrace) -> bool:
    """Equality of the projections that erase internal events only."""
    return _strip_tau(sigma) == _strip_tau(rho)


def _strip_tau(sigma):
    return tuple(sym_label_key(l) for l in sigma if l is not TAU)


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


def nont_equiv_events(e1: Construct, e2: Construct) -> bool:
    """Visible symbolic events agreeing on all the fields not of type t."""
    return nont_event_key(e1) == nont_event_key(e2)


def nont_equiv(sigma: SymbolicTrace, rho: SymbolicTrace) -> bool:
    """Non-t equivalence: the restrictions to visible symbolic events are
    pointwise non-t equivalent."""
    v1 = [nont_event_key(l.event) for l in sigma if isinstance(l, Vis)]
    v2 = [nont_event_key(l.event) for l in rho if isinstance(l, Vis)]
    return v1 == v2


# ---------------------------------------------------------------------------
# Structural checks used as construction-time assertions on normal
# specifications (they hold for every SeqNorm process).

def check_unique_nontau_targets(s: Sslts) -> list[str]:
    """From any state, a given visible or conditional label reachable through
    τ-prefixes leads to a unique target state."""
    problems = []
    for st in range(s.n_states()):
        closure = tau_closure(s.edges, st)
        seen: dict = {}
        for q in sorted(closure):
            for lab, tgt, _ in s.edges[q]:
                if lab is TAU:
                    continue
                k = sym_label_key(lab)
                if k in seen and seen[k] != tgt:
                    problems.append(
                        f"state {st}: label {fmt_sym_label(lab)} reaches both "
                        f"states {seen[k]} and {tgt}")
                seen[k] = tgt
    return problems


def check_lonely_conditionals(s: Sslts) -> list[str]:
    """If a conditional edge is τ-reachable from a state, every non-τ edge
    τ-reachable from it is that condition or its negation."""
    problems = []
    for st in range(s.n_states()):
        closure = tau_closure(s.edges, st)
        labels = [lab for q in closure for lab, _, _ in s.edges[q] if lab is not TAU]
        conds = [lab for lab in labels if isinstance(lab, Cond)]
        if not conds:
            continue
        base = conds[0].condition
        wanted = {sym_label_key(Cond(base)), sym_label_key(Cond(base.negate()))}
        for lab in labels:
            if sym_label_key(lab) not in wanted:
                problems.append(
                    f"state {st}: label {fmt_sym_label(lab)} alongside "
                    f"conditional {fmt_condition(base)}")
    return problems


def check_vis_label_shape(s: Sslts) -> list[str]:
    """Visible symbolic labels never contain non-t selections or inputs."""
    problems = []
    for st in range(s.n_states()):
        for lab, _, _ in s.edges[st]:
            if isinstance(lab, Vis):
                sets = classify_fields(lab.event)
                if sets.dollar_nont or sets.query_nont:
                    problems.append(f"state {st}: label {lab} has non-t inputs")
    return problems
