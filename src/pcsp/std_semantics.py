"""Standard concrete operational semantics.

Builds the LTS of a closed process instantiated at T = {0..n-1}.  Prefixes
resolve nondeterministic selections in two τ-stages (all non-t selections
simultaneously, then all t selections simultaneously); choice, binding and
conditional rules are the usual ones, and the operators outside the
sequential fragment (hiding, renaming, the parallels and their replicated
forms) follow the standard CSP rules.

Replicated parallel, interleaving and external choice over t are expanded
into binary trees where a term first enters a state: the root, the body of
an unfolded identifier, and the body of a resolved replicated internal
choice (which itself stays primitive).  Every other successor is built from
subterms of an expanded state, or substitutes values into one, so it is
expanded already and exploration never re-walks whole states.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .errors import SemanticsError
from .lts import Event, Lts, TAU, build, rename_lts  # noqa: F401 (re-export)
from .syntax import (
    AlphaPar, Atom, Condition, Definitions, EventLitItem, EventSet, ExtChoice,
    Hide, Ident, If, IntChoice, Interleave, MixedGuard, Prefix, ProcessTerm,
    Rename, ReplAlphaPar, ReplExtChoice, ReplIntChoice, ReplInterleave,
    SharedPar, Sliding, Stop, TVal, alpha_canonical, classify_fields, comms,
    construct_binding, domain_values, eval_bool, eval_condition_closed,
    eval_scalar, map_subterms, replace_selections, subst_event_set, substitute,
)

DEFAULT_MAX_STATES = 200_000


def tvalues_for(n: int) -> tuple[TVal, ...]:
    if n < 1:
        raise SemanticsError("the distinguished type must be instantiated non-empty")
    return tuple(TVal(i) for i in range(n))


def file_alphabet(defs: Definitions, tvalues) -> frozenset[Event]:
    """All events of the declared channels over the instantiation."""
    out = set()
    for name, sig in defs.channels.items():
        domains = [domain_values(ty, tvalues) for ty in sig]
        for vs in itertools.product(*domains):
            out.add(Event(name, tuple(vs)))
    return frozenset(out)


def eval_event_set(evset: EventSet, defs: Definitions, tvalues) -> frozenset[Event]:
    out = set()
    for item in evset.closures:
        sig = defs.channels.get(item.channel)
        if sig is None:
            raise SemanticsError(f"undeclared channel {item.channel!r} in event set")
        fixed = []
        for d in item.datums:
            if isinstance(d, str):
                raise SemanticsError(f"unbound variable {d!r} in event set")
            fixed.append(d)
        rest = [domain_values(ty, tvalues) for ty in sig[len(fixed):]]
        for vs in itertools.product(*rest):
            out.add(Event(item.channel, tuple(fixed) + tuple(vs)))
    for item in evset.literals:
        vals = []
        for d in item.datums:
            if isinstance(d, str):
                raise SemanticsError(f"unbound variable {d!r} in event set")
            vals.append(d)
        out.add(Event(item.channel, tuple(vals)))
    return frozenset(out)


def _rename_map(pairs, defs: Definitions, tvalues):
    """Relational renaming: event -> tuple of renamed events."""
    mapping: dict[Event, list[Event]] = {}
    for a, b in pairs:
        if isinstance(a, str) or isinstance(b, str):
            if not (isinstance(a, str) and isinstance(b, str)):
                raise SemanticsError("renaming must pair channels with channels")
            siga, sigb = defs.channels.get(a), defs.channels.get(b)
            if siga is None or sigb is None or len(siga) != len(sigb):
                raise SemanticsError(f"renaming {a!r} <- {b!r}: incompatible channels")
            domains = [domain_values(ty, tvalues) for ty in sigb]
            for vs in itertools.product(*domains):
                mapping.setdefault(Event(b, tuple(vs)), []).append(Event(a, tuple(vs)))
        else:
            src = Event(b.channel, tuple(_closed_datums(b)))
            dst = Event(a.channel, tuple(_closed_datums(a)))
            mapping.setdefault(src, []).append(dst)
    return mapping


def _closed_datums(item: EventLitItem):
    for d in item.datums:
        if isinstance(d, str):
            raise SemanticsError(f"unbound variable {d!r} in renaming")
    return item.datums


def unfold_ident(term: Ident, defs: Definitions):
    eq = defs.equations.get(term.name)
    if eq is None:
        raise SemanticsError(f"undefined process {term.name!r}")
    if len(term.args) != len(eq.params):
        raise SemanticsError(
            f"{term.name!r} expects {len(eq.params)} argument(s), got {len(term.args)}")
    mapping = {}
    for p, a in zip(eq.params, term.args):
        if isinstance(a, (TVal, Atom)):
            mapping[p] = a
        else:
            mapping[p] = eval_scalar(a)
    return substitute(eq.body, mapping)


def expand_replicated(term: ProcessTerm, tvalues) -> ProcessTerm:
    """Expand replicated parallel/interleave/external choice over t into
    left-associated binary trees, throughout the term; replicated internal
    choice stays primitive (it resolves by a τ per index)."""
    if isinstance(term, ReplIntChoice):
        return term
    if isinstance(term, (ReplInterleave, ReplExtChoice)):
        members = domain_values(term.domain, tvalues)
        if not members:
            raise SemanticsError("replicated operator over an empty index set")
        parts = [expand_replicated(substitute(term.body, {term.var: v}), tvalues)
                 for v in members]
        combine = Interleave if isinstance(term, ReplInterleave) else ExtChoice
        out = parts[0]
        for p in parts[1:]:
            out = combine(out, p)
        return out
    if isinstance(term, ReplAlphaPar):
        members = domain_values(term.domain, tvalues)
        if not members:
            raise SemanticsError("replicated parallel over an empty index set")
        parts = []
        for v in members:
            body = expand_replicated(substitute(term.body, {term.var: v}), tvalues)
            parts.append((body, subst_event_set(term.alpha, {term.var: v})))
        out, out_alpha = parts[0]
        for body, alpha in parts[1:]:
            out = AlphaPar(out, out_alpha, body, alpha)
            out_alpha = _union_set(out_alpha, alpha)
        return out
    return map_subterms(term, lambda sub: expand_replicated(sub, tvalues))


def _union_set(a: EventSet, b: EventSet) -> EventSet:
    return EventSet(a.closures + b.closures, a.literals + b.literals)


def eval_guard(guard) -> bool:
    if isinstance(guard, Condition):
        return eval_condition_closed(guard)
    if isinstance(guard, MixedGuard):
        if any(isinstance(l, str) or isinstance(r, str) for l, r in guard.t_atoms):
            raise SemanticsError("guard with unbound t-variables reached evaluation")
        base = all(l == r for l, r in guard.t_atoms)
        base = base and all(eval_bool(b) for b in guard.other)
        return (not base) if guard.negated else base
    return eval_bool(guard)


class Engine:
    """Successor computation for closed terms at a fixed instantiation."""

    def __init__(self, defs: Definitions, tsize: int):
        self.defs = defs
        self.tvalues = tvalues_for(tsize)
        self._set_cache: dict = {}

    def evset(self, s: EventSet) -> frozenset[Event]:
        got = self._set_cache.get(s)
        if got is None:
            got = eval_event_set(s, self.defs, self.tvalues)
            self._set_cache[s] = got
        return got

    def successors(self, term: ProcessTerm):
        """(label, construct_uid, target_term) triples, unsorted."""
        T = self.tvalues
        if isinstance(term, Stop):
            return []
        if isinstance(term, Prefix):
            alpha, cont = term.construct, term.cont
            sets = classify_fields(alpha)
            out = []
            if sets.dollar_nont:
                positions = sorted(sets.dollar_nont)
                domains = [domain_values(alpha.fields[i - 1].ty, T) for i in positions]
                stripped = replace_selections(alpha, "non-t")
                for vs in itertools.product(*domains):
                    binding = {alpha.fields[i - 1].payload: v
                               for i, v in zip(positions, vs)}
                    out.append((TAU, alpha.uid,
                                substitute(Prefix(stripped, cont), binding)))
                return out
            if sets.dollar_t:
                positions = sorted(sets.dollar_t)
                domains = [domain_values(alpha.fields[i - 1].ty, T) for i in positions]
                stripped = replace_selections(alpha, "t")
                for vs in itertools.product(*domains):
                    binding = {alpha.fields[i - 1].payload: v
                               for i, v in zip(positions, vs)}
                    out.append((TAU, alpha.uid,
                                substitute(Prefix(stripped, cont), binding)))
                return out
            for values in comms(alpha, T):
                binding = construct_binding(alpha, values, sets.query)
                out.append((Event(alpha.channel, values), alpha.uid,
                            substitute(cont, binding)))
            return out
        if isinstance(term, ExtChoice):
            out = []
            for lab, uid, nxt in self.successors(term.left):
                out.append((lab, uid, ExtChoice(nxt, term.right) if lab is TAU else nxt))
            for lab, uid, nxt in self.successors(term.right):
                out.append((lab, uid, ExtChoice(term.left, nxt) if lab is TAU else nxt))
            return out
        if isinstance(term, IntChoice):
            return [(TAU, None, term.left), (TAU, None, term.right)]
        if isinstance(term, Sliding):
            out = [(TAU, None, term.right)]
            for lab, uid, nxt in self.successors(term.left):
                out.append((lab, uid, Sliding(nxt, term.right) if lab is TAU else nxt))
            return out
        if isinstance(term, If):
            branch = term.then if eval_guard(term.guard) else term.els
            return self.successors(branch)
        if isinstance(term, Ident):
            return [(TAU, None, expand_replicated(unfold_ident(term, self.defs), T))]
        if isinstance(term, ReplIntChoice):
            members = domain_values(term.domain, T)
            if not members:
                raise SemanticsError("replicated internal choice over an empty index set")
            return [(TAU, None, expand_replicated(substitute(term.body, {term.var: v}), T))
                    for v in members]
        if isinstance(term, Hide):
            hidden = self.evset(term.hidden)
            out = []
            for lab, uid, nxt in self.successors(term.proc):
                lab2 = TAU if (lab is not TAU and lab in hidden) else lab
                out.append((lab2, uid, Hide(nxt, term.hidden)))
            return out
        if isinstance(term, Rename):
            mapping = _rename_map(term.pairs, self.defs, self.tvalues)
            out = []
            for lab, uid, nxt in self.successors(term.proc):
                if lab is TAU or lab not in mapping:
                    out.append((lab, uid, Rename(nxt, term.pairs)))
                else:
                    for lab2 in mapping[lab]:
                        out.append((lab2, uid, Rename(nxt, term.pairs)))
            return out
        if isinstance(term, AlphaPar):
            return self._par(term, self.evset(term.left_alpha),
                             self.evset(term.right_alpha))
        if isinstance(term, SharedPar):
            shared = self.evset(term.shared)
            return self._shared(term, shared)
        if isinstance(term, Interleave):
            out = []
            for lab, uid, nxt in self.successors(term.left):
                out.append((lab, uid, Interleave(nxt, term.right)))
            for lab, uid, nxt in self.successors(term.right):
                out.append((lab, uid, Interleave(term.left, nxt)))
            return out
        if isinstance(term, (ReplAlphaPar, ReplInterleave, ReplExtChoice)):
            raise SemanticsError("replicated operator not expanded before exploration")
        raise SemanticsError(f"successors: unknown term {term!r}")

    def _par(self, term: AlphaPar, la: frozenset[Event], ra: frozenset[Event]):
        out = []
        left_succ = self.successors(term.left)
        right_succ = self.successors(term.right)
        for lab, uid, nxt in left_succ:
            if lab is TAU:
                out.append((TAU, uid, AlphaPar(nxt, term.left_alpha, term.right,
                                               term.right_alpha)))
            elif lab in la:
                if lab in ra:
                    for lab2, uid2, nxt2 in right_succ:
                        if lab2 == lab:
                            out.append((lab, None,
                                        AlphaPar(nxt, term.left_alpha, nxt2,
                                                 term.right_alpha)))
                else:
                    out.append((lab, uid, AlphaPar(nxt, term.left_alpha, term.right,
                                                   term.right_alpha)))
        for lab, uid, nxt in right_succ:
            if lab is TAU:
                out.append((TAU, uid, AlphaPar(term.left, term.left_alpha, nxt,
                                               term.right_alpha)))
            elif lab in ra and lab not in la:
                out.append((lab, uid, AlphaPar(term.left, term.left_alpha, nxt,
                                               term.right_alpha)))
        return out

    def _shared(self, term: SharedPar, shared: frozenset[Event]):
        out = []
        left_succ = self.successors(term.left)
        right_succ = self.successors(term.right)
        for lab, uid, nxt in left_succ:
            if lab is not TAU and lab in shared:
                for lab2, uid2, nxt2 in right_succ:
                    if lab2 == lab:
                        out.append((lab, None, SharedPar(nxt, term.shared, nxt2)))
            else:
                out.append((lab, uid, SharedPar(nxt, term.shared, term.right)))
        for lab, uid, nxt in right_succ:
            if lab is TAU or lab not in shared:
                out.append((lab, uid, SharedPar(term.left, term.shared, nxt)))
        return out


def build_lts(defs: Definitions, proc: Union[str, ProcessTerm], tsize: int,
              max_states: int = DEFAULT_MAX_STATES,
              init_subst: Optional[dict] = None) -> Lts:
    """Breadth-first closure of the transition rules from the given process
    (a defined name or a term, closed once init_subst is applied)."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    if init_subst:
        term = substitute(term, init_subst)
    engine = Engine(defs, tsize)
    root = expand_replicated(term, engine.tvalues)

    def successors(payload):
        for lab, uid, nxt in engine.successors(payload):
            yield lab, uid, nxt, alpha_canonical(nxt)

    from .pretty import fmt_term
    return build(root, alpha_canonical(root), successors,
                 alphabet=file_alphabet(defs, engine.tvalues), tsize=tsize,
                 max_states=max_states, describe=fmt_term)
