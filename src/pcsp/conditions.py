"""Syntactic side-condition checkers on specification and implementation
processes: data independence, the sequential normality conditions Seq and
SeqNorm, the symmetry-in-t sufficient condition, the mixed-input
restriction, and the sampled equality-test refinement property.

``check_all`` derives the five syntactic reports from one ``unfold_walk``,
in its pre-order; each per-report checker returns its entry.  Seq clause v
and SeqNorm compare the operands of each binary choice by their
$-selection variables of type t, free names, initial channels and whether a
conditional on t comes before an initial prefix.  One post-order pass
computes these for every subterm, a call taking its equation's share from a
closure over the call graph.  A node merges its operands' sets, the smaller
into the larger, so each name moves O(log n) times: a long choice costs
near-linear time, where walking each operand anew cost quadratic time.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterator, Union

from .errors import SemanticsError, building
from .lts import tau_closure
from .report import ConditionReport, Finding
from .std_semantics import DEFAULT_MAX_STATES
from .syntax import (
    AlphaPar, BANG, Condition, Definitions, DOLLAR, ExtChoice, Hide, Ident, If,
    IntChoice, Interleave, MixedGuard, Prefix, ProcessTerm, Rename, ReplAlphaPar,
    ReplExtChoice, ReplIntChoice, ReplInterleave, SharedPar, Sliding, Stop, TType,
    TVal, binder_type, binders, classify_fields, free_vars, map_subterms,
    substitute, subterms, t_values, unfold_walk,
)

__all__ = [
    "check_all", "check_data_independence", "check_seq", "check_seqnorm",
    "check_typesym_syntactic", "check_no_mixed_inputs", "revposconjeqt_evidence",
]

ProcRef = Union[str, ProcessTerm]


def _root(proc: ProcRef, defs: Definitions) -> tuple[ProcessTerm, str, set]:
    if isinstance(proc, str):
        eq = defs.equations.get(proc)
        if eq is None:
            raise SemanticsError(f"undefined process {proc!r}")
        return eq.body, proc, {proc}
    return proc, "<term>", set()


# Data independence (i): replication indexed over t, except replicated
# internal choice over the whole of t
_REPLICATION = {
    **dict.fromkeys((ReplInterleave, ReplAlphaPar, ReplExtChoice),
                    "replicated construct indexed over a set depending on t"),
    ReplIntChoice: "replicated internal choice not over the whole of t",
}

# Seq (ii) and (iii): the operators outside the sequential fragment
_NOT_SEQUENTIAL = {
    Hide: ("ii", "contains hiding"),
    Rename: ("ii", "contains renaming"),
    **{cls: ("ii", f"not sequential: {cls.__name__} operator")
       for cls in (AlphaPar, SharedPar, Interleave, ReplAlphaPar, ReplInterleave)},
    ReplIntChoice: ("iii", "replicated internal choice"),
    ReplExtChoice: ("iii", "replicated external choice"),
}

_CHOICES = (ExtChoice, IntChoice, Sliding)
_EMPTY = frozenset()


def _report(name: str, findings: list) -> ConditionReport:
    return ConditionReport(name, "fail" if findings else "pass", findings)


def check_all(proc: ProcRef, defs: Definitions) -> list[ConditionReport]:
    """The five syntactic reports of one process, from one walk: data
    independence, Seq, SeqNorm, TypeSym-syntactic and no-mixed-inputs."""
    term, name, seen = _root(proc, defs)
    di, seq, sym, mixed = [], [], [], []  # seq: (pre-order index, finding)
    nodes = []  # (node, equation, whether the walk unfolds it there)
    # each equation body's own $-selection variables of type t and calls,
    # and the channels, calls and conditionals on t on its initial spine
    eqs = defaultdict(lambda: SimpleNamespace(
        dollar=set(), calls=set(), chans=set(), spine=set(), cond=False))
    # whether each node on the walk's stack is on its equation's initial spine,
    # pushed as unfold_walk pushes nodes (it marks a call seen after yielding it)
    on_spine = [True]
    for i, (node, where) in enumerate(unfold_walk(term, defs, name, seen)):
        cls = node.__class__
        unfolds = cls is Ident and node.name not in seen and node.name in defs.equations
        nodes.append((node, where, unfolds))
        spine, own = on_spine.pop(), eqs[where]
        on_spine += [True] * unfolds + [spine and cls is not Prefix] * len(subterms(node))

        message = _REPLICATION.get(cls)
        proper = message is not None and not isinstance(node.domain, TType)
        if proper or message and cls is not ReplIntChoice:
            di.append(Finding("i", message, where))
        constants = [f"constant {v} of type t" for v in t_values(node)]
        di += [Finding("iii", c, where) for c in constants]
        sym += [Finding("i", c, where) for c in constants]
        if proper:
            sym.append(Finding("iv", f"selection |~| {node.var}:{node.domain} from a "
                               "set involving t" if cls is ReplIntChoice else
                               "replicated operator indexed over a proper subset of t",
                               where))
        kind = _NOT_SEQUENTIAL.get(cls)
        if kind:
            seq.append((i, Finding(*kind, where)))
        elif cls is If:
            if isinstance(node.guard, MixedGuard):
                seq.append((i, Finding(
                    "iv", "guard mixes variables of type t with other types", where)))
            own.cond |= spine and isinstance(node.guard, (Condition, MixedGuard))
        elif cls is Ident:
            own.calls.add(node.name)
            if spine:
                own.spine.add(node.name)
        elif cls is Prefix:
            alpha = node.construct
            for f in alpha.fields:
                if f.sel != BANG and f.is_t() and not isinstance(f.ty, TType):
                    desc = f"selection {f.sel}{f.payload}:{f.ty} from a set involving t"
                    di.append(Finding("vi", desc, where))
                    sym.append(Finding("iv", desc, where))
            names = [f.payload for f in alpha.fields]
            seq += [(i, Finding("vi", f"input variable {f.payload!r} of type t occurs "
                                f"{names.count(f.payload)} times in one construct", where))
                    for f in alpha.fields
                    if f.sel != BANG and f.is_t() and names.count(f.payload) > 1]
            sets = classify_fields(alpha)
            if sets.dollar_t and sets.query:
                mixed.append(Finding(
                    "mixed", f"construct on channel {alpha.channel!r} combines a "
                    "nondeterministic selection over t with a deterministic input", where))
            own.dollar.update(f.payload for f in alpha.fields if f.sel == DOLLAR and f.is_t())
            if spine:
                own.chans.add(alpha.channel)

    norm = []
    if any(node.__class__ in _CHOICES for node, _, _ in nodes):
        clause_v, norm = _choice_findings(nodes, _shares(eqs))
        seq += clause_v
    seq = [Finding("i", f"not data independent: ({f.clause}) {f.message}", f.where)
           for f in di] + [f for _, f in sorted(seq, key=itemgetter(0))]
    if seq:
        norm = [Finding("Seq", f"({f.clause}) {f.message}", f.where) for f in seq]
    return [_report("data-independence", di), _report("Seq", seq),
            _report("SeqNorm", norm), _report("TypeSym-syntactic", sym),
            _report("no-mixed-inputs", mixed)]


def _shares(eqs: dict) -> dict:
    """Each equation's operand facts, its calls followed: the $-selection
    variables of type t of the equations it reaches, and the initial
    channels and conditionals of those it reaches along initial spines."""
    def reach(calls):
        graph = {n: [(None, m, None) for m in calls(own) if m in eqs]
                 for n, own in eqs.items()}
        return {n: tau_closure(graph, [n], lambda _: True) for n in eqs}

    anywhere, initially = reach(lambda own: own.calls), reach(lambda own: own.spine)
    return {n: (_EMPTY.union(*(eqs[m].dollar for m in anywhere[n])),
                _EMPTY.union(*(eqs[m].chans for m in initially[n])),
                any(eqs[m].cond for m in initially[n]))
            for n in eqs}


def _merge(sets, drop=()) -> frozenset:
    """The union of sets less drop, built into the largest, copied first
    unless it is a mutable set of this pass, which no one else reads: each
    name moves into a set at least as large, so O(log n) times in all."""
    sets = [s for s in sets if s]
    if not sets or len(sets) == 1 and sets[0].isdisjoint(drop):
        return sets[0] if sets else _EMPTY
    big = max(sets, key=lambda s: (len(s), s.__class__ is set))
    out = big if big.__class__ is set else set(big)
    for s in sets:
        if s is not big:
            out |= s
    out.difference_update(drop)
    return out


def _choice_findings(nodes: list, shares: dict) -> tuple[list, list]:
    """Seq clause v and the SeqNorm findings of the binary choices among the
    walk's nodes, each with its node's index, from one post-order pass; a
    call takes its equation's share, and the walk's unfolding of it is not
    looked at."""
    clause_v, norm = [], []
    stack = []  # the facts of the operands not yet taken
    for i in range(len(nodes) - 1, -1, -1):
        node, where, unfolds = nodes[i]
        cls = node.__class__
        if cls is Ident:
            if unfolds:
                stack.pop()
            dollar, chans, cond = shares.get(node.name, (_EMPTY, _EMPTY, False))
            stack.append((dollar, free_vars(node), chans, cond))
            continue
        kids = [stack.pop() for _ in subterms(node)]
        if cls in _CHOICES:
            (ld, lf, lc, lk), (rd, rf, rc, rk) = kids
            if cls is not IntChoice:
                clause_v += [(i, Finding(
                    "v", f"nondeterministic-selection variable {clash!r} of one "
                    "choice argument is free in the other", where))
                    for clash in sorted((ld & rf) | (rd & lf))]
                # selections of both arguments sharing a name cause the same
                # overwriting of stored values while the choice is unresolved
                clause_v += [(i, Finding(
                    "v", f"nondeterministic-selection variable {clash!r} is "
                    "bound in both choice arguments", where))
                    for clash in sorted(x for x in ld & rd if x not in lf and x not in rf)]
            shared = lc & rc
            if shared:
                norm.append((i, Finding("channels", "choice arguments share channel(s) "
                                        + ", ".join(sorted(shared)), where)))
            norm += [(i, Finding("cond-before-prefix", "conditional choice on t before "
                                 f"a prefix in the {side} argument of a choice", where))
                     for side, cond in (("left", lk), ("right", rk)) if cond]
        # a node's binders scope over its operands, its blank keeps the rest
        free = _merge([_merge([k[1] for k in kids], binders(node)),
                       free_vars(map_subterms(node, lambda _: Stop()))])
        if cls is Prefix:
            alpha = node.construct
            dollar = _merge([kids[0][0], {f.payload for f in alpha.fields
                                          if f.sel == DOLLAR and f.is_t()}])
            chans, cond = {alpha.channel}, False
        else:
            dollar = _merge([k[0] for k in kids])
            chans = _merge([k[2] for k in kids])
            cond = (cls is If and isinstance(node.guard, (Condition, MixedGuard))
                    or any(k[3] for k in kids))
        stack.append((dollar, free, chans, cond))
    return clause_v, [f for _, f in sorted(norm, key=itemgetter(0))]


def check_data_independence(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """Syntactic data independence in t: no t-indexed replication other than
    replicated internal choice over the whole of t, no t constants, and no
    selections from proper subsets of t."""
    return check_all(proc, defs)[0]


def check_seq(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """The sequential-fragment condition on specifications."""
    return check_all(proc, defs)[1]


def check_seqnorm(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """Seq plus normality: choice arguments use disjoint channel sets and have
    no conditional choice on t before a prefix."""
    return check_all(proc, defs)[2]


def check_typesym_syntactic(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """Sufficient syntactic condition for full symmetry in t: no t constants
    anywhere in a term's data, and no selections from proper subsets of t
    outside the alphabets of indexed parallel compositions."""
    return check_all(proc, defs)[3]


def check_no_mixed_inputs(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """No construct combines a nondeterministic selection over t with a
    deterministic input of any type."""
    return check_all(proc, defs)[4]


# ---------------------------------------------------------------------------
# Equality-test condition (sampled)

def _scoped_conditionals(term: ProcessTerm, defs: Definitions, where: str
                         ) -> Iterator[tuple[If, dict, str]]:
    """(node, scope, where) for each conditional choice on t reached from
    term, in pre-order, each identifier unfolded where it is first met:
    scope types the names of its equation's parameters and binders."""
    seen = set()
    stack = [(term, where, {})]
    while stack:
        node, where, scope = stack.pop()
        if isinstance(node, If) and isinstance(node.guard, (Condition, MixedGuard)):
            yield node, scope, where
        elif isinstance(node, Ident) and node.name not in seen:
            eq = defs.equations.get(node.name)
            if eq is not None:
                seen.add(node.name)
                stack.append((eq.body, node.name, dict(zip(eq.params, eq.param_types))))
        bound = binders(node)
        if bound:
            scope = {**scope, **{name: binder_type(ty) for name, ty in bound.items()}}
        stack.extend((sub, where, scope) for sub in reversed(subterms(node)))


def revposconjeqt_evidence(proc: ProcRef, defs: Definitions, model: str,
                           sizes=(2, 3),
                           max_states: int = DEFAULT_MAX_STATES) -> ConditionReport:
    """Reversed positive-conjunction-of-equality-tests condition.

    The syntactic half requires every conditional choice on t to test a
    positive conjunction of equalities.  The semantic half (the negative
    branch is refined by the positive branch, for all values of the free
    variables) is undecidable in general, so it is sampled at the requested
    instantiation sizes, every build over one engine; the verdict is
    therefore at most 'evidence'.
    """
    from .analysis import refines_failures, refines_traces
    from .std_semantics import Engine, build_lts

    term, name, _ = _root(proc, defs)
    rep_name = f"RevPosConjEqT-{'T' if model == 'traces' else 'F'}"
    seq = check_seq(proc, defs)
    if not seq.ok():
        return ConditionReport(rep_name, "fail", [Finding(
            "pre", "process is not in the Seq fragment", name)])
    findings = []
    # a named process is reached as a call is, so its parameters are typed
    conditionals = list(_scoped_conditionals(
        Ident(proc) if isinstance(proc, str) else term, defs, name))
    if not conditionals:
        return ConditionReport(rep_name, "evidence", [],
                               ["no conditional choices on t: holds vacuously"])
    check = refines_traces if model == "traces" else refines_failures
    engine = Engine(defs)

    def branch_lts(side, branch, binding, n):
        with building(f"the {side} equality-test branch of {name} at #T={n}"):
            return build_lts(defs, substitute(branch, binding), n, max_states, engine=engine)

    checked = 0
    for node, scope, where in conditionals:
        guard = node.guard
        if isinstance(guard, MixedGuard):
            findings.append(Finding("syntactic", "guard mixes t with other types", where))
            continue
        if guard.negated:
            findings.append(Finding(
                "syntactic", "condition is not a positive conjunction of "
                "equality tests", where))
            continue
        fv = sorted(free_vars(node))
        unknown = [v for v in fv if scope.get(v) != "t" and scope.get(v) not in defs.datatypes]
        findings += [Finding("semantic", f"cannot enumerate values of variable {v!r}", where)
                     for v in unknown]
        if unknown:
            continue
        for n in sizes:
            tvals = [TVal(i) for i in range(n)]
            spaces = [[(v, x) for x in (tvals if scope[v] == "t"
                                        else defs.datatypes[scope[v]])] for v in fv]
            for assignment in itertools.product(*spaces):
                binding = dict(assignment)
                lhs, rhs = (branch_lts(side, branch, binding, n) for side, branch
                            in (("negative", node.els), ("positive", node.then)))
                checked += 1
                if not check(lhs, rhs).holds:
                    pretty = ", ".join(f"{k}={v}" for k, v in sorted(binding.items()))
                    findings.append(Finding(
                        "semantic", "negative branch is not refined by the "
                        f"positive branch at #T={n} under [{pretty}]", where))
                    return ConditionReport(rep_name, "fail", findings)
    if findings:
        return ConditionReport(rep_name, "fail", findings)
    return ConditionReport(rep_name, "evidence", [], [
        f"branch refinements verified for all valuations at sizes {{{','.join(map(str, sizes))}}} "
        f"({checked} checks); the property itself is undecidable"])
