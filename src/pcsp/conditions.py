"""Syntactic side-condition checkers on specification and implementation
processes: data independence, the sequential normality conditions, the
symmetry-in-t sufficient condition, the mixed-input restriction, and the
sampled equality-test refinement property.

Each checker walks the process syntax, unfolding identifiers at most once,
and reports violations clause by clause.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from .errors import SemanticsError
from .report import ConditionReport, Finding
from .syntax import (
    AlphaPar, Condition, Definitions, DOLLAR, ExtChoice, Hide, Ident,
    If, IntChoice, Interleave, MixedGuard, Prefix, ProcessTerm,
    QUERY, Rename, ReplAlphaPar, ReplExtChoice, ReplIntChoice, ReplInterleave,
    SharedPar, Sliding, TType, TVal, binder_type, binders, channels,
    classify_fields, free_vars, initial_spine, substitute, subterms, t_values,
    unfold_walk,
)

ProcRef = Union[str, ProcessTerm]


def _root(proc: ProcRef, defs: Definitions) -> tuple[ProcessTerm, str, set]:
    if isinstance(proc, str):
        eq = defs.equations.get(proc)
        if eq is None:
            raise SemanticsError(f"undefined process {proc!r}")
        return eq.body, proc, {proc}
    return proc, "<term>", set()


def _nonwhole_t_selections(node: ProcessTerm):
    """$ or ? fields (and replicated internal choice domains) that select from
    a set involving t other than the whole of t."""
    if isinstance(node, Prefix):
        for f in node.construct.fields:
            if f.sel in (DOLLAR, QUERY) and f.is_t() and not isinstance(f.ty, TType):
                yield f"{f.sel}{f.payload}:{f.ty}"
    elif isinstance(node, ReplIntChoice) and not isinstance(node.domain, TType):
        yield f"|~| {node.var}:{node.domain}"


# ---------------------------------------------------------------------------
# Data independence

def check_data_independence(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """Syntactic data independence in t: no t-indexed replication other than
    replicated internal choice over the whole of t, no t constants, and no
    selections from proper subsets of t."""
    term, name, seen = _root(proc, defs)
    findings = []
    for node, where in unfold_walk(term, defs, name, seen):
        if isinstance(node, (ReplInterleave, ReplAlphaPar, ReplExtChoice)):
            findings.append(Finding(
                "i", "replicated construct indexed over a set depending on t", where))
        elif isinstance(node, ReplIntChoice) and not isinstance(node.domain, TType):
            findings.append(Finding(
                "i", "replicated internal choice not over the whole of t", where))
        for v in t_values(node):
            findings.append(Finding("iii", f"constant {v} of type t", where))
        if isinstance(node, Prefix):
            for desc in _nonwhole_t_selections(node):
                findings.append(Finding(
                    "vi", f"selection {desc} from a set involving t", where))
    verdict = "fail" if findings else "pass"
    return ConditionReport("data-independence", verdict, findings)


# ---------------------------------------------------------------------------
# Seq

def _dollar_t_binders(term: ProcessTerm, defs: Definitions,
                      seen: Optional[set] = None) -> frozenset[str]:
    out = set()
    for node, _ in unfold_walk(term, defs, seen=seen):
        if isinstance(node, Prefix):
            for f in node.construct.fields:
                if f.sel == DOLLAR and f.is_t():
                    out.add(f.payload)
    return frozenset(out)


def check_seq(proc: ProcRef, defs: Definitions,
              di: Optional[ConditionReport] = None) -> ConditionReport:
    """The sequential-fragment condition on specifications.  di is the
    process's data-independence report, when the caller has it already."""
    term, name, seen = _root(proc, defs)
    findings = []
    if di is None:
        di = check_data_independence(proc, defs)
    for f in di.findings:
        findings.append(Finding("i", f"not data independent: ({f.clause}) {f.message}",
                                f.where))
    for node, where in unfold_walk(term, defs, name, seen):
        if isinstance(node, (Hide, Rename)):
            what = "hiding" if isinstance(node, Hide) else "renaming"
            findings.append(Finding("ii", f"contains {what}", where))
        elif isinstance(node, (AlphaPar, SharedPar, Interleave,
                               ReplAlphaPar, ReplInterleave)):
            findings.append(Finding("ii", "not sequential: "
                                    f"{type(node).__name__} operator", where))
        elif isinstance(node, (ReplIntChoice, ReplExtChoice)):
            kind = ("internal" if isinstance(node, ReplIntChoice) else "external")
            findings.append(Finding("iii", f"replicated {kind} choice", where))
        elif isinstance(node, If) and isinstance(node.guard, MixedGuard):
            findings.append(Finding(
                "iv", "guard mixes variables of type t with other types", where))
        elif isinstance(node, (ExtChoice, Sliding)):
            lb = _dollar_t_binders(node.left, defs)
            rb = _dollar_t_binders(node.right, defs)
            lf = free_vars(node.left)
            rf = free_vars(node.right)
            for clash in sorted((lb & rf) | (rb & lf)):
                findings.append(Finding(
                    "v", f"nondeterministic-selection variable {clash!r} of one "
                    "choice argument is free in the other", where))
            # selections of both arguments sharing a name cause the same
            # overwriting of stored values while the choice is unresolved
            for clash in sorted((lb & rb) - (lf | rf)):
                findings.append(Finding(
                    "v", f"nondeterministic-selection variable {clash!r} is "
                    "bound in both choice arguments", where))
        if isinstance(node, Prefix):
            alpha = node.construct
            bound_t = [f.payload for f in alpha.fields
                       if f.sel in (DOLLAR, QUERY) and f.is_t()]
            for var in bound_t:
                occurrences = sum(1 for f in alpha.fields if f.payload == var)
                if occurrences > 1:
                    findings.append(Finding(
                        "vi", f"input variable {var!r} of type t occurs "
                        f"{occurrences} times in one construct", where))
    verdict = "fail" if findings else "pass"
    return ConditionReport("Seq", verdict, findings)


# ---------------------------------------------------------------------------
# SeqNorm

def check_seqnorm(proc: ProcRef, defs: Definitions,
                  base: Optional[ConditionReport] = None) -> ConditionReport:
    """Seq plus normality: choice arguments use disjoint channel sets and have
    no conditional choice on t before a prefix.  base is the process's Seq
    report, when the caller has it already."""
    term, name, seen = _root(proc, defs)
    if base is None:
        base = check_seq(proc, defs)
    findings = [Finding("Seq", f"({f.clause}) {f.message}", f.where)
                for f in base.findings]
    if not base.findings:
        for node, where in unfold_walk(term, defs, name, seen):
            if isinstance(node, (ExtChoice, IntChoice, Sliding)):
                shared = channels(node.left, defs) & channels(node.right, defs)
                if shared:
                    findings.append(Finding(
                        "channels", "choice arguments share channel(s) "
                        + ", ".join(sorted(shared)), where))
                for side, sub in (("left", node.left), ("right", node.right)):
                    if any(isinstance(n, If) and isinstance(n.guard, (Condition, MixedGuard))
                           for n in initial_spine(sub, defs)):
                        findings.append(Finding(
                            "cond-before-prefix",
                            f"conditional choice on t before a prefix in the "
                            f"{side} argument of a choice", where))
    verdict = "fail" if findings else "pass"
    return ConditionReport("SeqNorm", verdict, findings)


# ---------------------------------------------------------------------------
# Type symmetry (syntactic sufficient condition)

def check_typesym_syntactic(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """Sufficient syntactic condition for full symmetry in t: no t constants
    anywhere in the data of a term (constructs, guards, arguments, event
    sets, renaming pairs and replicated operators' domains) and no
    selections from proper subsets of t (alphabets of an indexed parallel
    composition are exempt from the selection restriction)."""
    term, name, seen = _root(proc, defs)
    findings = []
    for node, where in unfold_walk(term, defs, name, seen):
        for v in t_values(node):
            findings.append(Finding("i", f"constant {v} of type t", where))
        for desc in _nonwhole_t_selections(node):
            findings.append(Finding(
                "iv", f"selection {desc} from a set involving t", where))
        if isinstance(node, (ReplInterleave, ReplExtChoice, ReplAlphaPar)) \
                and not isinstance(node.domain, TType):
            findings.append(Finding(
                "iv", "replicated operator indexed over a proper subset of t", where))
    verdict = "fail" if findings else "pass"
    return ConditionReport("TypeSym-syntactic", verdict, findings)


# ---------------------------------------------------------------------------
# Mixed inputs (the stable-failures threshold hypothesis)

def check_no_mixed_inputs(proc: ProcRef, defs: Definitions) -> ConditionReport:
    """No construct combines a nondeterministic selection over t with a
    deterministic input of any type."""
    term, name, seen = _root(proc, defs)
    findings = []
    for node, where in unfold_walk(term, defs, name, seen):
        if isinstance(node, Prefix):
            sets = classify_fields(node.construct)
            if sets.dollar_t and sets.query:
                findings.append(Finding(
                    "mixed", "construct on channel "
                    f"{node.construct.channel!r} combines a nondeterministic "
                    "selection over t with a deterministic input", where))
    verdict = "fail" if findings else "pass"
    return ConditionReport("no-mixed-inputs", verdict, findings)


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
                           sizes=(2, 3), max_states: int = 50_000) -> ConditionReport:
    """Reversed positive-conjunction-of-equality-tests condition.

    The syntactic half requires every conditional choice on t to test a
    positive conjunction of equalities.  The semantic half (the negative
    branch is refined by the positive branch, for all values of the free
    variables) is undecidable in general, so it is sampled at the requested
    instantiation sizes; the verdict is therefore at most 'evidence'.
    """
    from .analysis import refines_failures, refines_traces
    from .std_semantics import build_lts

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
    checked = 0
    for node, scope, where in conditionals:
        guard = node.guard
        if isinstance(guard, MixedGuard):
            findings.append(Finding("syntactic", "guard mixes t with other types",
                                    where))
            continue
        if guard.negated:
            findings.append(Finding(
                "syntactic", "condition is not a positive conjunction of "
                "equality tests", where))
            continue
        fv = sorted((free_vars(node.then) | free_vars(node.els)
                     | {s for a in guard.atoms for s in a if isinstance(s, str)}))
        unknown = [v for v in fv if scope.get(v) != "t" and scope.get(v) not in defs.datatypes]
        for v in unknown:
            findings.append(Finding(
                "semantic", f"cannot enumerate values of variable {v!r}", where))
        if unknown:
            continue
        for n in sizes:
            tvals = [TVal(i) for i in range(n)]
            spaces = [[(v, x) for x in (tvals if scope[v] == "t"
                                        else defs.datatypes[scope[v]])] for v in fv]
            for assignment in itertools.product(*spaces):
                binding = dict(assignment)
                then_p = substitute(node.then, binding)
                els_p = substitute(node.els, binding)
                lhs = build_lts(defs, els_p, n, max_states)
                rhs = build_lts(defs, then_p, n, max_states)
                verdict = check(lhs, rhs)
                checked += 1
                if not verdict.holds:
                    pretty = ", ".join(f"{k}={v}" for k, v in sorted(binding.items()))
                    findings.append(Finding(
                        "semantic", "negative branch is not refined by the "
                        f"positive branch at #T={n} under [{pretty}]", where))
                    return ConditionReport(rep_name, "fail", findings)
    if findings:
        return ConditionReport(rep_name, "fail", findings)
    sizes_str = ",".join(str(n) for n in sizes)
    return ConditionReport(
        rep_name, "evidence", [],
        [f"branch refinements verified for all valuations at sizes {{{sizes_str}}} "
         f"({checked} checks); the property itself is undecidable"])


def check_all(proc: ProcRef, defs: Definitions) -> list[ConditionReport]:
    """The syntactic checker battery for one process; each walk runs once."""
    di = check_data_independence(proc, defs)
    seq = check_seq(proc, defs, di)
    return [
        di,
        seq,
        check_seqnorm(proc, defs, seq),
        check_typesym_syntactic(proc, defs),
        check_no_mixed_inputs(proc, defs),
    ]
