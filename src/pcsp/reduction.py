"""Type reduction: collapsing functions, the two threshold computations
derived from the specification's symbolic transition system, and the
end-to-end parameterised-verification pipeline built on them.

A B-collapsing function is the identity below B and maps everything else to
B; the reduced type is {0..B}.  The traces threshold is the largest number
of output positions of type t jointly reachable on non-t-equivalent
symbolic traces; the failures threshold additionally counts, per stable
frontier, distinct output variables and (with multiplicity) deterministic
t-inputs, maximised over consistent valuations of the guarding conditions.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from .analysis import Verdict, divergence_free, refines
from .conditions import check_all, check_typesym_syntactic, revposconjeqt_evidence
from .errors import BoundExceeded, SemanticsError, UsageError, building
from .lts import Event, Lts, TAU, rename_lts, tau_closure
from .record import field, record
from .report import ConditionReport
from .ssos import Vis, build_sslts, nont_event_key
from .std_semantics import DEFAULT_MAX_STATES, Engine, build_lts
from .syntax import Definitions, Guard, TVal, Value, classify_fields


# ---------------------------------------------------------------------------
# Collapsing functions

@record(frozen=True)
class CollapsingFn:
    """phi(v) = v for v < B, phi(v) = B otherwise; fixes non-t values."""

    bound: int

    def value(self, v: Value) -> Value:
        if isinstance(v, TVal):
            return TVal(min(v.index, self.bound))
        return v

    def event(self, e: Event) -> Event:
        return Event(e.channel, tuple(self.value(v) for v in e.values))

    def lts(self, l: Lts) -> Lts:
        return rename_lts(l, self.event)


# ---------------------------------------------------------------------------
# Traces threshold

@record
class TraceWitness:
    trace_labels: tuple          # representative non-t class (visible labels)
    events: tuple                # contributing visible symbolic events
    positions: frozenset[int]    # union of the t-output index sets

    def render(self) -> str:
        from .pretty import fmt_construct
        tr = ", ".join(map(str, self.trace_labels))
        evs = " / ".join(fmt_construct(e) for e in self.events)
        pos = ",".join(str(i) for i in sorted(self.positions))
        return f"after <{tr}>: events {evs} with output positions {{{pos}}}"


@record
class ThresholdReport:
    traces: int
    failures: Optional[int] = None
    traces_witness: Optional[TraceWitness] = None
    failures_witness: Optional[str] = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"traces": self.traces}
        if self.failures is not None:
            out["failures"] = self.failures
        if self.traces_witness:
            out["traces_witness"] = self.traces_witness.render()
        if self.failures_witness:
            out["failures_witness"] = self.failures_witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _tau_or_cond(lab) -> bool:
    return lab is TAU or lab.__class__ is Guard


MAX_MACRO_STATES = 100_000  # explored by the traces threshold's subset construction


def thresh_traces(s: Lts) -> tuple[int, Optional[TraceWitness]]:
    """Maximum cardinality of the union of t-output index sets over classes
    of non-t-equivalent symbolic traces, computed by determinising the
    transition system over the non-t projection of its visible labels
    (conditional and internal labels collapse into the closure)."""
    root = tau_closure(s.edges, s.root, _tau_or_cond)
    best = 0
    witness = None
    seen = {root}
    queue = deque([(root, ())])
    while queue:
        if len(seen) > MAX_MACRO_STATES:
            raise BoundExceeded("subset-construction state", MAX_MACRO_STATES,
                                f"{len(queue)} macro-states pending")
        macro, rep = queue.popleft()
        groups: dict = {}
        for q in sorted(macro):
            for lab, tgt, _ in s.edges[q]:
                if not isinstance(lab, Vis):
                    continue
                key = nont_event_key(lab.event)
                entry = groups.setdefault(key, ([], set(), set()))
                entry[0].append(lab.event)
                entry[1].update(classify_fields(lab.event).bang_t)
                entry[2].add(tgt)
        for key in sorted(groups):
            events, positions, targets = groups[key]
            if len(positions) > best:
                best = len(positions)
                witness = TraceWitness(rep, tuple(events), frozenset(positions))
            nxt = tau_closure(s.edges, targets, _tau_or_cond)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, rep + (Vis(events[0]),)))
    return best, witness


# ---------------------------------------------------------------------------
# Failures threshold

def _atom_key(atom):
    l, r = atom
    a = l if isinstance(l, str) else f"#{l.index}"
    b = r if isinstance(r, str) else f"#{r.index}"
    return (a, b) if a <= b else (b, a)


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _consistent(atoms, assignment) -> tuple[bool, int]:
    """Whether the truth assignment to equality atoms is satisfiable over an
    unbounded value domain, plus the number of equivalence classes involved
    (a bound on the instantiation size needed to realise it)."""
    uf = _UnionFind()
    terms = set()
    for (l, r), truth in zip(atoms, assignment):
        terms.add(l)
        terms.add(r)
        if truth:
            uf.union(l, r)
    classes: dict = {}
    for t in terms:
        classes.setdefault(uf.find(t), []).append(t)
    for members in classes.values():
        tvals = {m for m in members if isinstance(m, TVal)}
        if len(tvals) > 1:
            return False, 0
    for (l, r), truth in zip(atoms, assignment):
        if not truth and uf.find(l) == uf.find(r):
            return False, 0
    return True, len(classes)


def _frontiers(s: Lts, start: int) -> set:
    """The (set of conditions met, visible symbolic event) pairs reachable
    from the state through internal and conditional labels only.  Each
    (state, conditions met) pair is expanded once; on a cycle that adds a
    pair with more conditions than a path's, which enables no event the
    path's pair does not."""
    found = set()
    seen = {(start, frozenset())}
    stack = list(seen)
    while stack:
        state, conds = stack.pop()
        for lab, tgt, _ in s.edges[state]:
            if lab is TAU or lab.__class__ is Guard:
                nxt = (tgt, conds if lab is TAU else conds | {lab})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            else:
                found.add((conds, lab.event))
    return found


def _cond_value(cond: Guard, atom_truth: dict) -> bool:
    return all(atom_truth[_atom_key(a)] for a in cond.t_atoms) != cond.negated


def thresh_failures(s: Lts, t_best: int) -> tuple[int, Optional[str], list[str]]:
    """The stable-failures threshold: the traces threshold t_best (from
    thresh_traces) joined with, per state reachable at the start or right
    after a visible label and per consistent valuation of the guarding
    conditions, the count of distinct t-output variables plus t-input
    positions (with multiplicity) over the enabled frontier events.

    Returns (value, witness description, notes)."""
    notes = []
    best = t_best
    witness = None
    max_classes = 0
    candidates = {s.root} | {tgt for row in s.edges for lab, tgt, _ in row
                             if isinstance(lab, Vis)}
    for st in sorted(candidates):
        frontier = _frontiers(s, st)
        atoms = sorted({_atom_key(a) for conds, _ in frontier
                        for c in conds for a in c.t_atoms})
        if len(atoms) > 20:
            raise BoundExceeded("condition-valuation", 2 ** 20,
                                f"{len(atoms)} distinct equality atoms")
        for assignment in itertools.product((True, False), repeat=len(atoms)):
            ok, classes = _consistent(atoms, assignment)
            if not ok:
                continue
            truth = dict(zip(atoms, assignment))
            enabled = {eps for conds, eps in frontier
                       if all(_cond_value(c, truth) for c in conds)}
            out_vars = set()
            q_count = 0
            for eps in enabled:
                sets = classify_fields(eps)
                for i in sets.bang_t:
                    payload = eps.fields[i - 1].payload
                    if isinstance(payload, str):
                        out_vars.add(payload)
                q_count += len(sets.query_t)
            value = len(out_vars) + q_count
            if value > best:
                best = value
                desc = ", ".join(sorted(out_vars)) or "-"
                witness = (f"state {st}: output variables {{{desc}}} plus "
                           f"{q_count} deterministic t-input(s)")
                max_classes = max(max_classes, classes)
    if max_classes > best + 1:
        notes.append(
            f"realising the maximising condition valuation needs #T >= "
            f"{max_classes}, larger than the threshold bound {best + 1}")
    return best, witness, notes


def compute_thresholds(defs: Definitions, spec: str, model: str,
                       max_states: int = DEFAULT_MAX_STATES) -> ThresholdReport:
    """Threshold(s) of a specification for the requested model.  The failures
    threshold requires the specification to be SeqNorm with no construct
    mixing t-selections and inputs."""
    with building(f"the symbolic LTS of {spec}"):
        s = build_sslts(defs, spec, max_states)
    t_val, t_wit = thresh_traces(s)
    report = ThresholdReport(traces=t_val, traces_witness=t_wit)
    if model == "failures":
        _, _, norm, _, mixed = check_all(spec, defs)
        if not norm.ok():
            raise SemanticsError(
                "failures threshold requires a SeqNorm specification")
        if not mixed.ok():
            raise SemanticsError(
                "failures threshold undefined: a construct combines a "
                "nondeterministic t-selection with a deterministic input")
        f_val, f_wit, notes = thresh_failures(s, t_val)
        report.failures = f_val
        report.failures_witness = f_wit
        report.notes += notes
        report.notes.append(
            "frontier states reachable through conditional labels from the "
            "root are included (safe over-approximation)")
    return report


# ---------------------------------------------------------------------------
# End-to-end verification

@record
class SizeResult:
    """One size's check; error, in place of a verdict, names the build that
    stopped it."""

    n: int
    lhs: str
    rhs: str
    method: str  # 'theorem' | 'direct'
    verdict: Optional[Verdict] = None
    error: Optional[str] = None

    def holds(self) -> bool:
        return self.error is None and self.verdict.holds

    def to_dict(self) -> dict:
        out = {"n": self.n, "lhs": self.lhs, "rhs": self.rhs,
               "method": self.method}
        if self.error is not None:
            out["error"] = self.error
            return out
        out.update(self.verdict.to_dict())
        if not self.verdict.holds:
            out["counterexample"] = self.verdict.counterexample_str()
        return out


@record
class PmcpVerdict:
    mode: str                 # 'via-abstraction' | 'direct-per-size'
    model: str
    bound: Optional[int]      # B, when the theorem applies
    thresholds: Optional[ThresholdReport]
    conditions: list[ConditionReport]
    sizes: list[SizeResult]
    premises: list[SizeResult]
    conclusion: str
    caveats: list[str]

    def holds(self) -> bool:
        return (all(r.holds() for r in self.sizes)
                and all(r.holds() for r in self.premises)
                and all(c.ok() for c in self.conditions))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "model": self.model,
            "B": self.bound,
            "thresholds": self.thresholds.to_dict() if self.thresholds else None,
            "conditions": [c.to_dict() for c in self.conditions],
            "sizes": [r.to_dict() for r in self.sizes],
            "premises": [r.to_dict() for r in self.premises],
            "conclusion": self.conclusion,
            "caveats": list(self.caveats),
        }


def verify_pmcp(defs: Definitions, spec: str, impl: str, model: str,
                sizes, *, abst: Optional[str] = None,
                valid_from: Optional[int] = None,
                premise_sizes=(), eqt_sizes=(2, 3),
                assume_typesym: bool = False,
                max_states: int = DEFAULT_MAX_STATES) -> PmcpVerdict:
    """Run the reduction pipeline: check the theorem hypotheses, compute the
    threshold, and either derive a universally quantified conclusion through
    a user-supplied abstraction or discharge the requested sizes one by one.

    Any failed hypothesis downgrades the verdict to direct per-size checks.
    """
    caveats = []
    _, _, seqnorm, _, mixed = check_all(spec, defs)
    conditions = [seqnorm]
    ok = seqnorm.ok()
    if ok:
        eqt = revposconjeqt_evidence(spec, defs, model, eqt_sizes, max_states)
        conditions.append(eqt)
        ok = eqt.verdict != "fail"
        if ok:
            caveats.append(
                "the equality-test hypothesis is evidence-only "
                f"(sampled at sizes {{{','.join(map(str, eqt_sizes))}}})")

    if model == "failures":
        conditions.append(mixed)
        ok = ok and mixed.ok()

    typesym = check_typesym_syntactic(impl, defs)
    conditions.append(typesym)
    if not typesym.ok() and assume_typesym:
        caveats.append(
            "implementation symmetry in t is user-asserted (the "
            "syntactic sufficient condition fails)")
    ok = ok and (typesym.ok() or assume_typesym)

    thresholds = bound = None
    if ok:
        try:
            thresholds = compute_thresholds(defs, spec, model, max_states)
            bound = (thresholds.traces if model == "traces"
                     else thresholds.failures)
        except SemanticsError as exc:
            caveats.append(f"threshold computation failed: {exc}")
            ok = False

    size_list = sorted(set(sizes))
    builds: dict[tuple[str, int, Optional[int]], Lts] = {}
    engine = Engine(defs)

    def lts_of(proc: str, n: int, collapsed: bool = False) -> Lts:
        # The specification is needed at one size by several steps.  A
        # build that phi collapses is explored modulo the permutations of
        # {B..n-1}, which phi cannot tell apart, when Impl is syntactically
        # symmetric in t; it is keyed apart from the full build, and its
        # phi-image is returned.  Every build shares one engine, whose
        # positions and leaf classes do not depend on the size.  An error
        # names the build it stopped.
        sym = bound if collapsed and typesym.ok() else None
        got = builds.get((proc, n, sym))
        if got is None:
            with building(f"{proc} at #T={n}"):
                got = build_lts(defs, proc, n, max_states, symmetric_from=sym,
                                unfold_calls=False, engine=engine)
            builds[(proc, n, sym)] = got
        return CollapsingFn(bound).lts(got) if collapsed else got

    def built(row: SizeResult, proc: str, collapsed: bool = False) -> Optional[Lts]:
        # a build that fails or hits the state bound fails its size's row
        # only: the other sizes are still decided
        try:
            return lts_of(proc, row.n, collapsed)
        except (SemanticsError, BoundExceeded) as exc:
            row.error = str(exc)

    def decide(row: SizeResult, lhs: Lts, collapsed: bool = False) -> SizeResult:
        # refine Impl at the row's size, collapsed by phi or not, against lhs
        rhs = built(row, impl, collapsed)
        if rhs is not None:
            row.verdict = refines(lhs, rhs, model)
        return row

    def direct(n: int) -> SizeResult:
        row = SizeResult(n, f"{spec}({{0..{n - 1}}})", f"{impl}({{0..{n - 1}}})",
                         "direct")
        lhs = built(row, spec)
        if lhs is not None and model == "failures" and not divergence_free(lhs):
            raise SemanticsError(
                f"specification {spec!r} diverges at #T={n}: stable-failures "
                "refinement requires a divergence-free specification")
        return row if lhs is None else decide(row, lhs)

    def reduced(n: int, proc: str, lhs: Lts, method: str) -> SizeResult:
        # phi(Impl(T_n)) against proc's LTS lhs at the reduced type {0..B}
        return decide(SizeResult(n, f"{proc}({{0..{bound}}})",
                                 f"phi({impl}({{0..{n - 1}}}))", method), lhs, True)

    if ok:
        hat = bound + 1  # size of the reduced type {0..B}
        spec_hat = lts_of(spec, hat)
        if model == "failures":
            for n in sorted(set(size_list + [hat])):
                if not divergence_free(lts_of(spec, n)):
                    caveats.append(f"specification diverges at #T={n}")
                    ok = False
            caveats.append(
                "divergence-freedom of the specification checked at the "
                "requested sizes only")
    if not ok:
        return PmcpVerdict("direct-per-size", model, bound, thresholds, conditions,
                           [direct(n) for n in size_list], [],
                           "hypothesis failure: per-size direct results only",
                           caveats)

    op = "[T=" if model == "traces" else "[F="
    if abst is not None:
        if valid_from is None:
            raise UsageError("via-abstraction mode needs the bound from which "
                             "the abstraction premise holds (valid_from)")
        abst_hat = lts_of(abst, hat)
        premises = [SizeResult(hat, f"{spec}({{0..{bound}}})", f"{abst}({{0..{bound}}})",
                               "abstraction", refines(spec_hat, abst_hat, model))]
        results_bound = max(valid_from, hat)
        caveats.append(
            f"the premise {abst}({{0..{bound}}}) {op} phi({impl}(T)) for "
            f"#T >= {valid_from} is taken on assertion from the abstraction "
            "method")
        if premise_sizes and model == "failures" and not divergence_free(abst_hat):
            # each sampled premise takes the abstraction as its specification
            raise SemanticsError(
                f"abstraction {abst!r} diverges at #T={hat}: stable-failures "
                "refinement requires a divergence-free specification")
        premises += [reduced(n, abst, abst_hat, "premise-sample") for n in premise_sizes]
        results = [direct(n) for n in size_list if n < results_bound]
        conclusion = (f"{spec}(T) {op} {impl}(T) for all instantiations with "
                      f"#T >= {results_bound}" if all(p.holds() for p in premises)
                      else "abstraction check failed: no universal conclusion")
        return PmcpVerdict("via-abstraction", model, bound, thresholds,
                           conditions, results, premises, conclusion, caveats)

    results = [reduced(n, spec, spec_hat, "theorem") if n >= hat else direct(n)
               for n in size_list]
    derived = [r.n for r in results if r.method == "theorem" and r.holds()]
    conclusion = (f"{spec}(T_n) {op} {impl}(T_n) derived via the reduced type "
                  f"for n in {{{','.join(map(str, derived))}}}" if derived
                  else "per-size results")
    return PmcpVerdict("direct-per-size", model, bound, thresholds,
                       conditions, results, [], conclusion, caveats)
