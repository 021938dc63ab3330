"""Reference oracles and validators that the tests apply to the package's
output.  None of them is on a command's path: the extensional trace and
failure oracles decide membership by bounded search, the symbolic-trace
relation is the paper's definition read literally, and the validators check
lemmas that hold for every SeqNorm specification, so a violation is a bug
in the semantics that built the transition system.  The symbolic rules
and the selection-to-output rewrite on whole terms are those that ssos and
cose apply node by node to their state graphs.  build_unshared is the
breadth-first loop of lts.build before states that move alike shared one
edge row: it computes every state's row.  The syntactic checkers at
the end are the five walks that ``conditions.check_all`` replaced, each
re-walking both operands of every binary choice.  tokenize is the
tokenizer that tried every symbol with ``startswith`` at each position,
before the parser's one compiled pattern.  frontiers_by_paths is the
failures threshold's frontier walk before it expanded each (state,
conditions met) pair once.  observation_holds evaluates the formula by
which strong_bisim tells two states apart."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

from pcsp.cose import eval_condition, insts, match
from pcsp.errors import BoundExceeded, Diagnostic, ParseError, SemanticsError
from pcsp.lts import Event, Lts, TAU, _edge_row, label_key, tau_closure, terms_bounded
from pcsp.parser import _SYMBOLS
from pcsp.pretty import fmt_condition, fmt_term
from pcsp.report import ConditionReport, Finding
from pcsp.ssos import Cond, Vis, sym_label_key
from pcsp.std_semantics import _rename_map, eval_event_set, eval_guard
from pcsp.syntax import (
    AlphaPar, Atom, Condition, Definitions, DOLLAR, ExtChoice, Hide, Ident, If,
    IntChoice, Interleave, KEEPING, MixedGuard, Prefix, ProcessTerm, QUERY, Rename,
    ReplAlphaPar, ReplExtChoice, ReplIntChoice, ReplInterleave, SharedPar,
    Sliding, Stop, TType, TVal, canonicalise, classify_fields, comms_nont,
    construct_binding, eval_scalar, free_vars, replace_selections, selections, substitute,
    subterms, t_values, unfold_walk, with_subterms,
)


# ---------------------------------------------------------------------------
# Traces and stable failures of a concrete LTS

def traces_upto(lts: Lts, depth: int) -> set[tuple[Event, ...]]:
    """All visible traces of length <= depth (finite, by bounded search)."""
    out = {()}
    frontier = {(): tau_closure(lts.edges, lts.root)}
    for _ in range(depth):
        nxt = {}
        for tr, closure in frontier.items():
            for s in closure:
                for lab, tgt, _ in lts.edges[s]:
                    if lab is not TAU:
                        nxt.setdefault(tr + (lab,), set()).add(tgt)
        frontier = {tr: tau_closure(lts.edges, ss) for tr, ss in nxt.items()}
        out.update(frontier)
    return out


def states_after(lts: Lts, trace) -> frozenset[int]:
    """τ-closed set of states reachable by the given visible trace."""
    current = tau_closure(lts.edges, lts.root)
    for e in trace:
        nxt = {tgt for s in current for lab, tgt, _ in lts.edges[s] if lab == e}
        if not nxt:
            return frozenset()
        current = tau_closure(lts.edges, nxt)
    return current


def has_trace(lts: Lts, trace) -> bool:
    return bool(states_after(lts, trace)) or not trace


def initials_after(lts: Lts, trace) -> frozenset[Event]:
    """Events available immediately after the trace."""
    return frozenset(e for s in states_after(lts, trace) for e in lts.initials(s))


def acceptances_after(lts: Lts, trace) -> frozenset[frozenset[Event]]:
    """Initial sets of the stable states reachable after the trace."""
    return frozenset(lts.initials(s) for s in states_after(lts, trace)
                     if lts.is_stable(s))


def has_failure(lts: Lts, trace, refused) -> bool:
    """(trace, refused) is a stable failure: some stable state after the
    trace accepts nothing in the refused set."""
    refused = frozenset(refused)
    return any(not (acc & refused) for acc in acceptances_after(lts, trace))


# ---------------------------------------------------------------------------
# The observations strong_bisim prints to tell two states apart

def observation_holds(formula: str, lts: Lts, state: int) -> bool:
    """Whether the Hennessy-Milner observation formula, as strong_bisim
    prints it, holds at state of lts.  ``<l>(φ)`` holds where some l-step
    leads to a state at which φ holds, ``not``, ``and`` and ``true`` are as
    usual, and ``tau`` is an ordinary label."""
    pos = 0

    def take(text):
        nonlocal pos
        assert formula.startswith(text, pos), (formula, pos, text)
        pos += len(text)

    def conjunction():
        parts = [literal()]
        while formula.startswith(" and ", pos):
            take(" and ")
            parts.append(literal())
        return ("and", parts)

    def literal():
        nonlocal pos
        if formula.startswith("true", pos):
            take("true")
            return ("true",)
        if formula.startswith("not ", pos):
            take("not ")
            return ("not", literal())
        take("<")
        end = formula.index(">", pos)
        label, pos = formula[pos:end], end + 1
        take("(")
        inner = conjunction()
        take(")")
        return ("can", label, inner)

    def holds(f, s):
        if f[0] == "true":
            return True
        if f[0] == "not":
            return not holds(f[1], s)
        if f[0] == "and":
            return all(holds(g, s) for g in f[1])
        return any(("tau" if lab is TAU else str(lab)) == f[1] and holds(f[2], t)
                   for lab, t, _ in lts.edges[s])

    tree = literal()
    assert pos == len(formula), (formula, pos)
    return holds(tree, state)


# ---------------------------------------------------------------------------
# The breadth-first build, every state's row computed

def build_unshared(root_payload, root_key, successors: Callable, *,
                   alphabet: frozenset[Event], max_states: int, describe: Callable[[object], str],
                   order: Callable = label_key, mover=None) -> Lts:
    """lts.build without its movers (mover is accepted and ignored):
    successors runs on every state, and every row is its own object."""
    states = [root_payload]
    index = {root_key: 0}
    edges = []
    frontier = 0
    with terms_bounded():
        while frontier < len(states):
            out = []
            succ = sorted([(order(s[0]), s) for s in successors(states[frontier])],
                          key=itemgetter(0))
            for k, (label, uid, next_payload, next_key) in succ:
                tgt = index.get(next_key)
                if tgt is None:
                    if len(states) >= max_states:
                        raise BoundExceeded("state", max_states, describe(next_payload))
                    tgt = len(states)
                    index[next_key] = tgt
                    states.append(next_payload)
                out.append((k, (label, tgt, uid)))
            edges.append(_edge_row(out))
            frontier += 1
    return Lts(0, states, edges, alphabet)


# ---------------------------------------------------------------------------
# Symbolic traces and the ternary relation to concrete traces

def symbolic_traces(s: Lts, maxlen: int) -> Iterator[tuple]:
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


def generates(sigma, env: dict, trace, tvalues) -> bool:
    """The least ternary relation between a symbolic trace, an environment
    and a concrete trace: τ labels are skipped, a conditional label requires
    its condition to hold, and a visible symbolic label consumes one concrete
    event it instantiates, extending the environment."""
    if not sigma:
        return not trace
    head, rest = sigma[0], sigma[1:]
    if head is TAU:
        return generates(rest, env, trace, tvalues)
    if isinstance(head, Cond):
        return (eval_condition(head.condition, env)
                and generates(rest, env, trace, tvalues))
    eps = head.event if isinstance(head, Vis) else head
    if not trace or trace[0] not in insts(eps, env, tvalues):
        return False
    return generates(rest, {**env, **match(eps, trace[0])}, trace[1:], tvalues)


def generated_traces(sigma, env: dict, tvalues) -> Iterator[tuple]:
    """All concrete traces the symbolic trace generates under the given
    initial environment."""
    if not sigma:
        yield ()
        return
    head, rest = sigma[0], sigma[1:]
    if head is TAU:
        yield from generated_traces(rest, env, tvalues)
        return
    if isinstance(head, Cond):
        if eval_condition(head.condition, env):
            yield from generated_traces(rest, env, tvalues)
        return
    eps = head.event if isinstance(head, Vis) else head
    for event in insts(eps, env, tvalues):
        for tail in generated_traces(rest, {**env, **match(eps, event)}, tvalues):
            yield (event,) + tail


# ---------------------------------------------------------------------------
# Regularity of the semi-symbolic LTS of a SeqNorm process

def check_unique_nontau_targets(s: Lts) -> list[str]:
    """The SSLTS lemma that from any state a given visible or conditional
    label reachable through τ-prefixes leads to a unique target state."""
    problems = []
    for st in range(s.n_states()):
        seen: dict = {}
        for q in sorted(tau_closure(s.edges, st)):
            for lab, tgt, _ in s.edges[q]:
                if lab is TAU:
                    continue
                k = sym_label_key(lab)
                if k in seen and seen[k] != tgt:
                    problems.append(
                        f"state {st}: label {lab} reaches both "
                        f"states {seen[k]} and {tgt}")
                seen[k] = tgt
    return problems


def check_lonely_conditionals(s: Lts) -> list[str]:
    """The SSLTS lemma that conditional choices are lonely: if a conditional
    edge is τ-reachable from a state, every non-τ edge τ-reachable from it
    is that condition or its negation."""
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
                    f"state {st}: label {lab} alongside "
                    f"conditional {fmt_condition(base)}")
    return problems


def check_vis_label_shape(s: Lts) -> list[str]:
    """The shape of visible symbolic events: non-t selections and inputs are
    resolved to outputs during construction, so no label carries one."""
    problems = []
    for st in range(s.n_states()):
        for lab, _, _ in s.edges[st]:
            if isinstance(lab, Vis):
                sets = classify_fields(lab.event)
                if sets.dollar_nont or sets.query_nont:
                    problems.append(f"state {st}: label {lab} has non-t inputs")
    return problems


# ---------------------------------------------------------------------------
# Regularity of the configuration LTS (COSE) of a SeqNorm process

def _macro_states(lts: Lts):
    """The determinisation of the LTS: yields each set of states reached by
    a visible trace (before its τ-closure) with, per visible label leaving
    its τ-closure, the set of targets and the set of construct uids."""
    start = frozenset((lts.root,))
    seen = {start}
    queue = [start]
    while queue:
        macro = queue.pop()
        succ: dict = {}
        for s in tau_closure(lts.edges, macro):
            for lab, tgt, uid in lts.edges[s]:
                if lab is not TAU:
                    tgts, uids = succ.setdefault(lab, (set(), set()))
                    tgts.add(tgt)
                    uids.add(uid)
        yield macro, succ
        for tgts, _ in succ.values():
            nxt = frozenset(tgts)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def check_environment_uniqueness(lts: Lts) -> list[str]:
    """The environment-uniqueness lemma: after any visible trace not ending
    in τ, exactly one configuration is reachable (checked over the
    determinisation of the configuration LTS, whose macro-states each
    correspond to at least one trace)."""
    return [f"configurations {{{', '.join(map(str, sorted(macro)))}}} "
            "reachable by one trace"
            for macro, _ in _macro_states(lts) if len(macro) != 1]


def check_unique_matching_construct(lts: Lts) -> list[str]:
    """The unique-matching-construct lemma: each (trace, event) pair is
    produced by a unique construct, checked by comparing the source
    identities on same-labelled edges reachable after a common trace."""
    return [f"event {lab} arises from {len(uids)} constructs after a common trace"
            for _, succ in _macro_states(lts)
            for lab, (_, uids) in succ.items() if len(uids) > 1]


def _config_key(cfg) -> ProcessTerm:
    """A configuration's canonical form, which does not depend on the size:
    its term with its environment substituted, bound names canonical."""
    return canonicalise(cfg.term, dict(cfg.env))[0]


def check_monotonicity(small: Lts, large: Lts) -> list[str]:
    """The monotonicity lemma in the size of t: every transition available
    at a sub-instantiation is available at the larger one, with matching
    source and target configurations (matched by their canonical forms)."""
    problems = []
    small_keys = [_config_key(cfg) for cfg in small.states]
    large_keys = [_config_key(cfg) for cfg in large.states]
    large_index = {key: idx for idx, key in enumerate(large_keys)}
    for idx, key in enumerate(small_keys):
        big = large_index.get(key)
        if big is None:
            problems.append(f"configuration {small.states[idx].describe()} "
                            "unreachable at the larger instantiation")
            continue
        small_edges = {(lab, small_keys[tgt]) for lab, tgt, _ in small.edges[idx]}
        large_edges = {(lab, large_keys[tgt]) for lab, tgt, _ in large.edges[big]}
        for lab, _ in sorted(small_edges - large_edges, key=lambda e: str(e[0])):
            problems.append(f"transition {lab} from "
                            f"{small.states[idx].describe()} missing at the "
                            "larger instantiation")
    return problems


# ---------------------------------------------------------------------------
# The symbolic rules and the selection-to-output rewrite on whole terms

def unfold_ident(term: Ident, defs: Definitions):
    """The body a closed call unfolds to."""
    if free_vars(term):  # every variable left in a symbolic state is of type t
        raise SemanticsError(f"cannot unfold {fmt_term(term)}: the symbolic semantics "
                             "cannot yet pass a symbolic t-variable as an argument")
    eq = defs.equations.get(term.name)
    if eq is None:
        raise SemanticsError(f"undefined process {term.name!r}")
    if len(term.args) != len(eq.params):
        raise SemanticsError(
            f"{term.name!r} expects {len(eq.params)} argument(s), got {len(term.args)}")
    return substitute(eq.body, {p: a if isinstance(a, (TVal, Atom)) else eval_scalar(a)
                                for p, a in zip(eq.params, term.args)})


def _sym_prefix(term: Prefix, defs: Definitions) -> list:
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


def _sym_choice(term, defs: Definitions) -> list:
    """τ and conditional moves of the operands a choice keeps (KEEPING)
    keep it around their targets, visible moves resolve it; [> also slides."""
    out = [(TAU, None, term.right)] if term.__class__ is Sliding else []
    subs = subterms(term)
    for i in KEEPING[term.__class__]:
        for lab, uid, nxt in sym_successors(subs[i], defs):
            if lab is TAU or lab.__class__ is Cond:
                nxt = with_subterms(term, subs[:i] + (nxt,) + subs[i + 1:])
            out.append((lab, uid, nxt))
    return out


def _sym_if(term: If, defs: Definitions) -> list:
    """A t-condition moves by it, or by its negation, to the branch it
    selects; any other guard is evaluated, and the branch it takes moves."""
    g = term.guard
    if isinstance(g, Condition):
        return [(Cond(g), None, term.then), (Cond(g.negate()), None, term.els)]
    if isinstance(g, MixedGuard):
        raise SemanticsError(
            "mixed t/non-t guard reached the symbolic semantics (Seq violation)")
    return sym_successors(term.then if eval_guard(g) else term.els, defs)


_SYM_RULES = {
    Stop: lambda term, defs: [],
    Prefix: _sym_prefix,
    ExtChoice: _sym_choice,
    Sliding: _sym_choice,
    IntChoice: lambda term, defs: [(TAU, None, term.left), (TAU, None, term.right)],
    If: _sym_if,
    Ident: lambda term, defs: [(TAU, None, unfold_ident(term, defs))],
}


def sym_successors(term: ProcessTerm, defs: Definitions) -> list:
    """Symbolic successor triples (label, construct_uid, target term)."""
    rule = _SYM_RULES.get(term.__class__)
    if rule is None:
        raise SemanticsError(
            f"{type(term).__name__} is outside the sequential fragment; "
            "the symbolic semantics is defined on Seq processes only")
    return rule(term, defs)


def replace_t_initials(term: ProcessTerm, uid: int) -> ProcessTerm:
    """Rewrite the t-selections of the construct with the given source
    identity into outputs, wherever that construct occurs as an initial
    (pre-τ) communication of the state: below the operands a choice keeps
    (syntax.KEEPING) and the branch a non-t conditional takes."""
    cls = term.__class__
    if cls is Prefix:
        return (Prefix(replace_selections(term.construct, "t"), term.cont)
                if term.construct.uid == uid else term)
    if cls is If:
        if isinstance(term.guard, (Condition, MixedGuard)):
            return term
        kept = (0,) if eval_guard(term.guard) else (1,)
    else:
        kept = KEEPING.get(cls)
        if kept is None:
            return term
    subs = list(subterms(term))
    for i in kept:
        subs[i] = replace_t_initials(subs[i], uid)
    return with_subterms(term, subs)


# ---------------------------------------------------------------------------
# The eager operator rules of the standard state graph

def _eager_interleave(graph, key, blank) -> list:
    # each operand moves alone: a binary node (op, l, r) and a vector
    # (op, P(0), ..., P(n-1)) alike
    out = []
    for j, c in enumerate(key[1:], 1):
        out.extend((lab, uid, graph.node(key[:j] + (t,) + key[j + 1:]))
                   for lab, uid, t in graph.successors(c))
    return out


def _eager_evset(graph, evset):
    return eval_event_set(evset, graph.engine.defs, graph.tvalues)


def _eager_hide(graph, key, blank: Hide) -> list:
    op, p = key
    hidden = _eager_evset(graph, blank.hidden)
    return [(TAU if lab is not TAU and lab in hidden else lab, uid,
             graph.node((op, t))) for lab, uid, t in graph.successors(p)]


def _eager_rename(graph, key, blank: Rename) -> list:
    op, p = key
    mapping = _rename_map(blank.pairs, graph.engine.defs, graph.tvalues)
    out = []
    for lab, uid, t in graph.successors(p):
        nxt = graph.node((op, t))
        if lab is TAU or lab not in mapping:
            out.append((lab, uid, nxt))
        else:
            out.extend((lab2, uid, nxt) for lab2 in mapping[lab])
    return out


def _by_label(succ) -> dict:
    """The targets of a successor list grouped by visible label, in order."""
    out: dict = {}
    for lab, _, t in succ:
        if lab is not TAU:
            out.setdefault(lab, []).append(t)
    return out


def _eager_alpha_par(graph, key, blank: AlphaPar) -> list:
    op, l, r = key
    la, ra = _eager_evset(graph, blank.left_alpha), _eager_evset(graph, blank.right_alpha)
    right = graph.successors(r)
    partners = _by_label(right)
    out = []
    for lab, uid, t in graph.successors(l):
        if lab is TAU:
            out.append((TAU, uid, graph.node((op, t, r))))
        elif lab in la:
            if lab in ra:
                out.extend((lab, None, graph.node((op, t, t2)))
                           for t2 in partners.get(lab, ()))
            else:
                out.append((lab, uid, graph.node((op, t, r))))
    for lab, uid, t in right:
        if lab is TAU or (lab in ra and lab not in la):
            out.append((lab, uid, graph.node((op, l, t))))
    return out


def _eager_shared_par(graph, key, blank: SharedPar) -> list:
    op, l, r = key
    shared = _eager_evset(graph, blank.shared)
    right = graph.successors(r)
    partners = _by_label(right)
    out = []
    for lab, uid, t in graph.successors(l):
        if lab is not TAU and lab in shared:
            out.extend((lab, None, graph.node((op, t, t2)))
                       for t2 in partners.get(lab, ()))
        else:
            out.append((lab, uid, graph.node((op, t, r))))
    for lab, uid, t in right:
        if lab is TAU or lab not in shared:
            out.append((lab, uid, graph.node((op, l, t))))
    return out


# blanked operator class -> rule(graph, node key, blank) -> successor triples
EAGER_RULES = {
    Interleave: _eager_interleave,
    Hide: _eager_hide,
    Rename: _eager_rename,
    AlphaPar: _eager_alpha_par,
    SharedPar: _eager_shared_par,
}


# ---------------------------------------------------------------------------
# Printing a whole file

def fmt_definitions(defs: Definitions) -> str:
    """The concrete syntax of a parsed file; it re-parses to an identical
    AST."""
    lines = []
    for name, sig in defs.channels.items():
        if sig:
            lines.append(f"channel {name} : " + ".".join(map(str, sig)))
        else:
            lines.append(f"channel {name}")
    for name, values in defs.datatypes.items():
        lines.append(f"datatype {name} = " + " | ".join(a.name for a in values))
    for name, v in defs.consts.items():
        lines.append(f"const {name} = {v}")
    for eq in defs.equations.values():
        head = eq.name
        if eq.params:
            head += "(" + ",".join(eq.params) + ")"
        lines.append(f"{head} = {fmt_term(eq.body)}")
    for a in defs.assertions:
        op = "[T=" if a.model == "traces" else "[F="
        lines.append(f"assert {a.lhs} {op} {a.rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The syntactic side conditions, one walk per report

def initial_spine(term: ProcessTerm, defs: Definitions) -> Iterator[ProcessTerm]:
    """The nodes of a sequential process up to and including its initial
    prefixes: the subterms of every other node and the body of an
    identifier, unfolded where it is first met and never again."""
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Ident) and node.name not in seen:
            eq = defs.equations.get(node.name)
            if eq is not None:
                seen.add(node.name)
                stack.append(eq.body)
        elif not isinstance(node, Prefix):
            stack += reversed(subterms(node))


def channels(term: ProcessTerm, defs: Definitions) -> frozenset[str]:
    """Channel names of the initial constructs of a sequential process."""
    return frozenset(node.construct.channel for node in initial_spine(term, defs)
                     if isinstance(node, Prefix))


def _dollar_t_binders(term: ProcessTerm, defs: Definitions) -> frozenset[str]:
    """The $-selection variables of type t of every prefix term reaches."""
    return frozenset(f.payload for node, _ in unfold_walk(term, defs)
                     if isinstance(node, Prefix)
                     for f in node.construct.fields if f.sel == DOLLAR and f.is_t())


def _walk(proc, defs: Definitions):
    if isinstance(proc, str):
        return unfold_walk(defs.equations[proc].body, defs, proc, {proc})
    return unfold_walk(proc, defs, "<term>", set())


def _report(name: str, findings: list) -> ConditionReport:
    return ConditionReport(name, "fail" if findings else "pass", findings)


def _nonwhole_t_selections(node):
    if isinstance(node, Prefix):
        for f in node.construct.fields:
            if f.sel in (DOLLAR, QUERY) and f.is_t() and not isinstance(f.ty, TType):
                yield f"{f.sel}{f.payload}:{f.ty}"
    elif isinstance(node, ReplIntChoice) and not isinstance(node.domain, TType):
        yield f"|~| {node.var}:{node.domain}"


def check_data_independence(proc, defs: Definitions) -> ConditionReport:
    findings = []
    for node, where in _walk(proc, defs):
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
    return _report("data-independence", findings)


def check_seq(proc, defs: Definitions) -> ConditionReport:
    findings = [Finding("i", f"not data independent: ({f.clause}) {f.message}", f.where)
                for f in check_data_independence(proc, defs).findings]
    for node, where in _walk(proc, defs):
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
    return _report("Seq", findings)


def check_seqnorm(proc, defs: Definitions) -> ConditionReport:
    base = check_seq(proc, defs)
    findings = [Finding("Seq", f"({f.clause}) {f.message}", f.where)
                for f in base.findings]
    if not base.findings:
        for node, where in _walk(proc, defs):
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
    return _report("SeqNorm", findings)


def check_typesym_syntactic(proc, defs: Definitions) -> ConditionReport:
    findings = []
    for node, where in _walk(proc, defs):
        for v in t_values(node):
            findings.append(Finding("i", f"constant {v} of type t", where))
        for desc in _nonwhole_t_selections(node):
            findings.append(Finding(
                "iv", f"selection {desc} from a set involving t", where))
        if isinstance(node, (ReplInterleave, ReplExtChoice, ReplAlphaPar)) \
                and not isinstance(node.domain, TType):
            findings.append(Finding(
                "iv", "replicated operator indexed over a proper subset of t", where))
    return _report("TypeSym-syntactic", findings)


def check_no_mixed_inputs(proc, defs: Definitions) -> ConditionReport:
    findings = []
    for node, where in _walk(proc, defs):
        if isinstance(node, Prefix):
            sets = classify_fields(node.construct)
            if sets.dollar_t and sets.query:
                findings.append(Finding(
                    "mixed", "construct on channel "
                    f"{node.construct.channel!r} combines a nondeterministic "
                    "selection over t with a deterministic input", where))
    return _report("no-mixed-inputs", findings)


def check_all(proc, defs: Definitions) -> list[ConditionReport]:
    """The five syntactic reports, one walk each."""
    return [check(proc, defs) for check in (
        check_data_independence, check_seq, check_seqnorm,
        check_typesym_syntactic, check_no_mixed_inputs)]


# ---------------------------------------------------------------------------
# The tokenizer, one character class and one symbol at a time

def tokenize(text: str, filename: str) -> list[tuple]:
    toks: list[tuple] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= c <= "9":  # str.isdigit also takes digits int() rejects, such as ¹
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError([Diagnostic(f"unexpected character {c!r}", line, col, filename)])
    toks.append(("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# The failures threshold's frontier, one simple path at a time

def frontiers_by_paths(s: Lts, start: int) -> list:
    """All (conditions-on-path, visible symbolic event) pairs reachable from
    the state through internal and conditional labels only, one per simple
    path, repeats included: exponential in the number of τ-diamonds."""
    results = []

    def dfs(state, conds, on_path):
        for lab, tgt, _ in s.edges[state]:
            if lab is TAU:
                if tgt not in on_path:
                    dfs(tgt, conds, on_path | {tgt})
            elif isinstance(lab, Cond):
                if tgt not in on_path:
                    dfs(tgt, conds + (lab.condition,), on_path | {tgt})
            else:
                results.append((conds, lab.event))

    dfs(start, (), frozenset((start,)))
    return results
