"""Dual-route checks: the product-automaton refinement decision against an
extensional oracle built from bounded trace/acceptance enumeration, the
congruence of the two concrete semantics on randomly generated sequential
terms, strong bisimulation over interned labels against the
label_key-signature partition refinement it replaced, the free names of
the canonicalising walk against a separate free-variable walk,
build_sslts and concretize over the nodes of a state graph against the
whole-term symbolic rules (tests/reference.py) with every state keyed by
its canonical term, build_lts over (position, env) leaves and parallels
that make only the interleaving moves they keep against term-keyed leaves
and the eager operator rules, the build modulo the symmetry that phi leaves
against the full build, after phi, and the builds whose states share edge
rows against the reference loop that computes every row."""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from conftest import ALL_CORPUS_FILES, CORPUS_SEQ, load, proc_body, symmetric_mutant
from pcsp import cose, reduction, std_semantics
from pcsp.analysis import (
    divergence_free, refines, refines_failures, refines_traces, strong_bisim,
)
from pcsp.cli import main
from pcsp.conditions import check_seq
from pcsp.cose import Configuration, concretize, insts, match
from pcsp.errors import BoundExceeded, PcspError, SemanticsError
from pcsp.lts import TAU, Event, Lts, build, label_key, rename_lts, terms_bounded
from pcsp.parser import parse_definitions
from pcsp.pretty import fmt_term
from pcsp.record import fields, record, replace
from pcsp.reduction import CollapsingFn
from pcsp.ssos import build_sslts, state_graph, sym_label_key
from pcsp.std_semantics import (
    DEFAULT_MAX_STATES, Engine, StateGraph, build_lts, check_guarded_recursion,
    file_alphabet, tvalues_for,
)
from pcsp.syntax import (
    AlphaPar, Atom, BoolNot, Construct, DiffType, DOLLAR, Equation, EventItem,
    EventSet, ExtChoice, Field, Guard, Hide, Ident, If, IntChoice, Interleave,
    NamedType, Op, Prefix, QUERY, Rename, ReplAlphaPar, ReplExtChoice,
    ReplIntChoice, ReplInterleave, SetType, SharedPar, Sliding, Stop, T_TYPE,
    TType, TVal, VarRef, canonicalise, classify_fields, comms,
    construct_binding, domain_values, eval_guard, free_vars, map_subterms,
    replace_selections, subst_event_set, substitute, subterms,
)
from reference import (
    EAGER_RULES, acceptances_after, build_unshared, observation_holds, replace_t_initials,
    sym_successors, traces_upto, unfold_ident,
)

from test_syntax import _VARS, terms

_DEFS = parse_definitions("""
datatype AB = a | b
channel ca : t
channel cb : AB.t
channel cc : t.t
""")


def oracle_refines_traces(spec, impl, depth: int) -> bool:
    return traces_upto(impl, depth) <= traces_upto(spec, depth)


def oracle_refines_failures(spec, impl, depth: int) -> bool:
    """Extensional containment: every bounded trace of the implementation is
    one of the specification, and after each such trace every stable
    implementation acceptance includes some specification acceptance."""
    spec_traces = traces_upto(spec, depth)
    for tr in traces_upto(impl, depth):
        if tr not in spec_traces:
            return False
        spec_accs = acceptances_after(spec, tr)
        for acc_impl in acceptances_after(impl, tr):
            if not any(acc_spec <= acc_impl for acc_spec in spec_accs):
                return False
    return True


_PAIRS = [
    ("mutex.pcsp", "Spec", "Impl", 2),
    ("mutex.pcsp", "Spec", "Abst", 2),
    ("ex511.pcsp", "Spec", "Impl", 2),
    ("ex511.pcsp", "Spec", "Impl", 3),
    ("ex512.pcsp", "Spec", "Impl", 2),
    ("ex512.pcsp", "Spec", "Impl", 3),
]


def test_refinement_agrees_with_extensional_oracle():
    for fname, lhs, rhs, n in _PAIRS:
        defs = load(fname)
        spec = build_lts(defs, lhs, n)
        impl = build_lts(defs, rhs, n)
        for checker, oracle in ((refines_traces, oracle_refines_traces),
                                (refines_failures, oracle_refines_failures)):
            verdict = checker(spec, impl)
            depth = max(4, len(verdict.trace) + 1)
            assert verdict.holds == oracle(spec, impl, depth), (fname, lhs, rhs, n)


@given(terms(), terms())
@settings(max_examples=50, deadline=None)
def test_random_refinement_agrees_with_oracle(t1, t2):
    spec = build_lts(_DEFS, t1, 2)
    impl = build_lts(_DEFS, t2, 2)
    v_tr = refines_traces(spec, impl)
    assert v_tr.holds == oracle_refines_traces(spec, impl,
                                               max(5, len(v_tr.trace) + 1))
    v_f = refines_failures(spec, impl)
    assert v_f.holds == oracle_refines_failures(spec, impl,
                                                max(5, len(v_f.trace) + 1))


@given(terms())
@settings(max_examples=60, deadline=None)
def test_random_seq_terms_congruent(term):
    assume(check_seq(term, _DEFS).ok())
    std = build_lts(_DEFS, term, 2)
    sym = concretize(_DEFS, term, 2)
    ok, formula = strong_bisim(std, sym)
    assert ok, formula


def _reference_strong_bisim(l1, l2):
    """strong_bisim as it was before labels were interned: signatures of
    (label_key, block) pairs recomputed every round."""
    n1 = l1.n_states()
    n = n1 + l2.n_states()

    edges = []
    for s in range(l1.n_states()):
        edges.append([(lab, tgt) for lab, tgt, _ in l1.edges[s]])
    for s in range(l2.n_states()):
        edges.append([(lab, tgt + n1) for lab, tgt, _ in l2.edges[s]])

    block = [0] * n
    history = [list(block)]
    while True:
        sigs = {}
        for s in range(n):
            sig = frozenset((label_key(lab), block[tgt]) for lab, tgt in edges[s])
            sigs[s] = (block[s], sig)
        renumber = {}
        new_block = [0] * n
        for s in range(n):
            key = sigs[s]
            if key not in renumber:
                renumber[key] = len(renumber)
            new_block[s] = renumber[key]
        if new_block == block:
            break
        block = new_block
        history.append(list(block))

    r1, r2 = l1.root, l2.root + n1
    if block[r1] == block[r2]:
        return True, None

    labels_by_key = {}
    for s in range(n):
        for lab, _ in edges[s]:
            labels_by_key.setdefault(label_key(lab), lab)

    def first_diff_level(a, b):
        for lvl, blocks in enumerate(history):
            if blocks[a] != blocks[b]:
                return lvl
        return None

    def succs(s, lab_key):
        return [tgt for lab, tgt in edges[s] if label_key(lab) == lab_key]

    def dist(a, b, depth=0):
        if depth > len(history) + 4:
            return "..."
        lvl = first_diff_level(a, b)
        prev = history[lvl - 1]
        siga = frozenset((label_key(lab), prev[tgt]) for lab, tgt in edges[a])
        sigb = frozenset((label_key(lab), prev[tgt]) for lab, tgt in edges[b])
        only_a = sorted(siga - sigb)
        only_b = sorted(sigb - siga)
        if only_a:
            lab_key, blk = only_a[0]
            lab = labels_by_key[lab_key]
            a2 = min(t for t in succs(a, lab_key) if prev[t] == blk)
            parts = sorted({dist(a2, t2, depth + 1) for t2 in succs(b, lab_key)})
            inner = " and ".join(parts) if parts else "true"
            return f"<{'tau' if lab is TAU else lab}>({inner})"
        lab_key, blk = only_b[0]
        lab = labels_by_key[lab_key]
        b2 = min(t for t in succs(b, lab_key) if prev[t] == blk)
        parts = sorted({dist(b2, t2, depth + 1) for t2 in succs(a, lab_key)})
        inner = " and ".join(parts) if parts else "true"
        return f"not <{'tau' if lab is TAU else lab}>({inner})"

    return False, dist(r1, r2)


_LABELS = (Event("a"), Event("b"), Event("c", (TVal(0),)), Event("c", (TVal(1),)),
           Event("d", (TVal(1), TVal(0))))


@st.composite
def lts_pairs(draw):
    """Two LTSs of 1..10 states each over τ and a shared pool of up to four
    visible labels, so that label id * n + block spans several label
    ranges.  The second is drawn on its own; or is the first relabelled by a
    bijection of the visible pool, as permutation_bisim_check renames an
    LTS by a bijection of t; or is the first with its states numbered in
    another order and, half of those times, one edge redrawn, so that
    bisimilar pairs and pairs that differ only deep down all come up.  Some
    states of a drawn LTS hold another state's row object, as states that
    move alike do in lts.build."""
    pool = (TAU,) + tuple(draw(st.lists(st.sampled_from(_LABELS), min_size=1,
                                        max_size=4, unique=True)))

    def edge(n):
        return st.tuples(st.sampled_from(pool), st.integers(0, n - 1),
                         st.none())

    def lts():
        n = draw(st.integers(1, 10))
        edges = [draw(st.lists(edge(n), max_size=3)) for _ in range(n)]
        for s in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            edges[s] = edges[draw(st.integers(0, n - 1))]
        return Lts(draw(st.integers(0, n - 1)), list(range(n)), edges, frozenset())

    l1 = lts()
    mode = draw(st.sampled_from(("drawn", "relabelled", "renumbered", "edited")))
    if mode == "drawn":
        return l1, lts()
    if mode == "relabelled":
        bijection = dict(zip(pool[1:], draw(st.permutations(pool[1:]))))
        return l1, rename_lts(l1, bijection.__getitem__)
    n = l1.n_states()
    edges = [list(es) for es in l1.edges]
    if mode == "edited":
        s = draw(st.integers(0, n - 1))
        if edges[s]:
            edges[s][draw(st.integers(0, len(edges[s]) - 1))] = draw(edge(n))
        else:
            edges[s].append(draw(edge(n)))
    order = draw(st.permutations(range(n)))
    renumbered = [None] * n
    for s, es in enumerate(edges):
        renumbered[order[s]] = [(lab, order[t], uid) for lab, t, uid in es]
    return l1, Lts(order[l1.root], l1.states, renumbered, frozenset())


_C0 = Event("c", (TVal(0),))


@given(lts_pairs())
# the second root also has a τ into a deadlock: with offsets id * n1 rather
# than id * n (here n1 = 1), the pairs (τ, block 1) and (c.0, block 0) would
# encode to the same int and the two roots would never be split
@example((Lts(0, [0], [[(_C0, 0, None), (TAU, 0, None)]], frozenset()),
          Lts(1, [0, 1], [[], [(TAU, 1, None), (TAU, 0, None), (_C0, 1, None)]],
              frozenset())))
@settings(max_examples=300, deadline=None)
def test_strong_bisim_agrees_with_the_reference(pair):
    assert strong_bisim(*pair) == _reference_strong_bisim(*pair)


@given(lts_pairs())
@settings(max_examples=300, deadline=None)
def test_a_distinguishing_formula_holds_at_the_first_root_only(pair):
    l1, l2 = pair
    ok, formula = strong_bisim(l1, l2)
    if not ok:
        assert observation_holds(formula, l1, l1.root)
        assert not observation_holds(formula, l2, l2.root)


# -- the canonicalising walk against a free-variable walk -------------------

def _reference_free_vars(term) -> frozenset[str]:
    """free_vars as it was before the canonicalising walk recorded free
    names: a second copy of the binder-scoping rules (input binders scope
    over the fields to their right and the continuation, replicated binders
    over the alphabet and the body)."""

    def data(e):
        if isinstance(e, VarRef):
            return frozenset((e.name,))
        if isinstance(e, Op):
            return data(e.left) | data(e.right)
        if isinstance(e, BoolNot):
            return data(e.arg)
        return frozenset()

    def guard(g):
        if isinstance(g, Guard):
            out = frozenset(s for a in g.t_atoms for s in a if isinstance(s, str))
            for b in g.other:
                out |= data(b)
            return out
        return data(g)

    def datums(ds):
        return frozenset(d for d in ds if isinstance(d, str))

    def event_set(s):
        out = frozenset()
        for c in s.closures:
            out |= datums(c.datums)
        for e in s.literals:
            out |= datums(e.datums)
        return out

    def annotation(ty):
        if isinstance(ty, SetType):
            return datums(ty.items)
        if isinstance(ty, DiffType):
            return datums(ty.excluded)
        return frozenset()

    fv = _reference_free_vars
    if isinstance(term, Stop):
        return frozenset()
    if isinstance(term, Prefix):
        out = set()
        bound = set()
        for f in term.construct.fields:
            if f.sel in (DOLLAR, QUERY):
                out |= annotation(f.ty) - bound
                bound.add(f.payload)
            elif isinstance(f.payload, str) and f.payload not in bound:
                out.add(f.payload)
        return frozenset(out) | (fv(term.cont) - bound)
    if isinstance(term, (ExtChoice, IntChoice, Sliding, Interleave)):
        return fv(term.left) | fv(term.right)
    if isinstance(term, If):
        return guard(term.guard) | fv(term.then) | fv(term.els)
    if isinstance(term, Hide):
        return fv(term.proc) | event_set(term.hidden)
    if isinstance(term, Rename):
        return fv(term.proc) | datums(
            d for pair in term.pairs for side in pair if not isinstance(side, str)
            for d in side.datums)
    if isinstance(term, AlphaPar):
        return (fv(term.left) | fv(term.right)
                | event_set(term.left_alpha) | event_set(term.right_alpha))
    if isinstance(term, SharedPar):
        return fv(term.left) | fv(term.right) | event_set(term.shared)
    if isinstance(term, ReplAlphaPar):
        inner = (fv(term.body) | event_set(term.alpha)) - {term.var}
        return inner | annotation(term.domain)
    if isinstance(term, (ReplInterleave, ReplIntChoice, ReplExtChoice)):
        return (fv(term.body) - {term.var}) | annotation(term.domain)
    if isinstance(term, Ident):
        out = frozenset()
        for a in term.args:
            if not isinstance(a, (TVal, Atom)):
                out |= data(a)
        return out
    raise AssertionError(f"unknown term {term!r}")


def _reference_uids(term) -> tuple[int, ...]:
    """The uids of the constructs of a term in pre-order, identifiers not
    unfolded."""
    out = (term.construct.uid,) if isinstance(term, Prefix) else ()
    for sub in subterms(term):
        out += _reference_uids(sub)
    return out


def _check_canonicalise(term, env):
    canon, free = canonicalise(term, env)
    assert free == _reference_free_vars(term) == free_vars(term)
    # the canonical form keeps every uid, and exactly the free names that
    # env does not replace
    assert _reference_uids(canon) == _reference_uids(term)
    assert _reference_free_vars(canon) == free - set(env)
    assert canonicalise(canon)[0] == canon


def _corpus_subterms():
    for fname in ALL_CORPUS_FILES:
        for eq in load(fname).equations.values():
            stack = [eq.body]
            while stack:
                term = stack.pop()
                yield term
                stack.extend(subterms(term))


def test_canonicalise_agrees_with_the_reference_on_the_corpus():
    count = 0
    for term in _corpus_subterms():
        _check_canonicalise(term, {})
        count += 1
    assert count > 150


@st.composite
def narrowed_terms(draw):
    """terms(scope=("xfree",)) with some t-input annotations narrowed to
    t\\{v}, where v may be the input's own name: an input binder scopes
    over the fields to its right, not over its own annotation."""

    def narrow(term):
        if not isinstance(term, Prefix):
            return map_subterms(term, narrow)
        fields = []
        for f in term.construct.fields:
            if f.sel in (DOLLAR, QUERY) and f.ty == T_TYPE and draw(st.booleans()):
                v = draw(st.sampled_from((f.payload, "xfree") + _VARS))
                f = replace(f, ty=DiffType((v,)))
            fields.append(f)
        return Prefix(replace(term.construct, fields=tuple(fields)),
                      narrow(term.cont))

    return narrow(draw(terms(scope=("xfree",))))


@given(narrowed_terms(), st.sampled_from(({}, {"xfree": TVal(0)})))
@settings(max_examples=200, deadline=None)
def test_canonicalise_agrees_with_the_reference(term, env):
    _check_canonicalise(term, env)


# -- concretize against the whole-term rules -------------------------------

def _reference_configure(term, env):
    """The configuration of term under env and its key, its canonical form
    under env, from one canonicalising walk per event instance."""
    canon, free = canonicalise(term, env)
    cfg = Configuration(term, tuple(sorted(
        (k, v) for k, v in env.items() if k in free)))
    return cfg, canon


def _reference_successors_of_config(cfg, defs, tvalues):
    """The translation rules on whole terms: the symbolic rules rerun for
    every configuration, and every instance's target walked under its own
    environment."""
    env = dict(cfg.env)
    out = []
    seen_terms = set()

    def expand(term):
        key = canonicalise(term)[0]
        if key in seen_terms:
            return
        seen_terms.add(key)
        for lab, uid, target in sym_successors(term, defs):
            if lab is TAU:
                out.append((TAU, uid, *_reference_configure(target, env)))
            elif isinstance(lab, Guard):
                if eval_guard(lab, env):
                    expand(target)
            else:
                eps = lab.event
                sets = classify_fields(eps)
                if sets.dollar_t:
                    positions = sorted(sets.dollar_t)
                    domains = [domain_values(eps.fields[i - 1].ty, tvalues)
                               for i in positions]
                    transformed = replace_t_initials(term, eps.uid)
                    for vs in itertools.product(*domains):
                        env2 = dict(env)
                        for i, v in zip(positions, vs):
                            env2[eps.fields[i - 1].payload] = v
                        out.append((TAU, eps.uid,
                                    *_reference_configure(transformed, env2)))
                else:
                    for event in insts(eps, env, tvalues):
                        env2 = dict(env)
                        env2.update(match(eps, event))
                        out.append((event, eps.uid,
                                    *_reference_configure(target, env2)))

    expand(cfg.term)
    return out


def _reference_concretize(defs, source, tsize, init_env=None,
                          max_states=100_000):
    root_term = defs.body(source) if isinstance(source, str) else source
    # the precondition both share, not the algorithm under test
    state_graph(defs, source)
    tvalues = tvalues_for(tsize)
    root, root_key = _reference_configure(root_term, dict(init_env or {}))
    return build(root, root_key,
                 lambda cfg: _reference_successors_of_config(cfg, defs, tvalues),
                 alphabet=file_alphabet(defs, tvalues),
                 max_states=max_states, describe=Configuration.describe)


def _concretize_outcome(fn, *args, **kwargs):
    """Everything a configuration LTS shows, or the error it stops with."""
    try:
        lts = fn(*args, **kwargs)
    except PcspError as exc:
        return type(exc).__name__, str(exc)
    return [cfg.describe() for cfg in lts.states], lts.edges, lts.root, lts.alphabet


def _check_concretize(*args, **kwargs):
    got = _concretize_outcome(concretize, *args, terms=True, **kwargs)
    assert got == _concretize_outcome(_reference_concretize, *args, **kwargs)
    return got


def test_concretize_agrees_with_the_reference_on_the_corpus():
    built = 0
    for fname in ALL_CORPUS_FILES:
        defs = load(fname)
        for name, eq in defs.equations.items():
            if eq.params:
                continue
            for n in range(1, 5):
                built += not isinstance(
                    _check_concretize(defs, name, n, max_states=2000)[0], str)
    assert built > 40


def test_concretize_agrees_with_the_reference_on_the_congruence_runs():
    for fname, proc, n in (("traces-count.pcsp", "P", 8),
                           ("ex315.pcsp", "R1", 9), ("running.pcsp", "P", 16)):
        assert not isinstance(_check_concretize(load(fname), proc, n)[0], str)
        # the frontier configuration named when the state bound is hit
        assert _check_concretize(load(fname), proc, n, max_states=40)[0] \
            == "BoundExceeded"


def test_configurations_of_different_symbolic_states_merge():
    # c!x -> d!y under {x->0, y->0} and c!x -> d!x under {x->0} are the
    # same configuration: keying by (symbolic state, environment) alone
    # would keep them apart
    defs = parse_definitions("""
channel a
channel b
channel c : t
channel d : t
P(x, y) = a -> c!x -> d!y -> STOP [] b -> c!x -> d!x -> STOP
""")
    env = {"x": TVal(0), "y": TVal(0)}
    states = _check_concretize(defs, proc_body(defs, "P"), 1, init_env=env)[0]
    assert states == [
        "(a -> c.x -> d.y -> STOP [] b -> c.x -> d.x -> STOP, {x->0, y->0})",
        "(c.x -> d.y -> STOP, {x->0, y->0})",
        "(d.y -> STOP, {y->0})",
        "(STOP, {})",
    ]


@given(terms(scope=("xfree",)), st.integers(1, 3),
       st.sampled_from(({}, {"xfree": TVal(0)}, {"xfree": TVal(1)})))
@settings(max_examples=150, deadline=None)
def test_concretize_agrees_with_the_reference(term, n, env):
    _check_concretize(_DEFS, term, n, init_env=env)


# -- build_sslts against the whole-term rules ------------------------------

def _reference_build_sslts(defs, proc, max_states=100_000):
    """The SSLTS by the whole-term symbolic rules, every successor term
    keyed by its own whole canonical form."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    state_graph(defs, term)  # the precondition both share
    return build(term, canonicalise(term)[0],
                 lambda t: [(lab, uid, nxt, canonicalise(nxt)[0])
                            for lab, uid, nxt in sym_successors(t, defs)],
                 alphabet=frozenset(), max_states=max_states,
                 describe=fmt_term, order=sym_label_key)


def _sslts_outcome(fn, *args, **kwargs):
    """The printed states (construct uids included), the edges and the
    root, or the error the build stops with."""
    try:
        s = fn(*args, **kwargs)
    except PcspError as exc:
        return type(exc).__name__, str(exc)
    return [repr(t) for t in s.states], s.edges, s.root


def _check_sslts(*args):
    got = _sslts_outcome(build_sslts, *args, terms=True)
    assert got == _sslts_outcome(_reference_build_sslts, *args)
    return got


def test_build_sslts_agrees_with_the_reference_on_the_corpus():
    bounded = 0
    for fname, proc, _init in CORPUS_SEQ:
        # a free name of the root stays symbolic
        defs = load(fname)
        term = proc_body(defs, proc)
        assert not isinstance(_check_sslts(defs, term)[0], str), (fname, proc)
        # the frontier state named when the state bound is hit
        bounded += _check_sslts(defs, term, 2)[0] == "BoundExceeded"
    assert bounded > 5


@given(st.one_of(terms(), terms(scope=("xfree", "yfree"))))
@settings(max_examples=150, deadline=None)
def test_build_sslts_agrees_with_the_reference(term):
    _check_sslts(_DEFS, term)


# -- build_lts over (position, env) leaves against term-keyed leaves -------

@record(frozen=True)
class _Vector:
    """The reference expansion of ``||| i:t @ P(i)`` at a size n: a
    left-associated chain of n-1 of these holds P(0)..P(n-1) in index order,
    which _ReferenceGraph.intern makes one vector node."""

    left: object
    right: object


def _reference_expand(term, tvalues):
    """A term as it enters a state: replicated operators over t at its top,
    above every leaf, become binary trees, an interleaving over the whole of
    t a chain of _Vector; a leaf (prefix, conditional, internal
    choice, identifier) stays as written, replicated operators inside it
    included."""
    if isinstance(term, (ExtChoice, Sliding, Interleave, SharedPar, AlphaPar,
                         Hide, Rename)):
        return map_subterms(term, lambda sub: _reference_expand(sub, tvalues))
    if not isinstance(term, (ReplAlphaPar, ReplInterleave, ReplExtChoice)):
        return term
    members = domain_values(term.domain, tvalues)
    if isinstance(term, ReplAlphaPar):
        if not members:
            raise SemanticsError("replicated parallel over an empty index set")
        parts = [(_reference_expand(substitute(term.body, {term.var: v}), tvalues),
                  subst_event_set(term.alpha, {term.var: v})) for v in members]
        out, out_alpha = parts[0]
        for body, alpha in parts[1:]:
            out = AlphaPar(out, out_alpha, body, alpha)
            out_alpha = EventSet(out_alpha.closures + alpha.closures,
                                 out_alpha.literals + alpha.literals)
        return out
    if not members:
        raise SemanticsError("replicated operator over an empty index set")
    parts = [_reference_expand(substitute(term.body, {term.var: v}), tvalues)
             for v in members]
    if isinstance(term, ReplExtChoice):
        combine = ExtChoice
    else:
        combine = _Vector if isinstance(term.domain, TType) else Interleave
    return functools.reduce(combine, parts)


def _reference_leaf_successors(term, defs, tvalues):
    """Engine.successors as it was: (label, uid, target term) triples of a
    closed leaf term, every target substituted and expanded down to its
    leaves."""
    if isinstance(term, Stop):
        return []
    if isinstance(term, Prefix):
        # the τ-stages: all non-t selections, then all t selections, resolved
        # to outputs by one τ per choice of values
        alpha = term.construct
        sets = classify_fields(alpha)
        for scope, dollar in (("non-t", sets.dollar_nont), ("t", sets.dollar_t)):
            if dollar:
                names = [alpha.fields[i - 1].payload for i in sorted(dollar)]
                domains = [domain_values(alpha.fields[i - 1].ty, tvalues)
                           for i in sorted(dollar)]
                stripped = Prefix(replace_selections(alpha, scope), term.cont)
                return [(TAU, alpha.uid, substitute(stripped, dict(zip(names, vs))))
                        for vs in itertools.product(*domains)]
        query = sets.query
        return [(Event(alpha.channel, values), alpha.uid,
                 substitute(term.cont, construct_binding(alpha, values, query)))
                for values in comms(alpha, tvalues)]
    if isinstance(term, IntChoice):
        return [(TAU, None, term.left), (TAU, None, term.right)]
    if isinstance(term, Ident):
        return [(TAU, None, _reference_expand(unfold_ident(term, defs), tvalues))]
    if isinstance(term, ReplIntChoice):
        members = domain_values(term.domain, tvalues)
        if not members:
            raise SemanticsError("replicated internal choice over an empty index set")
        return [(TAU, None, _reference_expand(substitute(term.body, {term.var: v}), tvalues))
                for v in members]
    raise SemanticsError(f"successors: unknown term {term!r}")


def _reference_instances(chain, n):
    out = []
    for _ in range(n - 1):
        out.append(chain.right)
        chain = chain.left
    out.append(chain)
    return out[::-1]


_PLAIN = (str, int, bool, type(None), Atom, NamedType, TType, Stop)


def _reference_t_values(obj, out):
    """The t-values of a leaf term (no chain stands inside a leaf)."""
    if obj.__class__ is TVal:
        out.add(obj.index)
    elif obj.__class__ is tuple:
        for x in obj:
            _reference_t_values(x, out)
    elif obj.__class__ not in _PLAIN:
        for f in fields(obj):
            _reference_t_values(getattr(obj, f.name), out)


def _reference_permute_t(obj, pi):
    """A leaf term with its t-values renamed by pi."""
    cls = obj.__class__
    if cls is TVal:
        return TVal(pi[obj.index])
    if cls is tuple:
        return tuple(_reference_permute_t(x, pi) for x in obj)
    if cls in _PLAIN:
        return obj
    return cls(*[_reference_permute_t(getattr(obj, f.name), pi)
                 for f in fields(cls) if f.init])


class _ReferenceGraph(StateGraph):
    """The state graph with its leaves as they were: a closed term, keyed
    by its alpha-canonical form and the uids of its constructs, successors
    from the term rules, renamed by renaming the term.  The interleavings,
    the parallels, hiding and renaming take the eager rules of
    reference.py (EAGER_RULES), which make every move's target; the
    choices, the vectors and the representatives are StateGraph's."""

    def __init__(self, engine, tvalues, symmetric_from):
        super().__init__(engine, tvalues, symmetric_from)
        self._term_ids = {}

    def intern(self, term):
        n = len(self.tvalues)
        if isinstance(term, (ReplAlphaPar, ReplInterleave, ReplExtChoice)):
            term = _reference_expand(term, self.tvalues)
        if term.__class__ is _Vector:
            return self.node((self._vector_op,
                              *map(self.intern, _reference_instances(term, n))))
        if isinstance(term, (ExtChoice, Sliding, Interleave, SharedPar, AlphaPar,
                             Hide, Rename)):
            return self.node((self.op_id(map_subterms(term, lambda _: Stop())),
                              *map(self.intern, subterms(term))))
        canon, uids = canonicalise(term)[0], _reference_uids(term)
        i = self._term_ids.get((canon, uids))
        if i is None:
            i = self._term_ids[canon, uids] = self._add(
                None, term, self._classes.setdefault(canon, len(self._classes)))
        return i

    def term(self, i):
        return self.leaves[i] if self.kids[i] is None else super().term(i)

    def successors(self, i):
        key = self.kids[i]
        if key is not None and self.succ[i] is None:
            blank = self.blanks[key[0]]
            rule = EAGER_RULES.get(blank.__class__)
            if rule is not None:
                self.succ[i] = rule(self, key, blank)
        elif key is None and self.succ[i] is None:
            term = self.leaves[i]
            if isinstance(term, If):
                branch = term.then if eval_guard(term.guard) else term.els
                self.succ[i] = self.successors(self.intern(branch))
            else:
                self.succ[i] = [
                    (lab, uid, self.intern(nxt)) for lab, uid, nxt in
                    _reference_leaf_successors(term, self.engine.defs, self.tvalues)]
        return super().successors(i)

    def tvals(self, i):
        if self.kids[i] is not None:
            return super().tvals(i)
        vals = set()
        _reference_t_values(self.leaves[i], vals)
        return tuple(sorted(vals))

    def _rename_leaf(self, i, pi):
        return self.intern(_reference_permute_t(self.leaves[i], pi))


def _reference_build_lts(defs, proc, tsize, max_states=DEFAULT_MAX_STATES, *,
                         symmetric_from=None):
    """build_lts over _ReferenceGraph."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    check_guarded_recursion(term, defs)
    graph = _ReferenceGraph(Engine(defs), tvalues_for(tsize), symmetric_from)
    state = graph.state
    root = graph.intern(_reference_expand(term, graph.tvalues))
    rep = graph.representative if symmetric_from is not None else (lambda i: i)
    with terms_bounded():
        root = rep(root)

    def successors(i):
        return [(lab, uid, rep(t), state(rep(t))) for lab, uid, t in graph.successors(i)]

    lts = build(root, state(root), successors,
                alphabet=file_alphabet(defs, graph.tvalues),
                max_states=max_states, describe=lambda i: fmt_term(graph.term(i)))
    with terms_bounded():
        lts.states = [graph.term(i) for i in lts.states]
    return lts


def _build_outcome(fn, *args, **kwargs):
    """Everything build_lts shows: the state terms (construct uids
    included), the edges with their uids, the root and the alphabet, or the
    error the build stops with."""
    try:
        lts = fn(*args, **kwargs)
    except PcspError as exc:
        return type(exc).__name__, str(exc)
    return [repr(t) for t in lts.states], lts.edges, lts.root, lts.alphabet


def _check_build(*args, **kwargs):
    got = _build_outcome(build_lts, *args, terms=True, **kwargs)
    assert got == _build_outcome(_reference_build_lts, *args, **kwargs)
    return got


def test_build_lts_agrees_with_the_reference_on_the_corpus():
    built = 0
    for fname in ALL_CORPUS_FILES:
        defs = load(fname)
        for name, eq in defs.equations.items():
            if eq.params:
                continue
            for n in range(1, 5):
                built += not isinstance(_check_build(defs, name, n, 2000)[0], str)
    assert built > 60


def test_build_lts_agrees_with_the_reference_on_mutex_and_bigprops():
    mutex = load("mutex.pcsp")
    for n in range(5, 9):
        for sym in (None, 1):
            _check_build(mutex, "Impl", n, symmetric_from=sym)
    bigprops = load("bigprops.pcsp")
    for n in range(1, 4):
        for x in range(n):
            _check_build(bigprops, substitute(proc_body(bigprops, "Proc"),
                                              {"x": TVal(x)}), n)


def test_leaves_of_different_positions_merge():
    # c!x -> d!y under {x->0, y->0} and c!x -> d!x under {x->0} are one
    # state, and so are c?u -> d!u and c?w -> d!w: keying states by
    # (position, env) alone, or by bound names, would keep them apart
    defs = parse_definitions("""
channel a, b, e, f
channel c : t
channel d : t
P(x, y) = a -> c!x -> d!y -> STOP [] b -> c!x -> d!x -> STOP
  [] e -> c?u:t -> d!u -> STOP [] f -> c?w:t -> d!w -> STOP
""")
    states = _check_build(defs, substitute(proc_body(defs, "P"),
                                           {"x": TVal(0), "y": TVal(0)}), 2)[0]
    assert len(states) == 6


_uids = itertools.count(5000)


def _fresh_uids(term):
    """The term with a new uid for every construct."""
    if isinstance(term, Prefix):
        return Prefix(replace(term.construct, uid=next(_uids)), _fresh_uids(term.cont))
    return map_subterms(term, _fresh_uids)


@st.composite
def _replicated(draw, scope, nested=True):
    """A replicated operator over t or t\\{x}, x in scope, whose body uses its
    index i and may hold one more of them below a prefix; below a prefix
    binding x it waits for the prefix to fire."""
    kind = draw(st.sampled_from((ReplInterleave, ReplExtChoice, ReplIntChoice,
                                 ReplAlphaPar)))
    domain = draw(st.sampled_from((T_TYPE,) + tuple(DiffType((x,)) for x in scope)))
    if nested and draw(st.booleans()):
        body = draw(_bound_replicated(("i",) + scope, nested=False))
    else:
        body = draw(terms(scope=("i",) + scope, depth=1))
    if kind is ReplAlphaPar:
        datum = draw(st.sampled_from(("i",) + scope))
        return ReplAlphaPar("i", domain, EventSet((EventItem("ca", (datum,)),)), body)
    return kind("i", domain, body)


@st.composite
def _bound_replicated(draw, scope, nested=True):
    """ca?x:t -> R with R replicated over t or t\\{x}."""
    alpha = Construct("ca", (Field(QUERY, "x", T_TYPE),), uid=next(_uids))
    inner = ("x",) + tuple(v for v in scope if v != "x")
    return Prefix(alpha, draw(_replicated(inner, nested)))


@st.composite
def leaf_terms(draw):
    """A term with a copy of itself in which y is renamed x and every
    binder and construct is new, so that under x = y their leaves merge, and a
    replicated operator below a prefix that binds its index set or
    alphabet, or with the whole of t as index set at the top."""
    t1 = draw(terms(scope=("x", "y"), depth=2))
    t2 = _fresh_uids(canonicalise(substitute(t1, {"y": "x"}))[0])
    repl = draw(st.one_of(_bound_replicated(()), _replicated(())))
    return draw(st.sampled_from((IntChoice(IntChoice(t1, t2), repl),
                                 ExtChoice(t1, Sliding(repl, t2)),
                                 IntChoice(t1, t2))))


@given(leaf_terms(), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_build_lts_agrees_with_the_reference(term, n, x, y):
    _check_build(_DEFS, substitute(term, {"x": TVal(x % n), "y": TVal(y % n)}), n, 400)


# Compositions of terms under the operators whose rules are StateGraph's
# own: a parallel pulls the moves of an interleaving operand and makes only
# the targets it keeps, which the eager rules of reference.py decide apart.
# The terms use ca alone, so that the operands of a parallel often share
# events, and an instance of a vector often offers the same event as the
# others: the partners of a synchronised move.
_PAR_DEFS = parse_definitions("""
channel ca, cd : t
""")
_PAR_SETS = (
    EventSet(), EventSet((EventItem("ca"),)),
    EventSet((EventItem("ca"), EventItem("cd"))),
    EventSet((EventItem("cd"),)), EventSet((), (EventItem("ca", (TVal(0),)),)),
)
_PAR_RENAMINGS = (
    (("cd", "ca"),), (("ca", "ca"), ("cd", "ca")), (("ca", "cd"), ("cd", "ca")),
    ((EventItem("cd", (TVal(0),)), EventItem("ca", (TVal(0),))),),
)


# Every replicated operator that becomes operator nodes, over a body in i:
# an interleaving over t (a vector) and over part of t (a plain
# interleaving node), a choice node, and the tree of a parallel.
_REPLICATED = {
    "vector": lambda body: ReplInterleave("i", T_TYPE, body),
    "part": lambda body: ReplInterleave("i", DiffType((TVal(0),)), body),
    "choice": lambda body: ReplExtChoice("i", T_TYPE, body),
    "parallel": lambda body: ReplAlphaPar(
        "i", T_TYPE, EventSet((EventItem("ca", ("i",)),)), body),
}


@st.composite
def _compositions(draw, depth=2):
    """A term of the terms strategy or a replicated operator over one
    (_REPLICATED), under up to depth levels of [|X|], [A||B], |||, a
    left-nested chain of three |||, hiding and renaming.  The operators
    come first, as Hypothesis draws the first choice most often."""
    kinds = ["term", *_REPLICATED]
    if depth:
        kinds = ["shared", "alpha", "interleave", "chain", "hide", "rename"] + kinds
    kind = draw(st.sampled_from(kinds))
    if kind == "term":
        return draw(terms(depth=2, channels=("ca",)))
    if kind in _REPLICATED:
        return _REPLICATED[kind](draw(terms(scope=("i",), depth=2, channels=("ca",))))
    sub, evsets = _compositions(depth - 1), st.sampled_from(_PAR_SETS)
    if kind == "chain":
        return Interleave(Interleave(draw(sub), draw(sub)), draw(sub))
    if kind == "hide":
        return Hide(draw(sub), draw(evsets))
    if kind == "rename":
        return Rename(draw(sub), draw(st.sampled_from(_PAR_RENAMINGS)))
    left, right = draw(sub), draw(sub)
    if kind == "interleave":
        return Interleave(left, right)
    if kind == "shared":
        return SharedPar(left, draw(evsets), right)
    return AlphaPar(left, draw(evsets), right, draw(evsets))


def _check_composition(term, n):
    _check_build(_PAR_DEFS, term, n, 400)


@given(_compositions(), st.integers(2, 3))
@settings(max_examples=150, deadline=None)
def test_compositions_agree_with_the_eager_rules(term, n):
    _check_composition(term, n)


def test_a_dropped_partner_fails_the_composition_property(monkeypatch):
    # a synchronised move made with the first of its partners only
    partners = StateGraph.partners
    monkeypatch.setattr(StateGraph, "partners", lambda self, i: {
        lab: moves[:1] for lab, moves in partners(self, i).items()})
    prop = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    phases=(Phase.generate,))(
        given(_compositions(), st.integers(2, 3))(_check_composition))
    with pytest.raises(AssertionError):
        prop()


# The terms strategy draws only t-conditions and binary choices.  P has a
# non-t conditional holding a t-selection inside a choice: the rewrite of
# that selection into an output keeps the conditional (a node of the
# symbolic state graph) around the branch it takes.  L and R are 4-way
# choices, nested to the left (one node of four operands) and to the right,
# whose operands move by τ.  L's first operand unfolds to a choice, which
# joins the chain: M reaches that state both ways.  In C, when x == y, the
# true condition and the prefix after it both offer ca.x, each to a new
# configuration: those are numbered in the order the rules collect the
# two, the branch's first.
_CHOICES = parse_definitions("""
datatype AB = a | b
channel ca : t
channel cb : AB.t
channel e
P = cb?x:AB$y:t -> ((if x == a then ca$z:t -> STOP else e -> STOP) [] e -> STOP)
Q1 = ca$u:t -> STOP
Q2 = e -> Q2
Q3 = e -> STOP [] ca$v:t -> STOP
L = Q3 [] Q1 [] (ca$w:t -> STOP |~| e -> STOP) [] Q2
M = L |~| (e -> STOP [] ca$v:t -> STOP [] Q1 [] (ca$w:t -> STOP |~| e -> STOP) [] Q2)
R = (e -> STOP |~| STOP) [] (Q1 [] ((ca$w:t -> STOP |~| e -> STOP) [] Q2))
C = ca?x:t -> ca?y:t -> ((if x == y then ca!x -> ca!x -> STOP else STOP) [] ca!y -> STOP)
""")


@pytest.mark.parametrize("proc", ["P", "L", "M", "R", "C"])
def test_conditionals_and_choice_chains_agree_with_the_references(proc):
    assert not isinstance(_check_sslts(_CHOICES, proc)[0], str)
    for n in (1, 2, 3):
        assert not isinstance(_check_concretize(_CHOICES, proc, n)[0], str)
        assert not isinstance(_check_build(_CHOICES, proc, n)[0], str)


# -- the build modulo symmetry against the full build, after phi ----------

def _phi_bisimilar(defs, proc, n: int, bound: int, lo=None,
                   max_states: int = 200_000) -> bool:
    """Whether phi_bound collapses the full build of proc at #T=n and the
    build modulo the permutations of {lo..n-1} (lo defaults to bound) to
    strongly bisimilar systems."""
    phi = CollapsingFn(bound)
    full = build_lts(defs, proc, n, max_states)
    reduced = build_lts(defs, proc, n, symmetric_from=bound if lo is None else lo)
    return strong_bisim(phi.lts(full), phi.lts(reduced))[0]


def test_reduced_mutex_impl_is_phi_bisimilar_to_the_full_one():
    mutex = load("mutex.pcsp")
    for n in range(2, 9):
        assert _phi_bisimilar(mutex, "Impl", n, 1), n


# Each worker hides its own internal event, so the hiding operator carries
# a t-value that a permutation renames.
_FARM = parse_definitions("""
channel req, work, done : t
W(i) = req.i -> work.i -> done.i -> W(i)
Worker(i) = W(i) \\ {| work.i |}
Farm = ||| i:t @ Worker(i)
""")


def test_mutant_representatives_fail_the_bisimilarity_check(monkeypatch):
    assert _phi_bisimilar(_FARM, "Farm", 3, 1)
    # permuting the values below B as well: phi_1 tells 0 from the rest
    assert not _phi_bisimilar(load("mutex.pcsp"), "Impl", 3, 1, lo=0)
    # renaming operator data but not leaf terms: a worker's hidden set no
    # longer names its own work event
    monkeypatch.setattr(StateGraph, "_rename_leaf", lambda self, i, pi: i)
    assert not _phi_bisimilar(_FARM, "Farm", 3, 1)


# Interleavings over t inside leaf terms, each a vector once the transition
# into it makes it a state: below a prefix, and one in each instance.
_NESTED = parse_definitions("""
channel go
channel a : t
channel b : t.t
Q(i) = a!i -> Q(i)
ViaPrefix = go -> (||| i:t @ Q(i))
Nested = ||| i:t @ (a!i -> (||| j:t @ b!i!j -> STOP))
""")


def test_vectors_inside_leaves_are_permuted_soundly():
    for proc, n, bound in itertools.product(("ViaPrefix", "Nested"), (2, 3), (0, 1)):
        assert _phi_bisimilar(_NESTED, proc, n, bound), (proc, n, bound)


def test_symmetric_mutant_verifies_as_without_the_reduction(tmp_path, capsys,
                                                            monkeypatch):
    src = symmetric_mutant(tmp_path)
    builds: dict = {}
    reduced_sizes = set()

    def verify(model, reduce):
        # builds are shared between the runs; a build asked for modulo
        # symmetry is made in full when the reduction is patched off
        def cached_build_lts(defs, proc, n, max_states, symmetric_from=None,
                             **switches):
            sym = symmetric_from if reduce else None
            if sym is not None:
                reduced_sizes.add(n)
            if (proc, n, sym) not in builds:
                builds[proc, n, sym] = build_lts(defs, proc, n, max_states,
                                                 symmetric_from=sym, **switches)
            return builds[proc, n, sym]

        monkeypatch.setattr(reduction, "build_lts", cached_build_lts)
        code = main(["verify", str(src), "--spec", "Spec", "--impl", "Impl",
                     "--model", model, "--sizes", "1..5"])
        return code, capsys.readouterr().out

    for model in ("traces", "failures"):
        got = verify(model, reduce=True)
        assert got == verify(model, reduce=False), model
        assert got[0] == 1 and "FAILS" in got[1]
    assert reduced_sizes == {2, 3, 4, 5}  # the theorem sizes


@given(terms(scope=("i",), depth=2), st.integers(1, 4), st.sampled_from((0, 1, 2)))
@settings(max_examples=80, deadline=None)
def test_reduced_replicated_interleaving_is_phi_bisimilar(body, n, bound):
    # i is the body's only free t-variable, so the farm is symmetric in t
    farm = ReplInterleave("i", T_TYPE, body)
    try:
        assert _phi_bisimilar(_DEFS, farm, n, bound, max_states=3000)
    except BoundExceeded:
        assume(False)


# -- calls without the unfolding τ against calls that unfold by τ -----------

@st.composite
def call_graphs(draw):
    """Definitions of P0, P1 and P2 over the channels of _DEFS: `terms`
    bodies some of whose STOP leaves are bare calls of any of the three."""
    def calls(term):
        if term.__class__ is Stop:
            k = draw(st.integers(-1, 2))
            return term if k < 0 else Ident(f"P{k}")
        return map_subterms(term, calls)

    return replace(_DEFS, equations={
        f"P{k}": Equation(f"P{k}", (), calls(draw(terms(depth=2)))) for k in range(3)})


def _calls_agree(unfolded: Lts, folded: Lts) -> bool:
    """Whether the builds with and without the unfolding τ agree on
    divergence and refine each other in traces and, where they do not
    diverge, in stable failures."""
    diverges = not divergence_free(unfolded)
    if diverges != (not divergence_free(folded)):
        return False
    models = ("traces",) if diverges else ("traces", "failures")
    return all(refines(a, b, model).holds for model in models
               for a, b in ((unfolded, folded), (folded, unfolded)))


_CYCLE = parse_definitions("channel a\nP0 = P1\nP1 = P0\n")


@given(call_graphs(), st.integers(1, 3))
@example(_CYCLE, 1)
@settings(max_examples=80, deadline=None)
def test_calls_without_the_unfolding_tau_keep_every_verdict(defs, n):
    try:
        unfolded = build_lts(defs, "P0", n, 3000)
    except (BoundExceeded, SemanticsError):  # too large, or recursion through
        assume(False)                        # an operator context
    assert _calls_agree(unfolded, build_lts(defs, "P0", n, 3000, unfold_calls=False))


def test_a_call_cycle_without_its_tau_fails_the_agreement(monkeypatch):
    # with calls followed, the engine moves a call only where it closes a
    # cycle; the mutant drops that τ, so P0 deadlocks instead of diverging
    unfolded = build_lts(_CYCLE, "P0", 1)
    assert _calls_agree(unfolded, build_lts(_CYCLE, "P0", 1, unfold_calls=False))
    moves = Engine.successors
    monkeypatch.setattr(Engine, "successors", lambda self, p, env, tvalues: (
        [] if self.positions[p].term.__class__ is Ident else moves(self, p, env, tvalues)))
    assert not _calls_agree(unfolded, build_lts(_CYCLE, "P0", 1, unfold_calls=False))


# -- states that move alike share one edge row -----------------------------

def _rows_outcome(fn, *args, **kwargs):
    try:
        lts = fn(*args, **kwargs)
    except PcspError as exc:
        return type(exc).__name__, str(exc)
    return lts.root, lts.states, lts.edges


def _check_shared(fn, *args, **kwargs):
    """fn (build_lts or concretize) gives the same root, states and
    edge rows, compared by value, as with every row computed.  The runs
    that cose's movers name are checked against the whole-term rules
    above."""
    got = _rows_outcome(fn, *args, **kwargs)
    with mock.patch.object(std_semantics, "build", build_unshared), \
            mock.patch.object(cose, "build", build_unshared):
        assert got == _rows_outcome(fn, *args, **kwargs)


_COUNTS = Path(__file__).parent / "golden" / "lts-counts.txt"


@pytest.mark.parametrize("fname, proc, n", [
    (fname, proc, int(n)) for fname, proc, n, *_ in map(str.split, _COUNTS.read_text().splitlines())])
def test_shared_rows_change_no_corpus_build(fname, proc, n):
    defs = load(fname)
    for unfold in (True, False):
        _check_shared(build_lts, defs, proc, n, unfold_calls=unfold)
    if fname == "mutex.pcsp":
        _check_shared(build_lts, defs, proc, n, symmetric_from=1, unfold_calls=False)
    _check_shared(concretize, defs, proc, n)


@given(terms(scope=("xfree",)), st.integers(1, 3),
       st.sampled_from(({}, {"xfree": TVal(0)}, {"xfree": TVal(1)})))
@settings(max_examples=100, deadline=None)
def test_shared_rows_change_no_build(term, n, env):
    _check_shared(concretize, _DEFS, term, n, init_env=env)
    closed = substitute(term, {"xfree": TVal(0)})
    for unfold in (True, False):
        _check_shared(build_lts, _DEFS, closed, n, unfold_calls=unfold)


@given(call_graphs(), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_shared_rows_change_no_build_through_bare_calls(defs, n):
    _check_shared(build_lts, defs, "P0", n, 3000, unfold_calls=False)


def test_states_that_move_alike_share_one_row():
    # P inputs x, y, z and then only tests them: 512 of its states are
    # conditionals, which move as the branch their values select
    defs = load("traces-count.pcsp")
    for lts in (build_lts(defs, "P", 8), build_lts(defs, "P", 8, unfold_calls=False),
                concretize(defs, "P", 8)):
        assert (lts.n_states(), lts.n_edges()) == (578, 26560)
        assert len({id(row) for row in lts.edges}) <= 100


def test_renaming_keeps_shared_rows_shared():
    # phi renames each of the build's 84 row objects once, so its image
    # shares them as the build does, and each state's row is the one that
    # renaming it on its own gives
    lts = build_lts(load("traces-count.pcsp"), "P", 8, unfold_calls=False)
    collapsed = CollapsingFn(2).lts(lts)
    assert len({id(row) for row in lts.edges}) == 84
    assert len({id(row) for row in collapsed.edges}) == 84
    unshared = replace(lts, edges=[list(row) for row in lts.edges])
    assert CollapsingFn(2).lts(unshared).edges == collapsed.edges
