"""Dual-route checks: the product-automaton refinement decision against an
extensional oracle built from bounded trace/acceptance enumeration, the
congruence of the two concrete semantics on randomly generated sequential
terms, strong bisimulation over interned labels against the
label_key-signature partition refinement it replaced, and the free names
and construct uids of the canonicalising walk against the separate
free-variable and construct walks it replaced."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from conftest import ALL_CORPUS_FILES, load
from pcsp.analysis import (
    acceptances_after, refines_failures, refines_traces, strong_bisim,
    traces_upto,
)
from pcsp.conditions import check_seq
from pcsp.cose import concretize
from pcsp.lts import TAU, Event, Lts, label_key
from pcsp.parser import parse_definitions
from pcsp.std_semantics import build_lts
from pcsp.syntax import (
    AlphaPar, Atom, BoolAnd, BoolNot, BoolOr, Cmp, Condition, DiffType, DOLLAR,
    ExtChoice, Hide, Ident, If, IntChoice, Interleave, MixedGuard, NatMin,
    NatOp, Prefix, QUERY, Rename, ReplAlphaPar, ReplExtChoice, ReplIntChoice,
    ReplInterleave, SetType, SharedPar, Sliding, Stop, T_TYPE, TVal, VarRef,
    canonicalise, free_vars, map_subterms, subterms,
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
    """Two LTSs of 1..6 states each over τ and a shared pool of up to four
    visible labels.  The second is drawn on its own, or is the first with its
    states numbered in another order and, half of those times, one edge
    redrawn, so that bisimilar pairs and pairs that differ only deep down
    both come up."""
    pool = (TAU,) + tuple(draw(st.lists(st.sampled_from(_LABELS), min_size=1,
                                        max_size=4, unique=True)))

    def edge(n):
        return st.tuples(st.sampled_from(pool), st.integers(0, n - 1),
                         st.none())

    def lts():
        n = draw(st.integers(1, 6))
        edges = [draw(st.lists(edge(n), max_size=3)) for _ in range(n)]
        return Lts(draw(st.integers(0, n - 1)), list(range(n)), list(range(n)),
                   edges, frozenset(), 2)

    l1 = lts()
    mode = draw(st.sampled_from(("drawn", "renumbered", "edited")))
    if mode == "drawn":
        return l1, lts()
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
    return l1, Lts(order[l1.root], l1.states, l1.keys, renumbered, frozenset(), 2)


@given(lts_pairs())
@settings(max_examples=300, deadline=None)
def test_strong_bisim_agrees_with_the_reference(pair):
    assert strong_bisim(*pair) == _reference_strong_bisim(*pair)


# -- the canonicalising walk against the walks it replaced -------------------

def _reference_free_vars(term) -> frozenset[str]:
    """free_vars as it was before the canonicalising walk recorded free
    names: a second copy of the binder-scoping rules (input binders scope
    over the fields to their right and the continuation, replicated binders
    over the alphabet and the body)."""

    def scalar(e):
        if isinstance(e, VarRef):
            return frozenset((e.name,))
        if isinstance(e, (NatOp, NatMin)):
            return scalar(e.left) | scalar(e.right)
        return frozenset()

    def boolean(b):
        if isinstance(b, Cmp):
            return scalar(b.left) | scalar(b.right)
        if isinstance(b, BoolNot):
            return boolean(b.arg)
        if isinstance(b, (BoolAnd, BoolOr)):
            return boolean(b.left) | boolean(b.right)
        return frozenset()

    def guard(g):
        if isinstance(g, Condition):
            return frozenset(s for a in g.atoms for s in a if isinstance(s, str))
        if isinstance(g, MixedGuard):
            out = frozenset(s for a in g.t_atoms for s in a if isinstance(s, str))
            for b in g.other:
                out |= boolean(b)
            return out
        return boolean(g)

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
        return fv(term.proc)
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
                out |= scalar(a)
        return out
    raise AssertionError(f"unknown term {term!r}")


def _reference_uids(term) -> tuple[int, ...]:
    """The uids of iter_constructs(term), the recursive construct walk the
    state graph keyed leaves by before: pre-order, identifiers not
    unfolded."""
    out = (term.construct.uid,) if isinstance(term, Prefix) else ()
    for sub in subterms(term):
        out += _reference_uids(sub)
    return out


def _check_canonicalise(term, env):
    canon, free, uids = canonicalise(term, env)
    assert free == _reference_free_vars(term) == free_vars(term)
    assert uids == _reference_uids(term)
    # the canonical form keeps every uid, and exactly the free names that
    # env does not replace
    assert _reference_uids(canon) == uids
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
