"""Dual-route checks: the product-automaton refinement decision against an
extensional oracle built from bounded trace/acceptance enumeration, the
congruence of the two concrete semantics on randomly generated sequential
terms, and strong bisimulation over interned labels against the
label_key-signature partition refinement it replaced."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from conftest import load
from pcsp.analysis import (
    acceptances_after, refines_failures, refines_traces, strong_bisim,
    traces_upto,
)
from pcsp.conditions import check_seq
from pcsp.cose import concretize
from pcsp.lts import TAU, Event, Lts, label_key
from pcsp.parser import parse_definitions
from pcsp.std_semantics import build_lts
from pcsp.syntax import TVal

from test_syntax import terms

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
