from __future__ import annotations

import itertools
import math
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load
from pcsp.analysis import (
    _divergent_states, _invariant_under, divergence_free, normalise, perm_event_fn,
    permutation_bisim_check, refines_failures, refines_traces, strong_bisim,
)
from pcsp.errors import SemanticsError
from pcsp.lts import TAU, Event, Lts, rename_lts
from pcsp.parser import parse_definitions
from pcsp.std_semantics import StateGraph, build_lts
from pcsp.syntax import Stop, TVal
from reference import (
    acceptances_after, has_failure, has_trace, initials_after, observation_holds,
    traces_upto,
)


def ev(ch, *idx):
    return Event(ch, tuple(TVal(i) for i in idx))


# -- traces and failures ----------------------------------------------------

def test_traces_of_stop():
    defs = parse_definitions("channel a\n")
    lts = build_lts(defs, Stop(), 1)
    assert traces_upto(lts, 3) == {()}


def test_mutex_spec_traces(mutex):
    lts = build_lts(mutex, "Spec", 2)
    assert has_trace(lts, (ev("enterCS", 0), ev("leaveCS", 0)))
    assert not has_trace(lts, (ev("enterCS", 0), ev("leaveCS", 1)))


def test_traces_are_prefix_closed(mutex):
    lts = build_lts(mutex, "Impl", 2)
    tr = traces_upto(lts, 4)
    for t in tr:
        for i in range(len(t)):
            assert t[:i] in tr


def test_failures_of_selection():
    defs = parse_definitions("""
channel c : t
P = c$x:{0,1} -> STOP
""")
    lts = build_lts(defs, "P", 2)
    assert has_failure(lts, (), {ev("c", 1)})
    assert has_failure(lts, (), {ev("c", 0)})
    assert not has_failure(lts, (), {ev("c", 0), ev("c", 1)})


def test_refusals_are_subset_closed(mutex):
    lts = build_lts(mutex, "Impl", 2)
    sigma = sorted(lts.alphabet, key=str)
    for acc in acceptances_after(lts, (ev("enterCS", 0),)):
        refused = [e for e in sigma if e not in acc][:4]
        for k in range(len(refused) + 1):
            for sub in itertools.combinations(refused, k):
                assert has_failure(lts, (ev("enterCS", 0),), frozenset(sub))


def test_initials_after(mutex):
    lts = build_lts(mutex, "Spec", 2)
    assert initials_after(lts, ()) == {ev("enterCS", 0), ev("enterCS", 1)}
    assert initials_after(lts, (ev("enterCS", 1),)) == {ev("leaveCS", 1)}


# -- refinement -----------------------------------------------------------------

def test_refinement_reflexive_on_corpus(mutex, running):
    for lts in (build_lts(mutex, "Spec", 2), build_lts(mutex, "Impl", 2),
                build_lts(running, "P", 2)):
        assert refines_traces(lts, lts).holds
        assert refines_failures(lts, lts).holds


def test_refinement_transitive(mutex):
    from pcsp.reduction import CollapsingFn
    spec = build_lts(mutex, "Spec", 2)
    abst = build_lts(mutex, "Abst", 2)
    phi_impl = CollapsingFn(1).lts(build_lts(mutex, "Impl", 3))
    assert refines_traces(spec, abst).holds
    assert refines_traces(abst, phi_impl).holds
    assert refines_traces(spec, phi_impl).holds


def test_trace_counterexample_is_shortest():
    defs = parse_definitions("""
channel a, b
Spec = a -> Spec
Impl = a -> b -> STOP
""")
    v = refines_traces(build_lts(defs, "Spec", 1), build_lts(defs, "Impl", 1))
    assert not v.holds
    assert v.trace == (Event("a", ()), Event("b", ()))
    assert v.kind == "trace"


def test_failures_counterexample_reports_refusal():
    defs = parse_definitions("""
channel a, b
Spec = a -> STOP [] b -> STOP
Impl = a -> STOP |~| b -> STOP
""")
    assert refines_traces(build_lts(defs, "Spec", 1),
                          build_lts(defs, "Impl", 1)).holds
    v = refines_failures(build_lts(defs, "Spec", 1), build_lts(defs, "Impl", 1))
    assert not v.holds and v.kind == "refusal"
    assert v.trace == ()
    assert v.refusal in ({Event("a", ())}, {Event("b", ())})


def test_failures_divergent_spec_is_a_diagnostic():
    defs = parse_definitions("""
channel a
Div = Div |~| Div
Impl = a -> STOP
""")
    with pytest.raises(SemanticsError):
        refines_failures(build_lts(defs, "Div", 1), build_lts(defs, "Impl", 1))


def test_ex511_reproduction():
    from pcsp.reduction import CollapsingFn
    defs = load("ex511.pcsp")
    phi = CollapsingFn(1)
    spec_hat = build_lts(defs, "Spec", 2)
    impl3 = build_lts(defs, "Impl", 3)
    assert refines_failures(spec_hat, phi.lts(impl3)).holds
    v = refines_failures(build_lts(defs, "Spec", 3), impl3)
    assert not v.holds
    assert v.trace == ()
    assert v.refusal == {ev("c", 0, 0), ev("c", 1, 1), ev("c", 2, 2)}


def test_normalisation_is_deterministic_with_minimal_acceptances(mutex):
    norm = normalise(build_lts(mutex, "Impl", 2))
    for row in norm.trans:
        assert len(row) == len(set(row))
    for accs in norm.acceptances:
        for a, b in itertools.combinations(accs, 2):
            assert not (a <= b or b <= a)


# -- bisimulation -----------------------------------------------------------------

def test_bisim_reflexive(mutex):
    lts = build_lts(mutex, "Impl", 2)
    ok, _ = strong_bisim(lts, lts)
    assert ok


def test_bisim_depth_mismatch():
    defs = parse_definitions("""
channel a
P = a -> STOP
Q = a -> a -> STOP
""")
    ok, formula = strong_bisim(build_lts(defs, "P", 1), build_lts(defs, "Q", 1))
    assert not ok
    assert formula and "a" in formula


def test_bisimilar_implies_equal_denotations():
    from conftest import CORPUS_SEQ, load, proc_body
    from pcsp.cose import concretize
    from pcsp.syntax import substitute
    for fname, proc, init in CORPUS_SEQ:
        defs = load(fname)
        body = proc_body(defs, proc)
        closed = substitute(body, init) if init else body
        std = build_lts(defs, closed, 2)
        sym = concretize(defs, body, 2, init_env=init)
        assert strong_bisim(std, sym)[0], (fname, proc)
        for spec, impl in ((std, sym), (sym, std)):
            assert refines_traces(spec, impl).holds, (fname, proc)
            assert refines_failures(spec, impl).holds, (fname, proc)



def test_bisim_keeps_no_per_edge_objects():
    # traces-count's P at #T=8 has 578 states and 26 560 transitions in each
    # semantics.  A second copy of every edge as a (label id, target) tuple
    # and a frozenset of (label, block) pairs per state each round peaked at
    # 4.35 MB; rows of label offsets and targets built once, and signatures
    # of ints, peak at about 1.4 MB.  tracemalloc counts allocations, not
    # time, so the figure repeats exactly
    import tracemalloc
    from pcsp.cose import concretize
    defs = load("traces-count.pcsp")
    std, sym = build_lts(defs, "P", 8), concretize(defs, "P", 8)
    tracemalloc.start()
    try:
        assert strong_bisim(std, sym) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak

# -- divergence ---------------------------------------------------------------------

def test_divergence_examples(mutex):
    assert divergence_free(build_lts(mutex, "Spec", 2))
    defs = parse_definitions("channel a\nDiv = Div |~| Div\n")
    assert not divergence_free(build_lts(defs, "Div", 1))
    defs2 = parse_definitions("channel a\n")
    assert divergence_free(build_lts(defs2, Stop(), 1))


def test_hidden_cycle_diverges():
    defs = parse_definitions("""
channel hid : t
Loop = hid$x:t -> Loop
HDiv = Loop \\ {|hid|}
""")
    assert not divergence_free(build_lts(defs, "HDiv", 2))


def test_long_tau_chain_into_a_loop_diverges_everywhere():
    # 5 000 states in a τ chain ending in a τ self-loop: every state reaches
    # the loop; finding them is linear in the edges, so it takes milliseconds
    n = 5000
    edges = [[(TAU, s + 1, None)] for s in range(n - 1)] + [[(TAU, n - 1, None)]]
    lts = Lts(0, list(range(n)), edges, frozenset())
    start = time.perf_counter()
    assert _divergent_states(lts) == frozenset(range(n))
    assert time.perf_counter() - start < 2.0


# -- semantic symmetry -----------------------------------------------------------------

def test_copy_is_symmetric():
    r = permutation_bisim_check(load("copy.pcsp"), "COPY", (2, 3))
    assert r.verdict == "evidence"


def test_ring_breaks_symmetry_at_the_papers_permutation():
    defs = load("ring.pcsp")
    lts = build_lts(defs, "Nodes", 4)
    perm = (2, 1, 3, 0)
    renamed = rename_lts(lts, perm_event_fn(perm))
    ok, _ = strong_bisim(lts, renamed)
    assert not ok
    # the named trace witnesses the asymmetry
    assert has_trace(lts, (ev("send", 1, 2),))
    assert not has_trace(lts, (ev("send", 1, 3),))


def test_a_passing_check_renames_nothing_and_builds_no_term(mutex):
    # both generators pass at #T=4 and 5, each size decided by one
    # refinement over label views of a build whose states stay node ids
    def forbidden(*args):
        raise AssertionError("called on a passing check")

    with mock.patch("pcsp.analysis.rename_lts", forbidden), \
            mock.patch.object(StateGraph, "term", forbidden):
        r = permutation_bisim_check(mutex, "Impl", (4, 5))
    assert (r.verdict, r.notes) == (
        "evidence", ["bisimilar to all 144 bijective renamings at sizes {4,5}"])


def test_everything_symmetric_at_size_one(mutex):
    r = permutation_bisim_check(mutex, "Impl", (1,))
    assert r.verdict == "evidence"


def test_symmetric_traces_remark(mutex):
    # full symmetry makes the bounded trace set invariant under bijections
    for n in (2, 3):
        lts = build_lts(mutex, "Impl", n)
        tr = traces_upto(lts, 4)
        for perm in itertools.permutations(range(n)):
            fn = perm_event_fn(perm)
            assert {tuple(fn(e) for e in t) for t in tr} == tr


def _compose(p, q):
    return tuple(p[i] for i in q)


@st.composite
def tval_ltss(draw, n):
    """An LTS of up to 7 states over τ, c.i and d.i.j with i, j < n.  Drawn
    on its own or, to reach every path of the generator check, made invariant
    under the bijections of a drawn subgroup of S_n (the transposition's, the
    n-cycle's or all of it): below a new root, a τ-step to a renamed copy of
    the drawn LTS for each member of the subgroup."""
    vals = [TVal(i) for i in range(n)]
    labels = [TAU] + [Event("c", (v,)) for v in vals] + [
        Event("d", (v, w)) for v in vals for w in vals]
    k = draw(st.integers(1, 7))
    edge = st.tuples(st.sampled_from(labels), st.integers(0, k - 1), st.none())
    base = Lts(0, list(range(k)), [draw(st.lists(edge, max_size=3)) for _ in range(k)],
               frozenset())
    gens = draw(st.sampled_from(
        ((), ((1, 0, *range(2, n)),), ((*range(1, n), 0),),
         ((1, 0, *range(2, n)), (*range(1, n), 0))))) if n > 1 else ()
    if not gens:
        return base
    group = {tuple(range(n))}
    while True:
        more = {_compose(g, p) for g in gens for p in group} - group
        if not more:
            break
        group |= more
    edges = [[(TAU, 1 + i * k, None) for i in range(len(group))]]
    for p in sorted(group):
        copy = rename_lts(base, perm_event_fn(p))
        off = len(edges)
        edges += [[(lab, off + t, uid) for lab, t, uid in es] for es in copy.edges]
    return Lts(0, list(range(len(edges))), edges, frozenset())


@given(st.integers(2, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_one_refinement_decides_each_generator(n, data):
    # some states hold another state's row object, as states that move
    # alike do in lts.build
    lts = data.draw(tval_ltss(n))
    edges = list(lts.edges)
    k = len(edges)
    for s in data.draw(st.lists(st.integers(0, k - 1), max_size=k)):
        edges[s] = edges[data.draw(st.integers(0, k - 1))]
    lts = Lts(lts.root, lts.states, edges, lts.alphabet)
    fns = [perm_event_fn(g) for g in ((1, 0, *range(2, n)), (*range(1, n), 0))]
    each = [strong_bisim(lts, rename_lts(lts, fn))[0] for fn in fns]
    assert [_invariant_under(lts, [fn]) for fn in fns] == [[ok] for ok in each]
    assert _invariant_under(lts, fns) == each


@st.composite
def sized_tval_ltss(draw):
    sizes = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=2)))
    return {n: draw(tval_ltss(n)) for n in sizes}


@given(sized_tval_ltss())
@settings(max_examples=100, deadline=None)
def test_generator_check_equals_the_exhaustive_check(ltss):
    with mock.patch("pcsp.std_semantics.build_lts",
                    lambda defs, proc, n, max_states, **_: ltss[n]):
        got = permutation_bisim_check(None, "P", tuple(ltss))
    # the exhaustive check's verdict, and its findings restricted to the
    # transposition and the n-cycle, which generate S_n
    failing = []
    findings = []
    for n, lts in ltss.items():
        generators = {(1, 0, *range(2, n)), (*range(1, n), 0)} if n > 1 else set()
        for perm in itertools.permutations(range(n)):
            ok, formula = strong_bisim(lts, rename_lts(lts, perm_event_fn(perm)))
            if not ok:
                failing.append(perm)
                if perm in generators:
                    pi = ", ".join(f"{i}->{perm[i]}" for i in range(n))
                    findings.append(f"(bisim) [P] not bisimilar to its renaming under "
                                    f"{{{pi}}} at #T={n}; distinguished by {formula}")
    total = sum(math.factorial(n) for n in ltss)
    sizes = ",".join(map(str, ltss))
    want = (("fail", findings, []) if failing else
            ("evidence", [], [f"bisimilar to all {total} bijective renamings "
                              f"at sizes {{{sizes}}}"]))
    assert (got.verdict, [f.render() for f in got.findings], got.notes) == want


@given(sized_tval_ltss())
@settings(max_examples=100, deadline=None)
def test_each_finding_tells_the_lts_from_its_generator_renaming(ltss):
    with mock.patch("pcsp.std_semantics.build_lts",
                    lambda defs, proc, n, max_states, **_: ltss[n]):
        got = permutation_bisim_check(None, "P", tuple(ltss))
    for finding in got.findings:
        m = re.fullmatch(r"not bisimilar to its renaming under \{(.*)\} at #T=(\d+); "
                         r"distinguished by (.*)", finding.message)
        perm = tuple(int(pair.split("->")[1]) for pair in m[1].split(", "))
        lts = ltss[int(m[2])]
        renamed = rename_lts(lts, perm_event_fn(perm))
        assert observation_holds(m[3], lts, lts.root)
        assert not observation_holds(m[3], renamed, renamed.root)


@st.composite
def small_ltss(draw):
    """Random LTSs of 1..7 states whose edges carry τ or the event a."""
    n = draw(st.integers(1, 7))
    edge = st.tuples(st.sampled_from((TAU, Event("a"))), st.integers(0, n - 1))
    edges = [[(lab, tgt, None) for lab, tgt in draw(st.lists(edge, max_size=3))]
             for _ in range(n)]
    return Lts(0, list(range(n)), edges, frozenset())


@given(small_ltss())
@settings(max_examples=300, deadline=None)
def test_divergent_states_are_those_with_a_long_tau_path(lts):
    # a τ-path as long as the state count repeats a state, so it reaches a
    # τ-cycle; states with a τ-path of length k: R_0 all, R_k+1 = pre(R_k)
    n = lts.n_states()
    reach = set(range(n))
    for _ in range(n):
        reach = {s for s in range(n)
                 if any(lab is TAU and t in reach for lab, t, _ in lts.edges[s])}
    assert _divergent_states(lts) == reach
    assert divergence_free(lts) == (not _divergent_states(lts))
