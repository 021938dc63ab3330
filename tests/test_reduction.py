from __future__ import annotations

import pytest

from conftest import ALL_CORPUS_FILES, bigprop_testcases, load, proc_body
from pcsp import reduction
from pcsp.analysis import refines
from pcsp.errors import PcspError, UsageError
from pcsp.lts import Event
from pcsp.parser import parse_definitions
from pcsp.reduction import (
    CollapsingFn, compute_thresholds, thresh_failures, thresh_traces,
    verify_pmcp,
)
from pcsp.ssos import Vis, build_sslts, nont_event_key
from pcsp.std_semantics import Engine, StateGraph, build_lts
from pcsp.syntax import TVal, classify_fields
from reference import frontiers_by_paths, symbolic_traces


def ev(ch, *idx):
    return Event(ch, tuple(TVal(i) for i in idx))


# -- collapsing functions -----------------------------------------------------

def test_phi_values():
    phi = CollapsingFn(1)
    assert phi.value(TVal(0)) == TVal(0)
    assert phi.value(TVal(1)) == TVal(1)
    assert phi.value(TVal(2)) == TVal(1)


def test_phi_idempotent_and_fixed_below_bound(mutex):
    phi = CollapsingFn(1)
    from pcsp.std_semantics import file_alphabet, tvalues_for
    for e in sorted(file_alphabet(mutex, tvalues_for(3)), key=str):
        assert phi.event(phi.event(e)) == phi.event(e)
        if all(v.index < 1 for v in e.values):
            assert phi.event(e) == e


# -- thresholds -----------------------------------------------------------------

def oracle_traces_threshold(s, depth: int) -> int:
    """Independent brute-force evaluation of the traces threshold: enumerate
    every symbolic trace ending in a visible event up to the depth, group by
    the non-t projection, and take the largest union of t-output index
    sets."""
    groups = {}
    for sigma in symbolic_traces(s, depth):
        if not sigma or not isinstance(sigma[-1], Vis):
            continue
        key = tuple(nont_event_key(l.event) for l in sigma if isinstance(l, Vis))
        groups.setdefault(key, set()).update(
            classify_fields(sigma[-1].event).bang_t)
    return max((len(v) for v in groups.values()), default=0)


def test_mutex_spec_thresholds(mutex):
    s = build_sslts(mutex, "Spec")
    assert thresh_traces(s)[0] == 1
    assert thresh_failures(s, thresh_traces(s)[0])[0] == 1
    assert oracle_traces_threshold(s, 4) == 1


def test_traces_count_p_threshold():
    defs = load("traces-count.pcsp")
    s = build_sslts(defs, "P")
    value, witness = thresh_traces(s)
    assert value == 2
    assert witness.positions == {1, 2}
    assert oracle_traces_threshold(s, 4) == 2


def test_traces_count_q_threshold_against_oracle():
    defs = load("traces-count.pcsp")
    s = build_sslts(defs, "Q")
    expected = oracle_traces_threshold(s, 4)
    assert expected == 1
    assert thresh_traces(s)[0] == expected


def test_stop_threshold():
    defs = parse_definitions("channel a : t\n")
    from pcsp.syntax import Stop
    s = build_sslts(defs, Stop())
    assert thresh_traces(s)[0] == 0
    assert thresh_failures(s, thresh_traces(s)[0])[0] == 0


def test_failures_threshold_at_least_traces():
    for fname, proc in (("mutex.pcsp", "Spec"), ("copy.pcsp", "COPY"),
                        ("bigprops.pcsp", "Proc"), ("ex512.pcsp", "Spec")):
        defs = load(fname)
        s = build_sslts(defs, proc_body(defs, proc))
        traces = thresh_traces(s)[0]
        # the failures threshold joins the traces threshold it is given
        assert thresh_failures(s, traces)[0] \
            == max(traces, thresh_failures(s, 0)[0]), (fname, proc)


def test_mixed_inputs_rejected_before_failures_threshold():
    defs = load("ex511.pcsp")
    from pcsp.errors import SemanticsError
    with pytest.raises(SemanticsError):
        compute_thresholds(defs, "Spec", "failures")


def test_conditional_free_bound():
    # without conditionals the threshold never exceeds the largest
    # per-construct t-output count, with equality when all are reachable
    for fname, proc in (("mutex.pcsp", "Spec"), ("copy.pcsp", "COPY"),
                        ("ex511.pcsp", "Spec"), ("ex512.pcsp", "Spec"),
                        ("ex33.pcsp", "SeqOK")):
        defs = load(fname)
        from pcsp.syntax import Prefix, unfold_walk
        body = proc_body(defs, proc)
        per_construct = max(
            (len(classify_fields(node.construct).bang_t)
             for node, _ in unfold_walk(body, defs) if isinstance(node, Prefix)),
            default=0)
        got = thresh_traces(build_sslts(defs, body))[0]
        assert got <= per_construct, (fname, proc)
        assert got == per_construct, (fname, proc)


def test_failures_threshold_counts_inputs():
    # one distinct output variable, plus the t inputs of every frontier
    # event counted with multiplicity: {x} + #{y} + #{z} = 3
    defs = parse_definitions("""
channel c : t.t
channel d : t
P = d?x:t -> (c!x?y:t -> P [] d?z:t -> P)
""")
    s = build_sslts(defs, "P")
    assert thresh_traces(s)[0] == 1
    assert thresh_failures(s, thresh_traces(s)[0])[0] == 3


def test_bigprops_failures_threshold():
    defs = load("bigprops.pcsp")
    s = build_sslts(defs, proc_body(defs, "Proc"))
    assert thresh_traces(s)[0] == 1
    value, witness, _notes = thresh_failures(s, thresh_traces(s)[0])
    assert value >= 1


def tau_diamonds(k: int, bottom: str = "STOP") -> str:
    """A SeqNorm spec whose failures frontier after a$x:t runs through k
    internal choices in a row, each rejoining at the next: 2^k paths over
    3k + 1 states."""
    lines = ["channel a : t", "channel b", f"P0 = {bottom}"]
    for i in range(1, k + 1):
        lines += [f"P{i} = A{i} |~| B{i}", f"A{i} = P{i - 1}", f"B{i} = P{i - 1}"]
    return "\n".join(lines + [f"Spec = a$x:t -> P{k}"]) + "\n"


def _frontier_cases():
    cases = [(load(f), name) for f in ALL_CORPUS_FILES
             for name, eq in sorted(load(f).equations.items()) if not eq.params]
    cases += [(parse_definitions(tau_diamonds(k, bottom)), "Spec")
              for k in (1, 4, 12) for bottom in ("STOP", "b -> STOP")]
    return cases


def _thresholds(defs, proc):
    out = []
    for model in ("traces", "failures"):
        try:
            out.append(compute_thresholds(defs, proc, model).to_dict())
        except PcspError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_frontier_walk_agrees_with_the_walk_over_paths(monkeypatch):
    # every pair of a simple path is found; a pair found only through a
    # cycle holds more conditions than a path's pair with its event
    walked = 0
    for defs, proc in _frontier_cases():
        try:
            s = build_sslts(defs, proc)
        except PcspError:
            continue
        for st in range(s.n_states()):
            got = reduction._frontiers(s, st)
            want = {(frozenset(c), e) for c, e in frontiers_by_paths(s, st)}
            assert want <= got, (proc, st)
            assert all(any(e == e2 and c2 <= c for c2, e2 in want)
                       for c, e in got - want), (proc, st)
            walked += 1
    assert walked > 100
    # so both walks give the same thresholds, witnesses and notes
    by_walk = [_thresholds(defs, proc) for defs, proc in _frontier_cases()]
    monkeypatch.setattr(reduction, "_frontiers", lambda s, st: {
        (frozenset(c), e) for c, e in frontiers_by_paths(s, st)})
    assert [_thresholds(defs, proc) for defs, proc in _frontier_cases()] == by_walk
    assert sum(isinstance(t, dict) for ts in by_walk for t in ts) >= 19


def test_failures_threshold_is_linear_in_tau_diamonds():
    # 2^40 paths: a walk over paths would not finish
    defs = parse_definitions(tau_diamonds(40))
    assert compute_thresholds(defs, "Spec", "failures").failures == 0


# -- the eight proposition instances ----------------------------------------------

def test_bigprop_cases_all_hold():
    cases = bigprop_testcases()
    assert len(cases) == 8
    for case in cases:
        assert case.holds, case.name


# -- the pipeline ----------------------------------------------------------------------

@pytest.mark.parametrize("model", ["traces", "failures"])
def test_mutex_pipeline(model, mutex):
    verdict = verify_pmcp(
        mutex, "Spec", "Impl", model, sizes=[1, 2, 3, 4],
        abst="Abst", valid_from=3, premise_sizes=(3, 4, 5))
    assert verdict.mode == "via-abstraction"
    assert verdict.bound == 1
    assert verdict.holds()
    assert "#T >= 3" in verdict.conclusion
    assert {r.n for r in verdict.sizes} == {1, 2}
    assert all(r.verdict.holds for r in verdict.sizes)
    assert all(p.verdict.holds for p in verdict.premises)


@pytest.mark.parametrize("abst", [None, "Abst"])
def test_pipeline_builds_each_process_once_per_size(mutex, monkeypatch, abst):
    calls = []

    def counting(defs, proc, n, *args, **kwargs):
        calls.append((proc, n))
        return build_lts(defs, proc, n, *args, **kwargs)

    monkeypatch.setattr(reduction, "build_lts", counting)
    verdict = verify_pmcp(mutex, "Spec", "Impl", "failures", sizes=[1, 2, 3, 4],
                          abst=abst, valid_from=3, premise_sizes=(3, 4))
    assert verdict.holds()
    assert len(calls) == len(set(calls))
    assert ("Spec", 2) in calls


@pytest.mark.parametrize("abst", [None, "Abst"])
def test_pipeline_builds_every_size_over_one_engine(mutex, monkeypatch, abst):
    # the two verify invocations of the benchmark: every build of a run
    # shares one standard-semantics engine, which numbers each equation
    # body once (the symbolic semantics keeps engines of its own)
    graphs, numbered = [], []
    init, number = StateGraph.__init__, Engine.number

    def recording_init(self, engine, *args, **kwargs):
        graphs.append((type(self), engine))
        init(self, engine, *args, **kwargs)

    def recording_number(self, term):
        numbered.append((self, term))
        return number(self, term)

    monkeypatch.setattr(StateGraph, "__init__", recording_init)
    monkeypatch.setattr(Engine, "number", recording_number)
    if abst is None:
        verdict = verify_pmcp(mutex, "Spec", "Impl", "failures", sizes=range(1, 8))
    else:
        verdict = verify_pmcp(mutex, "Spec", "Impl", "failures", sizes=[1, 2, 3, 4],
                              abst=abst, valid_from=3, premise_sizes=(3, 4, 5))
    assert verdict.holds()
    engines = {id(engine): engine for cls, engine in graphs if cls is StateGraph}
    assert len(engines) == 1
    (engine,) = engines.values()
    assert sum(cls is StateGraph for cls, _ in graphs) >= 10
    bodies = [term for owner, term in numbered if owner is engine
              and any(term is eq.body for eq in mutex.equations.values())]
    assert bodies and len(bodies) == len({id(term) for term in bodies})


def test_abstraction_mode_needs_valid_from(mutex):
    with pytest.raises(UsageError, match="valid_from"):
        verify_pmcp(mutex, "Spec", "Impl", "traces", sizes=[1, 2], abst="Abst")


def test_ex511_pipeline_downgrades():
    defs = load("ex511.pcsp")
    verdict = verify_pmcp(defs, "Spec", "Impl", "failures", sizes=[3],
                          assume_typesym=True)
    assert verdict.mode == "direct-per-size"
    assert not verdict.holds()
    row = verdict.sizes[0]
    assert row.method == "direct" and not row.verdict.holds
    assert row.verdict.refusal == {ev("c", 0, 0), ev("c", 1, 1), ev("c", 2, 2)}
    mixed = [c for c in verdict.conditions if c.name == "no-mixed-inputs"]
    assert mixed and mixed[0].verdict == "fail"


def test_phi_set_liftings():
    phi = CollapsingFn(1)
    assert frozenset(map(phi.value, {TVal(0), TVal(2)})) == {TVal(0), TVal(1)}
    assert frozenset(map(phi.event, {ev("c", 2), ev("c", 1)})) == {ev("c", 1)}


def test_failing_equality_test_hypothesis_downgrades():
    defs = load("ex315.pcsp")
    verdict = verify_pmcp(defs, "R2", "R2", "traces", sizes=[2])
    assert verdict.mode == "direct-per-size"
    eqt = [c for c in verdict.conditions if c.name.startswith("RevPosConjEqT")]
    assert eqt and eqt[0].verdict == "fail"
    # the direct check still runs (reflexive, so it holds)
    assert verdict.sizes[0].method == "direct"
    assert verdict.sizes[0].verdict.holds
    assert "hypothesis failure" in verdict.conclusion


def test_theorem_route_without_abstraction(mutex):
    verdict = verify_pmcp(mutex, "Spec", "Impl", "traces", sizes=[2, 3])
    assert verdict.bound == 1
    rows = {r.n: r for r in verdict.sizes}
    assert rows[2].method == "theorem" and rows[2].verdict.holds
    assert rows[3].method == "theorem" and rows[3].verdict.holds


@pytest.mark.parametrize("model", ["traces", "failures"])
def test_reduction_soundness_corroboration(model, mutex):
    # whenever the collapsed check passes, the direct check passes too
    B = 1
    phi = CollapsingFn(B)
    spec_hat = build_lts(mutex, "Spec", B + 1)
    for n in range(B + 1, B + 4):
        impl = build_lts(mutex, "Impl", n)
        collapsed = refines(spec_hat, phi.lts(impl), model)
        direct = refines(build_lts(mutex, "Spec", n), impl, model)
        assert collapsed.holds
        assert direct.holds


def test_ex511_traces_reduction_at_zero_bound():
    # with no t outputs the traces threshold is 0, and the reduction through
    # the single-value type is sound in the traces model
    defs = load("ex511.pcsp")
    assert compute_thresholds(defs, "Spec", "traces").traces == 0
    phi = CollapsingFn(0)
    spec_hat = build_lts(defs, "Spec", 1)
    for n in (1, 2, 3):
        impl = build_lts(defs, "Impl", n)
        assert refines(spec_hat, phi.lts(impl), "traces").holds
        assert refines(build_lts(defs, "Spec", n), impl, "traces").holds


def test_ex512_reproduction():
    defs = load("ex512.pcsp")
    phi = CollapsingFn(1)
    spec_hat = build_lts(defs, "Spec", 2)
    impl4 = build_lts(defs, "Impl", 4)
    assert refines(spec_hat, phi.lts(impl4), "failures").holds
    v = refines(build_lts(defs, "Spec", 4), impl4, "failures")
    assert not v.holds
    # the refusal hits every identity on some non-t value
    refused_ids = {e.values[0] for e in v.refusal if e.channel == "c"}
    assert refused_ids == {TVal(0), TVal(1), TVal(2), TVal(3)}
