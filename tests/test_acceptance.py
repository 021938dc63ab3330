"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Every expected value is an exact integer or an exact
structural property; there are no tolerances to tune."""

from __future__ import annotations

import itertools
import time

from conftest import (
    ALL_CORPUS_FILES, CORPUS_SEQ, SEQNORM_SPECS, bigprop_testcases, load,
    proc_body,
)
from pcsp import conditions
from pcsp.analysis import refines, refines_failures, strong_bisim
from pcsp.cose import concretize
from pcsp.lts import Event, TAU
from pcsp.parser import parse_definitions
from pcsp.reduction import (
    CollapsingFn, thresh_failures, thresh_traces, verify_pmcp,
)
from pcsp.ssos import Vis, build_sslts
from pcsp.std_semantics import build_lts, file_alphabet, tvalues_for
from pcsp.syntax import Guard, TVal, substitute
from reference import (
    acceptances_after, check_environment_uniqueness, check_monotonicity,
    check_unique_matching_construct, fmt_definitions, has_failure, traces_upto,
)


def ev(ch, *idx):
    return Event(ch, tuple(TVal(i) for i in idx))


def report(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_congruence():
    started = time.time()
    processes = 0
    for fname, proc, init in CORPUS_SEQ:
        defs = load(fname)
        body = proc_body(defs, proc)
        processes += 1
        for n in (1, 2, 3):
            closed = substitute(body, init) if init else body
            std = build_lts(defs, closed, n)
            sym = concretize(defs, body, n, init_env=init)
            ok, formula = strong_bisim(std, sym)
            assert ok, (fname, proc, n, formula)
    elapsed = time.time() - started
    report(1, processes >= 10 and elapsed < 10.0,
           f"standard and environment semantics strongly bisimilar for "
           f"{processes} sequential processes at sizes 1-3 in {elapsed:.1f}s")


def test_criterion_2_symbolic_structure():
    s = build_sslts(load("running.pcsp"), "P")
    root_taus = [l for l, _, _ in s.edges[s.root] if l is TAU]
    vis = sorted(str(l) for es in s.edges for l, _, _ in es if isinstance(l, Vis))
    conds = sorted(str(l) for es in s.edges for l, _, _ in es if isinstance(l, Guard))
    ok = (len(s.edges[s.root]) == 2 and len(root_taus) == 2
          and vis == ["c!a$y:t?z:t", "c!b$y:t?z:t", "d.a", "d.b"]
          and conds == ["y!=z", "y!=z", "y==z", "y==z"])
    report(2, ok, "symbolic transition system of the running example has the "
           "expected 2 internal, 2+2 visible and 4 conditional edges")


def test_criterion_3_thresholds():
    mutex = load("mutex.pcsp")
    tc = load("traces-count.pcsp")
    spec = build_sslts(mutex, "Spec")
    got = {
        "mutex/traces": thresh_traces(spec)[0],
        "P/traces": thresh_traces(build_sslts(tc, "P"))[0],
        "mutex/failures": thresh_failures(spec, thresh_traces(spec)[0])[0],
        "Q/traces": thresh_traces(build_sslts(tc, "Q"))[0],
    }
    want = {"mutex/traces": 1, "P/traces": 2, "mutex/failures": 1, "Q/traces": 1}
    report(3, got == want, f"thresholds {got} equal expected {want}")


def test_criterion_4_mixed_input_counterexamples():
    phi = CollapsingFn(1)
    d11 = load("ex511.pcsp")
    collapsed = refines_failures(build_lts(d11, "Spec", 2),
                                 phi.lts(build_lts(d11, "Impl", 3)))
    full = refines_failures(build_lts(d11, "Spec", 3), build_lts(d11, "Impl", 3))
    ok11 = (collapsed.holds and not full.holds and full.trace == ()
            and full.refusal == {ev("c", 0, 0), ev("c", 1, 1), ev("c", 2, 2)})
    d12 = load("ex512.pcsp")
    collapsed12 = refines_failures(build_lts(d12, "Spec", 2),
                                   phi.lts(build_lts(d12, "Impl", 4)))
    full12 = refines_failures(build_lts(d12, "Spec", 4), build_lts(d12, "Impl", 4))
    ok12 = collapsed12.holds and not full12.holds
    report(4, ok11 and ok12,
           "collapsed refinements hold while the full ones fail, with the "
           "expected diagonal refusal at size 3")


def test_criterion_5_mutex_end_to_end():
    started = time.time()
    mutex = load("mutex.pcsp")
    phi = CollapsingFn(1)
    ok = True
    for model in ("traces", "failures"):
        verdict = verify_pmcp(mutex, "Spec", "Impl", model, sizes=[1, 2, 3, 4],
                              abst="Abst", valid_from=3, premise_sizes=(3, 4, 5))
        ok = ok and verdict.bound == 1 and verdict.holds() \
            and "#T >= 3" in verdict.conclusion
        spec_hat = build_lts(mutex, "Spec", 2)
        abst_hat = build_lts(mutex, "Abst", 2)
        ok = ok and refines(spec_hat, abst_hat, model).holds
        for n in (1, 2, 3, 4):
            ok = ok and refines(build_lts(mutex, "Spec", n),
                                build_lts(mutex, "Impl", n), model).holds
        for n in (3, 4, 5):
            ok = ok and refines(abst_hat, phi.lts(build_lts(mutex, "Impl", n)),
                                model).holds
    elapsed = time.time() - started
    report(5, ok and elapsed < 30.0,
           f"mutex verified end to end in both models in {elapsed:.1f}s "
           "(B=1, conclusion for all #T >= 3, direct sizes 1-4, premise "
           "sampled at 3-5)")


def test_criterion_6_proposition_vectors():
    cases = bigprop_testcases()
    bad = [c.name for c in cases if not c.holds]
    report(6, len(cases) == 8 and not bad,
           f"all 8 trace/failure extension instances hold {bad or ''}")


def test_criterion_7_regularity():
    failures = []
    for fname, proc, init in SEQNORM_SPECS:
        defs = load(fname)
        body = proc_body(defs, proc)
        ltss = {}
        for n in (2, 3):
            lts = concretize(defs, body, n, init_env=init, terms=True)
            ltss[n] = lts
            for problem in check_environment_uniqueness(lts):
                failures.append((fname, proc, n, problem))
            for problem in check_unique_matching_construct(lts):
                failures.append((fname, proc, n, problem))
        for problem in check_monotonicity(ltss[2], ltss[3]):
            failures.append((fname, proc, "2<=3", problem))
    report(7, not failures,
           f"environment uniqueness, construct uniqueness and monotonicity "
           f"hold for {len(SEQNORM_SPECS)} normal specifications at sizes "
           f"2 and 3 ({len(failures)} violations)")


def test_criterion_8_condition_verdicts():
    rows = []
    copying = load("copy.pcsp")
    ring = load("ring.pcsp")
    mutex = load("mutex.pcsp")
    ex33 = load("ex33.pcsp")
    ex315 = load("ex315.pcsp")
    ex511 = load("ex511.pcsp")
    rows.append(("COPY TypeSym", conditions.check_typesym_syntactic(
        "COPY", copying).verdict == "pass"))
    rows.append(("ring TypeSym", conditions.check_typesym_syntactic(
        "Nodes", ring).verdict == "fail"))
    rows.append(("Node DI", conditions.check_data_independence(
        "Node", mutex).verdict == "pass"))
    rows.append(("Nodes DI", conditions.check_data_independence(
        "Nodes", mutex).verdict == "fail"))
    seq_v = conditions.check_seq("SeqV", ex33)
    rows.append(("Seq clause v", seq_v.verdict == "fail"
                 and {f.clause for f in seq_v.findings} == {"v"}))
    seq_vi = conditions.check_seq("SeqVI", ex33)
    rows.append(("Seq clause vi", seq_vi.verdict == "fail"
                 and {f.clause for f in seq_vi.findings} == {"vi"}))
    rows.append(("R1 RevPosConjEqT_F", conditions.revposconjeqt_evidence(
        "R1", ex315, "failures", (2, 3)).verdict == "evidence"))
    rows.append(("R2 RevPosConjEqT_T", conditions.revposconjeqt_evidence(
        "R2", ex315, "traces", (2, 3)).verdict == "fail"))
    rows.append(("ex511 mixed inputs", conditions.check_no_mixed_inputs(
        "Spec", ex511).verdict == "fail"))
    bad = [name for name, ok in rows if not ok]
    report(8, not bad, f"condition verdict table matches ({len(rows)} rows"
           + (f"; wrong: {bad}" if bad else "") + ")")


def test_criterion_9_property_suites():
    problems = []

    # parse/print round trip over every bundled file
    for name in ALL_CORPUS_FILES:
        defs = load(name)
        again = parse_definitions(fmt_definitions(defs), filename=name)
        for eq_name, eq in defs.equations.items():
            if again.equations[eq_name].body != eq.body:
                problems.append(f"roundtrip {name}:{eq_name}")

    # trace prefix closure and refusal subset closure
    mutex = load("mutex.pcsp")
    impl = build_lts(mutex, "Impl", 2)
    trs = traces_upto(impl, 4)
    for t in trs:
        if any(t[:i] not in trs for i in range(len(t))):
            problems.append(f"prefix closure {t}")
    sigma = sorted(impl.alphabet, key=str)
    probe = (ev("enterCS", 0),)
    for acc in acceptances_after(impl, probe):
        refused = [e for e in sigma if e not in acc][:4]
        for k in range(len(refused) + 1):
            for sub in itertools.combinations(refused, k):
                if not has_failure(impl, probe, frozenset(sub)):
                    problems.append(f"subset closure {sub}")

    # refinement reflexivity and transitivity
    spec2 = build_lts(mutex, "Spec", 2)
    abst2 = build_lts(mutex, "Abst", 2)
    phi_impl3 = CollapsingFn(1).lts(build_lts(mutex, "Impl", 3))
    for model in ("traces", "failures"):
        for lts in (spec2, abst2, impl):
            if not refines(lts, lts, model).holds:
                problems.append(f"reflexivity {model}")
        if (refines(spec2, abst2, model).holds
                and refines(abst2, phi_impl3, model).holds
                and not refines(spec2, phi_impl3, model).holds):
            problems.append(f"transitivity {model}")

    # collapsing function idempotence over the corpus alphabets
    phi = CollapsingFn(1)
    for name in ALL_CORPUS_FILES:
        defs = load(name)
        for e in file_alphabet(defs, tvalues_for(3)):
            if phi.event(phi.event(e)) != phi.event(e):
                problems.append(f"phi idempotence {e}")

    report(9, not problems,
           f"round-trip, closure, refinement-order and collapsing-function "
           f"properties hold across the corpus ({len(problems)} violations)")
