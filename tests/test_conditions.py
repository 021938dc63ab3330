from __future__ import annotations

import pytest
from hypothesis import example, given, settings

import reference
from conftest import ALL_CORPUS_FILES, RENAMED_CONSTANT, load
from pcsp import analysis, conditions
from pcsp.parser import parse_definitions
from pcsp.std_semantics import StateGraph
from pcsp.syntax import Stop
from test_oracles import _DEFS, call_graphs
from test_syntax import terms


# -- data independence -------------------------------------------------------

def test_node_is_data_independent(mutex):
    assert conditions.check_data_independence("Node", mutex).verdict == "pass"


def test_nodes_fails_clause_i(mutex):
    r = conditions.check_data_independence("Nodes", mutex)
    assert r.verdict == "fail"
    assert {f.clause for f in r.findings} == {"i"}


def test_stop_is_data_independent(mutex):
    assert conditions.check_data_independence(Stop(), mutex).verdict == "pass"


def test_ring_fails_data_independence_constants():
    r = conditions.check_data_independence("Nodes", load("ring.pcsp"))
    assert r.verdict == "fail"
    assert "iii" in {f.clause for f in r.findings}


# -- Seq ----------------------------------------------------------------------

def test_seq_clause_v_name_clash():
    r = conditions.check_seq("SeqV", load("ex33.pcsp"))
    assert r.verdict == "fail"
    assert {f.clause for f in r.findings} == {"v"}


def test_seq_clause_vi_repeated_input_var():
    r = conditions.check_seq("SeqVI", load("ex33.pcsp"))
    assert r.verdict == "fail"
    assert {f.clause for f in r.findings} == {"vi"}


def test_mutex_spec_satisfies_seq(mutex):
    assert conditions.check_seq("Spec", mutex).verdict == "pass"


def test_mixed_guard_fails_clause_iv():
    defs = parse_definitions("""
datatype AB = a | b
channel c : AB.t.t
P = c?u:AB?x:t?y:t -> if x==y and u==a then STOP else STOP
""")
    r = conditions.check_seq("P", defs)
    assert "iv" in {f.clause for f in r.findings}


# -- SeqNorm -------------------------------------------------------------------

def test_shared_channel_choice_fails_seqnorm():
    r = conditions.check_seqnorm("SNShared", load("ex33.pcsp"))
    assert r.verdict == "fail"
    assert any(f.clause == "channels" for f in r.findings)


def test_mutex_spec_satisfies_seqnorm(mutex):
    assert conditions.check_seqnorm("Spec", mutex).verdict == "pass"


def test_disjoint_initial_channels_pass_seqnorm():
    defs = parse_definitions("""
channel enterCS, leaveCS : t
Spec = enterCS$i:t -> leaveCS!i -> Spec
P = Spec [] leaveCS$j:t -> STOP
""")
    assert conditions.check_seqnorm(Stop(), defs).verdict == "pass"
    assert conditions.check_seqnorm("Spec", defs).verdict == "pass"
    # a call's initial channels are those of its equation's body
    assert conditions.check_seqnorm("P", defs).verdict == "pass"


def test_initial_channels_of_an_internal_choice_are_the_union():
    defs = parse_definitions("""
channel a, b : t
P = a$x:t -> STOP |~| b$x:t -> STOP
Q = P [] b$y:t -> STOP
""")
    assert conditions.check_seqnorm("P", defs).verdict == "pass"
    r = conditions.check_seqnorm("Q", defs)
    assert [(f.clause, f.message, f.where) for f in r.findings] == [
        ("channels", "choice arguments share channel(s) b", "Q")]


def test_initial_channels_terminate_on_an_unguarded_cycle():
    defs = parse_definitions("""
channel a
P = Q [] a -> STOP
Q = P
""")
    r = conditions.check_seqnorm("P", defs)
    assert [(f.clause, f.message) for f in r.findings] == [
        ("channels", "choice arguments share channel(s) a")]


def test_conditional_before_prefix_fails_seqnorm():
    r = conditions.check_seqnorm("SNCond", load("ex33.pcsp"))
    assert r.verdict == "fail"
    assert any(f.clause == "cond-before-prefix" for f in r.findings)


# -- TypeSym (syntactic sufficient condition) ---------------------------------

def test_copy_passes_typesym():
    assert conditions.check_typesym_syntactic("COPY", load("copy.pcsp")).verdict == "pass"


def test_ring_fails_typesym():
    r = conditions.check_typesym_syntactic("Nodes", load("ring.pcsp"))
    assert r.verdict == "fail"


def test_mutex_impl_passes_typesym(mutex):
    assert conditions.check_typesym_syntactic("Impl", mutex).verdict == "pass"


def test_ex511_impl_fails_typesym_but_is_symmetric():
    # the selection from a proper subset of t defeats the syntactic
    # sufficient condition even though the process is fully symmetric
    defs = load("ex511.pcsp")
    r = conditions.check_typesym_syntactic("Impl", defs)
    assert r.verdict == "fail"
    assert "iv" in {f.clause for f in r.findings}


# -- t-constants in every part of a term's data ---------------------------------

_CONSTANT_CLAUSES = ((conditions.check_typesym_syntactic, "i"),
                     (conditions.check_data_independence, "iii"))


def test_constant_in_a_renaming_pair_is_reported():
    defs = parse_definitions(RENAMED_CONSTANT)
    for check, clause in _CONSTANT_CLAUSES:
        r = check("Impl", defs)
        assert r.verdict == "fail"
        assert [(f.where, f.message) for f in r.findings if f.clause == clause] \
            == [("W", "constant 2 of type t")] * 2


@pytest.mark.parametrize("body, constants", [
    ("|~| v:{0,1} @ c!v -> STOP", [0, 1]),
    ("||| i:(t\\{0}) @ c!i -> STOP", [0]),
])
def test_constants_in_a_replicated_domain_are_reported(body, constants):
    defs = parse_definitions(f"channel c : t\nP = {body}\n")
    for check, clause in _CONSTANT_CLAUSES:
        r = check("P", defs)
        assert [f.message for f in r.findings if f.clause == clause] \
            == [f"constant {k} of type t" for k in constants]


# -- mixed inputs ---------------------------------------------------------------

def test_ex511_spec_fails_mixed_inputs():
    r = conditions.check_no_mixed_inputs("Spec", load("ex511.pcsp"))
    assert r.verdict == "fail"


def test_mutex_spec_passes_mixed_inputs(mutex):
    assert conditions.check_no_mixed_inputs("Spec", mutex).verdict == "pass"


def test_stop_passes_mixed_inputs(mutex):
    assert conditions.check_no_mixed_inputs(Stop(), mutex).verdict == "pass"


# -- RevPosConjEqT ----------------------------------------------------------------

def test_r1_satisfies_failures_variant_as_evidence():
    r = conditions.revposconjeqt_evidence("R1", load("ex315.pcsp"), "failures", (2, 3))
    assert r.verdict == "evidence"


def test_r2_fails_traces_variant_with_witness():
    r = conditions.revposconjeqt_evidence("R2", load("ex315.pcsp"), "traces", (2,))
    assert r.verdict == "fail"
    assert any("x=0, y=1" in f.message for f in r.findings)


def test_vacuous_without_conditionals(mutex):
    r = conditions.revposconjeqt_evidence("Spec", mutex, "traces", (2,))
    assert r.verdict == "evidence"
    assert any("vacuously" in n for n in r.notes)


def test_negated_condition_fails_syntactic_half():
    defs = parse_definitions("""
channel c : t.t
channel d : t
P = c?x:t?y:t -> if x!=y then d!x -> STOP else d!x -> STOP
""")
    r = conditions.revposconjeqt_evidence("P", defs, "traces", (2,))
    assert r.verdict == "fail"
    assert any(f.clause == "syntactic" for f in r.findings)


@pytest.mark.parametrize("check", [
    lambda: analysis.permutation_bisim_check(load("mutex.pcsp"), "Impl", (4, 5)),
    lambda: conditions.revposconjeqt_evidence("R1", load("ex315.pcsp"), "failures", (4, 5)),
], ids=["TypeSym-semantic", "RevPosConjEqT"])
def test_sampled_checks_build_every_size_over_one_engine(monkeypatch, check):
    # every build of one call shares one standard-semantics engine
    graphs = []
    init = StateGraph.__init__

    def recording_init(self, engine, tvalues, *args, **kwargs):
        graphs.append((type(self), engine, len(tvalues)))
        init(self, engine, tvalues, *args, **kwargs)

    monkeypatch.setattr(StateGraph, "__init__", recording_init)
    assert check().verdict == "evidence"
    standard = [(engine, n) for cls, engine, n in graphs if cls is StateGraph]
    assert {n for _, n in standard} == {4, 5}
    assert len({id(engine) for engine, _ in standard}) == 1


# -- whole-corpus structural implications ----------------------------------------

def _all_processes():
    for name in ALL_CORPUS_FILES:
        defs = load(name)
        for proc in sorted(defs.equations):
            yield name, proc, defs


def test_data_independence_implies_typesym_everywhere():
    for name, proc, defs in _all_processes():
        di = conditions.check_data_independence(proc, defs)
        if di.verdict == "pass":
            ts = conditions.check_typesym_syntactic(proc, defs)
            assert ts.verdict == "pass", (name, proc, ts.findings)


def test_seqnorm_implies_seq_everywhere():
    for name, proc, defs in _all_processes():
        sn = conditions.check_seqnorm(proc, defs)
        if sn.verdict == "pass":
            assert conditions.check_seq(proc, defs).verdict == "pass", (name, proc)


def test_checkers_terminate_on_cyclic_definitions():
    defs = parse_definitions("""
channel a : t
P = a$x:t -> Q
Q = a$y:t -> P
""")
    for checker in (conditions.check_data_independence, conditions.check_seq,
                    conditions.check_seqnorm, conditions.check_typesym_syntactic,
                    conditions.check_no_mixed_inputs):
        r = checker("P", defs)
        assert r.verdict in ("pass", "fail")


# -- one walk against a walk per report -------------------------------------------

def _agrees(proc, defs):
    got = [r.to_dict() for r in conditions.check_all(proc, defs)]
    assert got == [r.to_dict() for r in reference.check_all(proc, defs)], proc


def test_check_all_agrees_with_a_walk_per_report_on_the_corpus():
    for _, proc, defs in _all_processes():
        _agrees(proc, defs)


# a prefix's binders scope over its continuation only: the output v2 in
# cc!v2$v2:t is the outer prefix's, and free in the right argument
_OUTPUT_BEFORE_ITS_NAMESAKE = parse_definitions(
    "channel ca : t\nchannel cc : t.t\n"
    "P = ca$v2:t -> (ca$v2:t -> STOP [] cc!v2$v2:t -> STOP)\n").equations["P"].body


@given(terms())
@example(_OUTPUT_BEFORE_ITS_NAMESAKE)
@settings(max_examples=300, deadline=None)
def test_check_all_agrees_with_a_walk_per_report_on_terms(term):
    _agrees(term, _DEFS)


@given(call_graphs())
@settings(max_examples=300, deadline=None)
def test_check_all_agrees_with_a_walk_per_report_through_calls(defs):
    for proc in sorted(defs.equations):
        _agrees(proc, defs)
