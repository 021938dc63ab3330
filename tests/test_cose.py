from __future__ import annotations

from unittest import mock

import pytest

from conftest import CORPUS_SEQ, SEQNORM_SPECS, load, proc_body
from pcsp.analysis import strong_bisim
from pcsp import ssos
from pcsp.cose import Configuration, concretize, insts, match
from pcsp.errors import SemanticsError
from pcsp.lts import Event, TAU
from pcsp.parser import parse_definitions
from pcsp.ssos import Cond, Vis, build_sslts
from pcsp.std_semantics import build_lts
from pcsp.syntax import (
    BANG, Condition, Construct, DOLLAR, Field, QUERY, Stop, T_TYPE, TVal,
    substitute,
)
from reference import (
    check_environment_uniqueness, check_monotonicity,
    check_unique_matching_construct, generated_traces, generates,
    symbolic_traces, traces_upto,
)


def ev(ch, *idx):
    return Event(ch, tuple(TVal(i) for i in idx))


TV2 = (TVal(0), TVal(1))


# -- insts / match ------------------------------------------------------------

def test_insts_outputs_from_environment():
    eps = Construct("c", (Field(BANG, "x", None, True), Field(QUERY, "y", T_TYPE)))
    got = insts(eps, {"x": TVal(1)}, TV2)
    assert got == [ev("c", 1, 0), ev("c", 1, 1)]


def test_insts_all_outputs_singleton():
    eps = Construct("c", (Field(BANG, "x", None, True), Field(BANG, "y", None, True)))
    assert insts(eps, {"x": TVal(0), "y": TVal(1)}, TV2) == [ev("c", 0, 1)]


def test_insts_unbound_output_has_no_instances():
    eps = Construct("c", (Field(BANG, "x", None, True),))
    assert insts(eps, {}, TV2) == []


def test_match_binds_inputs_and_selections():
    eps = Construct("c", (Field(DOLLAR, "y", T_TYPE), Field(QUERY, "z", T_TYPE)))
    assert match(eps, ev("c", 0, 1)) == {"y": TVal(0), "z": TVal(1)}


def test_match_rejects_wrong_shape():
    eps = Construct("c", (Field(QUERY, "z", T_TYPE),))
    with pytest.raises(SemanticsError):
        match(eps, ev("d", 0))


# -- generates -----------------------------------------------------------------

def test_generates_empty():
    assert generates((), {}, (), TV2)
    assert not generates((), {}, (ev("c", 0),), TV2)


def test_generates_skips_tau_and_consumes_visible(running):
    s = build_sslts(running, "P")
    # pick tau then the a-branch visible event
    sigma = None
    for tr in symbolic_traces(s, 2):
        if (len(tr) == 2 and tr[0] is TAU and isinstance(tr[1], Vis)
                and str(tr[1]).startswith("c!a")):
            sigma = tr
            break
    a = running.datatypes["AB"][0]
    event = Event("c", (a, TVal(0), TVal(1)))
    assert generates(sigma, {}, (event,), TV2)
    b_event = Event("c", (running.datatypes["AB"][1], TVal(0), TVal(1)))
    assert not generates(sigma, {}, (b_event,), TV2)


def test_generates_conditional_requires_truth():
    cond = Cond(Condition(False, (("y", "z"),)))
    assert not generates((cond,), {"y": TVal(0), "z": TVal(1)}, (), TV2)
    assert generates((cond,), {"y": TVal(0), "z": TVal(0)}, (), TV2)


def test_generated_traces_enumeration():
    eps = Construct("c", (Field(DOLLAR, "y", T_TYPE),))
    got = list(generated_traces((Vis(eps),), {}, TV2))
    assert got == [(ev("c", 0),), (ev("c", 1),)]


# -- concretisation ---------------------------------------------------------------

def test_stop_concretizes_to_single_state():
    defs = parse_definitions("channel a\n")
    lts = concretize(defs, Stop(), 1)
    assert lts.n_states() == 1 and lts.n_edges() == 0


def test_fig5_environments_and_conditional(running):
    lts = concretize(running, "P", 2, terms=True)
    # the c events bind z; d.a fires exactly from environments with y = z
    d_sources = set()
    for s in range(lts.n_states()):
        for lab, tgt, _ in lts.edges[s]:
            if lab is not TAU and lab.channel == "d":
                d_sources.add(s)
    assert d_sources
    for s in d_sources:
        env = dict(lts.states[s].env)
        assert env["y"] == env["z"]
    # environments after the selection tau take both values of y
    y_envs = {dict(cfg.env).get("y") for cfg in lts.states
              if isinstance(cfg, Configuration) and "y" in dict(cfg.env)}
    assert {TVal(0), TVal(1)} <= y_envs


def test_environment_minimality(running):
    lts = concretize(running, "P", 2, terms=True)
    from pcsp.syntax import free_vars
    for cfg in lts.states:
        fv = free_vars(cfg.term)
        assert set(dict(cfg.env)) <= fv


def test_congruence_on_corpus():
    for fname, proc, init in CORPUS_SEQ:
        defs = load(fname)
        body = proc_body(defs, proc)
        for n in (1, 2, 3):
            closed = substitute(body, init) if init else body
            std = build_lts(defs, closed, n)
            sym = concretize(defs, body, n, init_env=init)
            ok, formula = strong_bisim(std, sym)
            assert ok, (fname, proc, n, formula)


def test_rule1_safety_fixture_rejected_upstream():
    defs = parse_definitions("""
channel c1 : t
channel c2 : t.t
Proc = c1?x:t -> (c2$x:t?y:t -> STOP [] c1!x -> STOP)
""")
    with pytest.raises(SemanticsError) as exc:
        build_sslts(defs, "Proc")
    assert "Seq" in str(exc.value)


def test_trace_symbolic_correspondence(running):
    s = build_sslts(running, "P")
    lts = concretize(running, "P", 2)
    symtraces = list(symbolic_traces(s, 6))
    for tr in sorted(traces_upto(lts, 3), key=len):
        assert any(generates(sigma, {}, tr, TV2) for sigma in symtraces), tr


# -- regularity assertions ----------------------------------------------------------

@pytest.mark.parametrize("fname,proc,init", SEQNORM_SPECS,
                         ids=[f"{f}:{p}" for f, p, _ in SEQNORM_SPECS])
def test_environment_uniqueness_on_seqnorm_corpus(fname, proc, init):
    defs = load(fname)
    for n in (2, 3):
        lts = concretize(defs, proc_body(defs, proc), n, init_env=init)
        assert check_environment_uniqueness(lts) == []


@pytest.mark.parametrize("fname,proc,init", SEQNORM_SPECS,
                         ids=[f"{f}:{p}" for f, p, _ in SEQNORM_SPECS])
def test_unique_matching_construct_on_seqnorm_corpus(fname, proc, init):
    defs = load(fname)
    for n in (2, 3):
        lts = concretize(defs, proc_body(defs, proc), n, init_env=init)
        assert check_unique_matching_construct(lts) == []


@pytest.mark.parametrize("fname,proc,init", SEQNORM_SPECS,
                         ids=[f"{f}:{p}" for f, p, _ in SEQNORM_SPECS])
def test_monotonicity_on_seqnorm_corpus(fname, proc, init):
    defs = load(fname)
    small = concretize(defs, proc_body(defs, proc), 2, init_env=init, terms=True)
    large = concretize(defs, proc_body(defs, proc), 3, init_env=init, terms=True)
    assert check_monotonicity(small, large) == []


def test_environment_uniqueness_detects_violations():
    # same event from both branches of an internal choice reaches two
    # different configurations after the same trace
    defs = parse_definitions("""
datatype M = m1 | m2
channel cm : M
channel a1, b1
V = cm!m1 -> a1 -> STOP |~| cm!m1 -> b1 -> STOP
""")
    lts = concretize(defs, "V", 2)
    assert check_environment_uniqueness(lts) != []
    assert check_unique_matching_construct(lts) != []


def test_symbolic_rules_run_once_per_symbolic_state():
    # the symbolic rules (ssos._RULES, one per node class) run per node of a
    # call's symbolic state graph, not per configuration that instantiates
    # it: the count does not grow with the instantiation
    defs = load("traces-count.pcsp")
    counts = []
    for n in (3, 8):
        rules = {cls: mock.Mock(wraps=rule) for cls, rule in ssos._RULES.items()}
        with mock.patch.dict(ssos._RULES, rules):
            lts = concretize(defs, "P", n)
        counts.append(sum(rule.call_count for rule in rules.values()))
    assert 0 < counts[0] == counts[1] < lts.n_states()
