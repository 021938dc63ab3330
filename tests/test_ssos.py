from __future__ import annotations

import pytest

from conftest import SEQNORM_SPECS, load
from pcsp.errors import SemanticsError
from pcsp.lts import TAU
from pcsp.parser import parse_definitions
from pcsp.pretty import fmt_construct
from pcsp.ssos import Vis, build_sslts, nont_event_key
from pcsp.syntax import (
    Atom, BANG, Construct, DOLLAR, Field, Guard, QUERY, Stop, T_TYPE,
)
from reference import (
    check_lonely_conditionals, check_unique_nontau_targets,
    check_vis_label_shape, symbolic_traces,
)


def vis_label_strings(s):
    return sorted(fmt_construct(l.event)
                  for es in s.edges for l, _, _ in es if isinstance(l, Vis))


@pytest.mark.parametrize("name", ["_b0", "v"])
def test_source_names_never_meet_canonical_binders(name):
    # a free _b0 once read as the canonical name of the input y, so the two
    # branches' states after the $-selection were merged (4 states, not 6)
    defs = parse_definitions(f"""
channel c, d, e, f : t
P = (c${name}:t -> e?y:t -> d!{name} -> STOP) [] (f$w:t -> e?y:t -> d!y -> STOP)
""")
    assert build_sslts(defs, "P").n_states() == 6


def test_stop_sslts():
    defs = parse_definitions("channel a\n")
    s = build_sslts(defs, Stop())
    assert s.n_states() == 1 and s.n_edges() == 0


def test_fig2_structure(running):
    s = build_sslts(running, "P")
    assert s.n_states() == 8
    root_edges = s.edges[s.root]
    assert len(root_edges) == 2 and all(l is TAU for l, _, _ in root_edges)
    assert vis_label_strings(s) == ["c!a$y:t?z:t", "c!b$y:t?z:t", "d.a", "d.b"]
    conds = [l for es in s.edges for l, _, _ in es if isinstance(l, Guard)]
    assert len(conds) == 4
    assert sorted(str(c) for c in conds) == ["y!=z", "y!=z", "y==z", "y==z"]


def test_mutex_spec_sslts_cycle(mutex):
    s = build_sslts(mutex, "Spec")
    assert s.n_states() == 3
    vis = vis_label_strings(s)
    assert vis == ["enterCS$i:t", "leaveCS.i"]
    # the recursion closes through the identifier-unfolding internal step
    tau_edges = [(src, tgt) for src in range(s.n_states())
                 for l, tgt, _ in s.edges[src] if l is TAU]
    assert (2, 0) in tau_edges or (1, 0) in tau_edges


def test_non_seq_process_is_rejected(mutex):
    with pytest.raises(SemanticsError):
        build_sslts(mutex, "Impl")


def test_nont_equivalence_of_events():
    a = Atom("AB", "a", 0)
    b = Atom("AB", "b", 1)
    query = Construct("c", (Field(BANG, a, None, False), Field(QUERY, "t1", T_TYPE)))
    dollar = Construct("c", (Field(BANG, a, None, False), Field(DOLLAR, "t1", T_TYPE)))
    other = Construct("c", (Field(BANG, b, None, False), Field(QUERY, "t1", T_TYPE)))
    assert nont_event_key(query) == nont_event_key(dollar)
    assert nont_event_key(query) != nont_event_key(other)


def test_trace_equivalences(running):
    s = build_sslts(running, "P")
    sigma = None
    for tr in symbolic_traces(s, 2):
        if len(tr) == 2 and tr[0] is TAU and isinstance(tr[1], Vis):
            sigma = tr
            break
    assert sigma is not None


def test_nont_equiv_ignores_conditionals(running):
    s = build_sslts(running, "P")
    # paths through opposite branches of the conditional are non-t equivalent
    paths = [tr for tr in symbolic_traces(s, 3)
             if len(tr) == 3 and isinstance(tr[2], Guard)]
    pos = [p for p in paths if not p[2].negated]
    neg = [p for p in paths if p[2].negated]
    assert pos and neg


def test_symbolic_traces_enumeration(mutex):
    s = build_sslts(mutex, "Spec")
    traces = list(symbolic_traces(s, 3))
    assert () in traces
    lengths = {len(t) for t in traces}
    assert lengths == {0, 1, 2, 3}


@pytest.mark.parametrize("fname,proc,_init", SEQNORM_SPECS,
                         ids=[f"{f}:{p}" for f, p, _ in SEQNORM_SPECS])
def test_structural_invariants_on_seqnorm_corpus(fname, proc, _init):
    defs = load(fname)
    s = build_sslts(defs, defs.equations[proc].body)
    assert check_unique_nontau_targets(s) == []
    assert check_lonely_conditionals(s) == []
    assert check_vis_label_shape(s) == []


def test_lonely_conditionals_detects_violation():
    # not SeqNorm: a conditional competes with a visible event
    defs = parse_definitions("""
channel c : t.t
channel d : t
P = c?x:t?y:t -> ((if x==y then d!x -> STOP else STOP) [] c!x!y -> STOP)
""")
    s = build_sslts(defs, "P")
    assert check_lonely_conditionals(s) != []
