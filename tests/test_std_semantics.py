from __future__ import annotations

import time

import pytest

from pcsp.analysis import refines_failures, refines_traces, strong_bisim
from pcsp.dot import lts_to_dot
from pcsp.errors import BoundExceeded, SemanticsError
from pcsp.lts import Event, TAU, rename_lts
from pcsp.parser import parse_definitions
from pcsp import std_semantics
from pcsp.std_semantics import StateGraph, _rename_map, build_lts, eval_event_set
from pcsp.ssos import build_sslts
from pcsp.pretty import fmt_term
from pcsp.syntax import Ident, Interleave, Stop, TVal
from reference import has_trace, initials_after, traces_upto


def ev(ch, *idx):
    return Event(ch, tuple(TVal(i) for i in idx))


def test_stop_lts():
    defs = parse_definitions("channel a\n")
    lts = build_lts(defs, Stop(), 1)
    assert lts.n_states() == 1 and lts.n_edges() == 0


def test_fig1_structure(running):
    lts = build_lts(defs=running, proc="P", tsize=2)
    root_edges = lts.edges[lts.root]
    assert len(root_edges) == 2 and all(l is TAU for l, _, _ in root_edges)
    for _, s1, _ in root_edges:
        level1 = lts.edges[s1]
        assert len(level1) == 2 and all(l is TAU for l, _, _ in level1)
        for _, s2, _ in level1:
            vis = [l for l, _, _ in lts.edges[s2] if l is not TAU]
            assert len(vis) == 2
            assert all(l.channel == "c" for l in vis)


def test_two_runs_identical(running):
    a = build_lts(running, "P", 2)
    b = build_lts(running, "P", 2)
    assert a.states == b.states
    assert a.edges == b.edges


def test_bound_exceeded_names_frontier(mutex):
    with pytest.raises(BoundExceeded) as exc:
        build_lts(mutex, "Impl", 3, max_states=5)
    assert "state bound (5)" in str(exc.value)


# Orbits of the states of mutex Impl(T_n) under the permutations of
# {1..n-1}, counted from the full transition systems, which have 34 / 90 /
# 226 / 546 / 1 282 / 2 946 / 6 658 / 14 850 / 32 770 states.
MUTEX_ORBITS = {2: 34, 3: 56, 4: 78, 5: 100, 6: 122, 7: 144, 8: 166, 9: 188, 10: 210}


def test_build_modulo_symmetry_keeps_one_state_per_orbit(mutex):
    for n, orbits in MUTEX_ORBITS.items():
        assert build_lts(mutex, "Impl", n, symmetric_from=1).n_states() == orbits, n


def test_calls_without_the_unfolding_tau_leave_eight_mutex_orbits(mutex):
    # a node has the four local states Node, Entering, CS and Leaving: the
    # token is free, or node 0 or one other node holds it in one of three,
    # and the root still names Nodes unexpanded
    for n in range(2, 9):
        lts = build_lts(mutex, "Impl", n, symmetric_from=1, unfold_calls=False)
        assert lts.n_states() == 8, n


def test_chains_of_bare_calls_are_followed_once_per_equation():
    defs = parse_definitions("""
channel a
U(n) = if n > 0 then U(n+1) else STOP
V = U(1)
""" + "".join(f"C{k} = C{k + 1}\n" for k in range(3000)) + "C3000 = a -> STOP\n")
    # a chain of 3 000 calls takes the successors of its end, without recursion
    lts = build_lts(defs, "C0", 1, unfold_calls=False)
    assert (lts.n_states(), lts.n_edges()) == (2, 1)
    # a call to an equation already on the chain keeps its τ, so a chain
    # that does not end grows by a state per unfolding up to the bound
    with pytest.raises(BoundExceeded):
        build_lts(defs, "V", 1, max_states=500, unfold_calls=False)


def test_only_replicated_interleavings_are_permuted():
    # a hand-written chain's positions are not index values, so it stays a
    # binary tree that no permutation reorders
    defs = parse_definitions("""
channel req, done : t
W(i) = req.i -> done.i -> W(i)
Farm = ||| i:t @ W(i)
Hand = W(0) ||| W(1) ||| W(2)
""")
    for proc, states in (("Farm", 3 * 6), ("Hand", 27)):
        assert build_lts(defs, proc, 3).n_states() == 27
        assert build_lts(defs, proc, 3, symmetric_from=1).n_states() == states, proc


def test_unbounded_growth_names_frontier():
    # each a spawns one more copy of P, so the states grow without bound
    defs = parse_definitions("channel a\nP = a -> (P ||| P)\n")
    with pytest.raises(BoundExceeded) as exc:
        build_lts(defs, "P", 1, max_states=4)
    assert str(exc.value) == (
        "state bound (4) exceeded at: a -> (P ||| P) ||| a -> (P ||| P)")


def test_unbounded_nesting_is_a_diagnostic():
    # every τ nests the state one choice deeper, beyond what the term
    # functions can recurse through before the state bound is reached
    defs = parse_definitions("channel a\nP = P [] STOP\n")
    with pytest.raises(SemanticsError, match="state terms grow without bound"):
        build_lts(defs, "P", 1, max_states=15_000)


def test_bounded_recursion_through_a_conditional_builds():
    # the guard bounds the nesting, so the recursion check does not look
    # inside the conditional
    defs = parse_definitions("""
channel a, b
P(n) = if n > 0 then (a -> STOP [] P(n-1)) else b -> STOP
R = P(40)
""")
    lts = build_lts(defs, "R", 1)
    assert (lts.n_states(), lts.n_edges()) == (43, 83)


@pytest.mark.parametrize("body", [
    "Q(n) = if n > 0 then (Q(n) [] a -> STOP) else STOP",
    "Q(n) = n > 0 & (Q(n) [] a -> STOP)",
    "Q(n) = (if n > 0 then Q(n) else STOP) [] a -> STOP",
])
def test_self_call_with_unchanged_parameters_behind_a_conditional_is_rejected(body):
    # the guard holds again at the call, so each unfolding nests deeper
    defs = parse_definitions(f"channel a\n{body}\nP = Q(1)\n")
    with pytest.raises(SemanticsError, match="'Q' recurses through an operator"):
        build_lts(defs, "P", 1, max_states=2000)


def test_self_call_on_a_replicated_binder_shadowing_a_parameter_builds():
    # x in the call is the replicated binder, not the parameter: the guard
    # fails one level down
    defs = parse_definitions("""
channel a : t
Q(x, y) = if x == y then (||| x : (t\\{y}) @ Q(x, y)) else a.x -> STOP
P = |~| y:t @ Q(y, y)
""")
    lts = build_lts(defs, "P", 3)
    assert (lts.n_states(), lts.n_edges()) == (29, 42)


def test_prefix_chain_builds_in_linear_time():
    # a leaf costs its new parts only: with whole-term keys each of the 3 001
    # states was walked whole, and the build took about 38 s
    defs = parse_definitions("channel a\nP = " + "a -> " * 3000 + "STOP\n")
    start = time.perf_counter()
    lts = build_lts(defs, "P", 1)
    assert time.perf_counter() - start < 5
    assert (lts.n_states(), lts.n_edges()) == (3001, 3000)


def test_unbound_identifier():
    defs = parse_definitions("channel a\nP = a -> Q0\nQ0 = STOP\n")
    from pcsp.syntax import Ident
    with pytest.raises(SemanticsError):
        build_lts(defs, Ident("Missing", ()), 1)


def test_mutex_impl_alphabet_and_exclusion(mutex):
    lts = build_lts(mutex, "Impl", 2)
    labels = {l for es in lts.edges for l, _, _ in es if l is not TAU}
    assert all(l.channel in ("enterCS", "leaveCS") for l in labels)
    # the implementation meets the mutual-exclusion specification directly
    spec = build_lts(mutex, "Spec", 2)
    assert refines_traces(spec, lts).holds
    assert refines_failures(spec, lts).holds
    # no reachable state offers two distinct enterCS events at once
    for s in range(lts.n_states()):
        enters = {l for l, _, _ in lts.edges[s]
                  if l is not TAU and l.channel == "enterCS"}
        assert len(enters) <= 1


@pytest.mark.parametrize("proc, n", [("Impl", 3), ("Impl", 5), ("Spec", 4)])
def test_exploring_is_building_without_the_terms(mutex, proc, n):
    built, explored = build_lts(mutex, proc, n, terms=True), build_lts(mutex, proc, n)
    assert ((explored.root, explored.edges, explored.alphabet)
            == (built.root, built.edges, built.alphabet))
    assert all(isinstance(s, int) for s in explored.states)
    assert len(explored.states) == len(built.states)


def test_rename_identity(mutex):
    lts = build_lts(mutex, "Spec", 2)
    same = rename_lts(lts, lambda e: e)
    assert same.edges == lts.edges


def test_rename_collapses_event(mutex):
    lts = build_lts(mutex, "Spec", 3)
    phi = lambda e: Event(e.channel, tuple(
        TVal(min(v.index, 1)) if isinstance(v, TVal) else v for v in e.values))
    out = rename_lts(lts, phi)
    labels = {str(l) for es in out.edges for l, _, _ in es if l is not TAU}
    assert "enterCS.2" not in labels and "enterCS.1" in labels


def test_visible_events_follow_comms(running):
    lts = build_lts(running, "P", 2)
    for es in lts.edges:
        for l, _, _ in es:
            if l is not TAU:
                assert l.channel in ("c", "d")
                assert l in lts.alphabet


def test_source_level_renaming():
    defs = parse_definitions("""
channel a, b : t
P = (a$x:t -> STOP) [[ b <- a ]]
""")
    lts = build_lts(defs, "P", 2)
    labels = {str(l) for es in lts.edges for l, _, _ in es if l is not TAU}
    assert labels == {"b.0", "b.1"}


def test_renaming_pairs_take_the_values_of_variables():
    # each instance renames its own event: i reaches the pair as it
    # reaches the prefix
    defs = parse_definitions("""
channel c, d : t
R(i) = (c!i -> STOP) [[ d.i <- c.i ]]
S = |~| i:t @ R(i)
""")
    lts = build_lts(defs, "S", 2)
    labels = {str(l) for es in lts.edges for l, _, _ in es if l is not TAU}
    assert labels == {"d.0", "d.1"}


def test_relational_renaming_duplicates_events():
    defs = parse_definitions("""
channel a, b, c
P = (a -> STOP) [[ b <- a, c <- a ]]
""")
    lts = build_lts(defs, "P", 1)
    labels = {str(l) for es in lts.edges for l, _, _ in es if l is not TAU}
    assert labels == {"b", "c"}


def test_sliding_choice_times_out():
    defs = parse_definitions("""
channel a, b
P = a -> STOP [> b -> STOP
""")
    lts = build_lts(defs, "P", 1)
    assert has_trace(lts, (Event("a", ()),))
    assert has_trace(lts, (Event("b", ()),))
    # after the timeout tau only b remains
    tau_targets = [t for l, t, _ in lts.edges[lts.root] if l is TAU]
    assert any(
        {str(l) for l, _, _ in lts.edges[t] if l is not TAU} == {"b"}
        for t in tau_targets)


def test_shared_parallel_synchronises():
    defs = parse_definitions("""
channel m : t
channel a, b
P = (m$x:t -> a -> STOP) [|{|m|}|] (m?y:t -> b -> STOP)
""")
    lts = build_lts(defs, "P", 2)
    tr = traces_upto(lts, 3)
    assert (ev("m", 0), Event("a", ()), Event("b", ())) in tr
    assert (ev("m", 0), Event("b", ()), Event("a", ())) in tr
    assert not any(t and t[0].channel in "ab" for t in tr if t)


def _recorded_graphs(monkeypatch) -> list:
    """The state graphs of the builds that follow, in order."""
    graphs, init = [], StateGraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graphs.append(self)

    monkeypatch.setattr(StateGraph, "__init__", recording_init)
    return graphs


def test_a_parallel_makes_only_the_vector_moves_it_keeps(mutex, monkeypatch):
    # [|X|] pulls the moves of the node farm from its instances and makes a
    # vector only for a move the controller takes part in or lets happen:
    # when the farm made every instance move's vector, the build made
    # 16 160 nodes, 10 208 of them vectors of which 2 816 were explored
    graphs = _recorded_graphs(monkeypatch)
    lts = build_lts(mutex, "Impl", 7)
    assert (lts.n_states(), lts.n_edges()) == (2946, 12227)
    (graph,) = graphs
    assert len(graph.kids) <= 8768
    vectors = {i for i, key in enumerate(graph.kids)
               if key is not None and key[0] == graph._vector_op}
    assert vectors <= {graph._first_vector(s) for s in lts.states}


_FARM = parse_definitions("""
channel get, work, put : t
N(i) = get.i -> work.i -> put.i -> N(i)
C = get?i:t -> put?j:t -> C
Chain = (N(0) ||| N(1) ||| N(2) ||| N(3) ||| N(4)) [|{|get, put|}|] C
Farm = (||| i:t @ N(i)) [|{|get, put|}|] C
""")


@pytest.mark.parametrize("proc", ["Chain", "Farm"])
def test_an_interleaving_chain_is_one_node_however_written(proc, monkeypatch):
    # a left-nested ||| chain is one node, as the vector of ||| i:t @ is, so
    # the parallel pulls the moves of every instance and makes only those it
    # keeps: with a binary node per |||, Chain made 633 operator nodes, 93 of
    # them for moves the controller blocks
    graphs = _recorded_graphs(monkeypatch)
    lts = build_lts(_FARM, proc, 5)
    assert (lts.n_states(), lts.n_edges()) == (224, 752)
    (graph,) = graphs
    assert len(graph.ids) == 416


@pytest.mark.parametrize("build", [lambda defs: build_lts(defs, "P", 1),
                                   lambda defs: build_sslts(defs, "P")],
                         ids=["lts", "sslts"])
def test_a_right_nested_choice_keeps_lists_linear_in_its_depth(build, monkeypatch):
    # a right-nested chain of 300 choices is 300 choice nodes, each an
    # operand of the one above: when each kept its list, a copy of its right
    # operand's and one more move, build_lts kept 45 449 entries
    depth = 300
    defs = parse_definitions("channel a\nP = " + "a -> STOP [] (" * (depth - 1)
                             + "a -> STOP" + ")" * (depth - 1))
    graphs = _recorded_graphs(monkeypatch)
    lts = build(defs)
    assert (lts.n_states(), lts.n_edges()) == (2, depth)
    (graph,) = graphs
    kept = {id(out): len(out) for out in graph.succ if out is not None}
    assert sum(kept.values()) <= 2 * depth


def test_operator_data_is_evaluated_once_per_build(mutex, monkeypatch):
    evaluated = []

    def counted(fn):
        def wrapper(data, defs, tvalues):
            evaluated.append((fn.__name__, data, tvalues))
            return fn(data, defs, tvalues)
        return wrapper

    monkeypatch.setattr(std_semantics, "eval_event_set", counted(eval_event_set))
    monkeypatch.setattr(std_semantics, "_rename_map", counted(_rename_map))
    # Impl hides the set it synchronises on: one evaluation per build
    for n in (4, 5):
        build_lts(mutex, "Impl", n)
    assert len(evaluated) == len(set(evaluated)) == 2
    evaluated.clear()
    farm = parse_definitions("""
channel c, d : t.t
channel e : t
Node(i) = c?j:t!i -> e.i -> Node(i)
P = (||| i:t @ Node(i)) [[c <- d]]
""")
    lts = build_lts(farm, "P", 6)
    assert (lts.n_states(), lts.n_edges()) == (729, 11664)
    assert [name for name, _, _ in evaluated] == ["_rename_map"]


def test_alphabetised_parallel_blocks_outside_alphabet():
    defs = parse_definitions("""
channel a, b, shared
P = (a -> shared -> STOP) [{a, shared} || {b, shared}] (b -> shared -> STOP)
""")
    lts = build_lts(defs, "P", 1)
    tr = traces_upto(lts, 3)
    assert (Event("a", ()), Event("b", ()), Event("shared", ())) in tr
    assert (Event("a", ()), Event("shared", ())) not in tr


def test_replicated_internal_choice_over_t():
    defs = parse_definitions("""
channel out : t
P = |~| i:t @ out!i -> STOP
""")
    lts = build_lts(defs, "P", 3)
    root_edges = lts.edges[lts.root]
    assert len(root_edges) == 3 and all(l is TAU for l, _, _ in root_edges)
    assert initials_after(lts, ()) == {ev("out", 0), ev("out", 1), ev("out", 2)}


def test_repeated_nont_input_variable_binds_left_to_right():
    # allowed shape: a non-t input repeated as a later output of the same
    # communication echoes the value just read
    defs = parse_definitions("""
datatype Y = u | v
channel cy : Y.Y
P = cy?y:Y!y -> STOP
""")
    lts = build_lts(defs, "P", 1)
    got = {t[0] for t in traces_upto(lts, 1) if t}
    assert {str(e) for e in got} == {"cy.u.u", "cy.v.v"}
    from pcsp.cose import concretize
    from pcsp.analysis import strong_bisim
    assert strong_bisim(lts, concretize(defs, "P", 1))[0]


def test_replicated_alphabetised_parallel_over_t():
    defs = parse_definitions("""
channel c : t
channel g
P = || i:t @ [{|c.i, g|}] (c.i -> g -> STOP)
""")
    lts = build_lts(defs, "P", 2)
    tr = traces_upto(lts, 4)
    g = Event("g", ())
    assert (ev("c", 0), ev("c", 1), g) in tr
    assert (ev("c", 1), ev("c", 0), g) in tr
    # g is shared between all indexed alphabets, so it waits for every node
    assert (ev("c", 0), g) not in tr


def test_visible_edges_conform_to_their_construct(running):
    from pcsp.syntax import Prefix, comms
    lts = build_lts(running, "P", 2, terms=True)
    tvals = (TVal(0), TVal(1))
    for idx, term in enumerate(lts.states):
        if not isinstance(term, Prefix):
            continue
        allowed = {Event(term.construct.channel, vs)
                   for vs in comms(term.construct, tvals)} \
            if not any(f.sel == "$" for f in term.construct.fields) else None
        for lab, _, uid in lts.edges[idx]:
            if lab is not TAU and allowed is not None:
                assert lab in allowed
                assert uid == term.construct.uid


def test_dot_output_is_stable(mutex):
    a = lts_to_dot(build_lts(mutex, "Spec", 2, terms=True))
    b = lts_to_dot(build_lts(mutex, "Spec", 2, terms=True))
    assert a == b
    assert a.startswith("digraph") and "enterCS.0" in a


def test_replicated_operators_expanded_where_they_enter():
    # each replicated operator stands inside a leaf (below a prefix, in an
    # equation an identifier unfolds to, or in the body of a replicated
    # internal choice), and is expanded once the transition into it makes it
    # a state, some with an index set or alphabet that an enclosing prefix
    # binds; Hand* expand them by hand at #T=2
    defs = parse_definitions("""
channel go
channel c : t
channel a : t
channel b : t.t
Q(i) = a!i -> Q(i)
R(j) = [] i:t @ b!j!i -> R(j)
R2(j) = (b!j!0 -> R2(j)) [] (b!j!1 -> R2(j))
ViaPrefix = go -> (||| i:t @ Q(i))
ViaIdent = go -> R(1)
ViaIntChoice = |~| j:t @ (|| i:t @ [{| b.j.i |}] b!j!i -> STOP)
ViaBoundDomain = c?x:t -> go -> (||| i:(t\\{x}) @ Q(i))
ViaBoundAlpha = c$x:t -> (|| i:t @ [{| b.x.i |}] b!x!i -> STOP)
HandPrefix = go -> (Q(0) ||| Q(1))
HandIdent = go -> R2(1)
HandIntChoice = |~| j:t @ ((b!j!0 -> STOP) [{| b.j.0 |} || {| b.j.1 |}] (b!j!1 -> STOP))
HandBoundDomain = (c.0 -> go -> Q(1)) [] (c.1 -> go -> Q(0))
HandBoundAlpha = |~| x:t @ c.x -> ((b!x!0 -> STOP) [{| b.x.0 |} || {| b.x.1 |}] (b!x!1 -> STOP))
""")
    for via, hand, states in (("ViaPrefix", "HandPrefix", 5),
                              ("ViaIdent", "HandIdent", 3),
                              ("ViaIntChoice", "HandIntChoice", 9),
                              ("ViaBoundDomain", "HandBoundDomain", 7),
                              ("ViaBoundAlpha", "HandBoundAlpha", 11)):
        lv, lh = build_lts(defs, via, 2), build_lts(defs, hand, 2)
        assert lv.n_states() == lh.n_states() == states, via
        assert strong_bisim(lv, lh)[0], via


_INSIDE_LEAVES = parse_definitions("""
channel a, b
channel c, d : t
Q(i) = c!i -> d!i -> Q(i)
V = b -> (||| i:t @ Q(i))
P = (a -> b -> (||| i:t @ Q(i))) [] (a -> b -> Q(0))
C = a -> (if true then (||| i:t @ Q(i)) else STOP)
I = (||| i:t @ Q(i)) |~| STOP
""")


def _target(lts, state, label):
    (target,) = [t for lab, t, _ in lts.edges[state] if lab == label]
    return lts.states[target]


def test_replicated_operator_inside_a_leaf_stays_as_written():
    # only a state is expanded: a leaf shows its operator as written, and
    # the transition into the operator makes it the vector node
    lts = build_lts(_INSIDE_LEAVES, "V", 2, terms=True)
    assert fmt_term(lts.states[lts.root]) == "b -> (||| i:t @ Q(i))"
    assert lts.n_states() == 10
    vector = _target(lts, lts.root, Event("b"))
    assert vector == Interleave(Ident("Q", (TVal(0),)), Ident("Q", (TVal(1),)))


def test_leaves_that_expand_alike_stay_apart():
    # b -> (||| i:t @ Q(i)) and b -> Q(0) are one process at #T=1 but two
    # leaves, so the choice's a-targets are two states (bisimilar ones)
    lts = build_lts(_INSIDE_LEAVES, "P", 1, terms=True)
    assert lts.n_states() == 6
    targets = [t for lab, t, _ in lts.edges[lts.root]]
    assert [fmt_term(lts.states[t]) for t in targets] == [
        "b -> (||| i:t @ Q(i))", "b -> Q(0)"]
    assert _target(lts, targets[0], Event("b")) == _target(lts, targets[1], Event("b"))


def test_replicated_operator_below_a_conditional_or_an_internal_choice():
    cond = build_lts(_INSIDE_LEAVES, "C", 2, terms=True)
    guarded = _target(cond, cond.root, Event("a"))
    assert fmt_term(guarded) == "true & (||| i:t @ Q(i))"
    # the conditional takes the successors of the vector it branches to
    (moved, *_) = [cond.states[t] for lab, t, _ in cond.edges[cond.states.index(guarded)]]
    assert isinstance(moved, Interleave)
    choice = build_lts(_INSIDE_LEAVES, "I", 2, terms=True)
    assert fmt_term(choice.states[choice.root]) == "(||| i:t @ Q(i)) |~| STOP"
    assert [choice.states[t] for _, t, _ in choice.edges[choice.root]] == [
        Interleave(Ident("Q", (TVal(0),)), Ident("Q", (TVal(1),))), Stop()]
    for lts in (cond, choice):
        assert lts.n_states() == 11
