from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ALL_CORPUS_FILES, load
from pcsp.errors import ParseError
import pcsp
from pcsp.parser import _SYMBOLS, parse_definitions, parse_file, tokenize
from pcsp.pretty import fmt_term
from pcsp.syntax import (
    AlphaPar, Atom, BANG, BoolAnd, BoolLit, BoolNot, BoolOr, ChanPrefixItem,
    Cmp, Condition, DiffType, EventLitItem, EventSet, ExtChoice, Hide, Ident,
    If, IntChoice, Interleave, NatLit, NatMin, NatOp, Prefix, Rename,
    ReplAlphaPar, ReplExtChoice, ReplIntChoice, ReplInterleave, SharedPar,
    Sliding, Stop, T_TYPE, TVal, VarRef, free_vars,
)
import reference
from reference import fmt_definitions

from test_syntax import terms

MUTEX_CORE = """
channel getToken, enterCS, leaveCS, returnToken : t
Node(i) = getToken.i -> Entering(i)
Entering(i) = enterCS.i -> CS(i)
CS(i) = leaveCS.i -> Leaving(i)
Leaving(i) = returnToken.i -> Node(i)
Nodes = ||| i:t @ Node(i)
Controller = getToken?i:t -> returnToken?j:t -> Controller
Impl = (Nodes [|{|getToken, returnToken|}|] Controller) \\ {|getToken, returnToken|}
Spec = enterCS$i:t -> leaveCS!i -> Spec
"""


def test_mutex_core_transcription():
    defs = parse_definitions(MUTEX_CORE)
    assert len(defs.equations) == 8
    assert sorted(defs.channels) == ["enterCS", "getToken", "leaveCS", "returnToken"]
    assert all(len(sig) == 1 for sig in defs.channels.values())
    assert defs.equations["Node"].param_types == ("t",)


def test_parenthesised_process_parses_in_linear_time():
    # every level of the nesting is a group that no guard's boolean is, so
    # at_guard looks past it once and the group is read as a process
    src = "P = " + "(" * 200 + "STOP" + ")" * 200 + "\n"
    start = time.perf_counter()
    defs = parse_definitions(src)
    assert time.perf_counter() - start < 0.5
    assert defs == parse_definitions("P = STOP\n")


def test_a_malformed_deep_comparison_is_reported_in_linear_time():
    # the group is read once, as the comparison's scalar, and fails where
    # that reading does; when a failed comparison was read again as a
    # boolean, each level was reached twice
    src = "channel a\nP = if " + "(" * 3000 + "x y" + ")" * 3000 + " < 2 then STOP else STOP\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_definitions(src, "f.pcsp")
    assert time.perf_counter() - start < 0.5
    assert [d.render() for d in exc.value.diagnostics] == ["f.pcsp:2:3010: expected ')', found 'y'"]


def _call_chain(n: int) -> str:
    """n equations, each passing its parameter on to the next, and the last
    outputting it on a t channel: the parameter's type reaches the first
    equation only through the n calls."""
    return "".join(["channel c : t\n"]
                   + [f"P{i}(x) = c?y:t -> P{i + 1}(x)\n" for i in range(n)]
                   + [f"P{n}(x) = c!x -> STOP\n"])


def test_a_long_call_chain_resolves_in_linear_time():
    # a sweep over every equation typed one more parameter of the chain, so
    # the chain took n sweeps: 5.3 s at n = 1 000
    src = _call_chain(1000)
    start = time.perf_counter()
    defs = parse_definitions(src)
    assert time.perf_counter() - start < 1.0
    assert {eq.param_types for eq in defs.equations.values()} == {("t",)}


def test_a_call_types_the_parameter_its_callee_leaves_untyped():
    # the second sweep, in which calls type parameters, visits Q although
    # nothing Q reads changed in the first
    defs = parse_definitions("channel a\nP(n) = a -> STOP\nQ = P(1)\n")
    assert defs.equations["P"].param_types == ("nat",)


@pytest.mark.parametrize("path", sorted((Path(pcsp.__file__).parent / "corpus").glob("*.pcsp")),
                         ids=lambda path: path.name)
def test_a_well_formed_file_raises_no_parse_error(monkeypatch, path):
    # guards and comparisons are recognised by lookahead, not by trying a
    # boolean and backtracking when it fails
    made = []
    init = ParseError.__init__
    monkeypatch.setattr(ParseError, "__init__",
                        lambda self, diagnostics: made.append(diagnostics) or init(self, diagnostics))
    parse_file(path)
    assert made == []


def test_empty_file():
    defs = parse_definitions("")
    assert not defs.equations and not defs.channels


def test_seq_vi_violation_is_not_a_parse_error():
    defs = parse_definitions("""
channel c : t.t
P = c?x:t!x -> STOP
""")
    assert isinstance(defs.equations["P"].body, Prefix)


def test_roundtrip_on_all_corpus_files():
    for name in ALL_CORPUS_FILES:
        defs = load(name)
        text = fmt_definitions(defs)
        again = parse_definitions(text, filename=f"roundtrip:{name}")
        assert sorted(again.equations) == sorted(defs.equations), name
        for eq_name, eq in defs.equations.items():
            eq2 = again.equations[eq_name]
            assert eq2.params == eq.params, (name, eq_name)
            assert eq2.body == eq.body, (name, eq_name)
        assert again.channels == defs.channels
        assert again.datatypes == defs.datatypes


def test_diagnostics_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_definitions("channel c : t\nP = c$ -> STOP\n", filename="f.pcsp")
    d = exc.value.diagnostics[0]
    assert d.filename == "f.pcsp" and d.line == 2 and d.col > 0


@pytest.mark.parametrize("construct", ["c$x:t$x:t", "c?x:t?x:t", "c$x:t?x"])
def test_name_bound_twice_in_one_construct_rejected(construct):
    # a name holds one value: at #T=2, c$x:t$x:t offered only c.0.0 and
    # c.1.1 while c?x:t?x:t offered all four pairs
    with pytest.raises(ParseError) as exc:
        parse_definitions(f"channel c : t.t\nP = {construct} -> STOP\n",
                          filename="f.pcsp")
    d = exc.value.diagnostics[0]
    assert (d.filename, d.line, d.col) == ("f.pcsp", 2, 11)
    assert d.message == "input variable 'x' is bound twice in one construct on channel 'c'"


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("channel a\nP = a -> STOP\nP = STOP\n")
    assert "duplicate" in str(exc.value)


def test_undeclared_channel_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("P = c!0 -> STOP\n")
    assert "undeclared channel" in str(exc.value)


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("channel c : t.t\nP = c?x:t -> STOP\n")
    assert "takes 2 field" in str(exc.value)


def test_undefined_variable_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("channel c : t\nP = c!y -> STOP\n")
    assert "undefined variable 'y'" in str(exc.value)


def test_undefined_variable_in_renaming_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("channel c : t\nR = (c?i:t -> STOP) [[ c.k <- c.k ]]\n")
    assert "undefined variable 'k'" in str(exc.value)


@pytest.mark.parametrize("body", ["c?x:(t\\{x})!0 -> STOP", "c!x?x:t -> STOP",
                                  "||| x:(t\\{x}) @ STOP"],
                         ids=["own annotation", "output before the input",
                              "replicated domain"])
def test_a_binder_does_not_scope_over_its_own_annotation_or_domain(body):
    with pytest.raises(ParseError) as exc:
        parse_definitions(f"channel c : t.t\nP = {body}\n")
    assert [d.message for d in exc.value.diagnostics] == [
        "undefined variable 'x' in the definition of 'P'"]


def test_trivial_condition_rejected():
    with pytest.raises(ParseError) as exc:
        parse_definitions("""
channel c : t
P = c?x:t -> if x==x then STOP else STOP
""")
    assert "trivial condition" in str(exc.value)


def test_replicated_nont_choice_desugars_to_binary():
    defs = parse_definitions("""
datatype Y = y1 | y2
channel c : Y
P = [] y:Y @ c!y -> STOP
""")
    body = defs.equations["P"].body
    assert isinstance(body, ExtChoice)
    assert isinstance(body.left, Prefix) and isinstance(body.right, Prefix)
    assert body.left.construct.fields[0].payload.name == "y1"


def test_numeric_argument_coerced_for_t_parameter():
    defs = parse_definitions("""
channel c : t
N(i) = c!i -> N(i)
P = N(0)
""")
    body = defs.equations["P"].body
    assert body.args == (TVal(0),)


def test_annotation_defaults_to_signature_type():
    defs = parse_definitions("""
channel out : t
P = out$z -> STOP
""")
    field = defs.equations["P"].body.construct.fields[0]
    assert field.sel == "$" and field.is_t()


def test_assertions_parsed(mutex):
    kinds = {(a.lhs, a.model, a.rhs) for a in mutex.assertions}
    assert ("Spec", "traces", "Impl") in kinds
    assert ("Spec", "failures", "Impl") in kinds


@given(st.text(max_size=200))
@example("µ=¹")  # a digit to str.isdigit, not to int()
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_on_arbitrary_text(text):
    try:
        parse_definitions(text)
    except ParseError:
        pass


_ROUNDTRIP_PRELUDE = """
datatype AB = a | b
channel ca : t
channel cb : AB.t
channel cc : t.t
N(x) = ca!x -> STOP
Q = STOP
"""
_AB = (Atom("AB", "a", 0), Atom("AB", "b", 1))
_BINARY = (ExtChoice, IntChoice, Sliding, Interleave, SharedPar, AlphaPar)
_REPLICATED = (ReplInterleave, ReplIntChoice, ReplExtChoice, ReplAlphaPar)


def _scope_after(construct, scope):
    """The t-variables in scope in the continuation of a prefix."""
    for f in construct.fields:
        if f.sel != BANG:
            scope = tuple(v for v in scope if v != f.payload) \
                + ((f.payload,) if f.is_t() else ())
    return scope


def _event_sets(scope):
    datum = st.sampled_from(scope + (TVal(0), TVal(1)))
    closure = st.one_of(st.just(ChanPrefixItem("ca")),
                        st.builds(lambda d: ChanPrefixItem("cc", (d,)), datum))
    return st.one_of(
        st.lists(closure, min_size=1, max_size=2).map(
            lambda cs: EventSet(closures=tuple(cs))),
        st.lists(_events(scope), max_size=2).map(
            lambda es: EventSet(literals=tuple(es))))


def _events(scope):
    datum = st.sampled_from(scope + (TVal(0), TVal(1)))
    return st.one_of(
        st.builds(lambda d: EventLitItem("ca", (d,)), datum),
        st.builds(lambda x, d: EventLitItem("cb", (x, d)), st.sampled_from(_AB), datum))


@st.composite
def full_terms(draw, scope=(), depth=4):
    """Random terms over every term class the parser builds, with
    t-variables from prefixes and replicated operators in scope; the
    prefixes come from test_syntax.terms.  A term is closed but for n, the
    natural that the guards over naturals compare."""
    kinds = ["stop", "ident"]
    if depth > 0:
        # prefixes bring the variables that conditions need into scope
        kinds += ["prefix"] * 3 + ["binary", "hide", "rename", "replicated",
                                   "guard", "if"]
    kind = draw(st.sampled_from(kinds))
    sub = full_terms(scope, depth - 1)
    if kind == "stop":
        return Stop()
    if kind == "ident":
        args = st.sampled_from(tuple(map(VarRef, scope)) + (TVal(0), TVal(1)))
        return draw(st.one_of(st.just(Ident("Q")),
                              st.builds(lambda a: Ident("N", (a,)), args)))
    if kind == "prefix":
        head = draw(terms(scope=scope, depth=0).filter(
            lambda t: isinstance(t, Prefix)))
        cont = draw(full_terms(_scope_after(head.construct, scope), depth - 1))
        return Prefix(head.construct, cont)
    if kind == "binary":
        cls = draw(st.sampled_from(_BINARY))
        left, right = draw(sub), draw(sub)
        if cls is SharedPar:
            return SharedPar(left, draw(_event_sets(scope)), right)
        if cls is AlphaPar:
            return AlphaPar(left, draw(_event_sets(scope)), right,
                            draw(_event_sets(scope)))
        return cls(left, right)
    if kind == "hide":
        return Hide(draw(sub), draw(_event_sets(scope)))
    if kind == "rename":
        side = st.one_of(st.sampled_from(("ca", "cc")), _events(scope))
        return Rename(draw(sub), tuple(draw(st.lists(st.tuples(side, side),
                                                     min_size=1, max_size=2))))
    if kind == "replicated":
        cls = draw(st.sampled_from(_REPLICATED))
        domain = draw(st.sampled_from((T_TYPE,) + tuple(DiffType((v,)) for v in scope)))
        inner = tuple(v for v in scope if v != "i") + ("i",)
        body = draw(full_terms(inner, depth - 1))
        if cls is ReplAlphaPar:
            return ReplAlphaPar("i", domain, draw(_event_sets(inner)), body)
        return cls("i", domain, body)
    pairs = [(a, b) for a in scope for b in scope if a != b]
    guards = [st.builds(BoolLit, st.booleans()), _nat_bools()]
    if pairs:
        guards.append(st.builds(
            lambda negated, atoms: Condition(negated, tuple(atoms)), st.booleans(),
            st.lists(st.sampled_from(pairs), min_size=1, max_size=2)))
    guard = draw(st.one_of(guards))
    return If(guard, draw(sub), Stop() if kind == "guard" else draw(sub))


# Scalars over naturals: literals, the natural parameter n of TestP, +, -
# and min, each of which prints in parentheses where the grammar asks.
_NAT_SCALARS = st.recursive(
    st.sampled_from((NatLit(0), NatLit(1), NatLit(2), VarRef("n"))),
    lambda s: st.one_of(st.builds(NatOp, st.sampled_from("+-"), s, s),
                        st.builds(NatMin, s, s)),
    max_leaves=3)


def _nat_bools():
    """Boolean guards over naturals, in the form that the resolver keeps:
    no 'not' directly inside a 'not' and no 'and' as the right operand of
    an 'and', which it would flatten, and no comparison of n with itself,
    which would default n to t."""
    cmp = st.builds(Cmp, st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
                    _NAT_SCALARS, _NAT_SCALARS).filter(
        lambda c: not c.left == c.right == VarRef("n"))
    return st.recursive(
        st.one_of(cmp, st.builds(BoolLit, st.booleans())),
        lambda b: st.one_of(
            st.builds(BoolNot, b.filter(lambda x: not isinstance(x, BoolNot))),
            st.builds(BoolAnd, b, b.filter(lambda x: not isinstance(x, BoolAnd))),
            st.builds(BoolOr, b, b)),
        max_leaves=3)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_random_terms_roundtrip(data):
    # every term class: a renamed prefix printed without parentheses
    # re-parsed as a prefix of a renamed continuation; the guards over
    # naturals reach every case of at_guard and of parse_bool_atom
    term = data.draw(full_terms())
    src = _ROUNDTRIP_PRELUDE + f"TestP(n) = {fmt_term(term)}\n"
    defs = parse_definitions(src, "rt")
    assert defs.equations["TestP"].body == term


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unbound_variables_are_the_free_variables(data):
    # the resolver takes its undefined variables from free_vars of the body
    # as parsed, before guards are classified and arguments typed; the free
    # names of the original term are the reference (n, the natural of the
    # guards, is free here)
    term = data.draw(full_terms(scope=("x", "y")))
    src = _ROUNDTRIP_PRELUDE + f"TestP = {fmt_term(term)}\n"
    try:
        parse_definitions(src, "rt")
        got = []
    except ParseError as exc:
        got = [d.message for d in exc.diagnostics]
    assert got == [f"undefined variable {v!r} in the definition of 'TestP'"
                   for v in sorted(free_vars(term))]


@given(st.binary(max_size=120))
@settings(max_examples=120, deadline=None)
def test_parser_never_crashes_on_arbitrary_bytes(raw):
    try:
        parse_definitions(raw.decode("utf-8", errors="replace"))
    except ParseError:
        pass


def _lexed(tokenizer, text):
    """The tokens as (kind, text, line, col), or the diagnostic that stops them."""
    try:
        return tokenizer(text, "f.pcsp")
    except ParseError as exc:
        return [d.render() for d in exc.diagnostics]


_LEXEMES = st.sampled_from(
    _SYMBOLS + ["0", "7", "42", "--", "-- a note", " ", "\t", "\r", "\n",
                "a", "x1", "_", "STOP", "é", "ß", "Σ", "¹", "٣"])


@given(st.one_of(st.lists(_LEXEMES, max_size=30).map("".join), st.text(max_size=60)))
@example("P = a -> STOP -- trailing")  # eof stands where the comment starts
@example("P = STOP\n¹")                # ¹ is \w to a regex, but no letter
@example("x٣ = 1٣")                     # ٣ goes on a name, starts none
@settings(max_examples=400, deadline=None)
def test_tokenize_agrees_with_the_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference.tokenize, text)
