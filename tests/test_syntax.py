from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.errors import SemanticsError
from pcsp.lts import Event
from pcsp.parser import parse_definitions
from pcsp.record import FrozenInstanceError, replace
from pcsp.syntax import (
    Atom, BANG, BoolLit, Construct, DOLLAR, Field, Guard, NamedType, NatLit, Op,
    Prefix, QUERY, Stop, T_TYPE, TVal, canonicalise, classify_fields, comms,
    comms_nont, eval_data, free_vars, permute_t, replace_selections, selections,
    substitute, t_values,
)

X_TYPE = NamedType("X", (Atom("X", "u", 0), Atom("X", "v", 1)))


def eps_construct() -> Construct:
    # c$x1:t?x2:t$x3:X!x4   (x4 an output variable of type t)
    return Construct("c", (
        Field(DOLLAR, "x1", T_TYPE),
        Field(QUERY, "x2", T_TYPE),
        Field(DOLLAR, "x3", X_TYPE),
        Field(BANG, "x4", None, bang_is_t=True),
    ), uid=1)


def test_tval_is_one_instance_per_index():
    import copy
    import pickle

    v = TVal(3)
    assert TVal(3) is v and TVal(index=3) is v
    assert copy.copy(v) is v and copy.deepcopy(v) is v
    assert pickle.loads(pickle.dumps(v)) is v
    assert replace(v, index=4) is TVal(4)
    # it hashes by identity, in C, compares and prints as before, and has no
    # order of its own (value_key orders values)
    assert TVal.__hash__ is object.__hash__ and hash(v) == object.__hash__(v)
    assert v == TVal(3) and v != TVal(4) and v != 3 and v != (3,)
    with pytest.raises(TypeError):
        TVal(2) < v
    assert repr(v) == "TVal(index=3)" and str(v) == "3"
    with pytest.raises(FrozenInstanceError):
        v.index = 4


def test_arithmetic_and_ordering_take_naturals_only():
    u, v = X_TYPE.values
    assert eval_data(Op("min", NatLit(3), Op("+", NatLit(1), NatLit(1)))) == 2
    for e in (Op("min", u, v), Op("+", u, v), Op("min", NatLit(1), v)):
        with pytest.raises(SemanticsError, match="arithmetic on non-natural operands"):
            eval_data(e)
    with pytest.raises(SemanticsError, match="ordering comparison on non-natural operands"):
        eval_data(Op("<", u, v))
    # and and or take their right operand only when the left does not decide
    assert eval_data(Op("and", BoolLit(False), Op("<", u, NatLit(1)))) is False
    assert eval_data(Op("or", BoolLit(True), Op("+", u, v))) is True


def test_classify_fields_worked_example():
    sets = classify_fields(eps_construct())
    assert sets.dollar_t == {1}
    assert sets.query_t == {2}
    assert sets.dollar_nont == {3}
    assert sets.bang_t | sets.bang_nont == {4}
    assert sets.query_nont == frozenset()


def test_classify_fields_empty_construct():
    sets = classify_fields(Construct("done", ()))
    for s in (sets.dollar_t, sets.dollar_nont, sets.query_t,
              sets.query_nont, sets.bang_t, sets.bang_nont):
        assert s == frozenset()


def test_classify_fields_mutex_spec():
    alpha = Construct("enterCS", (Field(DOLLAR, "i", T_TYPE),))
    sets = classify_fields(alpha)
    assert sets.dollar_t == {1}
    assert not (sets.dollar_nont | sets.query | sets.bang_t | sets.bang_nont)


def test_replace_selections_t_scope():
    out = replace_selections(eps_construct(), "t")
    sels = [(f.sel, f.payload) for f in out.fields]
    assert sels == [(BANG, "x1"), (QUERY, "x2"), (DOLLAR, "x3"), (BANG, "x4")]
    assert out.fields[0].ty is None and out.fields[0].bang_is_t


def test_replace_selections_in_both_scopes():
    out = replace_selections(replace_selections(eps_construct(), "t"), "non-t")
    assert [f.sel for f in out.fields] == [BANG, QUERY, BANG, BANG]


def test_replace_selections_identity_without_dollars():
    alpha = Construct("c", (Field(QUERY, "x", T_TYPE), Field(BANG, "x", None, True)))
    assert replace_selections(alpha, "t") == alpha == replace_selections(alpha, "non-t")


def test_replace_compositions_agree():
    alpha = eps_construct()
    assert replace_selections(replace_selections(alpha, "t"), "non-t") \
        == replace_selections(replace_selections(alpha, "non-t"), "t")


def test_selections_in_each_scope():
    tvalues = (TVal(0), TVal(1))
    names, values = selections(eps_construct(), "t", tvalues)
    assert names == ("x1",) and list(values) == [(TVal(0),), (TVal(1),)]
    names, values = selections(eps_construct(), "non-t", tvalues)
    assert names == ("x3",) and list(values) == [(a,) for a in X_TYPE.values]
    names, values = selections(Construct("c", (Field(QUERY, "x", T_TYPE),)), "t", tvalues)
    assert names == () and list(values) == [()]


# -- comms ------------------------------------------------------------------

def _running_defs():
    return parse_definitions("""
datatype AB = a | b
channel c : AB.t.t
channel d : AB
P = c$x:{a,b}$y:t?z:t -> if y==z then d!x -> STOP else STOP
""")


def test_comms_enumerates_inputs():
    defs = _running_defs()
    a = defs.datatypes["AB"][0]
    alpha = Construct("c", (
        Field(BANG, a, None, False),
        Field(BANG, TVal(0), None, True),
        Field(QUERY, "z", T_TYPE),
    ))
    got = comms(alpha, (TVal(0), TVal(1)))
    assert got == [(a, TVal(0), TVal(0)), (a, TVal(0), TVal(1))]


def test_comms_outputs_only_singleton():
    defs = _running_defs()
    a = defs.datatypes["AB"][0]
    alpha = Construct("d", (Field(BANG, a, None, False),))
    assert comms(alpha, (TVal(0),)) == [(a,)]


def test_comms_requires_no_selections():
    with pytest.raises(SemanticsError):
        comms(eps_construct(), (TVal(0),))


def test_comms_nont_keeps_t_symbolic():
    defs = _running_defs()
    a = defs.datatypes["AB"][0]
    alpha = Construct("c", (
        Field(BANG, a, None, False),
        Field(DOLLAR, "y", T_TYPE),
        Field(QUERY, "z", T_TYPE),
    ))
    events = comms_nont(alpha)
    assert len(events) == 1
    fields = events[0].fields
    assert fields[0].sel == BANG and fields[1].sel == DOLLAR and fields[2].sel == QUERY


def test_comms_nont_resolves_nont_inputs():
    defs = _running_defs()
    alpha = Construct("c", (
        Field(QUERY, "x", NamedType("AB", defs.datatypes["AB"])),
        Field(DOLLAR, "y", T_TYPE),
        Field(QUERY, "z", T_TYPE),
    ))
    events = comms_nont(alpha)
    assert len(events) == 2
    assert [f.fields[0].payload.name for f in events] == ["a", "b"]


# -- substitution, free variables, alpha canonicalisation --------------------

def test_substitute_single_occurrence():
    defs = parse_definitions("""
channel out : t
P(x) = out!x -> STOP
""")
    body = defs.equations["P"].body
    got = substitute(body, {"x": TVal(0)})
    assert isinstance(got, Prefix)
    assert got.construct.fields[0].payload == TVal(0)


def test_substitute_respects_shadowing():
    defs = parse_definitions("""
channel c, out : t
P(z) = c$z:t -> out!z -> STOP
""")
    body = defs.equations["P"].body
    got = substitute(body, {"z": TVal(1)})
    # the binder shadows the parameter, so the inner output keeps the variable
    assert got.cont.construct.fields[0].payload == "z"


def test_free_vars_residual():
    defs = parse_definitions("""
channel d : t
Q(x, y, z) = if y==z then d!x -> STOP else STOP
""")
    assert free_vars(defs.equations["Q"].body) == {"x", "y", "z"}


def test_canonical_form_identifies_renamings():
    defs = parse_definitions("""
channel c, d : t
P = c?a:t -> d!a -> STOP
Q = c?b:t -> d!b -> STOP
""")
    pa = canonicalise(defs.equations["P"].body)[0]
    qb = canonicalise(defs.equations["Q"].body)[0]
    assert pa == qb


def test_canonical_form_keeps_free_variables():
    defs = parse_definitions("""
channel c, d : t
P(v) = c?a:t -> d!v -> STOP
""")
    canon = canonicalise(defs.equations["P"].body)[0]
    assert "v" in free_vars(canon)


def test_t_values_read_a_terms_data_and_not_its_subterms():
    defs = parse_definitions("""
channel c, d : t
P = (c!1 -> STOP) [[ d.2 <- c.0 ]]
""")
    term = defs.equations["P"].body
    assert list(t_values(term)) == [TVal(2), TVal(0)]
    assert list(t_values(term.proc)) == [TVal(1)]
    moved = permute_t(term, (1, 2, 0))
    assert moved.proc is term.proc
    assert list(t_values(moved)) == [TVal(0), TVal(1)]
    assert permute_t(Event("c", (TVal(0), TVal(2))), (1, 2, 0)) \
        == Event("c", (TVal(1), TVal(0)))


# -- property tests ----------------------------------------------------------

_PRELUDE = """
datatype AB = a | b
channel ca : t
channel cb : AB.t
channel cc : t.t
"""
_VARS = ("v1", "v2", "v3")

_uid_counter = __import__("itertools").count(1000)


@st.composite
def terms(draw, scope=(), depth=3, channels=("ca", "cb", "cc")):
    """Random closed Seq terms over a small fixed channel universe, or the
    part of it that channels names; scope lists the t-variables bound so
    far."""
    opts = ["stop", "prefix"]
    if depth > 0:
        opts += ["ext", "int", "slide"]
        if len(scope) >= 2:
            opts.append("if")
    kind = draw(st.sampled_from(opts))
    if kind == "stop" or depth <= 0 and kind != "prefix":
        return Stop()
    if kind == "prefix":
        chan = draw(st.sampled_from(channels))
        fields = []
        scope2 = list(scope)
        bound_here: set = set()
        if chan == "ca":
            sigs = [T_TYPE]
        elif chan == "cb":
            sigs = [NamedType("AB", (Atom("AB", "a", 0), Atom("AB", "b", 1))), T_TYPE]
        else:
            sigs = [T_TYPE, T_TYPE]
        for ty in sigs:
            fresh = [v for v in _VARS if v not in bound_here]
            if isinstance(ty, NamedType):
                which = draw(st.sampled_from(["bang", "query"]))
                if which == "bang":
                    fields.append(Field(BANG, ty.values[draw(st.integers(0, 1))],
                                        None, False))
                else:
                    var = draw(st.sampled_from(fresh))
                    fields.append(Field(QUERY, var, ty))
                    bound_here.add(var)
                    # a non-t binder shadows any t variable of the same name
                    scope2 = [v for v in scope2 if v != var]
            else:
                usable = [v for v in scope2 if v not in bound_here]
                choices = ["dollar", "query"] + (["bang"] if usable else [])
                which = draw(st.sampled_from(choices))
                if which == "bang":
                    fields.append(Field(BANG, draw(st.sampled_from(usable)),
                                        None, True))
                else:
                    var = draw(st.sampled_from(fresh))
                    fields.append(Field(DOLLAR if which == "dollar" else QUERY,
                                        var, T_TYPE))
                    bound_here.add(var)
                    scope2 = [v for v in scope2 if v != var] + [var]
        cont = draw(terms(scope=tuple(scope2), depth=depth - 1, channels=channels))
        return Prefix(Construct(chan, tuple(fields), uid=next(_uid_counter)), cont)
    if kind == "if":
        l, r = draw(st.sampled_from(
            [(a, b) for a in scope for b in scope if a != b]))
        cond = Guard(draw(st.booleans()), ((l, r),))
        from pcsp.syntax import If
        return If(cond, draw(terms(scope=scope, depth=depth - 1, channels=channels)),
                  draw(terms(scope=scope, depth=depth - 1, channels=channels)))
    from pcsp.syntax import ExtChoice, IntChoice, Sliding
    combine = {"ext": ExtChoice, "int": IntChoice, "slide": Sliding}[kind]
    return combine(draw(terms(scope=scope, depth=depth - 1, channels=channels)),
                   draw(terms(scope=scope, depth=depth - 1, channels=channels)))


@given(terms())
@settings(max_examples=120, deadline=None)
def test_canonical_form_idempotent(term):
    once = canonicalise(term)[0]
    assert canonicalise(once)[0] == once


@given(terms(scope=("xfree",)))
@settings(max_examples=120, deadline=None)
def test_substitute_removes_free_variable(term):
    got = substitute(term, {"xfree": TVal(0)})
    assert free_vars(got) == free_vars(term) - {"xfree"}


@given(terms())
@settings(max_examples=120, deadline=None)
def test_index_sets_partition(term):
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Prefix):
            sets = classify_fields(node.construct)
            k = len(node.construct.fields)
            union = (sets.dollar_t | sets.dollar_nont | sets.query_t
                     | sets.query_nont | sets.bang_t | sets.bang_nont)
            assert union == frozenset(range(1, k + 1))
            total = sum(len(s) for s in (
                sets.dollar_t, sets.dollar_nont, sets.query_t,
                sets.query_nont, sets.bang_t, sets.bang_nont))
            assert total == k
            stack.append(node.cont)
        elif hasattr(node, "left"):
            stack.extend([node.left, node.right])
        elif hasattr(node, "then"):
            stack.extend([node.then, node.els])


@given(terms())
@settings(max_examples=120, deadline=None)
def test_replace_scopes_compose(term):
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Prefix):
            alpha = node.construct
            both = replace_selections(replace_selections(alpha, "t"), "non-t")
            assert both == replace_selections(replace_selections(alpha, "non-t"), "t")
            assert all(f.sel != DOLLAR for f in both.fields)
            stack.append(node.cont)
        elif hasattr(node, "left"):
            stack.extend([node.left, node.right])
        elif hasattr(node, "then"):
            stack.extend([node.then, node.els])


@given(terms(scope=("v1", "v2")),
       st.fixed_dictionaries({}, optional={
           v: st.builds(TVal, st.integers(0, 2)) for v in ("v1", "v2")}))
@settings(max_examples=120, deadline=None)
def test_canonical_form_under_env_is_canonical_substitution(term, env):
    # binders named v1/v2 shadow the environment in both passes
    assert canonicalise(term, env)[0] == canonicalise(substitute(term, env))[0]
