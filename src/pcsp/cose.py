"""Concrete Operational Semantics with Environments.

Instantiates a symbolic transition system at a concrete type: states are
configurations (symbolic state, environment, instantiation).  A visible
symbolic event with nondeterministic selections over t first resolves them
by a τ that records the chosen values in the environment and rewrites the
selections of the originating construct into outputs; symbolic τs carry
over; conditional edges dissolve, contributing the transitions of their
target when the condition holds in the environment.

Each call works over a table of the symbolic states it meets, keyed by
canonical form and construct uids as the standard semantics keys its
leaves.  A symbolic state is canonicalised once and expanded through the
symbolic rules once; an event instance then only restricts its environment
to the target's free names and looks the pair (symbolic state, environment)
up.  A configuration's key is the canonical form of its term with the
environment substituted, so alpha-equivalent configurations are one; it is
computed by substitution into the stored canonical form, only when that
pair is new.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .errors import SemanticsError
from .lts import Event, Lts, TAU, build
from .pretty import fmt_term
from .record import record
from .ssos import Cond, require_seq
from .ssos import successors as sym_successors
from .std_semantics import eval_guard, file_alphabet, tvalues_for
from .syntax import (
    Condition, Construct, Definitions, DOLLAR, ExtChoice, If, MixedGuard,
    Prefix, ProcessTerm, QUERY, Sliding, canonicalise, classify_fields,
    domain_values, replace_selections, substitute,
)

Environment = dict  # variable name -> TVal


@record(frozen=True)
class Configuration:
    """(symbolic state, environment) at a fixed instantiation; the
    environment binds only free variables of the term (environment
    minimality).  Two configurations are identical iff substituting the
    environments yields alpha-equivalent terms, even when their symbolic
    states differ (``c!x -> d!y`` under {x->0, y->0} is ``c!x -> d!x``
    under {x->0})."""

    term: ProcessTerm
    env: tuple  # sorted (name, TVal) pairs

    def describe(self) -> str:
        items = ", ".join(f"{k}->{v}" for k, v in self.env)
        return f"({fmt_term(self.term)}, {{{items}}})"


def eval_condition(cond: Condition, env: Environment) -> bool:
    vals = []
    for l, r in cond.atoms:
        lv = env.get(l, l) if isinstance(l, str) else l
        rv = env.get(r, r) if isinstance(r, str) else r
        if isinstance(lv, str) or isinstance(rv, str):
            raise SemanticsError(
                f"condition variable {lv if isinstance(lv, str) else rv!r} "
                "is not bound by the environment")
        vals.append(lv == rv)
    result = all(vals)
    return (not result) if cond.negated else result


# ---------------------------------------------------------------------------
# The per-construct selection-to-output state transformation

def replace_t_initials(term: ProcessTerm, uid: int) -> ProcessTerm:
    """Rewrite the t-selections of the construct with the given source
    identity into outputs, wherever that construct occurs as an initial
    (pre-τ) communication of the state."""
    if isinstance(term, Prefix):
        if term.construct.uid == uid:
            return Prefix(replace_selections(term.construct, "t"), term.cont)
        return term
    if isinstance(term, ExtChoice):
        return ExtChoice(replace_t_initials(term.left, uid),
                         replace_t_initials(term.right, uid))
    if isinstance(term, Sliding):
        return Sliding(replace_t_initials(term.left, uid), term.right)
    if isinstance(term, If):
        if isinstance(term.guard, (Condition, MixedGuard)):
            return term
        branch_then = eval_guard(term.guard)
        if branch_then:
            return If(term.guard, replace_t_initials(term.then, uid), term.els)
        return If(term.guard, term.then, replace_t_initials(term.els, uid))
    return term


# ---------------------------------------------------------------------------
# Instantiation of symbolic events

def insts(eps: Construct, env: Environment, tvalues) -> list[Event]:
    """All concrete events instantiating the symbolic event consistently with
    the environment: inputs and selections of type t range over the
    instantiation, outputs take their environment values."""
    choices = []
    for f in eps.fields:
        if f.sel in (DOLLAR, QUERY):
            choices.append(list(domain_values(f.ty, tvalues)))
        else:
            if isinstance(f.payload, str):
                v = env.get(f.payload)
                if v is None:
                    return []
                choices.append([v])
            else:
                choices.append([f.payload])
    return [Event(eps.channel, vs) for vs in itertools.product(*choices)]


def match(eps: Construct, event: Event) -> Environment:
    """The environment extension caused by instantiating the symbolic event
    with the concrete event: bindings for its t inputs and selections."""
    if event.channel != eps.channel or len(event.values) != len(eps.fields):
        raise SemanticsError(f"event {event} does not fit symbolic event shape")
    out = {}
    for f, v in zip(eps.fields, event.values):
        if f.sel in (DOLLAR, QUERY) and f.is_t():
            out[f.payload] = v
    return out


# ---------------------------------------------------------------------------
# Translation rules

class _State:
    """A symbolic state of one concretize call: its term, canonical form,
    sorted free names, the id of its canonical form (uids aside), and its
    symbolic edges once expanded.  It hashes by identity."""

    __slots__ = ("term", "canon", "free", "cls", "edges")


class _Table:
    """The symbolic states and configurations of one concretize call.

    A configuration is named by an int id: (state, restricted environment)
    pairs map to it, and so does its key, which is computed only for a new
    pair."""

    def __init__(self, defs: Definitions, tvalues):
        self.defs = defs
        self.tvalues = tvalues
        self.states: dict = {}   # (canonical form, uids) -> _State
        self.classes: dict = {}  # canonical form -> id
        self.ids: dict = {}      # (state, restricted env) -> configuration id
        self.key_ids: dict = {}  # configuration key -> configuration id
        self.keys: list = []     # configuration id -> key

    def state(self, term: ProcessTerm) -> _State:
        canon, free, uids = canonicalise(term)
        st = self.states.get((canon, uids))
        if st is None:
            st = self.states[canon, uids] = _State()
            st.term, st.canon, st.free = term, canon, tuple(sorted(free))
            st.cls = self.classes.setdefault(canon, len(self.classes))
            st.edges = None
        return st

    def edges(self, st: _State) -> list:
        """The symbolic edges of a state as (label, uid, target state,
        extra): a τ carries the list of environment extensions it
        instantiates to (one empty one for a symbolic τ, one per choice of
        values for a visible event's t-selections, whose target is the
        state with those selections rewritten to outputs); a visible event
        carries its construct; a conditional edge nothing."""
        if st.edges is None:
            st.edges = []
            for lab, uid, target in sym_successors(st.term, self.defs):
                if lab is TAU:
                    st.edges.append((TAU, uid, self.state(target), ({},)))
                elif isinstance(lab, Cond):
                    st.edges.append((lab, uid, self.state(target), None))
                else:
                    eps = lab.event
                    positions = sorted(classify_fields(eps).dollar_t)
                    if positions:
                        names = [eps.fields[i - 1].payload for i in positions]
                        domains = [domain_values(eps.fields[i - 1].ty, self.tvalues)
                                   for i in positions]
                        st.edges.append((
                            TAU, eps.uid,
                            self.state(replace_t_initials(st.term, eps.uid)),
                            [dict(zip(names, vs)) for vs in itertools.product(*domains)]))
                    else:
                        st.edges.append((lab, eps.uid, self.state(target), eps))
        return st.edges

    def config(self, st: _State, env: Environment) -> tuple[tuple, int]:
        """The configuration of st under env, as the pair (st, env
        restricted to the free names of st) and its id."""
        pair = (st, tuple((k, env[k]) for k in st.free if k in env))
        cid = self.ids.get(pair)
        if cid is None:
            key = substitute(st.canon, dict(pair[1]))
            cid = self.key_ids.get(key)
            if cid is None:
                cid = self.key_ids[key] = len(self.keys)
                self.keys.append(key)
            self.ids[pair] = cid
        return pair, cid


def successors_of_config(cfg: tuple, table: _Table) -> list:
    """COSE transitions of a configuration, given as the pair (symbolic
    state, restricted environment), as (label, uid, target pair,
    configuration id).  Conditional symbolic edges whose condition holds
    contribute the transitions of their target (so a false condition
    contributes nothing); chains of conditionals are followed with a cycle
    guard on the canonical form."""
    st, env = cfg
    env = dict(env)
    out = []
    seen = set()

    def expand(st: _State):
        if st.cls in seen:
            return
        seen.add(st.cls)
        for lab, uid, target, extra in table.edges(st):
            if lab is TAU:
                for binding in extra:
                    out.append((TAU, uid, *table.config(target, {**env, **binding})))
            elif isinstance(lab, Cond):
                if eval_condition(lab.condition, env):
                    expand(target)
            else:
                for event in insts(extra, env, table.tvalues):
                    out.append((event, uid, *table.config(
                        target, {**env, **match(extra, event)})))

    expand(st)
    return out


def _configuration(cfg: tuple) -> Configuration:
    st, env = cfg
    return Configuration(st.term, env)


def concretize(defs: Definitions, source: Union[str, ProcessTerm],
               tsize: int, init_env: Optional[Environment] = None,
               max_states: int = 100_000) -> Lts:
    """The LTS of configurations rooted at (root state, initial environment),
    per the translation rules.  The breadth-first build runs over
    configuration ids; the returned keys are the configuration keys, which
    do not depend on tsize.  require_seq runs first."""
    root_term = defs.body(source) if isinstance(source, str) else source
    require_seq(root_term, defs)
    tvalues = tvalues_for(tsize)
    table = _Table(defs, tvalues)
    root = table.config(table.state(root_term), dict(init_env or {}))
    lts = build(*root, lambda cfg: successors_of_config(cfg, table),
                alphabet=file_alphabet(defs, tvalues), tsize=tsize,
                max_states=max_states,
                describe=lambda cfg: _configuration(cfg).describe())
    return Lts(lts.root, [_configuration(cfg) for cfg in lts.states],
               [table.keys[cid] for cid in lts.keys], lts.edges,
               lts.alphabet, tsize)
