"""Concrete Operational Semantics with Environments.

Instantiates a symbolic transition system at a concrete type: states are
configurations (symbolic state, environment, instantiation).  A visible
symbolic event with nondeterministic selections over t first resolves them
by a τ that records the chosen values in the environment and rewrites the
selections of the originating construct into outputs; symbolic τs carry
over; conditional edges dissolve, contributing the transitions of their
target when the condition holds in the environment.

Each call works over a table of the symbolic states it meets (ssos.Table,
which build_sslts explores too), keyed by canonical form and construct
uids as the standard semantics keys its leaves.  A symbolic state is
canonicalised once, and its symbolic moves are computed and translated
into edges once; an event instance then only restricts its environment
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
from .ssos import Cond, State, Table, require_seq
from .std_semantics import eval_guard, file_alphabet, tvalues_for
from .syntax import (
    KEEPING, Condition, Construct, Definitions, DOLLAR, If, MixedGuard, Prefix,
    ProcessTerm, QUERY, domain_values, eval_condition, replace_selections,
    selections, substitute, subterms, with_subterms,
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


# ---------------------------------------------------------------------------
# The per-construct selection-to-output state transformation

def replace_t_initials(term: ProcessTerm, uid: int) -> ProcessTerm:
    """Rewrite the t-selections of the construct with the given source
    identity into outputs, wherever that construct occurs as an initial
    (pre-τ) communication of the state: below the operands a choice keeps
    (syntax.KEEPING) and the branch a non-t conditional takes."""
    cls = term.__class__
    if cls is Prefix:
        return (Prefix(replace_selections(term.construct, "t"), term.cont)
                if term.construct.uid == uid else term)
    if cls is If:
        if isinstance(term.guard, (Condition, MixedGuard)):
            return term
        kept = (0,) if eval_guard(term.guard) else (1,)
    else:
        kept = KEEPING.get(cls)
        if kept is None:
            return term
    subs = list(subterms(term))
    for i in kept:
        subs[i] = replace_t_initials(subs[i], uid)
    return with_subterms(term, subs)


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

class _Configurations(Table):
    """The symbolic states of one concretize call and its configurations.

    A configuration is named by an int id: (state, restricted environment)
    pairs map to it, and so does its key, which is computed only for a new
    pair."""

    def __init__(self, defs: Definitions, tvalues):
        super().__init__(defs)
        self.tvalues = tvalues
        self.ids: dict = {}      # (state, restricted env) -> configuration id
        self.key_ids: dict = {}  # configuration key -> configuration id
        self.keys: list = []     # configuration id -> key

    def edges(self, st: State) -> list:
        """The edges of a state as (label, uid, target state, extra),
        derived from its moves once: a τ carries the environment extensions
        it instantiates to (one empty one for a symbolic τ, one per choice
        of values for a visible event's t-selections, whose target has them
        rewritten to outputs), a visible event its construct."""
        if st.edges is None:
            st.edges = []
            for lab, uid, target in self.moves(st):
                if lab is TAU:
                    st.edges.append((TAU, uid, target, ({},)))
                elif isinstance(lab, Cond):
                    st.edges.append((lab, uid, target, None))
                else:
                    names, values = selections(lab.event, "t", self.tvalues)
                    if names:
                        st.edges.append((
                            TAU, uid, self.state(replace_t_initials(st.term, uid)),
                            [dict(zip(names, vs)) for vs in values]))
                    else:
                        st.edges.append((lab, uid, target, lab.event))
        return st.edges

    def config(self, st: State, env: Environment) -> tuple[tuple, int]:
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


def successors_of_config(cfg: tuple, table: _Configurations) -> list:
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

    def expand(st: State):
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
    table = _Configurations(defs, tvalues)
    root = table.config(table.state(root_term), dict(init_env or {}))
    lts = build(*root, lambda cfg: successors_of_config(cfg, table),
                alphabet=file_alphabet(defs, tvalues), tsize=tsize,
                max_states=max_states,
                describe=lambda cfg: Configuration(cfg[0].term, cfg[1]).describe())
    return Lts(lts.root, [Configuration(st.term, env) for st, env in lts.states],
               [table.keys[cid] for cid in lts.keys], lts.edges,
               lts.alphabet, tsize)
