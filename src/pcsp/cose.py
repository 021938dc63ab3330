"""Concrete Operational Semantics with Environments.

Instantiates a symbolic transition system at a concrete type: states are
configurations (symbolic state, environment, instantiation).  A visible
symbolic event with nondeterministic selections over t first resolves them
by a τ that records the chosen values in the environment and rewrites the
selections of the originating construct into outputs; symbolic τs carry
over; conditional edges dissolve, contributing the transitions of their
target when the condition holds in the environment.

Each call works over a graph of the symbolic states it meets
(ssos.state_graph, the nodes build_sslts explores).  A symbolic state's
moves are computed and translated into edges once, the selection-to-output
rewrite node by node; an event instance then only restricts its
environment to the target's free names and looks the pair (symbolic node,
environment) up.  A configuration's id is the state class of its node with
the environment's values put in, the way StateGraph.rename puts in
permuted values, so configurations whose instantiated terms are
alpha-equivalent are one; it is computed only when that pair is new.

A configuration reached through true conditions takes its mover's row:
every configuration whose true conditions lead to the same runs of edges
under the same restricted environments shares one row object
(_Configurations.mover).
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .errors import SemanticsError
from .lts import Event, Lts, TAU, build
from .pretty import fmt_term
from .record import record
from .ssos import Cond, SymbolicGraph, state_graph
from .std_semantics import DEFAULT_MAX_STATES, eval_guard, file_alphabet, tvalues_for
from .syntax import (
    Condition, Construct, Definitions, DOLLAR, If, MixedGuard, Prefix,
    ProcessTerm, QUERY, domain_values, eval_condition, free_vars, selections,
    substitute,
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

class _Configurations:
    """The symbolic nodes of one concretize call and its configurations."""

    def __init__(self, graph: SymbolicGraph, tvalues):
        self.graph = graph
        self.tvalues = tvalues
        self.ids: dict = {}    # (node, restricted env) -> configuration id
        self.free: dict = {}   # node -> its free names, sorted
        self.edges: dict = {}  # node -> its edges
        self.conditional: set = set()  # the nodes with a conditional edge
        self.runs: dict = {}   # run (see mover) -> its transitions

    def names(self, i: int) -> tuple:
        """The free names of node i, sorted: those standing for themselves
        in a leaf's env, or in an operator's data and operands."""
        got = self.free.get(i)
        if got is None:
            graph = self.graph
            key = graph.kids[i]
            if key is None:
                got = {v for v in graph.leaves[i][1] if v.__class__ is str}
            else:
                got = free_vars(graph.blanks[key[0]]).union(*map(self.names, key[1:]))
            got = self.free[i] = tuple(sorted(got))
        return got

    def put(self, i: int, env: Environment) -> int:
        """The node of node i with env's values put in for its free names: a
        leaf is interned with its env so valued, an operator node rebuilt
        from its operands'."""
        if not any(k in env for k in self.names(i)):
            return i
        graph = self.graph
        key = graph.kids[i]
        if key is None:
            p, values = graph.leaves[i]
            return graph.intern(p, tuple([env.get(v, v) for v in values]))
        return graph.node((graph.op_id(substitute(graph.blanks[key[0]], env)),
                           *[self.put(k, env) for k in key[1:]]))

    def outputs(self, i: int, uid: int, names: tuple) -> int:
        """Node i with the t-selections (names) of the construct uid
        rewritten into outputs wherever that construct is an initial
        (pre-τ) communication: below the operands a choice keeps and the
        branch a non-t conditional takes, which stays around it."""
        graph = self.graph
        key = graph.kids[i]
        if key is None:
            p, env = graph.leaves[i]
            if (graph.engine.positions[p].term.__class__ is not Prefix
                    or graph.engine.closed(p, env)[0].uid != uid):
                return i
            return graph.intern(graph.engine.stage(p, "t", names), env + names)
        blank = graph.blanks[key[0]]
        if blank.__class__ is not If:
            kept = graph.kept(key)
        elif isinstance(blank.guard, (Condition, MixedGuard)):
            return i
        else:
            kept = (0,) if eval_guard(blank.guard) else (1,)
        kids = list(key[1:])
        for j in kept:
            kids[j] = self.outputs(kids[j], uid, names)
        return graph.node((key[0], *kids))

    def edges_of(self, i: int) -> list:
        """The edges of node i as (label, uid, target node, extra), derived
        from its moves once: a τ carries the environment extensions it
        instantiates to (one empty one for a symbolic τ, one per choice of
        values for a visible event's t-selections, whose target has them
        rewritten to outputs), a visible event its construct."""
        got = self.edges.get(i)
        if got is None:
            got = self.edges[i] = []
            for lab, uid, target in self.graph.successors(i):
                if lab is TAU or isinstance(lab, Cond):
                    got.append((lab, uid, target, ({},) if lab is TAU else None))
                    if lab is not TAU:
                        self.conditional.add(i)
                else:
                    names, values = selections(lab.event, "t", self.tvalues)
                    if names:
                        got.append((TAU, uid, self.outputs(i, uid, names),
                                    [dict(zip(names, vs)) for vs in values]))
                    else:
                        got.append((lab, uid, target, lab.event))
        return got

    def restrict(self, i: int, env: Environment) -> tuple:
        """env restricted to the free names of node i, as sorted pairs."""
        return tuple((k, env[k]) for k in self.names(i) if k in env)

    def config(self, i: int, env: Environment) -> tuple[tuple, int]:
        """The configuration of node i under env, as the pair (i, env
        restricted to the free names of i) and its id."""
        pair = (i, self.restrict(i, env))
        cid = self.ids.get(pair)
        if cid is None:
            cid = self.ids[pair] = self.graph.state(self.put(i, dict(pair[1])))
        return pair, cid

    def mover(self, cfg: tuple) -> Optional[tuple]:
        """None for a configuration (node, restricted env) whose node has no
        conditional edge, else the runs of edges it takes its transitions
        from: a conditional edge whose condition holds contributes those of
        its target, so the runs (j, env restricted to j's free names,
        start, stop) slice the other edges of the nodes so reached, in the
        order the rules collect them, with a cycle guard on state class."""
        i, env = cfg
        self.edges_of(i)  # which fills self.conditional
        if i not in self.conditional:
            return None
        env = dict(env)
        state = self.graph.state
        runs, seen = [], set()

        def expand(j: int):
            cls = state(j)
            if cls in seen:
                return
            seen.add(cls)
            edges, renv, start = self.edges_of(j), self.restrict(j, env), 0
            for k, (lab, _, target, _) in enumerate(edges):
                if lab.__class__ is Cond:
                    if start < k:
                        runs.append((j, renv, start, k))
                    start = k + 1
                    if eval_condition(lab.condition, env):
                        expand(target)
            if start < len(edges):
                runs.append((j, renv, start, len(edges)))

        expand(i)
        return tuple(runs)

    def successors(self, moves: tuple) -> list:
        """COSE transitions, as (label, uid, target pair, configuration id),
        of a configuration (node, restricted env) or of the runs one moves
        as, each run's computed once."""
        if moves and moves[0].__class__ is int:  # a configuration, not runs
            runs = self.mover(moves)
            if runs is None:
                i, env = moves
                return self._instances(self.edges_of(i), dict(env))
            moves = runs
        out = []
        for run in moves:
            got = self.runs.get(run)
            if got is None:
                j, env, start, stop = run
                got = self.runs[run] = self._instances(self.edges_of(j)[start:stop], dict(env))
            out += got
        return out

    def _instances(self, edges: list, env: Environment) -> list:
        """The event instances of non-conditional edges under env."""
        out = []
        for lab, uid, target, extra in edges:
            if lab is TAU:
                for binding in extra:
                    out.append((TAU, uid, *self.config(target, {**env, **binding})))
            else:
                for event in insts(extra, env, self.tvalues):
                    out.append((event, uid, *self.config(
                        target, {**env, **match(extra, event)})))
        return out


def concretize(defs: Definitions, source: Union[str, ProcessTerm],
               tsize: int, init_env: Optional[Environment] = None,
               max_states: int = DEFAULT_MAX_STATES, terms: bool = False) -> Lts:
    """The LTS of configurations rooted at (root state, initial environment),
    per the translation rules.  The breadth-first build runs over
    configuration ids, which identify configurations within one call only.
    The states are (node, env) pairs, and with terms=True Configurations,
    which only a printed LTS reads."""
    graph, root = state_graph(defs, source)
    table = _Configurations(graph, tvalues_for(tsize))
    root = table.config(root, dict(init_env or {}))
    lts = build(*root, table.successors,
                alphabet=file_alphabet(defs, table.tvalues),
                max_states=max_states, mover=table.mover,
                describe=lambda cfg: Configuration(graph.term(cfg[0]), cfg[1]).describe())
    if terms:
        lts.states = [Configuration(graph.term(i), env) for i, env in lts.states]
    return lts
