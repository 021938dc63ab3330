"""Semi-Symbolic Operational Semantics.

Builds the SSLTS of a sequential process with the distinguished type t left
uninstantiated.  Labels are τ, visible symbolic events (constructs whose
non-t inputs have been resolved to concrete outputs), or conditional events:
a guard on t or its negation, the syntax.Guard record itself.  External and
sliding choice alike promote τ and conditional labels through the operands
they keep; non-t conditionals are evaluated during construction.  The
non-t projection of a visible symbolic event is the key by which the
traces threshold groups events.

The symbolic states of one build are the nodes of a state graph of the
standard semantics (std_semantics.StateGraph) numbered by an Engine with no
t-values: a leaf is (position, env), keyed as the standard semantics keys
its leaves, with a symbolic t-variable standing in env as its own name, and
[], [> and if are operator nodes (SymbolicGraph), a left-nested [] chain
one n-ary choice node.  The rules stay the symbolic ones, one per node
class (_RULES and _if), kept as the standard graph keeps its lists: per
node, but for a choice node read by a choice (StateGraph.operand_moves).
A choice moves by the standard rule, which keeps it around a conditional
move as around a τ.  build_sslts keys states by state class; the
translation semantics (cose) instantiates the nodes of its own graph.
"""

from __future__ import annotations

from typing import Union

from .conditions import check_seq
from .errors import SemanticsError
from .lts import TAU, Lts, build
from .pretty import fmt_construct, fmt_guard, fmt_term
from .record import record
from .std_semantics import DEFAULT_MAX_STATES, Engine, StateGraph, check_guarded_recursion
from .syntax import (
    BANG, Construct, Definitions, ExtChoice, Guard, Ident, If, IntChoice, Prefix,
    ProcessTerm, Sliding, Stop, classify_fields, comms_nont, construct_binding,
    eval_guard, selections, value_key,
)


@record(frozen=True)
class Vis:
    """A visible symbolic event label."""

    event: Construct

    def __str__(self) -> str:
        return fmt_construct(self.event)


def sym_label_key(label):
    if label is TAU:
        return (0, "")
    if label.__class__ is Guard:
        return (1, fmt_guard(label))
    return (2, label.event.channel, _vis_struct_key(label.event))


def _vis_struct_key(e: Construct):
    parts = []
    for f in e.fields:
        if f.sel == BANG:
            if isinstance(f.payload, str):
                parts.append((0, "v", f.payload))
            else:
                parts.append((1,) + value_key(f.payload))
        else:
            parts.append((2, f.sel, f.payload))
    return tuple(parts)


# The symbolic rules, one per node class: each gives the (label,
# construct_uid, target node) triples of a node of the state graph.

def _leaf(graph: SymbolicGraph, i: int, term) -> list:
    """STOP, internal choice and a call move as in the standard semantics;
    a call unfolds only when its arguments are closed."""
    engine = graph.engine
    p, env = graph.leaves[i]
    if term.__class__ is Ident and any(v.__class__ is str for v in env):
        # every name left in a symbolic state is a t-variable
        raise SemanticsError(f"cannot unfold {fmt_term(engine.closed(p, env))}: the symbolic "
                             "semantics cannot yet pass a symbolic t-variable as an argument")
    return [(lab, uid, graph.intern(q, e))
            for lab, uid, q, e in engine.successors(p, env, graph.tvalues)]


def _prefix(graph: SymbolicGraph, i: int, term) -> list:
    """Resolve the non-t selections by one τ per choice of values, the
    chosen selections becoming outputs; then the visible symbolic events,
    whose t-inputs and t-selections stand for themselves in the target."""
    engine = graph.engine
    p, env = graph.leaves[i]
    alpha, scope = engine.closed(p, env)
    names, values = selections(alpha, "non-t", ())
    if names:
        q = engine.stage(p, "non-t", names)
        return [(TAU, alpha.uid, graph.intern(q, env + vs)) for vs in values]
    cont, query = engine.positions[p].kids[0], classify_fields(alpha).query_nont
    return [(Vis(eps), alpha.uid, graph.intern(cont, engine.env_of(cont, {
                **scope, **construct_binding(alpha, [f.payload for f in eps.fields], query)})))
            for eps in comms_nont(alpha)]


def _if(graph: SymbolicGraph, key: tuple, term: If) -> list:
    """A guard on t moves by itself, or by its negation, to the branch it
    selects (Seq has no mixed guard); any other guard is evaluated, and the
    branch it takes moves."""
    g = term.guard
    if g.t_atoms:
        return [(g, None, key[1]), (g.negate(), None, key[2])]
    return graph.successors(key[1] if eval_guard(g) else key[2])


_RULES = {Stop: _leaf, IntChoice: _leaf, Ident: _leaf, Prefix: _prefix}


class SymbolicGraph(StateGraph):
    """The symbolic states of one build: a state graph numbered by an engine
    with no t-values, whose operator nodes are the choices and the
    conditionals, and whose successors come from the symbolic rules."""

    operators = (ExtChoice, Sliding, If)

    def moves(self, i: int) -> list:
        """The successors of node i by the symbolic rule of its class (in Seq,
        which state_graph checked, each has one)."""
        key = self.kids[i]
        if key is None:
            term = self.engine.positions[self.leaves[i][0]].term
            return _RULES[term.__class__](self, i, term)
        blank = self.blanks[key[0]]
        return _if(self, key, blank) if blank.__class__ is If else self._choice(key, blank)


def state_graph(defs: Definitions, proc: Union[str, ProcessTerm]) -> tuple:
    """The symbolic graph of one build and the node of proc in it, which the
    SSLTS and the translation semantics both explore.  First the
    precondition of the symbolic rules: the process is in the Seq fragment,
    on which alone they are defined, and its recursion is guarded."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    report = check_seq(proc, defs)
    if not report.ok():
        raise SemanticsError(
            "process is not in the Seq fragment: "
            + "; ".join(f.message for f in report.findings))
    check_guarded_recursion(term, defs)
    graph = SymbolicGraph(Engine(defs), ())
    return graph, graph.intern_root(proc)


def build_sslts(defs: Definitions, proc: Union[str, ProcessTerm],
                max_states: int = DEFAULT_MAX_STATES, terms: bool = False) -> Lts:
    """Breadth-first closure of the symbolic transition rules over a graph
    of symbolic states: an Lts whose states are node ids, and with
    terms=True terms, which only a printed LTS reads, deduplicated by state
    class, with symbolic labels and an empty alphabet."""
    graph, root = state_graph(defs, proc)
    lts = build(root, graph.state(root),
                lambda i: [(lab, uid, t, graph.state(t)) for lab, uid, t in graph.successors(i)],
                alphabet=frozenset(), max_states=max_states,
                describe=lambda i: fmt_term(graph.term(i)), order=sym_label_key)
    if terms:
        lts.states = [graph.term(i) for i in lts.states]
    return lts


# ---------------------------------------------------------------------------
# The non-t projection of visible symbolic events

def nont_event_key(e: Construct):
    """The non-t projection of a visible symbolic event: the channel plus the
    concrete non-t fields; every t field collapses to a wildcard."""
    parts = []
    for f in e.fields:
        if f.is_t():
            parts.append(("t",))
        else:
            parts.append(("v",) + value_key(f.payload))
    return (e.channel, tuple(parts))
