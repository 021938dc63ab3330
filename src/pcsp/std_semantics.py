"""Standard concrete operational semantics.

Builds the LTS of a closed process instantiated at T = {0..n-1}.  Prefixes
resolve nondeterministic selections in two τ-stages (all non-t selections
simultaneously, then all t selections simultaneously); choice, binding and
conditional rules are the usual ones, and the operators outside the
sequential fragment (hiding, renaming, the parallels and their replicated
forms) follow the standard CSP rules.

Positions.  The engine numbers the process subterms it reaches, once for
all the builds that share it, whatever their sizes: the root term, and an
equation's body when an identifier first unfolds to it.  A position is one
occurrence of a subterm, with its free names in sorted order.  A leaf state
is the pair (position, env), env holding the values of those names, so no
state is substituted into whole: the leaf rules (Engine) evaluate a
construct, guard, index set or argument list under env and extend env for
the target, at a cost that does not grow with the size of the leaf.  The
closed term a leaf stands for is built, from the memoised terms of its
subterms, only where text is needed: a printed LTS (build_lts(terms=True))
and BoundExceeded frontiers.

Exploration runs over a per-build hash-consed state graph (StateGraph),
over which the symbolic semantics (ssos, cose) build their states too.
The non-binding operators (external and sliding choice, interleaving, the
two parallels, hiding, renaming) are nodes keyed by their operator and
their operands' nodes; every other term is a leaf.  A left-nested chain of
[] or ||| is one node of n operands.  Each node's successors are computed
once: an operator rule combines its operands' memoised successor lists,
so an operand that does not move is never explored again.  A parallel
pulls an interleaving operand's moves from the lists of the
interleaving's own operands and makes a target node only for a move it
keeps, so a move it blocks costs no node.  An operator's data (event
sets, renaming map) is evaluated once per build, and a synchronising
operand's moves are indexed by label once per node.
The operator tree is not fixed in advance, as it would be in a compiled
synchronisation tree: an identifier may unfold into a parallel composition
after a τ, and the composition becomes new nodes.

State classes.  States are told apart as closed terms up to the names of
bound variables, construct uids aside.  The class of a leaf is a hash-consed
id of its position's blank (the term with its subterms cut off) under env,
canonicalised, and the classes of its subterms (Engine.leaf_key), memoised
per (position, env), so a new leaf costs time in proportion to its new
parts.  Leaves whose terms agree up to bound names, uids included, share
one node, having the same successors wherever they come from.

A replicated operator over t is expanded in one place: StateGraph.intern,
when it becomes a node, as the root, a transition target or an operand of
an operator node.  Inside a leaf it stays as written until the transition
into it interns it, so no expansion happens below a prefix and every index
set is evaluated once its names are bound; a replicated internal choice
stays a leaf whose τs resolve its body.  ``[] i:X @ P(i)`` and
``||| i:X @ P(i)`` become one n-ary node, as their left-nested chains
do: a choice node, a vector node for an interleaving over the whole of
t (its operands' places are the index values, which the symmetry
reduction permutes), a plain interleaving node otherwise.  A move of one
operand makes one node, and none when a parallel above blocks it; a
vector displays as the chain ``P(0) ||| ... ||| P(n-1)``.  Only
``|| i:X @ [A(i)] P(i)`` becomes a left-associated tree of [A||B].

build_lts(..., symmetric_from=B) explores modulo the permutations of
{B..n-1}: every successor is replaced by a representative of its orbit, in
which the t-values of the state are renamed and the instances of each
vector move with their indices (scalarset symmetry reduction: Ip and Dill,
"Better verification through symmetry", FMSD 1996).  The B-collapsing
function cannot tell those permutations apart, so the result collapsed
through it is strongly bisimilar to the collapsed full system when the
process is symmetric in t; the argument is in build_lts.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Union

from .errors import SemanticsError
from .lts import Alphabet, Event, Lts, TAU, build, tau_closure, terms_bounded
from .syntax import (
    AlphaPar, Definitions, Equation, EventSet, ExtChoice, Guard, Hide, Ident,
    If, IntChoice, Interleave, Prefix, ProcessTerm, Rename, ReplAlphaPar,
    ReplExtChoice, ReplIntChoice, ReplInterleave, SharedPar, Sliding, Stop,
    TType, TVal, KEEPING, VarRef, binders, canonicalise, check_instantiated,
    classify_fields, comms, construct_binding, domain_values, eval_data,
    eval_guard, free_vars, map_subterms, permute_t, replace_selections,
    selections, subst_event_set, substitute, subterms, t_values, unfold_walk,
    with_subterms,
)

DEFAULT_MAX_STATES = 200_000

STOP = Stop()


def tvalues_for(n: int) -> tuple[TVal, ...]:
    if n < 1:
        raise SemanticsError("the distinguished type must be instantiated non-empty")
    return tuple(TVal(i) for i in range(n))


def file_alphabet(defs: Definitions, tvalues) -> Alphabet:
    """All events of the declared channels over the instantiation, made
    when first read."""
    def events():
        out = set()
        for name, sig in defs.channels.items():
            domains = [domain_values(ty, tvalues) for ty in sig]
            for vs in itertools.product(*domains):
                out.add(Event(name, tuple(vs)))
        return frozenset(out)
    return Alphabet(events)


def eval_event_set(evset: EventSet, defs: Definitions, tvalues) -> frozenset[Event]:
    out = set()
    for item in evset.closures:
        sig = defs.channels.get(item.channel)
        if sig is None:
            raise SemanticsError(f"undeclared channel {item.channel!r} in event set")
        fixed = _closed_datums(item, "event set", tvalues)
        rest = [domain_values(ty, tvalues) for ty in sig[len(fixed):]]
        for vs in itertools.product(*rest):
            out.add(Event(item.channel, fixed + vs))
    for item in evset.literals:
        out.add(Event(item.channel, _closed_datums(item, "event set", tvalues)))
    return frozenset(out)


def _rename_map(pairs, defs: Definitions, tvalues):
    """Relational renaming: event -> tuple of renamed events."""
    mapping: dict[Event, list[Event]] = {}
    for a, b in pairs:
        if isinstance(a, str) or isinstance(b, str):
            if not (isinstance(a, str) and isinstance(b, str)):
                raise SemanticsError("renaming must pair channels with channels")
            siga, sigb = defs.channels.get(a), defs.channels.get(b)
            if siga is None or sigb is None or len(siga) != len(sigb):
                raise SemanticsError(f"renaming {a!r} <- {b!r}: incompatible channels")
            domains = [domain_values(ty, tvalues) for ty in sigb]
            for vs in itertools.product(*domains):
                mapping.setdefault(Event(b, tuple(vs)), []).append(Event(a, tuple(vs)))
        else:
            src = Event(b.channel, _closed_datums(b, "renaming", tvalues))
            dst = Event(a.channel, _closed_datums(a, "renaming", tvalues))
            mapping.setdefault(src, []).append(dst)
    return mapping


def _closed_datums(item, where: str, tvalues) -> tuple:
    """The values of an event item of an event set or a renaming pair: all
    bound, and every t-value inside the instantiation."""
    for d in item.datums:
        if isinstance(d, str):
            raise SemanticsError(f"unbound variable {d!r} in {where}")
        check_instantiated(d, tvalues)
    return tuple(item.datums)


class _Bound(str):
    """A name bound inside the leaf whose class is being computed, as the
    de Bruijn index of its binder: ``^0`` is bound by the nearest binder
    above the subterm that mentions it.  It means the same wherever that
    subterm stands, and no source name starts with ``^``."""

    __slots__ = ()

    def __new__(cls, k: int):
        return super().__new__(cls, f"^{k}")


def _shifted(v, m: int):
    """A value of an env as seen below m more binders."""
    return _Bound(int(v[1:]) + m) if v.__class__ is _Bound else v


class _Position:
    """One numbered occurrence of a process subterm.

    names are its free names, sorted; a leaf here carries their values in
    that order.  blank is the term with its subterms replaced by STOP, and
    binders what it binds over them (syntax.binders).  kids are the
    positions of its subterms; a replicated operator's body is kids[0].  A
    prefix with its $-selections in one scope resolved is a position of its
    own: base is the prefix before that stage and stage the (scope, names)
    it resolves; the names' values follow base's env in its env."""

    __slots__ = ("term", "blank", "names", "binders", "kids", "base", "stage")

    def __init__(self, term, blank, names, binders, kids, base=None, stage=None):
        self.term, self.blank, self.names, self.binders = term, blank, names, binders
        self.kids, self.base, self.stage = kids, base, stage


class Engine:
    """The positions of one Definitions and the leaf rules over them: the
    successors of a prefix (with its two selection stages), internal
    choice, identifier, replicated internal choice or STOP, the branch a
    conditional takes, the operands of a replicated operator, and the class
    and the term of a leaf.  The operator rules, which combine the
    successors of subterms, live in StateGraph.

    Nothing here depends on the size of t but the rules that enumerate it
    (successors, _fire, expansion), which take the instantiation as an
    argument; so the builds of one run, at every size, share one engine
    and its memos."""

    def __init__(self, defs: Definitions):
        self.defs = defs
        self.positions: list[_Position] = []
        self._bodies: dict = {}    # equation name -> position of its body
        self._stages: dict = {}    # (prefix position, scope) -> position
        self._classes: dict = {}   # (canonical blank, subterm classes...) -> class,
                                   # (uid or None, subterm uids...) -> uids
        self._class_of: dict = {}  # (position, env) -> (class, uids)
        self._terms: dict = {}     # (position, env) -> closed term
        self._closed: dict = {}    # (position, env) -> closed data
        self._guarded: set = set()  # processes check_guarded_recursion passed

    def check_guarded(self, proc: Union[str, ProcessTerm]) -> None:
        """check_guarded_recursion for a defined name or a term, once."""
        if proc not in self._guarded:
            check_guarded_recursion(self.defs.body(proc) if isinstance(proc, str) else proc,
                                    self.defs)
            self._guarded.add(proc)

    def number(self, term: ProcessTerm) -> int:
        """The position of term, numbering its subterms."""
        blank = map_subterms(term, lambda _: STOP)
        own = binders(term)
        kids = [self.number(sub) for sub in subterms(term)]
        below = set()
        for k in kids:
            below.update(self.positions[k].names)
        names = tuple(sorted(free_vars(blank) | (below - own.keys())))
        return self._add(_Position(term, blank, names, own, tuple(kids)))

    def _add(self, pos: _Position) -> int:
        self.positions.append(pos)
        return len(self.positions) - 1

    def body(self, name: str) -> int:
        """The position of an equation's body."""
        p = self._bodies.get(name)
        if p is None:
            p = self._bodies[name] = self.number(self.defs.equations[name].body)
        return p

    def stage(self, p: int, scope: str, names: tuple) -> int:
        """The position of prefix p with its $-selections in scope resolved
        to the values of names."""
        q = self._stages.get((p, scope))
        if q is None:
            base = self.positions[p]
            q = self._stages[p, scope] = self._add(_Position(
                base.term, base.blank, base.names, base.binders, base.kids,
                base=p, stage=(scope, names)))
        return q

    def env_of(self, p: int, scope: dict) -> tuple:
        """The env of position p under scope; a name scope lacks is unbound
        and stands for itself."""
        return tuple([scope.get(k, k) for k in self.positions[p].names])

    def _construct(self, pos: _Position, env: tuple) -> tuple:
        """A prefix leaf's construct with the values of env substituted and
        its selections resolved, and the scope of its continuation apart
        from the names its remaining binders bind.  A resolved stage
        substitutes into the stage before it as the τ that resolved it did."""
        if pos.base is None:
            outer = dict(zip(pos.names, env))
            return (substitute(pos.blank, outer).construct,
                    {k: v for k, v in outer.items() if k not in pos.binders})
        sel, names = pos.stage
        n = len(env) - len(names)
        alpha, scope = self.closed(pos.base, env[:n])
        chosen = dict(zip(names, env[n:]))
        alpha = substitute(Prefix(replace_selections(alpha, sel), STOP), chosen).construct
        remaining = binders(alpha)
        return alpha, {**{k: v for k, v in chosen.items() if k not in remaining}, **scope}

    def closed(self, p: int, env: tuple):
        """The data of the leaf (p, env), memoised: for a prefix, its
        construct and its continuation's scope (_construct); for any other
        term, its blank with env substituted."""
        key = (p, env)
        got = self._closed.get(key)
        if got is None:
            pos = self.positions[p]
            if pos.term.__class__ is Prefix:
                got = self._construct(pos, env)
            else:
                got = substitute(pos.blank, dict(zip(pos.names, env)))
            self._closed[key] = got
        return got

    def successors(self, p: int, env: tuple, tvalues: tuple[TVal, ...]) -> list:
        """(label, construct_uid, target position, target env) quadruples of
        the leaf (p, env) at the instantiation tvalues, unsorted; a
        conditional has none of its own."""
        pos = self.positions[p]
        cls = pos.term.__class__
        if cls is Stop:
            return []
        if cls is Prefix:
            return self._fire(p, pos, env, tvalues)
        scope = dict(zip(pos.names, env))
        if cls is IntChoice:
            return [(TAU, None, k, self.env_of(k, scope)) for k in pos.kids]
        if cls is Ident:
            return [(TAU, None, *self.unfold(p, env))]
        if cls is ReplIntChoice:
            members = domain_values(self.closed(p, env).domain, tvalues)
            if not members:
                raise SemanticsError("replicated internal choice over an empty index set")
            body = pos.kids[0]
            return [(TAU, None, body, self.env_of(body, {**scope, pos.term.var: v}))
                    for v in members]
        raise SemanticsError(f"successors: unknown term {pos.term!r}")

    def _fire(self, p: int, pos: _Position, env: tuple, tvalues) -> list:
        alpha, scope = self.closed(p, env)
        for sel in ("non-t", "t"):
            names, values = selections(alpha, sel, tvalues)
            if names:
                q = self.stage(p, sel, names)
                return [(TAU, alpha.uid, q, env + vs) for vs in values]
        cont, query = pos.kids[0], classify_fields(alpha).query
        return [(Event(alpha.channel, values), alpha.uid, cont,
                 self.env_of(cont, {**scope, **construct_binding(alpha, values, query)}))
                for values in comms(alpha, tvalues)]

    def unfold(self, p: int, env: tuple) -> tuple:
        """The (position, env) of the body the call leaf unfolds to, its
        parameters bound to the values of the arguments."""
        term = self.closed(p, env)
        eq = self.defs.equations.get(term.name)
        if eq is None:
            raise SemanticsError(f"undefined process {term.name!r}")
        if len(term.args) != len(eq.params):
            raise SemanticsError(
                f"{term.name!r} expects {len(eq.params)} argument(s), got {len(term.args)}")
        body = self.body(eq.name)
        return body, self.env_of(body, dict(zip(eq.params, map(eval_data, term.args))))

    def branch(self, p: int, env: tuple) -> tuple:
        """The (position, env) of the branch the conditional leaf takes."""
        pos = self.positions[p]
        scope = dict(zip(pos.names, env))
        taken = pos.kids[0] if eval_guard(self.closed(p, env).guard) else pos.kids[1]
        return taken, self.env_of(taken, scope)

    def expansion(self, pos: _Position, scope: dict, tvalues) -> list:
        """The scopes of the body of the replicated operator at pos under scope,
        one per member of its index set at the instantiation tvalues, in order."""
        term = pos.term
        members = domain_values(substitute(pos.blank, scope).domain, tvalues)
        if not members:
            what = "parallel" if isinstance(term, ReplAlphaPar) else "operator"
            raise SemanticsError(f"replicated {what} over an empty index set")
        return [{**scope, term.var: v} for v in members]

    def _class(self, key) -> int:
        return self._classes.setdefault(key, len(self._classes))

    def leaf_key(self, p: int, env: tuple) -> tuple[int, int]:
        """(class, uids) of the term at position p under env.  Two (position,
        env) pairs share the class exactly when their terms are alpha-equal,
        construct uids aside, and share both exactly when the uids of their
        constructs agree too.  Memoised per (position, env)."""
        key = (p, env)
        got = self._class_of.get(key)
        if got is not None:
            return got
        pos = self.positions[p]
        uid = None
        if pos.term.__class__ is Prefix:
            alpha, scope = self.closed(p, env)
            bound = binders(alpha)
            blank = canonicalise(Prefix(alpha, STOP))[0].construct if bound else alpha
            uid = alpha.uid
        else:
            scope = dict(zip(pos.names, env))
            bound = pos.binders
            blank = (canonicalise(pos.blank, scope)[0] if bound
                     else self.closed(p, env))
        if bound:
            m = len(bound)
            scope = {k: _shifted(v, m) for k, v in scope.items()}
            for i, k in enumerate(bound):
                scope[k] = _Bound(m - 1 - i)
        kids = [self.leaf_key(k, self.env_of(k, scope)) for k in pos.kids]
        got = (self._class((blank, *[c for c, _ in kids])),
               self._class((uid, *[u for _, u in kids])))
        self._class_of[key] = got
        return got

    def term(self, p: int, env: tuple) -> ProcessTerm:
        """The closed term of the leaf (p, env), built from the memoised
        terms of its subterms.  A prefix's is its construct under env and
        its continuation's term, so a resolved selection reads as the output
        the τ that resolved it made of it."""
        key = (p, env)
        got = self._terms.get(key)
        if got is None:
            pos = self.positions[p]
            if not pos.names and pos.base is None:
                got = pos.term
            elif pos.term.__class__ is Prefix:
                alpha, scope = self.closed(p, env)
                cont = pos.kids[0]
                got = Prefix(alpha, self.term(cont, self.env_of(cont, scope)))
            else:
                scope = dict(zip(pos.names, env))
                inner = {k: v for k, v in scope.items() if k not in pos.binders}
                got = with_subterms(self.closed(p, env),
                                    [self.term(k, self.env_of(k, inner)) for k in pos.kids])
            self._terms[key] = got
        return got


# A replicated operator other than internal choice becomes the operator
# nodes it expands into.
_EXPANDED = (ReplAlphaPar, ReplInterleave, ReplExtChoice)
# the operators whose left-nested chains are one node
_CHAINS = (ExtChoice, Interleave)


class StateGraph:
    """A hash-consed graph of the states of one build and their subterms,
    at the instantiation tvalues, over the positions of an engine that
    the builds of other sizes may share.

    A node is a leaf or an operator node.  A leaf is found by (position,
    env) and keyed by Engine.leaf_key, (class, uids): pairs whose terms are
    equal up to the names of bound variables, construct uids included,
    share one node, as they have the same successors.  An operator node is
    keyed by (operator id, operand nodes...), where the operator id numbers
    the operator with its operands blanked out (its class and data: event
    sets, renaming pairs, the guard of a conditional, which only the
    symbolic semantics makes an operator node).
    Three kinds of node hold n operands, so that one move of an operand
    interns one node, and term() rebuilds the left-associated chain they
    stand for: a choice node ([] chains, ``[] i:X @``), a plain
    interleaving node (||| chains, ``||| i:X @`` over part of t) and a
    vector node (``||| i:t @``, the instances in index order, under an
    operator id of its own that no term has); node()
    splices a first operand of the same choice or plain interleaving.
    Successors are memoised per node, but for a choice node read as an
    operand of a choice (operand_moves): a right-nested chain of n choices
    would keep lists of 1..n moves.  An operator node combines its
    operands' lists and finds each target by its key, so an operand that
    does not move is never explored again and no state term is walked or
    hashed whole.  A parallel reads an interleaving operand's moves from
    the lists of its parts (parts), the interleaving's operands, and makes
    a target (at) only for a move it keeps.

    State identity ignores construct uids, as term equality does: state(i)
    is the state class of node i, a number given in the order classes are
    first met.  A leaf's comes from its class, an operator node's from its
    operator id and its operands' state classes.  Exploration keys states
    by state class and takes each state's edges from the first node of its
    class that it reaches.

    Tables: ids (operator key -> node), kids (node -> its key for an
    operator node, None for a leaf), leaves (node -> the first (position,
    env) of a leaf), terms (node -> its term, built on demand), succ (node
    -> memoised [(label, construct_uid, target node)], one list for a
    chain of conditionals and followed calls and the node it leads to, its
    mover) and cls (node -> state class, on demand for operator nodes).
    Memos per build: the events of each event set, each operator's
    evaluated data (data, by operator id) and the visible moves of a
    synchronising operand by label (partners, by node).
    The symmetry reduction adds memos of the t-values of a node and of
    orbit representatives.
    """

    # the terms whose nodes are keyed by their operands' nodes; every other
    # term is a leaf, and a replicated one expands (_EXPANDED)
    operators = (ExtChoice, Sliding, Interleave, SharedPar, AlphaPar, Hide, Rename)

    def __init__(self, engine: Engine, tvalues: tuple[TVal, ...],
                 symmetric_from: Optional[int] = None, unfold_calls: bool = True):
        self.engine = engine
        self.tvalues = tvalues
        # the equations whose calls are being followed to their bodies'
        # successors; None: calls unfold by τ
        self._open: Optional[set] = None if unfold_calls else set()
        self.ids: dict = {}
        self._leaves: dict = {}   # (class, uids) -> leaf node
        self._leaf_at: dict = {}  # (position, env) -> leaf node
        self.kids: list = []
        self.leaves: list = []
        self.terms: list = []
        self.succ: list = []
        self.cls: list = []
        self._classes: dict = {}
        self._ops: dict = {}     # blanked operator -> operator id
        self.blanks: list = []  # operator id -> blanked operator
        self._sets: dict = {}     # event set -> its events
        self._data: dict = {}     # operator id -> its evaluated data
        self._partners: dict = {}  # node -> its visible moves by label
        # the operator id of a vector, which op_id never hands out: its
        # blank is the plain interleaving its term chains
        self._vector_op = len(self.blanks)
        self.blanks.append(Interleave(STOP, STOP))
        self._chains = tuple(self.op_id(cls(STOP, STOP)) for cls in _CHAINS)
        self._choice_op, self._interleave_op = self._chains
        self.lo = symmetric_from         # representatives permute {lo..n-1}
        self._tvals: dict = {}        # node -> the t-value indices it mentions
        self._tval_sets: dict = {}    # one copy of each such tuple
        self._blank_tvals: dict = {}  # operator id -> t-values of its data
        self._at_lo: dict = {}        # (instance node, index) -> sort class
        self._reps: dict = {}         # node -> orbit representative
        self._movers: dict = {}       # chain node -> the node it moves as

    def _add(self, kids, leaf, cls) -> int:
        i = len(self.kids)
        self.kids.append(kids)
        self.leaves.append(leaf)
        self.terms.append(None)
        self.succ.append(None)
        self.cls.append(cls)
        return i

    def op_id(self, blank) -> int:
        op = self._ops.get(blank)
        if op is None:
            op = self._ops[blank] = len(self.blanks)
            self.blanks.append(blank)
        return op

    def intern(self, p: int, env: tuple) -> int:
        """The node of position p under env: a replicated operator becomes
        the operator nodes it expands into (the only place one is
        expanded), an operator a node over its operands' nodes, any other
        term a leaf."""
        engine = self.engine
        pos = engine.positions[p]
        term = pos.term
        if isinstance(term, _EXPANDED):
            scopes = engine.expansion(pos, dict(zip(pos.names, env)), self.tvalues)
            body = pos.kids[0]
            nodes = [self.intern(body, engine.env_of(body, inner)) for inner in scopes]
            if len(nodes) == 1:
                return nodes[0]
            if term.__class__ is not ReplAlphaPar:
                return self.node((self._choice_op if term.__class__ is ReplExtChoice else
                                  self._vector_op if isinstance(term.domain, TType) else
                                  self._interleave_op, *nodes))
            # each operand joins those before it under their alphabets' union
            alphas = [subst_event_set(term.alpha, inner) for inner in scopes]
            out, union = nodes[0], alphas[0]
            for alpha, node in zip(alphas[1:], nodes[1:]):
                out = self.node((self.op_id(AlphaPar(STOP, union, STOP, alpha)), out, node))
                union = EventSet(union.closures + alpha.closures, union.literals + alpha.literals)
            return out
        if isinstance(term, self.operators):
            kids, cls = pos.kids, term.__class__
            while cls in _CHAINS and engine.positions[kids[0]].term.__class__ is cls:
                kids = engine.positions[kids[0]].kids + kids[1:]  # a left-nested chain
            scope = dict(zip(pos.names, env))
            return self.node((self.op_id(engine.closed(p, env)),
                              *[self.intern(k, engine.env_of(k, scope)) for k in kids]))
        i = self._leaf_at.get((p, env))
        if i is None:
            key = engine.leaf_key(p, env)
            i = self._leaves.get(key)
            if i is None:
                i = self._leaves[key] = self._add(None, (p, env), self._classes.setdefault(
                    key[0], len(self._classes)))
            self._leaf_at[p, env] = i
        return i

    def intern_root(self, proc: Union[str, ProcessTerm]) -> int:
        """The node of a defined name or of a term; a free name stands for itself."""
        engine = self.engine
        p = engine.body(proc) if isinstance(proc, str) else engine.number(proc)
        return self.intern(p, engine.env_of(p, {}))

    def node(self, key) -> int:
        """The operator node of key; a first operand of its own chain operator is spliced in."""
        if key[0] in self._chains:
            first = self.kids[key[1]]
            if first is not None and first[0] == key[0]:
                key = first + key[2:]
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = self._add(key, None, None)
        return i

    def term(self, i: int) -> ProcessTerm:
        t = self.terms[i]
        if t is None:
            key = self.kids[i]
            if key is None:
                t = self.engine.term(*self.leaves[i])
            else:
                parts = [self.term(k) for k in key[1:]]
                blank = self.blanks[key[0]]
                t = (with_subterms(blank, parts) if len(parts) == 1 else
                     functools.reduce(lambda l, r: with_subterms(blank, (l, r)), parts))
            self.terms[i] = t
        return t

    def state(self, i: int) -> int:
        """The state class of node i."""
        c = self.cls[i]
        if c is None:
            key = self.kids[i]
            ckey = (key[0], *[self.state(k) for k in key[1:]])
            c = self.cls[i] = self._classes.setdefault(ckey, len(self._classes))
        return c

    # Symmetry: a permutation pi of {0..n-1}, as a tuple of images, acts
    # on a node by renaming every t-value v of its term to pi[v] (in leaf
    # envs and in operator data) and by moving the instance at position j
    # of every vector to position pi[j].  Positions stay equal to the index
    # values of their instances.  A leaf (position, env) goes to (position,
    # pi(env)), with no walk of its term: a process symmetric in t mentions
    # no t-constant (TypeSym-syntactic), so a leaf's t-values all come from
    # env.

    def tvals(self, i: int) -> tuple[int, ...]:
        """The t-values node i depends on, ascending: those of a leaf's env,
        those of an operator's data and operands, and every index below a
        vector."""
        got = self._tvals.get(i)
        if got is None:
            key = self.kids[i]
            vals: set = set()
            if key is None:
                vals.update(v.index for v in self.leaves[i][1] if v.__class__ is TVal)
            elif key[0] == self._vector_op:
                vals.update(range(len(self.tvalues)))
            else:
                vals.update(self._op_tvals(key[0]))
                for k in key[1:]:
                    vals.update(self.tvals(k))
            got = tuple(sorted(vals))
            got = self._tvals[i] = self._tval_sets.setdefault(got, got)
        return got

    def rename(self, i: int, pi: tuple[int, ...]) -> int:
        """The node of node i under the permutation pi: a leaf is interned
        with its env renamed, an operator node is rebuilt from its operands'
        renamings, one lookup per operand."""
        vals = self.tvals(i)
        images = tuple([pi[v] for v in vals])
        if images == vals:
            return i
        key = self.kids[i]
        if key is None:
            return self._rename_leaf(i, pi)
        kids = [self.rename(k, pi) for k in key[1:]]
        if key[0] == self._vector_op:
            moved = [0] * len(kids)
            for j, k in enumerate(kids):
                moved[pi[j]] = k
            return self.node((key[0], *moved))
        op = key[0]
        if self._op_tvals(op):
            op = self.op_id(permute_t(self.blanks[op], pi))
        return self.node((op, *kids))

    def _op_tvals(self, op: int) -> set:
        """The t-values of an operator's data (event sets, renamings)."""
        got = self._blank_tvals.get(op)
        if got is None:
            got = self._blank_tvals[op] = {v.index for v in t_values(self.blanks[op])}
        return got

    def _rename_leaf(self, i: int, pi: tuple[int, ...]) -> int:
        """The node of leaf i under pi."""
        p, env = self.leaves[i]
        tvalues = self.tvalues
        return self.intern(p, tuple([tvalues[pi[v.index]] if v.__class__ is TVal else v
                                     for v in env]))

    def _first_vector(self, i: int) -> Optional[int]:
        """The first vector node of node i, in pre-order over operator
        nodes (leaves are not looked into), or None."""
        stack = [i]
        while stack:
            i = stack.pop()
            key = self.kids[i]
            if key is not None:
                if key[0] == self._vector_op:
                    return i
                stack.extend(reversed(key[1:]))
        return None

    def _class_at_lo(self, i: int, j: int) -> int:
        """The state class of node i (the instance at index j of a vector)
        renamed by the transposition of j and lo."""
        got = self._at_lo.get((i, j))
        if got is None:
            swap = list(range(len(self.tvalues)))
            swap[self.lo], swap[j] = j, self.lo
            got = self._at_lo[(i, j)] = self.state(self.rename(i, tuple(swap)))
        return got

    def representative(self, i: int) -> int:
        """A member of node i's orbit under the permutations of {lo..n-1}.

        Take the first vector of the state and sort its positions j >= lo
        by the state class of instance j with its own index moved to lo,
        ties broken by j; the permutation that sends the k-th of them to
        position lo + k is applied to the whole state.  A state with no
        vector is its own representative.  Any permutation of {lo..n-1}
        would be sound (see build_lts); sorting makes the representative
        canonical when, as in a farm of identical nodes, the vector
        carries the state's t-values."""
        got = self._reps.get(i)
        if got is None:
            got = i
            vec = self._first_vector(i)
            if vec is not None:
                parts = self.kids[vec][1:]
                lo = self.lo
                order = sorted(range(lo, len(parts)),
                               key=lambda j: (self._class_at_lo(parts[j], j), j))
                pi = list(range(len(parts)))
                for k, j in enumerate(order, lo):
                    pi[j] = k
                got = self.rename(i, tuple(pi))
            self._reps[i] = got
        return got

    def successors(self, i: int):
        """(label, construct_uid, target node) triples of node i, in rule
        order; computed once (moves) and kept."""
        out = self.succ[i]
        if out is None:
            out = self.succ[i] = self.moves(i)
        return out

    def moves(self, i: int) -> list:
        """The successors of node i by the rule of its class."""
        key = self.kids[i]
        if key is None:
            return self._leaf_successors(i)
        blank = self.blanks[key[0]]
        return _RULES[blank.__class__](self, key, blank)

    def operand_moves(self, i: int) -> list:
        """Node i's successors, read by a choice: a choice node's are not kept."""
        key = self.kids[i]
        if key is not None and key[0] == self._choice_op and self.succ[i] is None:
            return self.moves(i)
        return self.successors(i)

    def _leaf_successors(self, i: int) -> list:
        """The successors of leaf i, memoised for every leaf on its chain: a
        conditional has those of the branch it takes, and so has a call
        those of its body when calls do not unfold by τ.  A call to an
        equation already followed (on this chain, or on one whose successors
        are being combined above it) keeps its τ, which cuts each cycle of
        bare calls and bounds every chain by the number of equations.  The
        chain's other nodes record the node at its end, whose list they
        share, as their mover."""
        engine, follow = self.engine, self._open
        chain, opened = [], []
        while True:
            chain.append(i)
            p, env = self.leaves[i]
            term = engine.positions[p].term
            if term.__class__ is If:
                i = self.intern(*engine.branch(p, env))
            elif term.__class__ is Ident and follow is not None \
                    and term.name not in follow:
                follow.add(term.name)
                opened.append(term.name)
                i = self.intern(*engine.unfold(p, env))
            else:
                out = [(lab, uid, self.intern(q, e))
                       for lab, uid, q, e in engine.successors(p, env, self.tvalues)]
                break
            if self.kids[i] is not None or self.succ[i] is not None:
                out = self.successors(i)
                i = self._movers.get(i, i)
                break
        if opened:
            follow.difference_update(opened)
        for j in chain:
            self.succ[j] = out
            if j != i:
                self._movers[j] = i
        return out

    def mover(self, i: int) -> Optional[int]:
        """The node whose successor list node i shares, the end of its
        chain of conditionals and followed calls (_leaf_successors), or None
        when node i moves itself."""
        self.successors(i)
        return self._movers.get(i)

    def evset(self, s: EventSet) -> frozenset[Event]:
        got = self._sets.get(s)
        if got is None:
            got = eval_event_set(s, self.engine.defs, self.tvalues)
            self._sets[s] = got
        return got

    def data(self, op: int):
        """The data of operator op at this build's size, evaluated once per
        operator id: the map of a renaming, the hidden events of a hiding,
        and for a parallel the events its operands synchronise on and those
        each may do alone (None: any other), as _parallel reads them."""
        got = self._data.get(op)
        if got is None:
            blank = self.blanks[op]
            cls = blank.__class__
            if cls is Rename:
                got = _rename_map(blank.pairs, self.engine.defs, self.tvalues)
            elif cls is Hide:
                got = self.evset(blank.hidden)
            elif cls is SharedPar:
                got = (self.evset(blank.shared), None, None)
            else:
                a, b = self.evset(blank.left_alpha), self.evset(blank.right_alpha)
                got = (a & b, a, b)
            self._data[op] = got
        return got

    def kept(self, key):
        """The operands, by index, that the operator node key stays around
        when they move: every operand of a choice node, else syntax.KEEPING."""
        if key[0] == self._choice_op:
            return range(len(key) - 1)
        return KEEPING[self.blanks[key[0]].__class__]

    def parts(self, i: int):
        """The (j, c) pairs whose moves are node i's: each operand c, in
        place j of its key, of an interleaving node (plain or vector), else
        (0, i) itself."""
        key = self.kids[i]
        if key is not None and key[0] in (self._vector_op, self._interleave_op):
            return enumerate(key[1:], 1)
        return ((0, i),)

    def at(self, i: int, j: int, t: int) -> int:
        """The node i moves to when its part j moves to node t."""
        if not j:
            return t
        key = self.kids[i]
        return self.node(key[:j] + (t,) + key[j + 1:])

    def partners(self, i: int) -> dict:
        """The visible moves of node i by label, in order, as (j, t) pairs
        of its parts' moves; once per node."""
        got = self._partners.get(i)
        if got is None:
            got = self._partners[i] = {}
            for j, c in self.parts(i):
                for lab, _, t in self.successors(c):
                    if lab is not TAU:
                        got.setdefault(lab, []).append((j, t))
        return got

    # The operator rules: each takes the node's key and its blanked
    # operator, and lists the successors in the order of the CSP rules.

    def _choice(self, key, blank):
        # τs of the operands the choice keeps keep it around their targets,
        # and so do the conditional moves of the symbolic semantics; visible
        # moves resolve it; [> also slides
        out = [(TAU, None, key[2])] if blank.__class__ is Sliding else []
        for i in self.kept(key):
            out += [(lab, uid, self.node(key[:i + 1] + (t,) + key[i + 2:])
                     if lab is TAU or lab.__class__ is Guard else t)
                    for lab, uid, t in self.operand_moves(key[i + 1])]
        return out

    def _hide(self, key, blank: Hide):
        op, p = key
        hidden = self.data(op)
        return [(TAU if lab is not TAU and lab in hidden else lab, uid,
                 self.node((op, t))) for lab, uid, t in self.successors(p)]

    def _rename(self, key, blank: Rename):
        op, p = key
        mapping = self.data(op)
        out = []
        for lab, uid, t in self.successors(p):
            nxt = self.node((op, t))
            if lab is TAU or lab not in mapping:
                out.append((lab, uid, nxt))
            else:
                out.extend((lab2, uid, nxt) for lab2 in mapping[lab])
        return out

    def _interleave(self, key, blank):
        # each operand moves alone, in a plain interleaving node and a vector
        return [(lab, uid, self.node(key[:j] + (t,) + key[j + 1:]))
                for j, c in enumerate(key[1:], 1) for lab, uid, t in self.successors(c)]

    def _parallel(self, key, blank):
        # [|X|] and [A||B]: a visible move in sync (X, or A and B both)
        # happens with each partner the right operand has for it; any other
        # move of an operand happens alone where its set allows it (None:
        # all of them), τ always
        op, l, r = key
        sync, left, right = self.data(op)
        partners, node, at = self.partners(r), self.node, self.at
        out = []
        for j, c in self.parts(l):
            for lab, uid, t in self.successors(c):
                if lab in sync:
                    if lab in partners:
                        t = at(l, j, t)
                        out.extend((lab, None, node((op, t, at(r, j2, t2))))
                                   for j2, t2 in partners[lab])
                elif lab is TAU or left is None or lab in left:
                    out.append((lab, uid, node((op, at(l, j, t), r))))
        for j, c in self.parts(r):
            for lab, uid, t in self.successors(c):
                if lab is TAU or (lab not in sync and (right is None or lab in right)):
                    out.append((lab, uid, node((op, l, at(r, j, t)))))
        return out


_RULES = {
    ExtChoice: StateGraph._choice,
    Sliding: StateGraph._choice,
    Interleave: StateGraph._interleave,
    Hide: StateGraph._hide,
    Rename: StateGraph._rename,
    AlphaPar: StateGraph._parallel,
    SharedPar: StateGraph._parallel,
}


def _calls(eq: Equation):
    """(keeps, callee, guarded, passes) for each identifier occurrence of the
    body outside prefixes: keeps when an operator above it stays around it
    after it moves (syntax.KEEPING), so that an identifier reached again
    there nests every state one level deeper; guarded when a conditional
    is above it; and passes when its arguments are the equation's
    parameters in order, with no binder above shadowing one."""
    own = tuple(VarRef(p) for p in eq.params)

    def walk(term, keeps, guarded, shadowed):
        if isinstance(term, Ident):
            yield keeps, term.name, guarded, not shadowed and term.args == own
        elif not isinstance(term, Prefix):
            shadowed = shadowed or any(v in eq.params for v in binders(term))
            for i, sub in enumerate(subterms(term)):
                yield from walk(sub, keeps or i in KEEPING.get(term.__class__, ()),
                                guarded or isinstance(term, If), shadowed)

    return walk(eq.body, False, False, False)


def check_guarded_recursion(term: ProcessTerm, defs: Definitions) -> None:
    """Reject recursion through an operator context before exploring: a
    cycle of identifier occurrences outside prefixes, among the equations
    the term reaches, that passes below an operator keeping its context
    (either side of [], |||, [|X|] and [A||B], the left of [>, hiding,
    renaming).  Its state terms would grow without bound.  The cycle either
    stays outside conditionals, or passes each equation's parameters on
    unchanged, so that every guard on it evaluates as it did one unfolding
    earlier.  Other calls inside conditionals are not looked into, so a
    recursion that a guard bounds still builds."""
    names = {where for _, where in unfold_walk(term, defs)} - {""}
    calls = {name: [c for c in _calls(defs.equations[name]) if c[1] in names]
             for name in names}
    unguarded = {name: [(keeps, callee, None) for keeps, callee, guarded, _ in cs
                        if not guarded] for name, cs in calls.items()}
    passing = {name: [(keeps, callee, None) for keeps, callee, _, passes in cs
                      if passes] for name, cs in calls.items()}
    for name in sorted(names):
        if any(keeps and name in tau_closure(graph, [callee], lambda _: True)
               for graph in (unguarded, passing) for keeps, callee, _ in graph[name]):
            raise SemanticsError(
                f"state terms grow without bound ({name!r} recurses through "
                "an operator context, which is not supported)")


def build_lts(defs: Definitions, proc: Union[str, ProcessTerm], tsize: int,
              max_states: int = DEFAULT_MAX_STATES, *,
              symmetric_from: Optional[int] = None, unfold_calls: bool = True,
              engine: Optional[Engine] = None, terms: bool = False) -> Lts:
    """Breadth-first closure of the transition rules from the given process
    (a defined name or a closed term).  The states are the node ids of this
    build's state graph, and with terms=True their terms, which only a
    printed LTS reads; they are told apart by the graph's state classes.
    The builds of one run may share an engine of defs, whatever their
    sizes.

    With symmetric_from = B, the root and every successor target are
    replaced by their orbit representatives under the permutations of
    {B..n-1} (StateGraph.representative), and the edges keep the labels of
    the transitions they stand for.  For a process symmetric in t, each
    such permutation pi is an automorphism of the transition relation on
    terms that maps a label a to pi(a): renaming every t-value commutes
    with the rules when the equations mention no t-constant, and moving
    the instances of a vector along with their indices commutes with the
    interleaving rule.  So the relation pairing a state s with every
    pi(s) is a bisimulation up to relabelling by pi, and since the
    B-collapsing function phi fixes {0..B-1}, phi(pi(a)) = phi(a): phi of
    the result is strongly bisimilar to phi of the full system, which
    preserves its traces and stable failures.  Only the phi-image of the
    result is meaningful.

    With unfold_calls=False, a call takes the successors of its body
    instead of a τ to it (StateGraph._leaf_successors) and keeps its term.
    That τ is the call's only move, so the traces stay; the call, unstable,
    refuses nothing, and without the τ it has its body's stability and
    refusals after the same trace, so the stable failures stay; τ-paths
    map to τ-paths, so divergence stays.  Every operator is a congruence
    for these models, so this holds in any context.  A cycle of bare calls
    (P = Q, Q = P) only unfolds: following it would recurse for ever and
    lose the divergence, so a call to an equation already followed keeps
    its τ.  Only refinement and divergence checks build this way; lts,
    congruence and the sampled checks keep the paper's semantics."""
    engine = engine or Engine(defs)
    engine.check_guarded(proc)
    graph = StateGraph(engine, tvalues_for(tsize), symmetric_from, unfold_calls)
    root = graph.intern_root(proc)
    state = graph.state
    if symmetric_from is None:
        def successors(i):
            return [(lab, uid, t, state(t)) for lab, uid, t in graph.successors(i)]
    else:
        rep = graph.representative
        with terms_bounded():
            root = rep(root)

        def successors(i):
            out = []
            for lab, uid, t in graph.successors(i):
                t = rep(t)
                out.append((lab, uid, t, state(t)))
            return out

    from .pretty import fmt_term
    lts = build(root, state(root), successors,
                alphabet=file_alphabet(defs, graph.tvalues),
                max_states=max_states, describe=lambda i: fmt_term(graph.term(i)),
                mover=graph.mover)
    if terms:
        with terms_bounded():
            lts.states = [graph.term(i) for i in lts.states]
    return lts
