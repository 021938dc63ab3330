"""Standard concrete operational semantics.

Builds the LTS of a closed process instantiated at T = {0..n-1}.  Prefixes
resolve nondeterministic selections in two τ-stages (all non-t selections
simultaneously, then all t selections simultaneously); choice, binding and
conditional rules are the usual ones, and the operators outside the
sequential fragment (hiding, renaming, the parallels and their replicated
forms) follow the standard CSP rules.

Exploration runs over a per-build hash-consed state graph (StateGraph)
rather than over whole terms.  The non-binding operators (external and
sliding choice, interleaving, the two parallels, hiding, renaming) are
nodes keyed by their operator and their operands' nodes; every other term
is a leaf, keyed by its alpha-canonical form.  Each node's successors are
computed once: the leaf rules (Engine) build target terms, and an operator
rule combines its operands' memoised successor lists, so an operand that
does not move is never explored again and no state is canonicalised or
hashed whole.  The operator tree is not fixed in advance, as it would be
in a compiled synchronisation tree: an identifier may unfold into a
parallel composition after a τ, and the composition becomes new nodes.

Replicated operators are expanded where a term first enters a state: the
root, the body of an unfolded identifier, and the body of a resolved
replicated internal choice (which itself stays primitive).  One whose
index set or alphabet mentions a variable bound by an enclosing prefix
waits until the prefix has fired and is expanded when the state graph
interns the continuation.  An interleaving over the whole of t,
``||| i:t @ P(i)`` at size n, becomes a single vector node of the state
graph holding P(0)..P(n-1) in index order, so a move of one instance
interns one node; it displays as the left-associated chain
``P(0) ||| ... ||| P(n-1)``.  Every other replicated operator, and an
interleaving over part of t, becomes a left-associated binary tree, as does
a hand-written ``P ||| Q ||| ...``.

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

import dataclasses
import functools
import itertools
from typing import Optional, Union

from .errors import SemanticsError
from .lts import Event, Lts, TAU, build, rename_lts, tau_closure, terms_bounded  # noqa: F401 (re-export)
from .syntax import (
    BANG, REPLICATED, AlphaPar, Atom, Condition, Definitions, Equation,
    EventLitItem, EventSet, ExtChoice, Hide, Ident, If, IndexedInterleave,
    IntChoice, Interleave, MixedGuard, NamedType, Prefix, ProcessTerm, Rename,
    ReplAlphaPar, ReplExtChoice, ReplIntChoice, ReplInterleave, SharedPar,
    Sliding, Stop, TType, TVal, VarRef,
    canonicalise, classify_fields, comms, construct_binding, domain_values,
    eval_bool, eval_condition_closed, eval_scalar, free_vars, map_subterms,
    replace_selections, subst_event_set, substitute, subterms, unfold_walk,
    with_subterms,
)

DEFAULT_MAX_STATES = 200_000


def tvalues_for(n: int) -> tuple[TVal, ...]:
    if n < 1:
        raise SemanticsError("the distinguished type must be instantiated non-empty")
    return tuple(TVal(i) for i in range(n))


def file_alphabet(defs: Definitions, tvalues) -> frozenset[Event]:
    """All events of the declared channels over the instantiation."""
    out = set()
    for name, sig in defs.channels.items():
        domains = [domain_values(ty, tvalues) for ty in sig]
        for vs in itertools.product(*domains):
            out.add(Event(name, tuple(vs)))
    return frozenset(out)


def eval_event_set(evset: EventSet, defs: Definitions, tvalues) -> frozenset[Event]:
    out = set()
    for item in evset.closures:
        sig = defs.channels.get(item.channel)
        if sig is None:
            raise SemanticsError(f"undeclared channel {item.channel!r} in event set")
        fixed = []
        for d in item.datums:
            if isinstance(d, str):
                raise SemanticsError(f"unbound variable {d!r} in event set")
            fixed.append(d)
        rest = [domain_values(ty, tvalues) for ty in sig[len(fixed):]]
        for vs in itertools.product(*rest):
            out.add(Event(item.channel, tuple(fixed) + tuple(vs)))
    for item in evset.literals:
        vals = []
        for d in item.datums:
            if isinstance(d, str):
                raise SemanticsError(f"unbound variable {d!r} in event set")
            vals.append(d)
        out.add(Event(item.channel, tuple(vals)))
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
            src = Event(b.channel, tuple(_closed_datums(b)))
            dst = Event(a.channel, tuple(_closed_datums(a)))
            mapping.setdefault(src, []).append(dst)
    return mapping


def _closed_datums(item: EventLitItem):
    for d in item.datums:
        if isinstance(d, str):
            raise SemanticsError(f"unbound variable {d!r} in renaming")
    return item.datums


def unfold_ident(term: Ident, defs: Definitions):
    eq = defs.equations.get(term.name)
    if eq is None:
        raise SemanticsError(f"undefined process {term.name!r}")
    if len(term.args) != len(eq.params):
        raise SemanticsError(
            f"{term.name!r} expects {len(eq.params)} argument(s), got {len(term.args)}")
    mapping = {}
    for p, a in zip(eq.params, term.args):
        if isinstance(a, (TVal, Atom)):
            mapping[p] = a
        else:
            mapping[p] = eval_scalar(a)
    return substitute(eq.body, mapping)


def expand_replicated(term: ProcessTerm, tvalues,
                      bound: frozenset[str] = frozenset()) -> ProcessTerm:
    """Expand replicated parallel/interleave/external choice over t into
    left-associated binary trees, throughout the term; an interleaving over
    the whole of t becomes a chain of IndexedInterleave, which the state
    graph interns as one vector node.  Replicated internal
    choice stays primitive (it resolves by a τ per index), and so does an
    operator whose index set or alphabet mentions a variable bound by an
    enclosing prefix (``bound``): the state graph expands it once the
    prefix has fired and the continuation enters a state."""
    if isinstance(term, ReplIntChoice):
        return term
    if isinstance(term, Prefix):
        names = {f.payload for f in term.construct.fields if f.sel != BANG}
        return Prefix(term.construct,
                      expand_replicated(term.cont, tvalues, bound | names))
    if not isinstance(term, REPLICATED):
        return map_subterms(term, lambda sub: expand_replicated(sub, tvalues, bound))
    if bound and free_vars(map_subterms(term, lambda _: Stop())) & bound:
        return term
    members = domain_values(term.domain, tvalues)
    if isinstance(term, ReplAlphaPar):
        if not members:
            raise SemanticsError("replicated parallel over an empty index set")
        parts = []
        for v in members:
            body = expand_replicated(substitute(term.body, {term.var: v}), tvalues, bound)
            parts.append((body, subst_event_set(term.alpha, {term.var: v})))
        out, out_alpha = parts[0]
        for body, alpha in parts[1:]:
            out = AlphaPar(out, out_alpha, body, alpha)
            out_alpha = _union_set(out_alpha, alpha)
        return out
    if not members:
        raise SemanticsError("replicated operator over an empty index set")
    parts = [expand_replicated(substitute(term.body, {term.var: v}), tvalues, bound)
             for v in members]
    if isinstance(term, ReplExtChoice):
        combine = ExtChoice
    else:
        combine = IndexedInterleave if isinstance(term.domain, TType) else Interleave
    return functools.reduce(combine, parts)


def _union_set(a: EventSet, b: EventSet) -> EventSet:
    return EventSet(a.closures + b.closures, a.literals + b.literals)


def eval_guard(guard) -> bool:
    if isinstance(guard, Condition):
        return eval_condition_closed(guard)
    if isinstance(guard, MixedGuard):
        if any(isinstance(l, str) or isinstance(r, str) for l, r in guard.t_atoms):
            raise SemanticsError("guard with unbound t-variables reached evaluation")
        base = all(l == r for l, r in guard.t_atoms)
        base = base and all(eval_bool(b) for b in guard.other)
        return (not base) if guard.negated else base
    return eval_bool(guard)


def resolve_selections(term: Prefix, scope: str, tvalues):
    """The τ-stage of a prefix that resolves its $-selections in scope ('t'
    or 'non-t'): one (τ, construct_uid, target) triple per choice of values,
    the chosen selections becoming outputs.  None when the prefix has no
    selection in scope."""
    alpha = term.construct
    sets = classify_fields(alpha)
    positions = sorted(sets.dollar_t if scope == "t" else sets.dollar_nont)
    if not positions:
        return None
    names = [alpha.fields[i - 1].payload for i in positions]
    domains = [domain_values(alpha.fields[i - 1].ty, tvalues) for i in positions]
    stripped = Prefix(replace_selections(alpha, scope), term.cont)
    return [(TAU, alpha.uid, substitute(stripped, dict(zip(names, vs))))
            for vs in itertools.product(*domains)]


class Engine:
    """The leaf rules: successors of a closed prefix, internal choice,
    identifier, replicated internal choice or STOP at a fixed
    instantiation.  The operator rules, which combine the successors of
    subterms, live in StateGraph."""

    def __init__(self, defs: Definitions, tsize: int):
        self.defs = defs
        self.tvalues = tvalues_for(tsize)

    def successors(self, term: ProcessTerm):
        """(label, construct_uid, target_term) triples, unsorted."""
        T = self.tvalues
        if isinstance(term, Stop):
            return []
        if isinstance(term, Prefix):
            for scope in ("non-t", "t"):
                out = resolve_selections(term, scope, T)
                if out is not None:
                    return out
            alpha = term.construct
            query = classify_fields(alpha).query
            return [(Event(alpha.channel, values), alpha.uid,
                     substitute(term.cont, construct_binding(alpha, values, query)))
                    for values in comms(alpha, T)]
        if isinstance(term, IntChoice):
            return [(TAU, None, term.left), (TAU, None, term.right)]
        if isinstance(term, Ident):
            return [(TAU, None, expand_replicated(unfold_ident(term, self.defs), T))]
        if isinstance(term, ReplIntChoice):
            members = domain_values(term.domain, T)
            if not members:
                raise SemanticsError("replicated internal choice over an empty index set")
            return [(TAU, None, expand_replicated(substitute(term.body, {term.var: v}), T))
                    for v in members]
        raise SemanticsError(f"successors: unknown term {term!r}")


def _instances(chain: IndexedInterleave, n: int) -> list:
    """The n instances of an IndexedInterleave chain, in index order; an
    instance may itself be a chain."""
    out = []
    for _ in range(n - 1):
        out.append(chain.right)
        chain = chain.left
    out.append(chain)
    return out[::-1]


# Term and data classes that hold no t-value; the permutation walks skip them.
_NO_TVALS = (str, int, bool, type(None), Atom, NamedType, TType, Stop)
_INIT_FIELDS: dict = {}


def _init_fields(cls) -> tuple[str, ...]:
    got = _INIT_FIELDS.get(cls)
    if got is None:
        got = _INIT_FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    return got


def _t_values(obj, n: int, out: set) -> None:
    """Add to out the indices of the t-values in a term or its data, and
    every index below an IndexedInterleave chain."""
    cls = obj.__class__
    if cls is TVal:
        out.add(obj.index)
    elif cls is tuple:
        for x in obj:
            _t_values(x, n, out)
    elif cls is IndexedInterleave:
        out.update(range(n))
    elif cls not in _NO_TVALS:
        for name in _init_fields(cls):
            _t_values(getattr(obj, name), n, out)


def _permute_t(obj, pi: tuple[int, ...]):
    """A term or its data with every t-value v renamed to pi[v] and the
    instance at index j of every IndexedInterleave chain moved to pi[j]."""
    cls = obj.__class__
    if cls is TVal:
        return TVal(pi[obj.index])
    if cls is tuple:
        return tuple(_permute_t(x, pi) for x in obj)
    if cls is IndexedInterleave:
        moved = [None] * len(pi)
        for j, part in enumerate(_instances(obj, len(pi))):
            moved[pi[j]] = _permute_t(part, pi)
        return functools.reduce(IndexedInterleave, moved)
    if cls in _NO_TVALS:
        return obj
    return cls(*[_permute_t(getattr(obj, name), pi) for name in _init_fields(cls)])


# Operators whose nodes in the state graph are keyed by their operands'
# nodes; every other term is a leaf.
_OPERATORS = (ExtChoice, Sliding, Interleave, SharedPar, AlphaPar, Hide, Rename)
_DEFERRED = (ReplAlphaPar, ReplInterleave, ReplExtChoice)


class StateGraph:
    """A hash-consed graph of the states of one build and their subterms.

    A node is a leaf, keyed by its alpha-canonical term and the uids of its
    constructs (both from one canonicalising walk), or an operator node,
    keyed by (operator id, operand nodes...), where the operator id numbers
    the operator with its operands blanked out (its class and data: event
    sets, renaming pairs).  Two terms share a node exactly when they are
    equal up to the names of bound variables, so they have the same
    successors, down to construct uids.
    An interleaving over t expanded at size n (a chain of
    IndexedInterleave) is one vector node, keyed by (vector operator id,
    the n instance nodes in index order): a move of one instance interns
    one node, and term() rebuilds the left-associated chain.
    Successors are memoised per node: an operator node combines its
    operands' memoised lists and finds each target by its key, so an
    operand that does not move is never explored again and no state term
    is walked or hashed whole.

    State identity ignores construct uids, as term equality does: state(i)
    is the state class of node i, shared by the nodes of terms equal up to
    bound names and uids.  Exploration keys states by class and takes each
    state's edges from the first node of its class that it reaches.

    Tables: ids (key -> node), kids (node -> its key for an operator node,
    None for a leaf), terms (node -> a term it stands for, built on demand
    for operator nodes), succ (node -> memoised [(label, construct_uid,
    target node)]) and cls (node -> state class, on demand for operator
    nodes).  The symmetry reduction adds memos of the t-values of a node,
    of leaf renamings and of orbit representatives.
    """

    def __init__(self, engine: Engine, symmetric_from: Optional[int] = None):
        self.engine = engine
        self.ids: dict = {}
        self.kids: list = []
        self.terms: list = []
        self.succ: list = []
        self.cls: list = []
        self._classes: dict = {}
        self._ops: dict = {}     # blanked operator -> operator id
        self._blanks: list = []  # operator id -> blanked operator
        self._sets: dict = {}
        self._vector_op = self._op(IndexedInterleave(Stop(), Stop()))
        self.lo = symmetric_from         # representatives permute {lo..n-1}
        self._tvals: dict = {}        # node -> the t-value indices it mentions
        self._tval_sets: dict = {}    # one copy of each such tuple
        self._blank_tvals: dict = {}  # operator id -> t-values of its data
        self._renamed: dict = {}      # (leaf, images of its t-values) -> node
        self._at_lo: dict = {}        # (instance node, index) -> sort class
        self._reps: dict = {}         # node -> orbit representative

    def _add(self, key, kids, term, cls) -> int:
        i = len(self.kids)
        self.ids[key] = i
        self.kids.append(kids)
        self.terms.append(term)
        self.succ.append(None)
        self.cls.append(cls)
        return i

    def _op(self, blank) -> int:
        op = self._ops.get(blank)
        if op is None:
            op = self._ops[blank] = len(self._blanks)
            self._blanks.append(blank)
        return op

    def intern(self, term: ProcessTerm) -> int:
        """The node of a closed term; a replicated operator reaching here
        (left unexpanded under a prefix that bound its index set) is
        expanded first."""
        if isinstance(term, _DEFERRED):
            term = expand_replicated(term, self.engine.tvalues)
        if term.__class__ is IndexedInterleave:
            parts = _instances(term, len(self.engine.tvalues))
            key = (self._vector_op, *map(self.intern, parts))
        elif isinstance(term, _OPERATORS):
            key = (self._op(map_subterms(term, lambda _: Stop())),
                   *map(self.intern, subterms(term)))
        else:
            canon, _, uids = canonicalise(term)
            key = (canon, uids)
            i = self.ids.get(key)
            if i is None:
                i = self._add(key, None, term,
                              self._classes.setdefault(canon, len(self._classes)))
            return i
        i = self.ids.get(key)
        return self._add(key, key, term, None) if i is None else i

    def _node(self, key) -> int:
        i = self.ids.get(key)
        return self._add(key, key, None, None) if i is None else i

    def term(self, i: int) -> ProcessTerm:
        t = self.terms[i]
        if t is None:
            key = self.kids[i]
            parts = [self.term(k) for k in key[1:]]
            if key[0] == self._vector_op:
                t = functools.reduce(IndexedInterleave, parts)
            else:
                t = with_subterms(self._blanks[key[0]], parts)
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
    # terms and in operator data) and by moving the instance at position j
    # of every vector, inside leaves too, to position pi[j].  Positions
    # stay equal to the index values of their instances.

    def tvals(self, i: int) -> tuple[int, ...]:
        """The t-values node i depends on, ascending: those of its term, and
        every index below a vector."""
        got = self._tvals.get(i)
        if got is None:
            n = len(self.engine.tvalues)
            key = self.kids[i]
            vals: set = set()
            if key is None:
                _t_values(self.terms[i], n, vals)
            elif key[0] == self._vector_op:
                vals.update(range(n))
            else:
                vals.update(self._op_tvals(key[0]))
                for k in key[1:]:
                    vals.update(self.tvals(k))
            got = tuple(sorted(vals))
            got = self._tvals[i] = self._tval_sets.setdefault(got, got)
        return got

    def rename(self, i: int, pi: tuple[int, ...]) -> int:
        """The node of node i under the permutation pi.  A leaf's renaming
        is memoised per leaf and images of its t-values; an operator node
        is rebuilt from its operands' renamings, one lookup per operand."""
        vals = self.tvals(i)
        images = tuple([pi[v] for v in vals])
        if images == vals:
            return i
        key = self.kids[i]
        if key is None:
            got = self._renamed.get((i, images))
            if got is None:
                got = self._renamed[(i, images)] = self._rename_leaf(i, pi)
            return got
        kids = [self.rename(k, pi) for k in key[1:]]
        if key[0] == self._vector_op:
            moved = [0] * len(kids)
            for j, k in enumerate(kids):
                moved[pi[j]] = k
            return self._node((key[0], *moved))
        op = key[0]
        if self._op_tvals(op):
            op = self._op(_permute_t(self._blanks[op], pi))
        return self._node((op, *kids))

    def _op_tvals(self, op: int) -> set:
        """The t-values of an operator's data (event sets, renamings)."""
        got = self._blank_tvals.get(op)
        if got is None:
            got = self._blank_tvals[op] = set()
            _t_values(self._blanks[op], len(self.engine.tvalues), got)
        return got

    def _rename_leaf(self, i: int, pi: tuple[int, ...]) -> int:
        """The node of leaf i's term under pi."""
        return self.intern(_permute_t(self.terms[i], pi))

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
            swap = list(range(len(self.engine.tvalues)))
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
        order; computed once per node."""
        out = self.succ[i]
        if out is None:
            key, term = self.kids[i], self.terms[i]
            if key is not None:
                blank = self._blanks[key[0]]
                out = _RULES[type(blank)](self, key, blank)
            elif isinstance(term, If):
                branch = term.then if eval_guard(term.guard) else term.els
                out = self.successors(self.intern(branch))
            else:
                out = [(lab, uid, self.intern(nxt))
                       for lab, uid, nxt in self.engine.successors(term)]
            self.succ[i] = out
        return out

    def evset(self, s: EventSet) -> frozenset[Event]:
        got = self._sets.get(s)
        if got is None:
            got = eval_event_set(s, self.engine.defs, self.engine.tvalues)
            self._sets[s] = got
        return got

    # The operator rules: each takes the node's key and its blanked
    # operator, and lists the successors in the order of the CSP rules.

    def _ext_choice(self, key, blank):
        op, l, r = key
        out = [(lab, uid, self._node((op, t, r)) if lab is TAU else t)
               for lab, uid, t in self.successors(l)]
        out += [(lab, uid, self._node((op, l, t)) if lab is TAU else t)
                for lab, uid, t in self.successors(r)]
        return out

    def _sliding(self, key, blank):
        op, l, r = key
        out = [(TAU, None, r)]
        out += [(lab, uid, self._node((op, t, r)) if lab is TAU else t)
                for lab, uid, t in self.successors(l)]
        return out

    def _interleave(self, key, blank):
        op, l, r = key
        out = [(lab, uid, self._node((op, t, r))) for lab, uid, t in self.successors(l)]
        out += [(lab, uid, self._node((op, l, t))) for lab, uid, t in self.successors(r)]
        return out

    def _hide(self, key, blank: Hide):
        op, p = key
        hidden = self.evset(blank.hidden)
        return [(TAU if lab is not TAU and lab in hidden else lab, uid,
                 self._node((op, t))) for lab, uid, t in self.successors(p)]

    def _rename(self, key, blank: Rename):
        op, p = key
        mapping = _rename_map(blank.pairs, self.engine.defs, self.engine.tvalues)
        out = []
        for lab, uid, t in self.successors(p):
            nxt = self._node((op, t))
            if lab is TAU or lab not in mapping:
                out.append((lab, uid, nxt))
            else:
                out.extend((lab2, uid, nxt) for lab2 in mapping[lab])
        return out

    def _alpha_par(self, key, blank: AlphaPar):
        op, l, r = key
        la, ra = self.evset(blank.left_alpha), self.evset(blank.right_alpha)
        right = self.successors(r)
        partners = _by_label(right)
        out = []
        for lab, uid, t in self.successors(l):
            if lab is TAU:
                out.append((TAU, uid, self._node((op, t, r))))
            elif lab in la:
                if lab in ra:
                    out.extend((lab, None, self._node((op, t, t2)))
                               for t2 in partners.get(lab, ()))
                else:
                    out.append((lab, uid, self._node((op, t, r))))
        for lab, uid, t in right:
            if lab is TAU or (lab in ra and lab not in la):
                out.append((lab, uid, self._node((op, l, t))))
        return out

    def _indexed_interleave(self, key, blank):
        out = []
        for j, c in enumerate(key[1:], 1):
            out.extend((lab, uid, self._node(key[:j] + (t,) + key[j + 1:]))
                       for lab, uid, t in self.successors(c))
        return out

    def _shared_par(self, key, blank: SharedPar):
        op, l, r = key
        shared = self.evset(blank.shared)
        right = self.successors(r)
        partners = _by_label(right)
        out = []
        for lab, uid, t in self.successors(l):
            if lab is not TAU and lab in shared:
                out.extend((lab, None, self._node((op, t, t2)))
                           for t2 in partners.get(lab, ()))
            else:
                out.append((lab, uid, self._node((op, t, r))))
        for lab, uid, t in right:
            if lab is TAU or lab not in shared:
                out.append((lab, uid, self._node((op, l, t))))
        return out


def _by_label(succ) -> dict:
    """The targets of a successor list grouped by visible label, in order."""
    out: dict = {}
    for lab, _, t in succ:
        if lab is not TAU:
            out.setdefault(lab, []).append(t)
    return out


_RULES = {
    ExtChoice: StateGraph._ext_choice,
    Sliding: StateGraph._sliding,
    Interleave: StateGraph._interleave,
    IndexedInterleave: StateGraph._indexed_interleave,
    Hide: StateGraph._hide,
    Rename: StateGraph._rename,
    AlphaPar: StateGraph._alpha_par,
    SharedPar: StateGraph._shared_par,
}


# The operators that stay around an operand after it moves: an identifier
# reached again below one of them nests every state one level deeper.  Of
# sliding choice only the left operand keeps its context.
_KEEPERS = (ExtChoice, Interleave, SharedPar, AlphaPar, Hide, Rename,
            ReplInterleave, ReplExtChoice, ReplAlphaPar)


def _keeps(term: ProcessTerm, i: int) -> bool:
    """Whether the term keeps its context around its i-th subterm."""
    return isinstance(term, _KEEPERS) or (isinstance(term, Sliding) and i == 0)


def _calls(eq: Equation):
    """(keeps, callee, guarded, passes) for each identifier occurrence of the
    body outside prefixes: keeps when an operator above it keeps its
    context, guarded when a conditional is above it, and passes when its
    arguments are the equation's parameters in order, with no replicated
    binder above shadowing one."""
    own = tuple(VarRef(p) for p in eq.params)

    def walk(term, keeps, guarded, shadowed):
        if isinstance(term, Ident):
            yield keeps, term.name, guarded, not shadowed and term.args == own
        elif not isinstance(term, Prefix):
            shadowed = shadowed or (isinstance(term, REPLICATED)
                                    and term.var in eq.params)
            for i, sub in enumerate(subterms(term)):
                yield from walk(sub, keeps or _keeps(term, i),
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
              max_states: int = DEFAULT_MAX_STATES,
              init_subst: Optional[dict] = None, *,
              symmetric_from: Optional[int] = None) -> Lts:
    """Breadth-first closure of the transition rules from the given process
    (a defined name or a term, closed once init_subst is applied).  The
    states are terms; the keys are the state classes of this build's state
    graph, so they identify states within one build only.

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
    result is meaningful."""
    term = defs.body(proc) if isinstance(proc, str) else proc
    if init_subst:
        term = substitute(term, init_subst)
    check_guarded_recursion(term, defs)
    graph = StateGraph(Engine(defs, tsize), symmetric_from)
    root = graph.intern(expand_replicated(term, graph.engine.tvalues))
    state = graph.state

    def successors(i):
        return [(lab, uid, t, state(t)) for lab, uid, t in graph.successors(i)]

    if symmetric_from is not None:
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
                alphabet=file_alphabet(defs, graph.engine.tvalues), tsize=tsize,
                max_states=max_states, describe=lambda i: fmt_term(graph.term(i)))
    with terms_bounded():
        lts.states = [graph.term(i) for i in lts.states]
    return lts
