"""Resolution of a parsed definition file: parameter typing, guard
classification and closure checks.

Process parameters are untyped in the source.  Inference types them from
their uses (event positions, arithmetic, argument passing) in sweeps over
the equations in file order, as long as a sweep types a parameter, and then
again with untyped ``==``/``!=`` sides defaulting to t.  A sweep visits only
the equations whose visit would differ from their last: those whose own
parameter types, or a callee's, changed since, and those whose last visit
met a call or a comparison that the next phase reads differently.  Any
other equation would repeat its last visit, findings and all, so each
parameter typed costs a visit of its equation and its callers, not a sweep
over the file.  Then one walk per body classifies guards into t-conditions
and ordinary boolean expressions and turns the numbers passed to
t-parameters into t-values; the variables that no binder or parameter
holds, reported as undefined, are the free names of the body as parsed
(an ill-typed comparison is dropped from the rewritten one), found by
``syntax.free_vars``, the one owner of binder scope.
"""

from __future__ import annotations

from bisect import insort
from operator import neg

from .errors import Diagnostic, ParseError
from .syntax import (
    Atom, BANG, BoolAnd, BoolLit, BoolNot, BoolOr, Cmp, Condition, Definitions,
    Equation, Ident, If, MixedGuard, NatLit, NatMin, NatOp, Prefix, REPLICATED,
    TVal, VarRef, binder_type, binders, free_vars, subterms, with_subterms,
)

_TY_T = "t"
_TY_NAT = "nat"


def nests_too_deeply(name: str, at: tuple[int, int], filename: str) -> ParseError:
    """The diagnostic, at the head of equation name (at, its line and
    column), for a definition nested deeper than the passes over its terms
    reach."""
    return ParseError([Diagnostic(f"the definition of {name!r} nests too deeply",
                                  *at, filename)])


class Resolver:
    """A diagnostic points at the (line, col) of the head of its equation
    (heads) or of the keyword of its assertion (asserts, in the order of
    defs.assertions).  calls gives the names each equation calls."""

    def __init__(self, defs: Definitions, heads: dict[str, tuple[int, int]],
                 asserts: list[tuple[int, int]], calls: dict[str, set[str]]):
        self.defs = defs
        self.heads = heads
        self.asserts = asserts
        self.diags: list[Diagnostic] = []
        self.param_ty = {name: [None] * len(eq.params)
                         for name, eq in defs.equations.items()}
        self.changed = False
        # untyped variables compared by ==/!= default to the distinguished
        # type once ordinary inference has settled
        self.default_eq_to_t = False
        # whether a call types the parameters of its callee (see run_inference)
        self.calls_type_params = True
        # whether the visit in progress met ==/!= between two untyped sides,
        # and an argument that would type its callee's parameter were calls
        # to type parameters; and whether each equation's last visit did
        self.untyped_eq = self.typing_arg = False
        self.names = list(defs.equations)
        self.untyped = [False] * len(self.names)
        self.typing_args = [False] * len(self.names)
        # each equation's position, and the positions of the equations
        # whose visits read its parameter types: its own and its callers'
        self.index = {name: k for k, name in enumerate(self.names)}
        self.readers = [[k] for k in range(len(self.names))]
        for name, called in calls.items():
            for callee in called:
                k = self.index.get(callee)
                if k is not None and callee != name:
                    self.readers[k].append(self.index[name])

    def error(self, msg: str, eq: str):
        self.diags.append(Diagnostic(msg, *self.heads[eq], self.defs.filename))

    def set_param(self, eq: str, idx: int, ty):
        cur = self.param_ty[eq][idx]
        if ty is None or cur == ty:
            return
        if cur is None:
            self.param_ty[eq][idx] = ty
            self.changed = True
            for k in self.readers[self.index[eq]]:
                self.revisit(k)
        else:
            self.error(f"parameter {self.defs.equations[eq].params[idx]!r} of "
                       f"{eq!r} used both as {cur} and as {ty}", eq)

    # scope maps variable name -> 't' | 'nat' | datatype name | None

    def note_var(self, scope, eq, name, ty):
        if name in scope:
            cur = scope[name]
            if cur is None:
                scope[name] = ty
                if name in self.defs.equations[eq].params:
                    self.set_param(eq, self.defs.equations[eq].params.index(name), ty)
            elif ty is not None and cur != ty:
                self.error(f"variable {name!r} in {eq!r} used both as {cur} and as {ty}", eq)

    def scalar_ty(self, e, scope, eq, expect=None):
        """Infer the type of a scalar expression, propagating expectations."""
        cls = e.__class__
        if cls is NatLit:
            return _TY_NAT
        if cls is TVal:
            return _TY_T
        if cls is Atom:
            return e.type_name
        if cls is VarRef:
            if expect is not None:
                self.note_var(scope, eq, e.name, expect)
            return scope.get(e.name)
        if cls is NatOp or cls is NatMin:
            self.nat_operands(e, scope, eq)
            return _TY_NAT
        return None

    def nat_operands(self, e, scope, eq):
        """Type the two sides of an arithmetic operation or an ordering
        comparison, each a natural."""
        for side in (e.left, e.right):
            if side.__class__ is Atom:
                self.error(f"value {side.name!r} of type {side.type_name} where a natural "
                           f"is expected in {eq!r}", eq)
            self.scalar_ty(side, scope, eq, _TY_NAT)

    def infer_bool(self, b, scope, eq):
        if isinstance(b, (BoolAnd, BoolOr)):
            self.infer_bool(b.left, scope, eq)
            self.infer_bool(b.right, scope, eq)
        elif isinstance(b, BoolNot):
            self.infer_bool(b.arg, scope, eq)
        elif isinstance(b, Cmp):
            if b.op in ("<", "<=", ">", ">="):
                self.nat_operands(b, scope, eq)
            else:
                lt = self.scalar_ty(b.left, scope, eq)
                rt = self.scalar_ty(b.right, scope, eq)
                if lt is None and rt is not None:
                    self.scalar_ty(b.left, scope, eq, rt)
                elif rt is None and lt is not None:
                    self.scalar_ty(b.right, scope, eq, lt)
                elif lt is None and rt is None:
                    self.untyped_eq = True
                    if self.default_eq_to_t:
                        self.scalar_ty(b.left, scope, eq, _TY_T)
                        self.scalar_ty(b.right, scope, eq, _TY_T)

    def scope_below(self, term, scope, noting=None):
        """The scope of the subterms of term: each name it binds (binders)
        at the type of its annotation.  With noting (an equation name), the
        variables a prefix outputs are noted too, each seeing the inputs to
        its left."""
        cls = term.__class__
        if cls is not Prefix:
            if cls not in REPLICATED:
                return scope
            return {**scope, **{name: binder_type(ty) for name, ty in binders(term).items()}}
        scope, bound = dict(scope), iter(binders(term).items())
        for f in term.construct.fields:
            if f.sel != BANG:  # the field of the next binder
                name, ty = next(bound)
                scope[name] = binder_type(ty)
            elif noting is not None and isinstance(f.payload, str):
                self.note_var(scope, noting, f.payload, _TY_T if f.bang_is_t else None)
        return scope

    def infer_term(self, term, scope, eq):
        cls = term.__class__
        if cls is Ident:
            callee = self.defs.equations.get(term.name)
            if callee is None:
                self.error(f"undefined process {term.name!r} referenced in {eq!r}", eq)
                return
            if len(term.args) != len(callee.params):
                self.error(f"{term.name!r} expects {len(callee.params)} argument(s), "
                           f"got {len(term.args)} in {eq!r}", eq)
                return
            for i, a in enumerate(term.args):
                pty = self.param_ty[term.name][i]
                aty = self.scalar_ty(a, scope, eq, expect=pty)
                if pty is None:
                    if self.calls_type_params:
                        self.set_param(term.name, i, aty)
                    elif aty is not None and self.param_ty[term.name][i] != aty:
                        self.typing_arg = True
                elif a.__class__ is Atom and aty != pty:
                    # a datatype value passed at another type: the call errs
                    self.error(f"parameter {callee.params[i]!r} of {term.name!r} "
                               f"used both as {pty} and as {aty}", eq)
            return
        if cls is If and not isinstance(term.guard, (Condition, MixedGuard)):
            self.infer_bool(term.guard, scope, eq)
        inner = self.scope_below(term, scope, eq)
        for sub in subterms(term):
            self.infer_term(sub, inner, eq)

    def visit(self, k: int):
        """One inference pass over the body of the k-th equation."""
        name = self.names[k]
        eq = self.defs.equations[name]
        scope = {p: self.param_ty[name][i] for i, p in enumerate(eq.params)}
        self.untyped_eq = self.typing_arg = False
        try:
            self.infer_term(eq.body, scope, name)
        except RecursionError:
            raise nests_too_deeply(name, self.heads[name], self.defs.filename) from None
        for i, p in enumerate(eq.params):
            if scope[p] is not None:
                self.set_param(name, i, scope[p])
        self.untyped[k] = self.untyped_eq
        self.typing_args[k] = self.typing_arg

    def revisit(self, k: int):
        """Visit the k-th equation again, later in this sweep if it comes
        after the one being visited, else in the next."""
        if k <= self.visiting:
            self.next_sweep.add(k)
        elif k not in self.queued:
            self.queued.add(k)
            insort(self.pending, k, key=neg)

    def sweep(self, ks) -> set[int]:
        """A pass over the equations in file order that visits those of ks
        and those that the visits change the parameter types of, or of a
        callee of; returns the equations to visit in the next pass.  Any
        other would see what it saw at its last visit, and so repeat it:
        its findings, already reported, and no change."""
        self.pending = sorted(ks, reverse=True)  # the next to visit last
        self.queued = set(self.pending)
        self.next_sweep = set()
        while self.pending:
            self.visiting = self.pending.pop()
            self.visit(self.visiting)
        return self.next_sweep

    def run_inference(self):
        # The first sweep types parameters by their own equation's body
        # alone, so that a call passing a value of another type is what is
        # reported, at the caller, whatever the order of the equations.
        # Turning calls_type_params on changes only the visits that met an
        # argument that would type its callee's parameter, and defaulting
        # only the visits that met ==/!= between untyped sides.
        self.calls_type_params = False
        dirty = self.sweep(range(len(self.names)))
        dirty |= {k for k, met in enumerate(self.typing_args) if met}
        self.calls_type_params = True
        for phase in (False, True):
            if phase:
                if not (self.changed or any(self.untyped)):
                    break  # no ==/!= between untyped sides: defaulting would repeat the sweep
                self.default_eq_to_t = True
                dirty |= {k for k, met in enumerate(self.untyped) if met}
            for _ in range(len(self.names) + 2):
                self.changed = False
                dirty = self.sweep(dirty)
                if not self.changed:
                    break

    # -- guard classification ------------------------------------------------

    def classify_guard(self, b, scope, eq):
        """Turn a raw boolean expression into a Condition, a non-t boolean, or
        a MixedGuard, based on the inferred side types."""
        if isinstance(b, (Condition, MixedGuard)):
            return b
        negated = False
        while isinstance(b, BoolNot):
            negated = not negated
            b = b.arg
        conj = []
        stack = [b]
        while stack:
            node = stack.pop()
            if isinstance(node, BoolAnd):
                stack.append(node.right)
                stack.append(node.left)
            else:
                conj.append(node)
        t_atoms = []
        other = []
        any_neq = False
        for c in conj:
            if isinstance(c, Cmp) and c.op in ("==", "!="):
                lt = self._side_ty(c.left, scope)
                rt = self._side_ty(c.right, scope)
                if lt == _TY_T or rt == _TY_T:
                    if lt is not None and rt is not None and lt != rt:
                        self.error(f"comparison between {lt} and {rt} in {eq!r}", eq)
                        return BoolLit(False)
                    l = c.left.name if isinstance(c.left, VarRef) else c.left
                    r = c.right.name if isinstance(c.right, VarRef) else c.right
                    if not isinstance(l, (str, TVal)) or not isinstance(r, (str, TVal)):
                        self.error(f"ill-typed t-equality in {eq!r}", eq)
                        return BoolLit(False)
                    if l == r:
                        self.error(f"trivial condition {l}=={r} in {eq!r}", eq)
                    if c.op == "!=":
                        any_neq = True
                        t_atoms.append(("!=", (l, r)))
                    else:
                        t_atoms.append(("==", (l, r)))
                    continue
            other.append(c)
        if t_atoms and not other:
            if any_neq:
                if len(t_atoms) > 1:
                    self.error(f"t-guard in {eq!r} must be a conjunction of "
                               "equalities or the negation of one", eq)
                return Condition(not negated, tuple(a for _, a in t_atoms))
            return Condition(negated, tuple(a for _, a in t_atoms))
        if not t_atoms:
            whole = None
            for c in conj:
                whole = c if whole is None else BoolAnd(whole, c)
            return BoolNot(whole) if negated else whole
        if any_neq:
            self.error(f"mixed guard with t-inequality in {eq!r} is not supported", eq)
        return MixedGuard(negated, tuple(a for _, a in t_atoms), tuple(other))

    def _side_ty(self, e, scope):
        if isinstance(e, VarRef):
            return scope.get(e.name)
        if isinstance(e, TVal):
            return _TY_T
        if isinstance(e, Atom):
            return e.type_name
        return _TY_NAT

    def rewrite(self, term, scope, eq):
        """term with its guards classified and the numbers passed to
        t-parameters made t-values."""
        if term.__class__ is Ident:
            if not term.args:
                return term
            types = self.param_ty.get(term.name, ())
            args = tuple(TVal(a.value) if a.__class__ is NatLit and i < len(types)
                         and types[i] == _TY_T else a for i, a in enumerate(term.args))
            return term if args == term.args else Ident(term.name, args)
        if term.__class__ is If:
            guard = self.classify_guard(term.guard, scope, eq)
            if guard is not term.guard:
                term = If(guard, term.then, term.els)
        inner = self.scope_below(term, scope)
        subs = subterms(term)
        new = [self.rewrite(sub, inner, eq) for sub in subs]
        for a, b in zip(new, subs):
            if a is not b:
                return with_subterms(term, new)
        return term

    def finish(self):
        self.run_inference()
        for name, eq in list(self.defs.equations.items()):
            scope = {p: self.param_ty[name][i] for i, p in enumerate(eq.params)}
            try:
                body = self.rewrite(eq.body, scope, name)
                unbound = sorted(free_vars(eq.body) - scope.keys())
            except RecursionError:
                raise nests_too_deeply(name, self.heads[name], self.defs.filename) from None
            for v in unbound:
                self.error(f"undefined variable {v!r} in the definition of {name!r}", name)
            self.defs.equations[name] = Equation(
                name, eq.params, body, tuple(self.param_ty[name]))
        for a, keyword in zip(self.defs.assertions, self.asserts):
            for side in (a.lhs, a.rhs):
                if side not in self.defs.equations:
                    self.diags.append(Diagnostic(
                        f"assertion references undefined process {side!r}",
                        *keyword, self.defs.filename))
        if self.diags:
            # an equation visited again repeats its findings: report each once
            raise ParseError(list(dict.fromkeys(self.diags)))
