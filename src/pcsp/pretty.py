"""Concrete-syntax printer.

Prints terms, constructs, guards, event sets and types; the printed form of
a term re-parses to an identical AST.  The operator tables in ``syntax``
(``OPERATORS`` and ``DATA_OPS``) are the one owners of operator syntax:
every operator in them prints through its form, with each operand in
parentheses where the table's levels ask for them.  Term printing labels
states in DOT output and diagnostics.
"""

from __future__ import annotations

from .syntax import (
    Atom, BANG, BoolLit, BoolNot, Construct, D_AND, D_CMP, D_OR, DATA_OPS, DOLLAR,
    EventSet, Field, GUARD, Ident, If, NatLit, OPEN, OPERATORS, Op, PREFIX, Prefix,
    QUERY, Stop, TVal, VarRef,
)


def fmt_field(f: Field, dot_ok: bool) -> str:
    if f.sel in (DOLLAR, QUERY):
        return f"{f.sel}{f.payload}:{f.ty}"
    return ("." if dot_ok else "!") + str(f.payload)


def fmt_construct(alpha: Construct) -> str:
    dot_ok = all(f.sel == BANG for f in alpha.fields)
    return alpha.channel + "".join(fmt_field(f, dot_ok) for f in alpha.fields)


def fmt_data(e, ctx: int = D_OR) -> str:
    """A data expression, in parentheses where its operator binds more
    loosely than ctx, the level of its place (DATA_OPS)."""
    cls = e.__class__
    if cls is Op:
        level, left, right, form, _ = DATA_OPS[e.op]
        return _paren(form.format(fmt_data(e.left, left), fmt_data(e.right, right)), level, ctx)
    if cls is BoolNot:
        return f"not {fmt_data(e.arg, D_CMP)}"
    if cls is BoolLit:
        return "true" if e.value else "false"
    if cls is NatLit:
        return str(e.value)
    if cls is VarRef:
        return e.name
    if cls is TVal or cls is Atom:
        return str(e)
    raise TypeError(f"fmt_data: {e!r}")


def fmt_guard(g) -> str:
    """A guard: a lone boolean over other data as it stands, else its parts
    joined by 'and', a negated single t-atom as l!=r."""
    if not g.t_atoms and len(g.other) == 1 and not g.negated:
        return fmt_data(g.other[0])
    if g.negated and len(g.t_atoms) == 1 and not g.other:
        l, r = g.t_atoms[0]
        return f"{l}!={r}"
    conj = " and ".join([f"{l}=={r}" for l, r in g.t_atoms]
                        + [fmt_data(b, D_AND) for b in g.other])
    return f"not ({conj})" if g.negated else conj


def _fmt_item(x) -> str:
    """A channel name, or an event or event-set item: its channel and datums."""
    if isinstance(x, str):
        return x
    return x.channel + "".join(f".{d}" for d in x.datums)


def fmt_evset(s: EventSet) -> str:
    if s.closures and not s.literals:
        return "{|" + ", ".join(map(_fmt_item, s.closures)) + "|}"
    return "{" + ", ".join(map(_fmt_item, s.literals)) + "}"


def _fmt_data(value) -> str:
    """A data field of a table operator: an event set, the pairs of a
    renaming, an index variable or a domain."""
    if isinstance(value, EventSet):
        return fmt_evset(value)
    if isinstance(value, tuple):
        return ", ".join(f"{_fmt_item(a)} <- {_fmt_item(b)}" for a, b in value)
    return str(value)


def _paren(s: str, level: int, ctx: int) -> str:
    return f"({s})" if level < ctx else s


def fmt_term(term, ctx: int = OPEN) -> str:
    if isinstance(term, Stop):
        return "STOP"
    if isinstance(term, Ident):
        if not term.args:
            return term.name
        return term.name + "(" + ",".join(map(fmt_data, term.args)) + ")"
    if isinstance(term, Prefix):
        s = f"{fmt_construct(term.construct)} -> {fmt_term(term.cont, PREFIX)}"
        return _paren(s, PREFIX, ctx)
    if isinstance(term, If):
        if isinstance(term.els, Stop):
            s = f"{fmt_guard(term.guard)} & {fmt_term(term.then, GUARD)}"
            return _paren(s, GUARD, ctx)
        s = (f"if {fmt_guard(term.guard)} then {fmt_term(term.then, OPEN + 1)}"
             f" else {fmt_term(term.els, OPEN)}")
        return _paren(s, OPEN, ctx)
    op = OPERATORS.get(type(term))
    if op is None:
        raise TypeError(f"fmt_term: {term!r}")
    fields = {name: fmt_term(value, op.operands[name]) if name in op.operands
              else _fmt_data(value) for name, value in vars(term).items()}
    return _paren(op.form.format(**fields), op.level, ctx)
