"""Concrete-syntax printer.

Prints terms, constructs, guards, event sets and types; the printed form of
a term re-parses to an identical AST.  Term printing labels states in DOT
output and diagnostics.
"""

from __future__ import annotations

from .syntax import (
    Atom, BANG, BoolAnd, BoolLit, BoolNot, BoolOr, Cmp, Condition, Construct,
    DOLLAR, EventLitItem, EventSet, ExtChoice, Field, Hide,
    Ident, If, IntChoice, Interleave, MixedGuard, NatLit, NatMin, NatOp,
    Prefix, QUERY, Rename, ReplAlphaPar, ReplExtChoice, ReplIntChoice,
    ReplInterleave, AlphaPar, SharedPar, Sliding, Stop, TVal, VarRef,
)

# Precedence levels, loosest to tightest; a subterm is parenthesised when its
# level is strictly below the context's.
_HIDE = 1
_PAR = 2
_INT = 3
_EXT = 4
_SLIDE = 5
_GUARD = 6
_PREFIX = 7
_ATOM = 9
_OPEN = 0  # if/then/else and replicated bodies extend greedily rightwards


def fmt_datum(d) -> str:
    return str(d)


def fmt_type(ty) -> str:
    return str(ty)


def fmt_field(f: Field, dot_ok: bool) -> str:
    if f.sel in (DOLLAR, QUERY):
        return f"{f.sel}{f.payload}:{fmt_type(f.ty)}"
    return ("." if dot_ok else "!") + fmt_datum(f.payload)


def fmt_construct(alpha: Construct) -> str:
    dot_ok = all(f.sel == BANG for f in alpha.fields)
    return alpha.channel + "".join(fmt_field(f, dot_ok) for f in alpha.fields)


def fmt_scalar(e, prec: int = 0) -> str:
    if isinstance(e, NatLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, (TVal, Atom)):
        return str(e)
    if isinstance(e, NatOp):
        s = f"{fmt_scalar(e.left, 0)}{e.op}{fmt_scalar(e.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, NatMin):
        return f"min({fmt_scalar(e.left)},{fmt_scalar(e.right)})"
    raise TypeError(f"fmt_scalar: {e!r}")


def fmt_bool(b, prec: int = 0) -> str:
    # prec: 0 = or-level, 1 = and-level, 2 = atom
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return f"{fmt_scalar(b.left, 1)}{b.op}{fmt_scalar(b.right, 1)}"
    if isinstance(b, BoolNot):
        return f"not {fmt_bool(b.arg, 2)}"
    if isinstance(b, BoolAnd):
        s = f"{fmt_bool(b.left, 1)} and {fmt_bool(b.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(b, BoolOr):
        s = f"{fmt_bool(b.left, 0)} or {fmt_bool(b.right, 1)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"fmt_bool: {b!r}")


def fmt_condition(c: Condition) -> str:
    conj = " and ".join(f"{fmt_datum(l)}=={fmt_datum(r)}" for l, r in c.atoms)
    if not c.negated:
        return conj
    if len(c.atoms) == 1:
        l, r = c.atoms[0]
        return f"{fmt_datum(l)}!={fmt_datum(r)}"
    return f"not ({conj})"


def fmt_guard(g) -> str:
    if isinstance(g, Condition):
        return fmt_condition(g)
    if isinstance(g, MixedGuard):
        parts = [f"{fmt_datum(l)}=={fmt_datum(r)}" for l, r in g.t_atoms]
        parts += [fmt_bool(b, 1) for b in g.other]
        conj = " and ".join(parts)
        return f"not ({conj})" if g.negated else conj
    return fmt_bool(g)


def fmt_evset(s: EventSet) -> str:
    if s.closures and not s.literals:
        items = ", ".join(
            c.channel + "".join("." + fmt_datum(d) for d in c.datums)
            for c in s.closures)
        return "{|" + items + "|}"
    items = ", ".join(
        e.channel + "".join("." + fmt_datum(d) for d in e.datums)
        for e in s.literals)
    return "{" + items + "}"


def _paren(s: str, level: int, ctx: int) -> str:
    return f"({s})" if level < ctx else s


def fmt_term(term, ctx: int = 0) -> str:
    if isinstance(term, Stop):
        return "STOP"
    if isinstance(term, Ident):
        if not term.args:
            return term.name
        return term.name + "(" + ",".join(fmt_scalar(a) for a in term.args) + ")"
    if isinstance(term, Prefix):
        s = f"{fmt_construct(term.construct)} -> {fmt_term(term.cont, _PREFIX)}"
        return _paren(s, _PREFIX, ctx)
    if isinstance(term, If):
        if isinstance(term.els, Stop):
            s = f"{fmt_guard(term.guard)} & {fmt_term(term.then, _GUARD)}"
            return _paren(s, _GUARD, ctx)
        s = (f"if {fmt_guard(term.guard)} then {fmt_term(term.then, _OPEN + 1)}"
             f" else {fmt_term(term.els, _OPEN)}")
        return _paren(s, _OPEN, ctx)
    if isinstance(term, Sliding):
        s = f"{fmt_term(term.left, _SLIDE + 1)} [> {fmt_term(term.right, _SLIDE + 1)}"
        return _paren(s, _SLIDE, ctx)
    if isinstance(term, ExtChoice):
        s = f"{fmt_term(term.left, _EXT)} [] {fmt_term(term.right, _EXT + 1)}"
        return _paren(s, _EXT, ctx)
    if isinstance(term, IntChoice):
        s = f"{fmt_term(term.left, _INT)} |~| {fmt_term(term.right, _INT + 1)}"
        return _paren(s, _INT, ctx)
    if isinstance(term, AlphaPar):
        s = (f"{fmt_term(term.left, _PAR + 1)} [{fmt_evset(term.left_alpha)} || "
             f"{fmt_evset(term.right_alpha)}] {fmt_term(term.right, _PAR + 1)}")
        return _paren(s, _PAR, ctx)
    if isinstance(term, SharedPar):
        s = (f"{fmt_term(term.left, _PAR + 1)} [|{fmt_evset(term.shared)}|] "
             f"{fmt_term(term.right, _PAR + 1)}")
        return _paren(s, _PAR, ctx)
    if isinstance(term, Interleave):
        s = f"{fmt_term(term.left, _PAR)} ||| {fmt_term(term.right, _PAR + 1)}"
        return _paren(s, _PAR, ctx)
    if isinstance(term, Hide):
        s = f"{fmt_term(term.proc, _HIDE)} \\ {fmt_evset(term.hidden)}"
        return _paren(s, _HIDE, ctx)
    if isinstance(term, Rename):
        pairs = ", ".join(
            f"{_fmt_ren(a)} <- {_fmt_ren(b)}" for a, b in term.pairs)
        s = f"{fmt_term(term.proc, _PREFIX)} [[{pairs}]]"
        return _paren(s, _PREFIX, ctx)
    if isinstance(term, ReplAlphaPar):
        s = (f"|| {term.var}:{fmt_type(term.domain)} @ "
             f"[{fmt_evset(term.alpha)}] {fmt_term(term.body, _OPEN)}")
        return _paren(s, _OPEN, ctx)
    if isinstance(term, ReplInterleave):
        s = f"||| {term.var}:{fmt_type(term.domain)} @ {fmt_term(term.body, _OPEN)}"
        return _paren(s, _OPEN, ctx)
    if isinstance(term, ReplIntChoice):
        s = f"|~| {term.var}:{fmt_type(term.domain)} @ {fmt_term(term.body, _OPEN)}"
        return _paren(s, _OPEN, ctx)
    if isinstance(term, ReplExtChoice):
        s = f"[] {term.var}:{fmt_type(term.domain)} @ {fmt_term(term.body, _OPEN)}"
        return _paren(s, _OPEN, ctx)
    raise TypeError(f"fmt_term: {term!r}")


def _fmt_ren(x) -> str:
    if isinstance(x, EventLitItem):
        return x.channel + "".join("." + fmt_datum(d) for d in x.datums)
    return x
