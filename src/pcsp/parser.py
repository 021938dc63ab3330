"""Text front end for ``.pcsp`` definition files.

The token stream is split into items, each running from a declaration
keyword or an equation head to the next one, and each item is parsed by the
one grammar for its kind.  Declarations (``channel``, ``datatype``,
``const``, ``assert``) are parsed in a first pass so that equation bodies
can be parsed against channel signatures regardless of declaration order.
Process operators are read from the operator table in ``syntax``, the one
owner of their symbols, binding levels and layout: each level of the table
is a left-associated loop over the next, and an operator's form says which
tokens and fields follow its symbol.  Guards, prefixes, if/then/else and
calls are parsed one by one.  Process parameters are untyped in the source;
a small inference pass types them from their uses (event positions,
arithmetic, argument passing) before guards are classified into
t-conditions and ordinary boolean expressions.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from functools import wraps

from .errors import Diagnostic, ParseError
from .record import record, replace
from .syntax import (
    ATOM, Atom, BANG, BoolAnd, BoolLit, BoolNot, BoolOr, ChanPrefixItem, Cmp,
    Condition, Construct, Definitions, DiffType, Equation,
    EventLitItem, EventSet, Field, GUARD, HIDE, Ident, If, MixedGuard,
    NamedType, NatLit, NatMin, NatOp, OPEN, OPERATORS, Operator, Prefix,
    SetType, Stop, T_TYPE, TType, TVal, Assertion, VarRef,
    binder_type, binders, free_vars, map_subterms, substitute, subterms,
    t_field_atoms, type_is_t,
)

KEYWORDS = {
    "channel", "datatype", "const", "assert", "if", "then", "else",
    "and", "or", "not", "min", "STOP", "true", "false",
}

# longest-match symbol table
_SYMBOLS = [
    "|~|", "|||", "[T=", "[F=",
    "->", "[]", "[>", "[[", "]]", "{|", "|}", "[|", "|]", "<-",
    "==", "!=", "<=", ">=", "||",
    "(", ")", "{", "}", "[", "]", "|", ".", ",", ":", ";",
    "!", "?", "$", "&", "\\", "@", "<", ">", "=", "+", "-",
]


@record(frozen=True)
class Token:
    kind: str  # 'ident', 'num', 'sym', 'eof'
    text: str
    line: int
    col: int


# One alternative per token class, tried in this order at each position.
# A name starts with a letter or _ and goes on over letters, digits and _
# (str.isalnum, which is what \w matches); a number is ASCII digits only,
# which int() takes; a symbol is the first of _SYMBOLS that matches.
_TOKEN = re.compile("|".join([
    r"(?P<nl>\n)", r"(?P<space>[ \t\r]+)", r"(?P<comment>--[^\n]*)",
    r"(?P<num>[0-9]+)", r"(?P<ident>\w+)",
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")", r"(?P<bad>.)"]))


def tokenize(text: str, filename: str) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0  # start: the index of the line's first character
    end = len(text)     # where the eof token stands
    for m in _TOKEN.finditer(text):
        kind, i = m.lastgroup, m.start()
        if kind == "nl":
            line, start = line + 1, i + 1
        elif kind == "space":
            pass
        elif kind == "comment":
            if m.end() == len(text):
                end = i  # a comment takes no columns
        elif kind == "bad" or (kind == "ident" and not (text[i].isalpha() or text[i] == "_")):
            # \w also matches digits int() rejects, such as ¹, which start no name
            raise ParseError([Diagnostic(f"unexpected character {text[i]!r}",
                                         line, i - start + 1, filename)])
        else:
            toks.append(Token(kind, m.group(), line, i - start + 1))
    toks.append(Token("eof", "", line, end - start + 1))
    return toks


def _failures_memoised(parse):
    """Remember where an expression parser fails: it reads nothing but the
    tokens from the current position, so it fails there again, with the
    same diagnostic, however it is reached.  parse_guarded tries a boolean
    at every nesting level of a process, and a failing boolean tries a
    scalar and a parenthesised boolean in turn; without the memo, the time
    to parse ``((…(STOP)…))`` grows about as the cube of its depth
    (packrat parsing, for failures only)."""

    @wraps(parse)
    def attempt(self):
        key = (parse, self.pos)
        failure = self._failed.get(key)
        if failure is not None:
            raise ParseError(failure)
        try:
            return parse(self)
        except ParseError as exc:
            # the diagnostics only: a kept exception keeps its frames alive
            self._failed[key] = exc.diagnostics
            raise

    return attempt


class _Parser:
    def __init__(self, tokens: list[Token], defs: Definitions, filename: str):
        self.toks = tokens
        self.pos = 0
        self.defs = defs
        self.filename = filename
        self._uid = 0
        self._failed: dict = {}  # (parse method, position) -> its diagnostics

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text in texts

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text in words

    def eat_sym(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "sym" or t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return self.next()

    def eat_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return self.next()

    def separated(self, item, sep: str = ","):
        """The list of what item reads, once and then again after each sep."""
        items = [item()]
        while self.at_sym(sep):
            self.next()
            items.append(item())
        return items

    def fail(self, message: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseError([Diagnostic(message, t.line, t.col, self.filename)])

    def fresh_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- datums and types ----------------------------------------------------

    def lookup_atom(self, name: str) -> Atom | None:
        for values in self.defs.datatypes.values():
            for a in values:
                if a.name == name:
                    return a
        return None

    def parse_datum(self, expected_ty, tok: Token):
        """A value or variable occupying a field of the given signature type."""
        if tok.kind == "num":
            if isinstance(expected_ty, TType):
                return TVal(int(tok.text))
            self.fail(f"numeric literal {tok.text} in a non-t field", tok)
        if tok.kind != "ident":
            self.fail(f"expected a value or variable, found {tok.text!r}", tok)
        atom = self.lookup_atom(tok.text)
        if atom is not None:
            if isinstance(expected_ty, NamedType) and atom.type_name != expected_ty.name:
                self.fail(f"value {tok.text!r} is of type {atom.type_name}, "
                          f"not {expected_ty.name}", tok)
            if isinstance(expected_ty, TType):
                self.fail(f"value {tok.text!r} of type {atom.type_name} in a t field", tok)
            return atom
        return tok.text  # a variable

    def parse_type_expr(self, sig_ty=None):
        """A field annotation: t, a datatype name, {items} or (t\\{items})."""
        if self.at_sym("("):
            self.eat_sym("(")
            ty = self.parse_type_expr(sig_ty)
            self.eat_sym(")")
            return ty
        if self.at_sym("{"):
            open_tok = self.eat_sym("{")
            item_ty = sig_ty if sig_ty is not None else T_TYPE
            items = [] if self.at_sym("}") else self.separated(
                lambda: self.parse_datum(item_ty, self.next()))
            self.eat_sym("}")
            if not items:
                self.fail("empty set annotation", open_tok)
            is_t = sig_ty is None or isinstance(sig_ty, TType)
            return SetType(tuple(items), is_t)
        tok = self.eat_ident("type")
        if tok.text == "t":
            if self.at_sym("\\"):
                self.eat_sym("\\")
                self.eat_sym("{")
                items = self.separated(lambda: self.parse_datum(T_TYPE, self.next()))
                self.eat_sym("}")
                return DiffType(tuple(items))
            return T_TYPE
        if tok.text in self.defs.datatypes:
            return NamedType(tok.text, self.defs.datatypes[tok.text])
        self.fail(f"unknown type {tok.text!r}", tok)

    # -- constructs ----------------------------------------------------------

    def parse_construct(self, chan_tok: Token) -> Construct:
        name = chan_tok.text
        sig = self.defs.channels[name]
        fields = []
        while self.at_sym("$", "?", "!", "."):
            pos = len(fields)
            if pos >= len(sig):
                self.fail(f"channel {name!r} takes {len(sig)} field(s)", self.peek())
            sig_ty = sig[pos]
            sel_tok = self.next()
            if sel_tok.text in ("$", "?"):
                var = self.eat_ident("input variable")
                if any(f.sel != BANG and f.payload == var.text for f in fields):
                    # a name holds one value, so one of the two selections
                    # would be lost
                    self.fail(f"input variable {var.text!r} is bound twice in one "
                              f"construct on channel {name!r}", var)
                if self.at_sym(":"):
                    self.eat_sym(":")
                    ty = self.parse_type_expr(sig_ty)
                else:
                    ty = sig_ty
                if type_is_t(ty) != type_is_t(sig_ty):
                    self.fail(f"annotation {ty} does not match field type {sig_ty} "
                              f"of channel {name!r}", sel_tok)
                fields.append(Field(sel_tok.text, var.text, ty))
            else:
                d = self.parse_datum(sig_ty, self.next())
                fields.append(Field(BANG, d, None, bang_is_t=isinstance(sig_ty, TType)))
        if len(fields) != len(sig):
            self.fail(f"channel {name!r} takes {len(sig)} field(s), "
                      f"got {len(fields)}", chan_tok)
        return Construct(name, tuple(fields), uid=self.fresh_uid())

    # -- scalar and boolean expressions ---------------------------------------

    @_failures_memoised
    def parse_scalar(self):
        left = self.parse_scalar_term()
        while self.at_sym("+", "-"):
            op = self.next().text
            right = self.parse_scalar_term()
            left = NatOp(op, left, right)
        return left

    def parse_scalar_term(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return NatLit(int(tok.text))
        if self.at_kw("min"):
            self.next()
            self.eat_sym("(")
            a = self.parse_scalar()
            self.eat_sym(",")
            b = self.parse_scalar()
            self.eat_sym(")")
            return NatMin(a, b)
        if self.at_sym("("):
            self.eat_sym("(")
            e = self.parse_scalar()
            self.eat_sym(")")
            return e
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            atom = self.lookup_atom(tok.text)
            if atom is not None:
                return atom
            if tok.text in self.defs.consts:
                return NatLit(self.defs.consts[tok.text])
            return VarRef(tok.text)
        self.fail(f"expected a value, variable or number, found {tok.text!r}", tok)

    CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

    @_failures_memoised
    def parse_bool(self):
        left = self.parse_bool_and()
        while self.at_kw("or"):
            self.next()
            left = BoolOr(left, self.parse_bool_and())
        return left

    def parse_bool_and(self):
        left = self.parse_bool_atom()
        while self.at_kw("and"):
            self.next()
            left = BoolAnd(left, self.parse_bool_atom())
        return left

    def parse_bool_atom(self):
        if self.at_kw("not"):
            self.next()
            return BoolNot(self.parse_bool_atom())
        if self.at_kw("true"):
            self.next()
            return BoolLit(True)
        if self.at_kw("false"):
            self.next()
            return BoolLit(False)
        mark = self.pos
        try:
            left = self.parse_scalar()
            if not self.at_sym(*self.CMP_OPS):
                self.fail("expected comparison operator")
            op = self.next().text
            right = self.parse_scalar()
            return Cmp(op, left, right)
        except ParseError:
            self.pos = mark
        self.eat_sym("(")
        b = self.parse_bool()
        self.eat_sym(")")
        return b

    # -- event sets ------------------------------------------------------------

    def parse_event_fields(self, chan_tok: Token, complete: bool):
        name = chan_tok.text
        if name not in self.defs.channels:
            self.fail(f"undeclared channel {name!r}", chan_tok)
        sig = self.defs.channels[name]
        datums = []
        while self.at_sym("."):
            if len(datums) >= len(sig):
                self.fail(f"channel {name!r} takes {len(sig)} field(s)", self.peek())
            self.eat_sym(".")
            datums.append(self.parse_datum(sig[len(datums)], self.next()))
        if complete and len(datums) != len(sig):
            self.fail(f"event on channel {name!r} needs {len(sig)} field(s), "
                      f"got {len(datums)}", chan_tok)
        return name, tuple(datums)

    def parse_evset(self) -> EventSet:
        if self.at_sym("{|"):
            self.eat_sym("{|")
            closures = self.separated(lambda: ChanPrefixItem(*self.parse_event_fields(
                self.eat_ident("channel name"), complete=False)))
            self.eat_sym("|}")
            return EventSet(closures=tuple(closures))
        self.eat_sym("{")
        literals = [] if self.at_sym("}") else self.separated(
            lambda: EventLitItem(*self.parse_event_fields(
                self.eat_ident("channel name"), complete=True)))
        self.eat_sym("}")
        return EventSet(literals=tuple(literals))

    # -- processes ---------------------------------------------------------

    def parse_proc(self, level: int = HIDE):
        """A process whose operators outside parentheses bind at level or
        more tightly: each level of the operator table, from level on, reads
        its operators left-associated over operands of the next level, and
        below the tightest come guards, prefixes and atoms (a name, STOP or a
        parenthesised process takes the postfix operators of ATOM)."""
        if level >= GUARD:
            return self.parse_guarded()
        return self.parse_operators(self.parse_proc(level + 1), level)

    def parse_operators(self, p, level: int):
        """p followed by any number of the table's operators of level, each
        taking p as its first operand."""
        while True:
            op = _INFIX.get(self.peek().text)
            if op is None or op.level != level:
                return p
            (_, first), *rest = op.layout
            p = self.parse_form(op, rest, {first: p})

    def parse_form(self, op: Operator, layout, values: dict):
        """The term of op whose fields are values and, read from the input,
        the rest of its form: its symbols, then subterms at the levels the
        table gives them (a body at OPEN extends over the whole process),
        and data by kind."""
        for symbols, name in layout:
            for sym in symbols:
                self.eat_sym(sym)
            if name in op.operands:
                values[name] = self.parse_proc(max(op.operands[name], HIDE))
            elif name == "var":
                values[name] = self.eat_ident("index variable").text
            elif name == "domain":
                values[name] = self.parse_type_expr()
            elif name == "pairs":
                values[name] = self.parse_pairs()
            elif name is not None:
                values[name] = self.parse_evset()
        return op.cls(**values)

    def parse_guarded(self):
        mark = self.pos
        try:
            b = self.parse_bool()
            if self.at_sym("&"):
                self.eat_sym("&")
                return If(b, self.parse_guarded(), Stop())
        except ParseError:
            pass
        self.pos = mark
        return self.parse_prefix()

    def parse_prefix(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in self.defs.channels:
            chan_tok = self.next()
            alpha = self.parse_construct(chan_tok)
            self.eat_sym("->")
            return Prefix(alpha, self.parse_prefix())
        return self.parse_atom()

    def parse_rename_target(self):
        tok = self.eat_ident("channel name")
        if tok.text not in self.defs.channels:
            self.fail(f"undeclared channel {tok.text!r}", tok)
        if self.at_sym("."):
            name, datums = self.parse_event_fields(tok, complete=True)
            return EventLitItem(name, datums)
        return tok.text

    def parse_pairs(self):
        def pair():
            a = self.parse_rename_target()
            self.eat_sym("<-")
            return a, self.parse_rename_target()
        return tuple(self.separated(pair))

    def parse_atom(self):
        tok = self.peek()
        if self.at_kw("STOP"):
            self.next()
            return self.parse_operators(Stop(), ATOM)
        if self.at_kw("if"):
            self.next()
            b = self.parse_bool()
            if not self.at_kw("then"):
                self.fail("expected 'then'")
            self.next()
            then = self.parse_proc()
            if not self.at_kw("else"):
                self.fail("expected 'else'")
            self.next()
            els = self.parse_proc()
            return If(b, then, els)
        if tok.text in _REPLICATED:
            return self.parse_replicated(_REPLICATED[tok.text])
        if self.at_sym("("):
            self.eat_sym("(")
            p = self.parse_proc()
            self.eat_sym(")")
            return self.parse_operators(p, ATOM)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            if tok.text in self.defs.channels:
                self.fail(f"channel {tok.text!r} used as a process "
                          "(missing '->'?)", tok)
            if self.at_sym("$", "?", "!", "."):
                self.fail(f"undeclared channel {tok.text!r}", tok)
            args = ()
            if self.at_sym("("):
                self.eat_sym("(")
                args = tuple(self.separated(self.parse_scalar))
                self.eat_sym(")")
            return self.parse_operators(Ident(tok.text, args), ATOM)
        self.fail(f"expected a process, found {tok.text or 'end of input'!r}", tok)

    def parse_replicated(self, op: Operator):
        start = self.pos
        term = self.parse_form(op, op.layout, {})
        # the index variable, and the domain after it and ':'
        var_tok, dom_tok = self.toks[start + 1], self.toks[start + 3]
        if type_is_t(term.domain):
            return term
        # finite non-t domain: desugar to the binary operator of the symbol
        if isinstance(term.domain, NamedType):
            members = list(term.domain.values)
        else:
            members = [i for i in term.domain.items]
            if any(isinstance(i, str) for i in members):
                self.fail("replicated operator over a set with variables", dom_tok)
        if not members:
            self.fail("replicated operator over an empty set", dom_tok)
        branches = tuple(substitute(term.body, {term.var: v}) for v in members)
        for v in t_field_atoms(branches, self.defs.channels):
            self.fail(f"value {v.name!r} of type {v.type_name} in a t field", var_tok)
        combine = _INFIX.get(op.symbol)
        if combine is None:
            self.fail("replicated alphabetised parallel over a non-t set is "
                      "not supported; use the binary operator", dom_tok)
        out = branches[0]
        for b in branches[1:]:
            out = combine.cls(out, b)
        return out


# The operator table's binary and postfix operators by symbol, and its
# replicated operators by symbol.
_INFIX = {op.symbol: op for op in OPERATORS.values() if op.level > OPEN}
_REPLICATED = {op.symbol: op for op in OPERATORS.values() if op.level == OPEN}


# ---------------------------------------------------------------------------
# Item scanning (two-pass): declarations first, equation bodies second.

_DECL_KWS = ("channel", "datatype", "const", "assert")


def _eq_heads(toks: list[Token]) -> set[int]:
    """The positions of the equation heads: each name that an ``=``
    follows, directly or after one parenthesised group.  One pass, matching
    parentheses with a stack."""
    heads = set()
    opens = []     # the positions of the '(' not yet closed
    closing = {}   # the position of each ')' that closes a '(' -> the '('
    for k, t in enumerate(toks):
        if t.kind != "sym":
            continue
        if t.text == "(":
            opens.append(k)
        elif t.text == ")" and opens:
            closing[k] = opens.pop()
        elif t.text == "=":
            # the token before the group that '=' follows, or before '='
            j = closing.get(k - 1, k) - 1
            if j >= 0 and toks[j].kind == "ident" and toks[j].text not in KEYWORDS:
                heads.add(j)
    return heads


def _is_decl(t: Token) -> bool:
    return t.kind == "ident" and t.text in _DECL_KWS


def _scan_items(toks: list[Token], filename: str) -> list[list[Token]]:
    """Split the token stream into declaration and equation items.  Each item
    runs from a declaration keyword or an equation head up to the next one;
    the scan of a datatype or const starts after its ``Name =``, which has
    the shape of an equation head.  The item's own parser checks the rest.
    Each item ends in a sentinel just past its last token, so that an error
    at the end of the item points into it."""
    heads = _eq_heads(toks)
    starts = heads.union(k for k, t in enumerate(toks) if _is_decl(t))
    items = []
    i = 0
    while toks[i].kind != "eof":
        t = toks[i]
        if i not in starts:
            raise ParseError([Diagnostic(
                f"expected a declaration or equation, found {t.text!r}",
                t.line, t.col, filename)])
        j = i + 1
        if t.text in ("datatype", "const") and j in heads:
            j += 2
        while toks[j].kind != "eof" and j not in starts:
            j += 1
        last = toks[j - 1]
        items.append(toks[i:j] + [Token("eof", "", last.line, last.col + len(last.text))])
        i = j
    return items


def _parse_decl(p: _Parser, defs: Definitions):
    tok = p.next()
    if tok.text == "channel":
        names = p.separated(lambda: p.eat_ident("channel name"))
        sig: tuple = ()
        if p.at_sym(":"):
            p.eat_sym(":")
            tys = p.separated(p.parse_type_expr, ".")
            for ty in tys:
                if not isinstance(ty, (TType, NamedType)):
                    p.fail(f"channel field type must be t or a declared type, got {ty}", tok)
            sig = tuple(tys)
        for nt in names:
            if nt.text in defs.channels:
                p.fail(f"duplicate channel {nt.text!r}", nt)
            defs.channels[nt.text] = sig
    elif tok.text == "datatype":
        name = p.eat_ident("type name")
        if name.text in defs.datatypes or name.text == "t":
            p.fail(f"duplicate type {name.text!r}", name)
        p.eat_sym("=")
        members = p.separated(lambda: p.eat_ident("value name"), "|")
        seen = set()
        atoms = []
        for i, m in enumerate(members):
            if m.text in seen or p.lookup_atom(m.text) is not None:
                p.fail(f"duplicate value {m.text!r}", m)
            seen.add(m.text)
            atoms.append(Atom(name.text, m.text, i))
        defs.datatypes[name.text] = tuple(atoms)
    elif tok.text == "const":
        name = p.eat_ident("constant name")
        p.eat_sym("=")
        num = p.peek()
        if num.kind != "num":
            p.fail("expected a number", num)
        p.next()
        defs.consts[name.text] = int(num.text)
    else:  # assert
        lhs = p.eat_ident("process name")
        if not p.at_sym("[T=", "[F="):
            p.fail("expected '[T=' or '[F='")
        model = "traces" if p.next().text == "[T=" else "failures"
        rhs = p.eat_ident("process name")
        defs.assertions.append(Assertion(lhs.text, model, rhs.text))


# ---------------------------------------------------------------------------
# Resolution: parameter typing, guard classification, closure checks.

_TY_T = "t"
_TY_NAT = "nat"


# The deepest equation body accepted, a term without subterms having depth
# 1.  The passes over terms recurse; on Pythons before 3.12 the parser
# itself overflows just beyond this depth, and the bound rejects the same
# bodies, as nested too deeply, on every version.
MAX_DEPTH = 4_998


def _depth(term) -> int:
    """The nesting depth of a term, measured level by level."""
    level, depth = [term], 0
    while level:
        level, depth = [sub for node in level for sub in subterms(node)], depth + 1
    return depth


@contextmanager
def _nesting(head: Token, filename: str):
    """Report a definition nested deeper than the recursive passes over its
    terms reach as a diagnostic at the head of its equation, not as an
    internal error."""
    try:
        yield
    except RecursionError:
        raise ParseError([Diagnostic(
            f"the definition of {head.text!r} nests too deeply",
            head.line, head.col, filename)]) from None


class _Resolver:
    """A diagnostic points at the head token of its equation (heads) or at
    the keyword of its assertion (asserts, in the order of defs.assertions)."""

    def __init__(self, defs: Definitions, heads: dict[str, Token], asserts: list[Token]):
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
        # whether the last sweep met ==/!= between two untyped sides
        self.untyped_eq = False

    def error(self, msg: str, eq: str):
        head = self.heads[eq]
        self.diags.append(Diagnostic(msg, head.line, head.col, self.defs.filename))

    def set_param(self, eq: str, idx: int, ty):
        cur = self.param_ty[eq][idx]
        if ty is None or cur == ty:
            return
        if cur is None:
            self.param_ty[eq][idx] = ty
            self.changed = True
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
        if isinstance(e, NatLit):
            return _TY_NAT
        if isinstance(e, TVal):
            return _TY_T
        if isinstance(e, Atom):
            return e.type_name
        if isinstance(e, VarRef):
            if expect is not None:
                self.note_var(scope, eq, e.name, expect)
            return scope.get(e.name)
        if isinstance(e, (NatOp, NatMin)):
            self.scalar_ty(e.left, scope, eq, _TY_NAT)
            self.scalar_ty(e.right, scope, eq, _TY_NAT)
            return _TY_NAT
        return None

    def infer_bool(self, b, scope, eq):
        if isinstance(b, (BoolAnd, BoolOr)):
            self.infer_bool(b.left, scope, eq)
            self.infer_bool(b.right, scope, eq)
        elif isinstance(b, BoolNot):
            self.infer_bool(b.arg, scope, eq)
        elif isinstance(b, Cmp):
            if b.op in ("<", "<=", ">", ">="):
                self.scalar_ty(b.left, scope, eq, _TY_NAT)
                self.scalar_ty(b.right, scope, eq, _TY_NAT)
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
        bound = {name: binder_type(ty) for name, ty in binders(term).items()}
        if not isinstance(term, Prefix):
            return {**scope, **bound} if bound else scope
        scope, bound = dict(scope), iter(bound.items())
        for f in term.construct.fields:
            if f.sel != BANG:  # the field of the next binder
                name, ty = next(bound)
                scope[name] = ty
            elif noting is not None and isinstance(f.payload, str):
                self.note_var(scope, noting, f.payload, _TY_T if f.bang_is_t else None)
        return scope

    def infer_term(self, term, scope, eq):
        if isinstance(term, Ident):
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
                elif a.__class__ is Atom and aty != pty:
                    # a datatype value passed at another type: the call errs
                    self.error(f"parameter {callee.params[i]!r} of {term.name!r} "
                               f"used both as {pty} and as {aty}", eq)
            return
        if isinstance(term, If) and not isinstance(term.guard, (Condition, MixedGuard)):
            self.infer_bool(term.guard, scope, eq)
        inner = self.scope_below(term, scope, eq)
        for sub in subterms(term):
            self.infer_term(sub, inner, eq)

    def infer_equations(self):
        for name, eq in self.defs.equations.items():
            scope = {p: self.param_ty[name][i] for i, p in enumerate(eq.params)}
            with _nesting(self.heads[name], self.defs.filename):
                self.infer_term(eq.body, scope, name)
            for i, p in enumerate(eq.params):
                if scope[p] is not None:
                    self.set_param(name, i, scope[p])

    def run_inference(self):
        # The first sweep types parameters by their own equation's body
        # alone, so that a call passing a value of another type is what is
        # reported, at the caller, whatever the order of the equations.
        self.calls_type_params = False
        self.infer_equations()
        self.calls_type_params = True
        for phase in (False, True):
            self.default_eq_to_t = phase
            for _ in range(len(self.defs.equations) + 2):
                self.changed = self.untyped_eq = False
                self.infer_equations()
                if not self.changed:
                    break
            if not (self.changed or self.untyped_eq):
                break  # no ==/!= between untyped sides: defaulting would repeat the sweep

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
        if isinstance(term, Ident):
            callee = self.defs.equations.get(term.name)
            if callee is None:
                return term
            args = []
            for i, a in enumerate(term.args):
                if (isinstance(a, NatLit)
                        and i < len(self.param_ty[term.name])
                        and self.param_ty[term.name][i] == _TY_T):
                    args.append(TVal(a.value))
                else:
                    args.append(a)
            return Ident(term.name, tuple(args))
        if isinstance(term, If):
            term = replace(term, guard=self.classify_guard(term.guard, scope, eq))
        inner = self.scope_below(term, scope)
        return map_subterms(term, lambda sub: self.rewrite(sub, inner, eq))

    def finish(self):
        self.run_inference()
        for name, eq in list(self.defs.equations.items()):
            scope = {p: self.param_ty[name][i] for i, p in enumerate(eq.params)}
            with _nesting(self.heads[name], self.defs.filename):
                body = self.rewrite(eq.body, scope, name)
            fv = free_vars(body) - set(eq.params)
            for v in sorted(fv):
                self.error(f"undefined variable {v!r} in the definition of {name!r}", name)
            self.defs.equations[name] = Equation(
                name, eq.params, body, tuple(self.param_ty[name]))
        for a, keyword in zip(self.defs.assertions, self.asserts):
            for side in (a.lhs, a.rhs):
                if side not in self.defs.equations:
                    self.diags.append(Diagnostic(
                        f"assertion references undefined process {side!r}",
                        keyword.line, keyword.col, self.defs.filename))
        if self.diags:
            # the inference rounds revisit every equation: report each finding once
            raise ParseError(list(dict.fromkeys(self.diags)))


# ---------------------------------------------------------------------------

def parse_definitions(text: str, filename: str = "<input>") -> Definitions:
    """Parse a definition file into a resolved Definitions value.

    Raises ParseError with positioned diagnostics on any lexical, syntactic
    or resolution failure.
    """
    toks = tokenize(text, filename)
    defs = Definitions(filename=filename)
    items = _scan_items(toks, filename)
    # pass 1: declarations; datatypes and constants first so that channel
    # signatures may reference types declared anywhere in the file
    order = {"datatype": 0, "const": 0, "channel": 1, "assert": 2}
    decls = sorted((item for item in items if _is_decl(item[0])),
                   key=lambda item: order[item[0].text])
    for item in decls:
        sub = _Parser(item, defs, filename)
        _parse_decl(sub, defs)
        rest = sub.peek()
        if rest.kind != "eof":
            raise ParseError([Diagnostic(
                f"unexpected {rest.text!r} after declaration",
                rest.line, rest.col, filename)])
    # pass 2: equation bodies
    uid_base = 0
    heads = {}
    for item in items:
        if _is_decl(item[0]):
            continue
        sub = _Parser(item, defs, filename)
        sub._uid = uid_base
        name_tok = sub.eat_ident("process name")
        params = []
        if sub.at_sym("("):
            sub.eat_sym("(")
            params = [t.text for t in sub.separated(lambda: sub.eat_ident("parameter"))]
            sub.eat_sym(")")
        sub.eat_sym("=")
        if name_tok.text in defs.equations:
            sub.fail(f"duplicate definition of {name_tok.text!r}", name_tok)
        if name_tok.text in defs.channels:
            sub.fail(f"{name_tok.text!r} is already a channel name", name_tok)
        with _nesting(name_tok, filename):
            body = sub.parse_proc()
            if _depth(body) > MAX_DEPTH:
                raise RecursionError("the body is deeper than MAX_DEPTH")
        tail = sub.peek()
        if tail.kind != "eof":
            sub.fail(f"unexpected {tail.text!r} after process definition", tail)
        uid_base = sub._uid
        defs.equations[name_tok.text] = Equation(name_tok.text, tuple(params), body)
        heads[name_tok.text] = name_tok
    _Resolver(defs, heads, [item[0] for item in decls if item[0].text == "assert"]).finish()
    return defs


def parse_file(path) -> Definitions:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_definitions(fh.read(), filename=str(path))
