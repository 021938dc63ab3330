"""Text front end for ``.pcsp`` definition files.

The token stream is split into items, each running from a declaration
keyword or an equation head to the next one, and each item is parsed by the
one grammar for its kind.  Declarations (``channel``, ``datatype``,
``const``, ``assert``) are parsed in a first pass so that equation bodies
can be parsed against channel signatures regardless of declaration order.
Process operators are read from the operator table in ``syntax``, the one
owner of their symbols, binding levels and layout, by precedence climbing:
one loop per operand takes the operators that follow it, and an operator's
form says which tokens and fields follow its symbol.  Guards, prefixes,
if/then/else and calls are parsed one by one; a guard ``b & P`` and a
comparison are told from a process and from a parenthesised boolean by
lookahead, so no part of a file, well-formed or not, is read twice, and a
malformed file is reported where that one reading fails.  ``resolve`` then
types the parameters and classifies the guards.  Each step does a fixed
amount of work per token and per term node.
"""

from __future__ import annotations

import re

from .errors import Diagnostic, ParseError
from .resolve import Resolver, nests_too_deeply
from .syntax import (
    ATOM, Atom, BANG, BoolLit, BoolNot, Construct, Definitions, DiffType,
    Equation, EventItem, EventSet, Field, GUARD, HIDE, Ident, If, NamedType,
    NatLit, OPEN, OPERATORS, Op, Operator, Prefix, SetType, Stop, T_TYPE, TType,
    TVal, Assertion, VarRef,
    substitute, t_field_atoms, type_is_t,
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

# A token is a (kind, text, line, col) tuple, kind one of 'ident', 'num',
# 'sym' and 'eof'.  Only an identifier has a letter or _ for its text's
# first character, only a number a digit, only a symbol anything else and
# only eof no text, so the parser tells most kinds from the text alone.
KIND, TEXT, LINE, COL = range(4)

# The next token of a line and the blanks before it: a comment runs to the
# end of the line, and trailing blanks match with no token.  A name starts
# with a letter or _ and goes on over letters, digits and _ (str.isalnum,
# which is what \w matches); a number is ASCII digits only, which int()
# takes; a symbol is the first of _SYMBOLS that matches.
_TOKEN = re.compile(r"([ \t\r]*)(?:(--.*)|([0-9]+)|(\w+)|("
                    + "|".join(map(re.escape, _SYMBOLS)) + r")|(.)|$)")


def tokenize(text: str, filename: str) -> list[tuple]:
    """The tokens of text, line by line, ending in an eof token that stands
    just past the last character (or where a comment on the last line
    starts, since a comment takes no columns)."""
    toks = []
    append = toks.append
    for line, chars in enumerate(text.split("\n"), 1):
        col = 1
        for blank, comment, num, ident, sym, bad in _TOKEN.findall(chars):
            col += len(blank)
            if sym:
                append(("sym", sym, line, col))
                col += len(sym)
            elif ident:
                # an ASCII \w that starts no number is a letter or _, but
                # \w also matches digits int() rejects, such as ¹, which
                # start no name
                if ident[0] > "\x7f" and not ident[0].isalpha():
                    bad = ident[0]
                    break
                append(("ident", ident, line, col))
                col += len(ident)
            elif num:
                append(("num", num, line, col))
                col += len(num)
            elif comment or bad:
                break
        if bad:
            raise ParseError([Diagnostic(f"unexpected character {bad!r}", line, col, filename)])
    append(("eof", "", line, col))
    return toks


# What may follow a parenthesised group, or a name, that starts the scalar
# of a comparison; what may follow a group that starts a guard's boolean;
# and the tokens that start a guard's boolean and no process.
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_AFTER_SCALAR = frozenset(("+", "-", *_CMP_OPS))
_AFTER_BOOL = _AFTER_SCALAR | {"and", "or", "&"}
_BOOL_ONLY = frozenset(("not", "true", "false", "min"))


class _Parser:
    """The parser of one item: tokens are the item's, ending in a sentinel,
    and the file's from base on.  atoms holds the datatype values by name,
    and closes the position in the file of the ')' that closes each '('."""

    def __init__(self, tokens: list[tuple], defs: Definitions, filename: str,
                 atoms: dict[str, Atom], closes: dict[int, int], base: int = 0):
        self.toks = tokens
        self.pos = 0
        self.defs = defs
        self.filename = filename
        self.atoms = atoms
        self.closes = closes
        self.base = base
        self._uid = 0
        self.nesting = 0    # the processes being read, one inside the next
        self.calls = set()  # the process names called
        self.scalars = {}   # number or name -> the scalar it reads as

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[KIND] != "eof":
            self.pos += 1
        return t

    def at_sym(self, *texts: str) -> bool:
        return self.toks[self.pos][TEXT] in texts

    at_kw = at_sym  # a keyword's text is no symbol's

    def eat_sym(self, text: str) -> tuple:
        t = self.toks[self.pos]
        if t[TEXT] != text:
            self.fail(f"expected {text!r}, found {t[TEXT] or 'end of input'!r}", t)
        self.pos += 1
        return t

    def eat_ident(self, what: str = "identifier") -> tuple:
        t = self.toks[self.pos]
        if t[KIND] != "ident" or t[TEXT] in KEYWORDS:
            self.fail(f"expected {what}, found {t[TEXT] or 'end of input'!r}", t)
        self.pos += 1
        return t

    def separated(self, item, sep: str = ","):
        """The list of what item reads, once and then again after each sep."""
        items = [item()]
        while self.toks[self.pos][TEXT] == sep:
            self.pos += 1
            items.append(item())
        return items

    def fail(self, message: str, tok: tuple | None = None):
        t = tok or self.peek()
        raise ParseError([Diagnostic(message, t[LINE], t[COL], self.filename)])

    def fresh_uid(self) -> int:
        self._uid += 1
        return self._uid

    def after_group(self) -> str | None:
        """The text of the token after the group that the '(' here opens,
        or None if nothing closes it."""
        k = self.closes.get(self.base + self.pos, -1) - self.base + 1
        return self.toks[k][TEXT] if 0 < k < len(self.toks) else None

    # -- datums and types ----------------------------------------------------

    def parse_datum(self, expected_ty, tok: tuple):
        """A value or variable occupying a field of the given signature type."""
        kind, text = tok[KIND], tok[TEXT]
        if kind == "num":
            if isinstance(expected_ty, TType):
                return TVal(int(text))
            self.fail(f"numeric literal {text} in a non-t field", tok)
        if kind != "ident":
            self.fail(f"expected a value or variable, found {text!r}", tok)
        atom = self.atoms.get(text)
        if atom is not None:
            if isinstance(expected_ty, NamedType) and atom.type_name != expected_ty.name:
                self.fail(f"value {text!r} is of type {atom.type_name}, "
                          f"not {expected_ty.name}", tok)
            if isinstance(expected_ty, TType):
                self.fail(f"value {text!r} of type {atom.type_name} in a t field", tok)
            return atom
        return text  # a variable

    def parse_type_expr(self, sig_ty=None):
        """A field annotation: t, a datatype name, {items} or (t\\{items})."""
        if self.at_sym("("):
            self.pos += 1
            ty = self.parse_type_expr(sig_ty)
            self.eat_sym(")")
            return ty
        if self.at_sym("{"):
            open_tok = self.next()
            item_ty = sig_ty if sig_ty is not None else T_TYPE
            items = [] if self.at_sym("}") else self.separated(
                lambda: self.parse_datum(item_ty, self.next()))
            self.eat_sym("}")
            if not items:
                self.fail("empty set annotation", open_tok)
            is_t = sig_ty is None or isinstance(sig_ty, TType)
            return SetType(tuple(items), is_t)
        tok = self.eat_ident("type")
        if tok[TEXT] == "t":
            if self.at_sym("\\"):
                self.pos += 1
                self.eat_sym("{")
                items = self.separated(lambda: self.parse_datum(T_TYPE, self.next()))
                self.eat_sym("}")
                return DiffType(tuple(items))
            return T_TYPE
        if tok[TEXT] in self.defs.datatypes:
            return NamedType(tok[TEXT], self.defs.datatypes[tok[TEXT]])
        self.fail(f"unknown type {tok[TEXT]!r}", tok)

    # -- constructs ----------------------------------------------------------

    def parse_construct(self, chan_tok: tuple) -> Construct:
        name = chan_tok[TEXT]
        sig = self.defs.channels[name]
        fields = []
        while self.at_sym("$", "?", "!", "."):
            pos = len(fields)
            if pos >= len(sig):
                self.fail(f"channel {name!r} takes {len(sig)} field(s)", self.peek())
            sig_ty = sig[pos]
            sel_tok = self.next()
            if sel_tok[TEXT] in ("$", "?"):
                var = self.eat_ident("input variable")
                if any(f.sel != BANG and f.payload == var[TEXT] for f in fields):
                    # a name holds one value, so one of the two selections
                    # would be lost
                    self.fail(f"input variable {var[TEXT]!r} is bound twice in one "
                              f"construct on channel {name!r}", var)
                if self.at_sym(":"):
                    self.pos += 1
                    ty = self.parse_type_expr(sig_ty)
                else:
                    ty = sig_ty
                if type_is_t(ty) != type_is_t(sig_ty):
                    self.fail(f"annotation {ty} does not match field type {sig_ty} "
                              f"of channel {name!r}", sel_tok)
                fields.append(Field(sel_tok[TEXT], var[TEXT], ty))
            else:
                d = self.parse_datum(sig_ty, self.next())
                fields.append(Field(BANG, d, None, bang_is_t=isinstance(sig_ty, TType)))
        if len(fields) != len(sig):
            self.fail(f"channel {name!r} takes {len(sig)} field(s), "
                      f"got {len(fields)}", chan_tok)
        return Construct(name, tuple(fields), uid=self.fresh_uid())

    # -- scalar and boolean expressions ---------------------------------------

    def parse_scalar(self):
        left = self.parse_scalar_term()
        while self.at_sym("+", "-"):
            left = Op(self.next()[TEXT], left, self.parse_scalar_term())
        return left

    def parse_scalar_term(self):
        tok = self.peek()
        kind, text = tok[KIND], tok[TEXT]
        scalar = self.scalars.get(text)
        if scalar is not None:  # read before in this item: terms share it
            self.pos += 1
            return scalar
        if kind == "num":
            self.pos += 1
            scalar = self.scalars[text] = NatLit(int(text))
            return scalar
        if text == "min":
            self.pos += 1
            self.eat_sym("(")
            a = self.parse_scalar()
            self.eat_sym(",")
            b = self.parse_scalar()
            self.eat_sym(")")
            return Op("min", a, b)
        if text == "(":
            self.pos += 1
            e = self.parse_scalar()
            self.eat_sym(")")
            return e
        if kind == "ident" and text not in KEYWORDS:
            self.pos += 1
            scalar = self.atoms.get(text)
            if scalar is None:
                consts = self.defs.consts
                scalar = NatLit(consts[text]) if text in consts else VarRef(text)
            self.scalars[text] = scalar
            return scalar
        self.fail(f"expected a value, variable or number, found {text!r}", tok)

    def parse_bool(self):
        left = self.parse_bool_and()
        while self.at_kw("or"):
            self.pos += 1
            left = Op("or", left, self.parse_bool_and())
        return left

    def parse_bool_and(self):
        left = self.parse_bool_atom()
        while self.at_kw("and"):
            self.pos += 1
            left = Op("and", left, self.parse_bool_atom())
        return left

    def parse_bool_atom(self):
        """not, true, false, a comparison or a parenthesised boolean: a
        group that a scalar operator or a comparison follows is the
        comparison's scalar, any other group a boolean."""
        text = self.toks[self.pos][TEXT]
        if text == "not":
            self.pos += 1
            return BoolNot(self.parse_bool_atom())
        if text == "true" or text == "false":
            self.pos += 1
            return BoolLit(text == "true")
        if text == "(" and self.after_group() not in _AFTER_SCALAR:
            self.pos += 1
            b = self.parse_bool()
            self.eat_sym(")")
            return b
        left = self.parse_scalar()
        if not self.at_sym(*_CMP_OPS):
            self.fail("expected comparison operator")
        return Op(self.next()[TEXT], left, self.parse_scalar())

    # -- event sets ------------------------------------------------------------

    def parse_event_fields(self, chan_tok: tuple, complete: bool):
        name = chan_tok[TEXT]
        if name not in self.defs.channels:
            self.fail(f"undeclared channel {name!r}", chan_tok)
        sig = self.defs.channels[name]
        datums = []
        while self.at_sym("."):
            if len(datums) >= len(sig):
                self.fail(f"channel {name!r} takes {len(sig)} field(s)", self.peek())
            self.pos += 1
            datums.append(self.parse_datum(sig[len(datums)], self.next()))
        if complete and len(datums) != len(sig):
            self.fail(f"event on channel {name!r} needs {len(sig)} field(s), "
                      f"got {len(datums)}", chan_tok)
        return name, tuple(datums)

    def parse_evset(self) -> EventSet:
        if self.at_sym("{|"):
            self.pos += 1
            closures = self.separated(lambda: EventItem(*self.parse_event_fields(
                self.eat_ident("channel name"), complete=False)))
            self.eat_sym("|}")
            return EventSet(closures=tuple(closures))
        self.eat_sym("{")
        literals = [] if self.at_sym("}") else self.separated(
            lambda: EventItem(*self.parse_event_fields(
                self.eat_ident("channel name"), complete=True)))
        self.eat_sym("}")
        return EventSet(literals=tuple(literals))

    # -- processes ---------------------------------------------------------
    #
    # Each process parser returns (term, depth): the nesting depth of the
    # term, a term without subterms having depth 1, as the MAX_DEPTH bound
    # measures it.

    def parse_proc(self, level: int = HIDE):
        """A process whose operators outside parentheses bind at level or
        more tightly, by precedence climbing.  A process nests in the one
        that reads it (in parentheses, as an operand to the right of an
        operator, as a branch or as a replicated body); more than MAX_DEPTH
        nested are refused before the stack runs out."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise RecursionError("processes nested deeper than MAX_DEPTH")
        p, depth = self.parse_operators(*self.parse_operand(), level, GUARD - 1)
        self.nesting -= 1
        return p, depth

    def parse_operators(self, p, depth: int, level: int, top: int):
        """p followed by any number of the table's operators, each taking
        what has been read as its first operand, at levels from top down to
        level: after an operator only those binding as loosely or more
        loosely may follow, so the operators of one level associate to the
        left and a tighter one after a looser one ends the process."""
        while True:
            op = _INFIX.get(self.toks[self.pos][TEXT])
            if op is None or not level <= op.level <= top:
                return p, depth
            top = op.level
            (_, first), *rest = op.layout
            p, depth = self.parse_form(op, rest, {first: p}, depth)

    def parse_form(self, op: Operator, layout, values: dict, depth: int = 0):
        """The term of op whose fields are values and, read from the input,
        the rest of its form: its symbols, then subterms at the levels the
        table gives them (a body at OPEN extends over the whole process),
        and data by kind.  depth is that of the subterms in values."""
        for symbols, name in layout:
            for sym in symbols:
                self.eat_sym(sym)
            if name in op.operands:
                values[name], sub = self.parse_proc(max(op.operands[name], HIDE))
                depth = max(depth, sub)
            elif name == "var":
                values[name] = self.eat_ident("index variable")[TEXT]
            elif name == "domain":
                values[name] = self.parse_type_expr()
            elif name == "pairs":
                values[name] = self.parse_pairs()
            elif name is not None:
                values[name] = self.parse_evset()
        return op.cls(**values), depth + 1

    def at_guard(self) -> bool:
        """Whether a guard's boolean may start here: a token that starts a
        boolean and no process, a name that a scalar operator or comparison
        follows, or a group that one of those or a boolean operator or &
        follows.  Anywhere else a boolean followed by & cannot be read."""
        kind, text = self.toks[self.pos][:2]
        if text == "(":
            return self.after_group() in _AFTER_BOOL
        if kind == "num" or text in _BOOL_ONLY:
            return True
        return (kind == "ident" and text not in KEYWORDS
                and self.toks[self.pos + 1][TEXT] in _AFTER_SCALAR)

    def parse_operand(self):
        """Guards b & …, then prefixes c… ->, then an atom.  at_guard tells
        a guard's boolean from a process, so each is read once, and a
        malformed operand is reported where that reading fails."""
        guards, alphas = [], []
        while self.at_guard():
            guards.append(self.parse_bool())
            self.eat_sym("&")
        channels = self.defs.channels
        while self.toks[self.pos][TEXT] in channels:
            alphas.append(self.parse_construct(self.next()))
            self.eat_sym("->")
        p, depth = self.parse_atom()
        for alpha in reversed(alphas):
            p = Prefix(alpha, p)
        for b in reversed(guards):
            p = If(b, p, Stop())
        return p, depth + len(alphas) + len(guards)

    def parse_rename_target(self):
        tok = self.eat_ident("channel name")
        if tok[TEXT] not in self.defs.channels:
            self.fail(f"undeclared channel {tok[TEXT]!r}", tok)
        if self.at_sym("."):
            return EventItem(*self.parse_event_fields(tok, complete=True))
        return tok[TEXT]

    def parse_pairs(self):
        def pair():
            a = self.parse_rename_target()
            self.eat_sym("<-")
            return a, self.parse_rename_target()
        return tuple(self.separated(pair))

    def parse_atom(self):
        """STOP, if/then/else, a replicated operator, a parenthesised
        process or a call; all but if and the replicated operators take the
        postfix operators of ATOM."""
        tok = self.peek()
        text = tok[TEXT]
        if text == "STOP":
            self.pos += 1
            return self.parse_operators(Stop(), 1, ATOM, ATOM)
        if text == "if":
            self.pos += 1
            b = self.parse_bool()
            if not self.at_kw("then"):
                self.fail("expected 'then'")
            self.pos += 1
            then, then_depth = self.parse_proc()
            if not self.at_kw("else"):
                self.fail("expected 'else'")
            self.pos += 1
            els, els_depth = self.parse_proc()
            return If(b, then, els), max(then_depth, els_depth) + 1
        if text in _REPLICATED:
            return self.parse_replicated(_REPLICATED[text])
        if text == "(":
            self.pos += 1
            p, depth = self.parse_proc()
            self.eat_sym(")")
            return self.parse_operators(p, depth, ATOM, ATOM)
        if tok[KIND] == "ident" and text not in KEYWORDS:
            # parse_operand has read every channel name
            self.pos += 1
            if self.at_sym("$", "?", "!", "."):
                self.fail(f"undeclared channel {text!r}", tok)
            args = ()
            if self.at_sym("("):
                self.pos += 1
                args = tuple(self.separated(self.parse_scalar))
                self.eat_sym(")")
            self.calls.add(text)
            return self.parse_operators(Ident(text, args), 1, ATOM, ATOM)
        self.fail(f"expected a process, found {text or 'end of input'!r}", tok)

    def parse_replicated(self, op: Operator):
        start = self.pos
        term, depth = self.parse_form(op, op.layout, {})
        # the index variable, and the domain after it and ':'
        var_tok, dom_tok = self.toks[start + 1], self.toks[start + 3]
        if type_is_t(term.domain):
            return term, depth
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
        # a left-nested chain over copies of the body, one level each
        return out, depth - 2 + len(branches)


# The operator table's binary and postfix operators by symbol, and its
# replicated operators by symbol.
_INFIX = {op.symbol: op for op in OPERATORS.values() if op.level > OPEN}
_REPLICATED = {op.symbol: op for op in OPERATORS.values() if op.level == OPEN}


# ---------------------------------------------------------------------------
# Item scanning (two-pass): declarations first, equation bodies second.

_DECL_KWS = ("channel", "datatype", "const", "assert")
_SCANNED = frozenset(("(", ")", "=", *_DECL_KWS))


def _scan(toks: list[tuple]) -> tuple[set[int], set[int], dict[int, int]]:
    """One pass over the tokens, matching parentheses with a stack: the
    positions of the equation heads (each name that an ``=`` follows,
    directly or after one parenthesised group) and of the declaration
    keywords, and the position of the ')' that closes each '('."""
    heads, decls = set(), set()
    opens = []     # the positions of the '(' not yet closed
    closes = {}    # '(' -> the ')' that closes it
    opening = {}   # ')' -> the '(' it closes
    for k, (_, text, _, _) in enumerate(toks):
        if text not in _SCANNED:
            continue
        if text == "(":
            opens.append(k)
        elif text == ")":
            if opens:
                opening[k] = opens.pop()
                closes[opening[k]] = k
        elif text in _DECL_KWS:
            decls.add(k)
        else:
            # the token before the group that '=' follows, or before '='
            j = opening.get(k - 1, k) - 1
            if j >= 0 and toks[j][KIND] == "ident" and toks[j][TEXT] not in KEYWORDS:
                heads.add(j)
    return heads, decls, closes


def _is_decl(t: tuple) -> bool:
    return t[TEXT] in _DECL_KWS


def _scan_items(toks: list[tuple], heads: set[int], decls: set[int],
                filename: str) -> list[tuple[int, list[tuple]]]:
    """Split the token stream into declaration and equation items, each
    with its position in the stream.  Each item runs from a declaration
    keyword or an equation head up to the next one; the scan of a datatype
    or const starts after its ``Name =``, which has the shape of an
    equation head.  The item's own parser checks the rest.  Each item ends
    in a sentinel just past its last token, so that an error at the end of
    the item points into it."""
    starts = sorted(decls.union(k for k in heads  # a datatype's or const's Name = is none
                                if toks[k - 1][TEXT] not in ("datatype", "const")))
    t = toks[0]
    if t[KIND] != "eof" and starts[:1] != [0]:
        raise ParseError([Diagnostic(
            f"expected a declaration or equation, found {t[TEXT]!r}",
            t[LINE], t[COL], filename)])
    items = []
    for i, j in zip(starts, starts[1:] + [len(toks) - 1]):
        _, text, line, col = toks[j - 1]
        items.append((i, toks[i:j] + [("eof", "", line, col + len(text))]))
    return items


def _parse_decl(p: _Parser, defs: Definitions):
    tok = p.next()
    if tok[TEXT] == "channel":
        names = p.separated(lambda: p.eat_ident("channel name"))
        sig: tuple = ()
        if p.at_sym(":"):
            p.pos += 1
            tys = p.separated(p.parse_type_expr, ".")
            for ty in tys:
                if not isinstance(ty, (TType, NamedType)):
                    p.fail(f"channel field type must be t or a declared type, got {ty}", tok)
            sig = tuple(tys)
        for nt in names:
            if nt[TEXT] in defs.channels:
                p.fail(f"duplicate channel {nt[TEXT]!r}", nt)
            defs.channels[nt[TEXT]] = sig
    elif tok[TEXT] == "datatype":
        name_tok = p.eat_ident("type name")
        name = name_tok[TEXT]
        if name in defs.datatypes or name == "t":
            p.fail(f"duplicate type {name!r}", name_tok)
        p.eat_sym("=")
        members = p.separated(lambda: p.eat_ident("value name"), "|")
        seen = set()
        atoms = []
        for i, m in enumerate(members):
            if m[TEXT] in seen or m[TEXT] in p.atoms:
                p.fail(f"duplicate value {m[TEXT]!r}", m)
            seen.add(m[TEXT])
            atoms.append(Atom(name, m[TEXT], i))
        defs.datatypes[name] = tuple(atoms)
        p.atoms.update((a.name, a) for a in atoms)
    elif tok[TEXT] == "const":
        name = p.eat_ident("constant name")[TEXT]
        p.eat_sym("=")
        num = p.peek()
        if num[KIND] != "num":
            p.fail("expected a number", num)
        p.pos += 1
        defs.consts[name] = int(num[TEXT])
    else:  # assert
        lhs = p.eat_ident("process name")[TEXT]
        if not p.at_sym("[T=", "[F="):
            p.fail("expected '[T=' or '[F='")
        model = "traces" if p.next()[TEXT] == "[T=" else "failures"
        rhs = p.eat_ident("process name")[TEXT]
        defs.assertions.append(Assertion(lhs, model, rhs))


# The deepest equation body accepted, a term without subterms having depth
# 1, and the most processes the parser reads one inside the next.  The
# passes over terms recurse, so the bound keeps them within the recursion
# limit that ``syntax`` sets, on every Python version.
MAX_DEPTH = 4_998


# ---------------------------------------------------------------------------

def parse_definitions(text: str, filename: str = "<input>") -> Definitions:
    """Parse a definition file into a resolved Definitions value.

    Raises ParseError with positioned diagnostics on any lexical, syntactic
    or resolution failure.
    """
    toks = tokenize(text, filename)
    defs = Definitions(filename=filename)
    head_pos, decl_pos, closes = _scan(toks)
    items = _scan_items(toks, head_pos, decl_pos, filename)
    atoms: dict[str, Atom] = {}
    # pass 1: declarations; datatypes and constants first so that channel
    # signatures may reference types declared anywhere in the file
    order = {"datatype": 0, "const": 0, "channel": 1, "assert": 2}
    decls = sorted((item for _, item in items if _is_decl(item[0])),
                   key=lambda item: order[item[0][TEXT]])
    for item in decls:
        sub = _Parser(item, defs, filename, atoms, closes)
        _parse_decl(sub, defs)
        rest = sub.peek()
        if rest[KIND] != "eof":
            raise ParseError([Diagnostic(
                f"unexpected {rest[TEXT]!r} after declaration",
                rest[LINE], rest[COL], filename)])
    # pass 2: equation bodies
    uid_base = 0
    heads, calls = {}, {}
    for base, item in items:
        if _is_decl(item[0]):
            continue
        sub = _Parser(item, defs, filename, atoms, closes, base)
        sub._uid = uid_base
        name_tok = sub.eat_ident("process name")
        name = name_tok[TEXT]
        params = []
        if sub.at_sym("("):
            sub.pos += 1
            params = [t[TEXT] for t in sub.separated(lambda: sub.eat_ident("parameter"))]
            sub.eat_sym(")")
        sub.eat_sym("=")
        if name in defs.equations:
            sub.fail(f"duplicate definition of {name!r}", name_tok)
        if name in defs.channels:
            sub.fail(f"{name!r} is already a channel name", name_tok)
        try:
            body, depth = sub.parse_proc()
            if depth > MAX_DEPTH:
                raise RecursionError("the body is deeper than MAX_DEPTH")
        except RecursionError:
            raise nests_too_deeply(name, name_tok[LINE:], filename) from None
        tail = sub.peek()
        if tail[KIND] != "eof":
            sub.fail(f"unexpected {tail[TEXT]!r} after process definition", tail)
        uid_base = sub._uid
        defs.equations[name] = Equation(name, tuple(params), body)
        heads[name] = name_tok[LINE:]
        calls[name] = sub.calls
    Resolver(defs, heads, [item[0][LINE:] for item in decls if item[0][TEXT] == "assert"],
             calls).finish()
    return defs


def parse_file(path) -> Definitions:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_definitions(fh.read(), filename=str(path))
