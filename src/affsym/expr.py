"""Closed-form coordinate expressions: AST, parser and printer.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; numbers are unsigned decimals
with optional fraction and exponent.  The exponent of ``^`` is a numeric
literal, so ``^`` binds tighter than unary minus and chaining is impossible.
Recognised functions: sin, cos, tan, exp, ln, sqrt.  Expressions are
evaluated, with their derivatives, by ``jets.eval_jet``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message, offset, expected=None):
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{hint}")
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ExprError):
    def __init__(self, name, offset):
        super().__init__(f"at offset {offset}: unknown identifier '{name}'")
        self.name = name
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | Bin | Pow | Call


class _Parser:
    def __init__(self, source, coords):
        self.source = source
        self.coords = set(coords)
        self.tokens = []
        self.pos = 0
        self._tokenize()

    def _tokenize(self):
        i, n = 0, len(self.source)
        while i < n:
            m = _TOKEN_RE.match(self.source, i)
            if m is None or m.end() == m.start():
                # skip over whitespace-only tail
                if self.source[i:].strip() == "":
                    break
                bad = self.source[i:].lstrip()
                off = n - len(bad)
                raise ParseError(f"unexpected character {bad[0]!r}", off)
            kind = m.lastgroup
            text = m.group(kind)
            self.tokens.append((kind, text, m.end() - len(text)))
            i = m.end()
        self.tokens.append(("eof", "", n))

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_op(self, op):
        kind, text, off = self._peek()
        if kind != "op" or text != op:
            raise ParseError(f"found {text!r}" if text else "unexpected end of input",
                             off, expected=repr(op))
        return self._advance()

    def parse(self):
        node = self.expr()
        kind, text, off = self._peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", off,
                             expected="end of expression")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._advance()
            return Neg(self.factor())
        node = self.base()
        kind, text, off = self._peek()
        if kind == "op" and text == "^":
            self._advance()
            kind, text, off = self._peek()
            if kind != "num":
                raise ParseError(f"found {text!r}" if text else "unexpected end of input",
                                 off, expected="numeric exponent")
            self._advance()
            return Pow(node, float(text))
        return node

    def base(self):
        kind, text, off = self._advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                self._advance()
                arg = self.expr()
                self._expect_op(")")
                return Call(text, arg)
            if text not in self.coords:
                raise UnknownIdentifierError(text, off)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"unexpected {shown!r}", off,
                         expected="number, identifier or '('")


def parse_expr(source: str, coords) -> Expr:
    """Parse ``source`` against the coordinate list ``coords``.

    Raises ParseError (with byte offset and an expected-token hint) on bad
    syntax and UnknownIdentifierError for identifiers that are neither
    coordinates nor known functions.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0, expected="expression")
    return _Parser(source, coords).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e):
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expr) -> str:
    """Render an AST back to source; parse(to_source(e)) reproduces e."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        inner = to_source(e.base)
        # '^' cannot chain (the exponent is a literal), so a Pow base needs parens
        if _prec(e.base) <= _PREC["pow"]:
            inner = f"({inner})"
        return f"{inner}^{_fmt_num(e.exponent)}"
    if isinstance(e, Bin):
        lhs, rhs = to_source(e.lhs), to_source(e.rhs)
        if _prec(e.lhs) < _PREC[e.op]:
            lhs = f"({lhs})"
        # left-associative: parenthesise right child at equal precedence
        if _prec(e.rhs) <= _PREC[e.op]:
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")
