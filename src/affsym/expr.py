"""Closed-form coordinate expressions: AST and parser.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

Parentheses, call arguments and unary minus signs nest at most
``MAX_NESTING`` deep; sums and products are loops, so their length is free.

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; numbers are unsigned decimals
with optional fraction and exponent, whose value must be a finite double
(``1e400`` is a parse error).  The exponent of ``^`` is a numeric
literal, so ``^`` binds tighter than unary minus and chaining is impossible.
Recognised functions: sin, cos, tan, exp, ln, sqrt.  Expressions are
evaluated, with their derivatives, by the one evaluator ``jets.eval_jets``,
which takes each distinct subtree of a list of expressions once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")

#: deepest nesting of parentheses, call arguments and unary signs that the
#: parser takes, far inside Python's recursion limit
MAX_NESTING = 100

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
        self.depth = 0
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

    def _nested(self, parse, off):
        """``parse()`` one nesting level deeper; the level opens at ``off``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", off)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def _number(self, text, off):
        """The value of the numeric literal ``text`` at ``off``, which must
        be a finite double."""
        value = float(text)
        if not math.isfinite(value):
            raise ParseError("numeric literal beyond the double range", off)
        return value

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
        kind, text, off = self._peek()
        if kind == "op" and text == "-":
            self._advance()
            return Neg(self._nested(self.factor, off))
        node = self.base()
        kind, text, off = self._peek()
        if kind == "op" and text == "^":
            self._advance()
            kind, text, off = self._peek()
            if kind != "num":
                raise ParseError(f"found {text!r}" if text else "unexpected end of input",
                                 off, expected="numeric exponent")
            self._advance()
            return Pow(node, self._number(text, off))
        return node

    def base(self):
        kind, text, off = self._advance()
        if kind == "num":
            return Num(self._number(text, off))
        if kind == "ident":
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                arg = self._nested(self.expr, self._advance()[2])
                self._expect_op(")")
                return Call(text, arg)
            if text not in self.coords:
                raise UnknownIdentifierError(text, off)
            return Var(text)
        if kind == "op" and text == "(":
            node = self._nested(self.expr, off)
            self._expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"unexpected {shown!r}", off,
                         expected="number, identifier or '('")


def is_identifier(name: str) -> bool:
    """Whether ``name`` is one identifier token, so that an expression can
    name it as a coordinate."""
    m = _TOKEN_RE.fullmatch(name)
    return m is not None and m.group("ident") == name


def parse_expr(source: str, coords) -> Expr:
    """Parse ``source`` against the coordinate list ``coords``.

    Raises ParseError (with byte offset and an expected-token hint) on bad
    syntax and UnknownIdentifierError for identifiers that are neither
    coordinates nor known functions.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0, expected="expression")
    return _Parser(source, coords).parse()
