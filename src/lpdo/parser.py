"""Recursive-descent parser for the noncommutative operator grammar.

    expression ::= ['-'] term (('+' | '-') term)*
    term       ::= factor (('*' | '/') factor)*
    factor     ::= atom ['^' positive-integer]
    atom       ::= integer | 'x' | 'y' | 'i' | 'sqrt' '(' ['-'] integer ')'
                 | 'Dx' | 'Dy' | parameter | '(' expression ')'

'*' is the noncommutative operator product, normalized through compose, so
Dx*x parses to x*Dx + 1 while Dy*x is just x*Dy.  '/' divides by an
order-zero operand (a function).  Juxtaposition is not multiplication.
Parameters must be declared up front; unknown names are reported with
their position.  A parameter p is an unknown function of x and y when a
name p_<x...y...> (p_x, p_y, p_xy, ...) is declared too; those names are
then its derivatives.  The input-only aliases (unicode minus, and the
symbols for the two derivations written with the partial sign) are
tolerated.  Parentheses and unary minus signs together nest at most
MAX_NESTING deep, so deeply nested input is a ParseError, not a
RecursionError.  An exponent is at most MAX_EXPONENT, and no power or
product may have a degree above MAX_DEGREE or more than MAX_TERMS terms,
both checked before it is expanded.  The degree is read off the text: x, y,
a parameter, Dx and Dy count 1 and a number 0; a sum has the largest degree
of its terms, a product the sum of its factors' and a power e times its
base's.  The term count is estimated the same way: an atom has one term, a
sum the sum of its terms' counts, a product the product of its factors'
and a power e of t terms C(t+e-1, e), the number of monomials of degree e
in t symbols.
"""

from __future__ import annotations

import re
from math import comb

from .expr import RatExpr, Unknown
from .operator import LPDO


class ParseError(ValueError):
    """Syntax or symbol error, annotated with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[-+*/^()])
  | (?P<other>.)
    """,
    re.VERBOSE,
)

_ALIASES = {
    "−": "-",   # unicode minus
    "–": "-",
    "·": "*",   # middle dot
    "∂x": "Dx",
    "∂y": "Dy",
}


def _normalize_source(text: str) -> str:
    for src, dst in _ALIASES.items():
        text = text.replace(src, dst)
    return text


class _Token:
    __slots__ = ("kind", "text", "offset")  # offset into the text after _normalize_source

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            continue
        if kind == "other":
            raise ParseError(f"unexpected character {chunk!r}", *_position(text, m.start()))
        if kind == "op" and chunk == "**":
            chunk = "^"
        out.append(_Token(kind, chunk, m.start()))
    out.append(_Token("eof", "", len(text)))
    return out


MAX_NESTING = 100
MAX_EXPONENT = 100
MAX_DEGREE = 200
MAX_TERMS = 2000

_JET_TAIL = re.compile(r"(x*)(y*)")


def _symbols(params: set[str]) -> dict[str, RatExpr]:
    """The declared names as symbols: p_<x...y...> with p declared is a jet
    of the unknown function p, and every other name is a parameter."""
    jets = {}
    for name in params:
        stem, _, tail = name.rpartition("_")
        orders = _JET_TAIL.fullmatch(tail)
        if stem in params and tail and orders:
            jets[name] = Unknown(stem, len(orders[1]), len(orders[2]))
    bases = {jet.base for jet in jets.values()}
    symbols = {name: Unknown(name) if name in bases else name for name in params}
    symbols.update(jets)
    return {name: RatExpr.symbol(s) for name, s in symbols.items()}


class _Parser:
    def __init__(self, text: str, params: set[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.symbols = _symbols(params)
        self.depth = 0
        self.degree = 0  # of the text parsed last
        self.terms = 1  # its estimated term count

    @property
    def token(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.token
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.token
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}" if t.text
                      else f"expected {text!r}, found end of input")
        return self.advance()

    def fail(self, message: str, t: _Token | None = None):
        t = t or self.token
        raise ParseError(message, *_position(self.text, t.offset))

    def bounded(self, degree: int, terms: int, t: _Token):
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} above {MAX_DEGREE}", t)
        if terms > MAX_TERMS:
            self.fail(f"about {terms} terms, above {MAX_TERMS}", t)

    def nested(self, parse):
        """parse() one level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    # grammar

    def expression(self) -> LPDO:
        negate = False
        if self.token.text == "-":
            self.advance()
            negate = True
        elif self.token.text == "+":
            self.advance()
        value = self.term()
        degree, terms = self.degree, self.terms
        if negate:
            value = -value
        while self.token.text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            degree, terms = max(degree, self.degree), terms + self.terms
            value = value + rhs if op == "+" else value - rhs
        self.degree, self.terms = degree, terms
        return value

    def term(self) -> LPDO:
        value = self.factor()
        degree, terms = self.degree, self.terms
        while self.token.text in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            degree, terms = degree + self.degree, terms * self.terms
            self.bounded(degree, terms, op)
            if op.text == "*":
                value = value.compose(rhs)
            else:
                if rhs.order > 0:
                    self.fail("cannot divide by an operator of order > 0", op)
                f = rhs.coeff(0, 0)
                if f.is_zero():
                    self.fail("division by zero", op)
                value = value.compose(LPDO.function(f.inverse()))
        self.degree, self.terms = degree, terms
        return value

    def factor(self) -> LPDO:
        if self.token.text == "-":
            self.advance()
            return -self.nested(self.factor)
        value = self.atom()
        if self.token.text == "^":
            self.advance()
            t = self.token
            if t.kind != "int":
                self.fail("exponent must be a positive integer")
            e = int(self.advance().text)
            if e < 1:
                self.fail("exponent must be a positive integer", t)
            if e > MAX_EXPONENT:
                self.fail(f"exponent {e} above {MAX_EXPONENT}", t)
            self.degree *= e
            self.terms = comb(self.terms + e - 1, e)
            self.bounded(self.degree, self.terms, t)
            out = value
            for _ in range(e - 1):
                out = out.compose(value)
            value = out
        return value

    def atom(self) -> LPDO:
        t = self.token
        self.degree = 0 if t.kind == "int" or t.text in ("sqrt", "i") else 1
        self.terms = 1
        if t.kind == "int":
            self.advance()
            return LPDO.function(RatExpr.from_int(int(t.text)))
        if t.text == "(":
            self.advance()
            value = self.nested(self.expression)
            self.expect(")")
            return value
        if t.kind == "name":
            self.advance()
            name = t.text
            if name == "sqrt":
                self.expect("(")
                sign = 1
                if self.token.text == "-":
                    self.advance()
                    sign = -1
                num = self.token
                if num.kind != "int":
                    self.fail("sqrt takes an integer")
                self.advance()
                self.expect(")")
                return LPDO.function(RatExpr.sqrt_int(sign * int(num.text)))
            if name == "Dx":
                return LPDO.dx()
            if name == "Dy":
                return LPDO.dy()
            if name == "x":
                return LPDO.function(RatExpr.X)
            if name == "y":
                return LPDO.function(RatExpr.Y)
            if name == "i":
                return LPDO.function(RatExpr.sqrt_int(-1))
            if name in self.symbols:
                return LPDO.function(self.symbols[name])
            self.fail(f"unknown symbol {name!r} (declare parameters with --params)", t)
        self.fail(f"unexpected token {t.text!r}" if t.text else "unexpected end of input")


def parse(text: str, params: set[str] | frozenset[str] | None = None) -> LPDO:
    """Parse operator text into a normal-form LPDO."""
    parser = _Parser(_normalize_source(text), set(params or ()))
    value = parser.expression()
    if parser.token.kind != "eof":
        parser.fail(f"unexpected trailing input {parser.token.text!r}")
    return value


def parse_function(text: str, params: set[str] | None = None) -> RatExpr:
    """Parse an order-zero expression (a coefficient function)."""
    op = parse(text, params)
    if op.order > 0:
        raise ParseError("expected a function, found derivatives", 1, 1)
    return op.coeff(0, 0)
