"""Polynomial expression parser for the CLI.

Grammar (no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := RATIONAL | INT | NAME | '(' expr ')'

Rationals are literals of the form p/q (two integer tokens joined by '/');
'/' is not an operator anywhere else in the polynomial grammar.  Variable
names u1..uk are aliases for z1..zk.  Residue forms extend the grammar with a
single top-level division: numerator '/' parenthesized product of affine
factors, each optionally raised to a positive power.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from typing import NamedTuple

from .exactalg import JetresError, MultiPoly, VarContext, _power_cap, _size_cap
from .residue import DEFAULT_TERM_CAP

__all__ = ["ParseError", "UnknownVariableError", "parse_poly", "parse_residue_form"]


class ParseError(JetresError):
    """Syntax error, with position information in the message."""

    code = "syntax"


class UnknownVariableError(JetresError):
    """Identifier not present in the computation's variable context."""

    code = "unknown-variable"


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/]))")


class _Token(NamedTuple):
    kind: str  # "int" | "name" | one of + - * ^ ( ) / | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group().strip():
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at {pos}")
            break
        if m.group("int") is not None:
            out.append(_Token("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            out.append(_Token("name", m.group("name"), m.start("name")))
        else:
            out.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, ctx: VarContext, max_terms: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.aliases = {"u" + name[1:]: name for name in ctx.names
                        if name.startswith("z") and name[1:].isdigit()}
        self.max_terms = max_terms

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {found!r} at {tok.pos}")
        self.i += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> MultiPoly:
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            rhs = self.parse_factor()
            _size_cap(f"parse: a product of {len(value.num)} by {len(rhs.num)} terms",
                      len(value.num) * len(rhs.num), [(value, 1), (rhs, 1)], self.max_terms)
            value = value * rhs
        return value

    def parse_factor(self) -> MultiPoly:
        base = self.parse_atom()
        if self.peek().kind == "^":
            tok = self.take()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError(
                    f"exponent must be a non-negative integer literal at {tok.pos + 1}"
                )
            self.take()
            exp = int(exp_tok.text)
            _power_cap("parse", base, exp, self.max_terms)
            base = base**exp
        return base

    def parse_atom(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            num = int(tok.text)
            # rational literal p/q: only when an integer directly follows the
            # slash (otherwise the '/' belongs to a residue-form division)
            if self.peek().kind == "/" and self.tokens[self.i + 1].kind == "int":
                self.take()
                den_tok = self.take("int")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError(f"zero denominator at {den_tok.pos}")
                return MultiPoly.const(self.ctx, Q(num, den))
            return MultiPoly.const(self.ctx, num)
        if tok.kind == "name":
            self.take()
            name = self.aliases.get(tok.text, tok.text)
            if name not in self.ctx:
                raise UnknownVariableError(f"unknown variable {tok.text!r} at {tok.pos}")
            return MultiPoly.variable(self.ctx, name)
        if tok.kind == "(":
            self.take()
            value = self.parse_expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r} at {tok.pos}")

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} at {tok.pos}")


def parse_poly(text: str, ctx: VarContext, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """Parse a polynomial expression into the given variable context.

    A power or product whose expansion may hold more than max_terms terms,
    or terms times 64-bit coefficient words, raises ResourceLimitError before
    it is expanded."""
    parser = _Parser(text, ctx, max_terms)
    value = parser.parse_expr()
    parser.expect_end()
    return value


def parse_residue_form(
    text: str, ctx: VarContext, max_terms: int = DEFAULT_TERM_CAP
) -> tuple[MultiPoly, list[tuple[MultiPoly, int]]]:
    """Parse "numerator/(f1^m1*f2*...)" into numerator and factor list.

    The denominator, if present, must be a parenthesized product whose
    factors are themselves parenthesized expressions with optional positive
    integer powers.  Powers and products are capped as in parse_poly.
    """
    parser = _Parser(text, ctx, max_terms)
    numerator = parser.parse_expr()
    factors: list[tuple[MultiPoly, int]] = []
    if parser.peek().kind == "/":
        parser.take()
        parser.take("(")
        while True:
            parser.take("(")
            factor = parser.parse_expr()
            parser.take(")")
            mult = 1
            if parser.peek().kind == "^":
                parser.take()
                exp_tok = parser.take("int")
                mult = int(exp_tok.text)
                if mult < 1:
                    raise ParseError(f"factor power must be positive at {exp_tok.pos}")
            factors.append((factor, mult))
            if parser.peek().kind == "*":
                parser.take()
                continue
            break
        parser.take(")")
    parser.expect_end()
    return numerator, factors
