"""Recursive-descent parser for the ASCII expression grammar.

Grammar:
    expr    := ['+'] term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-'* power
    power   := atom ['^' exponent]
    atom    := INTEGER | IDENT | IDENT '(' args ')' | '(' expr ')'
    exponent:= INTEGER | '(' ['-'] INTEGER ')'

Identifiers are [A-Za-z_][A-Za-z0-9_]*.  ``D(ei, f)`` denotes the formal
derivative of the function symbol f along frame direction ei in {e1,e2,e3},
the symbol the table minted with f; D of a constant is the zero expression.
A small whitelist of numeric functions (cot, tanh, ...) is admitted for the
model-catalog layer; each application becomes an opaque constant atom.
Printing an Expr emits canonical text that reparses to the identical Expr.

Each '(' the parser descends into, of a group or of a function's argument,
takes a few stack frames, so text nesting parentheses more than MAX_NESTING
deep is a syntax error, not a RecursionError.  A run of unary minus signs
takes none.  A power of k terms to the n whose C(n + k - 1, k - 1) terms
could exceed MAX_POWER_TERMS, in a numerator or denominator, is one too, and
so is a power whose coefficients could exceed MAX_POWER_BITS bits.
"""

from __future__ import annotations

import math
import re

from .rational import NUMERIC_FUNCTIONS, Expr
from .symbols import CONSTANT, DIRECTIONS, SymbolTable


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class UnknownIdentifierError(ExprSyntaxError):
    pass


# Parentheses a text may nest, groups and function arguments together.
MAX_NESTING = 100
# Terms the expansion of one power may reach, in its numerator or denominator.
MAX_POWER_TERMS = 2000
# Bits the numerators and denominators of one power's coefficients may reach,
# as bounded by _power_bits.
MAX_POWER_BITS = 10_000


# Every character of the text starts exactly one match: a token, a run of
# whitespace or a single character no token can start ("bad").
_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token in one pass, then ("end", "", len(text)).
    A character no token can start is an error at its own position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _power_bits(poly, n: int) -> int:
    """b such that 2**b bounds the numerators and denominators of the
    coefficients of poly ** n.  With k terms of coefficients p_i / q_i and Q
    the least common multiple of the q_i, each is at most
    (k * max |p_i| * Q) ** n, so b is n times the sum of ceil(log2) of the
    three factors, (x - 1).bit_length() for x >= 1: a coefficient of +-1
    adds nothing to it."""
    coeffs = [c for _, c in poly.terms]
    top = max(abs(c.numerator) for c in coeffs)
    den = math.lcm(*[c.denominator for c in coeffs])
    return n * ((len(coeffs) - 1).bit_length() + (top - 1).bit_length() + (den - 1).bit_length())


class _Parser:
    def __init__(self, text: str, table: SymbolTable, define_missing: bool):
        self.text = text
        self.table = table
        self.define_missing = define_missing
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "+":
            self.next()
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    e = e * rhs
                else:
                    if rhs.is_zero:
                        raise ExprSyntaxError("division by zero expression", pos)
                    e = e / rhs
            else:
                return e

    def factor(self) -> Expr:
        negate = False
        kind, val, _ = self.peek()
        while kind == "op" and val == "-":
            self.next()
            negate = not negate
            kind, val, _ = self.peek()
        e = self.power()
        return -e if negate else e

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            n = self.exponent()
            for poly in (base.num, base.den):
                k = len(poly.terms)
                if k > 1 and math.comb(abs(n) + k - 1, k - 1) > MAX_POWER_TERMS:
                    raise ExprSyntaxError(f"the power of a {k}-term polynomial to {abs(n)} "
                                          f"could expand to more than {MAX_POWER_TERMS} terms", pos)
                if k and _power_bits(poly, abs(n)) > MAX_POWER_BITS:
                    raise ExprSyntaxError(f"the power of a {k}-term polynomial to {abs(n)} could "
                                          f"have coefficients of more than {MAX_POWER_BITS} bits",
                                          pos)
            return base ** n
        return base

    def exponent(self) -> int:
        kind, val, pos = self.next()
        if kind == "num":
            return int(val)
        if kind == "op" and val == "(":
            sign = 1
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.next()
            if kind != "num":
                raise ExprSyntaxError("expected integer exponent", pos)
            self.expect_op(")")
            return sign * int(val)
        raise ExprSyntaxError("expected integer exponent", pos)

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Expr.const(int(val))
        if kind == "op" and val == "(":
            return self.group(pos)
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, pos)
            return self.resolve(val, pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)

    def group(self, pos: int) -> Expr:
        """The expr after the '(' at pos, up to its ')'."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"more than {MAX_NESTING} nested parentheses", pos)
        self.depth += 1
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return e

    def call(self, name: str, pos: int) -> Expr:
        paren = self.peek()[2]
        self.expect_op("(")
        if name == "D":
            dkind, dval, dpos = self.next()
            if dkind != "ident" or dval not in DIRECTIONS:
                raise ExprSyntaxError("D(...) needs a frame direction e1, e2 or e3", dpos)
            self.expect_op(",")
            fkind, fval, fpos = self.next()
            if fkind != "ident":
                raise ExprSyntaxError("D(...) needs a symbol name", fpos)
            sym = self.table.get(fval)
            if sym is None:
                raise UnknownIdentifierError(f"unknown identifier {fval!r}", fpos)
            self.expect_op(")")
            if sym.kind == CONSTANT:
                return Expr.zero()
            return Expr.from_symbol(self.table.derivative(sym, dval))
        if name in NUMERIC_FUNCTIONS:
            arg = self.group(paren)
            text = f"{name}({arg.to_text()})"
            return Expr.from_symbol(self.table.applied(name, arg, text))
        raise ExprSyntaxError(f"unknown function {name!r}", pos)

    def resolve(self, name: str, pos: int) -> Expr:
        sym = self.table.get(name)
        if sym is None:
            if not self.define_missing:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", pos)
            sym = self.table.constant(name)
        return Expr.from_symbol(sym)


def parse_expr(text: str, table: SymbolTable, *, define_missing: bool = False) -> Expr:
    """Parse `text` against `table` into a canonical Expr.

    With define_missing, unknown identifiers are registered as constants
    (used by the expression CLI, where bindings supply the values).
    """
    return _Parser(text, table, define_missing).parse()
