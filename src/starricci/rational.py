"""Exact rational functions in named symbols: the universal scalar.

An ``Expr`` is a reduced fraction of two canonical polynomials with the
denominator normalized to leading coefficient 1.  Structural equality of two
``Expr`` values coincides with equality as rational functions, so the proof
layer can test "is exactly zero" by construction.  Values are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .polynomial import Polynomial, poly_gcd
from .symbols import Symbol

Scalar = Union[int, Fraction, "Expr"]


class ExprError(ValueError):
    """Arithmetic or evaluation failure in the expression layer."""


class DivisionByZeroExpr(ExprError):
    """A denominator vanished identically."""


class UnboundSymbolError(ExprError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(f"unbound symbols: {', '.join(self.names)}")


class NearZeroDenominator(ExprError):
    """A denominator evaluated within tolerance of zero."""


# Numeric functions admitted for applied atoms (model-catalog layer).
NUMERIC_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "cot": lambda x: 1.0 / math.tan(x),
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "coth": lambda x: 1.0 / math.tanh(x),
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


class Expr:
    """Canonical rational function: gcd-reduced, monic denominator, 0 = 0/1."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero:
            raise DivisionByZeroExpr("denominator is the zero polynomial")
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = num.exact_div(g)
                den = den.exact_div(g)
                assert num is not None and den is not None
            _, lc = den.leading()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _ZERO_EXPR

    @staticmethod
    def one() -> "Expr":
        return _ONE_EXPR

    @staticmethod
    def const(value) -> "Expr":
        return Expr(Polynomial.const(value))

    @staticmethod
    def from_symbol(sym: Symbol) -> "Expr":
        return Expr(Polynomial.from_symbol(sym))

    @staticmethod
    def _coerce(value: Scalar) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return Expr.const(value)
        if isinstance(value, Symbol):
            return Expr.from_symbol(value)
        raise TypeError(f"cannot coerce {value!r} to Expr")

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_rational_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def as_fraction(self) -> Fraction:
        if not self.is_rational_constant:
            raise ExprError(f"not a rational constant: {self}")
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def symbols(self) -> frozenset:
        return self.num.symbols() | self.den.symbols()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> "Expr":
        o = Expr._coerce(other)
        return Expr(self.num * o.den + o.num * self.den, self.den * o.den)

    def __radd__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) + self

    def __sub__(self, other: Scalar) -> "Expr":
        o = Expr._coerce(other)
        return Expr(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) - self

    def __neg__(self) -> "Expr":
        return Expr(-self.num, self.den)

    def __mul__(self, other: Scalar) -> "Expr":
        o = Expr._coerce(other)
        return Expr(self.num * o.num, self.den * o.den)

    def __rmul__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) * self

    def __truediv__(self, other: Scalar) -> "Expr":
        o = Expr._coerce(other)
        if o.is_zero:
            raise DivisionByZeroExpr(f"division of {self} by zero expression")
        return Expr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n >= 0:
            return Expr(self.num ** n, self.den ** n)
        if self.is_zero:
            raise DivisionByZeroExpr("zero raised to a negative power")
        return Expr(self.den ** (-n), self.num ** (-n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        return isinstance(other, Expr) and other.num == self.num and other.den == self.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- operations --------------------------------------------------------

    def substitute(self, bindings: Mapping[Symbol, Scalar]) -> "Expr":
        """Simultaneous substitution, then canonicalization.

        Raises DivisionByZeroExpr if the denominator vanishes identically
        under the substitution.
        """
        if not bindings:
            return self
        table = {s: Expr._coerce(v) for s, v in bindings.items()}

        def eval_poly(p: Polynomial) -> Expr:
            total = _ZERO_EXPR
            for m, c in p.terms:
                term = Expr.const(c)
                for s, e in m:
                    rep = table.get(s)
                    term = term * (rep ** e if rep is not None else Expr(Polynomial.from_symbol(s) ** e))
                total = total + term
            return total

        num_e = eval_poly(self.num)
        den_e = eval_poly(self.den)
        if den_e.is_zero:
            raise DivisionByZeroExpr(
                "substitution makes a denominator identically zero"
            )
        return num_e / den_e

    def derivative(self, direction: str) -> "Expr":
        """Formal directional derivative; quotient rule over the derivation."""
        dn = self.num.derivative(direction)
        if self.den.is_constant:
            return Expr(dn, self.den)
        dd = self.den.derivative(direction)
        return Expr(dn * self.den - self.num * dd, self.den * self.den)

    def degree_in(self, sym: Symbol) -> int:
        return self.num.degree_in(sym)

    def coefficients_in(self, sym: Symbol) -> dict[int, "Expr"]:
        """Polynomial coefficients in `sym`; requires a sym-free denominator."""
        if self.den.degree_in(sym) > 0:
            raise ExprError(f"{self} is not polynomial in {sym.name}")
        return {e: Expr(p, self.den) for e, p in self.num.coeffs_in(sym).items()}

    # -- evaluation --------------------------------------------------------

    def eval(self, bindings: Mapping, *, den_tol: float = 1e-12) -> float:
        """Double-precision value.  All symbols must be bound (by Symbol or
        name); applied atoms such as cot(2*r) evaluate through their argument.
        """
        named: dict[str, float] = {}
        for k, v in bindings.items():
            named[k.name if isinstance(k, Symbol) else k] = float(v)
        missing: set[str] = set()

        def value_of(s: Symbol) -> float:
            if s.name in named:
                return named[s.name]
            if s.fn is not None:
                v = NUMERIC_FUNCTIONS[s.fn](s.arg.eval(bindings, den_tol=den_tol))
                named[s.name] = v
                return v
            missing.add(s.name)
            return 0.0

        num_v = self.num.eval(value_of)
        den_v = self.den.eval(value_of)
        if missing:
            raise UnboundSymbolError(missing)
        if abs(den_v) <= den_tol:
            raise NearZeroDenominator(
                f"denominator {self.den} evaluates to {den_v!r}"
            )
        return num_v / den_v

    def eval_exact(self, bindings: Mapping) -> Fraction:
        """Exact rational value at rational points (testing oracle)."""
        named: dict[str, Fraction] = {}
        for k, v in bindings.items():
            named[k.name if isinstance(k, Symbol) else k] = Fraction(v)
        missing: set[str] = set()

        def value_of(s: Symbol) -> Fraction:
            if s.name in named:
                return named[s.name]
            missing.add(s.name)
            return Fraction(0)

        num_v = self.num.eval_exact(value_of)
        den_v = self.den.eval_exact(value_of)
        if missing:
            raise UnboundSymbolError(missing)
        if den_v == 0:
            raise NearZeroDenominator("denominator is exactly zero at the point")
        return num_v / den_v

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text; reparsing it reproduces this Expr exactly."""
        if self.den == Polynomial.one():
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Expr({self.to_text()})"


_ZERO_EXPR = Expr(Polynomial.zero())
_ONE_EXPR = Expr(Polynomial.one())


def sign_normalized(e: Expr) -> Expr:
    """e or -e, whichever has a positive leading numerator coefficient.

    Used when an expression is recorded as a vanishing statement: f = 0 and
    -f = 0 carry the same content, so one canonical representative is kept.
    """
    if e.is_zero:
        return e
    _, lc = e.num.leading()
    return -e if lc < 0 else e
