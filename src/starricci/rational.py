"""Exact rational functions in named symbols: the universal scalar.

An ``Expr`` is a reduced fraction of two canonical polynomials with the
denominator normalized to leading coefficient 1.  A denominator equal to 1 is
always the shared ``Polynomial.one()``.  Structural equality of two ``Expr``
values coincides with equality as rational functions, so the proof layer can
test "is exactly zero" by construction.  Values are immutable.

Polynomial values take a fast path.  When every operand of ``+``, ``-``,
``*``, negation, ``derivative`` or a division by a nonzero rational constant
has the unit denominator, and for ``Expr.const``, ``Expr.from_symbol`` and an
``int`` times an ``Expr``, the result is built by ``_polynomial``: the
canonical numerator over the shared one, or the shared zero.  This is
exactly what the canonicalizing constructor would store, since a unit
denominator takes no gcd and ``_set`` leaves num/1 unchanged.  So canonical
forms, text and the gcds taken do not depend on which path built a value.
``dot`` extends the fast path to a whole sum of products: the products of
polynomial values add into one dict, and the sum is one Polynomial.

``Expr.eval`` evaluates one expression once.  ``compile_float`` turns a
sequence of expressions into one straight-line Python function that returns
the same floats, bit for bit, for repeated numeric evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

from .polynomial import Coeff, Mono, Polynomial, _memos, _mono_mul, poly_gcd
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

_OVERFLOW = "floating-point overflow"

# A denominator whose float value is within this of zero is a pole.
_DEN_TOL = 1e-12


def _apply_function(name: str, x: float) -> float:
    """NUMERIC_FUNCTIONS[name](x); a pole, overflow or domain error is an ExprError."""
    try:
        return NUMERIC_FUNCTIONS[name](x)
    except (ArithmeticError, ValueError) as exc:
        raise ExprError(f"{name}({x!r}) cannot be evaluated: {exc}") from None


def _near_zero(den: "Polynomial", value: float) -> NearZeroDenominator:
    return NearZeroDenominator(f"denominator {den} evaluates to {value!r}")


class Expr:
    """Canonical rational function: gcd-reduced, monic denominator, 0 = 0/1."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero:
            raise DivisionByZeroExpr("denominator is the zero polynomial")
        if not (num.is_zero or den.is_constant):
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = num.exact_div(g)
                den = den.exact_div(g)
                assert num is not None and den is not None
        self._set(num, den)

    def _set(self, num: Polynomial, den: Polynomial) -> None:
        """Store the coprime pair num/den with den normalized: 0 = 0/1, a
        constant denominator is the shared Polynomial.one() (no gcd needed),
        any other one has leading coefficient 1."""
        one = Polynomial.one()
        if num.is_zero:
            num, den = Polynomial.zero(), one
        elif den is not one:
            if den.is_constant:
                num, den = num.scale(1 / den.constant_value()), one
            else:
                _, lc = den.leading()
                if lc != 1:
                    inv = 1 / Fraction(lc)
                    num = num.scale(inv)
                    den = den.scale(inv)
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
        return _polynomial(Polynomial.const(value))

    @staticmethod
    def from_symbol(sym: Symbol) -> "Expr":
        return _polynomial(Polynomial.from_symbol(sym))

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
        return not self.num.terms

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
        o = other if other.__class__ is Expr else Expr._coerce(other)
        if o.is_zero:  # Expr is immutable, so an operand can be returned
            return self
        if self.is_zero:
            return o
        if self.den is _ONE and o.den is _ONE:
            return _polynomial(self.num + o.num)
        return Expr(self.num * o.den + o.num * self.den, self.den * o.den)

    def __radd__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) + self

    def __sub__(self, other: Scalar) -> "Expr":
        o = other if other.__class__ is Expr else Expr._coerce(other)
        if o.is_zero:
            return self
        if self.is_zero:
            return -o
        if self.den is _ONE and o.den is _ONE:
            return _polynomial(self.num - o.num)
        return Expr(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) - self

    def __neg__(self) -> "Expr":
        if self.den is _ONE:
            return _polynomial(-self.num)
        return Expr(-self.num, self.den)

    def __mul__(self, other: Scalar) -> "Expr":
        if other.__class__ is int and self.den is _ONE:
            return _polynomial(self.num.scale(other))
        o = other if other.__class__ is Expr else Expr._coerce(other)
        if o.is_zero or self.is_zero:
            return _ZERO_EXPR
        if self.den is _ONE and o.den is _ONE:
            return _polynomial(self.num * o.num)
        return Expr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__  # multiplication commutes, canonical forms included

    def __truediv__(self, other: Scalar) -> "Expr":
        o = other if other.__class__ is Expr else Expr._coerce(other)
        if o.is_zero:
            raise DivisionByZeroExpr(f"division of {self} by zero expression")
        if self.den is _ONE and o.den is _ONE and o.num.is_constant:
            return _polynomial(self.num.scale(1 / o.num.constant_value()))
        return Expr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: Scalar) -> "Expr":
        return Expr._coerce(other) / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero:
                raise DivisionByZeroExpr("zero raised to a negative power")
            num, den, n = den, num, -n
        # powers of a coprime num/den stay coprime: no gcd
        out = object.__new__(Expr)
        out._set(num ** n, den ** n)
        return out

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

        num and den are each evaluated as one fraction N/D of polynomials
        (see _substitute_poly), and the result is the Expr of
        N_num * D_den over D_num * N_den, which takes one gcd.  Raises
        DivisionByZeroExpr if the denominator vanishes identically under the
        substitution.
        """
        if not bindings:
            return self
        table = {s: Expr._coerce(v) for s, v in bindings.items()}
        num_n, num_d = _substitute_poly(self.num, table)
        den_n, den_d = _substitute_poly(self.den, table)
        if den_n.is_zero:
            raise DivisionByZeroExpr(
                "substitution makes a denominator identically zero"
            )
        return Expr(num_n * den_d, den_n * num_d)

    def derivative(self, direction: str) -> "Expr":
        """Formal directional derivative; quotient rule over the derivation."""
        dn = self.num.derivative(direction)
        if self.den is _ONE:
            return _polynomial(dn)
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

    def eval(self, bindings: Mapping) -> float:
        """Double-precision value.  All symbols must be bound (by Symbol or
        name); applied atoms such as cot(2*r) evaluate through their argument.
        A non-finite binding, a pole of an atom or an overflow is an ExprError.
        """
        named: dict[str, float] = {}
        for k, v in bindings.items():
            name = k.name if isinstance(k, Symbol) else k
            value = float(v)
            if not math.isfinite(value):
                raise ExprError(f"binding {name} = {value!r} is not finite")
            named[name] = value
        missing: set[str] = set()

        def value_of(s: Symbol) -> float:
            if s.name in named:
                return named[s.name]
            if s.fn is not None:
                v = _apply_function(s.fn, s.arg.eval(bindings))
                named[s.name] = v
                return v
            missing.add(s.name)
            return 0.0

        try:
            num_v = self.num.eval(value_of)
            den_v = self.den.eval(value_of)
        except OverflowError:
            raise ExprError(_OVERFLOW) from None
        if missing:
            raise UnboundSymbolError(missing)
        if abs(den_v) <= _DEN_TOL:
            raise _near_zero(self.den, den_v)
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
_ONE = Polynomial.one()
_new = object.__new__
_set_num, _set_den, _set_hash = Expr.num.__set__, Expr.den.__set__, Expr._hash.__set__


def _polynomial(num: Polynomial) -> Expr:
    """The Expr num/1, built without the canonicalizing constructor.

    num/1 is already canonical: a unit denominator takes no gcd, and _set
    stores a nonzero num over the shared one unchanged and a zero num as
    0/1.  So this returns the shared zero or a new Expr holding num and the
    shared one, equal in every slot to Expr(num).
    """
    if not num.terms:
        return _ZERO_EXPR
    out = _new(Expr)
    _set_num(out, num)
    _set_den(out, _ONE)
    _set_hash(out, None)
    return out


def dot(terms: Iterable[tuple[int, Expr, Expr]]) -> Expr:
    """The sum of k * a * b over the triples (k, a, b) of `terms`, exactly.

    A triple with a zero factor is skipped.  The products of the triples
    whose factors both have the unit denominator are added term by term into
    one dict, which becomes one Polynomial (none for a sum that cancels): the
    terms of a * b are those Polynomial.__mul__ would form, looked up in the
    same memo, that of the table of the lead symbol.  A triple with a
    non-unit denominator is added through the Expr operators instead, the
    split that + and * make.  The result is equal in every slot to
    sum(k * a * b for k, a, b in terms), and a zero result is the shared
    Expr.zero().
    """
    acc: dict = {}
    get = acc.get
    rest = _ZERO_EXPR
    for k, a, b in terms:
        ta, tb = a.num.terms, b.num.terms
        if not (k and ta and tb):
            continue
        if a.den is not _ONE or b.den is not _ONE:
            rest = rest + k * a * b
            continue
        lead = ta[0][0] or tb[0][0]
        if not lead:  # two constants
            acc[()] = get((), 0) + k * ta[0][1] * tb[0][1]
            continue
        products = _memos(lead[0][0]).products
        for ma, ca in ta:
            row = products[ma]
            kc = k * ca
            for mb, cb in tb:
                m = row[mb]
                acc[m] = get(m, 0) + kc * cb
    total = _polynomial(Polynomial(acc)) + rest if any(acc.values()) else rest
    return total if total.num.terms else _ZERO_EXPR


def _substitute_poly(p: Polynomial, table: Mapping[Symbol, Expr]) -> tuple:
    """p with every symbol s in `table` replaced by a_s/b_s, as a pair (N, D).

    D is the product of b_s^deg_s(p) over the bound symbols whose b_s is not
    constant, and each term c * u * prod s^e (u its unbound monomial)
    contributes c * u * prod a_s^e * b_s^(deg_s - e) to N; a term holding a
    symbol bound to zero contributes nothing.  Powers are computed once per
    call and N is summed in one dict.  Symbols go in name order, so the
    operation counts do not depend on hash order.
    """
    one = Polynomial.one()
    degrees: dict = {}
    for m, _c in p.terms:
        for s, e in m:
            if s in table and e > degrees.get(s, 0):
                degrees[s] = e
    if not degrees:
        return p, one
    bound = sorted(degrees, key=lambda s: s.name)
    powers: dict = {}

    def power(s: Symbol, part: str, e: int) -> Polynomial:
        """a_s^e (part "num") or b_s^e (part "den"), once per call."""
        key = (s, part, e)
        out = powers.get(key)
        if out is None:
            out = powers[key] = getattr(table[s], part) ** e
        return out

    den = one
    for s in bound:
        if table[s].den is not one:
            den = den * power(s, "den", degrees[s])
    acc: dict[Mono, Coeff] = {}
    for m, c in p.terms:
        exps = dict(m)
        if any(table[s].is_zero for s in bound if s in exps):
            continue
        term = {tuple((s, e) for s, e in m if s not in degrees): c}
        for s in bound:
            e = exps.get(s, 0)
            factors = [power(s, "num", e)] if e else []
            if table[s].den is not one and e != degrees[s]:
                factors.append(power(s, "den", degrees[s] - e))
            for f in factors:
                prod: dict[Mono, Coeff] = {}
                for ma, ca in term.items():
                    for mb, cb in f.terms:
                        key = _mono_mul(ma, mb)
                        prod[key] = prod.get(key, 0) + ca * cb
                term = prod
        for mt, ct in term.items():
            acc[mt] = acc.get(mt, 0) + ct
    return Polynomial(acc), den


def sign_normalized(e: Expr) -> Expr:
    """e or -e, whichever has a positive leading numerator coefficient.

    Used when an expression is recorded as a vanishing statement: f = 0 and
    -f = 0 carry the same content, so one canonical representative is kept.
    """
    if e.is_zero:
        return e
    _, lc = e.num.leading()
    return -e if lc < 0 else e


# -- compiled float evaluation -------------------------------------------------

# The NUMERIC_FUNCTIONS entries that are reciprocals: NUMERIC_FUNCTIONS["cot"](x)
# is 1.0 / math.tan(x), and a column kernel computes it that way.
_RECIPROCALS = {"cot": "tan", "coth": "tanh"}


class _FloatCodegen:
    """Straight-line Python source for the float values of a set of Exprs.

    Symbol names and expression text never enter the source: parameters,
    powers and atoms get generated identifiers, coefficients become float
    literals and applied atoms name their function by its NUMERIC_FUNCTIONS
    key.  Denominator texts for error messages live in ``dens``, indexed by
    number.  The source leaves out operations that are exact identities:
    x ** 1, 1.0 * x and x / 1.0 are x, and -1.0 * x is -x.

    For a per-call function an atom calls ``_apply`` and a pole raises; for
    a column kernel (kernel=True) an atom calls its math function through a
    handle fetched once per call (``functions``) and a pole ends the loop.
    """

    def __init__(self, params: Sequence[str], kernel: bool = False):
        self.params = {name: f"v{i}" for i, name in enumerate(params)}
        self.kernel = kernel
        self.used: set[str] = set()
        self.body: list[str] = []
        self.dens: list = []
        self.missing: set[str] = set()
        self.functions: dict[str, str] = {}
        self._atoms: dict[str, str] = {}
        self._powers: dict[tuple, str] = {}

    def _bind(self, prefix: str, code: str) -> str:
        ident = f"{prefix}{len(self.body)}"
        self.body.append(f"{ident} = {code}")
        return ident

    def _call(self, fn: str, arg: str) -> str:
        if not self.kernel:
            return f"_apply({fn!r}, {arg})"
        base = _RECIPROCALS.get(fn, fn)
        handle = self.functions.setdefault(base, f"f{len(self.functions)}")
        return f"1.0 / {handle}({arg})" if base != fn else f"{handle}({arg})"

    def value(self, sym: Symbol) -> str:
        ident = self.params.get(sym.name)
        if ident is not None:
            self.used.add(ident)
            return ident
        if sym.fn is None:
            self.missing.add(sym.name)
            return "0.0"
        ident = self._atoms.get(sym.name)
        if ident is None:
            if sym.fn not in NUMERIC_FUNCTIONS:
                raise ExprError("applied atom with an unknown numeric function")
            ident = self._bind("a", self._call(sym.fn, self.expr(sym.arg)))
            self._atoms[sym.name] = ident
        return ident

    def power(self, sym: Symbol, e: int) -> str:
        base = self.value(sym)
        if e == 1:
            return base
        ident = self._powers.get((base, e))
        if ident is None:
            ident = self._powers[base, e] = self._bind("p", f"{base} ** {e}")
        return ident

    def poly(self, p: Polynomial) -> str:
        """Polynomial.eval's order: a sum from 0.0 of float(c) * x**e * ...,
        where 1.0 * x is x and -1.0 * x is -x."""
        code = "0.0"
        for m, c in p.terms:
            factors = [self.power(s, e) for s, e in m]
            coeff = float(c)
            if factors and coeff in (1.0, -1.0):
                code += (" + -" if coeff < 0 else " + ") + " * ".join(factors)
            else:
                code += " + " + " * ".join([repr(coeff), *factors])
        return code

    def expr(self, e: Expr) -> str:
        """Python expression for e's value; statements it needs go to body."""
        num = self.poly(e.num)
        if e.den.is_constant:  # monic, so exactly 1.0: the value is num
            return num
        n, d = self._bind("n", num), self._bind("d", self.poly(e.den))
        if self.kernel:
            self.body.append(f"if abs({d}) <= {_DEN_TOL!r}: break")
        else:
            self.body.append(f"if abs({d}) <= {_DEN_TOL!r}: raise _near({len(self.dens)}, {d})")
            self.dens.append(e.den)
        return f"{n} / {d}"

    def values(self, exprs: Sequence[Expr]) -> list:
        """expr(e) for each e; an unbound symbol or a coefficient beyond the
        float range raises here, once."""
        try:
            values = [self.expr(e) for e in exprs]
        except OverflowError:  # a coefficient beyond the float range
            raise ExprError(_OVERFLOW) from None
        if self.missing:
            raise UnboundSymbolError(self.missing)
        return values

    def scalars(self, skip: Sequence[str] = ()) -> list:
        """The lines that convert the used parameters, other than `skip`, with float()."""
        return [f"    {v} = float({v})" for v in self.params.values()
                if v in self.used and v not in skip]


@lru_cache(maxsize=256)
def _code(source: str):
    """The code object of a generated source, compiled once per process:
    loading the same catalog again generates the same kernel sources."""
    return compile(source, "<compile_float>", "exec")


def _define(source: str, namespace: dict) -> Callable:
    """The function `compiled` of `source`, run in the fresh `namespace`."""
    namespace["__builtins__"] = {}
    exec(_code(source), namespace)
    fn = namespace.pop("compiled")
    fn.source = source
    return fn


def compile_float(exprs: Sequence[Expr], params: Sequence[str]) -> Callable[..., tuple]:
    """One compiled function returning the float values of `exprs`.

    The function takes one positional value per name in `params` and returns
    the tuple ``(e.eval(bindings) for e in exprs)`` bit for bit: it performs
    the float operations of Expr.eval in the same order (inputs through
    float(), each polynomial summed from 0.0, each term float(c) * x**e * ...
    in monomial order, num / den), raises NearZeroDenominator where Expr.eval
    does and computes each applied atom once per call through
    NUMERIC_FUNCTIONS.  Unlike Expr.eval it does not check that its inputs
    are finite.  A symbol that is neither a parameter nor an applied atom
    raises UnboundSymbolError here, once.  The source is kept on the
    function as ``source``; compile_columns builds loops from the same code.
    """
    gen = _FloatCodegen(params)
    values = gen.values(exprs)
    dens = tuple(gen.dens)
    lines = [f"def compiled({', '.join(gen.params.values())}):", *gen.scalars(), "    try:"]
    lines += [f"        {stmt}" for stmt in gen.body]
    lines.append(f"        return ({''.join(v + ', ' for v in values)})")
    lines.append("    except OverflowError:")
    lines.append("        raise _overflow() from None")
    return _define("\n".join(lines) + "\n", {
        "float": float,
        "abs": abs,
        "OverflowError": OverflowError,
        "_apply": _apply_function,
        "_near": lambda k, value: _near_zero(dens[k], value),
        "_overflow": lambda: ExprError(_OVERFLOW),
    })


def compile_columns(
    exprs: Sequence[Expr], params: Sequence[str], columns: Sequence[str]
) -> Callable[..., tuple]:
    """One compiled loop: compile_float's values over columns of inputs.

    The kernel takes one positional value per name in `params`: an iterable
    of floats for each name in `columns` (read in step; the shortest ends the
    loop) and a scalar for every other name.  It returns one list per
    expression in `exprs` (at least one): row by row, the values that
    compile_float(exprs, params) returns at that row's inputs, bit for bit.
    The lists stop before the first row at which that function raises (a
    pole, an overflow, a math domain error) or returns a value that is not
    finite, so the caller can replay that row through the per-call function
    for its error.  The loop calls no Python function per row: each atom
    calls its math function directly (cot(x) as 1.0 / tan(x), which is what
    NUMERIC_FUNCTIONS computes).  Unlike compile_float the kernel applies
    float() to scalars only, so columns must hold floats.  The source is
    kept on the kernel as ``source``.
    """
    if not exprs:
        raise ValueError("a column kernel needs at least one expression")
    gen = _FloatCodegen(params, kernel=True)
    values = gen.values(exprs)
    cols = [gen.params[name] for name in columns]
    outs = range(len(values))
    lines = [f"def compiled({', '.join(gen.params.values())}):", *gen.scalars(cols)]
    lines += [f"    {h} = _fns[{fn!r}]" for fn, h in gen.functions.items()]
    lines.append("    " + ", ".join(f"o{i}" for i in outs) + " = " + ", ".join("[]" for _ in outs))
    lines += [f"    w{i} = o{i}.append" for i in outs]
    row = ", ".join(cols)
    lines.append(f"    for {row} in {cols[0] if len(cols) == 1 else f'zip({row})'}:")
    lines.append("        try:")
    lines += [f"            {stmt}" for stmt in gen.body]
    lines += [f"            x{i} = {v}" for i, v in zip(outs, values)]
    lines.append("        except (ArithmeticError, ValueError):")
    lines.append("            break")
    # x - x is 0.0 for a finite x and NaN otherwise
    lines.append("        if " + " + ".join(f"(x{i} - x{i})" for i in outs) + " != 0.0:")
    lines.append("            break")
    lines += [f"        w{i}(x{i})" for i in outs]
    lines.append("    return " + "".join(f"o{i}, " for i in outs))
    return _define("\n".join(lines) + "\n", {
        "float": float,
        "abs": abs,
        "zip": zip,
        "ArithmeticError": ArithmeticError,
        "ValueError": ValueError,
        "_fns": NUMERIC_FUNCTIONS,
    })
