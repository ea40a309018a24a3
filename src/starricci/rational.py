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
polynomial values add, as ints over one common denominator, into one dict,
which is sorted once into the terms of one Polynomial.  Substitution folds a
binding to a rational constant into the coefficients, so only the other
bindings take polynomial products; a polynomial whose bindings are all zero
keeps the terms that hold no bound symbol, in their order.  The negation of
a rational function -num/den is coprime with a monic den already, so it
takes no gcd.

``Expr.eval`` evaluates one expression once; it is the only per-call float
evaluator.  ``compile_sweep`` is the only compiled one: one loop over the
points of a monotone list that the caller passes, in two stages (values,
then rows over those values), that returns each row's max |row| and one
float expression over the values, each value as ``Expr.eval`` returns it,
bit for bit.  The kernel knows no grid: the caller builds the points
(catalog.radius_grid).  Once per call a kernel finds the points inside the
domain (a prefix of the list, since the points are monotone) and computes
every binding that does not read the point; once per point it computes
only the bindings that do, each distinct one once, so a math function is
called once per argument (cot(x) is 1.0 / the tan(x) call that tan(x) also
reads).  A float operation gives the same result wherever it runs, so
moving it out of the loop or sharing it changes no bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .polynomial import Coeff, Mono, Polynomial, _memos, _mono_mul, _ordered, poly_gcd
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
        out = _new(Expr)  # -num/den is coprime with a monic den already: no gcd
        out._set(-self.num, self.den)
        return out

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
        N_num * D_den over D_num * N_den, which takes one gcd.  A polynomial
        whose bindings are all zero keeps the terms that hold no bound
        symbol, in their order, with no product and no gcd.  Raises
        DivisionByZeroExpr if the denominator vanishes identically under the
        substitution.
        """
        if not bindings:
            return self
        table = {s: Expr._coerce(v) for s, v in bindings.items()}
        if self.den is _ONE and not any(v.num.terms for v in table.values()):
            kept = tuple([t for t in self.num.terms if not any(s in table for s, _e in t[0])])
            return _polynomial(_ordered(kept)) if kept else _ZERO_EXPR
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
        The bindings are read once per call, however many atoms there are.
        """
        named: dict[str, float] = {}
        for k, v in bindings.items():
            name = k.name if isinstance(k, Symbol) else k
            value = float(v)
            if not math.isfinite(value):
                raise ExprError(f"binding {name} = {value!r} is not finite")
            named[name] = value
        return self._eval(named)

    def _eval(self, named: dict) -> float:
        """eval at the finite values `named` by name; an applied atom's value
        is computed from its argument once and added to `named`."""
        missing: set[str] = set()

        def value_of(s: Symbol) -> float:
            if s.name in named:
                return named[s.name]
            if s.fn is not None:
                v = _apply_function(s.fn, s.arg._eval(named))
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
        if self.den is _ONE:  # _set makes every constant denominator the shared one
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


def dot(terms: Iterable[tuple[int, Expr, Expr]],
        derivative: tuple[Expr, str] | None = None) -> Expr:
    """The sum of k * a * b over the triples (k, a, b) of `terms`, exactly,
    plus e.derivative(direction) for derivative = (e, direction).

    A triple with a zero factor is skipped.  The products of the triples
    whose factors both have the unit denominator are added term by term into
    one dict of ints, which becomes one Polynomial (none for a sum that
    cancels): each factor enters as its scaled() pair (d, integer terms), so
    with one common denominator L, a multiple of every d_a * d_b, a product
    adds k * (L / (d_a * d_b)) * a * b in ints.  L grows (and the dict with
    it) only when a product's d_a * d_b does not divide it, and each output
    term is divided by L once, to an int or a Fraction, as the dict is
    sorted into the ordered terms of the sum.  The terms of a * b
    are those Polynomial.__mul__ would form, looked up in the same memo,
    that of the table of the lead symbol.  The derivative of a polynomial e
    enters the same dict through the table's memoized derivative terms, so
    no Expr is built for it.  A triple or derivative with a non-unit
    denominator is added through the Expr operators instead, the split that
    + and * make.  The result is equal in every slot to
    sum(k * a * b for k, a, b in terms) (+ e.derivative(direction)), and a
    zero result is the shared Expr.zero().
    """
    acc: dict = {}
    get = acc.get
    rest = _ZERO_EXPR
    L = 1
    if derivative is not None:
        e, direction = derivative
        if e.den is not _ONE:
            rest = e.derivative(direction)
        elif e.num.terms and e.num.terms[0][0]:  # the derivative of a constant is 0
            L, scaled = e.num.scaled()
            row = _memos(scaled[0][0][0][0]).derivatives[direction]
            for m, c in scaled:
                for dm, k in row[m]:
                    acc[dm] = get(dm, 0) + c * k
    for k, a, b in terms:
        if not (k and a.num.terms and b.num.terms):
            continue
        if a.den is not _ONE or b.den is not _ONE:
            rest = rest + k * a * b
            continue
        da, ta = a.num.scaled()
        db, tb = b.num.scaled()
        d = da * db
        if L % d:
            grow = math.lcm(L, d) // L
            L *= grow
            for m, n in acc.items():
                acc[m] = n * grow
        k *= L // d
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
    kept = [m for m, n in acc.items() if n]
    if not kept:
        return rest if rest.num.terms else _ZERO_EXPR
    if len(kept) > 1:
        kept.sort(key=_memos((kept[0] or kept[1])[0][0]).keys.__getitem__)  # at most one is ()
    if L == 1:
        terms = tuple([(m, acc[m]) for m in kept])
    else:
        terms = tuple([(m, n // L if not n % L else Fraction(n, L))
                       for m in kept for n in (acc[m],)])
    total = _polynomial(_ordered(terms)) + rest
    return total if total.num.terms else _ZERO_EXPR


def _substitute_poly(p: Polynomial, table: Mapping[Symbol, Expr]) -> tuple:
    """p with every symbol s in `table` replaced by a_s/b_s, as a pair (N, D).

    D is the product of b_s^deg_s(p) over the bound symbols whose b_s is not
    constant, and each term c * u * prod s^e (u its unbound monomial)
    contributes c * u * prod a_s^e * b_s^(deg_s - e) to N.  A symbol bound
    to a rational constant v folds into the coefficient as c * v^e, and a
    term holding a symbol bound to zero contributes nothing; only the other
    bindings take polynomial products.  Powers are computed once per call
    and N is summed in one dict.  Symbols go in name order, so the operation
    counts do not depend on hash order.
    """
    one = Polynomial.one()
    degrees: dict = {}
    for m, _c in p.terms:
        for s, e in m:
            if s in table and e > degrees.get(s, 0):
                degrees[s] = e
    if not degrees:
        return p, one
    scalars: dict = {}  # the symbols bound to rational constants, and their values
    bound = []  # the others, in name order
    for s in sorted(degrees, key=lambda s: s.name):
        v = table[s]
        if v.den is one and v.num.is_constant:
            scalars[s] = v.num.terms[0][1] if v.num.terms else 0
        else:
            bound.append(s)
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
        free, exps = [], {}
        for s, e in m:  # name order
            if s in scalars:
                v = scalars[s]
                if not v:
                    break
                c = c * v ** e
            elif s in degrees:
                exps[s] = e
            else:
                free.append((s, e))
        else:
            term = {tuple(free): c}
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
# is 1.0 / math.tan(x), and a sweep kernel computes it that way.
_RECIPROCALS = {"cot": "tan", "coth": "tanh"}
# A kernel's return: its two columns, as far as they go.
_STOP = "return o0, o1"


class _FloatCodegen:
    """Straight-line Python source for the float values of a set of Exprs,
    split into the statements a sweep kernel runs once per call (``setup``)
    and those it runs once per radius (``body``).

    Symbol names and expression text never enter the source: parameters,
    powers, atoms and other bindings get generated identifiers, coefficients
    become float literals and applied atoms call their math function through
    a handle fetched once per call (``functions``, keyed by NUMERIC_FUNCTIONS
    name).  A call is a code of its own, so cot and tan of one argument share
    one tan call: cot is 1.0 / its identifier.  The source leaves out
    operations that are exact identities: x ** 1, 1.0 * x and x / 1.0 are x,
    and -1.0 * x is -x.

    Each distinct code is bound once, to one identifier, so two names with
    one expression share its value and its powers.  A binding varies when it
    reads the radius params[0]; one that does not goes to setup.  A sum or a
    product is a left-associative chain of operands, so its longest prefix
    of non-varying operands is one value, which setup binds; so is each
    later non-varying operand that holds an operation.  A pole ends the loop
    in the body and returns no rows in setup.
    """

    def __init__(self, params: Sequence[str]):
        self.params = {name: f"v{i}" for i, name in enumerate(params)}
        self.varying = {"v0"}  # the identifiers whose values read the radius
        self.used: set[str] = set()
        self.setup: list[str] = []
        self.body: list[str] = []
        self.missing: set[str] = set()
        self.functions: dict[str, str] = {}
        self._bound: dict[str, str] = {}  # code -> identifier
        self._guarded: set[str] = set()
        self._count = 0

    def fresh(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def bind(self, prefix: str, code: str, varying: bool, guard: bool = False) -> str:
        """The identifier of code, bound on first use in body (varying) or
        setup; with guard, a pole test follows it once."""
        ident = self._bound.get(code)
        if ident is None:
            ident = self._bound[code] = self.fresh(prefix)
            (self.body if varying else self.setup).append(f"{ident} = {code}")
            if varying:
                self.varying.add(ident)
        if guard and ident not in self._guarded:
            self._guarded.add(ident)
            block, stop = ((self.body, "break") if ident in self.varying
                           else (self.setup, _STOP))
            block.append(f"if abs({ident}) <= {_DEN_TOL!r}: {stop}")
        return ident

    def _chain(self, op: str, operands: list) -> tuple:
        """op.join of the codes of operands, (code, varying) pairs, as a
        (code, varying) pair; see the class docstring for what setup binds."""
        k = next((i for i, (_, v) in enumerate(operands) if v), None)
        if k is None:
            return op.join(code for code, _ in operands), False
        head = [(op.join(code for code, _ in operands[:k]), False)] if k else []
        return op.join(code if v or " " not in code else self.bind("p", code, False)
                       for code, v in head + operands[k:]), True

    def value(self, sym: Symbol) -> str:
        ident = self.params.get(sym.name)
        if ident is not None:
            self.used.add(ident)
            return ident
        if sym.fn is None:
            self.missing.add(sym.name)
            return "0.0"
        if sym.fn not in NUMERIC_FUNCTIONS:
            raise ExprError("applied atom with an unknown numeric function")
        arg, varying = self.expr(sym.arg)
        base = _RECIPROCALS.get(sym.fn, sym.fn)
        handle = self.functions.setdefault(base, f"f{len(self.functions)}")
        call = self.bind("a", f"{handle}({arg})", varying)  # once per function and argument
        return call if base == sym.fn else self.bind("a", f"1.0 / {call}", varying)

    def power(self, sym: Symbol, e: int) -> str:
        base = self.value(sym)
        return base if e == 1 else self.bind("p", f"{base} ** {e}", base in self.varying)

    def poly(self, p: Polynomial, start: bool = True) -> tuple:
        """Polynomial.eval's order, as (code, varying): a sum from 0.0 of
        float(c) * x**e * ..., where 1.0 * x is x and -1.0 * x is -x.
        Without start the sum begins at its first term: 0.0 + x is x but
        for x = -0.0, which only a sign can tell."""
        terms = [("0.0", False)] if start or not p.terms else []
        for m, c in p.terms:
            factors = [self.power(s, e) for s, e in m]
            coeff = float(c)
            if factors and coeff in (1.0, -1.0):
                factors[0] = ("-" if coeff < 0 else "") + factors[0]
            else:
                factors.insert(0, repr(coeff))
            terms.append(self._chain(" * ", [(f, f.lstrip("-") in self.varying)
                                             for f in factors]))
        return self._chain(" + ", terms)

    def expr(self, e: Expr, start: bool = True) -> tuple:
        """(Python expression for e's value, varying); statements it needs
        go to setup or body.  start is poly's, for a polynomial e."""
        if e.den.is_constant:  # monic, so exactly 1.0: the value is num
            return self.poly(e.num, start)
        n = self.bind("n", *self.poly(e.num))
        d = self.bind("d", *self.poly(e.den), guard=True)
        return f"{n} / {d}", n in self.varying or d in self.varying

    def values(self, exprs: Sequence[Expr], start: bool = True) -> list:
        """expr(e, start) for each e; an unbound symbol or a coefficient
        beyond the float range raises here, once."""
        try:
            values = [self.expr(e, start) for e in exprs]
        except OverflowError:  # a coefficient beyond the float range
            raise ExprError(_OVERFLOW) from None
        if self.missing:
            raise UnboundSymbolError(self.missing)
        return values


def compile_sweep(
    params: Sequence[str], values: Mapping[str, Expr], rows: Sequence[Expr], tail: str,
) -> Callable[..., tuple]:
    """One compiled loop over given points of the parameter params[0].

    The kernel takes points, a monotone (non-decreasing) sequence of floats,
    the ends low and high of an open interval, and a scalar per name in
    params[1:].  Row i has the point t = points[i].  It evaluates `values`
    (Exprs in the params) and binds each to its name, then `rows` (Exprs in
    the params and those names) and y = `tail`, a float expression in
    ``{name}`` placeholders for the params and the values' names.  It
    returns the lists of the max of 0.0 and each |row|, and of y: their
    length k says that points[:k] are the rows' points.

    Each Expr takes the float operations of Expr.eval in the same order
    (scalars through float(), each polynomial summed from 0.0, each term
    float(c) * x**e * ... in monomial order, num / den), so its value is
    Expr.eval's, bit for bit.  The work is split by what it reads:

    - once per call: the float() of each scalar, the number of points
      inside the interval, and every binding that does not read t (a
      left-associative prefix such as -0.25 * c, a power such as c ** 2, an
      atom, a value, a row, y), with their pole tests and the finite check
      of such values, rows and y;
    - once per row: the bindings that read t, each distinct code once (a
      value that two names share, its powers, an applied atom), with their
      pole tests and finite check.

    A float operation gives the same result whenever it runs, so moving a
    binding out of the loop moves no bit.  The points are monotone, so those
    inside the interval are a prefix of the list when the first one is
    inside: the first point is tested, then points are dropped from the
    last until one is inside.  A row is |sum|, so its sum starts at its
    first term rather than at 0.0: the two differ only in the sign of a
    zero.  The invariant rows seed each row's max, which does not depend on
    the order of |row| values.

    The lists stop before the first row outside the interval, at which
    Expr.eval would raise (a pole, an overflow, a math domain error), or at
    which a value, a row or y is not finite, so the caller can replay that
    row for its error; a failure in the once-per-call work fails every row,
    so the lists are empty.  The loop calls no Python function per row: each
    atom calls its math function directly, once per distinct argument (cot(x)
    as 1.0 / tan(x), which is what NUMERIC_FUNCTIONS computes, from the one
    tan(x) call).  A symbol that is neither a parameter,
    a value's name nor an applied atom raises UnboundSymbolError here, once.
    The source is kept on the kernel as ``source``.
    """
    gen = _FloatCodegen(params)
    scalars = list(gen.params.values())[1:]
    named = [gen.bind("x", *v) for v in gen.values(values.values())]
    # the rows and the tail read each value through its name, which takes no float()
    gen.params.update(zip(values, named))
    rows = dict.fromkeys(gen.bind("x", f"abs({code})", varying)
                         for code, varying in gen.values(rows, start=False))
    reads = [v for name, v in gen.params.items() if f"{{{name}}}" in tail]
    gen.used.update(reads)
    y = gen.bind("x", tail.format_map(gen.params), any(v in gen.varying for v in reads))
    checked = dict.fromkeys([*named, *rows, y])
    t, m = gen.params[params[0]], gen.fresh("x")
    points, low, high = head = [f"v{len(params) + j}" for j in range(3)]
    lines = [f"def compiled({', '.join(head + scalars)}):",
             *(f"    {v} = float({v})" for v in scalars if v in gen.used),
             *(f"    {h} = _fns[{fn!r}]" for fn, h in gen.functions.items()),
             "    o0, o1 = [], []",
             # the points are monotone, so those inside the interval are a prefix
             f"    {m} = len({points}) if {points} and {low} < {points}[0] < {high} else 0",
             f"    while {m} > 0 and not {low} < {points}[{m} - 1] < {high}:",
             f"        {m} -= 1"]
    if gen.setup:
        lines += ["    try:", *(f"        {s}" for s in gen.setup),
                  "    except (ArithmeticError, ValueError):", f"        {_STOP}"]
    lines += _finite([x for x in checked if x not in gen.varying], "    ", _STOP)
    seed = "0.0"
    fixed = [x for x in rows if x not in gen.varying]
    if fixed:
        seed = gen.fresh("x")
        lines += [f"    {seed} = 0.0", *_max(seed, fixed, "    ")]
    lines += ["    w0 = o0.append", "    w1 = o1.append",
              f"    for {t} in {points}[:{m}]:"]
    if gen.body:
        lines += ["        try:", *(f"            {s}" for s in gen.body),
                  "        except (ArithmeticError, ValueError):", "            break"]
    lines += _finite([x for x in checked if x in gen.varying], "        ", "break")
    moving = [x for x in rows if x in gen.varying]
    if moving:
        top = gen.fresh("x")
        lines += [f"        {top} = {seed}", *_max(top, moving, "        ")]
        seed = top
    lines += [f"        w0({seed})", f"        w1({y})", f"    {_STOP}"]
    source = "\n".join(lines) + "\n"
    namespace = {"__builtins__": {}, "float": float, "abs": abs, "len": len,
                 "ArithmeticError": ArithmeticError, "ValueError": ValueError,
                 "_fns": NUMERIC_FUNCTIONS}
    exec(compile(source, "<kernel>", "exec"), namespace)
    kernel = namespace["compiled"]
    kernel.source = source
    return kernel


def _finite(idents: list, indent: str, stop: str) -> list:
    """The lines that stop unless every one of idents is finite: x - x is
    0.0 for a finite x and NaN otherwise."""
    if not idents:
        return []
    test = " + ".join(f"({x} - {x})" for x in idents)
    return [f"{indent}if {test} != 0.0:", f"{indent}    {stop}"]


def _max(top: str, idents, indent: str) -> list:
    """The lines that raise top to each of idents in turn."""
    return [line for x in idents for line in (f"{indent}if {x} > {top}:",
                                                f"{indent}    {top} = {x}")]
