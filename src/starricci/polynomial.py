"""Sparse multivariate polynomials over exact rationals.

Monomials are tuples of (symbol, exponent) pairs sorted by symbol name.
The term order is graded lexicographic: higher total degree first, ties
broken by comparing exponents variable by variable with names in ascending
order (the alphabetically earliest name is the most significant variable).
The order is fixed and global, so every polynomial has one canonical form
and structural equality coincides with mathematical equality.

GCDs are computed with the primitive pseudo-remainder sequence, recursing on
the number of variables; this is all the factorization the canonical
fraction layer needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, reduce
from typing import Callable, Iterable, Mapping, Optional

from .symbols import CONSTANT, Symbol, derivative_symbol

Mono = tuple  # tuple[tuple[Symbol, int], ...]

_EMPTY: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged: dict[Symbol, int] = {}
    for s, e in a:
        merged[s] = merged.get(s, 0) + e
    for s, e in b:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(((s, e) for s, e in merged.items() if e), key=lambda p: p[0].name))

def _mono_divides(a: Mono, b: Mono) -> bool:
    """True if monomial a divides monomial b."""
    eb = dict((s, e) for s, e in b)
    return all(eb.get(s, 0) >= e for s, e in a)

def _mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    ea = dict((s, e) for s, e in a)
    out = []
    for s, e in b:
        d = e - ea.get(s, 0)
        if d:
            out.append((s, d))
    return tuple(out)

def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)

def _mono_cmp(a: Mono, b: Mono) -> int:
    da, db = _mono_deg(a), _mono_deg(b)
    if da != db:
        return 1 if da > db else -1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        na = a[ia][0].name if ia < len(a) else None
        nb = b[ib][0].name if ib < len(b) else None
        if na == nb:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif nb is None or (na is not None and na < nb):
            return 1   # a has the more significant variable
        else:
            return -1
    return 0

_MONO_KEY = cmp_to_key(_mono_cmp)


class Polynomial:
    """Canonical sparse polynomial: terms sorted descending, no zero coeffs."""

    __slots__ = ("terms", "_hash")

    terms: tuple  # tuple[tuple[Mono, Fraction], ...]

    def __init__(self, terms: Mapping[Mono, Fraction] | Iterable[tuple[Mono, Fraction]]):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        kept = [(m, c) for m, c in items if c]
        kept.sort(key=lambda t: _MONO_KEY(t[0]), reverse=True)
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def const(value) -> "Polynomial":
        c = Fraction(value)
        return Polynomial({_EMPTY: c}) if c else _ZERO

    @staticmethod
    def from_symbol(sym: Symbol) -> "Polynomial":
        return Polynomial({((sym, 1),): Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[0][1]

    # -- structure ---------------------------------------------------------

    def leading(self) -> tuple[Mono, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def degree_in(self, sym: Symbol) -> int:
        d = 0
        for m, _ in self.terms:
            for s, e in m:
                if s == sym and e > d:
                    d = e
        return d

    def symbols(self) -> frozenset:
        out = set()
        for m, _ in self.terms:
            for s, _e in m:
                out.add(s)
        return frozenset(out)

    def coeffs_in(self, sym: Symbol) -> dict[int, "Polynomial"]:
        """Univariate view: exponent of sym -> coefficient polynomial."""
        buckets: dict[int, dict[Mono, Fraction]] = {}
        for m, c in self.terms:
            e = 0
            rest = []
            for s, k in m:
                if s == sym:
                    e = k
                else:
                    rest.append((s, k))
            buckets.setdefault(e, {})[tuple(rest)] = c
        return {e: Polynomial(d) for e, d in buckets.items()}

    @staticmethod
    def from_univariate(sym: Symbol, coeffs: Mapping[int, "Polynomial"]) -> "Polynomial":
        acc: dict[Mono, Fraction] = {}
        for e, p in coeffs.items():
            shift: Mono = ((sym, e),) if e else _EMPTY
            for m, c in p.terms:
                key = _mono_mul(m, shift)
                acc[key] = acc.get(key, Fraction(0)) + c
        return Polynomial(acc)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) - c
        return Polynomial(acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return _ZERO
        acc: dict[Mono, Fraction] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = _mono_mul(ma, mb)
                acc[m] = acc.get(m, Fraction(0)) + ca * cb
        return Polynomial(acc)

    def scale(self, k: Fraction) -> "Polynomial":
        if not k:
            return _ZERO
        return Polynomial({m: c * k for m, c in self.terms})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and other.terms == self.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    # -- division and gcd --------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient self / divisor, or None when not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return _ZERO
        if divisor.is_constant:
            return self.scale(1 / divisor.constant_value())
        quot: dict[Mono, Fraction] = {}
        rem = self
        dm, dc = divisor.leading()
        while not rem.is_zero:
            rm, rc = rem.leading()
            if not _mono_divides(dm, rm):
                return None
            m = _mono_div(rm, dm)
            c = rc / dc
            quot[m] = quot.get(m, Fraction(0)) + c
            rem = rem - divisor * Polynomial({m: c})
        return Polynomial(quot)

    # -- calculus / evaluation --------------------------------------------

    def derivative(self, direction: str) -> "Polynomial":
        """Formal derivation along a frame direction.

        Constants vanish, function symbols become D(direction, .) symbols.
        """
        acc: dict[Mono, Fraction] = {}
        for m, c in self.terms:
            for idx, (s, e) in enumerate(m):
                if s.kind == CONSTANT:
                    continue
                dsym = derivative_symbol(s, direction)
                rest = list(m[:idx]) + list(m[idx + 1:])
                if e > 1:
                    rest.append((s, e - 1))
                mono = _mono_mul(tuple(sorted(rest, key=lambda p: p[0].name)), ((dsym, 1),))
                acc[mono] = acc.get(mono, Fraction(0)) + c * e
        return Polynomial(acc)

    def eval(self, values: Callable[[Symbol], float]) -> float:
        total = 0.0
        for m, c in self.terms:
            v = float(c)
            for s, e in m:
                v *= values(s) ** e
            total += v
        return total

    def eval_exact(self, values: Callable[[Symbol], Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms:
            v = c
            for s, e in m:
                v *= values(s) ** e
            total += v
        return total

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            factors = []
            if mag != 1 or not m:
                factors.append(str(mag.numerator) if mag.denominator == 1
                               else f"({mag.numerator}/{mag.denominator})")
            for s, e in m:
                factors.append(s.name if e == 1 else f"{s.name}^{e}")
            body = "*".join(factors)
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


_ZERO = Polynomial({})
_ONE = Polynomial({_EMPTY: Fraction(1)})


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    _, lc = p.leading()
    return p.scale(1 / lc)


def _content_and_primitive(coeffs: dict[int, Polynomial]) -> tuple[Polynomial, dict[int, Polynomial]]:
    cont = reduce(_gcd_rec, coeffs.values())
    if cont.is_constant:
        return _ONE, coeffs
    prim = {}
    for e, p in coeffs.items():
        q = p.exact_div(cont)
        assert q is not None, "content must divide every coefficient"
        prim[e] = q
    return cont, prim


def _pseudo_rem(f: dict[int, Polynomial], g: dict[int, Polynomial]) -> dict[int, Polynomial]:
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        new: dict[int, Polynomial] = {e: c * lg for e, c in r.items()}
        for e, c in g.items():
            k = e + dr - dg
            new[k] = new.get(k, _ZERO) - lr * c
        r = {e: c for e, c in new.items() if not c.is_zero}
    return r


def _gcd_rec(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if f.is_constant or g.is_constant:
        return _ONE
    common = sorted(f.symbols() & g.symbols(), key=lambda s: s.name)
    if not common:
        return _ONE
    x = common[0]
    cf, pf = _content_and_primitive(f.coeffs_in(x))
    cg, pg = _content_and_primitive(g.coeffs_in(x))
    cont = _gcd_rec(cf, cg)
    a, b = pf, pg
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            break
        if max(r) == 0:
            return cont  # coprime in x
        rp = Polynomial.from_univariate(x, r)
        _, rprim = _content_and_primitive(rp.coeffs_in(x))
        a, b = b, rprim
    gp = Polynomial.from_univariate(x, b)
    _, gprim = _content_and_primitive(gp.coeffs_in(x))
    return cont * Polynomial.from_univariate(x, gprim)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals."""
    if f.is_zero and g.is_zero:
        return _ZERO
    if f.is_zero:
        return _monic(g)
    if g.is_zero:
        return _monic(f)
    if f.is_constant or g.is_constant:
        return _ONE
    return _monic(_gcd_rec(f, g))
