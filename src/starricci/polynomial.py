"""Sparse multivariate polynomials over exact rationals.

Monomials are tuples of (symbol, exponent) pairs sorted by symbol name.
The term order is graded lexicographic: higher total degree first, ties
broken by comparing exponents variable by variable with names in ascending
order (the alphabetically earliest name is the most significant variable).
The order is fixed and global, so every polynomial has one canonical form
and structural equality coincides with mathematical equality.

``Polynomial(dict)`` is the canonicalizing constructor: it drops zero
coefficients and sorts the terms by the key memo.  A result whose term order
follows from its operands is built by ``_ordered`` from a term tuple that is
already canonical, with no dict and no sort.  Grlex is compatible with
multiplication, so multiplying or dividing every term by one monomial keeps
their order, and so does dropping terms: a negation or a scaling, a product
with a one-term factor, a quotient by a term or by the common monomial, the
coefficients in one symbol, a constant and a symbol are built in order.  A
sum is one ordered merge of the two term tuples, and a difference the sum
with the negation.  Products of several terms, powers, derivatives, general
substitution and the gcd pieces go through the constructor.

A coefficient is an ``int`` when it is integral and a ``Fraction`` otherwise,
so most term arithmetic is integer arithmetic in C.  Every coefficient
division divides a ``Fraction``, so none yields a float; ``constant_value``
returns a ``Fraction``.  ``scaled()`` gives the coefficients as ints over
their least common denominator, computed once per polynomial, so that a sum
of products (``rational.dot``) can be accumulated in ints.

Each SymbolTable carries memos of the monomials in its symbols: the grlex
sort key of a monomial, the product of two monomials, the derivative terms of
a monomial along each frame direction and the text of a monomial are computed
once and then looked up in C.  They hold monomials, ints and strings only,
never a Polynomial or an Expr, and live as long as the table.  A product or a
derivative is memoized per table, not globally, because it holds the symbols
it was first computed from, and two tables may give one name different kinds
(a derivative exists only for a function symbol).  A polynomial reaches the
memos through the table of its first monomial's lead symbol.  A power
expands by multinomial coefficients into one dict and takes no product from
the memo, since each of its monomial pairs is met once.

GCDs are computed with the primitive pseudo-remainder sequence, recursing on
the number of variables; this is all the factorization the canonical
fraction layer needs.  Primitive parts have integer, coprime coefficients.
With a single-term operand the gcd is the largest common monomial.  Before
any sequence runs, monomial factors are split off, and so is a symbol that
only one operand holds (the gcd is then that of the other operand and the
coefficients); the sequence then runs in the variable of least degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Callable, Mapping, Optional, Union

from .symbols import CONSTANT, Symbol

Mono = tuple  # tuple[tuple[Symbol, int], ...]
Coeff = Union[int, Fraction]  # an int when integral, else a Fraction

_EMPTY: Mono = ()


class _KeyMemo(dict):
    """Monomial -> ascending sort key for descending grlex, computed on the
    first lookup: higher degree first, then the earliest name, then the
    larger exponent.  At equal degree neither monomial is a strict prefix of
    the other, so the keys never tie early."""

    def __missing__(self, m: Mono) -> tuple:
        key = self[m] = (-sum(e for _, e in m), tuple((s.name, -e) for s, e in m))
        return key


class _ProductRow(dict):
    """Monomial b -> a * b for one monomial a, computed on the first lookup."""

    __slots__ = ("a",)

    def __init__(self, a: Mono):
        self.a = a

    def __missing__(self, b: Mono) -> Mono:
        a = self.a
        if not a or not b:
            m = a or b
        else:
            merged = dict(a)
            for s, e in b:
                merged[s] = merged.get(s, 0) + e
            m = tuple([(s, merged[s]) for s in sorted(merged)])
        self[b] = m
        return m


class _DerivativeRow(dict):
    """Monomial m -> the terms ((m', e), ...) of its derivative along one
    direction, computed on the first lookup: each function symbol s^e of m
    gives e * (m / s) * D(direction, s) of s's table.  A monomial holding a
    derivative symbol raises SymbolError on every lookup: nothing is stored."""

    __slots__ = ("direction",)

    def __init__(self, direction: str):
        self.direction = direction

    def __missing__(self, m: Mono) -> tuple:
        terms = []
        for idx, (s, e) in enumerate(m):
            if s.kind == CONSTANT:
                continue
            dsym = s.table.derivative(s, self.direction)
            lowered = ((s, e - 1),) if e > 1 else _EMPTY
            terms.append((_mono_mul(m[:idx] + lowered + m[idx + 1:], ((dsym, 1),)), e))
        out = self[m] = tuple(terms)
        return out


class _TextMemo(dict):
    """Monomial -> its text, such as alpha*gamma^2, computed on the first lookup."""

    def __missing__(self, m: Mono) -> str:
        text = self[m] = "*".join([s.name if e == 1 else f"{s.name}^{e}" for s, e in m])
        return text


class _Rows(dict):
    """Key -> row(key), a memo of its own, made on the first lookup."""

    __slots__ = ("row",)

    def __init__(self, row: type):
        self.row = row

    def __missing__(self, key):
        row = self[key] = self.row(key)
        return row


class _Memos:
    """The memos of one SymbolTable (see SymbolTable.monomials): products
    by first factor, derivatives by direction."""

    __slots__ = ("keys", "products", "derivatives", "texts")

    def __init__(self) -> None:
        self.keys = _KeyMemo()
        self.products = _Rows(_ProductRow)
        self.derivatives = _Rows(_DerivativeRow)
        self.texts = _TextMemo()


def _memos(sym: Symbol) -> _Memos:
    """The memos of sym's table, which serve every monomial holding sym."""
    table = sym.table
    memos = table.monomials
    if memos is None:
        memos = table.monomials = _Memos()
    return memos


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    return _memos(a[0][0]).products[a][b]

def _mono_div_or_none(b: Mono, a: Mono) -> Optional[Mono]:
    """b / a, or None when a does not divide b."""
    eb = dict(b)
    for s, e in a:
        d = eb.get(s, 0) - e
        if d < 0:
            return None
        if d:
            eb[s] = d
        else:
            del eb[s]
    return tuple(eb.items())

class Polynomial:
    """Canonical sparse polynomial: terms sorted descending, no zero coeffs."""

    __slots__ = ("terms", "_hash", "_scaled")

    terms: tuple  # tuple[tuple[Mono, Coeff], ...]

    def __init__(self, terms: Mapping[Mono, Coeff]):
        kept = {m: c if c.__class__ is int or c.denominator != 1 else c.numerator
                for m, c in terms.items() if c}
        if len(kept) > 1:
            it = iter(kept)
            keys = _memos((next(it) or next(it))[0][0]).keys  # at most one is ()
            ordered = tuple([(m, kept[m]) for m in sorted(kept, key=keys.__getitem__)])
        else:
            ordered = tuple(kept.items())
        object.__setattr__(self, "terms", ordered)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_scaled", None)

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
        c = value if value.__class__ is int else _coeff(Fraction(value))
        return _ordered(((_EMPTY, c),)) if c else _ZERO

    @staticmethod
    def from_symbol(sym: Symbol) -> "Polynomial":
        return _ordered(((((sym, 1),), 1),))

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
        return Fraction(self.terms[0][1])

    # -- structure ---------------------------------------------------------

    def leading(self) -> tuple[Mono, Coeff]:
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
        # the terms of one exponent keep their order once sym^e is divided out
        buckets: dict[int, list] = {}
        for m, c in self.terms:
            e = 0
            rest = []
            for s, k in m:
                if s == sym:
                    e = k
                else:
                    rest.append((s, k))
            buckets.setdefault(e, []).append((tuple(rest), c))
        return {e: _ordered(tuple(b)) for e, b in buckets.items()}

    @staticmethod
    def from_univariate(sym: Symbol, coeffs: Mapping[int, "Polynomial"]) -> "Polynomial":
        acc: dict[Mono, Coeff] = {}
        for e, p in coeffs.items():
            shift: Mono = ((sym, e),) if e else _EMPTY
            for m, c in p.terms:
                key = _mono_mul(m, shift)
                acc[key] = acc.get(key, 0) + c
        return Polynomial(acc)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """One ordered merge of the two term tuples: equal monomials (by ==,
        as dict keys) add, keeping self's monomial, and a sum that cancels
        leaves its monomial out."""
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        lead = a[0][0] or b[0][0]  # () sorts last: no lead means two constants
        key = _memos(lead[0][0]).keys.__getitem__ if lead else None
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ma, ca), (mb, cb) = a[i], b[j]
            if ma == mb:
                c = ca + cb
                if c:
                    out.append((ma, _coeff(c)))
                i += 1
                j += 1
            elif key(ma) < key(mb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out += a[i:] or b[j:]
        return _ordered(tuple(out)) if out else _ZERO

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        if not self.terms:
            return _ZERO
        return _ordered(tuple([(m, -c) for m, c in self.terms]))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        if self.is_zero or other.is_zero:
            return _ZERO
        lead = self.terms[0][0] or other.terms[0][0]
        if not lead:
            return _ordered(((_EMPTY, _coeff(self.terms[0][1] * other.terms[0][1])),))
        products = _memos(lead[0][0]).products
        # a product with one term keeps the order of the other factor's terms
        if len(self.terms) == 1:
            (ma, ca), = self.terms
            row = products[ma]
            return _ordered(tuple([(row[mb], _coeff(ca * cb)) for mb, cb in other.terms]))
        if len(other.terms) == 1:
            (mb, cb), = other.terms
            return _ordered(tuple([(products[ma][mb], _coeff(ca * cb))
                                   for ma, ca in self.terms]))
        acc: dict[Mono, Coeff] = {}
        for ma, ca in self.terms:
            row = products[ma]
            for mb, cb in other.terms:
                m = row[mb]
                acc[m] = acc.get(m, 0) + ca * cb
        return Polynomial(acc)

    def scale(self, k: Coeff) -> "Polynomial":
        if not k or not self.terms:
            return _ZERO
        return _ordered(tuple([(m, _coeff(c * k)) for m, c in self.terms]))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return _ONE
        if n == 1 or self is _ONE or not self.terms:
            return self
        return self._multinomial_pow(n)

    def _multinomial_pow(self, n: int) -> "Polynomial":
        """self ** n, n >= 2, expanded by multinomial coefficients into one
        dict.  A product of n terms is a choice of how many factors e each
        term takes, each term after those already chosen taking e of the
        `left` factors in comb(left, e) ways; the last term takes all that
        are left.  The choices are walked depth first over the terms that
        take at least one factor, so a product costs the few terms in it, not
        every term of the base, and like products merge in the result.  No
        monomial pair goes through the product memo, which the pairs of a
        power, each met once, would only fill."""
        d, terms = self.scaled()  # int coefficients over d: the power is over d ** n
        last = len(terms) - 1
        acc: dict = {}
        stack = [(0, n, 1, {})]  # next term, factors left, coefficient, exponents
        while stack:
            start, left, coeff, exps = stack.pop()
            for k in range(start, last + 1):
                m, c = terms[k]
                for e in (left,) if k == last else range(1, left + 1):
                    grown = dict(exps)
                    for s, x in m:
                        grown[s] = grown.get(s, 0) + e * x
                    ce = coeff * math.comb(left, e) * c ** e
                    if e == left:
                        key = tuple(sorted(grown.items()))
                        acc[key] = acc.get(key, 0) + ce
                    else:
                        stack.append((k + 1, left - e, ce, grown))
        dn = d ** n
        return Polynomial({m: c if dn == 1 else Fraction(c, dn) for m, c in acc.items()})

    def scaled(self) -> tuple:
        """(d, terms): d the least common denominator of the coefficients and
        terms the pairs (m, d * c), whose coefficients are ints.  Computed on
        the first call and then kept, like the hash."""
        out = self._scaled
        if out is None:
            d = 1
            for _m, c in self.terms:
                if c.__class__ is not int:
                    d = math.lcm(d, c.denominator)
            terms = self.terms if d == 1 else tuple([
                (m, c * d if c.__class__ is int else c.numerator * (d // c.denominator))
                for m, c in self.terms])
            out = (d, terms)
            object.__setattr__(self, "_scaled", out)
        return out

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
        if len(divisor.terms) == 1:  # a term: one pass, no remainder
            (dm, dc), = divisor.terms
            terms = []
            for rm, rc in self.terms:
                m = _mono_div_or_none(rm, dm)
                if m is None:
                    return None
                if rc.__class__ is int and dc.__class__ is int and not rc % dc:
                    terms.append((m, rc // dc))
                else:
                    terms.append((m, _coeff(Fraction(rc) / dc)))
            return _ordered(tuple(terms))
        quot: dict[Mono, Coeff] = {}
        rem = self
        dm, dc = divisor.leading()
        while not rem.is_zero:
            rm, rc = rem.leading()
            m = _mono_div_or_none(rm, dm)
            if m is None:
                return None
            # an integral quotient of two ints stays an int: no Fraction is built
            if rc.__class__ is int and dc.__class__ is int and not rc % dc:
                c = rc // dc
            else:
                c = Fraction(rc) / dc
            quot[m] = quot.get(m, 0) + c
            rem = rem - divisor * Polynomial({m: c})
        return Polynomial(quot)

    # -- calculus / evaluation --------------------------------------------

    def derivative(self, direction: str) -> "Polynomial":
        """Formal derivation along a frame direction.

        Constants vanish, function symbols become D(direction, .) symbols.
        """
        terms = self.terms
        if not terms or not terms[0][0]:  # a constant
            return _ZERO
        row = _memos(terms[0][0][0][0]).derivatives[direction]
        acc: dict[Mono, Coeff] = {}
        for m, c in terms:
            for dm, e in row[m]:
                acc[dm] = acc.get(dm, 0) + c * e
        return Polynomial(acc) if acc else _ZERO

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
        terms = self.terms
        if not terms:
            return "0"
        lead = terms[0][0]
        texts = _memos(lead[0][0]).texts if lead else None  # None: a constant
        parts: list[str] = []
        for m, c in terms:
            if c.__class__ is int:
                sign = "- " if c < 0 else "+ "
                if m and (c == 1 or c == -1):
                    parts.append(sign + texts[m])
                    continue
                coeff = str(abs(c))
            else:  # a Fraction, whose denominator is not 1
                n = c.numerator
                sign = "- " if n < 0 else "+ "
                coeff = f"({abs(n)}/{c.denominator})"
            parts.append(f"{sign}{coeff}*{texts[m]}" if m else sign + coeff)
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]  # the first sign is bare

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


_ZERO = Polynomial({})
_ONE = Polynomial({_EMPTY: 1})
_new = object.__new__
_set_terms = Polynomial.terms.__set__
_set_hash, _set_scaled = Polynomial._hash.__set__, Polynomial._scaled.__set__


def _coeff(c: Coeff) -> Coeff:
    """c as the constructor stores it: an int when integral."""
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


def _ordered(terms: tuple) -> Polynomial:
    """The Polynomial of `terms`, built without the canonicalizing constructor.

    `terms` must already be canonical: not empty, sorted by the grlex key,
    with nonzero coefficients, each an int when integral (see the module
    docstring for the results that are).  The result is equal in every slot
    to Polynomial(dict(terms)).
    """
    out = _new(Polynomial)
    _set_terms(out, terms)
    _set_hash(out, None)
    _set_scaled(out, None)
    return out


def _monic(p: Polynomial) -> Polynomial:
    lc = p.terms[0][1] if p.terms else 1
    return p if lc == 1 else p.scale(1 / Fraction(lc))


def _content_and_primitive(coeffs: dict[int, Polynomial]) -> tuple[Polynomial, dict[int, Polynomial]]:
    """Split a univariate view into its content and its primitive part.

    The content is the gcd of the coefficients, up to a rational factor.  The
    primitive part also has its numeric content divided out (integer, coprime
    coefficients), so pseudo-remainders stay small: without that the
    rational coefficients grow exponentially along the sequence."""
    cont = reduce(_gcd_rec, coeffs.values())
    prim = coeffs
    if not cont.is_constant:
        prim = {}
        for e, p in coeffs.items():
            q = p.exact_div(cont)
            assert q is not None, "content must divide every coefficient"
            prim[e] = q
    num, den = 0, 1
    for p in prim.values():
        for _m, c in p.terms:
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
    if num != 1 or den != 1:
        k = Fraction(den, num)
        prim = {e: p.scale(k) for e, p in prim.items()}
    return (_ONE if cont.is_constant else cont), prim


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


def _mono_content(p: Polynomial) -> Mono:
    """The largest monomial dividing every term of p."""
    (m0, _c), *rest = p.terms
    low = dict(m0)
    for m, _c in rest:
        exps = dict(m)
        low = {s: min(e, exps[s]) for s, e in low.items() if s in exps}
        if not low:
            return _EMPTY
    return tuple(sorted(low.items(), key=lambda q: q[0].name))


def _mono_quotient(p: Polynomial, m: Mono) -> Polynomial:
    # m is the common monomial of p's terms, so it divides each of them
    return _ordered(tuple([(_mono_div_or_none(t, m), c) for t, c in p.terms])) if m else p


def _gcd_rec(f: Polynomial, g: Polynomial) -> Polynomial:
    """The gcd of nonzero f and g, up to a rational factor."""
    if f.is_constant or g.is_constant:
        return _ONE
    mf, mg = _mono_content(f), _mono_content(g)
    if mf or mg:
        # a polynomial with no monomial factor is coprime to every monomial
        eg = dict(mg)
        common = tuple((s, min(e, eg[s])) for s, e in mf if s in eg)
        rest = _gcd_rec(_mono_quotient(f, mf), _mono_quotient(g, mg))
        return rest * Polynomial({common: 1}) if common else rest
    fs, gs = f.symbols(), g.symbols()
    for p, q, own in ((f, g, fs - gs), (g, f, gs - fs)):
        if own:
            # q is free of s, so gcd(p, q) is the gcd of q and p's
            # coefficients in s: smaller inputs, one variable fewer
            s = min(own, key=lambda t: t.name)
            out = q
            for c in p.coeffs_in(s).values():
                out = _gcd_rec(out, c)
                if out.is_constant:
                    return _ONE
            return out
    # the sequence is at most as long as the lower degree: take the
    # variable of least total degree
    x = min(fs, key=lambda t: (f.degree_in(t) + g.degree_in(t), t.name))
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
    if f.is_zero or g.is_zero:
        return _monic(g if f.is_zero else f)
    if len(f.terms) == 1 or len(g.terms) == 1:  # a constant or a monomial
        ef = dict(_mono_content(f))
        common = tuple((s, min(e, ef[s])) for s, e in _mono_content(g) if s in ef)
        return Polynomial({common: 1}) if common else _ONE
    return _monic(_gcd_rec(f, g))
