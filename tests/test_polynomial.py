from fractions import Fraction

import pytest

from starricci.parsing import parse_expr
from starricci.polynomial import Polynomial, poly_gcd
from starricci.proofs import _derivative_bindings
from starricci.rational import Expr
from starricci.symbols import DERIVATIVE, SymbolTable, SymbolError


@pytest.fixture
def syms():
    t = SymbolTable()
    return t, t.constant("x"), t.constant("y"), t.constant("z")


def P(sym):
    return Polynomial.from_symbol(sym)


def test_monomial_order_graded_lex(syms):
    _, x, y, z = syms
    # x^2 > x*y > y^2 > x > y > 1 (degree first, then x is the most
    # significant variable by name)
    chain = [P(x) * P(x), P(x) * P(y), P(y) * P(y), P(x), P(y), Polynomial.one()]
    total = sum(chain[1:], chain[0])
    monos = [m for m, _ in total.terms]
    expected = [p.leading()[0] for p in chain]
    assert monos == expected


def test_mixed_support_order(syms):
    _, x, y, z = syms
    # same degree, disjoint support: x*z beats y^2 because x is more significant
    p = P(x) * P(z) + P(y) * P(y)
    assert p.leading()[0] == (P(x) * P(z)).leading()[0]


def test_zero_and_constant_normalization(syms):
    _, x, y, _ = syms
    assert (P(x) - P(x)).is_zero
    assert Polynomial.const(0).is_zero
    assert Polynomial.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert (P(x) * P(y) - P(y) * P(x)).is_zero


def test_arithmetic_ring_identities(syms):
    _, x, y, z = syms
    a = P(x) + Polynomial.const(2) * P(y)
    b = P(y) * P(z) - Polynomial.one()
    c = P(z) ** 2 + P(x)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * (a - b) == a * a - b * b
    assert a ** 3 == a * a * a


def test_exact_division(syms):
    _, x, y, _ = syms
    f = (P(x) + P(y)) * (P(x) - P(y))
    assert f.exact_div(P(x) + P(y)) == P(x) - P(y)
    assert f.exact_div(P(x) + Polynomial.one()) is None
    assert Polynomial.zero().exact_div(P(x)) == Polynomial.zero()
    with pytest.raises(ZeroDivisionError):
        f.exact_div(Polynomial.zero())


def test_gcd_univariate(syms):
    _, x, _, _ = syms
    f = P(x) ** 2 - Polynomial.one()
    g = P(x) - Polynomial.one()
    assert poly_gcd(f, g) == g


def test_gcd_multivariate_common_factor(syms):
    _, x, y, z = syms
    common = P(x) * P(y) + P(z) + Polynomial.const(2)
    f = common * (P(x) + P(y))
    g = common * (P(z) ** 2 - P(y))
    got = poly_gcd(f, g)
    # monic normalization: leading coefficient 1
    assert got.leading()[1] == 1
    assert f.exact_div(got) is not None and g.exact_div(got) is not None
    assert got.exact_div(common) is not None


def test_gcd_coprime(syms):
    _, x, y, _ = syms
    assert poly_gcd(P(x) + Polynomial.one(), P(y)) == Polynomial.one()
    assert poly_gcd(P(x), Polynomial.const(7)) == Polynomial.one()


def test_gcd_randomized_products():
    import random

    rng = random.Random(20240917)
    t = SymbolTable()
    vars_ = [t.constant(n) for n in ("x", "y", "z")]

    def rand_poly():
        p = Polynomial.const(rng.randint(1, 3))
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(vars_)
            p = p * P(v) + Polynomial.const(rng.randint(-2, 2))
        return p

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = poly_gcd(f * g, f * h)
        # f divides both, so it divides their gcd
        assert d.exact_div(poly_gcd(f, f)) is not None
        assert (f * g).exact_div(d) is not None
        assert (f * h).exact_div(d) is not None


def test_derivative_kinds():
    t = SymbolTable()
    f = t.function("f")
    k = t.constant("k")
    p = P(f) * P(f) * P(k)
    d = p.derivative("e1")
    df = t.derivative(f, "e1")
    assert d == Polynomial.const(2) * P(f) * P(k) * P(df)
    # derivative of the derivative symbol is unsupported
    with pytest.raises(SymbolError):
        P(df).derivative("e2")
    # constants die
    assert P(k).derivative("e1").is_zero


def test_derivative_symbols_agree_across_sites():
    t = SymbolTable()
    f = t.function("f")
    (mono, _c), = P(f).derivative("e1").terms
    (from_poly, _e), = mono
    from_parser, = parse_expr("D(e1,f)", t).symbols()
    from_bindings = next(s for s in _derivative_bindings(t, "f", Expr.zero())
                         if s.name == "D(e1,f)")
    for sym in (from_poly, from_parser, from_bindings):
        assert sym == from_parser
        assert (sym.kind, sym.direction, sym.base) == (DERIVATIVE, "e1", "f")
    with pytest.raises(SymbolError):
        P(from_parser).derivative("e2")
    with pytest.raises(SymbolError):
        t.derivative(from_parser, "e2")
