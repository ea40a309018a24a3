import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starricci.frames import build_hopf_context, build_nonhopf_context, ricci, with_shape_operator
from starricci.parsing import parse_expr
from starricci import polynomial, rational, symbols
from starricci.polynomial import Polynomial, poly_gcd
from starricci.proofs import _derivative_bindings, quadratic_elimination
from starricci.rational import Expr
from starricci.symbols import CONSTANT, DERIVATIVE, SymbolTable, SymbolError


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


# "x" < "xy" < "y": names compare as strings, not by length
_ORDER_TABLE = SymbolTable()
_ORDER_SYMS = [_ORDER_TABLE.constant(n) for n in ("x", "xy", "y", "z")]
_MONOMIALS = st.dictionaries(st.sampled_from(_ORDER_SYMS), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items(), key=lambda p: p[0].name)))


@given(st.lists(_MONOMIALS, unique=True, max_size=12))
def test_term_order_matches_dense_grlex(monos):
    p = Polynomial({m: Fraction(i + 1) for i, m in enumerate(monos)})
    names = sorted({s.name for m in monos for s, _ in m})

    def dense(m):  # (total degree, exponent vector over the sorted names)
        exps = {s.name: e for s, e in m}
        vector = tuple(exps.get(n, 0) for n in names)
        return (sum(vector), vector)

    assert [m for m, _ in p.terms] == sorted(monos, key=dense, reverse=True)


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


def _exact_div_over_fractions(p, divisor):
    """Polynomial.exact_div with every leading quotient built as
    Fraction(rc) / dc: the reference for its integral int quotients."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero:
        return Polynomial.zero()
    if divisor.is_constant:
        return p.scale(1 / divisor.constant_value())
    quot = {}
    rem = p
    dm, dc = divisor.leading()
    while not rem.is_zero:
        rm, rc = rem.leading()
        m = polynomial._mono_div_or_none(rm, dm)
        if m is None:
            return None
        c = Fraction(rc) / dc
        quot[m] = quot.get(m, 0) + c
        rem = rem - divisor * Polynomial({m: c})
    return Polynomial(quot)


_DIV_TABLE = SymbolTable()
_DIV_SYMS = [_DIV_TABLE.constant(n) for n in ("x", "y", "z")]
_DIV_COEFFS = st.one_of(st.integers(-12, 12),
                        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
_DIV_MONOS = st.dictionaries(st.sampled_from(_DIV_SYMS), st.integers(1, 2), max_size=2).map(
    lambda exps: tuple(sorted(exps.items())))
_DIV_POLYS = st.dictionaries(_DIV_MONOS, _DIV_COEFFS, max_size=4).map(Polynomial)
# one-term divisors, int or Fraction coefficient: exact_div's one-pass path
_DIV_TERMS = st.builds(lambda m, c: Polynomial({m: c}), _DIV_MONOS, _DIV_COEFFS.filter(bool))


def _typed_terms(p):
    return None if p is None else [(m, type(c), c) for m, c in p.terms]


@given(_DIV_POLYS, st.one_of(_DIV_POLYS.filter(lambda q: not q.is_zero), _DIV_TERMS))
def test_exact_div_matches_the_fraction_reference(p, q):
    # a multiple of q divides; p itself mostly does not (None on both sides)
    for dividend in (p * q, p):
        assert _typed_terms(dividend.exact_div(q)) == \
            _typed_terms(_exact_div_over_fractions(dividend, q))


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


def test_gcd_keeps_pseudo_remainder_coefficients_small(monkeypatch):
    """The primitive remainder sequence divides out numeric content too.

    Without that the rational coefficients double in size at each step: the
    univariate gcd below reached 1211 bits, and this substitution's one gcd
    ran for minutes.  The spy fails the test as soon as a coefficient passes
    256 bits, so a regression fails fast."""
    t = SymbolTable()
    e = parse_expr("(2*x^2*y^2 + 3*x*y^2 - 2)/x^2", t, define_missing=True)
    r = parse_expr("(-(1/3)*x^2*y - (1/3)*x^2 + 1/3)/(x^2 - (2/3)*x - 1/9)", t)
    x, y = t.get("x"), t.get("y")
    real = polynomial._pseudo_rem

    def bounded(f, g):
        for view in (f, g):
            for p in view.values():
                for _m, c in p.terms:
                    assert max(c.numerator.bit_length(), c.denominator.bit_length()) <= 256
        return real(f, g)

    monkeypatch.setattr(polynomial, "_pseudo_rem", bounded)
    f = parse_expr("3*x^8 - (2/3)*x^7 + 5*x^6 - x^5 + (7/2)*x^4 - 2*x^3 + x^2 - (4/5)*x + 1", t).num
    g = parse_expr("2*x^7 + x^6 - (3/2)*x^5 + 4*x^4 - x^3 + (5/3)*x^2 + 3*x - 2", t).num
    h = parse_expr("x^2 - (1/2)*x + 3", t).num
    assert poly_gcd(f * h, g * h) == h
    out = e.substitute({y: r})
    assert out.den == parse_expr("x^2*(x^2 - (2/3)*x - 1/9)^2", t).num
    for xv, yv in ((Fraction(2), Fraction(5)), (Fraction(-3, 7), Fraction(1, 2))):
        point = {x: xv, y: yv}.__getitem__
        rv = r.num.eval_exact(point) / r.den.eval_exact(point)
        ev = e.num.eval_exact({x: xv, y: rv}.__getitem__) / e.den.eval_exact(point)
        assert out.num.eval_exact(point) / out.den.eval_exact(point) == ev


def test_gcd_splits_off_a_symbol_only_one_operand_holds(monkeypatch):
    """gcd(f, g) with y in f only is the gcd of g and f's coefficients in y.

    Run as a remainder sequence over Q[y, z] this took 20 s; the spy fails
    the test as soon as y reaches a pseudo-remainder."""
    t = SymbolTable()
    f = parse_expr(
        "(4/3)*x^6*y^4*z^2 + 2*x^6*y^2*z^4 - (8/3)*x^5*y^4 - 8*x^5*y^2*z^2"
        " - (8/3)*x^4*y^2*z^3 - 2*x^4*z^5 + (2/3)*x^4*y^4 - (2/3)*x^4*y^2*z^2"
        " - 2*x^4*z^4 + 8*x^4*y^2 + (16/3)*x^3*y^2*z + 8*x^3*z^3 + (4/3)*x^2*z^4"
        " + (4/3)*x^3*y^2 + 8*x^3*z^2 - (4/3)*x^2*y^2*z + (2/3)*x^2*z^3"
        " - (5/6)*x^2*y^2 - (2/3)*x^2*z^2 - 8*x^2*z - (8/3)*x*z^2 - 8*x^2"
        " - (4/3)*x*z + (2/3)*z^2 + (4/3)*x + (5/6)*z - (5/2)", t, define_missing=True).num
    g = parse_expr("x^4*z^4 - 4*x^3*z^2 + (19/3)*x^2*z^2 + 4*x^2 - (38/3)*x - (13/12)", t).num
    common = parse_expr("x^2*z - 3", t).num
    y = t.get("y")
    real = polynomial._pseudo_rem

    def free_of_y(a, b):
        for view in (a, b):
            assert all(y not in p.symbols() for p in view.values())
        return real(a, b)

    monkeypatch.setattr(polynomial, "_pseudo_rem", free_of_y)
    assert poly_gcd(f, g) == Polynomial.one()
    assert poly_gcd(g * common, f * common) == common


def test_gcd_splits_off_monomial_factors_and_picks_the_lowest_degree(monkeypatch):
    """f = (36/49)*x^8*y^6*z^2 * (4*y^3*z^3 - 4*x^2*y^3 - z): with the monomial
    split off, y has the least total degree (1 in g), so one
    pseudo-remainder settles it.  A sequence in x over Q[y, z] ran for
    minutes."""
    t = SymbolTable()
    f = parse_expr("(144/49)*x^8*y^9*z^5 - (144/49)*x^10*y^9*z^2 - (36/49)*x^8*y^6*z^3",
                   t, define_missing=True).num
    g = parse_expr("x^11*z^4 - (1/7)*x^7*z^5 - (5/14)*y", t).num
    real = polynomial._pseudo_rem
    calls = []

    def counted(a, b):
        calls.append(1)
        assert len(calls) <= 8
        return real(a, b)

    xy = parse_expr("x^3*y^2", t).num
    assert poly_gcd(f * g, xy * g) == xy * g
    monkeypatch.setattr(polynomial, "_pseudo_rem", counted)
    assert poly_gcd(f, g) == Polynomial.one()
    assert len(calls) == 1


_GCD_TABLE = SymbolTable()
_GCD_SYMS = [_GCD_TABLE.constant(n) for n in ("w", "x", "y", "z")]
_GCD_MONOS = st.dictionaries(st.sampled_from(_GCD_SYMS), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items())))
_GCD_POLYS = st.dictionaries(_GCD_MONOS, _DIV_COEFFS, max_size=4).map(Polynomial)
_GCD_TERMS = st.builds(lambda m, c: Polynomial({m: c}), _GCD_MONOS, _DIV_COEFFS.filter(bool))


@given(_GCD_TERMS, st.one_of(_GCD_TERMS, _GCD_POLYS.filter(lambda q: not q.is_zero)))
def test_gcd_with_a_single_term_is_the_common_monomial(term, other):
    # shared and disjoint symbols, int and Fraction coefficients, both orders
    for f, g in ((term, other), (other, term)):
        expected = polynomial._monic(polynomial._gcd_rec(f, g))
        assert _typed_terms(poly_gcd(f, g)) == _typed_terms(expected)


def test_gcd_with_a_single_term_takes_no_remainder_sequence(monkeypatch):
    def no_sequence(f, g):
        raise AssertionError("a single-term gcd entered _gcd_rec")

    monkeypatch.setattr(polynomial, "_gcd_rec", no_sequence)
    _w, x, y, z = _GCD_SYMS
    f = Polynomial({((x, 2), (y, 1)): Fraction(-3, 2), ((y, 3),): 4})
    assert poly_gcd(f, Polynomial({((x, 1), (y, 2), (z, 1)): Fraction(7, 3)})) == P(y)
    assert poly_gcd(Polynomial({((z, 4),): 5}), f) == Polynomial.one()
    monic = Polynomial({((x, 1),): 1, ((y, 1),): Fraction(2, 3)})
    assert polynomial._monic(monic) is monic


def test_quadratic_elimination_takes_two_closed_form_gcds(monkeypatch):
    quadratic_elimination()  # parses its fixed forms once per process
    gcds, sequences = [], []
    gcd, rec = rational.poly_gcd, polynomial._gcd_rec

    def counted_gcd(f, g):
        gcds.append((f, g))
        return gcd(f, g)

    def counted_rec(f, g):
        sequences.append((f, g))
        return rec(f, g)

    monkeypatch.setattr(rational, "poly_gcd", counted_gcd)
    monkeypatch.setattr(polynomial, "_gcd_rec", counted_rec)
    quadratic_elimination()
    assert len(gcds) == 2 and sequences == []


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
    # constants die, to the shared zero
    assert P(k).derivative("e1").is_zero
    assert P(k).derivative("e1") is Polynomial.zero()
    assert Polynomial.const(3).derivative("e2") is Polynomial.zero()


def _derivative_reference(p, direction):
    """Polynomial.derivative before its per-table memo: every call builds each
    derivative symbol and each lowered monomial again."""
    acc = {}
    for m, c in p.terms:
        for idx, (s, e) in enumerate(m):
            if s.kind == CONSTANT:
                continue
            dsym = s.table.derivative(s, direction)
            lowered = ((s, e - 1),) if e > 1 else ()
            mono = polynomial._mono_mul(m[:idx] + lowered + m[idx + 1:], ((dsym, 1),))
            acc[mono] = acc.get(mono, 0) + c * e
    return Polynomial(acc) if acc else Polynomial.zero()


def _kinded_terms(p):
    return [(tuple((s, s.kind, s.table, e) for s, e in m), type(c), c) for m, c in p.terms]


# functions and constants interleaved by name: "a" is a constant lead symbol
_CALC_TABLE = SymbolTable()
_CALC_SYMS = [_CALC_TABLE.constant("a"), _CALC_TABLE.function("f"),
              _CALC_TABLE.function("g"), _CALC_TABLE.constant("k")]
_CALC_MONOS = st.dictionaries(st.sampled_from(_CALC_SYMS), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items())))
_CALC_POLYS = st.dictionaries(_CALC_MONOS, _DIV_COEFFS, max_size=5).map(Polynomial)


@given(_CALC_POLYS, st.sampled_from(symbols.DIRECTIONS))
def test_derivative_matches_the_reference_loop(p, direction):
    # constants, exponents above 1, Fraction coefficients and monomials mixing
    # constants and functions; the table's memo fills across the examples
    for _ in range(2):
        assert _kinded_terms(p.derivative(direction)) == \
            _kinded_terms(_derivative_reference(p, direction))


def test_a_derivative_symbol_raises_on_every_call():
    t = SymbolTable()
    f, k = t.function("f"), t.constant("k")
    df = t.derivative(f, "e1")
    p = P(k) * P(df) + P(f)
    for _ in range(2):
        with pytest.raises(SymbolError, match="second-order"):
            p.derivative("e2")
    # the failing monomial leads, so nothing is memoized; f alone is
    row = t.monomials.derivatives["e2"]
    assert not row
    assert P(f).derivative("e2") == P(t.derivative(f, "e2"))
    assert list(row) == [((f, 1),)]


def _to_text_reference(p):
    """Polynomial.to_text before its per-table text memo."""
    if not p.terms:
        return "0"
    parts = []
    for i, (m, c) in enumerate(p.terms):
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


@given(st.dictionaries(_CALC_MONOS, st.one_of(_DIV_COEFFS, st.sampled_from([1, -1])),
                       max_size=5).map(Polynomial))
def test_to_text_matches_the_reference_body(p):
    # signs, unit and Fraction coefficients, a constant term, exponents
    assert p.to_text() == _to_text_reference(p)
    assert p.to_text() == _to_text_reference(p)  # from the memo


def test_derivative_symbols_agree_across_sites():
    t = SymbolTable()
    f = t.function("f")
    (mono, _c), = P(f).derivative("e1").terms
    (from_poly, _e), = mono
    from_parser, = parse_expr("D(e1,f)", t).symbols()
    from_bindings = next(s for s in _derivative_bindings(t, "f")
                         if s.name == "D(e1,f)")
    for sym in (from_poly, from_parser, from_bindings):
        assert sym is t.derivative(f, "e1") is t.get("D(e1,f)")
        assert (sym.kind, sym.table, sym.name) == (DERIVATIVE, t, "D(e1,f)")
    with pytest.raises(SymbolError):
        P(from_parser).derivative("e2")
    # a lookup mints nothing, so it works on a frozen table; its three errors
    t.frozen = True
    assert t.derivative(f, "e3") is t.get("D(e3,f)")
    for base, direction, error in (
            (f, "e4", "unknown frame direction 'e4'"),
            (from_parser, "e2", "second-order formal derivative of 'D(e1,f)' is not supported"),
            (SymbolTable().constant("k"), "e1",
             "derivative symbols exist only for function symbols, not 'k'")):
        with pytest.raises(SymbolError, match=re.escape(error)):
            t.derivative(base, direction)


def test_a_context_derivative_symbol_is_the_one_its_table_holds():
    ctx = build_nonhopf_context()
    held = ctx.table.get("D(e1,alpha)")
    from_poly, = ctx.sym("alpha").derivative("e1").symbols()
    from_parser, = ctx.parse("D(e1,alpha)").symbols()
    from_bindings = next(s for s in _derivative_bindings(ctx.table, "alpha")
                         if s.name == "D(e1,alpha)")
    assert held.kind == DERIVATIVE
    assert from_poly is held and from_parser is held and from_bindings is held


# -- symbols are their names; per-table monomial memos ---------------------------

def test_same_name_symbols_are_equal_and_hash_as_their_name():
    a, b = SymbolTable(), SymbolTable()
    f = a.function("f")
    pairs = [
        (f, b.function("f")),
        (a.derivative(f, "e1"), b.derivative(b.function("f"), "e1")),
        (P(f).derivative("e2").terms[0][0][0][0], a.derivative(f, "e2")),
        (parse_expr("cot(2*r)", a, define_missing=True).symbols(),
         parse_expr("cot(2*r)", b, define_missing=True).symbols()),
    ]
    for s, t in pairs:
        assert s == t and hash(s) == hash(t)
    for sym in (f, pairs[1][0], *pairs[3][0]):
        assert sym == sym.name and hash(sym) == hash(sym.name)
        assert {sym: 1}[sym.name] == 1 and {sym.name: 1}[sym] == 1
        assert repr(sym) == f"Symbol({sym.name!r}, {sym.kind})"


def test_ricci_makes_no_python_call_into_symbols():
    # a context of its own: the shared one may hold its Ricci tensor already
    ctx = build_nonhopf_context.__wrapped__()
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == symbols.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        ricci(ctx)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_second_ricci_computes_no_key_and_no_product(monkeypatch):
    misses = Counter()
    for cls in (polynomial._KeyMemo, polynomial._ProductRow):
        def counted(self, key, original=cls.__missing__, name=cls.__name__):
            misses[name] += 1
            return original(self, key)
        monkeypatch.setattr(cls, "__missing__", counted)
    # a context of its own, not the shared one: its table's memos start empty
    ctx = build_nonhopf_context.__wrapped__()
    first = ricci(ctx)
    assert misses["_KeyMemo"] > 0 and misses["_ProductRow"] > 0
    assert ricci(ctx) is first  # computed once per context
    misses.clear()
    # a new context on the same table computes Ricci again, from the memos
    again = with_shape_operator(ctx, ctx.A)
    assert ricci(again) == first and ricci(again) is not first
    assert misses == Counter()


def test_memoized_products_keep_each_tables_kinds():
    # alpha is a function of the non-Hopf frame and a constant of the Hopf
    # frame: a product computed in one must not hand its alpha to the other
    nonhopf, hopf = build_nonhopf_context(), build_hopf_context()
    for _ in range(2):
        assert nonhopf.parse("alpha*c").derivative("e1").to_text() == "D(e1,alpha)*c"
        assert hopf.parse("alpha*c").derivative("e1").is_zero
    # a derivative memoized in one table is not handed to the other: contexts
    # of their own start with empty memos, and either may fill its memo first
    expected = {build_nonhopf_context: "D(e1,alpha)*c", build_hopf_context: "0"}
    for order in ((build_nonhopf_context, build_hopf_context),
                  (build_hopf_context, build_nonhopf_context)):
        for build in order:
            ctx = build.__wrapped__()
            for _ in range(2):
                assert ctx.parse("alpha*c").derivative("e1").to_text() == expected[build]


@given(_DIV_POLYS, st.integers(0, 6))
def test_a_power_equals_repeated_products(p, n):
    # constant terms, fraction coefficients and like terms (x * x^2 and x^2 * x)
    expected = Polynomial.one()
    for _ in range(n):
        expected = expected * p
    assert _typed_terms(p ** n) == _typed_terms(expected)


def test_a_power_of_a_sum_leaves_the_product_memo_small():
    # repeated squaring through the memo left 415,657 monomial pairs, each used once
    table = SymbolTable()
    expr = parse_expr("(x+y)^1000", table, define_missing=True)
    assert len(expr.num.terms) == 1001
    products = table.monomials.products
    assert sum(map(len, products.values())) < 100


@pytest.mark.parametrize("k, n", [(60, 2), (20, 3)])
def test_a_low_power_of_a_wide_sum_equals_repeated_products(k, n):
    # each product takes only the few terms that give it a factor, not all k
    table = SymbolTable()
    p = parse_expr("+".join(f"{i + 1}*v{i}" for i in range(k)) + "+1/2", table,
                   define_missing=True).num
    expected = p
    for _ in range(n - 1):
        expected = expected * p
    assert _typed_terms(p ** n) == _typed_terms(expected)


# The ordered constructor against the canonicalizing one.  The scope's
# constants "a" and "w" sort before the table's "x", "y", "z", so a monomial
# of mixed symbols may lead with either table's symbol.
_ORD_TABLE = SymbolTable()
_ORD_SCOPE = _ORD_TABLE.scope()
_ORD_SYMS = ([_ORD_TABLE.constant(n) for n in ("x", "y", "z")]
             + [_ORD_SCOPE.constant(n) for n in ("a", "w")])
_ORD_MONOS = st.dictionaries(st.sampled_from(_ORD_SYMS), st.integers(1, 2), max_size=3).map(
    lambda exps: tuple(sorted(exps.items())))
# Fractions with a small denominator: products and sums of them are often integral
_ORD_COEFFS = st.one_of(st.integers(-6, 6),
                        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
_ORD_POLYS = st.dictionaries(_ORD_MONOS, _ORD_COEFFS, max_size=5).map(Polynomial)
# one term, a constant among them
_ORD_TERMS = st.builds(lambda m, c: Polynomial({m: c}), _ORD_MONOS, _ORD_COEFFS.filter(bool))


def _mono_product(a, b):
    exps = dict(a)
    for s, e in b:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items()))


def _dict_sum(*parts):
    """Polynomial(acc) of the sum of k * p over the pairs (k, p) of parts."""
    acc = {}
    for k, p in parts:
        for m, c in p.terms:
            acc[m] = acc.get(m, 0) + k * c
    return Polynomial(acc)


def _dict_product(p, q):
    acc = {}
    for ma, ca in p.terms:
        for mb, cb in q.terms:
            m = _mono_product(ma, mb)
            acc[m] = acc.get(m, 0) + ca * cb
    return Polynomial(acc)


def _assert_same(got, ref):
    """got equals the canonicalizing constructor's ref in every slot."""
    assert got.__class__ is Polynomial
    assert _typed_terms(got) == _typed_terms(ref)
    assert (got == ref, hash(got), got.scaled()) == (True, hash(ref), ref.scaled())
    assert got.to_text() == ref.to_text()


@settings(max_examples=300, deadline=None)
@given(_ORD_POLYS, _ORD_POLYS, _ORD_TERMS, _ORD_COEFFS.filter(bool),
       st.sampled_from(_ORD_SYMS))
def test_ordered_results_equal_the_canonicalizing_constructor(p, q, t, k, sym):
    (tm, tc), = t.terms
    # sums, one that cancels in part (q - p) and ones that cancel to zero
    partly = _dict_sum((1, q), (-1, p))
    for a, b in ((p, q), (q, p), (p, partly), (p, p), (p, -p), (t, p), (p, t)):
        _assert_same(a + b, _dict_sum((1, a), (1, b)))
        _assert_same(a - b, _dict_sum((1, a), (-1, b)))
    for zero in (p - p, p + -p, -p + p):
        assert zero.is_zero and zero == Polynomial.zero()
    _assert_same(-p, Polynomial({m: -c for m, c in p.terms}))
    _assert_same(p.scale(k), Polynomial({m: c * k for m, c in p.terms}))
    _assert_same(p.scale(1 / Fraction(k)), Polynomial({m: c / Fraction(k) for m, c in p.terms}))
    # a product with one term, on either side: each side fills its own memo row
    for product, (first, second) in ((t * p, (t, p)), (p * t, (p, t))):
        _assert_same(product, _dict_product(t, p))
        if p.terms and (first.terms[0][0] or second.terms[0][0]):
            lead = (first.terms[0][0] or second.terms[0][0])[0][0]
            rows = polynomial._memos(lead).products
            for ma, _c in first.terms:
                assert {mb for mb, _c in second.terms} <= set(rows[ma])
    # a quotient by a term, the common monomial split off, the coefficients
    # in a symbol
    quotient = {}
    for m, c in (p * t).terms:
        quotient[polynomial._mono_div_or_none(m, tm)] = Fraction(c) / tc
    _assert_same((p * t).exact_div(t), Polynomial(quotient))
    assert (p * t).exact_div(t) == p
    if tm and not p.is_zero:
        shifted = p * Polynomial({tm: 1})
        _assert_same(polynomial._mono_quotient(shifted, tm), Polynomial(dict(p.terms)))
    buckets = {}
    for m, c in p.terms:
        e = dict(m).get(sym, 0)
        buckets.setdefault(e, {})[tuple((s, x) for s, x in m if s != sym)] = c
    got = p.coeffs_in(sym)
    assert list(got) == list(buckets)
    for e, d in buckets.items():
        _assert_same(got[e], Polynomial(d))
    # the two constructors of one term
    _assert_same(Polynomial.const(k), Polynomial({(): Fraction(k)}))
    _assert_same(Polynomial.const(Fraction(2 * k, 2)), Polynomial({(): k}))
    _assert_same(Polynomial.from_symbol(sym), Polynomial({((sym, 1),): 1}))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), _ORD_POLYS, _ORD_POLYS), max_size=4),
       st.booleans(), st.sets(st.sampled_from(_ORD_SYMS), max_size=3))
def test_ordered_dot_and_zero_substitution_equal_the_general_paths(triples, cancel, zeros):
    # dot: its sorted accumulator against the sum of products in one dict
    if cancel:
        triples = triples + [(-k, a, b) for k, a, b in triples]
    got = rational.dot([(k, Expr(a), Expr(b)) for k, a, b in triples])
    ref = _dict_sum(*((k, _dict_product(a, b)) for k, a, b in triples))
    _assert_same(got.num, ref)
    assert got.den is Polynomial.one()
    # substituting zeros keeps the terms free of the bound symbols, in order
    p = ref if triples else Polynomial.one()
    table = {s: Expr.zero() for s in zeros}
    num, den = rational._substitute_poly(p, table)
    assert den == Polynomial.one()
    sub = Expr(p).substitute({s: 0 for s in zeros})
    _assert_same(sub.num, num)
    assert sub.den is Polynomial.one()
