import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starricci import quadratic, rational
from starricci.frames import build_hopf_context
from starricci.parsing import ExprSyntaxError, UnknownIdentifierError, parse_expr
from starricci.polynomial import Polynomial, _memos, _mono_mul, poly_gcd
from starricci.proofs import BASIC_RELATION_TEXT, DISCRIMINANT_TEXT, quadratic_elimination
from starricci.quadratic import (
    InconsistentEquationError,
    QuadraticError,
    QuadraticRoot,
    solve_quadratic,
)
from starricci.rational import (
    NUMERIC_FUNCTIONS,
    DivisionByZeroExpr,
    Expr,
    ExprError,
    NearZeroDenominator,
    UnboundSymbolError,
    compile_sweep,
)
from starricci.symbols import SymbolTable


@pytest.fixture
def table():
    t = SymbolTable()
    for name in ("x", "y", "z", "a", "v", "c"):
        t.constant(name)
    return t


# -- parsing and canonical form ------------------------------------------------

def test_parse_zero_is_the_zero_expr(table):
    assert parse_expr("0", table) == Expr.zero()
    assert parse_expr("x - x", table) == Expr.zero()
    assert parse_expr("0/(x+1)", table) == Expr.zero()


def test_parse_quadratic_degree(table):
    e = parse_expr("2*a*v^2 + 5*c*v - 2*a*c", table)
    assert e.degree_in(table.get("v")) == 2
    assert e.is_polynomial()


def test_rational_function_cancellation(table):
    assert parse_expr("(x^2-1)/(x-1)", table) == parse_expr("x+1", table)
    # cross-check by numeric evaluation at rational points away from the pole
    e = parse_expr("(x^2-1)/(x-1)", table)
    rng = random.Random(7)
    for _ in range(5):
        x = Fraction(rng.randint(2, 50), rng.randint(1, 7))
        assert e.eval_exact({"x": x}) == x + 1


def test_canonical_equality_vs_association(table):
    a = parse_expr("(x + y) + z", table)
    b = parse_expr("x + (z + y)", table)
    assert a == b and hash(a) == hash(b)
    p = parse_expr("(x*y)*(z*x)", table)
    q = parse_expr("x*(y*(x*z))", table)
    assert p == q


def test_simplify_trivial_cancellations(table):
    assert parse_expr("-1 + 1", table).is_zero
    t = SymbolTable()
    t.constant("beta"), t.constant("mu")
    assert parse_expr("beta*mu - mu*beta", t).is_zero


def test_boundary_discriminant_value(table):
    e = parse_expr("25*c^2 + 16*a^2*c", table)
    bound = e.substitute({table.get("c"): Expr.const(-4),
                          table.get("a"): Expr.const(Fraction(5, 2))})
    assert bound.is_zero


def test_print_reparse_roundtrip(table):
    texts = [
        "0", "1", "x", "-x", "2*a*v^2 + 5*c*v - 2*a*c",
        "(x^2-1)/(x-1)", "(x + y)^3/(y - 7)", "1/3 + x/2", "x^2*y - y^2*x",
        "-(c/4)", "25/4",
    ]
    for text in texts:
        e = parse_expr(text, table)
        assert parse_expr(e.to_text(), table) == e


def test_roundtrip_with_derivative_and_applied_atoms():
    t = SymbolTable()
    t.function("alpha")
    t.constant("r")
    e = parse_expr("D(e1, alpha)^2 - cot(2*r)", t)
    assert parse_expr(e.to_text(), t) == e


def test_derivative_syntax(table):
    t = SymbolTable()
    f = t.function("f")
    k = t.constant("k")
    assert parse_expr("D(e2, k)", t).is_zero  # derivative of a constant
    e = parse_expr("D(e2, f)", t)
    assert e == Expr.from_symbol(t.derivative(f, "e2"))
    with pytest.raises(ExprSyntaxError):
        parse_expr("D(e2, D(e1, f))", t)
    with pytest.raises(ExprSyntaxError):
        parse_expr("D(e4, f)", t)


def test_parse_errors_carry_position(table):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + * y", table)
    assert err.value.pos == 4
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x + nope", table)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + y)", table)
    with pytest.raises(ExprSyntaxError):
        parse_expr("frob(x)", table)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x $ y", table)


@pytest.mark.parametrize("text, pos", [
    ("$", 0), ("a $", 2), ("x $ y", 2), ("x +\t  #", 6), ("(x)\n?", 4), ("x+ y @", 5),
])
def test_unexpected_character_is_reported_at_its_own_position(table, text, pos):
    # the error names the offending character, not the whitespace before it
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, table)
    assert err.value.pos == pos
    assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"


def test_surrounding_whitespace_still_parses(table):
    expected = parse_expr("x + 2*y", table)
    for text in ("x + 2*y ", "  x+2 * y\t\n", "\nx\t+ 2*y   "):
        assert parse_expr(text, table) == expected


def test_define_missing_registers_constants():
    t = SymbolTable()
    e = parse_expr("p*q + 1", t, define_missing=True)
    assert t.get("p") is not None and t.get("q") is not None
    assert e.eval({"p": 2.0, "q": 3.0}) == 7.0


# -- substitution ----------------------------------------------------------------

def test_substitute_examples():
    t = SymbolTable()
    for n in ("c", "gamma", "mu", "delta"):
        t.constant(n)
    e = parse_expr("c + gamma*mu - delta^2", t)
    assert e.substitute({t.get("delta"): Expr.zero()}) == parse_expr("c + gamma*mu", t)
    # identity bindings change nothing
    assert e.substitute({t.get("c"): Expr.from_symbol(t.get("c"))}) == e


def test_substitute_clears_to_quadratic_multiple():
    t = SymbolTable()
    for n in ("alpha", "lambda", "nu", "c"):
        t.constant(n)
    basic = parse_expr("lambda*nu - (alpha/2)*(lambda + nu) - c/4", t)
    lam = t.get("lambda")
    sub = basic.substitute({lam: parse_expr("-c/nu", t)})
    target = parse_expr("2*alpha*nu^2 + 5*c*nu - 2*alpha*c", t)
    q = sub.num.exact_div(target.num)
    assert q is not None and q.is_constant and q.constant_value() == Fraction(-1, 4)


def test_substitute_composition_with_disjoint_domains(table):
    x, y, z = (table.get(n) for n in ("x", "y", "z"))
    e = parse_expr("x^2*y + z/(y+1)", table)
    m1 = {x: parse_expr("z + 1", table)}
    m2 = {y: Expr.const(3)}
    once = e.substitute(m1).substitute(m2)
    merged = dict(m1)
    merged.update(m2)
    assert once == e.substitute(merged)


def test_substitution_vanishing_denominator_raises(table):
    e = parse_expr("1/x", table)
    with pytest.raises(DivisionByZeroExpr):
        e.substitute({table.get("x"): Expr.zero()})


# -- numeric evaluation ----------------------------------------------------------

def test_eval_examples():
    t = SymbolTable()
    for n in ("alpha", "lambda", "nu", "c"):
        t.constant(n)
    basic = parse_expr("lambda*nu - (alpha/2)*(lambda + nu) - c/4", t)
    assert basic.eval({"alpha": 2, "lambda": 1, "nu": 1, "c": -4}) == pytest.approx(0.0, abs=1e-15)
    assert parse_expr("c", t).eval({"c": 4}) == 4.0
    e = parse_expr("lambda*(c + lambda*nu)", t)
    assert e.eval({"lambda": 1, "nu": -4, "c": 4}) == pytest.approx(0.0, abs=1e-15)


def test_eval_errors(table):
    e = parse_expr("x + y", table)
    with pytest.raises(UnboundSymbolError):
        e.eval({"x": 1.0})
    with pytest.raises(NearZeroDenominator):
        parse_expr("1/x", table).eval({"x": 1e-15})
    # a non-finite binding, a pole and an overflow are ExprErrors, not values
    for text, x in (("x", math.nan), ("x", -math.inf), ("cot(x)", 0.0),
                    ("exp(x)", 1000.0), ("log(x)", -1.0), ("x^2", 1e200)):
        with pytest.raises(ExprError):
            parse_expr(text, table).eval({"x": x})


def test_eval_applied_atoms():
    t = SymbolTable()
    t.constant("r")
    e = parse_expr("cot(2*r) * tanh(r)", t)
    r = 0.37
    assert e.eval({"r": r}) == pytest.approx(math.tanh(r) / math.tan(2 * r), rel=1e-12)


# -- compiled evaluation -----------------------------------------------------------

_CT = SymbolTable()
_CT_NAMES = ("x", "y", "z")
for _name in _CT_NAMES:
    _CT.constant(_name)


def _quotient(ab):
    a, b = ab
    return a if b.is_zero else a / b


def _monomial(cf):
    c, factors = cf
    e = Expr.const(c)
    for name, k in factors:
        e = e * Expr.from_symbol(_CT.get(name)) ** k
    return e


def _atom(fa):
    fn, arg = fa
    return Expr.from_symbol(_CT.applied(fn, arg, f"{fn}({arg.to_text()})"))


_EXPRS = st.recursive(
    st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=4).map(Expr.const),
        st.sampled_from(_CT_NAMES).map(lambda n: Expr.from_symbol(_CT.get(n))),
        st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=7),
                  st.lists(st.tuples(st.sampled_from(_CT_NAMES), st.integers(1, 3)),
                           min_size=2, max_size=3)).map(_monomial),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        st.tuples(children, st.integers(min_value=2, max_value=4)).map(lambda ab: ab[0] ** ab[1]),
        st.tuples(children, children).map(_quotient),
        st.tuples(st.sampled_from(sorted(NUMERIC_FUNCTIONS)), children).map(_atom),
    ),
    max_leaves=10,
)
# exact small values make denominators vanish and keep signed zeros in play
_POINTS = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                    st.floats(min_value=-3.0, max_value=3.0),
                    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]))


def _eval_row(exprs, point):
    """The hex values of [e.eval(...) for e in exprs] at the point, or None
    where Expr.eval raises or a value is not finite: a row the kernel stops at."""
    bindings = dict(zip(_CT_NAMES, point))
    try:
        values = [e.eval(bindings) for e in exprs]
    except ExprError:
        return None
    return tuple(v.hex() for v in values) if all(map(math.isfinite, values)) else None


def _signed_kernels(exprs):
    """One compile_sweep kernel per expression, over x on the grid and the
    scalars y and z: the expression is its one value, and its one-value
    tail exposes that value with its sign."""
    return [compile_sweep(_CT_NAMES, {"e": e}, (), "{e}") for e in exprs]


def _one_row(kernels, point):
    """The kernels' tails at the point as a one-row grid, each [value] or []
    where the kernel stops: x + -0.0 is x for every float x, signed zeros
    included."""
    x, y, z = point
    return [kernel(x, -0.0, 1, 1, -math.inf, math.inf, y, z)[2] for kernel in kernels]


@settings(max_examples=300, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=3), st.tuples(_POINTS, _POINTS, _POINTS))
def test_compiled_values_equal_eval_bit_for_bit(exprs, point):
    # a one-row kernel per expression, with its signed value as the tail
    columns = _one_row(_signed_kernels(exprs), point)
    for e, column in zip(exprs, columns, strict=True):
        expected = _eval_row([e], point)
        assert [v.hex() for v in column] == list(expected or ())


# large values overflow products and powers; exact values hit poles
_ROW_POINTS = st.one_of(_POINTS, st.sampled_from([1e100, -1e160, 1e300, 700.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=3),
       st.lists(st.tuples(_ROW_POINTS, _ROW_POINTS), max_size=5),
       _ROW_POINTS)
def test_column_kernel_equals_the_per_call_function_row_by_row(exprs, rows, y):
    # the same kernels at each row (x, z) in turn, with the scalar y;
    # Expr.eval at each row is the reference
    kernels = _signed_kernels(exprs)
    got, expected = [], []
    for x, z in rows:
        columns = _one_row(kernels, (x, y, z))
        outcome = _eval_row(exprs, (x, y, z))
        # a kernel stops where its expression raises or is not finite
        assert [[v.hex() for v in column] for column in columns] == \
            [list(_eval_row([e], (x, y, z)) or ()) for e in exprs]
        if outcome is None:
            break  # the row loop ends at the first row where one of them stops
        got.append(tuple(column[0].hex() for column in columns))
        expected.append(outcome)
    assert got == expected


def _sweep_rows(value, rows, grid, ends, y):
    """compile_sweep's columns by Expr.eval, row by row: x on the grid, the
    scalar y, z = value at (x, y), then the rows at (x, y, z)."""
    lo, width, steps, n = grid
    out = ([], [], [])
    for i in range(n):
        x = lo + width * i / steps
        if not ends[0] < x < ends[1]:
            break
        try:
            z = value.eval({"x": x, "y": y})
            values = [e.eval({"x": x, "y": y, "z": z}) for e in rows]
        except ExprError:
            break
        shifted = z * z + y
        if not all(map(math.isfinite, [z, *values, shifted])):
            break
        top = 0.0
        for v in values:
            top = max(top, abs(v))
        for column, v in zip(out, (x, top, shifted)):
            column.append(v)
    return out


@settings(max_examples=300, deadline=None)
@given(_EXPRS, st.lists(_EXPRS, max_size=3), st.sampled_from([0, Fraction(1, 2), -2]),
       _POINTS, st.floats(min_value=0.0, max_value=4.0), st.integers(1, 6),
       st.sampled_from([(-2.5, 2.5), (-math.inf, math.inf), (0.0, 1.0)]), _ROW_POINTS)
def test_sweep_kernel_equals_eval_row_by_row(value, rows, constant, lo, width, n, ends, y):
    # x runs over the grid, y is a scalar and z the value bound for the rows,
    # which end with a constant row
    rows = [*rows, Expr.const(constant)]
    try:
        kernel = compile_sweep(("x", "y"), {"z": value}, rows, "{z} * {z} + {y}")
    except UnboundSymbolError:  # the value reads z
        assume(False)
    grid = (lo, width, max(n - 1, 1), n)
    got = kernel(*grid, *ends, y)
    expected = _sweep_rows(value, rows, grid, ends, y)
    assert [[v.hex() for v in column] for column in got] == [
        [v.hex() for v in column] for column in expected]


def test_compiled_vanishing_denominator_and_unbound_symbol():
    e = parse_expr("1/(x - y) + cot(1/(y - x))", _CT)
    with pytest.raises(NearZeroDenominator):
        e.eval({"x": 1.5, "y": 1.5})
    with pytest.raises(UnboundSymbolError):
        e.eval({"x": 1.5})
    # the grid 1.5, 2.5, 3.5 of x stops at its first point, x = y
    kernel = compile_sweep(("x", "y"), {"e": e}, (), "{e}")
    assert kernel(1.5, 2.0, 2, 3, -math.inf, math.inf, 1.5) == ([], [], [])
    with pytest.raises(UnboundSymbolError):
        compile_sweep(("x",), {"e": e}, (), "{e}")


# -- randomized properties -------------------------------------------------------

def _random_expr(rng, symbols, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Expr.const(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return Expr.from_symbol(rng.choice(symbols))
    op = rng.choice("+-**/")  # '*' twice: bias toward products
    a = _random_expr(rng, symbols, depth - 1)
    b = _random_expr(rng, symbols, depth - 1)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "/":
        return a / b if not b.is_zero else a
    return a * b


def test_evaluation_homomorphism_randomized():
    rng = random.Random(987123)
    t = SymbolTable()
    syms = [t.constant(n) for n in ("x", "y", "z")]
    checked = 0
    while checked < 1000:
        a = _random_expr(rng, syms, 3)
        b = _random_expr(rng, syms, 3)
        point = {s.name: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for s in syms}
        op = rng.choice("+-*/")
        try:
            va, vb = a.eval(point), b.eval(point)
            if op == "+":
                combined, expect, parts = a + b, a.eval_exact(point) + b.eval_exact(point), va + vb
            elif op == "-":
                combined, expect, parts = a - b, a.eval_exact(point) - b.eval_exact(point), va - vb
            elif op == "*":
                combined, expect, parts = a * b, a.eval_exact(point) * b.eval_exact(point), va * vb
            else:
                if b.is_zero or b.eval_exact(point) == 0:
                    continue
                combined, expect, parts = a / b, a.eval_exact(point) / b.eval_exact(point), va / vb
            whole = combined.eval(point)
        except (NearZeroDenominator, DivisionByZeroExpr):
            continue
        if abs(expect) > 1e9:  # skip ill-conditioned blowups
            continue
        scale = max(1.0, abs(float(expect)))
        # eval(a op b) agrees with eval(a) op eval(b), both anchored to the
        # exact rational value; the homomorphism tolerance is relative to the
        # operand magnitude (the conditioning of the single float operation)
        assert abs(whole - float(expect)) <= 1e-12 * scale
        assert abs(whole - parts) <= 1e-12 * max(1.0, abs(va), abs(vb), abs(whole))
        checked += 1


def test_canonical_forms_from_shuffled_factors():
    rng = random.Random(55221)
    t = SymbolTable()
    syms = [t.constant(n) for n in ("x", "y", "z")]
    for _ in range(300):
        parts = [_random_expr(rng, syms, 2) for _ in range(4)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        s1 = parts[0] + parts[1] + parts[2] + parts[3]
        s2 = shuffled[3] + (shuffled[1] + (shuffled[0] + shuffled[2]))
        assert s1 == s2
        p1 = parts[0] * parts[1] * parts[2] * parts[3]
        p2 = shuffled[2] * (shuffled[0] * (shuffled[3] * shuffled[1]))
        assert p1 == p2


_UT = SymbolTable()
_UT_SYMS = tuple(_UT.function(name) for name in ("x", "y", "z"))
_UNIT_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _unit_polys(nvars):
    monos = st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 2), max_size=2).map(
        lambda d: tuple((_UT_SYMS[i], e) for i, e in sorted(d.items())))
    return st.dictionaries(monos, _UNIT_COEFFS, max_size=3).map(Polynomial)


_UNIT_POLYS = _unit_polys(3)
# Rational values use fewer variables (numerators in x, y, denominators in x),
# which keeps the gcds of their powers small; a numerator that is a multiple
# of its denominator cancels to den = 1.
_UNIT_DENS = _unit_polys(1).filter(lambda p: not p.is_zero)
_UNIT_EXPRS = st.one_of(
    _UNIT_POLYS.map(Expr),
    st.tuples(_unit_polys(2), _UNIT_DENS, st.booleans()).map(
        lambda pdk: Expr(pdk[0] * pdk[1] if pdk[2] else pdk[0], pdk[1])),
)


def _fresh_unit():
    return Polynomial({(): Fraction(1)})


def _den(e):
    """e's denominator, with a new unit polynomial in place of the shared one."""
    return _fresh_unit() if e.den == Polynomial.one() else e.den


@settings(max_examples=200, deadline=None)
@given(_UNIT_EXPRS, _UNIT_EXPRS, st.integers(min_value=-2, max_value=2),
       st.dictionaries(st.sampled_from(_UT_SYMS), _UNIT_POLYS.map(Expr), max_size=2))
def test_unit_denominator_is_the_shared_polynomial(a, b, n, bindings):
    # each result against the same operation through the general constructor,
    # whose denominators are never the shared unit polynomial
    results = [
        (a + b, Expr(a.num * _den(b) + b.num * _den(a), _den(a) * _den(b))),
        (a - b, Expr(a.num * _den(b) - b.num * _den(a), _den(a) * _den(b))),
        (a * b, Expr(a.num * b.num, _den(a) * _den(b))),
        (-a, Expr(-a.num, _den(a))),
        (a.derivative("e1"), Expr(a.num.derivative("e1") * _den(a)
                                  - a.num * _den(a).derivative("e1"), _den(a) * _den(a))),
    ]
    if not b.is_zero:
        results.append((a / b, Expr(a.num * _den(b), _den(a) * b.num)))
    if n > 0:
        results.append((a ** n, Expr(a.num ** n, _den(a) ** n)))
    elif n < 0 and not a.is_zero:
        results.append((a ** n, Expr(_den(a) ** -n, a.num ** -n)))
    try:
        sub = a.substitute(bindings)
    except DivisionByZeroExpr:
        sub = None
    if sub is not None:
        results.append((sub, Expr(sub.num * _fresh_unit(), _den(sub))))
    for got, general in results:
        if got.den == Polynomial.one():
            assert got.den is Polynomial.one()
        assert got == general
        assert got.to_text() == general.to_text()


_SCALARS = st.one_of(st.integers(min_value=-3, max_value=3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _assert_canonical(got, num, den):
    """got is, slot for slot, Expr(num, den) from the canonicalizing constructor."""
    ref = Expr(num, den)
    assert got.__class__ is Expr
    assert (got.num, got.den) == (ref.num, ref.den)
    assert got.to_text() == ref.to_text()
    assert hash(got) == hash(ref)
    if got.den.is_constant:
        assert got.den is Polynomial.one()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_UNIT_EXPRS, st.just(Expr.zero())), st.one_of(_UNIT_EXPRS, st.just(Expr.zero())),
       _SCALARS, st.sampled_from(_UT_SYMS), st.sampled_from(("e1", "e2", "e3")))
def test_fast_path_equals_the_canonicalizing_constructor(a, b, k, sym, direction):
    kp = Polynomial.const(k)
    da, db = _den(a), _den(b)
    _assert_canonical(a + b, a.num * db + b.num * da, da * db)
    _assert_canonical(a - b, a.num * db - b.num * da, da * db)
    _assert_canonical(a * b, a.num * b.num, da * db)
    _assert_canonical(-a, -a.num, da)
    _assert_canonical(k * a, kp * a.num, da)
    _assert_canonical(a * k, a.num * kp, da)
    _assert_canonical(a + k, a.num + kp * da, da)
    _assert_canonical(k - a, kp * da - a.num, da)
    if k:
        _assert_canonical(a / k, a.num, da * kp)
    if not b.is_zero:
        _assert_canonical(a / b, a.num * db, da * b.num)
    _assert_canonical(Expr.const(k), kp, _fresh_unit())
    _assert_canonical(Expr.from_symbol(sym), Polynomial.from_symbol(sym), _fresh_unit())
    dn = a.num.derivative(direction)
    _assert_canonical(a.derivative(direction),
                      dn * da - a.num * da.derivative(direction), da * da)
    # zero results
    for zero in (a - a, a + -a, 0 * a, a * 0, Expr.const(0), Expr.from_symbol(sym) - sym):
        _assert_canonical(zero, Polynomial.zero(), _fresh_unit())


# A scope of _UT: w is the scope's own constant, D(e2,x) is a derivative
# symbol of the parent's function x, so products mix the two tables.
_US = _UT.scope()
_US_W = Expr.from_symbol(_US.constant("w"))
_US_DX = Expr.from_symbol(_US.derivative(_UT_SYMS[0], "e2"))
_DOT_FACTORS = st.one_of(
    _UNIT_EXPRS,
    st.just(Expr.zero()),
    st.tuples(_UNIT_EXPRS, _UNIT_POLYS).map(lambda ep: ep[0] * _US_W + Expr(ep[1]) * _US_DX),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), _DOT_FACTORS, _DOT_FACTORS),
                max_size=5),
       st.booleans(), st.randoms())
def test_dot_equals_the_sum_of_products(triples, cancel, rng):
    if cancel:  # the negated triples, shuffled in, cancel the whole sum
        triples = triples + [(-k, a, b) for k, a, b in triples]
        rng.shuffle(triples)
    reference = sum((k * a * b for k, a, b in triples), Expr.zero())
    for got in (rational.dot(triples), rational.dot(iter(triples))):
        assert (got.num, got.den) == (reference.num, reference.den)
        assert got.to_text() == reference.to_text()
        assert hash(got) == hash(reference)
        if got.den == Polynomial.one():
            assert got.den is Polynomial.one()
        if got.is_zero:
            assert got is Expr.zero()
        if cancel:
            assert got.is_zero
        assert _coefficients_ok(got.num, got.den)


def test_dot_fills_the_product_memo_that_multiplication_fills():
    # "a" sorts before "x", so a*x has the scope's lead symbol and x*a too;
    # x*y has the parent's
    def tables():
        parent = SymbolTable()
        x, y = (Expr.from_symbol(parent.function(n)) for n in ("x", "y"))
        scope = parent.scope()
        a = Expr.from_symbol(scope.constant("a"))
        return parent, scope, [(x, a + y), (a, x * y), (x + 1, y), (3 + a, x * a)]

    def memo_rows(table):
        return {m: set(row) for m, row in table.monomials.products.items()}

    parent, scope, pairs = tables()
    for p, q in pairs:
        rational.dot([(2, p, q)])
    twin_parent, twin_scope, twin_pairs = tables()
    for p, q in twin_pairs:
        (2 * p) * q
    assert memo_rows(parent) == memo_rows(twin_parent)
    assert memo_rows(scope) == memo_rows(twin_scope)
    assert ((scope.get("a"), 1),) in memo_rows(scope)


def _substitute_per_term(e, bindings):
    """The per-term substitution (one Expr per factor, a gcd per addition):
    the reference for Expr.substitute."""
    def eval_poly(p):
        total = Expr.zero()
        for m, c in p.terms:
            term = Expr.const(c)
            for s, k in m:
                rep = bindings.get(s)
                term = term * (rep ** k if rep is not None
                               else Expr(Polynomial.from_symbol(s) ** k))
            total = total + term
        return total

    num_e = eval_poly(e.num)
    den_e = eval_poly(e.den)
    if den_e.is_zero:
        raise DivisionByZeroExpr("substitution makes a denominator identically zero")
    return num_e / den_e


# Replacements of four kinds: zero, a constant, a polynomial, a rational
# function in x alone (few variables keep the reference's many gcds fast).
_REPLACEMENTS = st.one_of(
    st.just(Expr.zero()),
    _UNIT_COEFFS.map(Expr.const),
    _UNIT_POLYS.map(Expr),
    st.tuples(_unit_polys(1), _UNIT_DENS).map(lambda pd: Expr(*pd)),
)


@settings(max_examples=200, deadline=None)
@given(_UNIT_EXPRS,
       st.dictionaries(st.sampled_from(_UT_SYMS), _REPLACEMENTS, max_size=2))
def test_substitute_matches_per_term_reference(e, bindings):
    # at most two of the three symbols are bound, so one stays free
    try:
        expected = _substitute_per_term(e, bindings)
    except DivisionByZeroExpr:
        with pytest.raises(DivisionByZeroExpr):
            e.substitute(bindings)
        return
    got = e.substitute(bindings)
    assert got == expected
    assert got.to_text() == expected.to_text()
    if got.den == Polynomial.one():
        assert got.den is Polynomial.one()


# -- integer accumulation and scalar substitution: the previous bodies as oracles

def _dot_reference(terms):
    """rational.dot before it accumulated in ints: Fraction coefficients,
    one product k * ca * cb per term pair."""
    acc, rest = {}, Expr.zero()
    for k, a, b in terms:
        ta, tb = a.num.terms, b.num.terms
        if not (k and ta and tb):
            continue
        if a.den != Polynomial.one() or b.den != Polynomial.one():
            rest = rest + k * a * b
            continue
        lead = ta[0][0] or tb[0][0]
        if not lead:
            acc[()] = acc.get((), 0) + k * ta[0][1] * tb[0][1]
            continue
        products = _memos(lead[0][0]).products
        for ma, ca in ta:
            for mb, cb in tb:
                m = products[ma][mb]
                acc[m] = acc.get(m, 0) + k * ca * cb
    total = rational._polynomial(Polynomial(acc)) + rest if any(acc.values()) else rest
    return total if total.num.terms else Expr.zero()


# Coefficients over 2, 3, 4 and 6, so that the common denominator of a sum is
# an lcm and not the plain product of the factors' denominators.
_LCM_COEFFS = st.builds(Fraction, st.integers(min_value=-7, max_value=7),
                        st.sampled_from((1, 2, 3, 4, 6)))


def _lcm_polys(nvars):
    monos = st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 2), max_size=2).map(
        lambda d: tuple((_UT_SYMS[i], e) for i, e in sorted(d.items())))
    return st.dictionaries(monos, _LCM_COEFFS, max_size=3).map(Polynomial)


_LCM_FACTORS = st.one_of(
    _lcm_polys(3).map(Expr),
    st.just(Expr.zero()),
    _LCM_COEFFS.map(Expr.const),
    st.tuples(_lcm_polys(2), _UNIT_DENS).map(lambda pd: Expr(*pd)),
    # polynomials in a scope's symbols too, as in _DOT_FACTORS
    st.tuples(_lcm_polys(2), _lcm_polys(2)).map(lambda pq: Expr(pq[0].scale(Fraction(1, 6)))
                                               * _US_W + Expr(pq[1]) * _US_DX),
)


# The factors free of derivative symbols, which have a derivative.
_LCM_DERIVABLE = st.one_of(
    _lcm_polys(3).map(Expr),
    st.just(Expr.zero()),
    _LCM_COEFFS.map(Expr.const),
    st.tuples(_lcm_polys(2), _UNIT_DENS).map(lambda pd: Expr(*pd)),
)


def _assert_every_slot(got, reference):
    assert (got.num, got.den) == (reference.num, reference.den)
    assert got.to_text() == reference.to_text()
    assert hash(got) == hash(reference)
    assert _coefficients_ok(got.num, got.den)
    if got.den == Polynomial.one():
        assert got.den is Polynomial.one()
    if got.is_zero:
        assert got is Expr.zero()


def _assert_scaled(p):
    d, terms = p.scaled()
    assert p.scaled() is p.scaled()  # kept on the polynomial
    assert d == math.lcm(1, *(Fraction(c).denominator for _m, c in p.terms))
    assert all(type(c) is int for _m, c in terms)
    assert [(m, Fraction(c, d)) for m, c in terms] == [(m, Fraction(c)) for m, c in p.terms]
    if d == 1:
        assert terms is p.terms


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), _LCM_FACTORS, _LCM_FACTORS),
                max_size=5),
       st.one_of(st.none(), st.tuples(_LCM_DERIVABLE, st.sampled_from(("e1", "e2", "e3")))),
       st.booleans(), st.randoms())
def test_integer_dot_equals_the_fraction_dot_in_every_slot(triples, derivative, cancel, rng):
    if cancel:  # the negated triples, shuffled in, cancel the products
        triples = triples + [(-k, a, b) for k, a, b in triples]
        rng.shuffle(triples)
    reference = sum((k * a * b for k, a, b in triples), Expr.zero())
    assert _dot_reference(triples) == reference
    if derivative is not None:
        e, direction = derivative
        reference = reference + e.derivative(direction)
    for got in (rational.dot(triples, derivative), rational.dot(iter(triples), derivative)):
        _assert_every_slot(got, reference)
    if derivative is None:
        _assert_every_slot(rational.dot(triples), reference)
    for _k, a, b in triples:
        for e in (a, b):
            _assert_scaled(e.num)
            _assert_scaled(e.den)


def test_scaled_coefficients_over_their_lcm():
    x, y = (Polynomial.from_symbol(s) for s in _UT_SYMS[:2])
    p = x.scale(Fraction(1, 4)) + y.scale(Fraction(5, 6)) + Polynomial.const(2)
    assert p.scaled() == (12, (((p.terms[0][0]), 3), (p.terms[1][0], 10), ((), 24)))
    for q in (p, x + y, Polynomial.zero(), Polynomial.const(Fraction(-3, 4))):
        _assert_scaled(q)


def _substitute_poly_reference(p, table):
    """rational._substitute_poly before it folded rational constants into the
    coefficients: every binding enters as a power of its numerator and
    denominator polynomials."""
    one = Polynomial.one()
    degrees = {}
    for m, _c in p.terms:
        for s, e in m:
            if s in table and e > degrees.get(s, 0):
                degrees[s] = e
    if not degrees:
        return p, one
    bound = sorted(degrees, key=lambda s: s.name)

    def power(s, part, e):
        return getattr(table[s], part) ** e

    den = one
    for s in bound:
        if table[s].den is not one:
            den = den * power(s, "den", degrees[s])
    acc = {}
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
                prod = {}
                for ma, ca in term.items():
                    for mb, cb in f.terms:
                        key = _mono_mul(ma, mb)
                        prod[key] = prod.get(key, 0) + ca * cb
                term = prod
        for mt, ct in term.items():
            acc[mt] = acc.get(mt, 0) + ct
    return Polynomial(acc), den


# Bindings of every kind: zero, an int, a Fraction, a polynomial and a
# rational function.
_MIXED_BINDINGS = st.one_of(
    st.just(Expr.zero()),
    st.integers(min_value=-3, max_value=3).map(Expr.const),
    _LCM_COEFFS.map(Expr.const),
    _lcm_polys(3).map(Expr),
    st.tuples(_unit_polys(1), _UNIT_DENS).map(lambda pd: Expr(*pd)),
)


@settings(max_examples=300, deadline=None)
@given(_lcm_polys(3), st.dictionaries(st.sampled_from(_UT_SYMS), _MIXED_BINDINGS, max_size=3))
def test_substitute_poly_equals_its_previous_body(p, bindings):
    got = rational._substitute_poly(p, bindings)
    reference = _substitute_poly_reference(p, bindings)
    assert got == reference
    assert got[1] is Polynomial.one() or got[1] != Polynomial.one()
    assert _coefficients_ok(*got)


def test_constant_bindings_take_no_polynomial_product(monkeypatch):
    t = SymbolTable()
    x, y, z, w = (t.constant(n) for n in ("x", "y", "z", "w"))
    p = parse_expr("3*x^2*y + (1/2)*x*z^3*w - y*z + 7", t).num
    bindings = {x: Expr.const(Fraction(2, 3)), y: Expr.zero(), z: Expr.const(-2)}
    products = []
    original = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: products.append(1) or original(a, b))
    num, den = rational._substitute_poly(p, bindings)
    assert products == []
    assert den is Polynomial.one()
    assert num == parse_expr("-(8/3)*w + 7", t).num


class _CountingBindings(dict):
    """A binding mapping that counts how often it is read."""

    reads = 0

    def items(self):
        type(self).reads += 1
        return super().items()


def test_eval_reads_its_bindings_once_whatever_the_number_of_atoms():
    t = SymbolTable()
    e = parse_expr("cot(2*r) + tanh(cot(r) + sin(r)) * cos(r/3) + exp(-r) + r", t,
                   define_missing=True)
    _CountingBindings.reads = 0
    value = e.eval(_CountingBindings(r=0.7))
    assert _CountingBindings.reads == 1
    r = 0.7
    assert value == pytest.approx(1 / math.tan(2 * r)
                                  + math.tanh(1 / math.tan(r) + math.sin(r)) * math.cos(r / 3)
                                  + math.exp(-r) + r, rel=1e-12)
    # an atom's argument is still checked for its own unbound symbols and poles
    for text, bindings, error in (("cot(r*s)", {"r": 1.0}, UnboundSymbolError),
                                  ("cot(1/(r - 1))", {"r": 1.0}, NearZeroDenominator),
                                  ("cot(r)", {"r": float("inf")}, ExprError)):
        with pytest.raises(error) as caught:
            parse_expr(text, SymbolTable(), define_missing=True).eval(bindings)
        assert type(caught.value) is error


def _coefficients_ok(*polys):
    """Every coefficient is an int, or a Fraction that is not an integer."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for p in polys for _m, c in p.terms)


_UT_POINTS = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * 3)


@settings(max_examples=200, deadline=None)
@given(_UNIT_EXPRS, _UNIT_EXPRS, st.integers(min_value=-2, max_value=2),
       st.dictionaries(st.sampled_from(_UT_SYMS), _REPLACEMENTS, max_size=2), _UT_POINTS)
def test_coefficients_are_ints_or_proper_fractions(a, b, n, bindings, point):
    values = {s.name: v for s, v in zip(_UT_SYMS, point)}
    values.update({f"D(e1,{s.name})": 1 - v for s, v in zip(_UT_SYMS, point)})

    def exact(e, at=values):
        try:
            return e.eval_exact(at)
        except NearZeroDenominator:
            return None

    def combined(op, *operands):
        vals = [exact(e) for e in operands]
        return None if None in vals else op(*vals)

    results = [
        (a + b, combined(lambda x, y: x + y, a, b)),
        (a - b, combined(lambda x, y: x - y, a, b)),
        (a * b, combined(lambda x, y: x * y, a, b)),
        (-a, combined(lambda x: -x, a)),
        (a.derivative("e1"), None),
    ]
    if not b.is_zero:
        results.append((a / b, combined(lambda x, y: x / y if y else None, a, b)))
    if n >= 0 or not a.is_zero:
        results.append((a ** n, combined(lambda x: x ** n if x or n >= 0 else None, a)))
    try:
        sub = a.substitute(bindings)
    except DivisionByZeroExpr:
        sub = None
    if sub is not None:
        at = dict(values)
        at.update({s.name: exact(r) for s, r in bindings.items()})
        results.append((sub, None if None in at.values() else exact(a, at)))
    for got, expected in results:
        assert _coefficients_ok(got.num, got.den), got
        if got.is_rational_constant:
            assert type(got.as_fraction()) is Fraction
        if expected is not None and exact(got) is not None:
            assert exact(got) == expected
    # the polynomial layer: exact quotients, numeric scaling and the monic gcd
    f, g = a.num, b.num
    polys = [f.scale(Fraction(2, 3)), f.exact_div(Polynomial.const(3))]
    if not g.is_zero:
        polys.append((f * g).exact_div(g))
        assert polys[-1] == f
    if not (f.is_zero and g.is_zero):
        gcd = poly_gcd(f, g)
        polys.append(gcd)
        assert gcd.leading()[1] == 1
        assert f.exact_div(gcd) is not None and g.exact_div(gcd) is not None
    for p in polys:
        assert _coefficients_ok(p)
        if p.is_constant:
            assert type(p.constant_value()) is Fraction


def test_integral_coefficients_are_ints():
    x = Polynomial.from_symbol(_UT_SYMS[0])
    p = x.scale(Fraction(6, 3)) + Polynomial.const(Fraction(9, 3))
    assert [type(c) for _m, c in p.terms] == [int, int]
    assert p == x.scale(2) + Polynomial.const(3)
    assert p.to_text() == "2*x + 3"
    assert type(Polynomial.const(2).constant_value()) is Fraction
    assert type(Polynomial.zero().constant_value()) is Fraction
    assert type(Expr.const(Fraction(4, 2)).as_fraction()) is Fraction
    # a leading coefficient 2 normalizes by the Fraction 1/2, never by 0.5
    half = Expr(x, x.scale(2) + Polynomial.one())
    assert half.to_text() == "((1/2)*x)/(x + (1/2))"
    assert _coefficients_ok(half.num, half.den)


def test_substitute_takes_one_gcd(monkeypatch):
    # lambda = -c/nu into the principal-curvature relation: one fraction N/nu
    t = SymbolTable()
    for n in ("alpha", "lambda", "nu", "c"):
        t.constant(n)
    basic = parse_expr(BASIC_RELATION_TEXT, t)
    rep = parse_expr("-c/nu", t)
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(rational, "poly_gcd", counted)
    sub = basic.substitute({t.get("lambda"): rep})
    assert len(calls) == 1
    assert sub == parse_expr("-c - (alpha/2)*(nu - c/nu) - c/4", t)


def test_power_takes_no_gcd(monkeypatch):
    # num^n and den^n of a reduced fraction are coprime; these two powers
    # ran for tens of seconds when they took a gcd
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.constant(n)
    a = parse_expr("((1/4)*x*y^2 + (2/3)*x^2 - 1/4)/(x^2*z^2 + (2/3)*y^2*z + 1/6)", t)
    b = parse_expr("(y^2*z^2 + 2*x^2*z - 10/3)/(x^2 + 6*x - 6)", t)

    def no_gcd(f, g):
        raise AssertionError("a power took a gcd")

    monkeypatch.setattr(rational, "poly_gcd", no_gcd)
    point = {"x": Fraction(2, 3), "y": Fraction(-5, 2), "z": Fraction(7, 4)}
    for base, n in ((a, -2), (b, 2), (a, 3), (b, -1), (a, 0)):
        got = base ** n
        assert got.eval_exact(point) == base.eval_exact(point) ** n
        if got.den.is_constant:
            assert got.den is Polynomial.one()
        else:
            assert got.den.leading()[1] == 1
    square = b ** 2
    assert (square.num, square.den) == (b.num ** 2, b.den ** 2)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=5))
def test_polynomial_eval_matches_horner(coeffs, den):
    t = SymbolTable()
    x = t.constant("x")
    e = Expr.zero()
    for c in coeffs:
        e = e * Expr.from_symbol(x) + Expr.const(Fraction(c, den))
    pt = Fraction(3, 2)
    expected = Fraction(0)
    for c in coeffs:
        expected = expected * pt + Fraction(c, den)
    assert e.eval_exact({"x": pt}) == expected
    assert e.eval({"x": float(pt)}) == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


# -- quadratic solving -----------------------------------------------------------

def test_solve_quadratic_discriminant(table):
    e = parse_expr("2*a*v^2 + 5*c*v - 2*a*c", table)
    sol = solve_quadratic(e, table.get("v"))
    assert sol.degree == 2
    assert sol.discriminant == parse_expr("25*c^2 + 16*a^2*c", table)
    # symbolic back-substitution: both components of the residual vanish
    for root in sol.roots:
        rational, radical = sol.residual_parts(root)
        assert rational.is_zero and radical.is_zero


def test_solve_quadratic_cp2_always_solvable(table):
    e = parse_expr("2*a*v^2 + 5*c*v - 2*a*c", table)
    sol = solve_quadratic(e, table.get("v"))
    disc4 = sol.discriminant.substitute({table.get("c"): Expr.const(4)})
    assert disc4 == parse_expr("400 + 64*a^2", table)
    for alpha in (-10, -1, 0, 2, 100):
        assert disc4.eval({"a": alpha}) > 0


def test_solve_quadratic_ch2_bound(table):
    e = parse_expr("2*a*v^2 + 5*c*v - 2*a*c", table)
    sol = solve_quadratic(e, table.get("v"))
    disc = sol.discriminant.substitute({table.get("c"): Expr.const(-4)})
    assert disc == parse_expr("400 - 64*a^2", table)
    # solvable exactly when a^2 <= 25/4
    assert disc.eval({"a": 2.5}) == pytest.approx(0.0, abs=1e-9)
    assert disc.eval({"a": 2.4}) > 0
    assert disc.eval({"a": 2.6}) < 0


def test_quadratic_numeric_back_substitution(table):
    rng = random.Random(424242)
    e = parse_expr("2*a*v^2 + 5*c*v - 2*a*c", table)
    sol = solve_quadratic(e, table.get("v"))
    checked = 0
    while checked < 50:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 3))  # c > 0: discriminant > 0
        bind = {"a": float(a), "c": float(c)}
        for root in sol.roots:
            v = root.eval(bind)
            residual = e.eval({"a": float(a), "c": float(c), "v": v})
            assert abs(residual) < 1e-9
        checked += 1


def test_solve_linear_and_degenerate(table):
    x = table.get("x")
    sol = solve_quadratic(parse_expr("3*x - y", table), x)
    assert sol.degree == 1
    assert sol.roots[0].offset == parse_expr("y/3", table)
    assert sol.roots[0].sqrt_coeff.is_zero
    zero = solve_quadratic(Expr.zero(), x)
    assert zero.is_degenerate and zero.roots == ()
    with pytest.raises(InconsistentEquationError):
        solve_quadratic(parse_expr("y + 1", table), x)
    with pytest.raises(QuadraticError):
        solve_quadratic(parse_expr("x^3", table), x)
    with pytest.raises(QuadraticError):
        solve_quadratic(parse_expr("1/x", table), x)


@pytest.mark.parametrize("text, atom", [
    ("x*sin(x) + 1", "sin(x)"),          # a coefficient would hold the unknown
    ("sqrt(x) + 1", "sqrt(x)"),          # the unknown occurs in no monomial
    ("x^2 + cos(sin(x))", "cos(sin(x))"),  # in the argument's argument
])
def test_the_unknown_inside_an_applied_atom_is_an_error(text, atom):
    table = SymbolTable()
    e = parse_expr(text, table, define_missing=True)
    with pytest.raises(QuadraticError) as exc:
        solve_quadratic(e, table.get("x"))
    assert str(exc.value).startswith(f"x occurs inside {atom}: ")
    # an atom whose argument does not hold the unknown is a coefficient
    assert solve_quadratic(parse_expr("sin(y)*x + 1", table, define_missing=True),
                           table.get("x")).degree == 1


def _eager_roots(e, unknown):
    """The roots and the solvability condition as solve_quadratic built
    them before it left them to first read: the reference."""
    zero = Expr.zero()
    coeffs = e.coefficients_in(unknown)
    a, b, c = (coeffs.get(k, zero) for k in (2, 1, 0))
    if not a.is_zero:
        disc = b * b - 4 * a * c
        half = Expr.const(1) / (2 * a)
        offset = -b * half
        roots = (QuadraticRoot(offset, half, disc), QuadraticRoot(offset, -half, disc))
        return roots, f"{disc.to_text()} >= 0"
    if not b.is_zero:
        return (QuadraticRoot(-c / b, zero, zero),), None
    return (), None


@pytest.mark.parametrize("text, unknown, degree", [
    ("2*a*v^2 + 5*c*v - 2*a*c", "v", 2),
    ("x^2 - 9", "x", 2),
    ("(y + 1)*x^2/3 - x*z", "x", 2),
    ("3*x - y", "x", 1),
    ("x*z/2 + y^2", "x", 1),
    ("y - y", "x", 0),
])
def test_lazy_roots_equal_the_eager_ones(table, text, unknown, degree):
    e = parse_expr(text, table)
    sol = solve_quadratic(e, table.get(unknown))
    assert sol.degree == degree
    assert "roots" not in vars(sol) and "solvability_condition" not in vars(sol)
    assert (sol.roots, sol.solvability_condition) == _eager_roots(e, table.get(unknown))
    assert sol.roots is sol.roots  # built once


def test_quadratic_elimination_builds_no_root(monkeypatch):
    def refuse(*args):
        raise AssertionError("a root was built")

    monkeypatch.setattr(quadratic.QuadraticRoot, "__init__", refuse)
    elimination = quadratic_elimination()
    assert elimination.discriminant == parse_expr(DISCRIMINANT_TEXT,
                                                  build_hopf_context().table.scope())
