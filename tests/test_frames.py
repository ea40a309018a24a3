from fractions import Fraction
from itertools import product

import pytest

from starricci import frames, rational
from starricci import proofs
from starricci.frames import (
    FRAME_INDICES,
    ConnectionTable,
    FrameIndex,
    Tensor11,
    VectorField,
    build_hopf_context,
    build_nonhopf_context,
    codazzi_residual,
    covariant_derivative_entry,
    covariant_derivative_t11,
    covariant_derivative_vf,
    curvature,
    curvature_operator,
    ricci,
    star_ricci_closed,
    star_ricci_trace,
    with_shape_operator,
)
from starricci.polynomial import Polynomial
from starricci.rational import Expr
from starricci.symbols import DERIVATIVE, SymbolError, SymbolTable

E1, E2, E3 = FrameIndex.E1, FrameIndex.E2, FrameIndex.E3


@pytest.fixture(scope="module")
def nonhopf():
    return build_nonhopf_context()


@pytest.fixture(scope="module")
def hopf():
    return build_hopf_context()


# -- construction ---------------------------------------------------------------

def test_nonhopf_connection_entries(nonhopf):
    ctx = nonhopf
    # nabla_xi xi = beta phiU
    assert ctx.connection.coefficient(E3, E3, E2) == ctx.sym("beta")
    # nabla_U phiU = -kappa1 U - gamma xi
    assert ctx.connection.coefficient(E1, E2, E1) == -ctx.sym("kappa1")
    assert ctx.connection.coefficient(E1, E2, E3) == -ctx.sym("gamma")


def test_nonhopf_shape_operator(nonhopf):
    A = nonhopf.A
    assert A.is_symmetric()
    assert A.column(E3) == VectorField((nonhopf.sym("beta"), Expr.zero(), nonhopf.sym("alpha")))


def test_hopf_connection_entries(hopf):
    ctx = hopf
    # nabla_phiW xi = -nu W
    assert ctx.connection.coefficient(E2, E3, E1) == -ctx.sym("nu")
    # A xi = alpha xi
    assert ctx.A.column(E3) == VectorField((0, 0, ctx.sym("alpha")))
    # nabla_xi xi = phi A xi = 0
    assert ctx.connection.nabla(E3, E3).is_zero


def _nonhopf_reference_connection(ctx):
    """The non-Hopf connection written out entry by entry."""
    be, ga, de, mu, k1, k2, k3 = (
        ctx.sym(n) for n in ("beta", "gamma", "delta", "mu", "kappa1", "kappa2", "kappa3")
    )
    zero = Expr.zero()
    return ConnectionTable((
        # nabla_U .
        (
            (zero, k1, de),         # nabla_U U       = kappa1 phiU + delta xi
            (-k1, zero, -ga),       # nabla_U phiU    = -kappa1 U - gamma xi
            (-de, ga, zero),        # nabla_U xi      = -delta U + gamma phiU
        ),
        # nabla_phiU .
        (
            (zero, k2, mu),         # nabla_phiU U    = kappa2 phiU + mu xi
            (-k2, zero, -de),       # nabla_phiU phiU = -kappa2 U - delta xi
            (-mu, de, zero),        # nabla_phiU xi   = -mu U + delta phiU
        ),
        # nabla_xi .
        (
            (zero, k3, zero),       # nabla_xi U      = kappa3 phiU
            (-k3, zero, -be),       # nabla_xi phiU   = -kappa3 U - beta xi
            (zero, be, zero),       # nabla_xi xi     = beta phiU
        ),
    ))


def _hopf_reference_connection(ctx):
    """The Hopf connection slice by slice: nabla_{e_i} xi = phi A e_i, the
    free coefficient h_i in (W, phiW), the rest by antisymmetry."""
    zero = Expr.zero()
    xi_cols = [ctx.phi.apply(ctx.A.apply(VectorField.basis(i))) for i in range(3)]
    slices = []
    for i in range(3):
        h = ctx.sym(f"h{i + 1}")
        xc = xi_cols[i]
        slices.append((
            (zero, h, -xc[0]),
            (-h, zero, -xc[1]),
            (xc[0], xc[1], zero),
        ))
    return ConnectionTable(slices)


@pytest.mark.parametrize("build, reference", [
    (build_nonhopf_context, _nonhopf_reference_connection),
    (build_hopf_context, _hopf_reference_connection),
])
def test_connection_equals_its_reference_entry_by_entry(build, reference):
    ctx = build()
    expected = reference(ctx)
    for i, j, k in product(range(3), repeat=3):
        got, want = ctx.connection.entries[i][j][k], expected.entries[i][j][k]
        assert got == want, (i, j, k)
        assert got.to_text() == want.to_text(), (i, j, k)


def test_phi_structure_relations(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        phi = ctx.phi
        phi2 = phi @ phi
        # phi^2 = -Id + eta (x) xi
        expected = Tensor11(((-1, 0, 0), (0, -1, 0), (0, 0, 0)))
        assert phi2 == expected
        # phi xi = 0 and eta o phi = 0
        assert phi.column(E3).is_zero
        assert all(phi.entry(2, j).is_zero for j in range(3))


def test_metric_compatibility_antisymmetry(nonhopf, hopf):
    assert nonhopf.connection.is_metric_compatible()
    assert hopf.connection.is_metric_compatible()


def test_nabla_xi_equals_phi_A(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            lhs = ctx.connection.nabla(X, E3)
            rhs = ctx.phi.apply(ctx.A.column(X))
            assert lhs == rhs


@pytest.mark.parametrize("build", [build_nonhopf_context, build_hopf_context])
def test_contexts_and_their_tensors_are_built_once(build):
    ctx = build()
    assert build() is ctx
    for derived in (ricci, star_ricci_closed):
        assert derived(ctx) is derived(ctx)
    # a replaced context computes its own, equal when nothing changed
    same = with_shape_operator(ctx, ctx.A)
    assert ricci(same) is not ricci(ctx) and ricci(same) == ricci(ctx)
    zero = with_shape_operator(ctx, Tensor11.zero())
    assert star_ricci_closed(zero) != star_ricci_closed(ctx)


def test_names_added_to_a_context_go_in_a_scope(hopf):
    with pytest.raises(SymbolError, match="frozen"):
        hopf.table.constant("zeta")
    scope = hopf.table.scope()
    zeta = scope.constant("zeta")
    assert scope.get("zeta") is zeta and "zeta" in scope
    assert hopf.table.get("zeta") is None and "zeta" not in hopf.table
    assert scope.get("alpha") is hopf.symbol("alpha")
    assert scope.constant("alpha") is hopf.symbol("alpha")
    with pytest.raises(SymbolError, match="already defined"):
        scope.constant("h1")
    with pytest.raises(SymbolError, match="no function symbol"):
        scope.function("zeta2")
    # parsing interns applied atoms in a scope of its own; a D(...) is the
    # symbol the table minted with its function
    parsed = hopf.parse("D(e1,h1) + cot(alpha)")
    assert parsed.to_text() == "D(e1,h1) + cot(alpha)"
    d, = (s for s in parsed.symbols() if s.kind == DERIVATIVE)
    assert d is hopf.table.get("D(e1,h1)") and hopf.table.get("cot(alpha)") is None


# -- covariant derivatives --------------------------------------------------------

def test_covariant_derivative_vf_examples(nonhopf, hopf):
    ctx = nonhopf
    # nabla_xi xi = beta phiU
    assert covariant_derivative_vf(ctx, E3, VectorField.basis(E3)) == \
        VectorField((0, ctx.sym("beta"), 0))
    # constant field (0,1,0): nabla_xi phiU = -kappa3 U - beta xi
    got = covariant_derivative_vf(ctx, E3, VectorField((0, 1, 0)))
    assert got == VectorField((-ctx.sym("kappa3"), Expr.zero(), -ctx.sym("beta")))
    # nabla_U xi = phi(A U) = -delta U + gamma phiU
    got = covariant_derivative_vf(ctx, E1, VectorField.basis(E3))
    assert got == VectorField((-ctx.sym("delta"), ctx.sym("gamma"), Expr.zero()))
    # Hopf: nabla_X xi = phi A X for every frame direction
    for X in FRAME_INDICES:
        got = covariant_derivative_vf(hopf, X, VectorField.basis(E3))
        assert got == hopf.phi.apply(hopf.A.column(X))


def test_covariant_derivative_respects_leibniz(nonhopf):
    # nabla_X (f Y) = D(X, f) Y + f nabla_X Y with f = gamma, Y = xi
    ctx = nonhopf
    f = ctx.sym("gamma")
    Y = VectorField.basis(E3)
    fY = Y.scale(f)
    lhs = covariant_derivative_vf(ctx, E1, fY)
    df = f.derivative("e1")
    rhs = Y.scale(df) + covariant_derivative_vf(ctx, E1, Y).scale(f)
    assert lhs == rhs


def test_covariant_derivative_identity_vanishes(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            dT = covariant_derivative_t11(ctx, X, Tensor11.identity())
            assert dT == Tensor11.zero()


def test_covariant_derivative_of_phi_matches_shape_formula(nonhopf, hopf):
    # (nabla_X phi) Y = eta(Y) A X - g(A X, Y) xi
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            dphi = covariant_derivative_t11(ctx, X, ctx.phi)
            AX = ctx.A.column(X)
            for Y in FRAME_INDICES:
                eta_y = Expr.one() if Y is E3 else Expr.zero()
                expected = AX.scale(eta_y) - VectorField.basis(E3).scale(AX[Y.value])
                assert dphi.column(Y) == expected


def test_xi_xi_projection_of_star_ricci_derivative(nonhopf):
    ctx = nonhopf
    sstar = star_ricci_closed(ctx)
    d = covariant_derivative_t11(ctx, E3, sstar)
    assert d.entry(2, 2) == ctx.parse("beta^2*delta")


def _covariant_derivative_column_form(ctx, X, T):
    """(nabla_X T) by columns, nabla_X(T e_j) - T(nabla_X e_j): the reference
    for covariant_derivative_entry."""
    cols = []
    for j in range(3):
        lead = covariant_derivative_vf(ctx, X, T.column(j))
        trail = T.apply(ctx.connection.nabla(X, j))
        cols.append(lead - trail)
    return Tensor11(tuple(cols[j][i] for j in range(3)) for i in range(3))


def _codazzi_full_matrix_form(ctx, X, Y):
    """codazzi_residual from the two full matrices nabla_X A and nabla_Y A."""
    dAX = _covariant_derivative_column_form(ctx, X, ctx.A)
    dAY = _covariant_derivative_column_form(ctx, Y, ctx.A)
    out = dAX.column(Y) - dAY.column(X)
    c4 = ctx.c / 4
    eta_x = Expr.one() if X is E3 else Expr.zero()
    eta_y = Expr.one() if Y is E3 else Expr.zero()
    g_phiX_Y = ctx.phi.entry(Y.value, X.value)
    correction = (ctx.phi.column(Y).scale(c4 * eta_x) - ctx.phi.column(X).scale(c4 * eta_y)
                  - VectorField.basis(E3).scale(2 * c4 * g_phiX_Y))
    return out - correction


@pytest.mark.parametrize("build", [build_nonhopf_context, build_hopf_context])
def test_covariant_derivative_entry_matches_column_form(build):
    # function symbols from a table of their own (a context's table is frozen
    # and its scopes mint no function symbol), on a context of its own, whose
    # memos the foreign symbols may enter
    ctx = build.__wrapped__()
    table = SymbolTable()
    free = Tensor11(
        tuple(Expr.from_symbol(table.function(f"t{i}{j}")) for j in range(3))
        for i in range(3)
    )
    for T in (ctx.A, ctx.phi, star_ricci_closed(ctx), ricci(ctx), free):
        for X in FRAME_INDICES:
            reference = _covariant_derivative_column_form(ctx, X, T)
            assert covariant_derivative_t11(ctx, X, T) == reference
            for Y in FRAME_INDICES:
                for P in FRAME_INDICES:
                    assert covariant_derivative_entry(ctx, X, T, Y, P) == \
                        reference.entry(P.value, Y.value)


def _matmul_reference(M, N):
    """The sum(...) body of Tensor11.__matmul__ before each entry became one
    accumulation."""
    return Tensor11(
        tuple(sum((M.rows[i][k] * N.rows[k][j] for k in range(3)), Expr.zero()) for j in range(3))
        for i in range(3)
    )


def _leibniz_reference(ctx, X, T, Y, P):
    """The six-product loop of covariant_derivative_entry before its sum
    became one accumulation."""
    gamma = ctx.connection.entries[X.value]
    y, p = Y.value, P.value
    out = T.entry(p, y).derivative(X.direction)
    for k in range(3):
        g, t = gamma[k][p], T.entry(k, y)
        if not (g.is_zero or t.is_zero):
            out = out + g * t
        g, t = gamma[y][k], T.entry(p, k)
        if not (g.is_zero or t.is_zero):
            out = out - g * t
    return out


def _assert_same(got, reference):
    """Equal in every slot and in text; got takes the shared unit denominator."""
    assert (got.num, got.den) == (reference.num, reference.den)
    assert got.to_text() == reference.to_text()
    if got.den.is_constant:
        assert got.den is Polynomial.one()


def _tensors(ctx):
    """A, the Ricci tensor, S* and a T with rational entries, which takes the
    Expr operators inside each accumulation."""
    rational_part = Tensor11(((0, ctx.parse("1/(alpha + 1)"), 0),
                              (ctx.parse("alpha/c"), 0, 0),
                              (0, 0, ctx.parse("c/alpha"))))
    return (ctx.A, ricci(ctx), star_ricci_closed(ctx), ricci(ctx) + rational_part)


@pytest.mark.parametrize("context", ["nonhopf", "hopf", "generic"])
def test_fused_sums_equal_their_reference_bodies(context, request):
    ctx = request.getfixturevalue(context)
    tensors = _tensors(ctx)
    v = VectorField((ctx.parse("alpha"), 1, ctx.parse("c/(alpha + 2)")))
    for M in tensors:
        for N in tensors + (ctx.phi,):
            product_ = M @ N
            reference = _matmul_reference(M, N)
            for i in range(3):
                for j in range(3):
                    _assert_same(product_.entry(i, j), reference.entry(i, j))
        for w in (v, M.column(0)):
            for got, row in zip(M.apply(w), M.rows):
                _assert_same(got, sum((a * b for a, b in zip(row, w)), Expr.zero()))
            _assert_same(v.dot(w), sum((a * b for a, b in zip(v, w)), Expr.zero()))
        for X, Y, P in product(FRAME_INDICES, repeat=3):
            _assert_same(covariant_derivative_entry(ctx, X, M, Y, P),
                         _leibniz_reference(ctx, X, M, Y, P))


@pytest.mark.parametrize("context", ["nonhopf", "hopf"])
def test_leibniz_entry_builds_no_derivative_of_a_polynomial_entry(context, request, monkeypatch):
    # e_X(T_PY) of a polynomial entry goes into dot's accumulation (the values
    # are compared with _leibniz_reference above); only the rational entries
    # of the last tensor take Expr.derivative
    ctx = request.getfixturevalue(context)
    tensors = _tensors(ctx)
    derivatives = []
    original = Expr.derivative
    monkeypatch.setattr(Expr, "derivative",
                        lambda e, direction: derivatives.append(e) or original(e, direction))
    for T in tensors:
        for X, Y, P in product(FRAME_INDICES, repeat=3):
            covariant_derivative_entry(ctx, X, T, Y, P)
    rational_entries = [e for row in tensors[-1].rows for e in row if not e.is_polynomial()]
    assert derivatives and all(e in rational_entries for e in derivatives)


def test_codazzi_residual_matches_full_matrix_form(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            for Y in FRAME_INDICES:
                assert codazzi_residual(ctx, X, Y) == _codazzi_full_matrix_form(ctx, X, Y)


def test_codazzi_residual_computes_six_entries(monkeypatch, nonhopf, hopf):
    # column Y of nabla_X A and column X of nabla_Y A, not the two full matrices
    calls = []
    entry = frames.covariant_derivative_entry

    def counted(*args):
        calls.append(args)
        return entry(*args)

    monkeypatch.setattr(frames, "covariant_derivative_entry", counted)
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            for Y in FRAME_INDICES:
                calls.clear()
                codazzi_residual(ctx, X, Y)
                assert len(calls) == 6


# -- curvature --------------------------------------------------------------------

def test_curvature_antisymmetry(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        basis = [VectorField.basis(i) for i in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    Rijk = curvature(ctx, basis[i], basis[j], basis[k])
                    Rjik = curvature(ctx, basis[j], basis[i], basis[k])
                    assert (Rijk + Rjik).is_zero
        # R(X, X) Z = 0 on a non-basis argument too
        X = basis[0].scale(ctx.c) + basis[2]
        assert curvature(ctx, X, X, basis[1]).is_zero


def test_curvature_skew_in_last_slots(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        basis = [VectorField.basis(i) for i in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        a = curvature(ctx, basis[i], basis[j], basis[k]).dot(basis[l])
                        b = curvature(ctx, basis[i], basis[j], basis[l]).dot(basis[k])
                        assert (a + b).is_zero


def test_curvature_hopf_examples(hopf):
    W, phiW, xi = (VectorField.basis(i) for i in range(3))
    assert curvature(hopf, W, phiW, xi).is_zero
    sectional = curvature(hopf, W, xi, xi).dot(W)
    assert sectional == hopf.c / 4 + hopf.sym("alpha") * hopf.sym("lambda")


def _gauss_vector_form(ctx, X, Y, Z):
    """R(X, Y) Z as a sum of vector fields: the reference for curvature_operator.

    R(X, Y) Z = (c/4)[g(Y, Z) X - g(X, Z) Y + g(phi Y, Z) phi X
                      - g(phi X, Z) phi Y - 2 g(phi X, Y) phi Z]
                + g(A Y, Z) A X - g(A X, Z) A Y
    """
    phi, A = ctx.phi, ctx.A
    c4 = ctx.c / 4
    phiX, phiY, phiZ = phi.apply(X), phi.apply(Y), phi.apply(Z)
    AX, AY = A.apply(X), A.apply(Y)
    out = X.scale(c4 * Y.dot(Z))
    out = out - Y.scale(c4 * X.dot(Z))
    out = out + phiX.scale(c4 * phiY.dot(Z))
    out = out - phiY.scale(c4 * phiX.dot(Z))
    out = out - phiZ.scale(2 * c4 * phiX.dot(Y))
    out = out + AX.scale(AY.dot(Z))
    out = out - AY.scale(AX.dot(Z))
    return out


@pytest.mark.parametrize("context", ["nonhopf", "hopf", "generic"])
def test_curvature_operator_matches_vector_form_gauss(context, request):
    ctx = request.getfixturevalue(context)
    basis = [VectorField.basis(i) for i in range(3)]
    for i in range(3):
        for j in range(3):
            op = curvature_operator(ctx, FRAME_INDICES[i], FRAME_INDICES[j])
            for k in range(3):
                assert op.column(k) == _gauss_vector_form(ctx, basis[i], basis[j], basis[k])


def test_curvature_contracts_operators_on_non_basis_fields(nonhopf, hopf, generic):
    for ctx in (nonhopf, hopf, generic):
        s = ctx.sym("alpha")
        e1, e2, e3 = (VectorField.basis(i) for i in range(3))
        fields = (e1 + e3.scale(s), e2.scale(ctx.c) - e1, e1 - e2.scale(s * s) + e3.scale(3))
        for X in fields:
            for Y in fields:
                for Z in fields:
                    assert curvature(ctx, X, Y, Z) == _gauss_vector_form(ctx, X, Y, Z)


def test_frame_calculus_takes_no_gcd(monkeypatch):
    # every frame quantity is polynomial, so no Expr needs a gcd reduction
    calls = []
    gcd = rational.poly_gcd

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(rational, "poly_gcd", counted)
    # contexts of their own: the shared ones may hold their tensors already
    for ctx in (build_nonhopf_context.__wrapped__(), build_hopf_context.__wrapped__()):
        ricci(ctx)
        star_ricci_trace(ctx)
        star_ricci_closed(ctx)
        for X in FRAME_INDICES:
            for Y in FRAME_INDICES:
                codazzi_residual(ctx, X, Y)
    assert len(calls) == 0


def test_frame_calculus_never_enters_the_canonicalizing_constructor(monkeypatch):
    # every frame quantity is polynomial, so every Expr comes from the fast path
    calls = []
    init = Expr.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Expr, "__init__", counted)
    # contexts of their own: the shared ones may hold their tensors already
    for ctx in (build_nonhopf_context.__wrapped__(), build_hopf_context.__wrapped__()):
        ricci(ctx)
        star_ricci_trace(ctx)
        sstar = star_ricci_closed(ctx)
        for X in FRAME_INDICES:
            for Y in FRAME_INDICES:
                codazzi_residual(ctx, X, Y)
                for P in FRAME_INDICES:
                    covariant_derivative_entry(ctx, X, sstar, Y, P)
    assert len(calls) == 0


def test_curvature_carries_no_derivative_symbols(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for i in range(3):
            for j in range(3):
                op = curvature_operator(ctx, FRAME_INDICES[i], FRAME_INDICES[j])
                assert not any(s.kind == DERIVATIVE for s in op.symbols())


# -- Ricci and star-Ricci ----------------------------------------------------------

def test_ricci_gauss_only_closed_form(nonhopf):
    # with A = 0 the contraction gives (c/4) diag(5, 5, 2)
    ctx0 = with_shape_operator(nonhopf, Tensor11.zero())
    S = ricci(ctx0)
    c = nonhopf.c
    expected = Tensor11((
        (c * Fraction(5, 4), 0, 0),
        (0, c * Fraction(5, 4), 0),
        (0, 0, c * Fraction(1, 2)),
    ))
    assert S == expected


def test_ricci_symmetry_and_trace(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        S = ricci(ctx)
        assert S.is_symmetric()
        tr1 = S.trace()
        tr2 = sum((S.column(j)[j.value] for j in FRAME_INDICES), Expr.zero())
        assert tr1 == tr2


def test_star_ricci_closed_components(nonhopf, hopf):
    # the closed shape decides which frame's S* reports share mirrored
    # entries: the D-block is (c + gamma mu - delta^2) I_2 and the xi row is
    # zero, but S* xi = beta (mu e1 - delta e2) makes the non-Hopf S* asymmetric
    S = star_ricci_closed(nonhopf)
    beta, mu, delta = (nonhopf.sym(n) for n in ("beta", "mu", "delta"))
    q = nonhopf.c + nonhopf.sym("gamma") * mu - delta * delta
    assert S.column(E3) == VectorField((beta * mu, -beta * delta, Expr.zero()))
    assert S.column(E1) == VectorField((q, Expr.zero(), Expr.zero()))
    assert S.column(E2) == VectorField((Expr.zero(), q, Expr.zero()))

    # and the Hopf S* is (c + lambda nu)(I - eta (x) xi), which is symmetric
    Sh = star_ricci_closed(hopf)
    p = hopf.c + hopf.sym("lambda") * hopf.sym("nu")
    eta_xi = Tensor11(((0, 0, 0), (0, 0, 0), (0, 0, 1)))
    assert Sh == (Tensor11.identity() - eta_xi).scale(p)


def test_star_ricci_gauss_only(nonhopf):
    ctx0 = with_shape_operator(nonhopf, Tensor11.zero())
    S = star_ricci_closed(ctx0)
    # S* = -c phi^2: the curvature constant on D, zero on xi
    assert S == Tensor11(((nonhopf.c, 0, 0), (0, nonhopf.c, 0), (0, 0, 0)))
    assert star_ricci_trace(ctx0) == S


def test_star_ricci_trace_equals_closed_form(nonhopf, hopf):
    assert star_ricci_trace(nonhopf) == star_ricci_closed(nonhopf)
    assert star_ricci_trace(hopf) == star_ricci_closed(hopf)


def test_star_ricci_symmetry_split(nonhopf, hopf):
    # symmetric in the Hopf frame, genuinely asymmetric in the non-Hopf one
    assert star_ricci_closed(hopf).is_symmetric()
    S = star_ricci_closed(nonhopf)
    assert not S.is_symmetric()
    assert S.entry(0, 2) == nonhopf.sym("beta") * nonhopf.sym("mu")
    assert S.entry(2, 0).is_zero


def test_star_ricci_carries_no_derivative_symbols(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for T in (star_ricci_closed(ctx), star_ricci_trace(ctx)):
            assert not any(s.kind == DERIVATIVE for s in T.symbols())


# -- Codazzi ------------------------------------------------------------------------

def test_codazzi_residual_antisymmetry(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        for X in FRAME_INDICES:
            assert codazzi_residual(ctx, X, X).is_zero


def test_codazzi_residual_nonhopf_stability(nonhopf):
    first = codazzi_residual(nonhopf, E1, E3)
    second = codazzi_residual(nonhopf, E1, E3)
    assert first == second
    # a triple of expressions linear in the derivative symbols of the
    # curvature functions and polynomial in the kappa's
    for comp in first:
        for sym in comp.symbols():
            assert sym.kind == DERIVATIVE or not sym.name.startswith("D(")


def test_codazzi_hopf_xi_component_closed_form(hopf):
    res = codazzi_residual(hopf, E1, E2)
    al, lam, nu = (hopf.sym(n) for n in ("alpha", "lambda", "nu"))
    assert res[2] == al * lam + al * nu - 2 * lam * nu + hopf.c / 2


def test_codazzi_hopf_xi_component_is_the_principal_curvature_relation(hopf):
    # the relation the Hopf replay takes as input, from the derived connection
    res = codazzi_residual(hopf, E1, E2)
    assert res[2] == -2 * hopf.parse(proofs.BASIC_RELATION_TEXT)
    lam, nu = hopf.sym("lambda"), hopf.sym("nu")
    assert res[0] == hopf.sym("h1") * (lam - nu)
    assert res[1] == -hopf.sym("h2") * (lam - nu)


def test_codazzi_hopf_vanishes_on_models():
    from starricci.catalog import builtin_catalog

    hopf = build_hopf_context()
    res = codazzi_residual(hopf, E1, E2)
    for fam in builtin_catalog().families:
        lo, hi = fam.sample_window()
        for i in range(7):
            r = lo + (hi - lo) * i / 6
            a, l, n = fam.curvatures(r)
            bindings = {"alpha": a, "lambda": l, "nu": n, "c": float(fam.space.c)}
            for comp in res:
                local = dict(bindings)
                for sym in comp.symbols():
                    local.setdefault(sym.name, 0.0)
                assert abs(comp.eval(local)) < 1e-9
