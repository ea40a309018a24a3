from fractions import Fraction

import pytest

from starricci import frames, rational
from starricci.frames import (
    FRAME_INDICES,
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
from starricci.rational import Expr
from starricci.symbols import DERIVATIVE

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
    ctx = build()
    free = Tensor11(
        tuple(Expr.from_symbol(ctx.table.function(f"t{i}{j}")) for j in range(3))
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


@pytest.fixture(scope="module")
def generic():
    """The non-Hopf frame with a symmetric shape operator of six free symbols."""
    ctx = build_nonhopf_context()
    a11, a12, a13, a22, a23, a33 = (
        Expr.from_symbol(ctx.table.constant(name))
        for name in ("a11", "a12", "a13", "a22", "a23", "a33")
    )
    A = Tensor11(((a11, a12, a13), (a12, a22, a23), (a13, a23, a33)))
    return with_shape_operator(ctx, A)


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
    for ctx in (build_nonhopf_context(), build_hopf_context()):
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
    for ctx in (build_nonhopf_context(), build_hopf_context()):
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
    S = star_ricci_closed(nonhopf)
    beta, mu, delta = (nonhopf.sym(n) for n in ("beta", "mu", "delta"))
    q = nonhopf.c + nonhopf.sym("gamma") * mu - delta * delta
    assert S.column(E3) == VectorField((beta * mu, -beta * delta, Expr.zero()))
    assert S.column(E1) == VectorField((q, Expr.zero(), Expr.zero()))
    assert S.column(E2) == VectorField((Expr.zero(), q, Expr.zero()))

    Sh = star_ricci_closed(hopf)
    p = hopf.c + hopf.sym("lambda") * hopf.sym("nu")
    assert Sh.column(E3).is_zero
    assert Sh.column(E1) == VectorField((p, Expr.zero(), Expr.zero()))
    assert Sh.column(E2) == VectorField((Expr.zero(), p, Expr.zero()))


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
