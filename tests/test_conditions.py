import pytest

from starricci.conditions import (
    ConditionKind,
    einstein_equations,
    d_parallel_equations,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    xi_parallel_equations,
    _derivation,
    _wedge_operator,
)
from starricci.frames import (
    FRAME_INDICES,
    FrameIndex,
    Tensor11,
    VectorField,
    build_hopf_context,
    build_nonhopf_context,
    curvature_operator,
    star_ricci_closed,
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


def test_report_shapes(nonhopf):
    T = star_ricci_closed(nonhopf)
    assert len(parallel_equations(nonhopf, T)) == 27
    assert len(xi_parallel_equations(nonhopf, T)) == 9
    assert len(d_parallel_equations(nonhopf, T)) == 18
    assert len(semi_parallel_equations(nonhopf, T)) == 27
    L = nonhopf.sym("alpha")
    assert len(pseudo_parallel_equations(nonhopf, T, L)) == 27
    assert len(einstein_equations(nonhopf)) == 9


def test_identity_annihilation(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        I = Tensor11.identity()
        assert parallel_equations(ctx, I).is_zero()
        assert xi_parallel_equations(ctx, I).is_zero()
        assert d_parallel_equations(ctx, I).is_zero()
        assert semi_parallel_equations(ctx, I).is_zero()
        L = ctx.sym("alpha")
        assert pseudo_parallel_equations(ctx, I, L).is_zero()


def test_scalar_multiple_of_identity_is_semi_parallel(nonhopf):
    s = nonhopf.sym("gamma")
    T = Tensor11.identity().scale(s)
    assert semi_parallel_equations(nonhopf, T).is_zero()


def test_slice_coherence(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        T = star_ricci_closed(ctx)
        full = parallel_equations(ctx, T)
        d = d_parallel_equations(ctx, T)
        xi = xi_parallel_equations(ctx, T)
        combined = list(d.entries) + list(xi.entries)
        assert [(e.x, e.y, e.proj, e.equation) for e in full.entries] == \
            [(e.x, e.y, e.proj, e.equation) for e in combined]


def test_parallel_entries_nonhopf(nonhopf):
    T = star_ricci_closed(nonhopf)
    rep = parallel_equations(nonhopf, T, "star-ricci")
    assert rep.get(E3, E3, E3).equation == nonhopf.parse("beta^2*delta")
    # the same projection sits in the xi slice
    assert xi_parallel_equations(nonhopf, T).get(E3, E3, E3).equation == \
        nonhopf.parse("beta^2*delta")


def test_parallel_entries_hopf_sign_convention(hopf):
    # with (nabla_X T) Y = nabla_X(T Y) - T(nabla_X Y):
    #   g((nabla_W S*) xi, phiW)   = -lambda (c + lambda nu)
    #   g((nabla_phiW S*) xi, W)   = +nu (c + lambda nu)
    T = star_ricci_closed(hopf)
    rep = parallel_equations(hopf, T, "star-ricci")
    p = hopf.c + hopf.sym("lambda") * hopf.sym("nu")
    assert rep.get(E1, E3, E2).equation == -(hopf.sym("lambda") * p)
    assert rep.get(E2, E3, E1).equation == hopf.sym("nu") * p
    assert d_parallel_equations(hopf, T).get(E2, E3, E1).equation == hopf.sym("nu") * p


def test_semi_parallel_antisymmetry_economy(nonhopf):
    T = star_ricci_closed(nonhopf)
    rep = semi_parallel_equations(nonhopf, T)
    for X, Y in ((E1, E2), (E1, E3), (E2, E3)):
        flipped = _derivation(curvature_operator(nonhopf, Y, X), T)
        for K in FRAME_INDICES:
            for L in FRAME_INDICES:
                assert rep.get((X, Y), K, L).equation == \
                    -flipped.entry(L.value, K.value)


def test_semi_and_pseudo_are_algebraic(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        T = star_ricci_closed(ctx)
        L = ctx.sym("alpha")
        for rep in (semi_parallel_equations(ctx, T),
                    pseudo_parallel_equations(ctx, T, L),
                    einstein_equations(ctx)):
            for e in rep.entries:
                assert not any(s.kind == DERIVATIVE for s in e.equation.symbols())


def test_pseudo_parallel_reduces_to_semi_at_zero(nonhopf, hopf):
    for ctx in (nonhopf, hopf):
        T = star_ricci_closed(ctx)
        semi = semi_parallel_equations(ctx, T)
        pseudo = pseudo_parallel_equations(ctx, T, Expr.zero())
        assert semi.equations() == pseudo.equations()


def test_wedge_operator_action():
    w = _wedge_operator(E1, E2)
    # (e1 ^ e2) e1 = g(e2, e1) e1 - g(e1, e1) e2 = -e2
    assert w.column(E1) == VectorField((0, -1, 0))
    assert w.column(E2) == VectorField((1, 0, 0))
    assert w.column(E3).is_zero


def test_einstein_report(hopf):
    scope = hopf.table.scope()
    rep = einstein_equations(hopf, scope)
    assert len(rep) == 9
    # symmetric report
    for Y in FRAME_INDICES:
        for P in FRAME_INDICES:
            assert rep.get((), Y, P).equation == rep.get((), P, Y).equation
    # an exactly Einstein data point: alpha = -2, lambda = nu = 1, c = -4
    # makes the Ricci tensor -6 * Id
    bind = {
        hopf.symbol("alpha"): Expr.const(-2),
        hopf.symbol("lambda"): Expr.const(1),
        hopf.symbol("nu"): Expr.const(1),
        hopf.symbol("c"): Expr.const(-4),
        scope.get("lambda_e"): Expr.const(-6),
    }
    assert rep.substitute(bind).is_zero()


def test_einstein_horosphere_off_diagonals_vanish(hopf):
    rep = einstein_equations(hopf)
    bindings = {"alpha": 2.0, "lambda": 1.0, "nu": 1.0, "c": -4.0, "lambda_e": 0.0}
    for e in rep.entries:
        if e.y is not e.proj:
            assert abs(e.equation.eval(bindings)) < 1e-9


def test_condition_kind_names():
    assert ConditionKind("parallel") is ConditionKind.PARALLEL
    assert ConditionKind("pseudo-parallel") is ConditionKind.PSEUDO_PARALLEL
    with pytest.raises(ValueError):
        ConditionKind("bogus")
