import inspect
from fractions import Fraction

import pytest

from starricci import conditions
from starricci.conditions import (
    ConditionKind,
    build_report,
    einstein_equations,
    d_parallel_equations,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    xi_parallel_equations,
    _PAIRS,
    _derivation,
    _is_skew,
    _metric_connection,
    _wedge_operator,
)
from starricci.frames import (
    FRAME_INDICES,
    ConnectionTable,
    FrameContext,
    FrameIndex,
    Tensor11,
    VectorField,
    _curvature_operators,
    build_hopf_context,
    build_nonhopf_context,
    covariant_derivative_entry,
    curvature_operator,
    ricci,
    star_ricci_closed,
)
from starricci.parsing import parse_expr
from starricci.polynomial import Polynomial
from starricci.rational import Expr
from starricci.symbols import DERIVATIVE, DIRECTIONS

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


def test_a_report_carries_no_tensor_name(hopf):
    # nothing reads a tensor's name: no builder takes one and no report keeps one
    builders = (parallel_equations, xi_parallel_equations, d_parallel_equations,
                semi_parallel_equations, pseudo_parallel_equations, einstein_equations,
                build_report, conditions._nabla_condition, conditions._curvature_derivation)
    for builder in builders:
        assert "tensor_name" not in inspect.signature(builder).parameters, builder.__name__
    for kind in ConditionKind:
        assert not hasattr(build_report(hopf, kind, star_ricci_closed(hopf)), "tensor_name")


def test_parallel_entries_nonhopf(nonhopf):
    T = star_ricci_closed(nonhopf)
    rep = parallel_equations(nonhopf, T)
    assert rep.get(E3, E3, E3).equation == nonhopf.parse("beta^2*delta")
    # the same projection sits in the xi slice
    assert xi_parallel_equations(nonhopf, T).get(E3, E3, E3).equation == \
        nonhopf.parse("beta^2*delta")


def test_parallel_entries_hopf_sign_convention(hopf):
    # with (nabla_X T) Y = nabla_X(T Y) - T(nabla_X Y):
    #   g((nabla_W S*) xi, phiW)   = -lambda (c + lambda nu)
    #   g((nabla_phiW S*) xi, W)   = +nu (c + lambda nu)
    T = star_ricci_closed(hopf)
    rep = parallel_equations(hopf, T)
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


# -- one accumulation per entry -------------------------------------------------

def _derivation_reference(op, T):
    """The body of _derivation before each entry became one accumulation."""
    return (op @ T) - (T @ op)


def _pseudo_reference(ctx, T, L):
    """The pseudo-parallel entries as two derivations, a scale and a
    subtraction per pair, keyed like ConditionReport.get."""
    R = _curvature_operators(ctx)
    out = {}
    for X, Y in _PAIRS:
        d = _derivation_reference(R[X.value][Y.value], T)
        diff = d - _derivation_reference(_wedge_operator(X, Y), T).scale(L)
        for K in FRAME_INDICES:
            for P in FRAME_INDICES:
                out[(X, Y), K, P] = diff.entry(P.value, K.value)
    return out


def _assert_same(got, reference):
    """Equal in every slot and in text; got takes the shared unit denominator."""
    assert (got.num, got.den) == (reference.num, reference.den)
    assert got.to_text() == reference.to_text()
    if got.den.is_constant:
        assert got.den is Polynomial.one()


@pytest.mark.parametrize("context", ["nonhopf", "hopf", "generic"])
def test_derivations_equal_their_reference_bodies(context, request):
    ctx = request.getfixturevalue(context)
    # the last T has rational entries, which take the Expr operators inside
    # each accumulation, and so does L = 1/alpha
    rational_part = Tensor11(((0, ctx.parse("1/(alpha + 1)"), 0),
                              (ctx.parse("alpha/c"), 0, 0),
                              (0, 0, ctx.parse("c/alpha"))))
    scope = ctx.table.scope()
    Ls = [parse_expr(text, scope, define_missing=True) for text in ("0", "alpha + mu", "1/alpha")]
    R = _curvature_operators(ctx)
    for T in (ricci(ctx), star_ricci_closed(ctx), ricci(ctx) + rational_part):
        for op in (R[0][1], R[0][2], R[1][2], _wedge_operator(E1, E3), rational_part):
            got, reference = _derivation(op, T), _derivation_reference(op, T)
            for i in range(3):
                for j in range(3):
                    _assert_same(got.entry(i, j), reference.entry(i, j))
        semi = semi_parallel_equations(ctx, T)
        for L in Ls:
            reference = _pseudo_reference(ctx, T, L)
            report = pseudo_parallel_equations(ctx, T, L)
            assert len(report) == len(reference)
            for e in report.entries:
                _assert_same(e.equation, reference[e.x, e.y, e.proj])
                if L.is_zero:
                    _assert_same(semi.get(e.x, e.y, e.proj).equation, e.equation)


def _calls(monkeypatch, name, owner=Polynomial):
    """A list that gains one item per call of owner.<name> from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("build", [build_nonhopf_context, build_hopf_context])
def test_report_entries_are_one_accumulation_each(monkeypatch, build):
    # a context of its own, whose operators and tensors are built beforehand
    ctx = build.__wrapped__()
    _curvature_operators(ctx)
    tensors = (ricci(ctx), star_ricci_closed(ctx))
    L = parse_expr("alpha + mu", ctx.table.scope(), define_missing=True)
    built, products = _calls(monkeypatch, "__init__"), _calls(monkeypatch, "__mul__")
    for T in tensors:
        products.clear()
        parallel_equations(ctx, T)
        semi_parallel_equations(ctx, T)
        assert products == []
        # at most one Polynomial per semi-parallel entry and two per
        # pseudo-parallel one; the non-Hopf Ricci tensor's reports built 186
        # and 273 when each link of a sum built one
        built.clear()
        semi_parallel_equations(ctx, T)
        assert len(built) <= 27
        built.clear()
        pseudo_parallel_equations(ctx, T, L)
        assert len(built) <= 54


# Polynomials built by parallel_equations on the Ricci and the *-Ricci
# tensor of a prebuilt context.  The non-Hopf counts were (54, 37) when each
# derivative e_X(T_PY) built a Polynomial of its own.
# Symmetric tensors (both Ricci tensors, the Hopf S*) build only the entries
# with y <= proj: the counts were (27, 25) and (10, 4) when every entry was built.
_PARALLEL_CONSTRUCTIONS = {build_nonhopf_context: (18, 25), build_hopf_context: (5, 2)}


@pytest.mark.parametrize("build", [build_nonhopf_context, build_hopf_context])
def test_parallel_reports_build_no_empty_derivative(monkeypatch, build):
    # a polynomial free of function symbols derives to the shared zero; when
    # each such derivative built an empty Polynomial, the Hopf reports built
    # 37 and 31 Polynomials, 27 of them empty.  The context's once-per-context
    # check that its connection is metric is made beforehand, like its operators.
    ctx = build.__wrapped__()
    _curvature_operators(ctx)
    assert _metric_connection(ctx)
    tensors = (ricci(ctx), star_ricci_closed(ctx))
    built = []
    original = Polynomial.__init__

    def counted(self, terms):
        built.append(len(terms))
        return original(self, terms)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    counts = []
    for T in tensors:
        built.clear()
        parallel_equations(ctx, T)
        assert 0 not in built
        counts.append(len(built))
    assert tuple(counts) == _PARALLEL_CONSTRUCTIONS[build]


def test_a_repeated_parallel_report_does_no_fraction_arithmetic(monkeypatch):
    # the c/4 coefficients of the non-Hopf Ricci tensor enter rational.dot
    # as ints over their common denominator; once the scaled() forms are
    # kept, a report adds and multiplies ints only
    ctx = build_nonhopf_context()
    T = ricci(ctx)
    first = parallel_equations(ctx, T)
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, _name=name, _op=original: ops.append(_name) or _op(a, b))
    second = parallel_equations(ctx, T)
    assert ops == []
    assert second.equations() == first.equations()
    assert any(type(c) is Fraction for e in second.equations() for _m, c in e.num.terms)


# -- mirrored entries ---------------------------------------------------------------

@pytest.mark.parametrize("context", ["nonhopf", "hopf", "generic"])
def test_the_mirror_premises_hold_on_the_frames(context, request):
    ctx = request.getfixturevalue(context)
    assert ricci(ctx).is_symmetric()
    assert star_ricci_closed(ctx).is_symmetric() == (context == "hopf")
    assert ctx.connection.is_metric_compatible()
    R = _curvature_operators(ctx)
    for i in range(3):
        for j in range(3):
            assert _is_skew(R[i][j])


def test_wedge_operators_are_skew():
    for X in FRAME_INDICES:
        for Y in FRAME_INDICES:
            assert _is_skew(_wedge_operator(X, Y))
    assert not _is_skew(Tensor11.identity())
    assert not _is_skew(Tensor11(((0, 1, 0), (1, 0, 0), (0, 0, 0))))


_NABLA_BUILDERS = ((parallel_equations, 27), (xi_parallel_equations, 9),
                   (d_parallel_equations, 18))


@pytest.mark.parametrize("context, tensor", [
    ("nonhopf", ricci), ("hopf", ricci), ("hopf", star_ricci_closed),
    ("nonhopf", star_ricci_closed)])
def test_symmetric_tensors_build_each_mirrored_pair_once(monkeypatch, request, context, tensor):
    ctx = request.getfixturevalue(context)
    T = tensor(ctx)
    symmetric = T.is_symmetric()
    assert symmetric == (tensor is ricci or context == "hopf")
    calls = _calls(monkeypatch, "covariant_derivative_entry", conditions)
    for build, entries in _NABLA_BUILDERS:
        calls.clear()
        report = build(ctx, T)
        assert len(report) == entries
        assert len(calls) == (entries * 2 // 3 if symmetric else entries)
        for e in report.entries:
            _assert_same(e.equation, covariant_derivative_entry(ctx, e.x[0], T, e.y, e.proj))
            if symmetric:
                assert report.get(e.x, e.proj, e.y).equation is e.equation
    # each of the 3 derivations builds 6 of its 9 entries on a symmetric T
    products = _calls(monkeypatch, "dot", conditions)
    for L in (Expr.zero(), parse_expr("alpha + c", ctx.table.scope())):
        products.clear()
        report = pseudo_parallel_equations(ctx, T, L)
        assert len(products) == (18 if symmetric else 27)
        reference = _pseudo_reference(ctx, T, L)
        for e in report.entries:
            _assert_same(e.equation, reference[e.x, e.y, e.proj])
            if symmetric:
                assert report.get(e.x, e.proj, e.y).equation is e.equation


def test_a_connection_that_is_not_metric_builds_every_entry(monkeypatch, nonhopf):
    # Gamma_112 gains alpha while Gamma_121 keeps its value, so Gamma_1jk is
    # no longer skew in (j, k), and nabla_{e1} of a symmetric T need not be
    # symmetric
    entries = [list(map(list, slice_)) for slice_ in nonhopf.connection.entries]
    entries[0][0][1] = entries[0][0][1] + nonhopf.sym("alpha")
    connection = ConnectionTable(entries)
    assert not connection.is_metric_compatible()
    ctx = FrameContext(nonhopf.kind, nonhopf.table, nonhopf.c, nonhopf.A, nonhopf.phi,
                       connection)
    T = ricci(ctx)
    assert T.is_symmetric()
    calls = _calls(monkeypatch, "covariant_derivative_entry", conditions)
    report = parallel_equations(ctx, T)
    assert len(calls) == 27
    monkeypatch.undo()
    expected = [covariant_derivative_entry(ctx, X, T, Y, P)
                for X in FRAME_INDICES for Y in FRAME_INDICES for P in FRAME_INDICES]
    assert report.equations() == tuple(expected)
    assert report.get(E1, E1, E2).equation != report.get(E1, E2, E1).equation


def test_substitute_takes_each_distinct_equation_once(monkeypatch, hopf):
    report = parallel_equations(hopf, ricci(hopf))
    distinct = {id(e.equation) for e in report.entries}
    assert len(distinct) < 18
    substituted = []
    original = Expr.substitute

    def counted(self, bindings):
        substituted.append(id(self))
        return original(self, bindings)

    monkeypatch.setattr(Expr, "substitute", counted)
    out = report.substitute({hopf.symbol("c"): Expr.const(4)})
    assert sorted(substituted) == sorted(distinct)
    monkeypatch.undo()
    for e, s in zip(report.entries, out.entries):
        assert (s.x, s.y, s.proj) == (e.x, e.y, e.proj)
        _assert_same(s.equation, e.equation.substitute({hopf.symbol("c"): Expr.const(4)}))
        assert out.get(s.x, s.proj, s.y).equation is s.equation


@pytest.mark.parametrize("kind", list(ConditionKind))
def test_a_report_carries_its_labels_once_per_shape(nonhopf, hopf, kind):
    # the labels are the entries' label()s, one tuple for every report of a
    # kind whatever the frame, tensor or L, and substitute keeps them
    reports = [build_report(ctx, kind, tensor(ctx), Expr.from_symbol(ctx.symbol("alpha")))
               for ctx in (nonhopf, hopf) for tensor in (star_ricci_closed, ricci)]
    first = reports[0].labels
    assert first == tuple(e.label() for e in reports[0].entries)
    assert all(r.labels is first for r in reports)
    assert reports[0].substitute({nonhopf.symbol("c"): Expr.const(4)}).labels is first


def _hopf_specialisation(nonhopf, hopf):
    """Bindings that put the non-Hopf frame on the Hopf one: beta = delta = 0,
    gamma -> lambda, mu -> nu, alpha -> alpha, kappa_i -> h_i with
    D(ej,kappa_i) -> D(ej,h_i), and every other curvature derivative -> 0."""
    nt, ht = nonhopf.table, hopf.table
    out = {}
    for name, value in (("alpha", hopf.sym("alpha")), ("beta", 0), ("gamma", hopf.sym("lambda")),
                        ("delta", 0), ("mu", hopf.sym("nu"))):
        f = nt.get(name)
        out[f] = value
        out.update((nt.derivative(f, d), 0) for d in DIRECTIONS)
    for i in (1, 2, 3):
        kappa, h = nt.get(f"kappa{i}"), ht.get(f"h{i}")
        out[kappa] = Expr.from_symbol(h)
        out.update((nt.derivative(kappa, d), Expr.from_symbol(ht.derivative(h, d)))
                   for d in DIRECTIONS)
    return out


@pytest.mark.parametrize("kind", [ConditionKind.PARALLEL, ConditionKind.XI_PARALLEL,
                                  ConditionKind.D_PARALLEL, ConditionKind.SEMI_PARALLEL,
                                  ConditionKind.EINSTEIN])
@pytest.mark.parametrize("name, tensor", [("star-ricci", star_ricci_closed), ("ricci", ricci)])
def test_the_nonhopf_reports_specialise_to_the_hopf_reports(nonhopf, hopf, name, tensor, kind):
    bindings = _hopf_specialisation(nonhopf, hopf)
    special = build_report(nonhopf, kind, tensor(nonhopf)).substitute(bindings)
    expected = build_report(hopf, kind, tensor(hopf))
    assert len(special) == len(expected)
    for s, e in zip(special.entries, expected.entries):
        assert (s.x, s.y, s.proj) == (e.x, e.y, e.proj)
        assert s.equation == e.equation, (name, s.label())
