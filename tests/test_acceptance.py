"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import functools
import math
import random
import time
from fractions import Fraction

from starricci import (
    CH2,
    CP2,
    ConditionKind,
    Expr,
    FrameIndex,
    SymbolTable,
    Tensor11,
    VectorField,
    build_hopf_context,
    build_nonhopf_context,
    builtin_families,
    covariant_derivative_t11,
    curvature,
    evaluate_condition,
    hopf_branch,
    nonhopf_contradiction,
    parse_expr,
    quadratic_analysis,
    quadratic_elimination,
    solve_quadratic,
    star_ricci_closed,
    star_ricci_trace,
    type_b_exclusion,
)
from starricci.conditions import (
    d_parallel_equations,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    xi_parallel_equations,
)
from starricci.frames import FRAME_INDICES
from starricci.rational import NearZeroDenominator

E1, E2, E3 = FrameIndex.E1, FrameIndex.E2, FrameIndex.E3


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def criterion(n, short):
    """Print the FAIL line when a criterion's assertions do not hold; the
    test body prints its own PASS line with run details."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {n}: {short}")
                raise
        return wrapper
    return deco


@criterion(1, "exact non-Hopf chain")
def test_criterion_1_exact_nonhopf_chain():
    t0 = time.perf_counter()
    trace = nonhopf_contradiction()
    elapsed = time.perf_counter() - t0
    ctx = build_nonhopf_context()
    assert [s.equation for s in trace.steps] == [
        ctx.parse("beta^2*delta"),
        ctx.parse("beta*mu^2"),
        ctx.parse("-c*beta"),
    ], "chain must be beta^2*delta, beta*mu^2, -c*beta with zero structural diff"
    assert trace.status == "contradiction"
    assert any("beta != 0" in h for h in trace.hypotheses)
    assert any("c != 0" in h for h in trace.hypotheses)
    assert elapsed < 1.0, f"non-Hopf chain took {elapsed:.3f}s (budget 1s)"
    _report(1, f"non-Hopf chain exact (beta^2*delta, beta*mu^2, -c*beta) in {elapsed*1e3:.0f} ms")


@criterion(2, "Hopf chain projections")
def test_criterion_2_hopf_chain():
    trace = hopf_branch()
    eqs = {s.label: s.equation for s in trace.steps}
    ctx = build_hopf_context()
    assert eqs["1"] == ctx.parse("lambda*(c + lambda*nu)")
    assert eqs["2b"] == ctx.parse("nu*(c + lambda*nu)")
    assert eqs["2c"] == ctx.parse("-c/4")
    assert not eqs["2c"].is_zero
    _report(2, "Hopf projections lambda*(c+lambda*nu), nu*(c+lambda*nu); "
               "relation at lambda=nu=0 gives -c/4 != 0")


@criterion(3, "quadratic replication")
def test_criterion_3_quadratic_replication():
    elimination = quadratic_elimination()
    # the expected forms are parsed in the elimination's own table
    cleared = parse_expr("2*alpha*nu^2 + 5*c*nu - 2*alpha*c", elimination.table.scope())
    discriminant = parse_expr("25*c^2 + 16*alpha^2*c", elimination.table.scope())
    for space, expect_bound in ((CP2, None), (CH2, Fraction(25, 4))):
        q = quadratic_analysis(space, elimination)
        assert q.cleared_equation == cleared
        assert {s.table for s in q.cleared_equation.symbols()} == {elimination.table}
        assert q.proportionality_factor != 0
        assert q.discriminant == discriminant
        if space is CP2:
            assert q.always_solvable
        else:
            assert q.alpha_sq_bound == expect_bound
            assert q.alpha_zero_excluded
    _report(3, "cleared relation is a nonzero multiple of 2*alpha*nu^2+5*c*nu-2*alpha*c; "
               "discriminant 25*c^2+16*alpha^2*c; c=-4 bound alpha^2 <= 25/4 with alpha=0 "
               "excluded; c=4 unconditional")


@criterion(4, "star-Ricci oracle equivalence")
def test_criterion_4_star_ricci_oracle_equivalence():
    nonhopf = build_nonhopf_context()
    hopf = build_hopf_context()
    for ctx in (nonhopf, hopf):
        assert star_ricci_trace(ctx) == star_ricci_closed(ctx)
    S = star_ricci_closed(nonhopf)
    beta, mu, delta = (nonhopf.sym(n) for n in ("beta", "mu", "delta"))
    q = nonhopf.c + nonhopf.sym("gamma") * mu - delta * delta
    assert S.column(E3) == VectorField((beta * mu, -beta * delta, Expr.zero()))
    assert S.column(E1) == VectorField((q, Expr.zero(), Expr.zero()))
    Sh = star_ricci_closed(hopf)
    p = hopf.c + hopf.sym("lambda") * hopf.sym("nu")
    assert Sh.column(E3).is_zero
    assert Sh.column(E1) == VectorField((p, Expr.zero(), Expr.zero()))
    _report(4, "trace form == closed form in both contexts; components reproduce "
               "S*xi = beta*mu U - beta*delta phiU, S*U = (c+gamma*mu-delta^2) U, "
               "S*xi = 0 and S*W = (c+lambda*nu) W")


@criterion(5, "principal-curvature oracle on all families")
def test_criterion_5_hopf_relation_oracle():
    t0 = time.perf_counter()
    families = builtin_families()
    assert len(families) == 6
    for fam in families:
        lo, hi = fam.sample_window()
        for i in range(100):
            r = lo + (hi - lo) * i / 99
            assert abs(fam.hopf_residual(r)) < 1e-9, (fam.family_id, r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s (budget 5s)"
    _report(5, f"all six families satisfy the principal-curvature relation "
               f"within 1e-9 at 100 radii each ({elapsed:.2f}s)")


@criterion(6, "type-B exclusion")
def test_criterion_6_type_b_exclusion():
    for space, expected in ((CP2, 3.0), (CH2, -3.0)):
        rep = type_b_exclusion(space, samples=100, tol=1e-9)
        assert rep.ok
        assert rep.expected == expected
        assert rep.max_deviation <= 1e-9
    _report(6, "lambda*nu + c = 3 (cp2-b) and -3 (ch2-b) within 1e-9 at all "
               "sampled radii: lambda*nu != -c certified")


@criterion(7, "non-existence witness")
def test_criterion_7_nonexistence_witness():
    worst = math.inf
    for fam in builtin_families():
        lo, hi = fam.sample_window()
        for i in range(100):
            r = lo + (hi - lo) * i / 99
            ev = evaluate_condition(fam, r, ConditionKind.PARALLEL)
            worst = min(worst, ev.max_abs_residual)
            assert ev.max_abs_residual > 1e-6, (fam.family_id, r)
    _report(7, f"parallel condition on S* stays violated on every family at 100 "
               f"sampled radii (min max-residual {worst:.3e} > 1e-6)")


@criterion(8, "structural invariant suite")
def test_criterion_8_structural_invariants():
    nonhopf = build_nonhopf_context()
    hopf = build_hopf_context()
    eta_xi = Tensor11(((-1, 0, 0), (0, -1, 0), (0, 0, 0)))
    for ctx in (nonhopf, hopf):
        # phi^2 = -Id + eta (x) xi
        assert ctx.phi @ ctx.phi == eta_xi
        # connection metric compatibility (antisymmetry in the last two slots)
        assert ctx.connection.is_metric_compatible()
        # nabla_X xi = phi A X
        for X in FRAME_INDICES:
            assert ctx.connection.nabla(X, E3) == ctx.phi.apply(ctx.A.column(X))
        # Gauss antisymmetries
        basis = [VectorField.basis(i) for i in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert (curvature(ctx, basis[i], basis[j], basis[k])
                            + curvature(ctx, basis[j], basis[i], basis[k])).is_zero
                    for l in range(3):
                        a = curvature(ctx, basis[i], basis[j], basis[k]).dot(basis[l])
                        b = curvature(ctx, basis[i], basis[j], basis[l]).dot(basis[k])
                        assert (a + b).is_zero
        # nabla Id = 0 and R . Id = 0
        for X in FRAME_INDICES:
            assert covariant_derivative_t11(ctx, X, Tensor11.identity()) == Tensor11.zero()
        assert semi_parallel_equations(ctx, Tensor11.identity()).is_zero()
        # parallel = xi-slice joined with D-slice; pseudo(L=0) = semi
        T = star_ricci_closed(ctx)
        full = parallel_equations(ctx, T).equations()
        split = d_parallel_equations(ctx, T).equations() + \
            xi_parallel_equations(ctx, T).equations()
        assert full == split
        assert pseudo_parallel_equations(ctx, T, Expr.zero()).equations() == \
            semi_parallel_equations(ctx, T).equations()
    _report(8, "structure relations, metric compatibility, nabla xi = phi A, Gauss "
               "antisymmetries, nabla Id = 0, R.Id = 0, slice coherence and the "
               "pseudo->semi reduction all hold exactly")


@criterion(9, "expression-layer property suite")
def test_criterion_9_exprcore_property_suite():
    rng = random.Random(314159)
    t = SymbolTable()
    syms = [t.constant(n) for n in ("x", "y", "z")]

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return Expr.const(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            return Expr.from_symbol(rng.choice(syms))
        a, b = rand_expr(depth - 1), rand_expr(depth - 1)
        op = rng.choice("+-**/")
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "/":
            return a / b if not b.is_zero else a
        return a * b

    # canonical-form equality checked against 1000 randomized numeric
    # evaluations at relative tolerance 1e-12
    checked = 0
    while checked < 1000:
        parts = [rand_expr(2) for _ in range(4)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        s1 = (parts[0] + parts[1]) + (parts[2] + parts[3])
        s2 = shuffled[0] + (shuffled[1] + (shuffled[2] + shuffled[3]))
        assert s1 == s2, "canonical forms must be structurally identical"
        point = {s.name: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for s in syms}
        try:
            exact = s1.eval_exact(point)
            v1, v2 = s1.eval(point), s2.eval(point)
        except NearZeroDenominator:
            continue
        if abs(exact) > 1e9:
            continue
        scale = max(1.0, abs(float(exact)))
        assert abs(v1 - float(exact)) <= 1e-12 * scale
        assert abs(v2 - float(exact)) <= 1e-12 * scale
        checked += 1

    # parse / print round-trip
    for _ in range(200):
        e = rand_expr(3)
        assert parse_expr(e.to_text(), t) == e

    # quadratic root back-substitution below 1e-9
    a_, b_, c_ = (Expr.from_symbol(s) for s in syms)
    quad = a_ * b_ * b_ + (a_ - 2) * b_ + c_  # quadratic in y with Expr coefficients
    sol = solve_quadratic(quad, syms[1])
    count = 0
    while count < 100:
        xv = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        cv = Fraction(rng.randint(-8, -1), rng.randint(1, 3))
        bind = {"x": float(xv), "z": float(cv)}
        disc = sol.discriminant.eval(bind)
        if disc < 0:
            continue
        for root in sol.roots:
            y = root.eval(bind)
            residual = quad.eval({"x": float(xv), "y": y, "z": float(cv)})
            assert abs(residual) < 1e-9
        count += 1
    _report(9, "canonical equality vs 1000 randomized evaluations (rel 1e-12), "
               "parse/print round-trip, quadratic back-substitution < 1e-9")
