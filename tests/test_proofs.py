import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from starricci import catalog, conditions, parsing, proofs
from starricci.catalog import (
    CH2,
    CP2,
    CatalogError,
    ConditionKind,
    builtin_catalog,
    evaluate_condition,
    parse_catalog,
    radius_grid,
)
from starricci.frames import FrameIndex, build_hopf_context, build_nonhopf_context
from starricci.parsing import parse_expr
from starricci.proofs import (
    IllegalCancellationError,
    NonzeroTracker,
    ProofError,
    Step,
    hopf_branch,
    nonhopf_contradiction,
    quadratic_analysis,
    quadratic_elimination,
    type_b_exclusion,
    verdict,
    verify_all,
)
from starricci.rational import Expr, ExprError
from starricci.symbols import DERIVATIVE, SymbolError, SymbolTable


def _parse(text):
    t = SymbolTable()
    for n in ("alpha", "beta", "gamma", "delta", "mu", "lambda", "nu", "c"):
        t.constant(n)
    return parse_expr(text, t)


# -- non-Hopf chain ----------------------------------------------------------------

def test_nonhopf_chain_exact_equations():
    t0 = time.perf_counter()
    trace = nonhopf_contradiction()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert [s.equation for s in trace.steps] == [
        _parse("beta^2*delta"),
        _parse("beta*mu^2"),
        _parse("-c*beta"),
    ]
    assert [s.conclusion.split()[0] for s in trace.steps] == ["delta", "mu", "c"]
    assert trace.steps[2].contradiction
    assert trace.status == "contradiction"


def test_nonhopf_chain_projection_bookkeeping():
    trace = nonhopf_contradiction()
    assert trace.steps[0].projection == ("e3", "e3", "e3")
    assert trace.steps[1].projection == ("e2", "e3", "e3")
    assert trace.steps[2].projection == ("e3", "e2", "e3")
    # exactly 3 of the 27 parallel equations are consumed
    assert len(trace.steps) == 3


def test_nonhopf_chain_independent_of_kappas_and_derivatives():
    trace = nonhopf_contradiction()
    for step in trace.steps:
        for sym in step.equation.symbols():
            assert sym.kind != DERIVATIVE
            assert not sym.name.startswith("kappa")


def test_nonhopf_chain_deterministic_replay():
    a = nonhopf_contradiction().to_text()
    b = nonhopf_contradiction().to_text()
    assert a == b


# -- Hopf branch --------------------------------------------------------------------

def test_hopf_branch_equations():
    trace = hopf_branch()
    eqs = {s.label: s.equation for s in trace.steps}
    assert eqs["1"] == _parse("lambda*(c + lambda*nu)")
    assert eqs["2b"] == _parse("nu*(c + lambda*nu)")
    assert eqs["2c"] == _parse("-c/4")
    assert trace.status == "open"
    assert set(trace.conclusions) == {"c + lambda*nu = 0", "lambda != 0", "nu != 0"}


def test_hopf_branch_case_a_is_contradictory():
    trace = hopf_branch()
    case_end = [s for s in trace.steps if s.label == "2c"][0]
    assert case_end.contradiction
    assert not case_end.equation.is_zero


def test_hopf_branch_deterministic_replay():
    assert hopf_branch().to_text() == hopf_branch().to_text()


@pytest.mark.parametrize("replay", [nonhopf_contradiction, hopf_branch])
def test_single_symbol_conclusions_are_proof_errors(monkeypatch, replay):
    # the check is a ProofError, not an assert that python -O would strip
    monkeypatch.setattr(proofs, "_single_symbol_power", lambda e: None)
    with pytest.raises(ProofError, match="does not force"):
        replay()


E1, E2, E3 = FrameIndex.E1, FrameIndex.E2, FrameIndex.E3


@pytest.mark.parametrize("replay, cited", [
    (nonhopf_contradiction, [(E3, E3, E3), (E2, E3, E3), (E3, E2, E3)]),
    (hopf_branch, [(E1, E3, E2), (E2, E3, E1)]),
])
def test_replays_compute_only_the_cited_projections(monkeypatch, replay, cited):
    calls = []
    entry = proofs.covariant_derivative_entry

    def counted(ctx, X, T, Y, P):
        calls.append((X, Y, P))
        return entry(ctx, X, T, Y, P)

    def no_report(*args):
        raise AssertionError("a full nabla report was built")

    monkeypatch.setattr(proofs, "covariant_derivative_entry", counted)
    # every parallel-type report, under any name, is built by _nabla_condition
    monkeypatch.setattr(conditions, "_nabla_condition", no_report)
    replay()
    assert calls == cited


@pytest.mark.parametrize("replay, build, names", [
    (nonhopf_contradiction, build_nonhopf_context, ("kappa1", "kappa2", "kappa3")),
    (hopf_branch, build_hopf_context, ("h1", "h2", "h3")),
])
def test_projections_holding_a_free_connection_coefficient_are_proof_errors(
        monkeypatch, replay, build, names):
    # the free coefficients are the context's Gamma_i12 entries, whatever their names
    ctx = build()
    for name in names:
        with pytest.raises(ProofError, match=f"unexpected symbol {name} "):
            proofs._assert_projection_purity(ctx, "1", ctx.sym(name) * ctx.c)
    proofs._assert_projection_purity(ctx, "1", ctx.sym("alpha") * ctx.c)
    # in a replay, a cited projection holding one is rejected before any cancellation
    entry = proofs.covariant_derivative_entry
    name = names[0]
    free = ctx.sym(name) * ctx.sym("alpha")
    monkeypatch.setattr(proofs, "covariant_derivative_entry",
                        lambda *args: entry(*args) + free)
    monkeypatch.setattr(proofs, "_expect", lambda *args: None)
    with pytest.raises(ProofError, match=f"step 1: unexpected symbol {name} "):
        replay()


# -- the step runner ---------------------------------------------------------------------

def _run(ctx, steps, nonzero):
    return proofs._replay(ctx, "test", (), nonzero, tuple(steps), ())


def _nonhopf_table():
    ctx = build_nonhopf_context()
    return ctx, list(proofs._nonhopf_steps(ctx))


def _hopf_table():
    ctx = build_hopf_context()
    return ctx, list(proofs._hopf_steps(ctx))


def test_the_tables_replay_as_the_named_replays():
    ctx, steps = _nonhopf_table()
    assert _run(ctx, steps, ("beta", "c")).steps == nonhopf_contradiction().steps
    ctx, steps = _hopf_table()
    assert _run(ctx, steps, ("c",)).steps == hopf_branch().steps


@pytest.mark.parametrize("table, nonzero, index, label, wrong", [
    (_nonhopf_table, ("beta", "c"), 1, "2", "beta*mu"),
    (_hopf_table, ("c",), 2, "2b", "nu*(c - lambda*nu)"),
], ids=["nonhopf-2", "hopf-2b"])
def test_a_row_with_a_wrong_expected_form_fails_at_its_label(table, nonzero, index, label, wrong):
    ctx, steps = table()
    steps[index] = steps[index]._replace(expect=ctx.parse(wrong))
    with pytest.raises(ProofError, match=f"step {label}: expected "):
        _run(ctx, steps, nonzero)


def _one_field_mutants(ctx, step):
    """Each copy of step with one field changed: expect times 2 and times -1,
    each other cite triple, at dropped, cancel dropped and zero renamed to
    each other name of ctx."""
    if step.expect is not None:
        yield from (step._replace(expect=step.expect * k) for k in (2, -1))
    if step.cite:
        yield from (step._replace(cite=cite) for cite in product(FrameIndex, repeat=3)
                    if cite != step.cite)
    if step.at:
        yield step._replace(at=())
    if step.cancel is not None:
        yield step._replace(cancel=None)
    if step.zero:
        yield from (step._replace(zero=name) for name in ctx.table._by_name if name != step.zero)


@pytest.mark.parametrize("table, nonzero, counts", [
    (_nonhopf_table, ("beta", "c"), (185, 1)),
    (_hopf_table, ("c",), (106, 2)),
], ids=["nonhopf", "hopf"])
def test_every_one_field_mutant_of_a_row_fails_at_its_label(table, nonzero, counts):
    ctx, steps = table()
    replayed = _run(ctx, steps, nonzero).steps
    mutants = equivalent = 0
    for i, step in enumerate(steps):
        for mutant in _one_field_mutants(ctx, step):
            mutants += 1
            rows = [*steps[:i], mutant, *steps[i + 1:]]
            if step.cite and mutant.cite != step.cite and mutant.cite == (
                    step.cite[0], step.cite[2], step.cite[1]):
                # the one declared equivalence: S* is symmetric, so swapping Y
                # and P of g((nabla_X S*) Y, P) cites the same equation
                assert _run(ctx, rows, nonzero).steps[i].equation == replayed[i].equation
                equivalent += 1
                continue
            with pytest.raises(ProofError, match=f"^step {re.escape(step.label)}: "):
                _run(ctx, rows, nonzero)
    assert (mutants, equivalent) == counts


def test_at_substitutes_only_a_zero_in_force():
    # mu is concluded zero by step 2, not before it
    ctx, steps = _nonhopf_table()
    steps[1] = steps[1]._replace(at=("delta", "mu"))
    with pytest.raises(ProofError, match="step 2: mu = 0 is not in force"):
        _run(ctx, steps, ("beta", "c"))
    # lambda = 0 was concluded under the case that step 2c closed
    ctx, steps = _hopf_table()
    steps.append(Step("4", "lambda = 0 from the closed case", "c = 0",
                      equation=ctx.parse("lambda + c"), at=("lambda",)))
    with pytest.raises(ProofError, match="step 4: lambda = 0 is not in force"):
        _run(ctx, steps, ("c",))


def test_closing_a_case_withdraws_its_hypothesis():
    ctx, steps = _hopf_table()
    p = steps[1].case
    assert p == ctx.c + ctx.sym("lambda") * ctx.sym("nu")
    steps[4] = Step("4", "step 1 again, cancelling c + lambda*nu", "lambda = 0",
                    cite=(E1, E3, E2), cancel=p, zero="lambda")
    with pytest.raises(IllegalCancellationError, match="was not declared nonzero"):
        _run(ctx, steps, ("c",))


def test_tables_that_leave_the_proof_shape_are_proof_errors():
    ctx, steps = _nonhopf_table()
    with pytest.raises(ProofError, match="step 4: follows the closing contradiction"):
        _run(ctx, steps + [steps[0]._replace(label="4")], ("beta", "c"))
    ctx, steps = _hopf_table()
    with pytest.raises(ProofError, match="a case is left open"):
        _run(ctx, steps[:2], ("c",))
    with pytest.raises(ProofError, match="step 2b: a case is already open"):
        _run(ctx, [*steps[:2], steps[2]._replace(case=ctx.c), *steps[3:]], ("c",))


# -- cancellation discipline ----------------------------------------------------------

def test_nonzero_tracker_rejects_undeclared_factor():
    t = SymbolTable()
    beta = Expr.from_symbol(t.constant("beta"))
    delta = Expr.from_symbol(t.constant("delta"))
    tracker = NonzeroTracker([beta])
    reduced = tracker.cancel(beta * beta * delta, beta)
    assert reduced == delta
    with pytest.raises(IllegalCancellationError):
        tracker.cancel(beta * delta, delta)


def test_nonzero_tracker_rejects_non_dividing_factor():
    t = SymbolTable()
    beta = Expr.from_symbol(t.constant("beta"))
    mu = Expr.from_symbol(t.constant("mu"))
    tracker = NonzeroTracker([beta])
    with pytest.raises(ProofError):
        tracker.cancel(mu + 1, beta)
    with pytest.raises(ProofError):
        tracker.declare(Expr.zero())


# -- quadratic analysis -----------------------------------------------------------------

def test_quadratic_analysis_cp2():
    q = quadratic_analysis(CP2, quadratic_elimination())
    assert q.cleared_equation == _parse("2*alpha*nu^2 + 5*c*nu - 2*alpha*c")
    assert q.proportionality_factor == Fraction(-1, 4)
    assert q.discriminant == _parse("25*c^2 + 16*alpha^2*c")
    assert q.discriminant_at_c == _parse("400 + 64*alpha^2")
    assert q.always_solvable and q.alpha_sq_bound is None


def test_quadratic_analysis_ch2():
    q = quadratic_analysis(CH2, quadratic_elimination())
    assert q.discriminant_at_c == _parse("400 - 64*alpha^2")
    assert not q.always_solvable
    assert q.alpha_sq_bound == Fraction(25, 4)
    assert q.alpha_zero_excluded
    assert "0 < alpha^2 <= 25/4" in q.solvability


# -- type-B exclusion ----------------------------------------------------------------------

def test_type_b_exclusion_both_spaces():
    for space, expected in ((CP2, 3.0), (CH2, -3.0)):
        rep = type_b_exclusion(space, samples=100)
        assert rep.ok
        assert rep.expected == expected
        assert rep.max_deviation <= 1e-9
        assert rep.min_abs >= 3.0 - 1e-9


def test_type_b_exclusion_missing_family():
    only_sphere = parse_catalog("""
[catalog]
version = 1

[cp2-a1]
space = CP2
domain = 0, pi/2
alpha = 2*cot(2*r)
lambda = cot(r)
nu = cot(r)
""")
    with pytest.raises(CatalogError):
        type_b_exclusion(CP2, catalog=only_sphere)


def _lam_nu_plus_c_column(fam, radii):
    """lambda*nu + c over radius_grid by the per-radius evaluation: Expr.eval
    of the family's lambda and nu, as in fam.curvatures (alpha is not read)."""
    c, bindings = float(fam.space.c), {"pi": math.pi}
    column = []
    for r in radii:
        bindings["r"] = r
        column.append(fam.lam.eval(bindings) * fam.nu.eval(bindings) + c)
    return column


def _type_b_fields(space, samples):
    fam = builtin_catalog().get(proofs.TYPE_B_FAMILIES[space.name])
    values = _lam_nu_plus_c_column(fam, radius_grid(*fam.sample_window(), samples))
    expected = proofs.TYPE_B_EXPECTED[space.name]
    max_dev = max(abs(v - expected) for v in values)
    min_abs = min(abs(v) for v in values)
    tol = catalog.ORACLE_TOL
    ok = max_dev <= tol and min_abs >= 3.0 - tol
    return (space, fam.family_id, samples, expected.hex(), max_dev.hex(), min_abs.hex(), ok)


def _hexed(rep):
    return (rep.space, rep.family_id, rep.samples, rep.expected.hex(),
            rep.max_deviation.hex(), rep.min_abs.hex(), rep.ok)


def test_type_b_certificate_equals_the_curvature_kernel_column():
    rng = random.Random(24)
    for samples in [20, 50, 100, 4829] + rng.sample(range(2, 5000), 200):
        for space in (CP2, CH2):
            assert _hexed(type_b_exclusion(space, samples=samples)) == \
                _type_b_fields(space, samples), (space, samples)
    for samples in (20, 50):
        summary = verify_all(samples=samples)
        assert [_hexed(rep) for rep in summary.type_b] == \
            [_type_b_fields(space, samples) for space in (CP2, CH2)]


def test_verify_all_reports_an_overflowing_type_b_offset_as_such():
    # lambda = nu ~ 1e200 at r = 0.04 overflow lambda*nu + c and the parallel
    # rows alike; the certificate's error comes first, as from type_b_exclusion
    table = SymbolTable()
    table.constant("r")
    big = parse_expr("10^200*(1 - r) + sqrt(2 - r) - sqrt(8 - 4*r)/2", table)
    alpha = parse_expr("2*cot(2*r)", table)
    fam = catalog.HypersurfaceFamily("cp2-b", CP2, (0.0, 4.0), alpha, big, big)
    cat = catalog.Catalog(1, builtin_catalog().families[:1] + (fam,))
    with pytest.raises(CatalogError, match=r"^lambda\*nu \+ c = inf on family cp2-b at r = 0.04$"):
        verify_all(samples=100, catalog=cat)


def test_a_type_b_family_whose_rows_overflow_is_an_error():
    # lambda*nu + c = 5 is finite, but lambda^2 overflows in the parallel
    # rows: the witness sweep's per-radius error, where the certificate
    # alone read a failed offset
    big, tiny = Expr.const(10 ** 200), Expr.const(Fraction(1, 10 ** 200))
    fam = catalog.HypersurfaceFamily("cp2-b", CP2, (0.0, 1.0), Expr.const(1), big, tiny)
    cat = catalog.Catalog(1, (fam,))
    expected = ("parallel rows cannot be evaluated on cp2-b at r = 0.5: "
                "floating-point overflow")
    with pytest.raises(ExprError, match=f"^{re.escape(expected)}$"):
        evaluate_condition(fam, 0.5, ConditionKind.PARALLEL)
    # the window's first radius is 0.01
    expected = expected.replace("r = 0.5", "r = 0.01")
    for run in (lambda: type_b_exclusion(CP2, samples=5, catalog=cat),
                lambda: verify_all(samples=5, catalog=cat)):
        with pytest.raises(ExprError, match=f"^{re.escape(expected)}$"):
            run()


def test_the_type_b_replay_stops_at_the_first_failing_radius():
    # the parallel rows overflow from the window's first radius, r = 0.01,
    # and lambda*nu + c only from its second, r = 0.255: each radius gets
    # the certificate's check, then the rows, before the next radius
    table = SymbolTable()
    table.constant("r")
    nu = parse_expr("10^200*r^100 + 1/10^200", table)
    fam = catalog.HypersurfaceFamily("cp2-b", CP2, (0.0, 1.0), Expr.const(1),
                                     Expr.const(10 ** 200), nu)
    cat = catalog.Catalog(1, (fam,))
    catalog._lam_nu_plus_c(fam, 0.01, *fam.curvatures(0.01)[1:])
    with pytest.raises(CatalogError, match=r"^lambda\*nu \+ c = inf on family cp2-b at r = 0.255$"):
        catalog._lam_nu_plus_c(fam, 0.255, *fam.curvatures(0.255)[1:])
    expected = "parallel rows cannot be evaluated on cp2-b at r = 0.01: floating-point overflow"
    for run in (lambda: evaluate_condition(fam, 0.01, ConditionKind.PARALLEL),
                lambda: type_b_exclusion(CP2, samples=5, catalog=cat),
                lambda: verify_all(samples=5, catalog=cat)):
        with pytest.raises(ExprError, match=f"^{re.escape(expected)}$"):
            run()


def _hex_sweep(result):
    return (result.family_id, result.kind,
            *(tuple(map(float.hex, column)) for column in
              (result.radii, result.max_residuals, result.lam_nu_plus_c)))


@pytest.mark.parametrize("samples", [2, 50, 101])
def test_the_type_b_report_keeps_its_family_sweep(samples):
    for space in (CP2, CH2):
        fam = builtin_catalog().get(proofs.TYPE_B_FAMILIES[space.name])
        expected = catalog.sweep(fam, *fam.sample_window(), samples, ConditionKind.PARALLEL)
        rep = type_b_exclusion(space, samples=samples)
        assert isinstance(rep.witness, catalog.SweepResult)
        assert _hex_sweep(rep.witness) == _hex_sweep(expected)


def test_the_witness_reads_the_type_b_sweeps_back_from_the_reports():
    summary = verify_all(samples=50)
    named = {rep.family_id for rep in summary.type_b}
    assert named == {"cp2-b", "ch2-b"}
    others = [catalog.sweep(fam, *fam.sample_window(), 50, ConditionKind.PARALLEL)
              for fam in builtin_catalog().families if fam.family_id not in named]
    columns = [rep.witness.max_residuals for rep in summary.type_b]
    columns += [result.max_residuals for result in others]
    assert summary.witness_min_residual.hex() == min(map(min, columns)).hex()


@pytest.mark.parametrize("target", ["all", "type-b"])
def test_verify_all_runs_one_sweep_kernel_per_family_and_no_curvature_kernel(target):
    # a fresh load of the builtin catalog, whose families' kernels are wrapped
    cat = parse_catalog.__wrapped__(
        resources.files("starricci.data").joinpath("families.cat").read_text("utf-8"))
    report = catalog._hopf_report(ConditionKind.PARALLEL)
    calls = Counter()

    def counted(key, kernel):
        def wrapper(*args):
            calls[key] += 1
            return kernel(*args)
        return wrapper

    for fam in cat.families:
        kernel = catalog._sweep_kernel(fam, report)
        fam._sweeps[ConditionKind.PARALLEL] = counted(("sweep", fam.family_id), kernel)
        object.__setattr__(fam, "oracle", counted(("oracle", fam.family_id), fam.oracle))
    assert verify_all(target, samples=50, catalog=cat).ok
    # one sweep-kernel call per family swept ("all": every family; "type-b":
    # cp2-b and ch2-b), and no oracle-kernel call
    swept = [fam.family_id for fam in cat.families
             if target == "all" or fam.family_id in proofs.TYPE_B_FAMILIES.values()]
    assert calls == Counter({("sweep", family_id): 1 for family_id in swept})


# -- the whole chain --------------------------------------------------------------------------

def test_verify_all():
    summary = verify_all()
    assert summary.ok
    assert summary.nonhopf.status == "contradiction"
    assert summary.hopf.status == "open"
    assert summary.witness_min_residual > 1e-6
    assert "verified at desk scale" in verdict(summary.ok)
    assert len(summary.quadratic) == 2 and len(summary.type_b) == 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: at 4829 samples the ch2-a1 grid lands within 1.3e-8 of "
    "r = atanh(1/2), where S* vanishes, and the witness reads 3.223438e-07 < 1e-6"))
def test_verify_all_holds_at_4829_samples():
    assert verify_all(samples=4829).ok


@pytest.mark.parametrize("target, spaces", [("typeb", (CP2, CH2)), ("type-b", ())])
def test_verify_all_rejects_an_unknown_target_and_no_space(target, spaces):
    # either would otherwise run nothing and report ok
    with pytest.raises(ValueError):
        verify_all(target, spaces)


@pytest.mark.parametrize("target", ["nonhopf", "hopf", "quadratic", "type-b"])
def test_a_single_target_runs_only_its_pieces(target):
    summary = verify_all(target, (CH2,), samples=20)
    assert summary.ok
    ran = {"nonhopf": summary.nonhopf is not None, "hopf": summary.hopf is not None,
           "quadratic": bool(summary.quadratic), "type-b": bool(summary.type_b)}
    assert ran == {piece: piece == target for piece in ran}
    assert summary.witness_min_residual is None
    assert all(record.space == CH2 for record in (*summary.quadratic, *summary.type_b))


@pytest.mark.parametrize("samples", [2, 20, 100])
def test_witness_equals_the_per_radius_reference(samples):
    # the witness before it became one sweep per family
    reference = float("inf")
    for fam in builtin_catalog().families:
        for r in radius_grid(*fam.sample_window(), samples):
            ev = evaluate_condition(fam, r, ConditionKind.PARALLEL)
            reference = min(reference, ev.max_abs_residual)
    summary = verify_all(samples=samples)
    assert summary.witness_min_residual.hex() == reference.hex()


def test_verify_all_rarely_enters_the_canonicalizing_constructor(monkeypatch):
    # polynomial arithmetic takes the fast path; only the substitutions,
    # cancellations and coefficient views build an Expr(num, den)
    cat = builtin_catalog()
    verify_all(samples=20, catalog=cat)  # fill the catalog's report cache
    calls = []
    init = Expr.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Expr, "__init__", counted)
    assert verify_all(samples=20, catalog=cat).ok
    assert len(calls) < 100


def test_verify_all_evaluates_no_single_radius(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("evaluate_condition called")

    for module in (catalog, proofs):
        monkeypatch.setattr(module, "evaluate_condition", boom, raising=False)
    assert verify_all(samples=20).ok


# -- the fixed forms a replay compares with ------------------------------------------------

def test_second_verify_all_parses_no_text(monkeypatch):
    cat = builtin_catalog()
    verify_all(samples=20, catalog=cat)  # parses each fixed form once
    parsed = []
    init = parsing._Parser.__init__

    def counted(self, text, *args, **kwargs):
        parsed.append(text)
        init(self, text, *args, **kwargs)

    monkeypatch.setattr(parsing._Parser, "__init__", counted)
    assert verify_all(samples=20, catalog=cat).ok
    assert parsed == []
    table = build_hopf_context().table
    assert {s.table for s in quadratic_elimination().cleared_equation.symbols()} == {table}
    with pytest.raises(SymbolError, match="frozen"):
        table.constant("kappa")


def test_kept_forms_keep_no_verdict(monkeypatch):
    # a kept form is only what a step is compared with: every check runs again
    nonhopf_contradiction()
    hopf_branch()
    quadratic_elimination()
    entry = proofs.covariant_derivative_entry
    monkeypatch.setattr(proofs, "covariant_derivative_entry",
                        lambda ctx, *args: entry(ctx, *args) + ctx.c)
    for replay in (nonhopf_contradiction, hopf_branch):
        with pytest.raises(ProofError, match="step 1: expected"):
            replay()
    monkeypatch.setattr(proofs, "solve_quadratic",
                        lambda e, sym: SimpleNamespace(discriminant=e))
    with pytest.raises(ProofError, match="step discriminant: expected"):
        quadratic_elimination()


@pytest.mark.parametrize("quadratic, factor", [
    ("2*alpha*nu^2 + 5*c*nu - 2*alpha*c", Fraction(-1, 4)),   # the kept form
    ("-8*alpha*nu^2 - 20*c*nu + 8*alpha*c", Fraction(1, 16)),  # another multiple
    ("2*alpha*nu^2 + 5*c*nu + 2*alpha*c", None),    # the same leading term only
    ("2*alpha*nu^2 + 5*c*nu", None),                # a term short
    ("alpha*nu^3 + c*nu^2", None),                  # another degree
])
def test_elimination_accepts_only_a_constant_multiple(monkeypatch, quadratic, factor):
    # the cleared relation is -1/4 * (2*alpha*nu^2 + 5*c*nu - 2*alpha*c): the
    # factor is the ratio of the leading coefficients, then the whole relation
    # must equal the target scaled by it
    forms = proofs._forms(build_hopf_context())
    monkeypatch.setitem(forms, proofs.QUADRATIC_TEXT, forms.ctx.parse(quadratic))
    if factor is None:
        with pytest.raises(ProofError, match="is not a nonzero multiple of"):
            quadratic_elimination()
        return
    if factor != Fraction(-1, 4):  # the discriminant of another multiple is another
        monkeypatch.setattr(proofs, "solve_quadratic",
                            lambda e, sym: SimpleNamespace(
                                discriminant=forms[proofs.DISCRIMINANT_TEXT]))
    assert quadratic_elimination().proportionality_factor == factor


def test_kept_forms_hold_only_the_symbols_of_their_table():
    # each reference is compared in the table it was parsed in, so the
    # comparison stays right when symbols of two tables no longer compare equal;
    # the elimination reads the Hopf context's forms, so the relation step 2c
    # checks and the relation the elimination clears are one parsed form
    nonhopf_contradiction()
    hopf_branch()
    elimination = quadratic_elimination()
    hopf_forms = proofs._forms(build_hopf_context())
    texts = (proofs.BASIC_RELATION_TEXT, proofs.QUADRATIC_TEXT, proofs.DISCRIMINANT_TEXT)
    assert set(texts) <= hopf_forms.keys()
    assert elimination.cleared_equation is hopf_forms[proofs.QUADRATIC_TEXT]
    kept = [
        (build_nonhopf_context().table, proofs._forms(build_nonhopf_context()), 3),
        (build_hopf_context().table, hopf_forms, 6),
    ]
    for table, forms, count in kept:
        assert len(forms) == count
        for form in forms.values():
            assert form.symbols()
            assert all(sym.table is table for sym in form.symbols())


# -- the printed proof ------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the standard output of `starricci prove <piece> --format <fmt>`;
# it does not depend on the hash seed.
PROVE_STDOUT_SHA256 = {
    ("nonhopf", "text"): "227e0cc5f6105513285dbc7c6725019856a7f984f0d2d694f912840b7d4276d3",
    ("nonhopf", "json"): "c04bacdd21aacd33920a4c2a3482684ca35ecf84a4ff6e3e874fcc7daf06d4c5",
    ("hopf", "text"): "f64471621f28d5d85f55a4a8e1e4e186134861d645603985c706ac25d1f2edb5",
    ("hopf", "json"): "6473527e75f52a3526aabb8257ade0c4916bbbe1232ecf09a9dac5d538dc81cc",
    ("all", "text"): "ebe738781eb593c9d50174d64e6555cd339ad55c8bebbfe2b11b06621701441f",
    ("all", "json"): "65b47cd9eaf116b7459cd2ba71d7c61772fb9fda2ccd4c7655d062fa136a3d63",
}


@pytest.mark.parametrize("index, piece, fmt",
                         [(i, *key) for i, key in enumerate(PROVE_STDOUT_SHA256)])
def test_printed_proof_is_unchanged(index, piece, fmt):
    # hash seeds 1, 2, 3 in turn across the outputs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(1 + index % 3))
    proc = subprocess.run([sys.executable, "-m", "starricci.cli", "prove", piece, "--format", fmt],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PROVE_STDOUT_SHA256[piece, fmt]
