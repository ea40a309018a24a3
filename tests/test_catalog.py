import ast
import inspect
import io
import keyword
import math
import random
import re
import sys
import tokenize
from importlib import resources

import pytest

from starricci import catalog, parsing, rational
from starricci.catalog import (
    CH2,
    CP2,
    ORACLE_SAMPLES,
    Catalog,
    CatalogError,
    ConditionKind,
    DomainError,
    HypersurfaceFamily,
    SweepRow,
    builtin_catalog,
    builtin_families,
    evaluate_condition,
    format_catalog,
    hopf_relation_residual,
    parse_catalog,
    radius_grid,
    sweep,
)
from starricci.conditions import ConditionReport
from starricci.parsing import parse_expr
from starricci.proofs import type_b_exclusion
from starricci.rational import NUMERIC_FUNCTIONS, Expr, ExprError
from starricci.symbols import SymbolTable

EXPECTED_IDS = ["cp2-a1", "cp2-b", "ch2-a0", "ch2-a1", "ch2-a1p", "ch2-b"]


def test_builtin_families_present():
    cat = builtin_catalog()
    assert cat.version == 1
    assert cat.ids() == EXPECTED_IDS
    spaces = {f.family_id: f.space.name for f in cat.families}
    assert spaces["cp2-b"] == "CP2" and spaces["ch2-b"] == "CH2"


def test_known_curvature_triples():
    cat = builtin_catalog()
    assert cat.get("ch2-a0").curvatures(0.123) == (2.0, 1.0, 1.0)
    a, l, n = cat.get("cp2-a1").curvatures(math.pi / 4)
    assert a == pytest.approx(0.0, abs=1e-12)
    assert l == pytest.approx(1.0, rel=1e-12) and n == pytest.approx(1.0, rel=1e-12)
    # the type-B tube keeps lambda * nu = -1 across its domain
    fam = cat.get("cp2-b")
    for r in (0.1, 0.3, 0.5, 0.7):
        _a, l, n = fam.curvatures(r)
        assert l * n == pytest.approx(-1.0, abs=1e-12)


def test_hopf_relation_residual_values():
    assert hopf_relation_residual(2, 1, 1, -4) == 0.0
    assert hopf_relation_residual(0, 0, 0, 4) == -1.0          # -c/4
    assert hopf_relation_residual(0, 0, 0, -12) == 3.0
    assert hopf_relation_residual(0, 1, 1, 4) == 0.0


def test_oracle_on_all_families():
    for fam in builtin_families():
        lo, hi = fam.sample_window()
        for i in range(100):
            r = lo + (hi - lo) * i / 99
            assert abs(fam.hopf_residual(r)) < 1e-9


def test_domain_checks():
    fam = builtin_catalog().get("cp2-a1")
    with pytest.raises(DomainError):
        fam.curvatures(0.0)
    with pytest.raises(DomainError):
        fam.curvatures(math.pi)
    assert builtin_catalog().get("ch2-a0").contains(-5.0)  # all radii


def test_evaluate_condition_cp2_b():
    fam = builtin_catalog().get("cp2-b")
    ev = evaluate_condition(fam, math.pi / 8, ConditionKind.PARALLEL)
    assert ev.lam_nu_plus_c == pytest.approx(3.0, abs=1e-12)
    # the surviving projections are +-lambda (c + lambda nu) and
    # +-nu (c + lambda nu); lambda = cot(pi/8 - pi/4) = -(1 + sqrt 2)
    expected = 3.0 * (1.0 + math.sqrt(2.0))
    assert ev.max_abs_residual == pytest.approx(expected, rel=1e-12)


def test_evaluate_condition_horosphere():
    fam = builtin_catalog().get("ch2-a0")
    ev = evaluate_condition(fam, 1.0, ConditionKind.PARALLEL)
    # lambda (c + lambda nu) = 1 * (-4 + 1) = -3
    assert ev.max_abs_residual == pytest.approx(3.0, abs=1e-12)
    nonzero = sorted(v for _, v in ev.rows if abs(v) > 1e-12)
    assert nonzero == pytest.approx([-3.0, -3.0, 3.0, 3.0])


def test_evaluate_condition_einstein_totality():
    for fam in builtin_families():
        lo, hi = fam.sample_window()
        ev = evaluate_condition(fam, (lo + hi) / 2, ConditionKind.EINSTEIN)
        assert len(ev.rows) == 9
        assert all(math.isfinite(v) for _, v in ev.rows)


def test_semi_parallel_regression_value():
    # no closed-form ground truth; frozen engine value at first computation
    fam = builtin_catalog().get("cp2-b")
    ev = evaluate_condition(fam, math.pi / 8, ConditionKind.SEMI_PARALLEL)
    assert ev.max_abs_residual == pytest.approx(11.485281374238571, rel=1e-12)
    assert ev.max_abs_residual > 1e-6


def test_pseudo_parallel_with_zero_l_matches_semi():
    fam = builtin_catalog().get("ch2-b")
    r = 0.8
    semi = evaluate_condition(fam, r, ConditionKind.SEMI_PARALLEL)
    pseudo = evaluate_condition(fam, r, ConditionKind.PSEUDO_PARALLEL)
    assert pseudo.max_abs_residual == pytest.approx(semi.max_abs_residual, rel=1e-12)


def test_sweep_constants():
    cat = builtin_catalog()
    res = sweep(cat.get("cp2-b"), 0.1, 0.7, 50, ConditionKind.PARALLEL)
    assert len(res.rows) == 50
    for row in res.rows:
        assert row.lam_nu_plus_c == pytest.approx(3.0, abs=1e-9)
    res = sweep(cat.get("ch2-b"), 0.1, 3.0, 50, ConditionKind.PARALLEL)
    for row in res.rows:
        assert row.lam_nu_plus_c == pytest.approx(-3.0, abs=1e-9)
        assert row.max_residual > 1e-6


def test_sweep_two_samples_hits_endpoints():
    cat = builtin_catalog()
    res = sweep(cat.get("ch2-a0"), 0.0, 1.0, 2, ConditionKind.PARALLEL)
    assert [row.r for row in res.rows] == [0.0, 1.0]
    # the horosphere is constant in r: both rows identical
    assert res.rows[0].max_residual == res.rows[1].max_residual


def test_sweep_domain_errors():
    cat = builtin_catalog()
    with pytest.raises(DomainError):
        sweep(cat.get("cp2-b"), 2.0, 3.0, 10, ConditionKind.PARALLEL)
    with pytest.raises(CatalogError):
        sweep(cat.get("cp2-b"), 0.1, 0.7, 1, ConditionKind.PARALLEL)
    with pytest.raises(DomainError):
        # touches the open endpoint r = 0
        sweep(cat.get("cp2-b"), 0.0, 0.5, 10, ConditionKind.PARALLEL)
    with pytest.raises(DomainError, match=r"sweep range \[-1\.0, 0\.5\]"):
        # the message names the requested range, not a clipped one
        sweep(cat.get("cp2-b"), -1.0, 0.5, 10, ConditionKind.PARALLEL)


def test_catalog_roundtrip():
    cat = builtin_catalog()
    text = format_catalog(cat)
    again = parse_catalog(text)
    assert again.ids() == cat.ids()
    for a, b in zip(cat.families, again.families):
        assert a.space == b.space
        assert a.alpha == b.alpha and a.lam == b.lam and a.nu == b.nu
        assert a.domain == pytest.approx(b.domain)


def test_loading_a_catalog_again_compiles_no_kernel(monkeypatch):
    # a text no other test loads, so the first load does the work
    text = format_catalog(builtin_catalog()) + "# loaded twice\n"
    calls = {"compile": 0, "_Parser": 0, "validate_family": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rational, "compile", counted("compile", compile), raising=False)
    monkeypatch.setattr(parsing._Parser, "__init__", counted("_Parser", parsing._Parser.__init__))
    monkeypatch.setattr(catalog, "validate_family",
                        counted("validate_family", catalog.validate_family))
    first = parse_catalog(text)
    assert calls["validate_family"] == len(EXPECTED_IDS)
    assert calls["_Parser"] > 0 and calls["compile"] > 0
    calls.update(dict.fromkeys(calls, 0))
    again = parse_catalog(text)
    assert again is first
    assert calls == {"compile": 0, "_Parser": 0, "validate_family": 0}
    # the memo keeps the module of parse_catalog, by which perfbench's
    # tracer finds the functions it wraps
    assert parse_catalog.__module__ == catalog.__name__ and callable(parse_catalog)


def test_the_data_file_loads_as_the_builtin_catalog():
    # builtin_catalog passes the oracle tolerance as load_catalog does, so
    # the memo keeps one entry for the data file's text
    parse_catalog.cache_clear()
    builtin_catalog.cache_clear()
    builtin = builtin_catalog()
    path = resources.files("starricci.data").joinpath("families.cat")
    assert catalog.load_catalog(path) is builtin
    info = parse_catalog.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_catalog_rejects_bad_family():
    bad = """
[catalog]
version = 1

[bogus]
space = CP2
domain = 0, 1
alpha = 1
lambda = 1
nu = 1
description = violates the principal-curvature relation
"""
    with pytest.raises(CatalogError):
        parse_catalog(bad)


def test_catalog_rejects_structural_problems():
    with pytest.raises(CatalogError):
        parse_catalog("[nofamilies]\nversion = 1\n")
    with pytest.raises(CatalogError):
        parse_catalog("[catalog]\nversion = 2\n")
    with pytest.raises(CatalogError, match=r"^family 'f': unknown space 'XX' \(known: CP2, CH2\)$"):
        parse_catalog(
            "[catalog]\nversion = 1\n\n[f]\nspace = XX\ndomain = 0, 1\n"
            "alpha = 1\nlambda = 1\nnu = 1\n"
        )
    for domain in ("nan, pi/2", "0, nan"):  # a NaN end never reaches the oracle
        with pytest.raises(CatalogError, match="empty domain"):
            parse_catalog(
                f"[catalog]\nversion = 1\n\n[f]\nspace = CP2\ndomain = {domain}\n"
                "alpha = 2*cot(2*r)\nlambda = cot(r)\nnu = cot(r)\n"
            )


# A family body with one key malformed or missing, and the load's error text.
MALFORMED_FAMILIES = [
    ("space = cp2\ndomain = 0, 1\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': unknown space 'cp2' (known: CP2, CH2)"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = 1", "family 'fam': missing key 'nu'"),
    ("space = CP2\ndomain = 0, 1, 2\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': domain '0, 1, 2' is not two ends 'lo, hi'"),
    ("space = CP2\ndomain = 0\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': domain '0' is not two ends 'lo, hi'"),
    # an expression-valued key that fails names the key
    ("space = CP2\ndomain = 0, 1\nalpha =\nlambda = 1\nnu = 1",
     "family 'fam': key 'alpha': unexpected token '' (at position 0)"),
    ("space = CP2\ndomain = ,\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': key 'domain': unexpected token '' (at position 0)"),
    ("space = CP2\ndomain = 0, 10^400\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': key 'domain': floating-point overflow"),
    # a curvature coefficient beyond the float range names its key
    ("space = CP2\ndomain = 0, 1\nalpha = 10^400\nlambda = 1\nnu = 1",
     "family 'fam': key 'alpha': floating-point overflow"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = cot(10^400*r)\nnu = 1",
     "family 'fam': key 'lambda': floating-point overflow"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = 1\nnu = cot(10^400*r)",
     "family 'fam': key 'nu': floating-point overflow"),
]


@pytest.mark.parametrize("body, error", MALFORMED_FAMILIES)
def test_a_malformed_family_names_its_key_not_a_python_error(body, error):
    with pytest.raises(CatalogError) as exc:
        parse_catalog(f"[catalog]\nversion = 1\n\n[fam]\n{body}\n")
    assert str(exc.value) == error


_MIRRORED_TUBE = """
[catalog]
version = 1

[ch2-b-mirror]
space = CH2
domain = -inf, -0.5
alpha = 2*tanh(-2*r)
lambda = coth(-r)
nu = tanh(-r)
description = the ch2-b tube written at radius -r
"""


def test_family_unbounded_below_loads_and_sweeps():
    fam = parse_catalog(_MIRRORED_TUBE).get("ch2-b-mirror")
    assert fam.sample_window() == (-5.5, -0.55)
    res = sweep(fam, *fam.sample_window(), 20, ConditionKind.PARALLEL)
    # all three curvatures change sign, which keeps lambda*nu and every
    # residual of the tube at -r
    tube = builtin_catalog().get("ch2-b")
    for r, m, x in zip(res.radii, res.max_residuals, res.lam_nu_plus_c):
        assert x == pytest.approx(-3.0, abs=1e-9)
        assert m == pytest.approx(
            evaluate_condition(tube, -r, ConditionKind.PARALLEL).max_abs_residual, rel=1e-12
        )
    # the other windows are unchanged
    assert builtin_catalog().get("ch2-a0").sample_window() == (0.05, 5.0)
    assert builtin_catalog().get("ch2-b").sample_window() == (0.05, 5.0)


def test_user_family_accepted_when_valid():
    # a CP2 geodesic sphere restated by hand passes the oracle
    text = """
[catalog]
version = 1

[mysphere]
space = CP2
domain = 0, pi/2
alpha = 2*cot(2*r)
lambda = cot(r)
nu = cot(r)
description = user-supplied copy of the geodesic sphere
"""
    cat = parse_catalog(text)
    assert cat.ids() == ["mysphere"]
    assert abs(cat.get("mysphere").hopf_residual(0.7)) < 1e-12


def test_xi_parallel_holds_on_homogeneous_families():
    # with constant principal curvatures, S* = (c + lambda*nu)(Id - eta (x) xi)
    # and nabla_xi xi = 0, so the xi-slice of the parallel condition vanishes:
    # the builtin families all have xi-parallel *-Ricci tensor
    for fam in builtin_families():
        lo, hi = fam.sample_window()
        for i in range(10):
            r = lo + (hi - lo) * i / 9
            ev = evaluate_condition(fam, r, ConditionKind.XI_PARALLEL)
            assert ev.max_abs_residual == 0.0


def test_ch2_a1_boundary_radius_is_honest():
    # c + lambda nu = coth(r)^2 - 4 crosses zero at r = atanh(1/2); there the
    # *-Ricci tensor vanishes identically and the parallel residual with it.
    fam = builtin_catalog().get("ch2-a1")
    r_star = math.atanh(0.5)
    ev = evaluate_condition(fam, r_star, ConditionKind.PARALLEL)
    assert ev.max_abs_residual < 1e-12
    assert ev.lam_nu_plus_c == pytest.approx(0.0, abs=1e-12)
    # the crossing is isolated: nearby radii witness nonzero residuals
    for dr in (-1e-3, 1e-3):
        near = evaluate_condition(fam, r_star + dr, ConditionKind.PARALLEL)
        assert near.max_abs_residual > 1e-6


# -- compiled evaluation -------------------------------------------------------------

def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("kind", list(ConditionKind))
def test_compiled_rows_equal_interpreted_oracle(kind):
    # the oracle is the evaluation before compilation: Expr.eval per
    # curvature and per row, which read only the curvatures and c, max
    # folded from 0.0
    entries = catalog._hopf_report(kind).entries
    for fam in builtin_families():
        c = float(fam.space.c)
        for r in radius_grid(*fam.sample_window(), ORACLE_SAMPLES):
            point = {"r": r, "pi": math.pi}
            curv = (fam.alpha.eval(point), fam.lam.eval(point), fam.nu.eval(point))
            bound = dict(zip(("alpha", "lambda", "nu", "c"), curv + (c,)))
            rows = [e.equation.eval({s.name: bound[s.name] for s in e.equation.symbols()})
                    for e in entries]
            max_abs = 0.0
            for v in rows:
                if abs(v) > max_abs:
                    max_abs = abs(v)
            ev = evaluate_condition(fam, r, kind)
            assert _hex(ev.curvatures) == _hex(curv)
            assert [label for label, _ in ev.rows] == [e.label() for e in entries]
            assert _hex(ev.values) == _hex(rows)
            assert ev.max_abs_residual.hex() == max_abs.hex()
            assert ev.lam_nu_plus_c.hex() == (curv[1] * curv[2] + c).hex()


_EVERY_FUNCTION = """
[catalog]
version = 1

[every-function]
space = CP2
domain = 0, pi/2
alpha = 2*cot(2*r) + (sin(r)^2 + cos(r)^2 - 1)
lambda = cot(r) + (tan(r)*cot(r) - 1) + (cosh(r)^2 - sinh(r)^2 - 1)
nu = cot(r) + (tanh(r)*coth(r) - 1) + (log(exp(r)) - r) + (sqrt(r)^2 - r)
description = the geodesic sphere, written with every numeric function
"""


def _oracle(fam, points):
    """The residual column of fam's oracle kernel over points, before any replay."""
    return fam.oracle(points, *fam.domain, math.pi, float(fam.space.c))[1]


def _one_row_residual(fam, r):
    """The oracle kernel at r alone."""
    return _oracle(fam, [r])


def test_compiled_family_source_holds_no_symbol_names():
    fam = parse_catalog(_EVERY_FUNCTION).get("every-function")
    source = fam.oracle.source
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    names = {t.string for t in tokens if t.type == tokenize.NAME}
    strings = {ast.literal_eval(t.string) for t in tokens if t.type == tokenize.STRING}
    # every function, cot and coth as reciprocals of tan and tanh
    assert strings == set(NUMERIC_FUNCTIONS) - {"cot", "coth"}
    allowed = {"compiled", "float", "abs", "len", "append", "ArithmeticError", "ValueError",
               "_fns"}
    assert {n for n in names if not keyword.iskeyword(n)
            and not re.fullmatch(r"[vpandxowf][0-9]+", n)} <= allowed
    assert not names & {"r", "pi", "c", "alpha", "lambda", "nu"}
    assert "{" not in source and "}" not in source  # no tail placeholder is left
    for text in (fam.alpha.to_text(), fam.lam.to_text(), fam.nu.to_text(), "cot(r)"):
        assert text not in source
    for r in (0.1, 0.7, 1.4):
        point = {"r": r, "pi": math.pi}
        curvatures = [e.eval(point) for e in (fam.alpha, fam.lam, fam.nu)]
        assert _hex(_one_row_residual(fam, r)) == \
            _hex([hopf_relation_residual(*curvatures, float(fam.space.c))])


@pytest.mark.parametrize("family_id", builtin_catalog().ids())
def test_curvatures_equal_the_one_row_kernel_bit_for_bit(family_id):
    # the one-row oracle kernel's residual is hopf_relation_residual over
    # fam.curvatures
    fam = builtin_catalog().get(family_id)
    for r in radius_grid(*fam.sample_window(), 50):
        expected = hopf_relation_residual(*fam.curvatures(r), float(fam.space.c))
        assert _hex(_one_row_residual(fam, r)) == _hex([expected])


@pytest.mark.parametrize("family_id", builtin_catalog().ids())
def test_oracle_column_equals_the_relation_residual_bit_for_bit(family_id):
    fam = builtin_catalog().get(family_id)
    window = fam.sample_window()
    radii = radius_grid(*window, ORACLE_SAMPLES)
    expected = [hopf_relation_residual(*fam.curvatures(r), float(fam.space.c)) for r in radii]
    assert _hex(_oracle(fam, radii)) == _hex(expected)


def _kernel_sources():
    # the family's oracle kernel, then its sweep kernel per condition kind,
    # which holds the family's statements and the report's rows
    fam = parse_catalog(_EVERY_FUNCTION).get("every-function")
    yield fam, None, fam.oracle.source
    for kind in ConditionKind:
        report = catalog._hopf_report(kind)
        yield fam, report, catalog._sweep_kernel(fam, report).source


def test_column_kernel_sources_hold_no_symbol_names():
    # a kernel source holds generated identifiers, float literals (and int
    # exponents) and NUMERIC_FUNCTIONS keys, nothing else
    allowed = {"compiled", "float", "abs", "len", "append", "ArithmeticError",
               "ValueError", "_fns"}
    for owner, report, source in _kernel_sources():
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        names = {t.string for t in tokens if t.type == tokenize.NAME}
        assert {n for n in names if not keyword.iskeyword(n)
                and not re.fullmatch(r"[vpandxowf][0-9]+", n)} <= allowed
        strings = {ast.literal_eval(t.string) for t in tokens if t.type == tokenize.STRING}
        assert strings <= set(NUMERIC_FUNCTIONS)
        for t in tokens:
            if t.type == tokenize.NUMBER:
                float(t.string)
        assert {t.type for t in tokens} <= {
            tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.NL, tokenize.ENDMARKER}
        # every function, cot and coth as reciprocals of tan and tanh
        assert strings == set(NUMERIC_FUNCTIONS) - {"cot", "coth"}
        assert not names & {"r", "pi", "alpha", "lambda", "nu", "c", "L", "lambda_e"}
        assert "{" not in source and "}" not in source  # no tail placeholder is left
        texts = [owner.alpha.to_text(), owner.lam.to_text(), owner.nu.to_text(), "cot(r)"]
        if report is not None:
            texts += [e.equation.to_text() for e in report.entries if not e.equation.is_zero]
        for text in texts:
            assert text not in source


def test_non_finite_rows_and_curvatures_are_errors():
    fam = builtin_catalog().get("cp2-a1")
    # cot(1e-100) = 1e100: finite curvatures whose semi-parallel rows overflow
    with pytest.raises(CatalogError, match="rows are not finite"):
        evaluate_condition(fam, 1e-100, ConditionKind.SEMI_PARALLEL)
    with pytest.raises(ExprError):  # lambda^2 overflows in the power itself
        evaluate_condition(fam, 1e-170, ConditionKind.SEMI_PARALLEL)
    big = Expr.const(10 ** 200)
    huge = HypersurfaceFamily("cp2-b", CP2, (0.0, 1.0), big, big, big)
    with pytest.raises(CatalogError, match="lambda\\*nu \\+ c"):
        type_b_exclusion(CP2, samples=5, catalog=Catalog(1, (huge,)))
    r = Expr.from_symbol(SymbolTable().constant("r"))
    steep = HypersurfaceFamily("x", CP2, (0.0, math.inf), big * r ** 2, big, big)
    with pytest.raises(CatalogError, match="non-finite curvatures"):
        steep.curvatures(1e60)
    with pytest.raises(ExprError):  # 1e400 has no float coefficient
        HypersurfaceFamily("x", CP2, (0.0, 1.0), big * big, big, big)


# -- one row loop per sweep ----------------------------------------------------------

@pytest.mark.parametrize("kind", ConditionKind)
def test_sweep_columns_equal_per_radius_evaluation(kind):
    for fam in builtin_families():
        lo, hi = fam.sample_window()
        res = sweep(fam, lo, hi, 13, kind)
        evs = [evaluate_condition(fam, r, kind) for r in radius_grid(lo, hi, 13)]
        assert (res.family_id, res.kind) == (fam.family_id, kind)
        assert _hex(res.radii) == _hex(ev.r for ev in evs)
        assert _hex(res.max_residuals) == _hex(ev.max_abs_residual for ev in evs)
        assert _hex(res.lam_nu_plus_c) == _hex(ev.lam_nu_plus_c for ev in evs)
        assert res.rows == tuple(
            SweepRow(ev.r, ev.max_abs_residual, ev.lam_nu_plus_c) for ev in evs
        )


def test_report_params_are_the_names_the_reports_read():
    assert catalog.REPORT_PARAMS == catalog._CURVATURES + ("c",)
    read = set()
    for kind in ConditionKind:
        for e in catalog._hopf_report(kind).equations():
            read |= {sym.name for sym in e.symbols()}
    assert read == set(catalog.REPORT_PARAMS)


def test_the_cached_reports_take_l_and_lambda_e_at_zero():
    # pseudo-parallel at L = 0 is semi-parallel, and no kept report reads
    # either name: _hopf_report fixes the convention, no kernel binds it
    pseudo = catalog._hopf_report(ConditionKind.PSEUDO_PARALLEL)
    assert pseudo.equations() == catalog._hopf_report(ConditionKind.SEMI_PARALLEL).equations()
    for kind in ConditionKind:
        for e in catalog._hopf_report(kind).equations():
            assert not {sym.name for sym in e.symbols()} & {"L", "lambda_e"}, kind


def test_every_builtin_kernel_takes_the_same_five_parameters():
    # the points, the domain (low, high), pi and c
    for fam in builtin_families():
        kernels = [fam.oracle] + [catalog._sweep_kernel(fam, catalog._hopf_report(kind))
                                  for kind in ConditionKind]
        assert len(kernels) == 7
        signatures = {tuple(inspect.signature(k).parameters) for k in kernels}
        assert len(signatures) == 1 and len(signatures.pop()) == 5, fam.family_id


def test_sweep_raises_the_per_radius_error():
    fam = builtin_catalog().get("cp2-a1")
    with pytest.raises(CatalogError) as per_radius:
        evaluate_condition(fam, 1e-100, ConditionKind.SEMI_PARALLEL)
    with pytest.raises(CatalogError) as swept:
        sweep(fam, 1e-100, 0.5, 3, ConditionKind.SEMI_PARALLEL)
    assert "rows are not finite" in str(swept.value)
    assert str(swept.value) == str(per_radius.value)


def test_sweep_looks_up_the_report_once():
    fam = builtin_catalog().get("cp2-b")
    sweep(fam, 0.1, 0.7, 2, ConditionKind.PARALLEL)  # the report is cached
    before = catalog._hopf_report.cache_info()
    sweep(fam, 0.1, 0.7, 50, ConditionKind.PARALLEL)
    after = catalog._hopf_report.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == 1


# -- column kernels: the errors of the per-radius loop ---------------------------------

def _error(thunk):
    try:
        thunk()
    except Exception as exc:  # noqa: BLE001 -- compared by type and message
        return type(exc), str(exc)
    return None


def _per_radius(fam, radii, kind):
    """The sweep before the column kernels: one evaluate_condition per radius."""
    for r in radii:
        evaluate_condition(fam, r, kind)


def _family(alpha, lam, nu, domain=(0.0, 4.0), space=CP2):
    table = SymbolTable()
    table.constant("r")
    table.constant("pi")
    exprs = [parse_expr(text, table) for text in (alpha, lam, nu)]
    return HypersurfaceFamily("probe", space, domain, *exprs)


_SPHERE = ("2*cot(2*r)", "cot(r)")
# cot(r) plus a zero written with two atoms that fail for r > 1/2
_SPHERE_NU_TO_HALF = "cot(r) + sqrt(1/2 - r) - sqrt(2 - 4*r)/2"


@pytest.mark.parametrize("fam, r_min, r_max, samples, kind, first", [
    # the rows overflow at r = 1e-100; the curvatures fail (sqrt) past r = 1
    (_family(*_SPHERE, "cot(r) + sqrt(1 - r)"), 1e-100, 2.0, 5,
     ConditionKind.SEMI_PARALLEL, "rows are not finite"),
    # the rows overflow at r = 1e-100; nu has a pole at r = 1
    (_family(*_SPHERE, "cot(r) + 1/(r - 1)"), 1e-100, 2.0, 3,
     ConditionKind.SEMI_PARALLEL, "rows are not finite"),
    # the reverse order: a pole at r = 1/2, then rows that overflow at r = 3/4
    (_family("1", "exp(400*r) + 1/(2*r - 1)", "exp(400*r)"), 0.25, 0.75, 3,
     ConditionKind.SEMI_PARALLEL, "denominator"),
    # lambda*nu + c overflows at r = 1e-200; the xi-parallel rows are all 0
    (_family(*_SPHERE, "cot(r) + sqrt(1 - r)"), 1e-200, 2.0, 3,
     ConditionKind.XI_PARALLEL, "lambda*nu + c = inf"),
    # finite rows up to the first curvature error (sqrt at r = 0.75)
    (_family(*_SPHERE, _SPHERE_NU_TO_HALF), 0.25, 1.0, 4,
     ConditionKind.PARALLEL, "sqrt(-1.0)"),
    # a curvature error at the first radius: cot(0) raises ZeroDivisionError
    (_family(*_SPHERE, "cot(r)", domain=(-1.0, 4.0)), 0.0, 1.0, 3,
     ConditionKind.PARALLEL, "cot(0.0) cannot be evaluated"),
])
def test_sweep_raises_the_first_per_radius_error(fam, r_min, r_max, samples, kind, first):
    radii = radius_grid(r_min, r_max, samples)
    expected = _error(lambda: _per_radius(fam, radii, kind))
    assert expected is not None and first in expected[1]
    assert _error(lambda: sweep(fam, r_min, r_max, samples, kind)) == expected


def test_overshooting_grid_raises_the_per_radius_domain_error():
    # radius_grid's last point lands one ulp past r_max = 1.5707963267948963,
    # on pi/2, the open end of the domain
    fam = builtin_catalog().get("cp2-a1")
    radii = radius_grid(0.362, 1.5707963267948963, 14)
    assert radii[-1] == 1.5707963267948966 and not fam.contains(radii[-1])
    for kind in ConditionKind:
        expected = _error(lambda: _per_radius(fam, radii, kind))
        assert expected[0] is DomainError
        assert "r = 1.5707963267948966 outside the open domain" in expected[1]
        assert _error(lambda: sweep(fam, 0.362, 1.5707963267948963, 14, kind)) == expected


@pytest.mark.parametrize("lo, hi, samples", [
    (-1e308, 1e308, 3),       # hi - lo overflows: every radius past lo was nan
    (-1e308, 7e307, 3),       # hi - lo is finite, 2 * (hi - lo) is not: the last was inf
    (-8.9e307, 8.9e307, 4),
    (-4e307, 4e307, 5),
])
def test_a_grid_whose_width_overflows_is_one_error(lo, hi, samples):
    with pytest.raises(CatalogError) as exc:
        radius_grid(lo, hi, samples)
    assert str(exc.value) == (f"the radius range [{lo}, {hi}] is too wide for a grid "
                              f"of {samples} radii")
    fam = builtin_catalog().get("ch2-a0")  # the horosphere: its domain is the whole line
    for kind in ConditionKind:
        assert _error(lambda: sweep(fam, lo, hi, samples, kind)) == (CatalogError, str(exc.value))


@pytest.mark.parametrize("lo, hi, samples", [
    (-1e308, 7e307, 2), (-8.9e307, 8.9e307, 2), (-4e307, 4e307, 3), (-5e305, 5e305, 100),
    (0.2, 0.9, 13), (-1e3, 2.0, 3), (0.362, 1.5707963267948963, 14)])
def test_a_grid_of_finite_width_keeps_every_bit(lo, hi, samples):
    expected = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    assert _hex(radius_grid(lo, hi, samples)) == _hex(expected)
    fam = builtin_catalog().get("ch2-a0")
    radii = sweep(fam, lo, hi, samples, ConditionKind.PARALLEL).radii
    assert _hex(radii) == _hex(expected)


def test_a_domain_whose_width_overflows_has_a_finite_sample_window():
    # hi - lo overflows, so the margin is hi/100 - lo/100; the window is
    # still too wide for the oracle's grid, and the load error says so for
    # the family
    fam = _family("2", "1", "1", domain=(-1e308, 1e308), space=CH2)
    assert fam.sample_window() == (-1e308 + 2e306, 1e308 - 2e306)
    text = ("[catalog]\nversion = 1\n[wide]\nspace = CH2\ndomain = -1e308, 1e308\n"
            "alpha = 2\nlambda = 1\nnu = 1\n")
    assert _error(lambda: parse_catalog(text)) == (
        CatalogError, "family 'wide': the radius range [-9.8e+307, 9.8e+307] is too wide for "
                      "a grid of 100 radii")


@pytest.mark.parametrize("samples", [catalog.MAX_SAMPLES + 1, 10 ** 21])
def test_a_grid_of_more_than_max_samples_is_one_error(samples):
    assert len(radius_grid(0.2, 0.9, catalog.MAX_SAMPLES)) == catalog.MAX_SAMPLES
    text = f"a radius grid of {samples} samples exceeds the limit of {catalog.MAX_SAMPLES}"
    fam = builtin_catalog().get("cp2-a1")
    assert _error(lambda: radius_grid(0.2, 0.9, samples)) == (CatalogError, text)
    assert _error(lambda: sweep(fam, 0.2, 0.9, samples, ConditionKind.PARALLEL)) == (
        CatalogError, text)
    assert _error(lambda: type_b_exclusion(CP2, samples=samples)) == (CatalogError, text)


def test_non_finite_lambda_nu_plus_c_is_an_error():
    # cot(1e-200) = 1e200: finite curvatures whose product overflows
    fam = builtin_catalog().get("cp2-a1")
    with pytest.raises(CatalogError) as per_radius:
        evaluate_condition(fam, 1e-200, ConditionKind.XI_PARALLEL)
    assert str(per_radius.value) == "lambda*nu + c = inf on family cp2-a1 at r = 1e-200"
    for kind in ConditionKind:  # the other kinds' rows fail first
        expected = _error(lambda: _per_radius(fam, radius_grid(1e-200, 2e-200, 2), kind))
        assert _error(lambda: sweep(fam, 1e-200, 2e-200, 2, kind)) == expected


def test_validate_family_raises_the_per_radius_error():
    # the relation fails at the first radius, the curvatures only past r = 3
    bad = _family("1", "cot(r)", "cot(r) + sqrt(3 - r)")
    assert _error(lambda: catalog.validate_family(bad)) == (
        CatalogError, "family 'probe' fails the principal-curvature relation at r = 0.04: "
                      "residual 640.4752266100751")
    # finite curvatures whose residual overflows: the kernel stops at the
    # first radius, and its replay reads the relation's error
    huge = _family("1", "10^200", "10^200")
    assert _error(lambda: catalog.validate_family(huge)) == (
        CatalogError, "family 'probe' fails the principal-curvature relation at r = 0.04: "
                      "residual inf")
    # the curvatures fail past r = 1/2, and the relation holds up to there
    fam = _family(*_SPHERE, _SPHERE_NU_TO_HALF)
    radii = radius_grid(*fam.sample_window(), ORACLE_SAMPLES)
    expected = _error(lambda: [fam.hopf_residual(r) for r in radii])
    assert expected[0] is ExprError and "sqrt" in expected[1]
    assert _error(lambda: catalog.validate_family(fam)) == expected


def test_type_b_exclusion_raises_the_per_radius_error():
    # lambda = nu ~ 1e200 at r = 0.04 overflow lambda*nu + c; the curvatures
    # fail (sqrt) past r = 2
    big = "10^200*(1 - r) + sqrt(2 - r) - sqrt(8 - 4*r)/2"
    fam = _family("2*cot(2*r)", big, big)
    fam = HypersurfaceFamily("cp2-b", CP2, (0.0, 4.0), fam.alpha, fam.lam, fam.nu)
    with pytest.raises(CatalogError, match=r"lambda\*nu \+ c = inf on family cp2-b at r = 0.04"):
        type_b_exclusion(CP2, samples=100, catalog=Catalog(1, (fam,)))


def test_sweep_kernel_rows_are_the_distinct_non_zero_report_rows(monkeypatch):
    compiled = []

    def recording(params, values, rows, tail):
        compiled.append(tuple(rows))
        return rational.compile_sweep(params, values, rows, tail)

    monkeypatch.setattr(catalog, "compile_sweep", recording)
    fam = _family(*_SPHERE, "cot(r)")
    for kind in ConditionKind:
        report = catalog._hopf_report(kind)
        catalog._sweep_kernel(fam, report)
        rows, equations = compiled[-1], report.equations()
        assert len(set(rows)) == len(rows)
        assert set(rows) == {e for e in equations if not e.is_zero}
        assert list(rows) == sorted(rows, key=equations.index)  # first occurrences


def test_a_non_zero_constant_row_sets_the_max():
    # every xi-parallel row is zero, so its kernel has no row and its max is
    # 0.0; a row -3 appended to that report is a kernel row like any other
    xi = catalog._hopf_report(ConditionKind.XI_PARALLEL)
    assert all(e.is_zero for e in xi.equations())
    entry = xi.entries[0]._replace(equation=Expr.const(-3))
    report = ConditionReport(xi.kind, xi.entries + (entry,), xi.labels + (entry.label(),))
    for source, top in ((xi, 0.0), (report, 3.0)):
        fam = _family(*_SPHERE, "cot(r)")  # a family keeps one kernel per kind
        got, _shifted = catalog._sweep_kernel(fam, source)(
            radius_grid(0.2, 1.2, 5), *fam.domain, math.pi, float(fam.space.c))
        assert got == [top] * 5
        values = catalog._evaluate_rows(fam, source, 0.7)[3]
        assert max(map(abs, values)) == top


def _fused(fam, r_min, r_max, samples, kind):
    """The grid points that the sweep kernel's two columns cover, then the
    columns, over radius_grid and before any replay."""
    points = radius_grid(r_min, r_max, samples)
    top, shifted = catalog._sweep_kernel(fam, catalog._hopf_report(kind))(
        points, *fam.domain, math.pi, float(fam.space.c))
    return points[:len(top)], top, shifted


def _per_radius_sweep(fam, r_min, r_max, samples, kind):
    """The sweep's three columns by the per-radius evaluation, the
    reference: radius_grid, fam.curvatures, Expr.eval of every report row
    with the max |row| taken here, then lambda*nu + c, all cut at the first
    radius where one of them raises or is not finite."""
    rows = catalog._hopf_report(kind).equations()
    scalars = {"c": float(fam.space.c)}
    columns = ([], [], [])
    for r in radius_grid(r_min, r_max, samples):
        try:
            alpha, lam, nu = fam.curvatures(r)
            bound = {"alpha": alpha, "lambda": lam, "nu": nu, **scalars}
            values = [abs(e.eval(bound)) for e in rows]
        except (CatalogError, ExprError):
            break
        shifted = lam * nu + scalars["c"]
        if not all(map(math.isfinite, [*values, shifted])):
            break
        for column, value in zip(columns, (r, max(values, default=0.0), shifted)):
            column.append(value)
    return columns


def test_max_abs_column_equals_the_row_lists():
    # the curvatures stay finite on the grid; powers of exp(400*r) in the
    # rows overflow partway through it, before lambda*nu + c does
    fam = _family("1", "exp(400*r)", "-exp(400*r)")
    curvatures = [fam.curvatures(r) for r in radius_grid(0.05, 1.5, 60)]
    shifted = [lam * nu + float(fam.space.c) for _alpha, lam, nu in curvatures]
    clean = next(k for k, v in enumerate(shifted) if not math.isfinite(v))
    stopped = 0
    for kind in ConditionKind:
        _radii, got, _shifted = _fused(fam, 0.05, 1.5, 60, kind)
        expected = _per_radius_sweep(fam, 0.05, 1.5, 60, kind)[1]
        assert len(expected) <= clean
        assert _hex(got) == _hex(expected)
        stopped += 0 < len(got) < clean
    assert stopped >= 4


# The benchmark's sweep grids (perfbench/workloads.py): per family, its three
# radius windows; menu item (family fi, kind ci) takes window (fi + 2*ci) % 3
# and (fi + ci) % 3 of the sample counts.
_MENU_WINDOWS = {
    "cp2-a1": ((0.05, 1.5), (0.2, 0.9), (0.7, 1.4)),
    "cp2-b": ((0.05, 0.75), (0.1, 0.45), (0.35, 0.7)),
    "ch2-a0": ((0.1, 4.9), (0.5, 2.5), (2.0, 4.5)),
    "ch2-a1": ((0.1, 4.9), (0.2, 1.5), (1.0, 4.0)),
    "ch2-a1p": ((0.1, 4.9), (0.2, 1.5), (1.0, 4.0)),
    "ch2-b": ((0.1, 4.9), (0.2, 1.5), (1.0, 4.0)),
}
_MENU_GRIDS = [
    (family_id, kind, *_MENU_WINDOWS[family_id][(fi + 2 * ci) % 3],
     (600, 800, 1000)[(fi + ci) % 3])
    for fi, family_id in enumerate(EXPECTED_IDS) for ci, kind in enumerate(ConditionKind)
]


@pytest.mark.parametrize("family_id, kind, r_min, r_max, samples", _MENU_GRIDS)
def test_sweep_equals_the_two_kernel_path_on_the_menu_grids(family_id, kind, r_min, r_max,
                                                            samples):
    fam = builtin_catalog().get(family_id)
    # the reference is the per-radius evaluation
    expected = [_hex(column) for column in _per_radius_sweep(fam, r_min, r_max, samples, kind)]
    assert len(expected[0]) == samples
    res = sweep(fam, r_min, r_max, samples, kind)
    assert [_hex(res.radii), _hex(res.max_residuals), _hex(res.lam_nu_plus_c)] == expected


@pytest.mark.parametrize("fam, r_min, r_max, samples", [
    # the rows overflow at r = 1e-100; the curvatures fail (sqrt) past r = 1
    (_family(*_SPHERE, "cot(r) + sqrt(1 - r)"), 1e-100, 2.0, 5),
    # lambda*nu + c overflows at r = 1e-200
    (_family(*_SPHERE, "cot(r) + sqrt(1 - r)"), 1e-200, 2.0, 3),
    # finite rows up to the first curvature error (sqrt at r = 0.75)
    (_family(*_SPHERE, _SPHERE_NU_TO_HALF), 0.25, 1.0, 4),
    # a pole of nu at r = 1
    (_family(*_SPHERE, "cot(r) + 1/(r - 1)"), 0.5, 2.0, 4),
    # alpha alone overflows (to inf, raising nothing) past r = 1.8; the
    # parallel and xi-parallel reports read no alpha
    (_family("10^308*r", "cot(r)", "cot(r)"), 0.5, 3.0, 6),
    # powers of exp(400*r) overflow in the rows, then in lambda*nu + c
    (_family("1", "exp(400*r)", "-exp(400*r)"), 0.05, 1.5, 60),
    # the last radius lands one ulp past r_max, on the open end pi/2
    (builtin_catalog().get("cp2-a1"), 0.362, 1.5707963267948963, 14),
])
def test_sweep_kernel_stops_where_the_two_kernel_path_stops(fam, r_min, r_max, samples):
    stops = set()
    for kind in ConditionKind:
        got = _fused(fam, r_min, r_max, samples, kind)
        expected = _per_radius_sweep(fam, r_min, r_max, samples, kind)
        assert [_hex(column) for column in got] == [_hex(column) for column in expected]
        stops.add(len(got[0]))
    assert max(stops) < samples


# radius_grid's last point is one ulp off r_max on these grids of the
# benchmark's sweeps and of prove all --samples 50
_ULP_OFF_GRIDS = [("cp2-a1", 0.2, 0.9, 1000), ("cp2-b", 0.1, 0.45, 800),
                  ("cp2-a1", None, None, 50), ("cp2-b", None, None, 50)]


def _uniform(lo, hi, samples):
    """The reference radii of a sweep: lo + (hi - lo) * i / (samples - 1)."""
    return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


def test_sweep_kernel_radii_equal_radius_grid_bit_for_bit():
    cat = builtin_catalog()
    for family_id, r_min, r_max, samples in _ULP_OFF_GRIDS:
        fam = cat.get(family_id)
        if r_min is None:
            r_min, r_max = fam.sample_window()
        radii = _uniform(r_min, r_max, samples)
        assert radii[-1] != r_max
        assert _hex(radius_grid(r_min, r_max, samples)) == _hex(radii)
        for kind in ConditionKind:
            assert _hex(sweep(fam, r_min, r_max, samples, kind).radii) == _hex(radii)
    # the horosphere's constant curvatures over the whole line
    line = HypersurfaceFamily("line", CH2, (-math.inf, math.inf), *map(Expr.const, (2, 1, 1)))
    rng = random.Random(20240)
    for _ in range(1000):
        r_min = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8, 4)
        r_max = r_min + rng.choice((0.0, 10.0 ** rng.uniform(-8, 4)))
        samples = rng.randint(2, 40)
        got = sweep(line, r_min, r_max, samples, ConditionKind.PARALLEL).radii
        assert _hex(got) == _hex(_uniform(r_min, r_max, samples))


# -- column kernels: no Python call per radius ------------------------------------------

def _python_calls(thunk) -> int:
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


def test_radius_loops_make_no_python_call_per_radius(monkeypatch):
    cat = builtin_catalog()
    for kind in ConditionKind:  # build each cached report and sweep kernel outside the counts
        for fam in cat.families:
            sweep(fam, *fam.sample_window(), 2, kind)
    for kind in ConditionKind:
        for fam in cat.families:
            lo, hi = fam.sample_window()
            counts = {n: _python_calls(lambda: sweep(fam, lo, hi, n, kind)) for n in (10, 1000)}
            assert counts[10] == counts[1000], (fam.family_id, kind, counts)
    for space in (CP2, CH2):
        counts = {n: _python_calls(lambda: type_b_exclusion(space, samples=n)) for n in (10, 1000)}
        assert counts[10] == counts[1000], (space, counts)
    for fam in cat.families:
        counts = {}
        for n in (10, 1000):
            monkeypatch.setattr(catalog, "ORACLE_SAMPLES", n)
            counts[n] = _python_calls(lambda: catalog.validate_family(fam))
        assert counts[10] == counts[1000], (fam.family_id, counts)


# -- column kernels: once per call, once per radius --------------------------------------

def _kernels(fam):
    """fam's oracle kernel, then its sweep kernel per condition kind."""
    yield fam.oracle
    for kind in ConditionKind:
        yield catalog._sweep_kernel(fam, catalog._hopf_report(kind))


def _radius_loop(tree) -> ast.For:
    return next(node for node in ast.walk(tree) if isinstance(node, ast.For))


def test_the_horosphere_loops_compute_only_the_radius():
    # no curvature or row of ch2-a0 reads r, so each loop only takes r from
    # the points and appends the values the call computed once
    for kernel in _kernels(builtin_catalog().get("ch2-a0")):
        loop = _radius_loop(ast.parse(kernel.source))
        assert [type(node) for node in loop.body] == [ast.Expr, ast.Expr]
        assert not [node for node in ast.walk(loop) if isinstance(node, ast.Assign)]


@pytest.mark.parametrize("family_id", ["cp2-a1", "ch2-a1", "ch2-a1p"])
def test_equal_curvatures_bind_one_identifier(family_id):
    # lambda and nu have one expression, so they share one value: each tail
    # starts with lambda * nu as x * x
    fam = builtin_catalog().get(family_id)
    assert fam.lam == fam.nu
    for kernel in _kernels(fam):
        tree = ast.parse(kernel.source)
        bound = {node.targets[0].id: node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and not isinstance(node.value, (ast.Constant, ast.Name))}
        codes = [ast.dump(value) for value in bound.values()]
        assert len(codes) == len(set(codes))  # each distinct code is bound once
        tail = _radius_loop(tree).body[-1].value.args[0].id  # w1(y)
        assert re.match(r"(x[0-9]+) \* \1 ", ast.unparse(bound[tail])), kernel.source


@pytest.mark.parametrize("family_id", EXPECTED_IDS)
def test_each_math_call_is_bound_once(family_id):
    # cot and tan of one argument (cp2-b), coth and tanh (ch2-b) share one
    # call: the reciprocal divides 1.0 by the call's identifier
    for kernel in _kernels(builtin_catalog().get(family_id)):
        calls = re.findall(r"\bf[0-9]+\([^()]*\)", kernel.source)
        assert len(calls) == len(set(calls)), kernel.source
        if family_id.endswith("-b"):
            assert re.search(r" = 1\.0 / a[0-9]+\n", kernel.source), kernel.source


@pytest.mark.parametrize("family_id, curvatures, first", [
    # constant curvatures, as on the horosphere: every row is computed once
    # per call, and four of them overflow
    ("ch2-a0", ("10^120",) * 3,
     (CatalogError, "4 of 27 pseudo-parallel rows are not finite on probe at r = 0.05")),
    # the sphere's curvatures, every row reading r, and a constant atom
    # outside its domain, computed once per call
    ("cp2-a1", (*_SPHERE, "cot(r) + sqrt(-1)"),
     (ExprError, "sqrt(-1.0) cannot be evaluated: math domain error")),
], ids=["ch2-a0", "cp2-a1"])
def test_a_failure_once_per_call_raises_the_first_radius_error(family_id, curvatures, first):
    like = builtin_catalog().get(family_id)
    fam = _family(*curvatures, domain=like.domain, space=like.space)
    kind = ConditionKind.PSEUDO_PARALLEL
    r_min, r_max = fam.sample_window()
    assert _fused(fam, r_min, r_max, 5, kind) == ([], [], [])
    assert _error(lambda: evaluate_condition(fam, r_min, kind)) == first
    assert _error(lambda: sweep(fam, r_min, r_max, 5, kind)) == first


def _overshooting_grid(fam):
    """(end, r_min, r_max, samples): a grid from the start of fam's sample
    window to r_max, the float below end, whose last point lands on end:
    fam's upper domain end, or the float past its sample window when that
    end is inf."""
    r_min, hi = fam.sample_window()
    end = fam.domain[1] if math.isfinite(fam.domain[1]) else math.nextafter(hi, math.inf)
    r_max = math.nextafter(end, -math.inf)
    samples = next(n for n in range(2, 100) if radius_grid(r_min, r_max, n)[-1] >= end)
    return end, r_min, r_max, samples


@pytest.mark.parametrize("family_id", EXPECTED_IDS)
def test_every_kernel_equals_the_per_radius_evaluation_to_an_overshooting_end(family_id):
    # the kernels take the domain's ends as arguments, so each kernel stops
    # before the last point; the per-radius evaluation is the reference
    fam = builtin_catalog().get(family_id)
    end, r_min, r_max, samples = _overshooting_grid(fam)
    radii = radius_grid(r_min, r_max, samples)
    assert radii[-2] < end == radii[-1]
    assert _hex(radii) == _hex(_uniform(r_min, r_max, samples))
    args = (radii, fam.domain[0], end, math.pi)
    expected = [fam.hopf_residual(r) for r in radii[:-1]]
    assert _hex(fam.oracle(*args, float(fam.space.c))[1]) == _hex(expected)
    for kind in ConditionKind:
        report = catalog._hopf_report(kind)
        got = catalog._sweep_kernel(fam, report)(*args, float(fam.space.c))
        evaluations = [evaluate_condition(fam, r, kind) for r in radii[:-1]]
        expected = [[e.max_abs_residual for e in evaluations],
                    [e.lam_nu_plus_c for e in evaluations]]
        assert [_hex(column) for column in got] == [_hex(column) for column in expected]
        if end == fam.domain[1]:
            with pytest.raises(DomainError) as per_radius:
                evaluate_condition(fam, radii[-1], kind)
            # the sweep replays the grid's last point, radii[-1]
            assert _error(lambda: sweep(fam, r_min, r_max, samples, kind)) == (
                DomainError, str(per_radius.value))
