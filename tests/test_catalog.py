import math

import pytest

from starricci.catalog import (
    CH2,
    CP2,
    CatalogError,
    ConditionKind,
    DomainError,
    builtin_catalog,
    builtin_families,
    evaluate_condition,
    format_catalog,
    hopf_relation_residual,
    parse_catalog,
    sweep,
)

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
    with pytest.raises(CatalogError):
        parse_catalog(
            "[catalog]\nversion = 1\n\n[f]\nspace = XX\ndomain = 0, 1\n"
            "alpha = 1\nlambda = 1\nnu = 1\n"
        )


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
