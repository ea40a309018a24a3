import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starricci import catalog, cli, conditions, frames, parsing, proofs, symbols
from starricci.catalog import ConditionKind, SweepResult, builtin_catalog, format_catalog
from starricci.cli import main
from starricci.conditions import ConditionReport
from starricci.parsing import ExprSyntaxError, parse_expr
from starricci.polynomial import Polynomial
from starricci.rational import Expr
from starricci.symbols import SymbolTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_prove_all_exits_zero(capsys):
    code, out = run(capsys, "prove", "all")
    assert code == 0
    assert "verified at desk scale" in out
    assert "beta^2*delta" in out
    assert "witness" in out


def test_prove_nonhopf_text(capsys):
    code, out = run(capsys, "prove", "nonhopf")
    assert code == 0
    for needle in ("beta^2*delta", "beta*mu^2", "-beta*c", "contradiction"):
        assert needle in out


def test_prove_quadratic_ch2(capsys):
    code, out = run(capsys, "prove", "quadratic", "--space", "ch2")
    assert code == 0
    assert "0 < alpha^2 <= 25/4" in out


def test_prove_type_b(capsys):
    code, out = run(capsys, "prove", "type-b")
    assert code == 0
    assert "lambda*nu != -c certified" in out


@pytest.mark.parametrize("piece, status", [
    ("nonhopf", "non-Hopf case: contradiction verified"),
    ("hopf", "Hopf case: c + lambda*nu = 0 verified"),
    ("quadratic", "quadratic analysis: solvability in nu derived"),
    ("type-b", "type-B exclusion: lambda*nu != -c certified"),
])
def test_a_single_piece_states_what_it_showed(capsys, piece, status):
    # only prove all states the theorem
    code, out = run(capsys, "prove", piece)
    assert code == 0
    assert out.splitlines()[1] == f"status: {status}"
    assert "non-existence" not in out


def test_prove_quadratic_fails_on_a_proof_error(monkeypatch, capsys):
    def broken(space, elimination):
        raise proofs.ProofError("no quadratic")

    monkeypatch.setattr(proofs, "quadratic_analysis", broken)
    code, out = run(capsys, "prove", "quadratic")
    assert code == 1
    assert out.splitlines()[1] == "status: FAILED: no quadratic"


def test_check_star_ricci_parallel_nonhopf(capsys):
    code, out = run(capsys, "check", "star-ricci", "parallel", "nonhopf")
    assert code == 0
    assert "27 equations" in out
    assert "x=(e3) y=e3 proj=e3 : beta^2*delta" in out


def test_check_star_ricci_parallel_hopf(capsys):
    code, out = run(capsys, "check", "star-ricci", "parallel", "hopf")
    assert code == 0
    # the lambda*(c + lambda*nu) projection, expanded canonically
    assert "lambda^2*nu" in out and "c*lambda" in out


def test_check_with_assumptions(capsys):
    code, out = run(capsys, "check", "star-ricci", "parallel", "nonhopf",
                    "delta=0", "mu=0")
    assert code == 0
    assert "x=(e3) y=e2 proj=e3 : -beta*c" in out


def test_check_binds_a_derivative_symbol_it_prints(capsys):
    def equations(*assumptions):
        code, out = run(capsys, "check", "ricci", "parallel", "nonhopf",
                        *assumptions, "--format", "json")
        assert code == 0
        return [e["equation"] for e in json.loads(out)["payload"]["entries"]]

    ctx = frames.build_nonhopf_context()
    scope = ctx.table.scope()
    free, bound = equations(), equations("D(e1,alpha)=0")
    assert any("D(e1,alpha)" in text for text in free)
    # each equation loses exactly its terms in D(e1,alpha)
    for text, got in zip(free, bound, strict=True):
        terms = parse_expr(text, scope).num.terms
        kept = {m: c for m, c in terms if "D(e1,alpha)" not in dict(m)}
        assert got == Polynomial(kept).to_text()
    assert equations("D(e1, alpha)=0") == bound


def test_check_rejects_an_assumption_that_is_no_symbol(capsys):
    # D of the constant c is 0; an applied atom or a sum binds no symbol either
    for name in ("D(e1,c)", "cot(alpha)", "alpha + mu", "2*alpha", "D(e4,alpha)"):
        assert main(["check", "ricci", "parallel", "nonhopf", f"{name}=0"]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown symbol {name!r} in this context\n"


def test_check_ricci_einstein_hopf(monkeypatch, capsys):
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return frames.ricci(ctx)

    for module in (cli, conditions):
        monkeypatch.setattr(module, "ricci", counted)
    code, out = run(capsys, "check", "ricci", "einstein", "hopf")
    assert code == 0
    assert "9 equations" in out
    assert "lambda_e" in out
    # cmd_check looks up the tensor it names and einstein_equations the Ricci
    # tensor, both on the one context that keeps it
    assert len(calls) == 2 and calls[0] is calls[1]


def test_check_pseudo_parallel_with_l(capsys):
    code, out = run(capsys, "check", "star-ricci", "pseudo-parallel", "hopf",
                    "--pseudo-l", "alpha")
    assert code == 0
    assert "27 equations" in out


@pytest.mark.parametrize("condition", [k.value for k in ConditionKind
                                       if k is not ConditionKind.PSEUDO_PARALLEL])
def test_pseudo_l_with_another_condition_is_one_error_line(capsys, condition):
    # the flag was dropped silently: this exited 0 with the parallel report
    argv = ["check", "ricci", condition, "hopf", "--pseudo-l", "1/0"]
    assert _captured(capsys, argv) == (
        2, "", f"error: --pseudo-l applies only to the pseudo-parallel condition, "
               f"not {condition}\n")


def test_pseudo_parallel_defaults_to_l_zero(capsys):
    default = run(capsys, "check", "ricci", "pseudo-parallel", "hopf")
    assert default == run(capsys, "check", "ricci", "pseudo-parallel", "hopf",
                          "--pseudo-l", "0")
    assert default[0] == 0 and "27 equations" in default[1]


def test_sweep_rows(capsys):
    code, out = run(capsys, "sweep", "cp2-b", "0.1", "0.7", "5", "parallel")
    assert code == 0
    assert out.count("+3.000000000") == 5


def test_sweep_horosphere_from_zero(capsys):
    code, out = run(capsys, "sweep", "ch2-a0", "0", "1", "2", "parallel")
    assert code == 0
    rows = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(rows) == 2
    assert rows[0].split()[1:] == rows[1].split()[1:]


def test_sweep_witness_column(capsys):
    code, out = run(capsys, "sweep", "ch2-b", "0.1", "3.0", "10", "parallel")
    assert code == 0
    assert "-3.000000000" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_sweep_builds_only_the_requested_format(monkeypatch, capsys, fmt):
    reports = []
    monkeypatch.setattr(cli, "_write", lambda report, args: reports.append(report))
    code, _ = run(capsys, "sweep", "ch2-b", "0.1", "3.0", "10", "parallel", "--format", fmt)
    assert code == 0
    (report,) = reports
    if fmt == "json":
        assert report.text_lines == []
        assert len(report.payload["rows"].radii) == 10
    else:
        assert "rows" not in report.payload
        _family, _heading, rows = report.text_lines  # the row block is one item
        assert len(rows.split("\n")) == 10
    assert report.payload["rows_below_witness_tol"] == 0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_prove_builds_only_the_requested_format(monkeypatch, capsys, fmt):
    reports = []
    monkeypatch.setattr(cli, "_write", lambda report, args: reports.append(report))
    code, _ = run(capsys, "prove", "all", "--samples", "10", "--format", fmt)
    assert code == 0
    (report,) = reports
    keys = {"nonhopf", "hopf", "quadratic", "type_b"}
    if fmt == "json":
        assert report.text_lines == []
        assert keys <= set(report.payload)
    else:
        assert not keys & set(report.payload)
        assert report.text_lines[0] == "trace: nonhopf-contradiction"
        assert report.text_lines[-1].startswith("witness: ")


def test_expr_eval(capsys):
    code, out = run(capsys, "expr", "eval", "l*n_ - (a/2)*(l+n_) - c/4",
                    "a=2", "l=1", "n_=1", "c=-4")
    assert code == 0
    assert "= 0.0" in out
    code, out = run(capsys, "expr", "eval", "c", "c=4")
    assert code == 0
    assert "= 4.0" in out


def test_expr_solve(capsys):
    code, out = run(capsys, "expr", "solve", "2*a*v^2+5*c*v-2*a*c", "v")
    assert code == 0
    assert "16*a^2*c + 25*c^2" in out


def test_json_reports_roundtrip(capsys):
    for argv in (
        ("prove", "quadratic", "--format", "json"),
        ("check", "star-ricci", "xi-parallel", "hopf", "--format", "json"),
        ("sweep", "ch2-b", "0.5", "1.5", "4", "parallel", "--format", "json"),
        ("expr", "solve", "x^2 - 9", "x", "--format", "json"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "starricci.report/1"
        assert json.loads(json.dumps(doc["payload"])) == doc["payload"]


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "prove", "all", "--format", "json")
    _, second = run(capsys, "prove", "all", "--format", "json")
    assert first == second
    _, t1 = run(capsys, "check", "star-ricci", "parallel", "nonhopf")
    _, t2 = run(capsys, "check", "star-ricci", "parallel", "nonhopf")
    assert t1 == t2


def test_text_and_json_agree_on_equations(capsys):
    _, text = run(capsys, "check", "star-ricci", "parallel", "hopf")
    _, js = run(capsys, "check", "star-ricci", "parallel", "hopf",
                "--format", "json")
    payload = json.loads(js)["payload"]
    for entry in payload["entries"]:
        assert f": {entry['equation']}" in text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_renders_each_equation_once(monkeypatch, capsys, fmt):
    # each format builds only what it prints: one to_text per distinct
    # equation object, so mirrored entries and the shared zero take one each
    rendered, reports = [], []
    to_text, build_report = Expr.to_text, cli.build_report

    def counted(self):
        rendered.append(self)
        return to_text(self)

    def kept(*args):
        reports.append(build_report(*args))
        return reports[-1]

    monkeypatch.setattr(Expr, "to_text", counted)
    monkeypatch.setattr(cli, "build_report", kept)
    for tensor, context in (("star-ricci", "nonhopf"), ("ricci", "hopf")):
        rendered.clear()
        reports.clear()
        code, out = run(capsys, "check", tensor, "parallel", context, "--format", fmt)
        assert code == 0
        if fmt == "json":
            entries = len(json.loads(out)["payload"]["entries"])
        else:
            entries = sum(" : " in line for line in out.splitlines())
        [report] = reports
        distinct = {id(e.equation) for e in report.entries}
        assert entries == len(report) == 27
        assert sorted(map(id, rendered)) == sorted(distinct)
        # the Hopf Ricci tensor is symmetric: 9 of its 27 entries are mirrors
        assert len(distinct) < (18 if tensor == "ricci" else 27)


@pytest.mark.parametrize("argv", [
    ["check", "ricci", "parallel", "hopf"],
    ["check", "star-ricci", "parallel", "nonhopf"],
    ["check", "ricci", "semi-parallel", "hopf"],
    ["check", "ricci", "parallel", "nonhopf", "delta=0", "mu=0"],  # substituted mirrors
])
def test_json_check_converts_and_escapes_each_equation_object_once(monkeypatch, capsys, argv):
    # the entries' equation texts are made in the json writer: one to_text
    # and one _json_str per distinct Expr object, not one per entry
    rendered, escaped, reports = [], [], []
    to_text, json_str = Expr.to_text, cli._json_str

    def converted(self):
        rendered.append(self)
        return to_text(self)

    def kept(f):
        def wrapper(*args):
            reports.append(f(*args))
            return reports[-1]
        return wrapper

    monkeypatch.setattr(Expr, "to_text", converted)
    monkeypatch.setattr(cli, "_json_str", lambda s: (escaped.append(s), json_str(s))[1])
    monkeypatch.setattr(cli, "build_report", kept(cli.build_report))
    monkeypatch.setattr(ConditionReport, "substitute", kept(ConditionReport.substitute))
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    report = reports[-1]  # the substituted report, where there are assumptions
    distinct = {id(e.equation): e.equation for e in report.entries}
    texts = Counter(map(to_text, distinct.values()))
    assert sorted(map(id, rendered)) == sorted(distinct)
    assert Counter(s for s in escaped if s in texts) == texts
    assert [e["equation"] for e in json.loads(out)["payload"]["entries"]] == [
        to_text(e.equation) for e in report.entries]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "prove", "nonhopf", "--format", "json",
                    "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "prove nonhopf"


def test_custom_catalog_flag(tmp_path, capsys):
    cat = tmp_path / "my.cat"
    cat.write_text("""
[catalog]
version = 1

[tube]
space = CH2
domain = 0, inf
alpha = 2*tanh(2*r)
lambda = coth(r)
nu = tanh(r)
""")
    code, out = run(capsys, "sweep", "tube", "0.2", "1.0", "3", "parallel",
                    "--catalog", str(cat))
    assert code == 0
    assert "tube" in out


@pytest.mark.parametrize("header, error", [
    ("[catalog]\n", "missing catalog version in the [catalog] section"),
    ("[catalog]\nversion = x\n", "catalog version 'x' is not an integer"),
])
def test_a_bad_catalog_version_is_one_error_line(tmp_path, capsys, header, error):
    path = tmp_path / "version.cat"
    path.write_text(header + "\n[tube]\nspace = CH2\ndomain = 0, inf\n", encoding="utf-8")
    argv = ["sweep", "cp2-a1", "0.2", "0.9", "3", "parallel", "--catalog", str(path)]
    assert _captured(capsys, argv) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("body, error", [
    ("space = cp2\ndomain = 0, 1", "family 'fam': unknown space 'cp2' (known: CP2, CH2)"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = 1", "family 'fam': missing key 'nu'"),
    ("space = CP2\ndomain = 0, 1, 2", "family 'fam': domain '0, 1, 2' is not two ends 'lo, hi'"),
    ("space = CP2\ndomain = 0", "family 'fam': domain '0' is not two ends 'lo, hi'"),
    ("space = CP2\ndomain = 0, 1\nalpha =\nlambda = 1\nnu = 1",
     "family 'fam': key 'alpha': unexpected token '' (at position 0)"),
    ("space = CP2\ndomain = ,\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': key 'domain': unexpected token '' (at position 0)"),
    ("space = CP2\ndomain = 0, 10^400\nalpha = 1\nlambda = 1\nnu = 1",
     "family 'fam': key 'domain': floating-point overflow"),
    ("space = CP2\ndomain = 0, 1\nalpha = 10^400\nlambda = 1\nnu = 1",
     "family 'fam': key 'alpha': floating-point overflow"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = cot(10^400*r)\nnu = 1",
     "family 'fam': key 'lambda': floating-point overflow"),
    ("space = CP2\ndomain = 0, 1\nalpha = 1\nlambda = 1\nnu = cot(10^400*r)",
     "family 'fam': key 'nu': floating-point overflow"),
])
def test_a_malformed_catalog_family_is_one_error_line(tmp_path, capsys, body, error):
    path = tmp_path / "malformed.cat"
    path.write_text(f"[catalog]\nversion = 1\n\n[fam]\n{body}\n", encoding="utf-8")
    argv = ["sweep", "fam", "0.2", "0.9", "3", "parallel", "--catalog", str(path)]
    assert _captured(capsys, argv) == (2, "", f"error: {error}\n")


_POLE_CATALOG = """
[catalog]
version = 1

[pole]
space = CP2
domain = -1, 1
alpha = (r^2 - 2)/r
lambda = 1 + r
nu = r - 1
"""


def test_a_pole_of_alpha_stops_every_sweep(tmp_path, capsys):
    # lambda + nu = 2r vanishes where alpha has its pole, r = 0, so lambda
    # and nu stay finite there; the parallel and xi-parallel reports read no
    # alpha, yet the sweep stops at r = 0 with the per-radius error
    path = tmp_path / "pole.cat"
    path.write_text(_POLE_CATALOG, encoding="utf-8")
    for kind in ("parallel", "xi-parallel", "semi-parallel"):
        argv = ["sweep", "pole", "-0.5", "0.5", "3", kind, "--catalog", str(path)]
        assert _fresh(capsys, argv) == (2, "", "error: denominator r evaluates to 0.0\n")
    argv = ["sweep", "pole", "-0.5", "0.4", "3", "parallel", "--catalog", str(path)]
    assert _fresh(capsys, argv) == (0, "\n".join([
        "# sweep pole",
        "status: ok",
        "family pole ()",
        "           r    max residual   lambda*nu + c",
        "   -0.500000    4.875000e+00    +3.250000000",
        "   -0.050000    3.152625e+00    +3.002500000",
        "    0.400000    4.424000e+00    +3.160000000",
    ]) + "\n", "")


def _captured(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _edited_builtin(*edits):
    """The builtin catalog file with each (family, key, suffix) appended to
    that family's line, or with each (family, None, None) section removed."""
    text = resources.files("starricci.data").joinpath("families.cat").read_text("utf-8")
    for family_id, key, suffix in edits:
        start = text.index(f"[{family_id}]")
        if key is None:  # up to the next section, or the end of the last one
            end = text.find("\n[", start) + 1 or len(text)
            text = text[:start] + text[end:]
        else:
            end = text.index("\n", text.index(f"\n{key} = ", start) + 1)
            text = text[:end] + suffix + text[end:]
    return text


def _notch(m):
    """A zero in r that is sqrt of a negative within 1e-3 of m only: between
    two of the 100 oracle radii, and on the midpoint of a 3-radius window."""
    return f" + sqrt((r - {m})^2 - 1/1000000) - sqrt(4*(r - {m})^2 - 4/1000000)/2"


@pytest.mark.parametrize("edits, error", [
    # the type-B family is missing: its lookup fails first
    ((("cp2-b", None, None),),
     "no family 'cp2-b' in catalog (known: cp2-a1, ch2-a0, ch2-a1, ch2-a1p, ch2-b)"),
    # cp2-a1, cp2-b and ch2-b fail at their windows' midpoints: cp2-b is swept first
    ((("cp2-a1", "nu", _notch("pi/4")), ("cp2-b", "nu", _notch("pi/8")),
      ("ch2-b", "nu", _notch("101/40"))),
     "sqrt(-4.000000000111022e-06) cannot be evaluated: math domain error"),
    # cp2-a1 and ch2-b fail: ch2-b is swept before cp2-a1, as CH2's type-B family
    ((("cp2-a1", "nu", _notch("pi/4")), ("ch2-b", "nu", _notch("101/40"))),
     "sqrt(-3.999999997006398e-06) cannot be evaluated: math domain error"),
    # the last section of the file, ch2-b, is missing
    ((("ch2-b", None, None),),
     "no family 'ch2-b' in catalog (known: cp2-a1, cp2-b, ch2-a0, ch2-a1, ch2-a1p)"),
])
def test_prove_reports_the_type_b_family_error_first(tmp_path, capsys, edits, error):
    # the error lines of the proofs before the type-B certificate read the
    # witness sweep, in which each type-B family had a radius loop of its own
    path = tmp_path / "edited.cat"
    path.write_text(_edited_builtin(*edits), encoding="utf-8")
    for target in ("all", "type-b"):
        argv = ["prove", target, "--samples", "3", "--catalog", str(path)]
        assert _captured(capsys, argv) == (2, "", f"error: {error}\n")
    # only cp2-a1 fails: prove all reports it from the witness, type-b certifies
    path.write_text(_edited_builtin(("cp2-a1", "nu", _notch("pi/4"))), encoding="utf-8")
    argv = ["prove", "all", "--samples", "3", "--catalog", str(path)]
    assert _captured(capsys, argv) == (
        2, "", "error: sqrt(-1.0000000001110223e-06) cannot be evaluated: math domain error\n")
    code, out, err = _captured(capsys, ["prove", "type-b", "--samples", "3",
                                        "--catalog", str(path)])
    assert (code, err) == (0, "") and "lambda*nu != -c certified" in out


def test_catalog_file_sweeps_equal_the_builtin_sweeps(tmp_path, capsys):
    # F is the builtin catalog written out: every sweep and the prove on it
    # print the builtin bytes, on the load that parses F and on the loads
    # that reuse it
    path = tmp_path / "builtin.cat"
    path.write_text(format_catalog(builtin_catalog()), encoding="utf-8")
    flag = ["--catalog", str(path)]
    catalog.parse_catalog.cache_clear()
    for fam in builtin_catalog().families:
        lo, hi = fam.sample_window()
        for kind in ConditionKind:
            for fmt in ("text", "json"):
                argv = ["sweep", fam.family_id, repr(lo), repr(hi), "40", kind.value,
                        "--format", fmt]
                expected = _captured(capsys, argv)
                assert expected[0] == 0 and expected[1]
                assert _captured(capsys, argv + flag) == expected, argv
                assert _captured(capsys, argv + flag) == expected, argv
    argv = ["prove", "all", "--samples", "20"]
    expected = _captured(capsys, argv)
    assert expected[0] == 0
    assert _captured(capsys, argv + flag) == expected
    info = catalog.parse_catalog.cache_info()
    assert (info.misses, info.hits) == (1, 6 * 6 * 2 * 2)


_TUBE = """
[catalog]
version = 1

[tube]
space = CH2
domain = 0, inf
alpha = 2*tanh(2*r)
lambda = coth(r)
nu = tanh(r)
description = %s
"""
# lambda = tanh(r) breaks the principal-curvature relation
_BROKEN_TUBE = _TUBE.replace("lambda = coth(r)", "lambda = tanh(r)")


def test_a_failing_catalog_fails_on_every_load(monkeypatch):
    validated = []
    real = catalog.validate_family
    monkeypatch.setattr(catalog, "validate_family",
                        lambda fam, **kw: validated.append(fam.family_id) or real(fam, **kw))
    for _ in range(3):
        with pytest.raises(catalog.CatalogError, match="principal-curvature relation"):
            catalog.parse_catalog(_BROKEN_TUBE % "broken")
    assert validated == ["tube"] * 3


def test_an_edited_catalog_file_is_loaded_again(tmp_path, capsys):
    path = tmp_path / "tube.cat"
    argv = ["sweep", "tube", "0.2", "1.0", "3", "parallel", "--catalog", str(path)]
    path.write_text(_TUBE % "first text", encoding="utf-8")
    code, out, _ = _captured(capsys, argv)
    assert code == 0 and "family tube (first text)" in out
    path.write_text(_TUBE % "second text", encoding="utf-8")
    code, out, _ = _captured(capsys, argv)
    assert code == 0 and "family tube (second text)" in out
    path.write_text(_BROKEN_TUBE % "second text", encoding="utf-8")
    code, out, err = _captured(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: family 'tube' fails the principal-curvature relation")
    assert err.count("\n") == 1


def _nested(depth: int, opening: str, inner: str = "x") -> str:
    return opening * depth + inner + ")" * depth


@pytest.mark.parametrize("opening", ["(", "tanh("])
def test_deeply_nested_input_is_one_error_line(tmp_path, capsys, opening):
    deep = _nested(2000, opening)
    path = tmp_path / "deep.cat"
    path.write_text((_TUBE % "deep").replace("2*tanh(2*r)", _nested(2000, opening, "r")),
                    encoding="utf-8")
    for argv in (["expr", "eval", deep, "x=1"],
                 ["check", "ricci", "pseudo-parallel", "hopf", "--pseudo-l", deep],
                 ["check", "ricci", "parallel", "nonhopf", f"delta={deep}"],
                 ["sweep", "tube", "0.2", "1.0", "3", "parallel", "--catalog", str(path)]):
        code, out, err = _captured(capsys, argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]
        assert f"more than {parsing.MAX_NESTING} nested parentheses" in err


@pytest.mark.parametrize("opening", ["(", "tanh("])
def test_input_nested_to_the_limit_evaluates(capsys, opening):
    code, out, _ = _captured(capsys, ["expr", "eval", _nested(parsing.MAX_NESTING, opening),
                                      "x=1"])
    assert code == 0 and out.startswith("# expr eval\nstatus: ok\n")
    code, out, _ = _captured(capsys, ["check", "ricci", "parallel", "nonhopf",
                                      f"delta={_nested(parsing.MAX_NESTING, opening, 'mu')}"])
    assert code == 0 and "27 equations" in out


def test_a_run_of_minus_signs_takes_no_recursion(capsys):
    code, out, _ = _captured(capsys, ["expr", "eval", "0" + "-" * 3001 + "x", "x=2"])
    assert code == 0 and "-x = -2.0" in out


# stdout of `expr eval` before powers were bounded, by SHA-256
_BIG_POWERS = [
    (["(x+y)^1000", "x=1", "y=1"],
     "e96e384e164cda333405e7a7dbe99cf4d1324511366e6b82104d04810849e784"),
    (["(x+y+z)^60", "x=1", "y=1", "z=1"],
     "e510762460752306b86c85e37ad6df9c86ef267e7956ddf2a82cfcc3e70359e7"),
]


@pytest.mark.parametrize("args, digest", _BIG_POWERS, ids=["binomial", "trinomial"])
def test_a_power_within_the_term_bound_expands(args, digest):
    # 1001 and 1891 terms, at most parsing.MAX_POWER_TERMS
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "starricci.cli", "expr", "eval", *args],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("text", ["(x+y)^3000", "(x+y)^100000"])
def test_a_power_past_the_term_bound_is_one_error_line(text):
    # expanding these ran out of time or memory: the bound rejects them unexpanded
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "starricci.cli", "expr", "eval", text,
                           "x=1", "y=1"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: the power of a ") and proc.stderr.count("\n") == 1
    assert f"more than {parsing.MAX_POWER_TERMS} terms (at position " in proc.stderr


def test_a_power_bounds_the_terms_of_the_numerator_and_the_denominator(monkeypatch):
    monkeypatch.setattr(parsing, "MAX_POWER_TERMS", 10)
    table = SymbolTable()
    x, y, z = (Expr.from_symbol(table.constant(name)) for name in ("x", "y", "z"))
    assert parse_expr("(x+y)^9", table) == (x + y) ** 9            # 10 terms
    assert parse_expr("(x+y+z)^3", table) == (x + y + z) ** 3      # C(5, 2) = 10
    assert parse_expr("(x*y)^100000", table) == (x * y) ** 100000  # one term
    assert parse_expr("(x+y-y)^100000", table) == x ** 100000      # the base is x
    for text, pos, k, n in [("(x+y)^10", 5, 2, 10), ("(x+y+z)^4", 7, 3, 4),
                            ("(x/(x+y))^10", 9, 2, 10), ("2*(x+y)^(-10)", 7, 2, 10)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, table)
        assert str(err.value) == (f"the power of a {k}-term polynomial to {n} could expand "
                                  f"to more than 10 terms (at position {pos})")


@pytest.mark.parametrize("args", [["expr", "eval", "10^9999999"],
                                  ["expr", "eval", "7^99999999"],
                                  ["check", "ricci", "parallel", "hopf", "c=7^99999999"]])
def test_a_power_past_the_bit_bound_is_one_error_line(args):
    # unbounded, the first ran 9 s to an overflow and the others past 20 s and 8 s
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "starricci.cli", *args],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert (f"the power of a 1-term polynomial to {args[-1].rpartition('^')[2]} could have "
            f"coefficients of more than {parsing.MAX_POWER_BITS} bits (at position ") in proc.stderr


def test_a_power_bounds_the_bits_of_its_coefficients(monkeypatch):
    table = SymbolTable()
    x, y = (Expr.from_symbol(table.constant(name)) for name in ("x", "y"))
    assert parse_expr("10^400", table) == Expr.const(10 ** 400)
    assert parse_expr("(x*y)^100000", table) == (x * y) ** 100000
    assert parse_expr("(-x)^99999999", table) == (-x) ** 99999999  # a coefficient of -1
    monkeypatch.setattr(parsing, "MAX_POWER_BITS", 8)
    assert parse_expr("2^8", table) == Expr.const(256)
    assert parse_expr("(x+y)^8", table) == (x + y) ** 8
    assert parse_expr("(x/2+y/3)^2", table) == (x / 2 + y / 3) ** 2  # 2 * (1 + 0 + 3) bits
    for text, pos, k, n in [("2^9", 1, 1, 9), ("2^(-9)", 1, 1, 9), ("(x+y)^9", 5, 2, 9),
                            ("(x/2+y/3)^3", 9, 2, 3), ("(3*x)^5", 5, 1, 5)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, table)
        assert str(err.value) == (f"the power of a {k}-term polynomial to {n} could have "
                                  f"coefficients of more than 8 bits (at position {pos})")


# Inputs whose error names the binding, the assumption or the flag that failed.
_NAMED_INPUT_ERRORS = {
    ("expr", "eval", "x", "x=abc"): "binding 'x': could not convert string to float: 'abc'",
    ("check", "star-ricci", "parallel", "nonhopf", "delta=0", "mu=1/0"):
        "assumption 'mu': division by zero expression (at position 1)",
    ("check", "ricci", "pseudo-parallel", "hopf", "--pseudo-l", "alpha+"):
        "--pseudo-l: unexpected token '' (at position 6)",
}


def test_bad_inputs_exit_nonzero(capsys, tmp_path):
    # configparser's messages for these two files span lines
    no_header = tmp_path / "no-header.cat"
    no_header.write_text("garbage without section\n")
    no_equals = tmp_path / "no-equals.cat"
    no_equals.write_text("[catalog]\nversion = 1\n[fam]\nspace = CP2\nno equals sign\n")
    no_family = tmp_path / "no-family.cat"
    no_family.write_text("[catalog]\nversion = 1\n")
    wide = tmp_path / "wide.cat"  # its sample window is too wide for the oracle's grid
    wide.write_text("[catalog]\nversion = 1\n[wide]\nspace = CH2\ndomain = -1e308, 1e308\n"
                    "alpha = 2\nlambda = 1\nnu = 1\n")
    assert main(["sweep", "cp2-b", "2.0", "3.0", "10", "parallel"]) == 2
    assert main(["sweep", "nosuch", "0.1", "0.2", "5", "parallel"]) == 2
    # argparse exits 2; the catalog flag belongs to prove and sweep only, and
    # no command has a tolerance flag
    for argv in (
        ["check", "star-ricci", "bogus", "hopf"],
        ["check", "star-ricci", "parallel", "hopf", "--catalog", "x"],
        ["expr", "eval", "x", "x=1", "--tol-oracle", "1e-3"],
        ["prove", "type-b", "--tol-oracle", "nan"],
        ["sweep", "cp2-b", "0.2", "0.3", "3", "parallel", "--tol-witness", "nan"],
        ["prove", "hopf", "--tol-witness", "inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    for argv in (
        ["check", "star-ricci", "parallel", "hopf", "foo=1"],
        ["check", "star-ricci", "parallel", "hopf", "foo"],
        ["expr", "eval", "x", "x"],
        ["expr", "eval", "x", "x=1", "y"],
        ["expr", "eval", "x", "x=1", "y=2"],
        ["expr", "eval", "x", "x=1", "x=2"],
        ["check", "ricci", "einstein", "hopf", "lambda=1", "lambda=2"],
        ["expr", "solve", "x"],
        ["expr", "eval", "cot(x)", "x=0"],
        ["expr", "eval", "exp(x)", "x=1000"],
        ["expr", "eval", "x", "x=nan"],
        ["expr", "eval", "x*y", "x=1e200", "y=1e200"],
        ["expr", "eval", "x*y - y*z", "x=1e200", "y=1e200", "z=1e200"],
        ["expr", "eval", "x", "x=1", "--out", str(tmp_path / "missing" / "x")],
        ["sweep", "cp2-b", "0.1", "0.2", "3", "parallel",
         "--catalog", str(tmp_path / "missing.cat")],
        *(["sweep", "cp2-a1", "0.2", "0.9", "3", "parallel", "--catalog", str(path)]
          for path in (no_header, no_equals, no_family, wide)),
        ["sweep", "cp2-a1", "0.9", "0.2", "10", "parallel"],    # r-min > r-max
        ["sweep", "cp2-a1", "0.2", "0.9", "1", "parallel"],     # fewer than 2 samples
        ["prove", "all", "--samples", "1"],
        ["prove", "all", "--samples", "1000000000000000000000"],  # past MAX_SAMPLES
        ["prove", "type-b", "--samples", "1000001"],
        ["sweep", "cp2-a1", "0.2", "0.9", "1000001", "parallel"],
        ["expr", "solve", "x+1", "y"],                          # y does not occur
        ["expr", "solve", "x*sin(x)+1", "x"],                   # x inside an applied atom
        ["expr", "solve", "sqrt(x)+1", "x"],
        # lambda = nu = cot(r) ~ 1e200: lambda*nu + c overflows, the xi-parallel rows are 0
        ["sweep", "cp2-a1", "1e-200", "2e-200", "2", "xi-parallel", "--format", "json"],
        ["sweep", "cp2-a1", "1e-200", "2e-200", "2", "xi-parallel"],
        *map(list, _NAMED_INPUT_ERRORS),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        if tuple(argv) in _NAMED_INPUT_ERRORS:  # the message names the input at fault
            assert captured.err == f"error: {_NAMED_INPUT_ERRORS[tuple(argv)]}\n"


def test_no_input_sets_a_tolerance(capsys):
    # at 4829 samples the witness, 3.223438e-07, is below WITNESS_TOL (ROADMAP
    # item 1); no flag lifts the verdict over it
    with pytest.raises(SystemExit) as exc:
        main(["prove", "all", "--samples", "4829", "--tol-witness", "1e-7"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --tol-witness 1e-7" in captured.err
    code, out = run(capsys, "prove", "all", "--samples", "4829")
    assert code == 1 and "status: verification FAILED" in out
    assert f"(> {catalog.WITNESS_TOL:g} required)" in out
    # a sweep counts its rows at or below the witness's threshold: S* vanishes
    # at r = atanh(1/2) on ch2-a1
    code, out = run(capsys, "sweep", "ch2-a1", "0.5493061443340548", "0.5493061443340548",
                    "2", "parallel", "--format", "json")
    assert code == 0 and json.loads(out)["payload"]["rows_below_witness_tol"] == 2
    for f in (proofs.verify_all, proofs.type_b_exclusion, catalog.parse_catalog,
              catalog.load_catalog, catalog.validate_family):
        assert not [p for p in inspect.signature(f).parameters if "tol" in p], f


def test_expr_syntax_error_names_the_offending_character(capsys):
    assert main(["expr", "eval", "a $", "a=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected character '$' (at position 2)\n"


@pytest.mark.parametrize("r_min, message", [
    # cot(1e-170)^2 overflows in the power, which raises
    ("1e-170", "semi-parallel rows cannot be evaluated on cp2-a1 at r = 1e-170: "
               "floating-point overflow"),
    # products of cot(1e-100) = 1e100 overflow to inf, which raises nothing
    ("1e-100", "4 of 27 semi-parallel rows are not finite on cp2-a1 at r = 1e-100"),
])
def test_a_sweep_whose_rows_overflow_names_the_kind_family_and_radius(capsys, r_min,
                                                                      message):
    for fmt in ("text", "json"):
        assert main(["sweep", "cp2-a1", r_min, "0.5", "3", "semi-parallel",
                     "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_prove_all_runs_each_piece_once(monkeypatch, capsys):
    # and a single target runs only its pieces, on the --space it names
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("nonhopf_contradiction", "hopf_branch", "quadratic_elimination",
             "quadratic_analysis", "type_b_exclusion", "sweep")
    for name in names:
        monkeypatch.setattr(proofs, name, counted(name, getattr(proofs, name)))
    # calls of each name per target, without and with --space; prove all
    # runs every piece on both spaces, and the space-independent
    # elimination serves both spaces
    expected = {
        "all": ((1, 1, 1, 2, 2, 6), (1, 1, 1, 2, 2, 6)),
        "nonhopf": ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
        "hopf": ((0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
        "quadratic": ((0, 0, 1, 2, 0, 0), (0, 0, 1, 1, 0, 0)),
        "type-b": ((0, 0, 0, 0, 2, 2), (0, 0, 0, 0, 1, 1)),
    }
    for target, counts in expected.items():
        for flags, want in zip(([], ["--space", "ch2"]), counts):
            calls.clear()
            code, _ = run(capsys, "prove", target, "--samples", "5", *flags)
            assert code == 0, (target, flags)
            assert tuple(calls[name] for name in names) == want, (target, flags)


def test_space_narrows_only_what_prove_all_prints(tmp_path, capsys):
    # ch2-b with ch2-a1p's curvatures passes the load oracle, but its
    # lambda*nu + c = tanh(r)^2 - 4 fails the CH2 type-B certificate
    text = resources.files("starricci.data").joinpath("families.cat").read_text("utf-8")
    start = text.index("[ch2-b]")
    section = text[start:].replace("alpha = 2*tanh(2*r)", "alpha = 2*coth(2*r)")
    path = tmp_path / "ch2-b-as-ch2-a1p.cat"
    path.write_text(text[:start] + section.replace("lambda = coth(r)", "lambda = tanh(r)"),
                    encoding="utf-8")
    argv = ["--space", "cp2", "--catalog", str(path)]
    code, out, err = _captured(capsys, ["prove", "all", *argv])
    lines = out.splitlines()
    assert (code, err, lines[1]) == (1, "", "status: verification FAILED")
    assert [line for line in lines if line.startswith("type-B")] == [
        "type-B exclusion (CP2, family cp2-b): lambda*nu + c = +3 at 100 radii "
        "(max deviation 0.000e+00); lambda*nu != -c certified"]
    code, out, err = _captured(capsys, ["prove", "type-b", *argv])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "status: type-B exclusion: lambda*nu != -c certified"
    code, out, _ = _captured(capsys, ["prove", "type-b", "--catalog", str(path)])
    assert code == 1 and "lambda*nu != -c FAILED" in out


@pytest.mark.parametrize("space", [None, "cp2", "ch2"])
def test_prove_all_payload_matches_single_targets(capsys, space):
    def payload(target):
        argv = ["prove", target, "--format", "json"]
        if space:
            argv += ["--space", space]
        code, out = run(capsys, *argv)
        assert code == 0
        return json.loads(out)["payload"]

    expected = {}
    for target in ("nonhopf", "hopf", "quadratic", "type-b"):
        expected.update(payload(target))
    expected["witness_min_residual"] = proofs.verify_all().witness_min_residual
    assert payload("all") == expected


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_proof_step_exits_one(flags):
    # with asserts stripped (-O) a failed step must still fail the proof
    script = ("import sys; from starricci import cli, proofs; "
              "proofs._single_symbol_power = lambda e: None; "
              "sys.exit(cli.main(['prove', 'nonhopf']))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "status: FAILED: step 1: " in proc.stdout


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(5):
            assert main(["expr", "eval", "x", "x=1"]) == 0
        assert main(["sweep", "ch2-a0", "0", "1", "2", "parallel"]) == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def _parsed(capsys, parse, argv):
    """(Namespace or exit code, stdout, stderr) of parse(argv)."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["--", "check", "ricci", "parallel", "hopf"],
    ["check", "-h"],
    ["check", "ricci", "parallel", "hopf"],
    ["check", "ricci", "parallel", "hopf", "delta=0", "--format", "json", "--out", "x"],
    ["check", "ricci", "bogus", "hopf"],
    ["check", "ricci", "parallel", "hopf", "--format", "xml"],
    ["check", "ricci", "parallel", "hopf", "--", "delta=0"],
    ["check", "ricci", "parallel", "--", "hopf", "-x=1"],
    ["check", "ricci", "pseudo-parallel", "hopf", "--pseudo", "alpha"],
    ["check", "ricci", "parallel", "hopf", "--version"],
    ["check", "ricci", "parallel"],
    ["sweep", "ch2-a0", "-1", "2", "3", "parallel"],
    ["sweep", "ch2-a0", "--", "-1", "2", "3", "parallel"],
    ["sweep", "ch2-a0", "0", "1", "3", "parallel", "extra", "--args"],
    ["sweep", "ch2-a0", "0", "1", "three", "parallel"],
    ["prove", "all", "--samples", "20", "--space", "cp2", "--catalog", "x"],
    ["prove", "everything"],
    ["expr", "eval", "x", "x=1"],
    ["expr", "solve", "x^2 - 2", "x", "--format", "json"],
    # values that begin with "-": argparse alone reads only -1 and -2.5 so
    ["expr", "eval", "-x", "x=2"],
    ["expr", "eval", "-1/2"],
    ["expr", "solve", "-x^2+1", "x"],
    ["check", "ricci", "pseudo-parallel", "hopf", "--pseudo-l", "-alpha"],
    ["sweep", "ch2-a0", "-1e3", "2", "3", "parallel"],
    ["sweep", "ch2-a0", "-2.5", "-1e-3", "3", "parallel"],
    ["sweep", "ch2-a0", "-inf", "2", "3", "parallel"],
    ["expr", "eval", "-h"],
    ["expr", "eval", "--help"],
    ["expr", "eval", "-half", "half=1"],
    ["expr", "eval", "x", "-h"],
    ["sweep", "ch2-a0", "-1", "2", "3", "parallel", "--bogus"],
    # left over by the intermixed parse too: the one-level parse's leftovers
    ["expr", "eval", "x", "--bogus", "x=1"],
    ["sweep", "ch2-a0", "0", "1", "3", "parallel", "--format", "json", "extra"],
])
def test_one_level_parse_equals_the_full_parser(capsys, argv):
    full = _parsed(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    one = _parsed(capsys, cli._parse_args, argv)
    assert one == full
    assert isinstance(full[0], int) or full[0].cmd == argv[0]


@pytest.mark.parametrize("argv, spelled", [
    (["expr", "eval", "-x", "x=2"], ["expr", "eval", "--", "-x", "x=2"]),
    (["expr", "eval", "-1/2"], ["expr", "eval", "--", "-1/2"]),
    (["expr", "solve", "-x^2+1", "x"], ["expr", "solve", "--", "-x^2+1", "x"]),
    (["check", "ricci", "pseudo-parallel", "hopf", "--pseudo-l", "-alpha"],
     ["check", "ricci", "pseudo-parallel", "hopf", "--pseudo-l=-alpha"]),
    (["sweep", "ch2-a0", "-1e3", "2", "3", "parallel"],
     ["sweep", "ch2-a0", "--", "-1e3", "2", "3", "parallel"]),
    (["sweep", "ch2-a0", "-2.5", "-1e-3", "3", "parallel"],
     ["sweep", "ch2-a0", "--", "-2.5", "-1e-3", "3", "parallel"]),
    # -h alone is help; a value that only begins with it is not
    (["expr", "eval", "-half", "half=1"], ["expr", "eval", "--", "-half", "half=1"]),
    (["expr", "eval", "-hx", "hx=2"], ["expr", "eval", "--", "-hx", "hx=2"]),
    (["expr", "eval", "-h*x", "h=3", "x=2"], ["expr", "eval", "--", "-h*x", "h=3", "x=2"]),
])
def test_a_value_may_begin_with_a_minus(capsys, argv, spelled):
    # each prints what its "--" or "=" spelling prints
    out = _parsed(capsys, main, argv)
    assert out == _parsed(capsys, main, spelled)
    assert out[0] == 0 and out[1] and out[2] == ""


@pytest.mark.parametrize("argv, spelled", [
    (["check", "ricci", "parallel", "nonhopf", "--format", "json", "delta=0"],
     ["check", "ricci", "parallel", "nonhopf", "delta=0", "--format", "json"]),
    (["check", "star-ricci", "parallel", "nonhopf", "delta=0", "--format", "json", "mu=0"],
     ["check", "star-ricci", "parallel", "nonhopf", "delta=0", "mu=0", "--format", "json"]),
    (["check", "star-ricci", "pseudo-parallel", "hopf", "--pseudo-l", "alpha", "lambda=1",
      "--format", "json", "nu=2"],
     ["check", "star-ricci", "pseudo-parallel", "hopf", "lambda=1", "nu=2", "--pseudo-l",
      "alpha", "--format", "json"]),
    (["expr", "eval", "x", "--format", "json", "x=1"],
     ["expr", "eval", "x", "x=1", "--format", "json"]),
    (["expr", "eval", "-half", "--format=json", "half=1"],
     ["expr", "eval", "-half", "half=1", "--format=json"]),
    (["expr", "solve", "x^2 - 2", "--format", "json", "x"],
     ["expr", "solve", "x^2 - 2", "x", "--format", "json"]),
])
def test_an_option_may_come_before_a_name_value_list(capsys, argv, spelled):
    # each prints what its options-last spelling prints
    out = _parsed(capsys, main, argv)
    assert out == _parsed(capsys, main, spelled)
    assert out[0] == 0 and out[1] and out[2] == ""


@pytest.mark.parametrize("argv", [["expr", "eval", "-h"], ["expr", "eval", "--help"],
                                  ["expr", "eval", "-half", "-h"], ["check", "-h"]])
def test_a_lone_dash_h_is_still_help(capsys, argv):
    code, out, err = _parsed(capsys, main, argv)
    assert code == 0 and out.startswith(f"usage: starricci {argv[0]} [-h]") and err == ""


# --help of the top-level parser and of check, as argparse wraps it at COLUMNS
_HELP = {
    (60, '-h'): (
        'usage: starricci [-h] [--version]\n'
        '                 {prove,check,sweep,expr} ...\n'
        '\n'
        'exact and numeric verification of *-Ricci parallelism\n'
        'conditions on real hypersurfaces of the complex projective\n'
        'and hyperbolic planes\n'
        '\n'
        'positional arguments:\n'
        '  {prove,check,sweep,expr}\n'
        '    prove               replay a proof piece\n'
        '    check               emit a symbolic condition report\n'
        '    sweep               numeric residual table over a\n'
        '                        radius grid\n'
        '    expr                exact expression utilities\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --version             show program's version number and\n"
        '                        exit\n'
    ),
    (60, 'check -h'): (
        'usage: starricci check [-h] [--pseudo-l EXPR]\n'
        '                       [--format {text,json}] [--out PATH]\n'
        '                       {star-ricci,ricci}\n'
        '                       {parallel,xi-parallel,d-parallel,semi-parallel,pseudo-parallel,einstein}\n'
        '                       {nonhopf,hopf} [name=value ...]\n'
        '\n'
        'positional arguments:\n'
        '  {star-ricci,ricci}\n'
        '  {parallel,xi-parallel,d-parallel,semi-parallel,pseudo-parallel,einstein}\n'
        '  {nonhopf,hopf}\n'
        '  name=value            substitutions applied to the\n'
        '                        report\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --pseudo-l EXPR       the function L for the pseudo-\n'
        '                        parallel condition (default 0); an\n'
        '                        error with any other condition\n'
        '  --format {text,json}\n'
        '  --out PATH\n'
    ),
    (100, '-h'): (
        'usage: starricci [-h] [--version] {prove,check,sweep,expr} ...\n'
        '\n'
        'exact and numeric verification of *-Ricci parallelism conditions on real hypersurfaces of the\n'
        'complex projective and hyperbolic planes\n'
        '\n'
        'positional arguments:\n'
        '  {prove,check,sweep,expr}\n'
        '    prove               replay a proof piece\n'
        '    check               emit a symbolic condition report\n'
        '    sweep               numeric residual table over a radius grid\n'
        '    expr                exact expression utilities\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --version             show program's version number and exit\n"
    ),
    (100, 'check -h'): (
        'usage: starricci check [-h] [--pseudo-l EXPR] [--format {text,json}] [--out PATH]\n'
        '                       {star-ricci,ricci}\n'
        '                       {parallel,xi-parallel,d-parallel,semi-parallel,pseudo-parallel,einstein}\n'
        '                       {nonhopf,hopf} [name=value ...]\n'
        '\n'
        'positional arguments:\n'
        '  {star-ricci,ricci}\n'
        '  {parallel,xi-parallel,d-parallel,semi-parallel,pseudo-parallel,einstein}\n'
        '  {nonhopf,hopf}\n'
        '  name=value            substitutions applied to the report\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --pseudo-l EXPR       the function L for the pseudo-parallel condition (default 0); an error\n'
        '                        with any other condition\n'
        '  --format {text,json}\n'
        '  --out PATH\n'
    ),
}


@pytest.mark.parametrize("columns, argv", list(_HELP))
def test_help_wraps_at_the_terminal_width(monkeypatch, capsys, columns, argv):
    monkeypatch.setenv("COLUMNS", str(columns))
    assert _parsed(capsys, main, argv.split()) == (0, _HELP[columns, argv], "")


@pytest.mark.parametrize("columns", [None, "0", "-5", "wide", "40", "200"])
def test_the_help_width_is_the_width_shutil_finds(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._HelpFormatter("starricci")._width == shutil.get_terminal_size().columns - 2


def test_a_radius_of_minus_inf_is_the_domain_error(capsys):
    assert _parsed(capsys, main, ["sweep", "ch2-a0", "-inf", "2", "3", "parallel"]) == (
        2, "", "error: sweep range [-inf, 2.0] must lie strictly inside the open domain "
               "(-inf, inf) of ch2-a0\n")


def test_a_command_parses_its_arguments_once(monkeypatch, capsys):
    calls = []
    original = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or original(self, *a, **k))
    # a plain line is read from the plain table; -x sends its line to argparse
    for argv, parsed in ((["check", "star-ricci", "parallel", "hopf"], []),
                         (["expr", "eval", "x", "x=1"], []),
                         (["expr", "eval", "-x", "x=2"], ["starricci expr"])):
        calls.clear()
        assert main(argv) == 0
        assert calls == parsed
    calls.clear()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert calls == ["starricci"]
    capsys.readouterr()


def _outcome(parse, argv):
    """(the Namespace's values by repr, or the exit code; stdout; stderr) of
    parse(argv).  repr makes a NaN radius equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    if isinstance(result, argparse.Namespace):
        result = {dest: repr(value) for dest, value in vars(result).items()}
    return result, out.getvalue(), err.getvalue()


# Values a plain line may hold: numbers, words and name=value words.
_VALUES = ["", "0", "0.5", "2", "3", "50", "nan", "inf", "x", "x+1", "alpha + mu", "x=1", "x=2",
           "delta=0", "mu=0", "mu=1/0", "ch2-a0", "cp2-a1", "bogus", "out.json", "PATH"]
# Tokens that send a line to argparse: values that begin with "-", "--", help,
# an option with its value after "=", abbreviations and an unknown option.
_DASHED = ["-inf", "-1", "-1e3", "-x", "-half", "--", "-h", "--help", "--version",
           "--format=json", "--form", "--pseudo", "--samp", "--cat", "--bogus"]


@st.composite
def _command_lines(draw):
    """A subcommand name and arguments near its grammar: each positional gets
    one of its choices (or of _VALUES) three times in four, else any token,
    and so does each drawn option, at a drawn place; at most one more token
    goes anywhere."""
    name = draw(st.sampled_from(sorted(cli._parser().commands)))
    command = cli._parser().commands[name]
    token = st.sampled_from(_VALUES + _DASHED)

    def value(action):
        return draw(st.sampled_from(list(action.choices or _VALUES))
                    if draw(st.integers(0, 3)) else token)

    argv, options = [], []
    for action in command._actions:
        if action.option_strings:
            options += [(o, action) for o in action.option_strings]
        elif action.nargs is None:
            argv.append(value(action))
        else:
            argv += [value(action) for _ in range(draw(st.integers(0, 2)))]
    for option, action in draw(st.lists(st.sampled_from(options), max_size=3)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = [option, value(action)]
    for extra in draw(st.lists(token, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return [name, *argv]


@settings(max_examples=500, deadline=None)
@given(_command_lines())
def test_the_plain_parse_equals_the_argparse_parse(argv):
    assert _outcome(cli._parse_args, argv) == _outcome(cli._argparse_args, argv)


@pytest.mark.parametrize("argv", [
    ["check", "ricci", "pseudo-parallel", "nonhopf", "--pseudo-l", "alpha + mu"],
    ["check", "star-ricci", "parallel", "nonhopf", "delta=0", "mu=0", "--format", "json"],
    ["check", "star-ricci", "parallel", "nonhopf", "--format", "json", "delta=0", "mu=0"],
    ["sweep", "cp2-a1", "0.2", "0.9", "800", "parallel", "--format", "json", "--catalog", "PATH"],
    ["sweep", "ch2-a0", "nan", "inf", "3", "parallel", "--out", "out.json"],
    ["prove", "all", "--samples", "50", "--space", "cp2", "--format", "json"],
    ["expr", "eval", "x+1", "x=2"],
    ["expr", "solve", "x^2 - 2", "--format", "json", "x"],
])
def test_a_plain_line_takes_no_argparse_parse(monkeypatch, argv):
    expected = _outcome(cli._argparse_args, argv)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda *a, **k: pytest.fail("parse_known_args called"))
    assert _outcome(cli._parse_args, argv) == expected
    assert isinstance(expected[0], dict)


@pytest.mark.parametrize("argv", [
    ["check", "star-ricci", "einstein", "hopf"],
    ["check", "star-ricci", "pseudo-parallel", "hopf", "--pseudo-l", "alpha"],
    ["check", "ricci", "einstein", "nonhopf", "--format", "json"],
])
def test_check_leaves_no_cyclic_garbage(capsys, argv):
    assert main(argv) == 0  # warm: contexts, tensors, memos
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(argv) == 0
            assert gc.collect() == 0
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()


def _fresh(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with a newly built parser
    and no catalog kept from an earlier load."""
    cli._parser.cache_clear()
    catalog.parse_catalog.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    path = tmp_path / "builtin.cat"
    path.write_text(format_catalog(builtin_catalog()), encoding="utf-8")
    argvs = [
        ["check", "star-ricci", "parallel", "nonhopf", "delta=0", "mu=0"],
        ["check", "star-ricci", "parallel", "nonhopf"],
        ["check", "star-ricci", "pseudo-parallel", "hopf", "--pseudo-l", "alpha"],
        ["check", "star-ricci", "pseudo-parallel", "hopf"],
        ["sweep", "ch2-b", "0.5", "1", "3", "parallel", "--format", "json"],
        ["sweep", "ch2-b", "0.5", "1", "3", "parallel"],
        ["check", "star-ricci", "bogus", "hopf"],
        ["sweep", "cp2-b", "0.2", "0.3", "1", "parallel"],
        ["expr", "eval", "x", "x=1", "x=2"],
        ["expr", "eval", "x", "x=1"],
        # the second load of the same file reuses the first one's catalog
        ["sweep", "ch2-a1", "0.5", "1", "3", "parallel", "--catalog", str(path)],
        ["sweep", "ch2-a1", "0.5", "1", "3", "parallel", "--catalog", str(path)],
    ]
    fresh = [_fresh(capsys, argv) for argv in argvs]
    cli._parser.cache_clear()
    catalog.parse_catalog.cache_clear()
    shared = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 0]


_ROW_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e16, 1e-7, 0.1, 3.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    # family ids with quotes, backslashes, non-ASCII text and the splice key
    st.lists(st.sampled_from(['"', "\\", "a-1", " ", "é", "∇", "\n", "\x00", '"rows": []']),
             max_size=6).map("".join),
    st.lists(st.tuples(_ROW_FLOATS, _ROW_FLOATS, _ROW_FLOATS), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3),
)
def test_row_writers_match_the_generic_writers(family, rows, below):
    payload = {"family": family, "space": "CP2", "condition": "parallel",
               "rows_below_witness_tol": below}
    report = cli.Report(f"sweep {family}", "ok", payload, 1, [])
    report.payload["rows"] = SweepResult("f", ConditionKind.PARALLEL, *zip(*rows))
    generic = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert report.emit("json") == generic
    # the row text before the template: one f-string per row
    text = cli._columns(cli._TEXT_ROW, "\n", tuple(zip(*rows))).split("\n")
    assert text == [f"{r:12.6f}  {m:14.6e}  {x:+14.9f}" for r, m, x in rows]


def _assert_row_writers_match(rows):
    """The json and text row writers against the oracles of
    test_row_writers_match_the_generic_writers: json.dumps and one f-string
    per row."""
    report = cli.Report("sweep f", "ok", {"family": "f", "rows_below_witness_tol": 0}, 1, [])
    report.payload["rows"] = SweepResult("f", ConditionKind.PARALLEL, *zip(*rows))
    assert report.emit("json") == json.dumps(report.to_json_dict(), indent=2,
                                             sort_keys=True) + "\n"
    text = cli._columns(cli._TEXT_ROW, "\n", tuple(zip(*rows))).split("\n")
    assert text == [f"{r:12.6f}  {m:14.6e}  {x:+14.9f}" for r, m, x in rows]


@pytest.mark.parametrize("rows", [
    # 0.0 and -0.0 mixed in a column: == but printed apart
    [(0.1, 0.0, 3.0), (0.2, -0.0, 3.0), (0.3, 0.0, 3.0)],
    [(-0.0, 1.0, 0.0), (0.0, 1.0, -0.0)],
    # an all-zero max column, and every column at -0.0
    [(0.1, 0.0, 2.5), (0.2, 0.0, -1.5), (0.3, 0.0, 3.0)],
    [(-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0)],
    # a single row: every column is constant
    [(0.5, 1e-3, -3.0)],
    # exactly one varying column, in each place
    [(0.1, 2.0, 3.0), (0.2, 2.0, 3.0), (0.3, 2.0, 3.0)],
    [(0.5, 2.0, 3.0), (0.5, 7.0, 3.0)],
    [(0.5, 2.0, 3.0), (0.5, 2.0, -3.0)],
    # the extremes of the float range, all constant
    [(1e16, 5e-324, -1.7976931348623157e308), (1e16, 5e-324, -1.7976931348623157e308)],
])
def test_row_writers_format_constant_columns_once(rows):
    _assert_row_writers_match(rows)


def test_sweep_over_one_radius_prints_constant_columns(capsys):
    # r_min == r_max: all three columns are constant
    result = catalog.sweep(builtin_catalog().get("cp2-a1"), 0.5, 0.5, 3,
                           ConditionKind.PARALLEL)
    rows = list(zip(result.radii, result.max_residuals, result.lam_nu_plus_c))
    assert len(set(rows)) == 1 and len(rows) == 3
    _assert_row_writers_match(rows)
    code, out = run(capsys, "sweep", "cp2-a1", "0.5", "0.5", "3", "parallel")
    assert code == 0
    assert out.splitlines()[-3:] == [f"{r:12.6f}  {m:14.6e}  {x:+14.9f}" for r, m, x in rows]
    code, out = run(capsys, "sweep", "cp2-a1", "0.5", "0.5", "3", "parallel",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["rows"] == [
        {"r": r, "max_residual": m, "lam_nu_plus_c": x} for r, m, x in rows]


@pytest.mark.parametrize("kind", list(ConditionKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family_id", builtin_catalog().ids())
def test_every_kernels_sweep_rows_match_the_oracles(monkeypatch, capsys, family_id, kind):
    # the writers on the rows of real kernels, constant columns included: no
    # xi-parallel residual, no ch2-a0 curvature and no type-B lambda*nu + c reads r
    r_min, r_max = builtin_catalog().get(family_id).sample_window()
    argv = ["sweep", family_id, repr(r_min), repr(r_max), "4", kind.value]
    reports, write = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda report, args: write(report, args)
                        or reports.append(report))
    code, out = run(capsys, *argv, "--format", "json")
    (report,) = reports
    assert code == 0 and report.payload["rows"].__class__ is SweepResult
    assert out == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    rows = report.payload["rows"].rows
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-len(rows):] == [f"{r:12.6f}  {m:14.6e}  {x:+14.9f}"
                                            for r, m, x in rows]


_JSON_SCALARS = st.one_of(
    st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\t", "a", " ", "é", "∇", "\U0001d49e"]),
            max_size=5),
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(st.sampled_from(['"', "\\", "\x00", "k", "é", "b"]),
                                max_size=3), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    # empty containers, nested lists, tuples and dicts, and every scalar kind
    out = []
    cli._json(value, "\n", out)
    assert "".join(out) == json.dumps(value, indent=2, sort_keys=True)


def _oracle(report, fmt):
    """A report rendered through the generic path: json.dumps of its dict, or
    its head and text lines."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    return "\n".join([f"# {report.command}", f"status: {report.status}",
                      *report.text_lines]) + "\n"


def test_printed_reports_equal_the_generic_rendering(monkeypatch, capsys):
    # every check tensor x condition x context and prove all, in both formats
    reports = []
    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda report, args: (reports.append(report),
                                                            write(report, args)))
    commands = [["check", tensor, kind.value, context]
                for tensor in ("star-ricci", "ricci") for kind in ConditionKind
                for context in ("nonhopf", "hopf")]
    # perfbench's check-symbolic --pseudo-l items, one L named in the command's
    # scope (foo), and the menu's assumption items, whose substituted entries
    # share equations
    commands += [["check", tensor, "pseudo-parallel", context, "--pseudo-l", pseudo_l]
                 for tensor, context, pseudo_l in (
                     ("star-ricci", "hopf", "alpha"), ("ricci", "hopf", "lambda*nu"),
                     ("star-ricci", "nonhopf", "beta"), ("ricci", "nonhopf", "alpha + mu"),
                     ("ricci", "nonhopf", "foo"))]
    commands += [["check", tensor, kind, "nonhopf", "delta=0", "mu=0"]
                 for tensor, kind in (("star-ricci", "parallel"), ("star-ricci", "d-parallel"),
                                      ("star-ricci", "semi-parallel"), ("ricci", "parallel"),
                                      ("ricci", "xi-parallel"))]
    commands += [["prove", "all", "--samples", "10"],
                 ["sweep", "cp2-a1", "0.2", "0.9", "3", "parallel"]]
    for argv in commands:
        for fmt in ("text", "json"):
            reports.clear()
            code, out = run(capsys, *argv, "--format", fmt)
            assert code == 0, argv
            (report,) = reports
            assert out == _oracle(report, fmt), (argv, fmt)
    assert len(commands) == 2 * 6 * 2 + 5 + 5 + 2


def _refuse_new_symbols(monkeypatch):
    def refuse(cls, name, *_args, **_kwargs):
        raise AssertionError(f"Symbol {name!r} constructed")

    monkeypatch.setattr(symbols.Symbol, "__new__", refuse)


def test_a_second_check_builds_no_derivative_symbol(monkeypatch, capsys):
    # the context's table minted each D(ei,f) with f, and memoizes each
    # monomial's derivative terms: a warm check constructs no Symbol at all
    first = run(capsys, "check", "ricci", "parallel", "nonhopf")
    _refuse_new_symbols(monkeypatch)
    assert run(capsys, "check", "ricci", "parallel", "nonhopf") == first


def test_a_second_prove_all_constructs_no_symbol(monkeypatch, capsys):
    # the derivatives bound to zero are looked up, not minted per replay
    first = run(capsys, "prove", "all")
    _refuse_new_symbols(monkeypatch)
    assert run(capsys, "prove", "all") == first


# Commands that define names: the --pseudo-l identifiers, the Einstein
# constant lambda_e and the pseudo-parallel function L of the cached reports.
_DEFINING_COMMANDS = [
    ["check", "star-ricci", "pseudo-parallel", "hopf", "--pseudo-l", "foo"],
    ["check", "star-ricci", "pseudo-parallel", "nonhopf", "--pseudo-l", "foo"],
    ["check", "ricci", "einstein", "hopf"],
    ["sweep", "cp2-a1", "0.2", "0.9", "3", "pseudo-parallel"],
    ["prove", "all"],
]
# Each fails in a fresh process: the name is not one of the context's.
_NAME_PROBES = [
    ["check", "ricci", "parallel", "hopf", "foo=1"],
    ["check", "ricci", "parallel", "nonhopf", "foo=1"],
    ["check", "ricci", "parallel", "hopf", "lambda_e=1"],
    ["check", "ricci", "parallel", "nonhopf", "lambda_e=1"],
    ["check", "ricci", "parallel", "hopf", "L=1"],
    ["check", "ricci", "parallel", "nonhopf", "delta=foo"],
]


def _in_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "starricci.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_names_a_command_defines_stay_in_that_command(monkeypatch, capsys):
    # the contexts are shared by every command of a process, but what one
    # command defines must not change what a later one accepts
    fresh = [_in_fresh_process(argv) for argv in _NAME_PROBES]
    assert [code for code, _, _ in fresh] == [2] * len(_NAME_PROBES)
    # an unknown name in an assumption's value is named with its assumption
    assert all(out == "" and err.count("\n") == 1
               and err.startswith(("error: unknown", "error: assumption 'delta': unknown"))
               for _, out, err in fresh)
    cited = []
    entry = proofs.covariant_derivative_entry

    def recorded(ctx, X, T, Y, P):
        cited.append((ctx.kind, X, Y, P))
        return entry(ctx, X, T, Y, P)

    monkeypatch.setattr(proofs, "covariant_derivative_entry", recorded)
    projections = []
    for argv in _DEFINING_COMMANDS + [["prove", "all"]]:
        cited.clear()
        assert main(argv) == 0
        capsys.readouterr()
        if argv[0] == "prove":
            projections.append(list(cited))
    # proof steps are not cached: the second prove all computes its
    # projections again, exactly the cited ones
    E1, E2, E3 = frames.FrameIndex
    assert projections == [[("non-hopf", E3, E3, E3), ("non-hopf", E2, E3, E3),
                            ("non-hopf", E3, E2, E3), ("hopf", E1, E3, E2),
                            ("hopf", E2, E3, E1)]] * 2
    for argv, expected in zip(_NAME_PROBES, fresh):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, argv
