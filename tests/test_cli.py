import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starricci import cli, conditions, frames, proofs
from starricci.cli import main
from starricci.parsing import parse_expr
from starricci.polynomial import Polynomial
from starricci.rational import Expr


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
    assert len(calls) == 1


def test_check_pseudo_parallel_with_l(capsys):
    code, out = run(capsys, "check", "star-ricci", "pseudo-parallel", "hopf",
                    "--pseudo-l", "alpha")
    assert code == 0
    assert "27 equations" in out


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
        assert len(report.payload["rows"]) == 10
    else:
        assert "rows" not in report.payload
        _family, _heading, rows = report.text_lines  # the row block is one item
        assert len(rows.split("\n")) == 10
    assert report.payload["rows_below_witness_tol"] == 0


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
    # each format builds only what it prints: one to_text per report entry
    rendered = []
    to_text = Expr.to_text

    def counted(self):
        rendered.append(self)
        return to_text(self)

    monkeypatch.setattr(Expr, "to_text", counted)
    code, out = run(capsys, "check", "star-ricci", "parallel", "nonhopf", "--format", fmt)
    assert code == 0
    if fmt == "json":
        entries = len(json.loads(out)["payload"]["entries"])
    else:
        entries = sum(" : " in line for line in out.splitlines())
    assert entries > 0 and len(rendered) == entries


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


def test_bad_inputs_exit_nonzero(capsys, tmp_path):
    assert main(["sweep", "cp2-b", "2.0", "3.0", "10", "parallel"]) == 2
    assert main(["sweep", "nosuch", "0.1", "0.2", "5", "parallel"]) == 2
    # argparse exits 2; the catalog and tolerance flags belong to prove and sweep only
    for argv in (
        ["check", "star-ricci", "bogus", "hopf"],
        ["check", "star-ricci", "parallel", "hopf", "--catalog", "x"],
        ["expr", "eval", "x", "x=1", "--tol-oracle", "1e-3"],
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
        ["prove", "type-b", "--tol-oracle", "nan"],
        ["sweep", "cp2-b", "0.2", "0.3", "3", "parallel", "--tol-witness", "nan"],
        ["prove", "hopf", "--tol-witness", "inf"],
        # lambda = nu = cot(r) ~ 1e200: lambda*nu + c overflows, the xi-parallel rows are 0
        ["sweep", "cp2-a1", "1e-200", "2e-200", "2", "xi-parallel", "--format", "json"],
        ["sweep", "cp2-a1", "1e-200", "2e-200", "2", "xi-parallel"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_expr_syntax_error_names_the_offending_character(capsys):
    assert main(["expr", "eval", "a $", "a=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected character '$' (at position 2)\n"


def test_prove_all_runs_each_piece_once(monkeypatch, capsys):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    pieces = ("nonhopf_contradiction", "hopf_branch", "quadratic_analysis",
              "type_b_exclusion")
    for name in (*pieces, "quadratic_elimination"):
        wrapper = counted(name, getattr(proofs, name))
        for module in (proofs, cli):
            monkeypatch.setattr(module, name, wrapper)
    code, _ = run(capsys, "prove", "all", "--samples", "5")
    assert code == 0
    assert [calls[name] for name in pieces] == [1, 1, 2, 2]
    # the space-independent elimination serves both spaces
    assert calls["quadratic_elimination"] == 1
    calls.clear()
    code, _ = run(capsys, "prove", "quadratic")
    assert code == 0
    assert (calls["quadratic_elimination"], calls["quadratic_analysis"]) == (1, 2)


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


def _fresh(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with a newly built parser."""
    cli._parser.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_consecutive_calls_share_no_state(capsys):
    argvs = [
        ["check", "star-ricci", "parallel", "nonhopf", "delta=0", "mu=0"],
        ["check", "star-ricci", "parallel", "nonhopf"],
        ["check", "star-ricci", "pseudo-parallel", "hopf", "--pseudo-l", "alpha"],
        ["check", "star-ricci", "pseudo-parallel", "hopf"],
        ["sweep", "ch2-b", "0.5", "1", "3", "parallel", "--format", "json",
         "--tol-witness", "10"],
        ["sweep", "ch2-b", "0.5", "1", "3", "parallel"],
        ["check", "star-ricci", "bogus", "hopf"],
        ["sweep", "cp2-b", "0.2", "0.3", "3", "parallel", "--tol-witness", "nan"],
        ["expr", "eval", "x", "x=1", "x=2"],
        ["expr", "eval", "x", "x=1"],
    ]
    fresh = [_fresh(capsys, argv) for argv in argvs]
    cli._parser.cache_clear()
    shared = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 2, 2, 0]


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
    report.payload["rows"] = cli.SweepRows(
        {"r": r, "max_residual": m, "lam_nu_plus_c": x} for r, m, x in rows)
    generic = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert report.emit("json") == generic
    # the row text before the template: one f-string per row
    text = cli._rows(cli._TEXT_ROW, "\n", rows).split("\n")
    assert text == [f"{r:12.6f}  {m:14.6e}  {x:+14.9f}" for r, m, x in rows]


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
    assert all(out == "" and err.startswith("error: unknown") and err.count("\n") == 1
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
