import os
import subprocess
import sys
from pathlib import Path

import pytest

import starricci
from starricci import catalog, conditions, frames, parsing, polynomial, proofs
from starricci import quadratic, rational, symbols
from starricci.catalog import builtin_catalog
from starricci.conditions import parallel_equations
from starricci.frames import build_hopf_context, star_ricci_closed, with_shape_operator

SRC = Path(__file__).resolve().parent.parent / "src"

# The names `starricci` exports, by the module that defines them.
EXPORTS = {
    symbols: "Symbol SymbolTable SymbolError",
    polynomial: "Polynomial poly_gcd",
    rational: "Expr ExprError DivisionByZeroExpr UnboundSymbolError NearZeroDenominator "
              "sign_normalized",
    parsing: "parse_expr ExprSyntaxError UnknownIdentifierError",
    quadratic: "QuadraticRoot QuadraticSolution QuadraticError InconsistentEquationError "
               "solve_quadratic",
    frames: "FrameIndex FRAME_INDICES VectorField Tensor11 ConnectionTable FrameContext "
            "build_nonhopf_context build_hopf_context covariant_derivative_vf "
            "covariant_derivative_entry covariant_derivative_t11 curvature curvature_operator "
            "ricci star_ricci_closed star_ricci_trace codazzi_residual eta",
    conditions: "ConditionKind ConditionReport ReportEntry parallel_equations "
                "xi_parallel_equations d_parallel_equations semi_parallel_equations "
                "pseudo_parallel_equations einstein_equations",
    catalog: "ModelSpace CP2 CH2 HypersurfaceFamily Catalog CatalogError DomainError "
             "hopf_relation_residual builtin_catalog builtin_families load_catalog "
             "parse_catalog format_catalog validate_family evaluate_condition sweep "
             "SweepResult SweepRow ConditionEvaluation",
    proofs: "ProofError IllegalCancellationError NonzeroTracker ProofStep ProofTrace "
            "nonhopf_contradiction hopf_branch quadratic_elimination QuadraticElimination "
            "quadratic_analysis QuadraticAnalysis type_b_exclusion TypeBReport verify_all "
            "VerificationSummary",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_exported_name_is_its_modules_object(module, name):
    assert getattr(starricci, name) is getattr(module, name)
    assert name in dir(starricci) and name in starricci.__all__


def test_the_namespace_has_exactly_the_exported_names():
    assert sorted(starricci.__all__) == sorted(name for _, name in NAMES)
    namespace: dict = {}
    exec("from starricci import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(starricci.__all__)
    assert all(namespace[name] is getattr(module, name) for module, name in NAMES)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        starricci.no_such_name  # noqa: B018


def test_the_package_binds_no_exported_name(monkeypatch):
    # each access reads the submodule, so a patched function is seen there
    # and nothing of it is left in the package once the patch is undone
    original = frames.ricci
    monkeypatch.setattr(frames, "ricci", lambda ctx: None)
    assert starricci.ricci is frames.ricci is not original
    monkeypatch.undo()
    assert starricci.ricci is original
    assert "ricci" not in vars(starricci)


def _records():
    ctx = build_hopf_context()
    report = parallel_equations(ctx, star_ricci_closed(ctx))
    return [
        (with_shape_operator(ctx, ctx.A), ("kind", "A", "table", "_derived")),
        (builtin_catalog().families[0], ("alpha", "domain", "oracle")),
        (builtin_catalog(), ("version", "families")),
        (report, ("kind", "entries")),
        (report.entries[0], ("equation", "x")),
    ]


def test_shared_records_reject_assignment():
    for record, fields in _records():
        for field in (*fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


_IMPORT_SET = """
import contextlib, io, sys
from starricci import cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0, argv
print(" ".join(sorted(m for m in ("starricci.proofs", "starricci.quadratic", "dataclasses")
                      if m in sys.modules)))
"""


def _loaded_after(*argvs: str) -> list:
    """The proof, quadratic and dataclasses modules loaded in a fresh process
    (without the site module) that runs each argv through cli.main."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_SET, *argvs],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_command_loads_only_the_layers_it_runs():
    assert _loaded_after("check star-ricci parallel hopf",
                         "sweep cp2-a1 0.2 0.9 5 parallel",
                         "expr eval x+1 x=2") == []
    assert "starricci.proofs" in _loaded_after("prove all --samples 5")
    assert "dataclasses" not in _loaded_after("prove all --samples 5",
                                              "expr solve x^2-2 x")
