"""Exact verification engine for the *-Ricci tensor geometry of
3-dimensional real hypersurfaces in the complex projective and hyperbolic
planes.

The names below are the package's public interface.  Each is looked up in
its submodule on access (PEP 562), so ``import starricci`` loads no layer,
and a process loads only the layers it uses.  The package binds none of
them: every access reads the submodule's current attribute.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_LAYERS = {
    "symbols": ("Symbol", "SymbolTable", "SymbolError"),
    "polynomial": ("Polynomial", "poly_gcd"),
    "rational": ("Expr", "ExprError", "DivisionByZeroExpr", "UnboundSymbolError",
                 "NearZeroDenominator", "sign_normalized"),
    "parsing": ("parse_expr", "ExprSyntaxError", "UnknownIdentifierError"),
    "quadratic": ("QuadraticRoot", "QuadraticSolution", "QuadraticError",
                  "InconsistentEquationError", "solve_quadratic"),
    "frames": ("FrameIndex", "FRAME_INDICES", "VectorField", "Tensor11", "ConnectionTable",
               "FrameContext", "build_nonhopf_context", "build_hopf_context",
               "covariant_derivative_vf", "covariant_derivative_entry",
               "covariant_derivative_t11", "curvature", "curvature_operator", "ricci",
               "star_ricci_closed", "star_ricci_trace", "codazzi_residual", "eta"),
    "conditions": ("ConditionKind", "ConditionReport", "ReportEntry", "parallel_equations",
                   "xi_parallel_equations", "d_parallel_equations",
                   "semi_parallel_equations", "pseudo_parallel_equations",
                   "einstein_equations"),
    "catalog": ("ModelSpace", "CP2", "CH2", "HypersurfaceFamily", "Catalog", "CatalogError",
                "DomainError", "hopf_relation_residual", "builtin_catalog",
                "builtin_families", "load_catalog", "parse_catalog", "format_catalog",
                "validate_family", "evaluate_condition", "sweep", "SweepResult", "SweepRow",
                "ConditionEvaluation"),
    "proofs": ("ProofError", "IllegalCancellationError", "NonzeroTracker", "ProofStep",
               "ProofTrace", "nonhopf_contradiction", "hopf_branch", "quadratic_elimination",
               "QuadraticElimination", "quadratic_analysis", "QuadraticAnalysis",
               "type_b_exclusion", "TypeBReport", "verify_all", "VerificationSummary"),
}
_SOURCE = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    layer = _SOURCE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_SOURCE})
