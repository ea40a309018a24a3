"""Exact verification engine for the *-Ricci tensor geometry of
3-dimensional real hypersurfaces in the complex projective and hyperbolic
planes."""

from __future__ import annotations

__version__ = "0.1.0"

from .symbols import Symbol, SymbolTable, SymbolError
from .polynomial import Polynomial, poly_gcd
from .rational import (
    Expr,
    ExprError,
    DivisionByZeroExpr,
    UnboundSymbolError,
    NearZeroDenominator,
    sign_normalized,
)
from .parsing import parse_expr, ExprSyntaxError, UnknownIdentifierError
from .quadratic import (
    QuadraticRoot,
    QuadraticSolution,
    QuadraticError,
    InconsistentEquationError,
    solve_quadratic,
)
from .frames import (
    FrameIndex,
    FRAME_INDICES,
    VectorField,
    Tensor11,
    ConnectionTable,
    FrameContext,
    build_nonhopf_context,
    build_hopf_context,
    covariant_derivative_vf,
    covariant_derivative_t11,
    curvature,
    curvature_operator,
    ricci,
    star_ricci_closed,
    star_ricci_trace,
    codazzi_residual,
    eta,
)
from .conditions import (
    ConditionKind,
    ConditionReport,
    ReportEntry,
    parallel_equations,
    xi_parallel_equations,
    d_parallel_equations,
    semi_parallel_equations,
    pseudo_parallel_equations,
    einstein_equations,
)
from .catalog import (
    ModelSpace,
    CP2,
    CH2,
    HypersurfaceFamily,
    Catalog,
    CatalogError,
    DomainError,
    hopf_relation_residual,
    builtin_catalog,
    builtin_families,
    load_catalog,
    parse_catalog,
    format_catalog,
    validate_family,
    evaluate_condition,
    sweep,
    SweepResult,
    SweepRow,
    ConditionEvaluation,
)
from .proofs import (
    ProofError,
    IllegalCancellationError,
    NonzeroTracker,
    ProofStep,
    ProofTrace,
    nonhopf_contradiction,
    hopf_branch,
    quadratic_analysis,
    QuadraticAnalysis,
    type_b_exclusion,
    TypeBReport,
    verify_all,
    VerificationSummary,
)
