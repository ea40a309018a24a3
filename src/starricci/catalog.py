"""Numeric catalog of Hopf hypersurface families and condition sweeps.

The standard one-parameter families in the projective and hyperbolic planes
ship as a versioned plain-text data file (see data/families.cat); users may
supply their own catalog file in the same format.  Loading validates every
family against the principal-curvature relation

    lambda * nu = (alpha / 2) * (lambda + nu) + c / 4

at 100 sampled radii; any failure aborts the load.  These homogeneous models
have constant principal curvatures along the hypersurface, so numeric
condition evaluation binds every formal derivative symbol, the unconstrained
connection coefficients h1..h3, the pseudo-parallel function L and the
Einstein constant lambda_e to zero (ZERO_DEFAULT); extra_bindings may set
these and no other names.

All numeric evaluation on families is compiled: each family gets one
function of r returning (alpha, lambda, nu), and each cached condition report
one function returning all of its rows (rational.compile_float), with the
same float values as Expr.eval.  A non-finite binding, curvature or row is a
CatalogError, never a residual.

Of note on ch2-a1: c + lambda*nu = coth(r)^2 - 4 crosses zero at
r = atanh(1/2), where the *-Ricci tensor of the geodesic sphere vanishes
identically and every parallelism residual with it.  Sweep grids report
whatever they find; nothing is special-cased.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Callable, Mapping, Optional

from .conditions import (
    EINSTEIN_SYMBOL,
    ConditionKind,
    ConditionReport,
    einstein_equations,
    d_parallel_equations,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    xi_parallel_equations,
)
from .frames import HOPF_FUNCTIONS, build_hopf_context, star_ricci_closed
from .parsing import parse_expr
from .rational import Expr, compile_float
from .symbols import DIRECTIONS, FUNCTION, Symbol, SymbolTable, derivative_symbol

DEFAULT_ORACLE_TOL = 1e-9
DEFAULT_WITNESS_TOL = 1e-6
ORACLE_SAMPLES = 100


class CatalogError(ValueError):
    pass


class DomainError(CatalogError):
    pass


@dataclass(frozen=True)
class ModelSpace:
    name: str
    c: int


CP2 = ModelSpace("CP2", 4)
CH2 = ModelSpace("CH2", -4)
SPACES = {"CP2": CP2, "CH2": CH2}


def hopf_relation_residual(alpha: float, lam: float, nu: float, c: float) -> float:
    """lambda*nu - (alpha/2)*(lambda+nu) - c/4; zero on genuine Hopf data."""
    return lam * nu - (alpha / 2.0) * (lam + nu) - c / 4.0


@dataclass(frozen=True)
class HypersurfaceFamily:
    family_id: str
    space: ModelSpace
    domain: tuple  # (lo, hi) open interval, ends may be +-inf
    alpha: Expr
    lam: Expr
    nu: Expr
    description: str = ""
    # (r, pi) -> (alpha, lambda, nu), compiled once per family
    curvature_fn: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fn = compile_float((self.alpha, self.lam, self.nu), ("r", "pi"))
        object.__setattr__(self, "curvature_fn", fn)

    def contains(self, r: float) -> bool:
        lo, hi = self.domain
        return lo < r < hi

    def curvatures(self, r: float) -> tuple[float, float, float]:
        if not self.contains(r):
            raise DomainError(
                f"r = {r} outside the open domain ({self.domain[0]}, {self.domain[1]}) "
                f"of family {self.family_id}"
            )
        values = self.curvature_fn(r, math.pi)
        a, l, n = values
        if not (math.isfinite(a) and math.isfinite(l) and math.isfinite(n)):
            raise CatalogError(
                f"family {self.family_id} has non-finite curvatures {values!r} at r = {r}"
            )
        return values

    def hopf_residual(self, r: float) -> float:
        a, l, n = self.curvatures(r)
        return hopf_relation_residual(a, l, n, float(self.space.c))

    def sample_window(self) -> tuple[float, float]:
        """Deterministic compact subinterval used for validation sweeps:
        1% margins for bounded domains, (lo+0.05, lo+5) for unbounded ones."""
        lo, hi = self.domain
        if math.isfinite(lo) and math.isfinite(hi):
            m = (hi - lo) / 100.0
            return (lo + m, hi - m)
        base = lo if math.isfinite(lo) else 0.0
        return (base + 0.05, base + 5.0)


def radius_grid(lo: float, hi: float, samples: int) -> list:
    """`samples` uniformly spaced radii from lo to hi, both ends included."""
    if samples < 2:
        raise CatalogError("a radius grid needs at least 2 samples")
    return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


@dataclass(frozen=True)
class Catalog:
    version: int
    families: tuple

    def get(self, family_id: str) -> HypersurfaceFamily:
        for fam in self.families:
            if fam.family_id == family_id:
                return fam
        known = ", ".join(f.family_id for f in self.families)
        raise CatalogError(f"no family {family_id!r} in catalog (known: {known})")

    def ids(self) -> list[str]:
        return [f.family_id for f in self.families]


# -- catalog file format -----------------------------------------------------

def _parse_endpoint(text: str, table: SymbolTable) -> float:
    s = text.strip()
    if s in ("inf", "+inf"):
        return math.inf
    if s == "-inf":
        return -math.inf
    try:
        return float(s)  # plain real endpoints, e.g. 0.7853981633974483
    except ValueError:
        return parse_expr(s, table).eval({"pi": math.pi})


def parse_catalog(text: str, *, oracle_tol: float = DEFAULT_ORACLE_TOL) -> Catalog:
    """Parse and validate a catalog file; every family must pass the
    principal-curvature oracle or the whole load aborts."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise CatalogError(f"malformed catalog file: {exc}") from exc
    if "catalog" not in cp:
        raise CatalogError("missing [catalog] section with a version")
    version = cp.getint("catalog", "version")
    if version != 1:
        raise CatalogError(f"unsupported catalog version {version}")
    families = []
    for section in cp.sections():
        if section == "catalog":
            continue
        sec = cp[section]
        try:
            space = SPACES[sec["space"].strip()]
            table = SymbolTable()
            table.constant("r")
            table.constant("pi")
            lo_s, hi_s = sec["domain"].split(",")
            domain = (_parse_endpoint(lo_s, table), _parse_endpoint(hi_s, table))
            fam = HypersurfaceFamily(
                family_id=section,
                space=space,
                domain=domain,
                alpha=parse_expr(sec["alpha"], table),
                lam=parse_expr(sec["lambda"], table),
                nu=parse_expr(sec["nu"], table),
                description=sec.get("description", "").strip(),
            )
        except (KeyError, ValueError) as exc:
            raise CatalogError(f"family {section!r}: {exc}") from exc
        if domain[0] >= domain[1]:
            raise CatalogError(f"family {section!r}: empty domain {domain}")
        validate_family(fam, tol=oracle_tol)
        families.append(fam)
    if not families:
        raise CatalogError("catalog defines no families")
    return Catalog(version, tuple(families))


def format_catalog(catalog: Catalog) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp["catalog"] = {"version": str(catalog.version)}
    for fam in catalog.families:
        lo, hi = fam.domain
        fmt = lambda v: "inf" if v == math.inf else ("-inf" if v == -math.inf else repr(v))
        cp[fam.family_id] = {
            "space": fam.space.name,
            "domain": f"{fmt(lo)}, {fmt(hi)}",
            "alpha": fam.alpha.to_text(),
            "lambda": fam.lam.to_text(),
            "nu": fam.nu.to_text(),
            "description": fam.description,
        }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_catalog(path, *, oracle_tol: float = DEFAULT_ORACLE_TOL) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_catalog(fh.read(), oracle_tol=oracle_tol)


def validate_family(fam: HypersurfaceFamily, *, tol: float = DEFAULT_ORACLE_TOL) -> None:
    for r in radius_grid(*fam.sample_window(), ORACLE_SAMPLES):
        res = fam.hopf_residual(r)
        if not abs(res) < tol:
            raise CatalogError(
                f"family {fam.family_id!r} fails the principal-curvature relation "
                f"at r = {r}: residual {res!r}"
            )


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    text = resources.files("starricci.data").joinpath("families.cat").read_text("utf-8")
    return parse_catalog(text)


def builtin_families() -> list:
    return list(builtin_catalog().families)


# -- numeric condition evaluation ---------------------------------------------

# The pseudo-parallel function of the PSEUDO_PARALLEL report.
_PSEUDO_PARALLEL_FUNCTION = "L"

# Symbols of the Hopf condition reports that no family fixes; numeric
# evaluation binds them to zero unless extra_bindings sets them.
ZERO_DEFAULT = (
    (_PSEUDO_PARALLEL_FUNCTION, EINSTEIN_SYMBOL)
    + HOPF_FUNCTIONS
    + tuple(
        derivative_symbol(Symbol(h, FUNCTION), d).name
        for h in HOPF_FUNCTIONS
        for d in DIRECTIONS
    )
)
# The parameters of every compiled report, in call order.
REPORT_PARAMS = ("alpha", "lambda", "nu", "c") + ZERO_DEFAULT
_ZEROS = (0.0,) * len(ZERO_DEFAULT)


@dataclass(frozen=True)
class _CompiledReport:
    report: ConditionReport
    labels: tuple        # one per entry, in report order
    evaluate: Callable   # (*REPORT_PARAMS values) -> tuple of row values


@lru_cache(maxsize=None)
def _hopf_report(kind: ConditionKind) -> _CompiledReport:
    """Symbolic condition report on the *-Ricci tensor over the generic Hopf
    context (c symbolic), shared by both model spaces, with its compiled
    row evaluator."""
    ctx = build_hopf_context()
    sstar = star_ricci_closed(ctx)
    if kind is ConditionKind.PARALLEL:
        report = parallel_equations(ctx, sstar, "star-ricci")
    elif kind is ConditionKind.XI_PARALLEL:
        report = xi_parallel_equations(ctx, sstar, "star-ricci")
    elif kind is ConditionKind.D_PARALLEL:
        report = d_parallel_equations(ctx, sstar, "star-ricci")
    elif kind is ConditionKind.SEMI_PARALLEL:
        report = semi_parallel_equations(ctx, sstar, "star-ricci")
    elif kind is ConditionKind.PSEUDO_PARALLEL:
        L = Expr.from_symbol(ctx.table.constant(_PSEUDO_PARALLEL_FUNCTION))
        report = pseudo_parallel_equations(ctx, sstar, L, "star-ricci")
    elif kind is ConditionKind.EINSTEIN:
        report = einstein_equations(ctx)
    else:
        raise ValueError(f"unhandled condition kind {kind}")
    return _CompiledReport(
        report,
        tuple(e.label() for e in report.entries),
        compile_float(report.equations(), REPORT_PARAMS),
    )


def _report_arguments(a, l, n, c, extra_bindings: Mapping[str, float]) -> list:
    args = [a, l, n, c, *_ZEROS]
    for name, value in extra_bindings.items():
        if name not in REPORT_PARAMS:
            raise CatalogError(
                f"unknown binding {name!r} (known: {', '.join(REPORT_PARAMS)})"
            )
        value = float(value)
        if not math.isfinite(value):
            raise CatalogError(f"binding {name} = {value!r} is not finite")
        args[REPORT_PARAMS.index(name)] = value
    return args


@dataclass(frozen=True)
class ConditionEvaluation:
    family_id: str
    r: float
    kind: ConditionKind
    curvatures: tuple          # (alpha, lambda, nu)
    lam_nu_plus_c: float
    labels: tuple              # entry labels, in report order
    values: tuple              # row values, in report order
    max_abs_residual: float

    @property
    def rows(self) -> tuple:
        """((label, value), ...) in report order."""
        return tuple(zip(self.labels, self.values))


def evaluate_condition(
    fam: HypersurfaceFamily,
    r: float,
    kind: ConditionKind,
    *,
    extra_bindings: Optional[Mapping[str, float]] = None,
) -> ConditionEvaluation:
    """Evaluate a condition report on the *-Ricci tensor at radius r.

    The names in ZERO_DEFAULT (formal derivative symbols, the free connection
    coefficients h1..h3, the pseudo-parallel function L and the Einstein
    constant lambda_e) are bound to zero.  extra_bindings overrides any name
    in REPORT_PARAMS; another name, or a non-finite value, raises
    CatalogError, and so does a non-finite row.
    """
    a, l, n = fam.curvatures(r)
    compiled = _hopf_report(kind)
    c = float(fam.space.c)
    values = compiled.evaluate(*_report_arguments(a, l, n, c, extra_bindings or {}))
    if not all(map(math.isfinite, values)):
        bad = sum(1 for v in values if not math.isfinite(v))
        raise CatalogError(
            f"{bad} of {len(values)} {kind.value} rows are not finite on "
            f"{fam.family_id} at r = {r}"
        )
    return ConditionEvaluation(
        family_id=fam.family_id,
        r=r,
        kind=kind,
        curvatures=(a, l, n),
        lam_nu_plus_c=l * n + c,
        labels=compiled.labels,
        values=values,
        max_abs_residual=max(map(abs, values), default=0.0),
    )


@dataclass(frozen=True)
class SweepRow:
    r: float
    max_residual: float
    lam_nu_plus_c: float


@dataclass(frozen=True)
class SweepResult:
    family_id: str
    kind: ConditionKind
    rows: tuple  # SweepRow, ordered by r


def sweep(
    fam: HypersurfaceFamily,
    r_min: float,
    r_max: float,
    samples: int,
    kind: ConditionKind,
    *,
    extra_bindings: Optional[Mapping[str, float]] = None,
) -> SweepResult:
    """Uniform-grid condition evaluation over [r_min, r_max]."""
    if r_min > r_max:
        raise CatalogError("r-min must not exceed r-max")
    if not (fam.contains(r_min) and fam.contains(r_max)):
        lo, hi = fam.domain
        raise DomainError(
            f"sweep range [{r_min}, {r_max}] must lie strictly inside the open domain "
            f"({lo}, {hi}) of {fam.family_id}"
        )
    rows = []
    for r in radius_grid(r_min, r_max, samples):
        ev = evaluate_condition(fam, r, kind, extra_bindings=extra_bindings)
        rows.append(SweepRow(r, ev.max_abs_residual, ev.lam_nu_plus_c))
    return SweepResult(fam.family_id, kind, tuple(rows))
