"""Numeric catalog of Hopf hypersurface families and condition sweeps.

The standard one-parameter families in the projective and hyperbolic planes
ship as a versioned plain-text data file (see data/families.cat); users may
supply their own catalog file in the same format.  Loading validates every
family against the principal-curvature relation

    lambda * nu = (alpha / 2) * (lambda + nu) + c / 4

at 100 sampled radii; any failure aborts the load.  A load validates once
per distinct text and tolerance: parse_catalog shares the immutable Catalog
it returns, as builtin_catalog() does, and keeps no failed load.  These
homogeneous models have constant principal curvatures along the hypersurface,
so numeric condition evaluation binds every formal derivative symbol, the
unconstrained connection coefficients h1..h3, the pseudo-parallel function L
and the Einstein constant lambda_e to zero (ZERO_DEFAULT); extra_bindings may
set these and no other names.

A single radius is evaluated by Expr.eval: fam.curvatures(r) evaluates the
family's alpha, lambda and nu, and a condition report's rows are evaluated
in report order.  A radius loop runs as column kernels
(rational.compile_columns), which return Expr.eval's float values bit for
bit.  Each family has a column kernel from radii to its (alpha, lambda, nu)
columns.  Each cached condition report has a column kernel from curvature
columns to one column of max|row|: the constant rows fold into one max|row|
at compile time, and the kernel keeps a running max of it and each
distinct non-constant |row|.  A non-finite binding, curvature, row or
lambda*nu + c is a CatalogError, never a residual.

Every radius loop -- sweep (and so the witness of proofs.verify_all),
lam_nu_plus_c_column (proofs.type_b_exclusion) and validate_family -- is
one call per kernel, plus C-level map()s for lambda*nu + c and the
principal-curvature residuals, with no Python call per radius.
A kernel stops before the first radius at which the per-radius evaluation
would fail; the loop then replays that radius through the per-radius
evaluation (_row_evaluator's at(r), fam.curvatures), which raises that
radius's error.  So the values and the errors are those of
evaluate_condition at each radius in turn.  A sweep keeps its results as
three columns (radii, max residuals, lambda*nu + c); SweepResult.rows zips
them into SweepRow values on demand.

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
from itertools import repeat
from operator import add, lt, mul, sub, truediv
from typing import Callable, Mapping, NoReturn, Optional

from .conditions import EINSTEIN_SYMBOL, ConditionKind, ConditionReport, build_report
# perfbench/test_perfbench.py reads catalog.parallel_equations
from .conditions import parallel_equations
from .frames import HOPF_FUNCTIONS, build_hopf_context, star_ricci_closed
from .parsing import parse_expr
from .rational import Expr, compile_columns
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
    # (radii, pi) -> (alpha, lambda, nu) columns, compiled once per family
    # (rational.compile_columns); used through _curvature_columns
    curvature_columns: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fn = compile_columns((self.alpha, self.lam, self.nu), ("r", "pi"), ("r",))
        object.__setattr__(self, "curvature_columns", fn)

    def contains(self, r: float) -> bool:
        lo, hi = self.domain
        return lo < r < hi

    def curvatures(self, r: float) -> tuple[float, float, float]:
        if not self.contains(r):
            raise DomainError(
                f"r = {r} outside the open domain ({self.domain[0]}, {self.domain[1]}) "
                f"of family {self.family_id}"
            )
        bindings = {"r": r, "pi": math.pi}
        values = (self.alpha.eval(bindings), self.lam.eval(bindings), self.nu.eval(bindings))
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
        1% margins for a bounded domain, (lo+0.05, lo+5) for (lo, inf),
        (hi-5, hi-0.05) for (-inf, hi) and (0.05, 5) for the whole line."""
        lo, hi = self.domain
        if math.isfinite(lo):
            if math.isfinite(hi):
                m = (hi - lo) / 100.0
                return (lo + m, hi - m)
            return (lo + 0.05, lo + 5.0)
        if math.isfinite(hi):
            return (hi - 5.0, hi - 0.05)
        return (0.05, 5.0)


def radius_grid(lo: float, hi: float, samples: int) -> list:
    """`samples` uniformly spaced radii from lo to hi, both ends included."""
    if samples < 2:
        raise CatalogError("a radius grid needs at least 2 samples")
    width, steps = hi - lo, samples - 1
    return [lo + width * i / steps for i in range(samples)]


# -- columns ------------------------------------------------------------------
#
# A radius loop runs as column kernels (rational.compile_columns) and C-level
# map()s, with no Python call per radius.  A kernel stops before the first
# radius it cannot vouch for; the caller replays that radius through the
# per-radius evaluation (Expr.eval), which raises the per-radius error, so
# the errors come in radius order.

def _curvature_columns(fam: HypersurfaceFamily, radii: list) -> tuple:
    """fam's (alpha, lambda, nu) columns over the leading radii, up to the
    first one at which fam.curvatures raises."""
    lo, hi = fam.domain
    if not (all(map(lt, repeat(lo), radii)) and all(map(lt, radii, repeat(hi)))):
        radii = radii[:next(k for k, r in enumerate(radii) if not lo < r < hi)]
    return fam.curvature_columns(radii, math.pi)


def _hopf_residuals(fam: HypersurfaceFamily, alpha: list, lam: list, nu: list) -> list:
    """hopf_relation_residual at each row of the curvature columns, with the
    same float operations."""
    lam_nu = map(mul, lam, nu)
    half_alpha_sum = map(mul, map(truediv, alpha, repeat(2.0)), map(add, lam, nu))
    return list(map(sub, map(sub, lam_nu, half_alpha_sum), repeat(float(fam.space.c) / 4.0)))


def _lam_nu_plus_c(fam: HypersurfaceFamily, r: float, lam: float, nu: float) -> float:
    """lambda*nu + c of fam at r; a value that is not finite is a CatalogError."""
    value = lam * nu + float(fam.space.c)
    if not math.isfinite(value):
        raise CatalogError(f"lambda*nu + c = {value!r} on family {fam.family_id} at r = {r}")
    return value


def _lam_nu_plus_c_values(fam: HypersurfaceFamily, lam: list, nu: list) -> list:
    """lambda*nu + c at each row of the lambda and nu columns, unchecked."""
    return list(map(add, map(mul, lam, nu), repeat(float(fam.space.c))))


def _leading_finite(values: list) -> int:
    isfinite = math.isfinite
    if all(map(isfinite, values)):
        return len(values)
    return next(k for k, v in enumerate(values) if not isfinite(v))


def _replay(evaluate: Callable, r: float) -> NoReturn:
    """Raise the error of evaluate(r), the per-radius evaluation of the
    radius at which a column stopped."""
    evaluate(r)
    raise AssertionError(f"a column stopped at r = {r!r}, where the per-radius evaluation succeeds")


def lam_nu_plus_c_column(fam: HypersurfaceFamily, radii: list) -> list:
    """lambda*nu + c of fam at each radius.  The errors are those of
    fam.curvatures and _lam_nu_plus_c at each radius in turn."""
    _alpha, lam, nu = _curvature_columns(fam, radii)
    values = _lam_nu_plus_c_values(fam, lam, nu)
    clean = _leading_finite(values)
    if clean < len(radii):
        _replay(lambda r: _lam_nu_plus_c(fam, r, *fam.curvatures(r)[1:]), radii[clean])
    return values


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


@lru_cache(maxsize=16)
def parse_catalog(text: str, *, oracle_tol: float = DEFAULT_ORACLE_TOL) -> Catalog:
    """Parse and validate a catalog file; every family must pass the
    principal-curvature oracle or the whole load aborts.  Memoized."""
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
        if not domain[0] < domain[1]:  # also a NaN end
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
    radii = radius_grid(*fam.sample_window(), ORACLE_SAMPLES)
    curvatures = _curvature_columns(fam, radii)
    residuals = _hopf_residuals(fam, *curvatures)
    if not all(map(lt, map(abs, residuals), repeat(tol))):
        k = next(k for k, res in enumerate(residuals) if not abs(res) < tol)
        raise CatalogError(
            f"family {fam.family_id!r} fails the principal-curvature relation "
            f"at r = {radii[k]}: residual {residuals[k]!r}"
        )
    if len(residuals) < len(radii):
        _replay(fam.curvatures, radii[len(residuals)])


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    text = resources.files("starricci.data").joinpath("families.cat").read_text("utf-8")
    # by keyword, as load_catalog passes it: the memo keys a call by its form
    return parse_catalog(text, oracle_tol=DEFAULT_ORACLE_TOL)


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
# The report parameters that a family supplies per radius.
_CURVATURES = ("alpha", "lambda", "nu")
# The parameters of every compiled report, in call order.
REPORT_PARAMS = _CURVATURES + ("c",) + ZERO_DEFAULT
_ZEROS = (0.0,) * len(ZERO_DEFAULT)


@dataclass(frozen=True)
class _CompiledReport:
    report: ConditionReport
    labels: tuple        # one per entry, in report order
    # max |row| of the constant rows, folded at compile time
    constant_max: float
    # compile_columns kernel with columns alpha, lambda and nu that returns
    # one column: per radius, the running max of constant_max and |row| over
    # the distinct non-constant rows; None when every row is constant
    kernel: Optional[Callable]

    def max_abs_column(self, curvatures: tuple, args: list) -> list:
        """max |row| at each radius, over the leading radii up to the first
        one whose rows raise or are not finite.  curvatures holds the alpha,
        lambda and nu columns; args is _report_args' vector."""
        if self.kernel is None:
            return [self.constant_max] * len(curvatures[0])
        columns = [col if bound is None else [bound] * len(col)
                   for col, bound in zip(curvatures, args)]
        column, = self.kernel(*columns, *args[3:])
        return column


@lru_cache(maxsize=None)
def _hopf_report(kind: ConditionKind) -> _CompiledReport:
    """Symbolic condition report on the *-Ricci tensor over the generic Hopf
    context (c symbolic), shared by both model spaces, with its max-|row|
    column kernel."""
    ctx = build_hopf_context()
    L = Expr.from_symbol(ctx.table.scope().constant(_PSEUDO_PARALLEL_FUNCTION))
    report = build_report(ctx, kind, star_ricci_closed(ctx), "star-ricci", L)
    rows = report.equations()
    constants = [e for e in rows if e.is_rational_constant]
    varying = tuple(dict.fromkeys(e for e in rows if not e.is_rational_constant))
    constant_max = max((abs(e.eval({})) for e in constants), default=0.0)
    return _CompiledReport(
        report,
        tuple(e.label() for e in report.entries),
        constant_max,
        compile_columns(varying, REPORT_PARAMS, _CURVATURES, constant_max) if varying else None,
    )


def _report_args(fam: HypersurfaceFamily, extra_bindings: Optional[Mapping[str, float]]) -> list:
    """The REPORT_PARAMS values of a report on fam: None for alpha, lambda
    and nu unless extra_bindings sets them (the family supplies them per
    radius), the space's c, and zero for the rest.  An unknown name or a
    non-finite value in extra_bindings is a CatalogError."""
    args = [None, None, None, float(fam.space.c), *_ZEROS]
    for name, value in (extra_bindings or {}).items():
        if name not in REPORT_PARAMS:
            raise CatalogError(
                f"unknown binding {name!r} (known: {', '.join(REPORT_PARAMS)})"
            )
        value = float(value)
        if not math.isfinite(value):
            raise CatalogError(f"binding {name} = {value!r} is not finite")
        args[REPORT_PARAMS.index(name)] = value
    return args


def _row_evaluator(fam: HypersurfaceFamily, kind: ConditionKind, compiled: _CompiledReport,
                   args: list) -> Callable:
    """at(r) -> (alpha, lambda, nu, row values, lambda*nu + c) of one
    condition report on one family: the per-radius evaluation.

    at(r) checks the domain and the curvatures (fam.curvatures), that every
    row is finite and that lambda*nu + c is finite.  A bound alpha, lambda
    or nu in args replaces the family's value in the report only.
    """
    rows = compiled.report.equations()
    fixed = {name: value for name, value in zip(REPORT_PARAMS, args) if value is not None}
    isfinite = math.isfinite

    def at(r: float) -> tuple:
        a, l, n = fam.curvatures(r)
        bindings = {"alpha": a, "lambda": l, "nu": n, **fixed}
        values = tuple(e.eval(bindings) for e in rows)
        if not all(map(isfinite, values)):
            bad = sum(1 for v in values if not isfinite(v))
            raise CatalogError(
                f"{bad} of {len(values)} {kind.value} rows are not finite on "
                f"{fam.family_id} at r = {r}"
            )
        return a, l, n, values, _lam_nu_plus_c(fam, r, l, n)

    return at


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
    CatalogError, and so does a non-finite row or lambda*nu + c.
    """
    compiled = _hopf_report(kind)
    a, l, n, values, lam_nu_plus_c = _row_evaluator(
        fam, kind, compiled, _report_args(fam, extra_bindings))(r)
    return ConditionEvaluation(
        family_id=fam.family_id,
        r=r,
        kind=kind,
        curvatures=(a, l, n),
        lam_nu_plus_c=lam_nu_plus_c,
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
    """A sweep's results as three columns, ordered by r."""
    family_id: str
    kind: ConditionKind
    radii: tuple
    max_residuals: tuple   # max |row| of the report at each radius
    lam_nu_plus_c: tuple

    @property
    def rows(self) -> tuple:
        """(SweepRow, ...) ordered by r."""
        return tuple(map(SweepRow, self.radii, self.max_residuals, self.lam_nu_plus_c))


def sweep(
    fam: HypersurfaceFamily,
    r_min: float,
    r_max: float,
    samples: int,
    kind: ConditionKind,
    *,
    extra_bindings: Optional[Mapping[str, float]] = None,
) -> SweepResult:
    """Uniform-grid condition evaluation over [r_min, r_max].

    Two column kernels cover the whole grid: the family's curvatures, then
    the report's max |row|; lambda*nu + c is a column too.  The values and
    errors are those of evaluate_condition at each radius in turn: where a
    column stops, that radius is replayed through the per-radius
    evaluation, which raises its error.
    """
    if r_min > r_max:
        raise CatalogError("r-min must not exceed r-max")
    if not (fam.contains(r_min) and fam.contains(r_max)):
        lo, hi = fam.domain
        raise DomainError(
            f"sweep range [{r_min}, {r_max}] must lie strictly inside the open domain "
            f"({lo}, {hi}) of {fam.family_id}"
        )
    radii = radius_grid(r_min, r_max, samples)
    compiled = _hopf_report(kind)
    args = _report_args(fam, extra_bindings)
    curvatures = _curvature_columns(fam, radii)
    max_residuals = compiled.max_abs_column(curvatures, args)
    lam_nu_plus_c = _lam_nu_plus_c_values(fam, *curvatures[1:])
    clean = min(len(max_residuals), _leading_finite(lam_nu_plus_c))
    if clean < len(radii):
        _replay(_row_evaluator(fam, kind, compiled, args), radii[clean])
    return SweepResult(
        fam.family_id, kind, tuple(radii), tuple(max_residuals), tuple(lam_nu_plus_c)
    )
