"""Numeric catalog of Hopf hypersurface families and condition sweeps.

The standard one-parameter families in the projective and hyperbolic planes
ship as a versioned plain-text data file (see data/families.cat); users may
supply their own catalog file in the same format.  Loading validates every
family against the principal-curvature relation

    lambda * nu = (alpha / 2) * (lambda + nu) + c / 4

at 100 sampled radii, to within ORACLE_TOL; any failure aborts the load.  A
load validates once per distinct text: parse_catalog shares the immutable
Catalog it returns, as builtin_catalog() does, and keeps no failed load.
These homogeneous models have constant principal curvatures along the
hypersurface.
Numeric condition evaluation binds exactly REPORT_PARAMS, the names that the
reports read: parallel and d-parallel read c, lambda and nu, xi-parallel
none, semi-parallel and pseudo-parallel add alpha, and einstein (on the
Ricci tensor) reads the curvatures and c.  The family supplies alpha,
lambda and nu; its space fixes c.  The cached reports are build_report
calls with no L and no scope, so they take the pseudo-parallel function L
and the Einstein constant lambda_e at zero: each builder in conditions
owns the default of its free scalar.  No report reads a connection
coefficient h1..h3, so none is bound: S* = (c + lambda*nu)(I - eta(x)xi)
commutes with rotations of D, and the Ricci tensor is algebraic in the
curvatures.  A Ricci-parallel report would read them, and would need
h3 = alpha/2 from Codazzi on type-B tubes, not 0.

A single radius is evaluated by Expr.eval: fam.curvatures(r) evaluates the
family's alpha, lambda and nu, and a condition report's rows are evaluated
in report order.  radius_grid is the one place that computes a radius grid.
A radius loop runs as one rational.compile_sweep kernel over its points,
which returns Expr.eval's float values bit for bit.  It evaluates alpha,
lambda and nu, then report rows over them and one float expression, its
tail: once per call what does not read r, once per radius of the grid
points inside the domain what does.  A sweep runs one kernel per family
and condition kind, compiled on first use and kept on the family:
its rows are the cached report's distinct non-zero rows, it keeps the max
of 0.0 and each |row|, and its tail is lambda*nu + c.  A zero row adds
nothing to the max, and a non-zero constant row is a row like any other.
proofs.type_b_exclusion reads the lambda*nu + c column of a parallel
sweep.  validate_family is one call of the family's oracle kernel,
compiled with the family: no rows, and the float operations of
hopf_relation_residual as its tail.  No radius loop makes a Python call per
radius.  A non-finite curvature, row or lambda*nu + c is a CatalogError,
never a residual.

A kernel returns two columns (max |row| and its tail), which stop before
the first radius at which the per-radius evaluation would fail; the caller
takes the grid points they cover as the radii, and replays the next point
through the per-radius evaluation (_evaluate_rows, fam.hopf_residual),
which raises that radius's error.  So the values and the errors are those
of evaluate_condition at each radius in turn.  A sweep keeps its results as
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
from functools import lru_cache
from itertools import repeat
from operator import lt
from typing import Callable, NamedTuple

from .conditions import ConditionKind, ConditionReport, build_report
# perfbench/test_perfbench.py reads catalog.parallel_equations
from .conditions import parallel_equations
from .frames import build_hopf_context, star_ricci_closed
from .parsing import parse_expr
from .rational import Expr, ExprError, compile_sweep
from .symbols import SymbolTable

# The fixed tolerances: ORACLE_TOL bounds the principal-curvature relation of
# every loaded family and the type-B offset of 3; WITNESS_TOL is the largest
# max parallel residual that counts as zero in a sweep and in the witness.
ORACLE_TOL = 1e-9
WITNESS_TOL = 1e-6
ORACLE_SAMPLES = 100


class CatalogError(ValueError):
    pass


class DomainError(CatalogError):
    pass


class ModelSpace(NamedTuple):
    name: str
    c: int


CP2 = ModelSpace("CP2", 4)
CH2 = ModelSpace("CH2", -4)
SPACES = {"CP2": CP2, "CH2": CH2}


def hopf_relation_residual(alpha: float, lam: float, nu: float, c: float) -> float:
    """lambda*nu - (alpha/2)*(lambda+nu) - c/4; zero on genuine Hopf data."""
    return lam * nu - (alpha / 2.0) * (lam + nu) - c / 4.0


# The float operations of hopf_relation_residual, as a compile_sweep tail.
_HOPF_RESIDUAL = "{lambda} * {nu} - ({alpha} / 2.0) * ({lambda} + {nu}) - {c} / 4.0"
# The report parameters that a family supplies per radius, and its catalog keys.
_CURVATURES = ("alpha", "lambda", "nu")
# The names the reports read: the curvatures, then the space's c (compile_sweep
# rejects any other).
REPORT_PARAMS = _CURVATURES + ("c",)
# The parameters of the oracle and of every sweep kernel: the radius, pi, c.
_SWEEP_PARAMS = ("r", "pi", "c")


class HypersurfaceFamily:
    """One family of the catalog: the curvatures alpha, lambda and nu as
    expressions in the radius r over the open interval `domain` (lo, hi),
    whose ends may be +-inf."""

    __slots__ = ("family_id", "space", "domain", "alpha", "lam", "nu", "description",
                 "oracle", "_sweeps")

    def __init__(self, family_id: str, space: ModelSpace, domain: tuple, alpha: Expr,
                 lam: Expr, nu: Expr, description: str = ""):
        # oracle: the compile_sweep kernel of validate_family, with no report
        # rows and hopf_relation_residual as its tail; compiled once per family.
        # _sweeps: the sweep kernel per condition kind, filled by _sweep_kernel
        oracle = compile_sweep(_SWEEP_PARAMS, dict(zip(_CURVATURES, (alpha, lam, nu))),
                               (), _HOPF_RESIDUAL)
        for name, value in zip(self.__slots__, (family_id, space, domain, alpha, lam, nu,
                                                description, oracle, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("HypersurfaceFamily is immutable")

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
        (hi-5, hi-0.05) for (-inf, hi) and (0.05, 5) for the whole line.
        A bounded domain too wide for hi - lo, such as (-1e308, 1e308), takes
        its margin as hi/100 - lo/100."""
        lo, hi = self.domain
        if math.isfinite(lo):
            if math.isfinite(hi):
                m = (hi - lo) / 100.0
                if not math.isfinite(m):
                    m = hi / 100.0 - lo / 100.0
                return (lo + m, hi - m)
            return (lo + 0.05, lo + 5.0)
        if math.isfinite(hi):
            return (hi - 5.0, hi - 0.05)
        return (0.05, 5.0)


# Radii per family in the type-B and witness sweeps.
DEFAULT_SAMPLES = 100
# The most radii a grid may have: a sweep holds three columns of that length.
MAX_SAMPLES = 10 ** 6


def radius_grid(lo: float, hi: float, samples: int) -> list:
    """`samples` uniformly spaced radii from lo to hi, both ends included:
    radius i is lo + width * i / steps, monotone in i.  The one place that
    computes a radius grid; every sweep kernel maps over its points.
    A range so wide that width * steps overflows, as [-1e308, 1e308] does, is
    a CatalogError: its last radius would be inf, and nan where width is inf.
    So are fewer than 2 samples and more than MAX_SAMPLES."""
    if samples < 2:
        raise CatalogError("a radius grid needs at least 2 samples")
    if samples > MAX_SAMPLES:
        raise CatalogError(f"a radius grid of {samples} samples exceeds the limit of "
                           f"{MAX_SAMPLES}")
    width, steps = hi - lo, samples - 1
    if not math.isfinite(width * steps):
        raise CatalogError(f"the radius range [{lo}, {hi}] is too wide for a grid of "
                           f"{samples} radii")
    return [lo + width * i / steps for i in range(samples)]


# -- columns ------------------------------------------------------------------
#
# A radius loop runs as one compiled kernel (rational.compile_sweep), with no
# Python call per radius.  A kernel stops before the first radius it cannot
# vouch for; the caller replays that radius through the per-radius
# evaluation (Expr.eval), which raises the per-radius error, so the errors
# come in radius order.

def _lam_nu_plus_c(fam: HypersurfaceFamily, r: float, lam: float, nu: float) -> float:
    """lambda*nu + c of fam at r; a value that is not finite is a CatalogError."""
    value = lam * nu + float(fam.space.c)
    if not math.isfinite(value):
        raise CatalogError(f"lambda*nu + c = {value!r} on family {fam.family_id} at r = {r}")
    return value


class Catalog(NamedTuple):
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


def _keyed(key: str, parse: Callable):
    """parse(); a ValueError it raises becomes a CatalogError naming the key."""
    try:
        return parse()
    except ValueError as exc:
        raise CatalogError(f"key {key!r}: {exc}") from exc


@lru_cache(maxsize=16)
def parse_catalog(text: str) -> Catalog:
    """Parse and validate a catalog file; every family must pass the
    principal-curvature oracle or the whole load aborts.  Memoized."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its message may span lines: one error line
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise CatalogError(f"malformed catalog file: {message}") from exc
    if "catalog" not in cp:
        raise CatalogError("missing [catalog] section with a version")
    version = cp["catalog"].get("version")
    if version is None:
        raise CatalogError("missing catalog version in the [catalog] section")
    try:
        version = int(version)
    except ValueError:
        raise CatalogError(f"catalog version {version!r} is not an integer") from None
    if version != 1:
        raise CatalogError(f"unsupported catalog version {version}")
    families = []
    for section in cp.sections():
        if section == "catalog":
            continue
        sec = cp[section]
        try:
            name = sec["space"].strip()
            if name not in SPACES:
                raise CatalogError(f"unknown space {name!r} (known: {', '.join(SPACES)})")
            space = SPACES[name]
            table = SymbolTable()
            table.constant("r")
            table.constant("pi")
            ends = sec["domain"].split(",")
            if len(ends) != 2:
                raise CatalogError(f"domain {sec['domain']!r} is not two ends 'lo, hi'")
            domain = _keyed("domain", lambda: tuple(_parse_endpoint(end, table) for end in ends))
            curvatures = [_keyed(key, lambda: parse_expr(sec[key], table)) for key in _CURVATURES]
            try:
                fam = HypersurfaceFamily(section, space, domain, *curvatures,
                                         sec.get("description", "").strip())
            except ValueError:  # the oracle compile: name the first key that fails alone
                for key, value in zip(_CURVATURES, curvatures):
                    _keyed(key, lambda: compile_sweep(_SWEEP_PARAMS, {key: value}, (), "0.0"))
                raise
        except KeyError as exc:  # a key the section lacks
            raise CatalogError(f"family {section!r}: missing key {exc.args[0]!r}") from None
        except ValueError as exc:
            raise CatalogError(f"family {section!r}: {exc}") from exc
        if not domain[0] < domain[1]:  # also a NaN end
            raise CatalogError(f"family {section!r}: empty domain {domain}")
        validate_family(fam)
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


def load_catalog(path) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_catalog(fh.read())


def validate_family(fam: HypersurfaceFamily) -> None:
    """Check the principal-curvature relation at ORACLE_SAMPLES radii of
    fam's sample window, in one call of fam.oracle.  The first radius at
    which the kernel stops or |residual| >= ORACLE_TOL is replayed through
    fam.hopf_residual: its curvature or domain error, else the relation's.
    A window too wide for the grid is a CatalogError naming the family."""
    try:
        points = radius_grid(*fam.sample_window(), ORACLE_SAMPLES)
    except CatalogError as exc:
        raise CatalogError(f"family {fam.family_id!r}: {exc}") from exc
    residuals = fam.oracle(points, *fam.domain, math.pi, float(fam.space.c))[1]
    k = [*map(lt, map(abs, residuals), repeat(ORACLE_TOL)), False].index(False)
    if k < len(points):
        r = points[k]
        residual = fam.hopf_residual(r)
        raise CatalogError(
            f"family {fam.family_id!r} fails the principal-curvature relation "
            f"at r = {r}: residual {residual!r}"
        )


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    from pkgutil import get_data  # only a builtin load reads the package data

    return parse_catalog(get_data("starricci", "data/families.cat").decode("utf-8"))


def builtin_families() -> list:
    return list(builtin_catalog().families)


# -- numeric condition evaluation ---------------------------------------------

@lru_cache(maxsize=None)
def _hopf_report(kind: ConditionKind) -> ConditionReport:
    """Symbolic condition report on the *-Ricci tensor over the generic Hopf
    context (c symbolic), shared by both model spaces.  build_report is
    given no L and no scope, so its builders take L = lambda_e = 0 and a
    kept report reads only REPORT_PARAMS."""
    ctx = build_hopf_context()
    return build_report(ctx, kind, star_ricci_closed(ctx))


def _sweep_kernel(fam: HypersurfaceFamily, report: ConditionReport) -> Callable:
    """fam's compile_sweep kernel for the report, kept per report kind, over
    the report's distinct non-zero rows: (points, domain, pi, c) -> (max
    |row|, lambda*nu + c) columns."""
    kind = report.kind
    kernel = fam._sweeps.get(kind)
    if kernel is None:
        curvatures = dict(zip(_CURVATURES, (fam.alpha, fam.lam, fam.nu)))
        rows = dict.fromkeys(e for e in report.equations() if not e.is_zero)
        kernel = fam._sweeps[kind] = compile_sweep(
            _SWEEP_PARAMS, curvatures, tuple(rows), "{lambda} * {nu} + {c}")
    return kernel


def _evaluate_rows(fam: HypersurfaceFamily, report: ConditionReport, r: float) -> tuple:
    """(alpha, lambda, nu, row values, lambda*nu + c) of report on fam at r:
    the per-radius evaluation.

    It checks the domain and the curvatures (fam.curvatures), that every
    row is finite and that lambda*nu + c is finite.  An ExprError of a row
    keeps its class, and its text names the kind, the family and r.
    """
    a, l, n = fam.curvatures(r)
    bindings = {"alpha": a, "lambda": l, "nu": n, "c": float(fam.space.c)}
    kind = report.kind.value
    try:
        values = tuple(e.eval(bindings) for e in report.equations())
    except ExprError as exc:
        exc.args = (f"{kind} rows cannot be evaluated on {fam.family_id} at r = {r}: {exc}",)
        raise
    bad = sum(1 for v in values if not math.isfinite(v))
    if bad:
        raise CatalogError(
            f"{bad} of {len(values)} {kind} rows are not finite on {fam.family_id} at r = {r}"
        )
    return a, l, n, values, _lam_nu_plus_c(fam, r, l, n)


class ConditionEvaluation(NamedTuple):
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


def evaluate_condition(fam: HypersurfaceFamily, r: float,
                       kind: ConditionKind) -> ConditionEvaluation:
    """Evaluate a condition report on the *-Ricci tensor at radius r.

    The family's curvatures at r and its space's c are bound; the cached
    report holds L and lambda_e at zero (_hopf_report).  A non-finite row or
    lambda*nu + c raises CatalogError.
    """
    report = _hopf_report(kind)
    a, l, n, values, lam_nu_plus_c = _evaluate_rows(fam, report, r)
    return ConditionEvaluation(
        family_id=fam.family_id,
        r=r,
        kind=kind,
        curvatures=(a, l, n),
        lam_nu_plus_c=lam_nu_plus_c,
        labels=report.labels,
        values=values,
        max_abs_residual=max(map(abs, values), default=0.0),
    )


class SweepRow(NamedTuple):
    r: float
    max_residual: float
    lam_nu_plus_c: float


class SweepResult(NamedTuple):
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


def sweep(fam: HypersurfaceFamily, r_min: float, r_max: float, samples: int,
          kind: ConditionKind, check: Callable[[float], object] | None = None
          ) -> SweepResult:
    """Uniform-grid condition evaluation over [r_min, r_max], with the
    family's curvatures and c bound as in evaluate_condition.

    One kernel call (_sweep_kernel) covers the points of radius_grid.  The
    values and errors are those of evaluate_condition at each radius in
    turn: where the columns stop, that radius is replayed for its error,
    through check(r) first when given, then the per-radius evaluation.
    """
    if r_min > r_max:
        raise CatalogError("r-min must not exceed r-max")
    if not (fam.contains(r_min) and fam.contains(r_max)):
        lo, hi = fam.domain
        raise DomainError(
            f"sweep range [{r_min}, {r_max}] must lie strictly inside the open domain "
            f"({lo}, {hi}) of {fam.family_id}"
        )
    points = radius_grid(r_min, r_max, samples)
    report = _hopf_report(kind)
    max_residuals, lam_nu_plus_c = _sweep_kernel(fam, report)(
        points, *fam.domain, math.pi, float(fam.space.c))
    if len(max_residuals) < samples:
        r = points[len(max_residuals)]
        if check is not None:
            check(r)
        _evaluate_rows(fam, report, r)
        raise AssertionError(f"a sweep stopped at r = {r!r}, where the per-radius "
                             "evaluation succeeds")
    return SweepResult(
        fam.family_id, kind, tuple(points), tuple(max_residuals), tuple(lam_nu_plus_c)
    )
