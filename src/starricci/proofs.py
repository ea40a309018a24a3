"""Scripted, machine-checked replay of the non-existence argument.

The argument that no 3-dimensional real hypersurface of the projective or
hyperbolic plane has parallel *-Ricci tensor decomposes into four auditable
pieces, each produced here as a deterministic trace or report:

* nonhopf_contradiction -- three projections of the parallel condition force
  delta = 0, mu = 0 and finally c = 0 on the open set where beta != 0,
  so that set is empty: every such hypersurface is Hopf.
* hopf_branch -- in a principal frame, two projections force
  lambda (c + lambda nu) = 0 and nu (c + lambda nu) = 0; the case
  c + lambda nu != 0 collapses to c = 0 via the principal-curvature
  relation, so c + lambda nu = 0 with lambda nu != 0.
* quadratic_elimination -- substituting lambda = -c/nu into the
  principal-curvature relation and clearing denominators yields a fixed
  quadratic in nu and its discriminant, with c still symbolic.  This step
  does not depend on the model space, so a command runs it once.
* quadratic_analysis -- per model space, the discriminant of that
  quadratic at the space's c decides solvability.
* type_b_exclusion -- the remaining candidates have constant principal
  curvatures; the tube families ("type B") violate lambda nu = -c
  numerically by a margin of 3, to within catalog.ORACLE_TOL, at every
  radius of the family's parallel sweep, which the certificate runs itself
  and keeps as its witness.

verify_all is the one place that composes them: it runs the pieces of a
prove target (one piece, or "all" with the numeric witness) and returns one
VerificationSummary, whose ok is decided there and which renders the
command's JSON payload and text lines itself.

Each replay is one table of `Step` rows, built once per frame context, and
one runner, `_replay`, that checks them:

* a step's equation is its cited projection g((nabla_X S*) Y, P) of the
  parallel condition, else the form the row gives, else the previous step's;
* `at` substitutes zero only for a name that an earlier step concluded zero
  and that is still in force, and anything else is a ProofError;
* a step that forces a declared-nonzero symbol (one of the names the replay
  declares nonzero) to vanish is a contradiction: inside a case it withdraws
  the case hypothesis and every zero concluded under it, and outside one it
  ends the replay with status "contradiction".

The fixed forms the rows compare with (the expected equations and
BASIC_RELATION_TEXT) are parsed once per frame context and kept on it, in
the context's own table.  The elimination reads its three forms from the
Hopf context's kept forms, so the relation that Hopf step 2c checks and the
relation the elimination clears are one parsed form.  Only the tables, the
parsing of constant text, and the set of free connection coefficients of a
context that the purity checks read, are kept: every comparison, purity
check and cancellation runs on every replay.

Algebraic discipline: a step may cancel only factors that were declared
nonzero (the tracker rejects anything else), and equations recorded as
vanishing statements are sign-normalized (positive leading coefficient),
while contradiction witnesses are recorded exactly as computed.  `_replay`
applies it: every row is normalized but one that concludes a contradiction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import NamedTuple, Optional

from .catalog import (
    CH2,
    CP2,
    Catalog,
    DEFAULT_SAMPLES,
    ModelSpace,
    ORACLE_TOL,
    SweepResult,
    WITNESS_TOL,
    _lam_nu_plus_c,
    builtin_catalog,
    sweep,
)
from .conditions import ConditionKind
from .frames import (
    FrameContext,
    FrameIndex,
    _once_per_context,
    build_hopf_context,
    build_nonhopf_context,
    covariant_derivative_entry,
    star_ricci_closed,
)
from .quadratic import solve_quadratic
from .rational import Expr, sign_normalized
from .symbols import DERIVATIVE, DIRECTIONS, FUNCTION, Symbol, SymbolTable


class ProofError(AssertionError):
    """A replayed step did not reproduce the expected expression."""


class IllegalCancellationError(ProofError):
    """Attempt to divide by a factor that was not declared nonzero."""


class NonzeroTracker:
    """The set of expressions declared nonzero; only these may be cancelled."""

    def __init__(self, items=()):
        self._items: list[Expr] = []
        for it in items:
            self.declare(it)

    def declare(self, e: Expr) -> None:
        if e.is_zero:
            raise ProofError("cannot declare the zero expression nonzero")
        if not e.is_polynomial():
            raise ProofError("nonzero declarations must be polynomial")
        if e not in self._items:
            self._items.append(e)

    def __contains__(self, e: Expr) -> bool:
        return e in self._items

    def items(self) -> tuple:
        return tuple(self._items)

    def cancel(self, equation: Expr, factor: Expr) -> Expr:
        """Divide `equation` by `factor` as often as it divides exactly.

        The factor must be declared nonzero, otherwise the cancellation is
        illegal and rejected.
        """
        if factor not in self._items:
            raise IllegalCancellationError(
                f"factor {factor.to_text()} was not declared nonzero"
            )
        if not equation.is_polynomial():
            raise ProofError("can only cancel inside polynomial equations")
        num = equation.num
        den = equation.den
        cancelled = False
        while True:  # a declared factor is polynomial: its den is 1
            q = num.exact_div(factor.num)
            if q is None:
                break
            num = q
            cancelled = True
        if not cancelled:
            raise ProofError(
                f"{factor.to_text()} does not divide {equation.to_text()}"
            )
        return Expr(num, den)


def _single_symbol_power(e: Expr) -> Optional[Symbol]:
    """The symbol s when e is a nonzero multiple of s^k, else None."""
    if not e.is_polynomial() or e.is_zero:
        return None
    terms = e.num.terms
    if len(terms) != 1:
        return None
    mono, _c = terms[0]
    if len(mono) != 1:
        return None
    return mono[0][0]


def _conclude_zero(label: str, reduced: Expr, name: str) -> None:
    """Step `label` concludes name = 0 from reduced = 0, so reduced must be a
    nonzero multiple of a power of that one symbol."""
    sym = _single_symbol_power(reduced)
    if sym is None or sym.name != name:
        raise ProofError(
            f"step {label}: {reduced.to_text()} = 0 does not force {name} = 0"
        )


class ProofStep(NamedTuple):
    label: str
    equation: Expr
    justification: str
    conclusion: str
    projection: Optional[tuple] = None      # (X, Y, proj) frame labels
    substitution: tuple = ()                # ((symbol name, replacement Expr), ...)
    contradiction: bool = False

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "equation": self.equation.to_text(),
            "justification": self.justification,
            "conclusion": self.conclusion,
            "projection": list(self.projection) if self.projection else None,
            "substitution": [[n, v.to_text()] for n, v in self.substitution],
            "contradiction": self.contradiction,
        }


class ProofTrace(NamedTuple):
    name: str
    hypotheses: tuple
    steps: tuple
    status: str                   # "contradiction" | "open"
    conclusions: tuple

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": list(self.hypotheses),
            "steps": [s.to_payload() for s in self.steps],
            "status": self.status,
            "conclusions": list(self.conclusions),
        }

    def to_text(self) -> str:
        lines = [f"trace: {self.name}"]
        lines += [f"  hypothesis: {h}" for h in self.hypotheses]
        for s in self.steps:
            where = f" [{', '.join(s.projection)}]" if s.projection else ""
            lines.append(f"  step {s.label}{where}: {s.equation.to_text()} = 0")
            lines.append(f"    because {s.justification}")
            lines.append(f"    => {s.conclusion}")
        lines.append(f"  status: {self.status}")
        for c in self.conclusions:
            lines.append(f"  conclusion: {c}")
        return "\n".join(lines)


class _Forms(dict):
    """Fixed text -> ctx.parse(text), parsed on first use and kept: the
    forms a replay compares with are constants."""

    def __init__(self, ctx: FrameContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, text: str) -> Expr:
        form = self[text] = self.ctx.parse(text)
        return form


@_once_per_context
def _forms(ctx: FrameContext) -> _Forms:
    """The fixed forms the replays compare with in ctx, kept on ctx."""
    return _Forms(ctx)


def _expect(label: str, got: Expr, expected: Expr) -> None:
    if got != expected:
        raise ProofError(
            f"step {label}: expected {expected.to_text()}, obtained {got.to_text()}"
        )


@_once_per_context
def _free_coefficients(ctx: FrameContext) -> frozenset:
    """The symbols of the free connection coefficients Gamma_i12 of ctx."""
    return frozenset(s for i in range(3) for s in ctx.connection.entries[i][0][1].symbols())


def _assert_projection_purity(ctx: FrameContext, label: str, e: Expr) -> None:
    """The replayed projections must not involve the free connection
    coefficients Gamma_i12 of ctx or any formal derivative symbol; that is the
    content of the projection trick."""
    free = _free_coefficients(ctx)
    for sym in e.symbols():
        if sym.kind == DERIVATIVE or sym in free:
            raise ProofError(
                f"step {label}: unexpected symbol {sym.name} in {e.to_text()}"
            )


def _derivative_bindings(table: SymbolTable, name: str) -> dict:
    """Bind a symbol and, if it is a function, all its formal derivatives to
    zero."""
    sym = table.get(name)
    out = {sym: Expr.zero()}
    if sym.kind == FUNCTION:
        for d in DIRECTIONS:
            out[table.derivative(sym, d)] = Expr.zero()
    return out


class Step(NamedTuple):
    """One row of a replay table; `_replay` states what each field does."""

    label: str
    justification: str
    conclusion: str
    cite: Optional[tuple] = None        # (X, Y, P) of g((nabla_X S*) Y, P)
    tagged: bool = True                 # print the cited (X, Y, P)
    equation: Optional[Expr] = None     # the given form when nothing is cited
    at: tuple = ()                      # names concluded zero, substituted by 0
    expect: Optional[Expr] = None       # what the equation must equal
    case: Optional[Expr] = None         # opens the case "this expression != 0"
    cancel: Optional[Expr] = None       # a declared-nonzero factor to cancel
    zero: Optional[str] = None          # the name the step concludes zero


def _replay(ctx: FrameContext, name: str, hypotheses: tuple, nonzero: tuple,
            steps: tuple, conclusions: tuple) -> ProofTrace:
    """Run the rows `steps` in ctx with the names `nonzero` declared nonzero.

    Per row: take the equation, substitute zero for the names in `at` (and a
    function's formal derivatives), sign-normalize unless the row concludes
    a contradiction (`zero` is in `nonzero`), compare with `expect`,
    check a cited projection's purity, open `case`, cancel `cancel` and
    conclude `zero` = 0.  The module docstring states the rules.
    """
    sstar = star_ricci_closed(ctx)
    declared = tracker = NonzeroTracker(map(ctx.sym, nonzero))
    zeros: dict = {}         # name concluded zero -> its bindings
    before_case = None       # the zeros in force when the open case began
    status = "open"
    done = []
    eq = None
    for step in steps:
        label = step.label
        if status == "contradiction":
            raise ProofError(f"step {label}: follows the closing contradiction")
        if step.cite:
            X, Y, P = step.cite
            eq = covariant_derivative_entry(ctx, X, sstar, Y, P)
        elif step.equation is not None:
            eq = step.equation
        if step.at:
            bindings = {}
            for n in step.at:
                if n not in zeros:
                    raise ProofError(f"step {label}: {n} = 0 is not in force")
                bindings.update(zeros[n])
            eq = eq.substitute(bindings)
        if step.zero not in nonzero:  # a contradiction witness stays as computed
            eq = sign_normalized(eq)
        if step.expect is not None:
            _expect(label, eq, step.expect)
        if step.cite:
            _assert_projection_purity(ctx, label, eq)
        if step.case is not None:
            if before_case is not None:
                raise ProofError(f"step {label}: a case is already open")
            tracker = NonzeroTracker([*declared.items(), step.case])
            before_case = dict(zeros)
        reduced = eq if step.cancel is None else tracker.cancel(eq, step.cancel)
        contradiction = False
        if step.zero:
            _conclude_zero(label, reduced, step.zero)
            contradiction = step.zero in nonzero
            if not contradiction:
                zeros[step.zero] = _derivative_bindings(ctx.table, step.zero)
            elif before_case is not None:
                tracker, zeros, before_case = declared, before_case, None
            else:
                status = "contradiction"
        done.append(ProofStep(
            label, eq, step.justification, step.conclusion,
            projection=tuple(i.direction for i in step.cite) if step.cite and step.tagged else None,
            substitution=((step.zero, Expr.zero()),) if step.zero and not contradiction else (),
            contradiction=contradiction,
        ))
    if before_case is not None:
        raise ProofError(f"{name}: a case is left open")
    return ProofTrace(name, hypotheses, tuple(done), status, conclusions)


E1, E2, E3 = FrameIndex.E1, FrameIndex.E2, FrameIndex.E3


@_once_per_context
def _nonhopf_steps(ctx: FrameContext) -> tuple:
    """The rows of the non-Hopf replay in ctx."""
    forms = _forms(ctx)
    beta = ctx.sym("beta")
    return (
        Step("1", "projection g((nabla_xi S*) xi, xi) of the parallel condition; "
                  "beta^2 cancels since beta != 0", "delta = 0",
             cite=(E3, E3, E3), expect=forms["beta^2*delta"], cancel=beta, zero="delta"),
        Step("2", "projection g((nabla_phiU S*) xi, xi) with delta = 0; "
                  "beta cancels and a square vanishes only at zero", "mu = 0",
             cite=(E2, E3, E3), at=("delta",), expect=forms["beta*mu^2"],
             cancel=beta, zero="mu"),
        # the contradiction witness is recorded as computed
        Step("3", "projection g((nabla_xi S*) phiU, xi) with delta = mu = 0; "
                  "beta cancels, leaving a multiple of c",
             "c = 0 forced, contradicting c != 0; the open set with beta != 0 is empty",
             cite=(E3, E2, E3), at=("delta", "mu"), expect=forms["-c*beta"],
             cancel=beta, zero="c"),
    )


def nonhopf_contradiction() -> ProofTrace:
    """Replay of the non-Hopf branch: three exact projections, one contradiction.

    Projections of the parallel condition on the *-Ricci tensor in the
    {U, phiU, xi} frame successively produce beta^2 delta, beta mu^2 and
    -c beta; with beta != 0 the first two give delta = mu = 0 and the third
    forces c = 0, impossible in a non-flat ambient space.
    """
    ctx = build_nonhopf_context()
    return _replay(
        ctx, "nonhopf-contradiction",
        ("beta != 0 (open set where the structure vector field is not principal)",
         "c != 0 (non-flat ambient space)"),
        ("beta", "c"), _nonhopf_steps(ctx),
        ("no non-Hopf point exists: every hypersurface with parallel *-Ricci tensor is Hopf",),
    )


BASIC_RELATION_TEXT = "lambda*nu - (alpha/2)*(lambda + nu) - c/4"


@_once_per_context
def _hopf_steps(ctx: FrameContext) -> tuple:
    """The rows of the Hopf replay in ctx; rows 2a-2c are the case c + lambda*nu != 0."""
    forms = _forms(ctx)
    p = ctx.sym("c") + ctx.sym("lambda") * ctx.sym("nu")
    return (
        Step("1", "projection g((nabla_W S*) xi, phiW) of the parallel condition",
             "lambda*(c + lambda*nu) = 0: either lambda = 0 or c + lambda*nu = 0",
             cite=(E1, E3, E2), expect=forms["lambda*(c + lambda*nu)"]),
        Step("2a", "case c + lambda*nu != 0: the declared-nonzero factor cancels",
             "lambda = 0", case=p, cancel=p, zero="lambda"),
        # untagged as recorded: the tag would change the recorded digests
        Step("2b", "projection g((nabla_phiW S*) xi, W); the same factor cancels", "nu = 0",
             cite=(E2, E3, E1), tagged=False,
             expect=forms["nu*(c + lambda*nu)"], cancel=p, zero="nu"),
        Step("2c", "principal-curvature relation at lambda = nu = 0",
             "c = 0 forced, contradicting c != 0: case c + lambda*nu != 0 is impossible",
             equation=forms[BASIC_RELATION_TEXT], at=("lambda", "nu"), expect=forms["-c/4"],
             zero="c"),
        Step("3", "the product of step 1 vanishes and case A is impossible",
             "c + lambda*nu = 0; lambda*nu = -c != 0 forces lambda != 0 and nu != 0",
             equation=p),
    )


def hopf_branch() -> ProofTrace:
    """Replay of the Hopf branch up to the constraint c + lambda nu = 0.

    Two projections of the parallel condition in the principal frame yield
    the products lambda (c + lambda nu) and nu (c + lambda nu).  If
    c + lambda nu were nonzero both eigenvalues would vanish, and the
    principal-curvature relation would force c = 0; so c = -lambda nu with
    both factors nonzero.
    """
    ctx = build_hopf_context()
    return _replay(
        ctx, "hopf-branch",
        ("c != 0 (non-flat ambient space)",
         "principal frame at a point: A W = lambda W, A phiW = nu phiW, A xi = alpha xi",
         "lambda*nu = (alpha/2)*(lambda + nu) + c/4 "
         "(principal-curvature relation on Hopf hypersurfaces, input)"),
        ("c",), _hopf_steps(ctx),
        ("c + lambda*nu = 0", "lambda != 0", "nu != 0"),
    )


QUADRATIC_TEXT = "2*alpha*nu^2 + 5*c*nu - 2*alpha*c"
DISCRIMINANT_TEXT = "25*c^2 + 16*alpha^2*c"


class QuadraticAnalysis(NamedTuple):
    space: ModelSpace
    cleared_equation: Expr          # canonical quadratic in nu, c symbolic
    proportionality_factor: Fraction
    discriminant: Expr              # symbolic in alpha, c
    discriminant_at_c: Expr         # c bound to the model space value
    always_solvable: bool
    alpha_sq_bound: Optional[Fraction]
    alpha_zero_excluded: bool
    solvability: str

    def to_payload(self) -> dict:
        return {
            "space": self.space.name,
            "c": self.space.c,
            "cleared_equation": self.cleared_equation.to_text(),
            "proportionality_factor": str(self.proportionality_factor),
            "discriminant": self.discriminant.to_text(),
            "discriminant_at_c": self.discriminant_at_c.to_text(),
            "always_solvable": self.always_solvable,
            "alpha_sq_bound": None if self.alpha_sq_bound is None else str(self.alpha_sq_bound),
            "alpha_zero_excluded": self.alpha_zero_excluded,
            "solvability": self.solvability,
        }

    def to_text(self) -> str:
        lines = [
            f"quadratic analysis ({self.space.name}, c = {self.space.c})",
            f"  substituting lambda = -c/nu into the principal-curvature relation and",
            f"  clearing denominators yields {self.cleared_equation.to_text()} = 0",
            f"  (cleared numerator = {self.proportionality_factor} * that equation)",
            f"  discriminant in nu: {self.discriminant.to_text()}"
            f" -> {self.discriminant_at_c.to_text()} at c = {self.space.c}",
            f"  solvability: {self.solvability}",
        ]
        if self.alpha_zero_excluded:
            lines.append("  alpha = 0 excluded: it would force c*nu = 0 with c != 0, nu != 0")
        return "\n".join(lines)


class QuadraticElimination(NamedTuple):
    """The space-independent part of the quadratic analysis."""

    cleared_equation: Expr          # canonical quadratic in nu, c symbolic
    proportionality_factor: Fraction
    discriminant: Expr              # symbolic in alpha, c


def quadratic_elimination() -> QuadraticElimination:
    """Eliminate lambda via c = -lambda nu: the cleared relation must be a
    nonzero multiple of QUADRATIC_TEXT, whose discriminant in nu must be
    DISCRIMINANT_TEXT.  The constants and forms are the Hopf context's."""
    ctx = build_hopf_context()
    forms = _forms(ctx)
    basic = forms[BASIC_RELATION_TEXT]
    lam, nu, c = map(ctx.symbol, ("lambda", "nu", "c"))

    substituted = basic.substitute({lam: -Expr.from_symbol(c) / Expr.from_symbol(nu)})
    target = forms[QUADRATIC_TEXT]
    # a constant multiple has the ratio of the leading coefficients as factor
    cleared = substituted.num
    factor = Fraction(cleared.leading()[1]) / target.num.leading()[1] if cleared.terms else 0
    if factor == 0 or cleared != target.num.scale(factor):
        raise ProofError(
            f"cleared relation {Expr(cleared).to_text()} is not a nonzero "
            f"multiple of {target.to_text()}"
        )

    disc = solve_quadratic(target, nu).discriminant
    _expect("discriminant", disc, forms[DISCRIMINANT_TEXT])
    return QuadraticElimination(target, factor, disc)


def quadratic_analysis(space: ModelSpace, elimination: QuadraticElimination) -> QuadraticAnalysis:
    """Analyze the quadratic of `elimination` at the curvature c of `space`."""
    nu, c, alpha = map(build_hopf_context().symbol, ("nu", "c", "alpha"))
    target = elimination.cleared_equation
    disc_at_c = elimination.discriminant.substitute({c: Expr.const(space.c)})
    coeffs = disc_at_c.coefficients_in(alpha)
    if space.c > 0:
        # all even powers with positive coefficients: positive for every alpha
        if not all(e % 2 == 0 and p.as_fraction() > 0 for e, p in coeffs.items()):
            raise ProofError(f"expected a positive-definite discriminant, got {disc_at_c}")
        branch = (True, None, False, "a real solution for nu exists for every alpha")
    else:
        # hyperbolic case: discriminant = u - v * alpha^2 with u, v > 0
        u = coeffs.get(0, Expr.zero()).as_fraction()
        v = -coeffs.get(2, Expr.zero()).as_fraction()
        if set(coeffs) - {0, 2} or u <= 0 or v <= 0:
            raise ProofError(f"unexpected discriminant shape {disc_at_c}")
        bound = u / v
        # alpha = 0 exclusion: the quadratic degenerates to 5*c*nu = 0
        at_zero = target.substitute({alpha: Expr.zero()})
        residual = NonzeroTracker([Expr.from_symbol(c), Expr.from_symbol(nu)])
        red = residual.cancel(residual.cancel(at_zero, Expr.from_symbol(c)), Expr.from_symbol(nu))
        if not (red.is_rational_constant and red.as_fraction() != 0):
            raise ProofError(f"alpha = 0 case did not reduce to a nonzero constant: {red}")
        branch = (False, bound, True, f"a real solution for nu exists iff 0 < alpha^2 <= {bound}")
    # the branch fields: always_solvable, alpha_sq_bound, alpha_zero_excluded, solvability
    return QuadraticAnalysis(space, target, elimination.proportionality_factor,
                             elimination.discriminant, disc_at_c, *branch)


TYPE_B_FAMILIES = {CP2.name: "cp2-b", CH2.name: "ch2-b"}
TYPE_B_EXPECTED = {CP2.name: 3.0, CH2.name: -3.0}


class TypeBReport(NamedTuple):
    space: ModelSpace
    family_id: str
    samples: int
    expected: float
    max_deviation: float
    min_abs: float
    ok: bool
    witness: SweepResult   # the family's parallel sweep; not rendered

    def to_payload(self) -> dict:
        return {
            "space": self.space.name,
            "family": self.family_id,
            "samples": self.samples,
            "expected_lam_nu_plus_c": self.expected,
            "max_deviation": self.max_deviation,
            "min_abs": self.min_abs,
            "ok": self.ok,
        }

    def to_text(self) -> str:
        verdict = "certified" if self.ok else "FAILED"
        return (
            f"type-B exclusion ({self.space.name}, family {self.family_id}): "
            f"lambda*nu + c = {self.expected:+g} at {self.samples} radii "
            f"(max deviation {self.max_deviation:.3e}); lambda*nu != -c {verdict}"
        )


def type_b_exclusion(
    space: ModelSpace,
    *,
    samples: int = DEFAULT_SAMPLES,
    catalog: Optional[Catalog] = None,
) -> TypeBReport:
    """Certify lambda nu + c = +-3 on the type-B tube family of a space.

    The remaining Hopf candidates would need lambda nu = -c; the constant
    offset of 3 rules them out at every sampled radius: the lambda*nu + c
    column of the family's parallel sweep, run here and kept on the report
    as its `witness`, must lie within ORACLE_TOL of +-3.  Where the sweep
    stops, its first failing radius gets the certificate's check (the
    curvatures, then lambda*nu + c), then the per-radius evaluation, and
    raises.
    """
    cat = catalog if catalog is not None else builtin_catalog()
    fam = cat.get(TYPE_B_FAMILIES[space.name])
    witness = sweep(fam, *fam.sample_window(), samples, ConditionKind.PARALLEL,
                    check=lambda r: _lam_nu_plus_c(fam, r, *fam.curvatures(r)[1:]))
    values = witness.lam_nu_plus_c
    expected = TYPE_B_EXPECTED[space.name]
    max_dev = max(map(abs, map(sub, values, repeat(expected))))
    min_abs = min(map(abs, values))
    ok = max_dev <= ORACLE_TOL and min_abs >= abs(expected) - ORACLE_TOL
    return TypeBReport(space, fam.family_id, samples, expected, max_dev, min_abs, ok, witness)


# What a passing run of each proof piece shows; "all" is the whole theorem.
_VERDICTS = {
    "all": "non-existence of a parallel *-Ricci tensor verified at desk scale",
    "nonhopf": "non-Hopf case: contradiction verified",
    "hopf": "Hopf case: c + lambda*nu = 0 verified",
    "quadratic": "quadratic analysis: solvability in nu derived",
    "type-b": "type-B exclusion: lambda*nu != -c certified",
}


def verdict(ok: bool, piece: str = "all") -> str:
    """Report status line for a run of `piece` that passed (ok) or failed."""
    return _VERDICTS[piece] if ok else "verification FAILED"


class VerificationSummary(NamedTuple):
    """What `verify_all` ran: a piece that did not run is None or ()."""

    nonhopf: Optional[ProofTrace]
    hopf: Optional[ProofTrace]
    quadratic: tuple      # QuadraticAnalysis per printed space
    type_b: tuple         # TypeBReport per printed space
    witness_min_residual: Optional[float]   # prove all only
    ok: bool

    def to_payload(self) -> dict:
        payload = {key: trace.to_payload() for key, trace in
                   (("nonhopf", self.nonhopf), ("hopf", self.hopf)) if trace is not None}
        if self.quadratic:
            payload["quadratic"] = [q.to_payload() for q in self.quadratic]
        if self.type_b:
            payload["type_b"] = [t.to_payload() for t in self.type_b]
        if self.witness_min_residual is not None:
            payload["witness_min_residual"] = self.witness_min_residual
        return payload

    def text_lines(self) -> list:
        lines = []
        for piece in (self.nonhopf, self.hopf, *self.quadratic):
            if piece is not None:
                lines += piece.to_text().splitlines() + [""]
        lines += [t.to_text() for t in self.type_b]
        if self.witness_min_residual is not None:
            lines.append(
                f"witness: min over families of max parallel residual = "
                f"{self.witness_min_residual:.6e} (> {WITNESS_TOL:g} required)"
            )
        return lines


def verify_all(
    target: str = "all",
    spaces: tuple = (CP2, CH2),
    *,
    samples: int = DEFAULT_SAMPLES,
    catalog: Optional[Catalog] = None,
) -> VerificationSummary:
    """Run the pieces of `target` (a key of _VERDICTS) on `spaces`.

    "all" runs every piece on both spaces, since its verdict covers both,
    and keeps the quadratic and type-B records of `spaces` only.  It adds a
    numeric non-existence witness: one catalog.sweep per family over its
    sample window, and on every family the parallel condition on the
    *-Ricci tensor must stay numerically violated at the sampled radii, its
    max residual above WITNESS_TOL (no family poses as a counterexample).
    The type-B certificates sweep their families first (CP2's, then CH2's),
    and the witness reads those sweeps back from the reports; every other
    family is swept here, in catalog order.  "ok" is decided here, once.
    An unknown target or no space is a ValueError.
    """
    if target not in _VERDICTS:
        raise ValueError(f"unknown proof target {target!r} (known: {', '.join(_VERDICTS)})")
    if not spaces:
        raise ValueError("no model space to verify")
    whole = target == "all"
    run = (CP2, CH2) if whole else spaces
    nonhopf = nonhopf_contradiction() if target in ("all", "nonhopf") else None
    hopf = hopf_branch() if target in ("all", "hopf") else None
    quad = typeb = ()
    if target in ("all", "quadratic"):
        elimination = quadratic_elimination()
        quad = tuple(quadratic_analysis(space, elimination) for space in run)
    witness_min = None
    if target in ("all", "type-b"):
        cat = catalog if catalog is not None else builtin_catalog()
        typeb = tuple(type_b_exclusion(space, samples=samples, catalog=cat) for space in run)
        if whole:
            named = {t.family_id for t in typeb}
            swept = [t.witness for t in typeb] + [
                sweep(fam, *fam.sample_window(), samples, ConditionKind.PARALLEL)
                for fam in cat.families if fam.family_id not in named]
            witness_min = min(min(s.max_residuals) for s in swept)
    ok = (
        (nonhopf is None or nonhopf.status == "contradiction")
        and (hopf is None or hopf.status == "open" and "c + lambda*nu = 0" in hopf.conclusions)
        and all(t.ok for t in typeb)
        and (witness_min is None or witness_min > WITNESS_TOL)
    )
    if whole:
        quad = tuple(q for q in quad if q.space in spaces)
        typeb = tuple(t for t in typeb if t.space in spaces)
    return VerificationSummary(nonhopf, hopf, quad, typeb, witness_min, ok)
