"""Command-line front end.

Subcommands:

* ``prove {nonhopf,hopf,quadratic,type-b,all}`` -- replay a proof piece;
  exit 0 only when every trace reaches its expected verdict.
* ``check TENSOR CONDITION CONTEXT [name=value ...]`` -- emit the symbolic
  condition report, optionally after substituting assumptions.
* ``sweep FAMILY RMIN RMAX SAMPLES CONDITION`` -- numeric residual table
  over a radius grid.
* ``expr {eval,solve} TEXT [ARGS ...]`` -- exact expression utilities.

Reports exist in two formats (--format text|json); the json form is a
versioned envelope whose payload round-trips through the standard json
module unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter, le
from typing import Optional, Sequence

from . import __version__
from .catalog import (
    Catalog,
    ConditionKind,
    DEFAULT_ORACLE_TOL,
    DEFAULT_WITNESS_TOL,
    builtin_catalog,
    load_catalog,
    sweep as run_sweep,
)
from .conditions import (
    einstein_equations,
    d_parallel_equations,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    xi_parallel_equations,
)
from .frames import build_hopf_context, build_nonhopf_context, ricci, star_ricci_closed
from .parsing import ExprSyntaxError, parse_expr
from .proofs import (
    CH2,
    CP2,
    DEFAULT_SAMPLES,
    ProofError,
    hopf_branch,
    hopf_verified,
    nonhopf_contradiction,
    nonhopf_verified,
    quadratic_analysis,
    quadratic_elimination,
    solve_quadratic,
    type_b_exclusion,
    verdict,
    verify_all,
)
from .rational import Expr, ExprError
from .symbols import Symbol, SymbolTable

SCHEMA = "starricci.report/1"


class SweepRows(list):
    """payload["rows"] of a sweep: one dict {"r", "max_residual",
    "lam_nu_plus_c"} of finite floats per radius.  Report.emit writes them
    through one %-template instead of json's encoder."""


# One sweep row in each format.  The json row is json.dumps(indent=2,
# sort_keys=True)'s text for a SweepRows item at the depth of
# payload["rows"]: %r writes a float as json does, with float.__repr__.
_JSON_ROW = ('      {\n'
             '        "lam_nu_plus_c": %r,\n'
             '        "max_residual": %r,\n'
             '        "r": %r\n'
             '      }')
_JSON_ROW_VALUES = itemgetter("lam_nu_plus_c", "max_residual", "r")
_TEXT_ROW = "%12.6f  %14.6e  %+14.9f"


def _rows(template: str, sep: str, rows) -> str:
    """One template per row of values, joined by sep, in one % call."""
    rows = list(rows)
    return sep.join([template] * len(rows)) % tuple(chain.from_iterable(rows))


@dataclass
class Report:
    command: str
    status: str
    payload: dict
    catalog_version: Optional[int] = None
    text_lines: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "artifact_version": __version__,
            "catalog_version": self.catalog_version,
            "command": self.command,
            "status": self.status,
            "payload": self.payload,
        }

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            rows = self.payload.get("rows")
            if not (isinstance(rows, SweepRows) and rows):
                return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
            # The rows go in as text.  '"rows": []' occurs once, as the key:
            # a json string escapes every '"' it holds.
            envelope = self.to_json_dict()
            envelope["payload"] = {**self.payload, "rows": []}
            text = json.dumps(envelope, indent=2, sort_keys=True)
            body = _rows(_JSON_ROW, ",\n", map(_JSON_ROW_VALUES, rows))
            return text.replace('"rows": []', f'"rows": [\n{body}\n    ]', 1) + "\n"
        head = [f"# {self.command}", f"status: {self.status}"]
        return "\n".join(head + self.text_lines) + "\n"


def _write(report: Report, args) -> None:
    text = report.emit(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _catalog(args) -> Catalog:
    if args.catalog:
        return load_catalog(args.catalog, oracle_tol=args.tol_oracle)
    return builtin_catalog()


# -- prove -------------------------------------------------------------------

def cmd_prove(args) -> int:
    cat = _catalog(args)
    target = args.target
    spaces = _spaces(args.space)
    nonhopf = hopf = quad = typeb = summary = None
    try:
        if target == "all":
            summary = verify_all(
                samples=args.samples,
                tol_oracle=args.tol_oracle,
                tol_witness=args.tol_witness,
                catalog=cat,
            )
            nonhopf, hopf = summary.nonhopf, summary.hopf
            quad = [q for q in summary.quadratic if q.space in spaces]
            typeb = [t for t in summary.type_b if t.space in spaces]
            ok = summary.ok
        elif target == "nonhopf":
            nonhopf = nonhopf_contradiction()
            ok = nonhopf_verified(nonhopf)
        elif target == "hopf":
            hopf = hopf_branch()
            ok = hopf_verified(hopf)
        elif target == "quadratic":
            elimination = quadratic_elimination()
            quad = [quadratic_analysis(sp, elimination) for sp in spaces]
            ok = True
        else:
            typeb = [type_b_exclusion(sp, samples=args.samples, tol=args.tol_oracle, catalog=cat)
                     for sp in spaces]
            ok = all(t.ok for t in typeb)
    except ProofError as exc:
        _write(Report(f"prove {target}", f"FAILED: {exc}", {}, cat.version), args)
        return 1
    payload: dict = {}
    lines: list = []
    for key, trace in (("nonhopf", nonhopf), ("hopf", hopf)):
        if trace is not None:
            payload[key] = trace.to_payload()
            lines += trace.to_text().splitlines() + [""]
    if quad is not None:
        payload["quadratic"] = [q.to_payload() for q in quad]
        for q in quad:
            lines += q.to_text().splitlines() + [""]
    if typeb is not None:
        payload["type_b"] = [t.to_payload() for t in typeb]
        lines += [t.to_text() for t in typeb]
    if summary is not None:
        payload["witness_min_residual"] = summary.witness_min_residual
        lines.append(
            f"witness: min over families of max parallel residual = "
            f"{summary.witness_min_residual:.6e} (> {summary.witness_tol:g} required)"
        )
    _write(Report(f"prove {target}", verdict(ok), payload, cat.version, lines), args)
    return 0 if ok else 1


def _spaces(space: Optional[str]):
    if space == "cp2":
        return (CP2,)
    if space == "ch2":
        return (CH2,)
    return (CP2, CH2)


# -- check -------------------------------------------------------------------

_CONDITION_BUILDERS = {
    ConditionKind.PARALLEL: parallel_equations,
    ConditionKind.XI_PARALLEL: xi_parallel_equations,
    ConditionKind.D_PARALLEL: d_parallel_equations,
    ConditionKind.SEMI_PARALLEL: semi_parallel_equations,
}


def _name_values(items: Sequence[str], noun: str) -> dict[str, str]:
    """The name=value arguments as stripped name -> value, in order.  A
    malformed item or a name given twice is a ValueError naming the `noun`."""
    values: dict[str, str] = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"{noun} {item!r} is not of the form name=value")
        if name in values:
            raise ValueError(f"{noun} {name!r} is given more than once")
        values[name] = value.strip()
    return values


def _assumed_symbol(name: str, names: SymbolTable) -> Symbol:
    """The symbol an assumption binds: `name` parsed in the command's scope,
    accepted only when it is one symbol, a context name or a D(ei, f) of one
    (D of a constant is 0, an applied atom such as cot(alpha) is no symbol
    of the context).  Anything else is a ValueError."""
    try:
        expr = parse_expr(name, names)
    except ExprSyntaxError:
        expr = Expr.zero()
    if len(expr.symbols()) == 1:
        sym, = expr.symbols()
        if sym.fn is None and expr == Expr.from_symbol(sym):
            return sym
    raise ValueError(f"unknown symbol {name!r} in this context")


def cmd_check(args) -> int:
    ctx = build_nonhopf_context() if args.context == "nonhopf" else build_hopf_context()
    names = ctx.table.scope()  # the context's names and this command's
    kind = ConditionKind(args.condition)
    if kind is ConditionKind.EINSTEIN:  # builds its own Ricci tensor
        report = einstein_equations(ctx, names)
    else:
        tensor = star_ricci_closed(ctx) if args.tensor == "star-ricci" else ricci(ctx)
        if kind is ConditionKind.PSEUDO_PARALLEL:
            L = parse_expr(args.pseudo_l, names, define_missing=True)
            report = pseudo_parallel_equations(ctx, tensor, L, args.tensor)
        else:
            report = _CONDITION_BUILDERS[kind](ctx, tensor, args.tensor)
    if args.assumptions:
        bindings = {}
        for name, value in _name_values(args.assumptions, "assumption").items():
            bindings[_assumed_symbol(name, names)] = parse_expr(value, names)
        report = report.substitute(bindings)
    payload = {
        "tensor": args.tensor,
        "condition": kind.value,
        "context": args.context,
    }
    if args.format == "json":  # each format builds only what it prints
        payload["entries"] = [
            {"x": [i.direction for i in e.x], "y": e.y.direction,
             "proj": e.proj.direction, "equation": e.equation.to_text()}
            for e in report.entries
        ]
        lines = []
    else:
        lines = [f"{args.tensor} {kind.value} on the {args.context} frame: "
                 f"{len(report.entries)} equations"]
        lines += [f"  {e.label()} : {e.equation.to_text()}" for e in report.entries]
    _write(Report(f"check {args.tensor} {kind.value} {args.context}", "ok",
                  payload, None, lines), args)
    return 0


# -- sweep -------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cat = _catalog(args)
    fam = cat.get(args.family)
    kind = ConditionKind(args.condition)
    result = run_sweep(fam, args.r_min, args.r_max, args.samples, kind)
    below = sum(map(le, result.max_residuals, repeat(args.tol_witness)))
    payload = {
        "family": fam.family_id,
        "space": fam.space.name,
        "condition": kind.value,
        "rows_below_witness_tol": below,
    }
    columns = zip(result.radii, result.max_residuals, result.lam_nu_plus_c)
    if args.format == "json":  # each format builds only what it prints
        payload["rows"] = SweepRows(
            [{"r": r, "max_residual": m, "lam_nu_plus_c": x} for r, m, x in columns]
        )
        lines = []
    else:
        lines = [f"family {fam.family_id} ({fam.description})",
                 f"{'r':>12}  {'max residual':>14}  {'lambda*nu + c':>14}"]
        lines.append(_rows(_TEXT_ROW, "\n", columns))  # the whole row block
    status = "ok" if below == 0 else f"{below} rows at or below the witness tolerance"
    _write(Report(f"sweep {fam.family_id}", status, payload, cat.version, lines), args)
    return 0


# -- expr --------------------------------------------------------------------

def cmd_expr(args) -> int:
    table = SymbolTable()
    expr = parse_expr(args.text, table, define_missing=True)
    if args.action == "eval":
        bindings = {}
        for name, value in _name_values(args.args, "binding").items():
            if name not in table:
                raise ExprError(f"binding {name!r} names no symbol of {args.text!r}")
            bindings[name] = float(value)
        value = expr.eval(bindings)
        if not math.isfinite(value):
            raise ExprError(f"{expr.to_text()} evaluates to {value!r}, which is not finite")
        payload = {"expression": expr.to_text(), "value": value}
        lines = [f"{expr.to_text()} = {value!r}"]
        _write(Report("expr eval", "ok", payload, None, lines), args)
        return 0
    # solve
    if len(args.args) != 1:
        raise ExprError("expr solve needs exactly one unknown name")
    unknown = table.get(args.args[0])
    if unknown is None:
        raise ExprError(f"unknown {args.args[0]!r} does not occur in the expression")
    sol = solve_quadratic(expr, unknown)
    payload = {
        "expression": expr.to_text(),
        "unknown": unknown.name,
        "degree": sol.degree,
        "coefficients": [c.to_text() for c in sol.coefficients],
        "discriminant": sol.discriminant.to_text() if sol.discriminant else None,
        "roots": [
            {"offset": r.offset.to_text(), "sqrt_coeff": r.sqrt_coeff.to_text(),
             "radicand": r.radicand.to_text()}
            for r in sol.roots
        ],
        "solvability_condition": sol.solvability_condition,
    }
    lines = [f"degree {sol.degree} in {unknown.name}"]
    if sol.discriminant is not None:
        lines.append(f"discriminant: {sol.discriminant.to_text()}")
    for i, r in enumerate(sol.roots):
        lines.append(
            f"root {i}: {r.offset.to_text()} + ({r.sqrt_coeff.to_text()}) "
            f"* sqrt({r.radicand.to_text()})"
        )
    if sol.solvability_condition:
        lines.append(f"real roots iff {sol.solvability_condition}")
    _write(Report("expr solve", "ok", payload, None, lines), args)
    return 0


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starricci",
        description="exact and numeric verification of *-Ricci parallelism "
                    "conditions on real hypersurfaces of the complex projective "
                    "and hyperbolic planes",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    def numeric(p):  # the flags of the commands that evaluate catalog families
        p.add_argument("--tol-oracle", type=float, default=DEFAULT_ORACLE_TOL,
                       help="tolerance for exact-identity checks (default %(default)g)")
        p.add_argument("--tol-witness", type=float, default=DEFAULT_WITNESS_TOL,
                       help="threshold for 'nonzero' witnesses (default %(default)g)")
        p.add_argument("--catalog", metavar="PATH", default=None,
                       help="family catalog file replacing the builtin one")

    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("prove", help="replay a proof piece")
    p.add_argument("target", choices=("nonhopf", "hopf", "quadratic", "type-b", "all"))
    p.add_argument("--space", choices=("cp2", "ch2"), default=None)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    common(p)
    numeric(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="emit a symbolic condition report")
    p.add_argument("tensor", choices=("star-ricci", "ricci"))
    p.add_argument("condition", choices=[k.value for k in ConditionKind])
    p.add_argument("context", choices=("nonhopf", "hopf"))
    p.add_argument("assumptions", nargs="*", metavar="name=value",
                   help="substitutions applied to the report")
    p.add_argument("--pseudo-l", default="0", metavar="EXPR",
                   help="the function L for the pseudo-parallel condition")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="numeric residual table over a radius grid")
    p.add_argument("family")
    p.add_argument("r_min", type=float)
    p.add_argument("r_max", type=float)
    p.add_argument("samples", type=int)
    p.add_argument("condition", choices=[k.value for k in ConditionKind])
    common(p)
    numeric(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("expr", help="exact expression utilities")
    p.add_argument("action", choices=("eval", "solve"))
    p.add_argument("text")
    p.add_argument("args", nargs="*",
                   help="name=value bindings for eval, the unknown for solve")
    common(p)
    p.set_defaults(func=cmd_expr)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if "tol_oracle" in args and not all(math.isfinite(t) and t > 0
                                        for t in (args.tol_oracle, args.tol_witness)):
        print("error: tolerances must be finite and positive", file=sys.stderr)
        return 2
    if getattr(args, "samples", 2) < 2:
        print("error: sample counts must be at least 2", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or a --catalog/--out path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
