"""Command-line front end.

Subcommands:

* ``prove {nonhopf,hopf,quadratic,type-b,all}`` -- replay a proof piece,
  or all of them, by one ``proofs.verify_all`` call, and print its summary;
  exit 0 only when every piece reaches its expected verdict.
* ``check TENSOR CONDITION CONTEXT [name=value ...]`` -- emit the symbolic
  condition report, optionally after substituting assumptions.
* ``sweep FAMILY RMIN RMAX SAMPLES CONDITION`` -- numeric residual table
  over a radius grid; its status counts the rows at or below
  catalog.WITNESS_TOL, the threshold of the witness in ``prove all``.
* ``expr {eval,solve} TEXT [ARGS ...]`` -- exact expression utilities.

``prove`` and ``sweep`` take ``--catalog PATH`` in place of the builtin
catalog.  No flag sets a tolerance: catalog.ORACLE_TOL and WITNESS_TOL are
fixed.

Reports exist in two formats (--format text|json); the json form is a
versioned envelope whose payload round-trips through the standard json
module unchanged.  ``_json``, a recursive writer, writes it: its bytes are
those of ``json.dumps(report.to_json_dict(), indent=2, sort_keys=True)``, and
it takes about half the time, since the standard module falls back to its
pure-Python encoder whenever it indents.

Two payload values are lists of rows, written by one row writer,
``_json_rows``: it interleaves the fixed key texts with one column of json
texts per key, and the document is joined once.  A sweep's
payload["rows"] is the catalog.SweepResult that the sweep returned, its
float columns through ``_reprs``.  A check's payload["entries"] is its
ConditionReport, and each cell's text is made once per distinct object
(``_per_object``): an equation is converted and escaped once per Expr, an
x tuple rendered once.  ``Report.to_json_dict`` expands both into dicts,
SweepRow._asdict() per row and one dict per entry.  A sweep's text rows are
the same columns through one % template per row (``_columns``); a check's
text lines join the report's labels, one tuple per report shape, with its
equation texts.

A command line is parsed once: ``_parse_args`` hands the arguments after a
subcommand name straight to that subcommand's parser, where the top-level
parser would parse them and then hand them on to be parsed again.  A value
may begin with "-" (``expr eval -x x=2``, ``sweep ch2-a0 -1e3 2 3
parallel``): a subcommand reads an argument with one leading "-" that names
none of its options as a value.  An option may come before a ``name=value``
list; only such a command line is parsed a second time, intermixed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache
from itertools import chain, repeat
from operator import le
from typing import Optional, Sequence

from . import __version__
from .catalog import (
    CH2,
    CP2,
    Catalog,
    ConditionKind,
    DEFAULT_SAMPLES,
    SPACES,
    SweepResult,
    WITNESS_TOL,
    builtin_catalog,
    load_catalog,
    sweep as run_sweep,
)
# perfbench/test_perfbench.py reads the dispatch table as cli._CONDITION_BUILDERS
from .conditions import _BUILDERS as _CONDITION_BUILDERS
from .conditions import ConditionReport, build_report
from .frames import build_hopf_context, build_nonhopf_context, ricci, star_ricci_closed
from .parsing import ExprSyntaxError, parse_expr
from .rational import Expr, ExprError
from .symbols import DIRECTIONS, Symbol, SymbolTable

SCHEMA = "starricci.report/1"


_TEXT_ROW = "%12.6f  %14.6e  %+14.9f"


def _constant(column) -> bool:
    """Whether column has values that all print as the first: all are ==
    and, when zero, of one sign (0.0 and -0.0 print apart)."""
    return bool(column) and column.count(column[0]) == len(column) and (
        column[0] != 0.0 or len(set(map(math.copysign, repeat(1.0), column))) == 1)


def _reprs(column):
    """repr of each value of column; a constant column's repr is taken once."""
    return repeat(repr(column[0]), len(column)) if _constant(column) else map(repr, column)


def _columns(template: str, sep: str, columns) -> str:
    """One template per row of the float columns, joined by sep, in one %
    call.  The template holds one conversion specifier per column and no
    other %.  Each constant column is formatted once, into the template, so
    the % call formats only the varying columns."""
    head, *specs = template.split("%")  # each specifier with the text after it
    varying = []
    for k, column in enumerate(columns):
        if _constant(column):
            specs[k] = ("%" + specs[k]) % column[0]  # a float's text holds no %
        else:
            specs[k] = "%" + specs[k]
            varying.append(column)
    values = tuple(chain.from_iterable(zip(*varying)))
    return sep.join([head + "".join(specs)] * len(columns[0])) % values


_json_str = json.encoder.encode_basestring_ascii


def _per_object(f, values) -> list:
    """[f(v) for v in values], with f called once per distinct object."""
    done, out = {}, []
    for v in values:
        cell = done.get(id(v))
        if cell is None:
            cell = done[id(v)] = f(v)
        out.append(cell)
    return out


# the json text of the direction of FrameIndex i, at i._value_
_DIRECTION_CELLS = tuple(map(_json_str, DIRECTIONS))


def _json_rows(nl: str, keys: tuple, columns, out: list) -> None:
    """Append to out the json text of a list of dicts with the sorted keys
    `keys`, starting on the line nl: columns[k] holds the json text of key
    k's value in each dict.  The fixed key texts and the cells go into out
    as they are, to be joined once with the rest of the document."""
    heads = [f",{nl}    {_json_str(key)}: " for key in keys]
    heads[0] = f"{nl}  {{" + heads[0][1:]
    start = len(out)
    out += chain.from_iterable(zip(
        *chain.from_iterable(zip(map(repeat, heads), columns)), repeat(nl + "  },")))
    out[start] = "[" + out[start]  # a sweep and a report have at least one row
    out[-1] = nl + "  }"  # the last row takes no ','
    out.append(nl + "]")


def _json_text(value, nl: str) -> str:
    out: list = []
    _json(value, nl, out)
    return "".join(out)


def _entry_rows(report: ConditionReport, nl: str, out: list) -> None:
    """_json_rows of the report's entries.  A cell's text is made once per
    distinct object: an equation is converted and escaped once per Expr."""
    xs, ys, projs, equations = zip(*report.entries)
    _json_rows(nl, ("equation", "proj", "x", "y"), (
        _per_object(lambda e: _json_str(e.to_text()), equations),
        [_DIRECTION_CELLS[i._value_] for i in projs],
        _per_object(lambda x: _json_text([i.direction for i in x], nl + "    "), xs),
        [_DIRECTION_CELLS[i._value_] for i in ys]), out)


def _json(value, nl: str, out: list) -> None:
    """Append to out the text of value in json.dumps(indent=2, sort_keys=True),
    where nl is the newline and indent of the line value starts on."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:  # bool before int
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else
                   "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):  # str keys: _json_str rejects any other
            out += (sep, _json_str(key), ": ")
            _json(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif value.__class__ is SweepResult:  # payload["rows"]; before tuple
        _json_rows(nl, ("lam_nu_plus_c", "max_residual", "r"), (
            _reprs(value.lam_nu_plus_c), _reprs(value.max_residuals), _reprs(value.radii)), out)
    elif value.__class__ is ConditionReport:  # payload["entries"]
        _entry_rows(value, nl, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _expand(value):
    """A payload value as the json module takes it: a dict per sweep row or
    report entry."""
    if value.__class__ is SweepResult:
        return [row._asdict() for row in value.rows]
    if value.__class__ is ConditionReport:
        return [{"x": [i.direction for i in e.x], "y": e.y.direction,
                 "proj": e.proj.direction, "equation": e.equation.to_text()}
                for e in value.entries]
    return value


class Report:
    """One command's result: its status, its json payload and its text lines."""

    __slots__ = ("command", "status", "payload", "catalog_version", "text_lines")

    def __init__(self, command: str, status: str, payload: dict,
                 catalog_version: Optional[int] = None, text_lines: Optional[list] = None):
        self.command = command
        self.status = status
        self.payload = payload
        self.catalog_version = catalog_version
        self.text_lines = [] if text_lines is None else text_lines

    def _envelope(self, payload: dict) -> dict:
        return {
            "schema": SCHEMA,
            "artifact_version": __version__,
            "catalog_version": self.catalog_version,
            "command": self.command,
            "status": self.status,
            "payload": payload,
        }

    def to_json_dict(self) -> dict:
        return self._envelope({key: _expand(value) for key, value in self.payload.items()})

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            out: list = []
            _json(self._envelope(self.payload), "\n", out)
            out.append("\n")
            return "".join(out)
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
        return load_catalog(args.catalog)
    return builtin_catalog()


# -- prove -------------------------------------------------------------------

def cmd_prove(args) -> int:
    # only prove loads the proof layer, and reads it at each call
    from .proofs import ProofError, verdict, verify_all

    cat = _catalog(args)
    command = f"prove {args.target}"
    spaces = (SPACES[args.space.upper()],) if args.space else (CP2, CH2)
    try:
        summary = verify_all(args.target, spaces, samples=args.samples, catalog=cat)
    except ProofError as exc:
        _write(Report(command, f"FAILED: {exc}", {}, cat.version), args)
        return 1
    json_out = args.format == "json"  # each format builds only what it prints
    _write(Report(command, verdict(summary.ok, args.target),
                  summary.to_payload() if json_out else {}, cat.version,
                  None if json_out else summary.text_lines()), args)
    return 0 if summary.ok else 1


# -- check -------------------------------------------------------------------

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
    kind = ConditionKind(args.condition)
    if args.pseudo_l is not None and kind is not ConditionKind.PSEUDO_PARALLEL:
        raise ValueError(f"--pseudo-l applies only to the pseudo-parallel condition, "
                         f"not {kind.value}")
    names = ctx.table.scope()  # the context's names and this command's
    try:
        tensor = star_ricci_closed(ctx) if args.tensor == "star-ricci" else ricci(ctx)
        L = (None if args.pseudo_l is None
             else parse_expr(args.pseudo_l, names, define_missing=True))
        report = build_report(ctx, kind, tensor, L, names)
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
            payload["entries"] = report
            lines = []
        else:  # one text per distinct equation object: mirrored entries share theirs
            lines = [f"{args.tensor} {kind.value} on the {args.context} frame: "
                     f"{len(report.entries)} equations",
                     *map("  {} : {}".format, report.labels,
                          _per_object(Expr.to_text, [e.equation for e in report.entries]))]
        _write(Report(f"check {args.tensor} {kind.value} {args.context}", "ok",
                      payload, None, lines), args)
        return 0
    finally:
        names.clear()  # frees the scope and its symbols without the cyclic gc


# -- sweep -------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cat = _catalog(args)
    fam = cat.get(args.family)
    kind = ConditionKind(args.condition)
    result = run_sweep(fam, args.r_min, args.r_max, args.samples, kind)
    below = sum(map(le, result.max_residuals, repeat(WITNESS_TOL)))
    payload = {
        "family": fam.family_id,
        "space": fam.space.name,
        "condition": kind.value,
        "rows_below_witness_tol": below,
    }
    if args.format == "json":  # each format builds only what it prints
        payload["rows"] = result
        lines = []
    else:
        lines = [f"family {fam.family_id} ({fam.description})",
                 f"{'r':>12}  {'max residual':>14}  {'lambda*nu + c':>14}",
                 _columns(_TEXT_ROW, "\n", (result.radii, result.max_residuals,
                                            result.lam_nu_plus_c))]  # the whole row block
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
    from .quadratic import solve_quadratic  # only expr solve loads the quadratic layer

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

_DASH_VALUE = re.compile(r"-[^-]")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument with one leading "-" that names
    none of its options, such as the expression -x, -half or the radius
    -1e3, is a value.  argparse alone takes only numbers such as -1 as
    values, and reads -half as -h with the argument "alf"."""

    def _parse_optional(self, arg_string):
        if _DASH_VALUE.match(arg_string) and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


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

    def numeric(p):  # the flag of the commands that evaluate catalog families
        p.add_argument("--catalog", metavar="PATH", default=None,
                       help="family catalog file replacing the builtin one")

    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_CommandParser)

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
    p.add_argument("--pseudo-l", default=None, metavar="EXPR",
                   help="the function L for the pseudo-parallel condition "
                        "(default 0); an error with any other condition")
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

    parser.commands = sub.choices  # subcommand name -> its parser, for _parse_args
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with one parse of a subcommand's arguments.

    The top-level parser parses argv and hands what follows the subcommand
    name to that subcommand's parser, which parses it again.  When argv
    starts with a subcommand name, its parser parses the rest directly into
    Namespace(cmd=name), and leftover arguments get the top-level parser's
    error, in parse_args' words.  Every other argv (none, -h, --version, an
    unknown name) goes through the top-level parser.

    Where it accepts more than parse_args: an option may come before a
    name=value list (``check ricci parallel nonhopf --format json delta=0``),
    which parse_args leaves over because the list's nargs="*" positional
    has already matched nothing.  Only when the one-level parse leaves
    arguments over does an intermixed parse run; its result stands if it
    leaves none, else the one-level parse's leftovers are the error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
    if extra:
        args, rest = command.parse_known_intermixed_args(argv[1:], argparse.Namespace(cmd=argv[0]))
        if rest:
            parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
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
