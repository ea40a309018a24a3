"""Traced-run tooling: wrappers around each layer's public functions.

``Tracer.install()`` replaces every public function of the ten layer modules
with a wrapper, everywhere the name is looked up: in the defining module, in
every module that imported it by name (``cli.ricci``, ``rational.poly_gcd``,
``catalog.parallel_equations`` ...), in module-level dispatch dicts such as
``cli._CONDITION_BUILDERS``, and in the package namespace.  A few methods are
wrapped on their class.  ``Tracer.remove()`` puts every original back.

Wrappers come in three kinds:

* span -- records (id, parent id, name, start, end, operation index) and
  accumulates calls, total and self time.  Self time is the span's duration
  minus the time covered by its child spans.
* timed -- the same accounting without a span record, for calls too frequent
  to record one by one (``Expr.eval``).
* count -- only counts calls (``Polynomial.__mul__``, ``Expr.__init__``,
  ``poly_gcd``, ...); their time stays in the caller's self time.

Spans and counts are kept in memory and written out by ``dump``.  Only the
traced child imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("symbols", "polynomial", "rational", "parsing", "quadratic",
          "frames", "conditions", "catalog", "proofs", "cli")

# Public functions that are counted but get no span.
COUNT_ONLY = {"polynomial.poly_gcd"}

# Proof pieces whose repeats within one operation duplicate_piece_ratio counts.
PROOF_PIECES = ("proofs.nonhopf_contradiction", "proofs.hopf_branch",
                "proofs.quadratic_analysis", "proofs.type_b_exclusion")

REPORT_BUILDERS = {
    "conditions.parallel_equations": "parallel",
    "conditions.xi_parallel_equations": "xi-parallel",
    "conditions.d_parallel_equations": "d-parallel",
    "conditions.semi_parallel_equations": "semi-parallel",
    "conditions.pseudo_parallel_equations": "pseudo-parallel",
    "conditions.einstein_equations": "einstein",
}

# (name, unit, better, end-to-end metrics it should move as workload:metric)
_SYM = "check-symbolic"
_SWEEP = "sweep-numeric"
_PROVE = "prove-replay"
_SETUP_ALL = [f"{w}:setup_s" for w in (_SYM, _SWEEP, _PROVE)]
PER_LAYER = [
    ("polynomial.mul_calls", "count", "lower",
     [f"{_SYM}:ops_per_s", f"{_PROVE}:ops_per_s", f"{_SWEEP}:setup_s"]),
    ("polynomial.mul_term_pairs", "count", "lower",
     [f"{_SYM}:ops_per_s", f"{_PROVE}:ops_per_s", f"{_SWEEP}:setup_s"]),
    ("polynomial.gcd_calls", "count", "lower",
     [f"{_SYM}:ops_per_s", f"{_PROVE}:ops_per_s", f"{_SWEEP}:setup_s"]),
    ("polynomial.exact_div_calls", "count", "lower",
     [f"{_SYM}:ops_per_s", f"{_PROVE}:ops_per_s", f"{_SWEEP}:setup_s"]),
    ("rational.expr_new", "count", "lower", [f"{_SYM}:ops_per_s"]),
    ("rational.max_terms", "count", "lower", [f"{_SYM}:ops_per_s"]),
    ("rational.substitute_calls", "count", "lower", [f"{_SYM}:ops_per_s"]),
    ("rational.eval_calls", "count", "lower", [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50"]),
    ("rational.eval_self_ms", "ms", "lower", [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50"]),
    ("symbols.derivative_calls", "count", "lower", [f"{_PROVE}:ops_per_s"] + _SETUP_ALL),
    ("parsing.parse_calls", "count", "lower", [f"{_PROVE}:ops_per_s"] + _SETUP_ALL),
    ("parsing.self_ms", "ms", "lower", [f"{_PROVE}:ops_per_s"] + _SETUP_ALL),
    ("quadratic.solve_calls", "count", "lower", [f"{_PROVE}:ops_per_s"] + _SETUP_ALL),
    ("quadratic.self_ms", "ms", "lower", [f"{_PROVE}:ops_per_s"] + _SETUP_ALL),
    ("frames.context_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.curvature_calls", "count", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.ricci_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.star_ricci_closed_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.star_ricci_trace_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.codazzi_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.curvature_operator_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
    ("frames.covariant_derivative_ms", "ms", "lower", [f"{_SYM}:ops_per_s", f"{_SYM}:op_ms_p90"]),
] + [
    (f"conditions.report_ms.{kind}", "ms", "lower", [f"{_SYM}:ops_per_s"])
    for kind in REPORT_BUILDERS.values()
] + [
    ("conditions.entries", "count", "lower", [f"{_SYM}:ops_per_s"]),
    ("conditions.substitute_ms", "ms", "lower", [f"{_SYM}:ops_per_s"]),
    ("catalog.evaluate_calls", "count", "lower",
     [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50", f"{_PROVE}:ops_per_s"]),
    ("catalog.evaluate_us_p50", "us", "lower",
     [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50", f"{_PROVE}:ops_per_s"]),
    ("catalog.sweep_ms", "ms", "lower", [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50"]),
    ("catalog.load_ms", "ms", "lower", [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50"]),
    ("catalog.report_cache_hit_ratio", "1", "higher",
     [f"{_SWEEP}:ops_per_s", f"{_SWEEP}:op_ms_p50", f"{_PROVE}:ops_per_s"]),
    ("proofs.nonhopf_ms", "ms", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.hopf_ms", "ms", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.quadratic_ms", "ms", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.type_b_ms", "ms", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.verify_all_self_ms", "ms", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.piece_calls", "count", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("proofs.duplicate_piece_ratio", "1", "lower", [f"{_PROVE}:ops_per_s", f"{_PROVE}:op_ms_p50"]),
    ("cli.command_ms", "ms", "lower", [f"{_SWEEP}:op_ms_p50"]),
    ("cli.emit_ms", "ms", "lower", [f"{_SWEEP}:op_ms_p50"]),
    ("cli.emit_bytes", "B", "lower", [f"{_SWEEP}:op_ms_p50"]),
    ("setup.parsing.parse_calls", "count", "lower", _SETUP_ALL),
    ("setup.polynomial.mul_calls", "count", "lower", _SETUP_ALL),
    ("setup.rational.expr_new", "count", "lower", _SETUP_ALL),
    ("setup.traced_ms", "ms", "lower", _SETUP_ALL),
    ("trace.ops_ratio", "1", "higher", []),
]

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.op = SETUP_OP          # index of the operation being traced
        self.spans = []             # (id, parent id, name, start, end, op)
        self.calls = Counter()      # (op is setup, name) -> calls
        self.total = Counter()      # (op is setup, name) -> seconds
        self.self_time = Counter()  # (op is setup, name) -> seconds
        self.counts = Counter()     # (op is setup, counter) -> value
        self.max_terms = 0
        self.evaluate_s = []        # durations of evaluate_condition calls
        self.pieces = defaultdict(set)  # op -> distinct (piece, argument)
        self._stack = []            # open frames: [child seconds, span id]
        self._next_id = 0
        self._patches = []          # (owner, attribute or key, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, record, post=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                key = (self.op == SETUP_OP, name)
                self.calls[key] += 1
                self.total[key] += d
                self.self_time[key] += d - frame[0]
                if record:
                    self.spans.append((span_id, parent, name, t0, t1, self.op))
            if post is not None:
                post(args, result, d)
            return result

        return wrapper

    def _count(self, name, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.op == SETUP_OP, name)] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    # -- post hooks -------------------------------------------------------

    def _mul_pairs(self, args, _result):
        a, b = args
        self.counts[(self.op == SETUP_OP, "polynomial.mul_term_pairs")] += len(a.terms) * len(b.terms)

    def _expr_size(self, args, _result):
        e = args[0]
        n = len(e.num.terms) + len(e.den.terms)
        if n > self.max_terms and self.op != SETUP_OP:
            self.max_terms = n

    def _entries(self, _args, result, _d):
        self.counts[(self.op == SETUP_OP, "conditions.entries")] += len(result)

    def _evaluate(self, _args, _result, d):
        if self.op != SETUP_OP:
            self.evaluate_s.append(d)

    def _emit(self, _args, result, _d):
        self.counts[(self.op == SETUP_OP, "cli.emit_bytes")] += len(result.encode("utf-8"))

    def _piece(self, name):
        def post(args, _result, _d):
            self.pieces[self.op].add((name, repr(args[0]) if args else ""))
        return post

    # -- install / remove -------------------------------------------------

    def install(self):
        pkg = importlib.import_module("starricci")
        mods = {layer: importlib.import_module(f"starricci.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    w = self._count(name, obj)
                else:
                    post = None
                    if name in REPORT_BUILDERS:
                        post = self._entries
                    elif name == "catalog.evaluate_condition":
                        post = self._evaluate
                    elif name in PROOF_PIECES:
                        post = self._piece(name)
                    w = self._timed(name, obj, record=True, post=post)
                wrapped[id(obj)] = (obj, w)
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patch(obj, key, hit[1])
        poly, rat = mods["polynomial"].Polynomial, mods["rational"].Expr
        methods = [
            (poly, "__mul__", self._count("polynomial.mul_calls", poly.__mul__, self._mul_pairs)),
            (poly, "exact_div", self._count("polynomial.exact_div_calls", poly.exact_div)),
            (rat, "__init__", self._count("rational.expr_new", rat.__init__, self._expr_size)),
            (rat, "substitute", self._count("rational.substitute_calls", rat.substitute)),
            (rat, "eval", self._timed("rational.eval", rat.eval, record=False)),
            (mods["symbols"].SymbolTable, "derivative",
             self._count("symbols.derivative_calls", mods["symbols"].SymbolTable.derivative)),
            (mods["conditions"].ConditionReport, "substitute",
             self._timed("conditions.substitute", mods["conditions"].ConditionReport.substitute,
                         record=True)),
            (mods["cli"].Report, "emit",
             self._timed("cli.emit", mods["cli"].Report.emit, record=True, post=self._emit)),
        ]
        for cls, attr, w in methods:
            self._patch(cls, attr, w)
        self._hopf_report = mods["catalog"]._hopf_report
        self._cache_before = self._hopf_report.cache_info()

    def _patch(self, owner, attr, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def start_ops(self):
        """Mark the end of set-up: later calls belong to timed operations."""
        self._cache_before = self._hopf_report.cache_info()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over the traced operations (set-up excluded,
        except for the setup.* metrics)."""

        def ms(table, *names, setup=False):
            return sum(table[(setup, n)] for n in names) * 1e3

        def calls(*names, setup=False):
            return sum(self.calls[(setup, n)] + self.counts[(setup, n)] for n in names)

        info = self._hopf_report.cache_info()
        hits = info.hits - self._cache_before.hits
        lookups = hits + info.misses - self._cache_before.misses
        ops = [op for op in self.pieces if op != SETUP_OP]
        piece_calls = calls(*PROOF_PIECES)
        distinct = sum(len(self.pieces[op]) for op in ops)
        m = {
            "polynomial.mul_calls": calls("polynomial.mul_calls"),
            "polynomial.mul_term_pairs": calls("polynomial.mul_term_pairs"),
            "polynomial.gcd_calls": calls("polynomial.poly_gcd"),
            "polynomial.exact_div_calls": calls("polynomial.exact_div_calls"),
            "rational.expr_new": calls("rational.expr_new"),
            "rational.max_terms": self.max_terms,
            "rational.substitute_calls": calls("rational.substitute_calls"),
            "rational.eval_calls": calls("rational.eval"),
            "rational.eval_self_ms": ms(self.self_time, "rational.eval"),
            "symbols.derivative_calls": calls("symbols.derivative_calls"),
            "parsing.parse_calls": calls("parsing.parse_expr"),
            "parsing.self_ms": ms(self.self_time, "parsing.parse_expr"),
            "quadratic.solve_calls": calls("quadratic.solve_quadratic"),
            "quadratic.self_ms": ms(self.self_time, "quadratic.solve_quadratic"),
            "frames.context_ms": ms(self.total, "frames.build_nonhopf_context",
                                    "frames.build_hopf_context"),
            "frames.curvature_calls": calls("frames.curvature"),
            "frames.ricci_ms": ms(self.total, "frames.ricci"),
            "frames.star_ricci_closed_ms": ms(self.total, "frames.star_ricci_closed"),
            "frames.star_ricci_trace_ms": ms(self.total, "frames.star_ricci_trace"),
            "frames.codazzi_ms": ms(self.total, "frames.codazzi_residual"),
            "frames.curvature_operator_ms": ms(self.total, "frames.curvature_operator"),
            "frames.covariant_derivative_ms": ms(self.total, "frames.covariant_derivative_vf",
                                                 "frames.covariant_derivative_t11"),
        }
        for fn, kind in REPORT_BUILDERS.items():
            m[f"conditions.report_ms.{kind}"] = ms(self.total, fn)
        m.update({
            "conditions.entries": calls("conditions.entries"),
            "conditions.substitute_ms": ms(self.total, "conditions.substitute"),
            "catalog.evaluate_calls": calls("catalog.evaluate_condition"),
            "catalog.evaluate_us_p50": (statistics.median(self.evaluate_s) * 1e6
                                        if self.evaluate_s else 0.0),
            "catalog.sweep_ms": ms(self.total, "catalog.sweep"),
            "catalog.load_ms": ms(self.total, "catalog.load_catalog"),
            "catalog.report_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "proofs.nonhopf_ms": ms(self.total, "proofs.nonhopf_contradiction"),
            "proofs.hopf_ms": ms(self.total, "proofs.hopf_branch"),
            "proofs.quadratic_ms": ms(self.total, "proofs.quadratic_analysis"),
            "proofs.type_b_ms": ms(self.total, "proofs.type_b_exclusion"),
            "proofs.verify_all_self_ms": ms(self.self_time, "proofs.verify_all"),
            "proofs.piece_calls": piece_calls,
            "proofs.duplicate_piece_ratio": piece_calls / distinct if distinct else 0.0,
            "cli.command_ms": ms(self.total, "cli.cmd_prove", "cli.cmd_check",
                                 "cli.cmd_sweep", "cli.cmd_expr"),
            "cli.emit_ms": ms(self.total, "cli.emit"),
            "cli.emit_bytes": calls("cli.emit_bytes"),
            "setup.parsing.parse_calls": calls("parsing.parse_expr", setup=True),
            "setup.polynomial.mul_calls": calls("polynomial.mul_calls", setup=True),
            "setup.rational.expr_new": calls("rational.expr_new", setup=True),
        })
        return m

    def dump(self, path) -> None:
        """Write spans, per-name call counts and times as JSON."""
        by_name = {}
        for key in set(self.calls) | set(self.counts):
            setup, name = key
            by_name[f"{'setup:' if setup else ''}{name}"] = {
                "calls": self.calls[key] + self.counts[key],
                "total_ms": self.total[key] * 1e3,
                "self_ms": self.self_time[key] * 1e3,
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": dict(sorted(by_name.items())),
                       "span_fields": ["id", "parent", "name", "start", "end", "op"],
                       "spans": self.spans}, fh)
