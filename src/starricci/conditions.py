"""Parallelism-type conditions as scalar component equations.

Every condition on a (1,1) tensor T over a frame context is flattened into
the exhaustive, lexicographically ordered list of its scalar projections, so
single projections (the ones a proof consumes) can be addressed directly.

Sign conventions follow the frame module: equations are the raw projections
of (nabla_X T) Y, of (R(X,Y) . T) Z, etc., with no per-entry sign
normalization.

Mirrored entries share one Expr.  Two identities make a report on a
symmetric T (T_ab == T_ba, checked on every call) symmetric in (y, proj):

* over a metric connection (Gamma_ijk = -Gamma_ikj), nabla_X T is symmetric,
  so the nabla conditions build the entries with y <= proj and give each
  (X, proj, y) entry the equation of (X, y, proj);
* a skew operator acts as a derivation on T with a symmetric result, so the
  curvature-derivation conditions build 6 of the 9 entries of each pair.

The connection's metric compatibility and the skewness of the three
R(e_i, e_j) are checked once per context, and e_i ^ e_j is skew by
construction; nothing is assumed.  The Ricci tensor qualifies on both
frames, S* on the Hopf frame only; the non-Hopf S* is asymmetric (see
frames) and takes the full path, building every entry.  The mirror is
exact: a shared Expr is the one the full path builds, in every slot.

A report carries its entries' labels.  They depend only on the report's
shape, the x tuples its entries run over, so each shape's labels are built
once per process (five shapes in all) and shared by every report of that
shape, substituted ones included; ReportEntry.label() reads the same table.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional

from .frames import (
    FRAME_INDICES,
    FrameContext,
    FrameIndex,
    Tensor11,
    _curvature_operators,
    _once_per_context,
    covariant_derivative_entry,
    ricci,
)
from .rational import Expr, dot
from .symbols import SymbolTable


class ConditionKind(Enum):
    PARALLEL = "parallel"
    XI_PARALLEL = "xi-parallel"
    D_PARALLEL = "d-parallel"
    SEMI_PARALLEL = "semi-parallel"
    PSEUDO_PARALLEL = "pseudo-parallel"
    EINSTEIN = "einstein"


class ReportEntry(NamedTuple):
    """One scalar equation: x is () for Einstein, (X,) for nabla conditions,
    (X, Y) for the curvature-derivation conditions."""

    x: tuple
    y: FrameIndex
    proj: FrameIndex
    equation: Expr

    def label(self) -> str:
        return _label(self.x, self.y, self.proj)


@lru_cache(maxsize=None)
def _label(x: tuple, y: FrameIndex, proj: FrameIndex) -> str:
    """ReportEntry.label(), once per (x, y, proj): at most 7 * 9 keys."""
    xs = ",".join(i.direction for i in x)
    return f"x=({xs}) y={y.direction} proj={proj.direction}"


@lru_cache(maxsize=None)
def _labels(xs: tuple) -> tuple:
    """The labels of a report whose entries run over x in xs, then y, then
    proj, read from _label's table: one tuple per report shape, five in all."""
    return tuple(_label(x, y, p) for x in xs for y in FRAME_INDICES for p in FRAME_INDICES)


class ConditionReport:
    """The scalar equations of one condition on one tensor: `entries` holds
    one ReportEntry per projection, in report order, and `labels` their
    labels.  The builders below pass the labels of their report's shape."""

    __slots__ = ("kind", "entries", "labels")

    def __init__(self, kind: ConditionKind, entries: tuple, labels: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *a):
        raise AttributeError("ConditionReport is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, x, y: FrameIndex, proj: FrameIndex) -> ReportEntry:
        key = tuple(x) if isinstance(x, (tuple, list)) else (x,)
        for e in self.entries:
            if e.x == key and e.y is y and e.proj is proj:
                return e
        raise KeyError(f"no entry x={key} y={y} proj={proj}")

    def equations(self) -> tuple:
        return tuple(e.equation for e in self.entries)

    def substitute(self, bindings: Mapping) -> "ConditionReport":
        """The report with bindings substituted: each distinct equation object
        once, so entries that share an equation share its substitution."""
        done = {}  # id(equation) -> substituted equation, for this call only
        entries = []
        for e in self.entries:
            eq = done.get(id(e.equation))
            if eq is None:
                eq = done[id(e.equation)] = e.equation.substitute(bindings)
            entries.append(ReportEntry(e.x, e.y, e.proj, eq))
        return ConditionReport(self.kind, tuple(entries), self.labels)

    def is_zero(self) -> bool:
        return all(e.equation.is_zero for e in self.entries)


@_once_per_context
def _metric_connection(ctx: FrameContext) -> bool:
    """Whether Gamma_ijk = -Gamma_ikj throughout.  Checked once per context."""
    return ctx.connection.is_metric_compatible()


def _is_skew(op: Tensor11) -> bool:
    """Whether op_ij = -op_ji for all i, j (so the diagonal is zero)."""
    rows = op.rows
    return all((rows[i][j] + rows[j][i]).is_zero for i in range(3) for j in range(i + 1))


@_once_per_context
def _skew_curvature(ctx: FrameContext) -> bool:
    """Whether the three R(e_i, e_j), i < j, are skew.  Checked once per context."""
    R = _curvature_operators(ctx)
    return all(_is_skew(R[X._value_][Y._value_]) for X, Y in _PAIRS)


def _nabla_condition(ctx: FrameContext, T: Tensor11, kind: ConditionKind, xs) -> ConditionReport:
    """g((nabla_{e_X} T) e_Y, e_P) over X in xs, then Y, then P.  When nabla_X T
    is symmetric (T symmetric, the connection metric) an entry with P < Y takes
    the equation of (X, P, Y), built earlier in the same X block."""
    mirrored = T.is_symmetric() and _metric_connection(ctx)
    entries = []
    xs = tuple((X,) for X in xs)  # one x tuple per block, shared by its entries
    for x in xs:
        (X,), block = x, len(entries)
        for Y in FRAME_INDICES:
            for P in FRAME_INDICES:
                if mirrored and P._value_ < Y._value_:
                    eq = entries[block + 3 * P._value_ + Y._value_].equation
                else:
                    eq = covariant_derivative_entry(ctx, X, T, Y, P)
                entries.append(ReportEntry(x, Y, P, eq))
    return ConditionReport(kind, tuple(entries), _labels(xs))


def parallel_equations(ctx: FrameContext, T: Tensor11) -> ConditionReport:
    """All 27 projections g((nabla_{e_i} T) e_j, e_k)."""
    return _nabla_condition(ctx, T, ConditionKind.PARALLEL, FRAME_INDICES)


def xi_parallel_equations(ctx: FrameContext, T: Tensor11) -> ConditionReport:
    """The X = xi slice of the parallel condition (9 equations)."""
    return _nabla_condition(ctx, T, ConditionKind.XI_PARALLEL, (FrameIndex.E3,))


def d_parallel_equations(ctx: FrameContext, T: Tensor11) -> ConditionReport:
    """The X in D slice of the parallel condition (18 equations)."""
    return _nabla_condition(ctx, T, ConditionKind.D_PARALLEL, (FrameIndex.E1, FrameIndex.E2))


_PAIRS = (
    (FrameIndex.E1, FrameIndex.E2),
    (FrameIndex.E1, FrameIndex.E3),
    (FrameIndex.E2, FrameIndex.E3),
)


def _wedge_operator(X: FrameIndex, Y: FrameIndex) -> Tensor11:
    """(X ^ Y) Z = g(Y, Z) X - g(Z, X) Y on frame vectors."""
    rows = [[Expr.zero() for _ in range(3)] for _ in range(3)]
    for k in range(3):
        if k == Y.value:
            rows[X.value][k] = rows[X.value][k] + Expr.one()
        if k == X.value:
            rows[Y.value][k] = rows[Y.value][k] - Expr.one()
    return Tensor11(rows)


def _derivation(op: Tensor11, T: Tensor11, symmetric: bool = False) -> Tensor11:
    """Action of an so(3)-valued operator as a derivation: op.T = op T - T op,
    each entry one accumulation of six products.  A caller that has checked
    op skew and T symmetric passes symmetric=True: op.T is then symmetric, and
    entry (j, i), j > i, is the Expr of entry (i, j)."""
    o, t = op.rows, T.rows
    o_cols, t_cols = tuple(zip(*o)), tuple(zip(*t))

    def entry(i: int, j: int) -> Expr:
        oi, ti, tc, oc = o[i], t[i], t_cols[j], o_cols[j]
        return dot(((1, oi[0], tc[0]), (1, oi[1], tc[1]), (1, oi[2], tc[2]),
                    (-1, ti[0], oc[0]), (-1, ti[1], oc[1]), (-1, ti[2], oc[2])))

    if not symmetric:
        return Tensor11(tuple(entry(i, j) for j in range(3)) for i in range(3))
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = entry(i, j)
    return Tensor11(rows)


def _curvature_derivation(
    ctx: FrameContext, T: Tensor11, L: Expr, kind: ConditionKind
) -> ConditionReport:
    """g(((R(e_i,e_j) - L (e_i ^ e_j)) . T) e_k, e_l) over i < j.

    The derivation op -> op.T = op T - T op is linear in op, so
    R(e_i,e_j).T - L ((e_i ^ e_j).T) = (R(e_i,e_j) - L (e_i ^ e_j)).T
    exactly: each pair takes one derivation, of the operator
    R(e_i,e_j) - L (e_i ^ e_j), which is R(e_i,e_j) itself when L is zero.
    That operator is skew when R(e_i,e_j) is, so on a symmetric T each
    derivation is symmetric and builds 6 of its 9 entries.
    """
    R = _curvature_operators(ctx)
    symmetric = T.is_symmetric() and _skew_curvature(ctx)
    entries = []
    for x in _PAIRS:
        X, Y = x
        op = R[X._value_][Y._value_]
        if not L.is_zero:
            op = op - _wedge_operator(X, Y).scale(L)
        d = _derivation(op, T, symmetric).rows
        for K in FRAME_INDICES:
            for P in FRAME_INDICES:
                entries.append(ReportEntry(x, K, P, d[P._value_][K._value_]))
    return ConditionReport(kind, tuple(entries), _labels(_PAIRS))


def semi_parallel_equations(ctx: FrameContext, T: Tensor11) -> ConditionReport:
    """g((R(e_i, e_j) . T) e_k, e_l) over i < j: 27 equations, all algebraic.

    The i > j half is the exact negation (tested, not emitted).
    """
    return _curvature_derivation(ctx, T, Expr.zero(), ConditionKind.SEMI_PARALLEL)


def pseudo_parallel_equations(ctx: FrameContext, T: Tensor11, L: Expr) -> ConditionReport:
    """g(((R(e_i,e_j) - L (e_i ^ e_j)) . T) e_k, e_l) over i < j, L as given:
    with L = 0 the rows are the semi-parallel ones."""
    return _curvature_derivation(ctx, T, L, ConditionKind.PSEUDO_PARALLEL)


# Name of the Einstein constant in einstein_equations' report.
EINSTEIN_SYMBOL = "lambda_e"


def einstein_equations(ctx: FrameContext, scope: Optional[SymbolTable] = None) -> ConditionReport:
    """S_{jk} - lambda_e delta_{jk} for the Ricci tensor of the context.

    The Einstein constant gets its own symbol, distinct from the principal
    curvature lambda.  It is minted in `scope`, a scope of ctx.table (a new
    one by default), never in the context's own table.
    """
    S = ricci(ctx)
    scope = ctx.table.scope() if scope is None else scope
    lam_e = Expr.from_symbol(scope.constant(EINSTEIN_SYMBOL))
    entries = []
    for Y in FRAME_INDICES:
        for proj in FRAME_INDICES:
            eq = S.rows[proj._value_][Y._value_]
            if Y is proj:
                eq = eq - lam_e
            entries.append(ReportEntry((), Y, proj, eq))
    return ConditionReport(ConditionKind.EINSTEIN, tuple(entries), _labels(((),)))


# The kinds whose report is built from T alone.
_BUILDERS = {
    ConditionKind.PARALLEL: parallel_equations,
    ConditionKind.XI_PARALLEL: xi_parallel_equations,
    ConditionKind.D_PARALLEL: d_parallel_equations,
    ConditionKind.SEMI_PARALLEL: semi_parallel_equations,
}


def build_report(
    ctx: FrameContext,
    kind: ConditionKind,
    T: Optional[Tensor11],
    L: Optional[Expr] = None,
    scope: Optional[SymbolTable] = None,
) -> ConditionReport:
    """The `kind` report on T over ctx.  Pseudo-parallel reads the function
    L, zero when L is None; the other kinds ignore it.  Einstein ignores T
    (which may be None): it is the report of the context's Ricci tensor,
    with its constant minted in `scope` (einstein_equations)."""
    if kind is ConditionKind.EINSTEIN:
        return einstein_equations(ctx, scope)
    if kind is ConditionKind.PSEUDO_PARALLEL:
        return pseudo_parallel_equations(ctx, T, Expr.zero() if L is None else L)
    return _BUILDERS[kind](ctx, T)
