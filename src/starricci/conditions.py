"""Parallelism-type conditions as scalar component equations.

Every condition on a (1,1) tensor T over a frame context is flattened into
the exhaustive, lexicographically ordered list of its scalar projections, so
single projections (the ones a proof consumes) can be addressed directly.

Sign conventions follow the frame module: equations are the raw projections
of (nabla_X T) Y, of (R(X,Y) . T) Z, etc., with no per-entry sign
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, Optional

from .frames import (
    FRAME_INDICES,
    FrameContext,
    FrameIndex,
    Tensor11,
    _curvature_operators,
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


@dataclass(frozen=True)
class ReportEntry:
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


@dataclass(frozen=True)
class ConditionReport:
    kind: ConditionKind
    tensor_name: str
    entries: tuple

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
        return ConditionReport(
            self.kind,
            self.tensor_name,
            tuple(
                ReportEntry(e.x, e.y, e.proj, e.equation.substitute(bindings))
                for e in self.entries
            ),
        )

    def is_zero(self) -> bool:
        return all(e.equation.is_zero for e in self.entries)


def _nabla_condition(
    ctx: FrameContext, T: Tensor11, kind: ConditionKind, xs, tensor_name: str
) -> ConditionReport:
    entries = tuple(
        ReportEntry((X,), Y, proj, covariant_derivative_entry(ctx, X, T, Y, proj))
        for X in xs
        for Y in FRAME_INDICES
        for proj in FRAME_INDICES
    )
    return ConditionReport(kind, tensor_name, entries)


def parallel_equations(ctx: FrameContext, T: Tensor11, tensor_name: str = "T") -> ConditionReport:
    """All 27 projections g((nabla_{e_i} T) e_j, e_k)."""
    return _nabla_condition(ctx, T, ConditionKind.PARALLEL, FRAME_INDICES, tensor_name)


def xi_parallel_equations(ctx: FrameContext, T: Tensor11, tensor_name: str = "T") -> ConditionReport:
    """The X = xi slice of the parallel condition (9 equations)."""
    return _nabla_condition(
        ctx, T, ConditionKind.XI_PARALLEL, (FrameIndex.E3,), tensor_name
    )


def d_parallel_equations(ctx: FrameContext, T: Tensor11, tensor_name: str = "T") -> ConditionReport:
    """The X in D slice of the parallel condition (18 equations)."""
    return _nabla_condition(
        ctx, T, ConditionKind.D_PARALLEL, (FrameIndex.E1, FrameIndex.E2), tensor_name
    )


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


def _derivation(op: Tensor11, T: Tensor11) -> Tensor11:
    """Action of an so(3)-valued operator as a derivation: op.T = op T - T op,
    each entry one accumulation of six products."""
    o, t = op.rows, T.rows
    o_cols, t_cols = tuple(zip(*o)), tuple(zip(*t))
    return Tensor11(
        tuple(
            dot(((1, oi[0], tc[0]), (1, oi[1], tc[1]), (1, oi[2], tc[2]),
                 (-1, ti[0], oc[0]), (-1, ti[1], oc[1]), (-1, ti[2], oc[2])))
            for tc, oc in zip(t_cols, o_cols)
        )
        for oi, ti in zip(o, t)
    )


def semi_parallel_equations(ctx: FrameContext, T: Tensor11, tensor_name: str = "T") -> ConditionReport:
    """g((R(e_i, e_j) . T) e_k, e_l) over i < j: 27 equations, all algebraic.

    The i > j half is the exact negation (tested, not emitted).
    """
    R = _curvature_operators(ctx)
    entries = []
    for X, Y in _PAIRS:
        d = _derivation(R[X._value_][Y._value_], T).rows
        for K in FRAME_INDICES:
            for L in FRAME_INDICES:
                entries.append(ReportEntry((X, Y), K, L, d[L._value_][K._value_]))
    return ConditionReport(ConditionKind.SEMI_PARALLEL, tensor_name, tuple(entries))


def pseudo_parallel_equations(
    ctx: FrameContext, T: Tensor11, L: Expr, tensor_name: str = "T"
) -> ConditionReport:
    """g(((R(e_i,e_j) - L (e_i ^ e_j)) . T) e_k, e_l) over i < j.

    The derivation op -> op.T = op T - T op is linear in op, so
    R(e_i,e_j).T - L ((e_i ^ e_j).T) = (R(e_i,e_j) - L (e_i ^ e_j)).T
    exactly: each pair takes one derivation, of the operator
    R(e_i,e_j) - L (e_i ^ e_j), which is R(e_i,e_j) itself when L is zero.
    L is checked as given: the report with L = 0 coincides with the
    semi-parallel one.
    """
    R = _curvature_operators(ctx)
    entries = []
    for X, Y in _PAIRS:
        op = R[X._value_][Y._value_]
        if not L.is_zero:
            op = op - _wedge_operator(X, Y).scale(L)
        d = _derivation(op, T).rows
        for K in FRAME_INDICES:
            for P in FRAME_INDICES:
                entries.append(ReportEntry((X, Y), K, P, d[P._value_][K._value_]))
    return ConditionReport(ConditionKind.PSEUDO_PARALLEL, tensor_name, tuple(entries))


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
    return ConditionReport(ConditionKind.EINSTEIN, "ricci", tuple(entries))


# The kinds whose report is built from T and its name alone.
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
    tensor_name: str,
    L: Optional[Expr] = None,
    scope: Optional[SymbolTable] = None,
) -> ConditionReport:
    """The `kind` report on T over ctx.  Pseudo-parallel needs the function
    L; the other kinds ignore it.  Einstein ignores T (which may be None)
    and tensor_name: it is the report of the context's Ricci tensor, with
    its constant minted in `scope` (einstein_equations)."""
    if kind is ConditionKind.EINSTEIN:
        return einstein_equations(ctx, scope)
    if kind is ConditionKind.PSEUDO_PARALLEL:
        return pseudo_parallel_equations(ctx, T, L, tensor_name)
    return _BUILDERS[kind](ctx, T, tensor_name)
