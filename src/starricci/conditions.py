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
from typing import Mapping

from .frames import (
    FRAME_INDICES,
    FrameContext,
    FrameIndex,
    Tensor11,
    covariant_derivative_entry,
    curvature_operator,
    ricci,
)
from .rational import Expr


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
        xs = ",".join(i.direction for i in self.x)
        return f"x=({xs}) y={self.y.direction} proj={self.proj.direction}"


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
    """Action of an so(3)-valued operator as a derivation: op.T = op T - T op."""
    return (op @ T) - (T @ op)


def semi_parallel_equations(ctx: FrameContext, T: Tensor11, tensor_name: str = "T") -> ConditionReport:
    """g((R(e_i, e_j) . T) e_k, e_l) over i < j: 27 equations, all algebraic.

    The i > j half is the exact negation (tested, not emitted).
    """
    entries = []
    for X, Y in _PAIRS:
        d = _derivation(curvature_operator(ctx, X, Y), T)
        for K in FRAME_INDICES:
            for L in FRAME_INDICES:
                entries.append(ReportEntry((X, Y), K, L, d.entry(L.value, K.value)))
    return ConditionReport(ConditionKind.SEMI_PARALLEL, tensor_name, tuple(entries))


def pseudo_parallel_equations(
    ctx: FrameContext, T: Tensor11, L: Expr, tensor_name: str = "T"
) -> ConditionReport:
    """g(((R(e_i,e_j) - L (e_i ^ e_j)) . T) e_k, e_l) over i < j.

    L is checked as given: the report with L = 0 coincides with the
    semi-parallel one.
    """
    entries = []
    for X, Y in _PAIRS:
        d = _derivation(curvature_operator(ctx, X, Y), T)
        w = _derivation(_wedge_operator(X, Y), T).scale(L)
        diff = d - w
        for K in FRAME_INDICES:
            for P in FRAME_INDICES:
                entries.append(ReportEntry((X, Y), K, P, diff.entry(P.value, K.value)))
    return ConditionReport(ConditionKind.PSEUDO_PARALLEL, tensor_name, tuple(entries))


# Name of the Einstein constant in einstein_equations' report.
EINSTEIN_SYMBOL = "lambda_e"


def einstein_equations(ctx: FrameContext) -> ConditionReport:
    """S_{jk} - lambda_e delta_{jk} for the Ricci tensor of the context.

    The Einstein constant gets its own symbol, distinct from the principal
    curvature lambda.
    """
    S = ricci(ctx)
    lam_e = Expr.from_symbol(ctx.table.constant(EINSTEIN_SYMBOL))
    entries = []
    for Y in FRAME_INDICES:
        for proj in FRAME_INDICES:
            eq = S.entry(proj.value, Y.value)
            if Y is proj:
                eq = eq - lam_e
            entries.append(ReportEntry((), Y, proj, eq))
    return ConditionReport(ConditionKind.EINSTEIN, "ricci", tuple(entries))
