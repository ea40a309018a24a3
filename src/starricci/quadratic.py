"""Linear/quadratic solving with symbolic coefficients.

Roots of a quadratic keep the radical opaque: a root is offset + coeff * s
where s is a formal square root of the discriminant.  No radical arithmetic
happens beyond s^2 = discriminant, which is all the solvability analysis
needs.  A QuadraticSolution builds its roots and its solvability condition
only when they are read (cached_property): the proof's elimination reads
the discriminant alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .rational import Expr, ExprError
from .symbols import Symbol


class QuadraticError(ExprError):
    pass


class InconsistentEquationError(QuadraticError):
    """The unknown is absent but the expression is not identically zero."""


@dataclass(frozen=True)
class QuadraticRoot:
    """offset + sqrt_coeff * sqrt(radicand); sqrt_coeff is 0 for linear roots."""

    offset: Expr
    sqrt_coeff: Expr
    radicand: Expr

    def eval(self, bindings: Mapping) -> float:
        rad = self.radicand.eval(bindings) if not self.radicand.is_zero else 0.0
        if rad < 0:
            raise QuadraticError(f"negative discriminant {rad!r}: no real root")
        return self.offset.eval(bindings) + self.sqrt_coeff.eval(bindings) * math.sqrt(rad)


@dataclass(frozen=True)
class QuadraticSolution:
    unknown: Symbol
    degree: int                    # 0 (identically zero), 1 or 2
    coefficients: tuple            # (a, b, c) as Expr, highest first
    discriminant: Expr | None      # b^2 - 4ac for degree 2

    @property
    def is_degenerate(self) -> bool:
        return self.degree == 0

    @cached_property
    def roots(self) -> tuple:
        """QuadraticRoot, 0..2 entries; built on first read."""
        a, b, c = self.coefficients
        if self.degree == 2:
            half = Expr.const(1) / (2 * a)
            offset = -b * half
            disc = self.discriminant
            return QuadraticRoot(offset, half, disc), QuadraticRoot(offset, -half, disc)
        if self.degree == 1:
            zero = Expr.zero()
            return (QuadraticRoot(-c / b, zero, zero),)
        return ()  # degenerate: identically satisfied, every value is a root

    @cached_property
    def solvability_condition(self) -> str | None:
        """The real-root condition for degree 2, else None."""
        if self.degree == 2:
            return f"{self.discriminant.to_text()} >= 0"
        return None

    def residual_parts(self, root: QuadraticRoot) -> tuple[Expr, Expr]:
        """Plug a root back in; returns (rational part, sqrt-coefficient part).

        Both vanish exactly iff the root satisfies the equation whenever the
        formal square root squares to the discriminant.
        """
        a, b, c = self.coefficients
        p, q = root.offset, root.sqrt_coeff
        d = root.radicand
        rational = a * (p * p + q * q * d) + b * p + c
        radical = 2 * a * p * q + b * q
        return rational, radical


def solve_quadratic(e: Expr, unknown: Symbol) -> QuadraticSolution:
    """Solve e = 0 for `unknown`; e must be polynomial of degree <= 2 in it.

    The coefficients and the discriminant are computed, and the errors
    raised, here; the roots and the solvability condition on first read."""
    try:
        coeffs = e.coefficients_in(unknown)
    except ExprError as exc:
        raise QuadraticError(str(exc)) from exc
    deg = max(coeffs) if coeffs else 0
    if deg > 2:
        raise QuadraticError(f"degree {deg} in {unknown.name}: not a quadratic")
    zero = Expr.zero()
    a = coeffs.get(2, zero)
    b = coeffs.get(1, zero)
    c = coeffs.get(0, zero)
    if not a.is_zero:
        return QuadraticSolution(unknown, 2, (a, b, c), b * b - 4 * a * c)
    if not b.is_zero:
        return QuadraticSolution(unknown, 1, (a, b, c), None)
    if c.is_zero:
        return QuadraticSolution(unknown, 0, (a, b, c), None)
    raise InconsistentEquationError(
        f"{unknown.name} does not occur in {e.to_text()} = 0, which is not identically zero"
    )
