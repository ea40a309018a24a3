"""Named scalars and their interning table.

Every scalar quantity of the frame calculus (principal curvature functions,
the holomorphic sectional curvature constant, connection coefficients) is an
opaque named symbol.  Three kinds exist:

* ``function``   -- a smooth function on the hypersurface; its directional
  derivatives along frame vectors are fresh ``derivative`` symbols.
* ``constant``   -- derivative-free (curvature constant c, point-spectrum
  eigenvalues, numeric parameters such as the tube radius r).
* ``derivative`` -- the formal derivative ``D(ei, f)`` of a function symbol f
  along the frame direction ei.  Only first-order derivatives exist; the
  derivative of a constant is the zero expression, never a symbol.

A symbol may additionally be an *applied atom* such as ``cot(2*r)``: an
opaque constant whose numeric value is computed from its argument expression.
These are produced by the parser for the model-catalog layer and never take
part in formal differentiation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

FUNCTION = "function"
CONSTANT = "constant"
DERIVATIVE = "derivative"

DIRECTIONS = ("e1", "e2", "e3")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class SymbolError(ValueError):
    """Bad symbol definition or lookup."""


@dataclass(frozen=True, eq=False)
class Symbol:
    """A named scalar.  Identity is the name, unique within a table."""

    name: str
    kind: str
    direction: Optional[str] = None  # derivative kind only
    base: Optional[str] = None       # derivative kind only: name of the function
    fn: Optional[str] = None         # applied atoms only: numeric function name
    arg: object = None               # applied atoms only: argument Expr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Symbol) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __lt__(self, other: "Symbol") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.kind})"


def derivative_symbol(base: Symbol, direction: str) -> Symbol:
    """The formal derivative symbol D(direction, base).

    Only function-kind symbols have derivative symbols; differentiating a
    derivative symbol (second order) is not supported by the calculus.
    Symbol identity is by name, so the result equals any interned copy.
    """
    if direction not in DIRECTIONS:
        raise SymbolError(f"unknown frame direction {direction!r}")
    if base.kind == DERIVATIVE:
        raise SymbolError(
            f"second-order formal derivative of {base.name!r} is not supported"
        )
    if base.kind != FUNCTION:
        raise SymbolError(
            f"derivative symbols exist only for function symbols, not {base.name!r}"
        )
    return Symbol(f"D({direction},{base.name})", DERIVATIVE,
                  direction=direction, base=base.name)


class SymbolTable:
    """Interning table; at most one symbol per name."""

    def __init__(self) -> None:
        self._by_name: dict[str, Symbol] = {}

    def _define(self, sym: Symbol) -> Symbol:
        existing = self._by_name.get(sym.name)
        if existing is not None:
            if existing.kind != sym.kind:
                raise SymbolError(
                    f"symbol {sym.name!r} already defined with kind {existing.kind!r}"
                )
            return existing
        self._by_name[sym.name] = sym
        return sym

    def function(self, name: str) -> Symbol:
        _check_ident(name)
        return self._define(Symbol(name, FUNCTION))

    def constant(self, name: str) -> Symbol:
        _check_ident(name)
        return self._define(Symbol(name, CONSTANT))

    def derivative(self, base: Symbol, direction: str) -> Symbol:
        """The interned derivative symbol D(direction, base)."""
        return self._define(derivative_symbol(base, direction))

    def applied(self, fn: str, arg: object, text: str) -> Symbol:
        """Opaque numeric atom such as cot(2*r); `text` is its canonical name."""
        return self._define(Symbol(text, CONSTANT, fn=fn, arg=arg))

    def get(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return sorted(self._by_name)


def _check_ident(name: str) -> None:
    if not _IDENT_RE.match(name):
        raise SymbolError(f"invalid identifier {name!r}")
