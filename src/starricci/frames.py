"""Moving-frame calculus on 3-dimensional real hypersurfaces.

The ambient space is CP^2 or CH^2, so the complex dimension is n = 2 and
the holomorphic sectional curvature c stays a symbol; c = 4 or -4 is
substituted only where a model space is chosen.  Two orthonormal frame
contexts are built, both with e3 = xi (the structure vector field):

* non-Hopf: e1 = U, e2 = phi U, where A xi = alpha xi + beta U with beta
  treated as nonzero; the shape operator has columns
  A U = (gamma, delta, beta), A phiU = (delta, mu, 0), A xi = (beta, 0, alpha);
  its free connection coefficients are kappa1, kappa2, kappa3.
* Hopf: e1 = W, e2 = phi W with A = diag(lambda, nu, alpha) at a point with a
  principal frame; alpha, lambda, nu are derivative-free point values, and
  the free connection coefficients are h1, h2, h3.

Conventions (fixed here, used everywhere):

* the metric is the identity form on frame components;
* a (1,1) tensor M is a matrix with M_ab = M.entry(a, b) = g(M e_b, e_a), so
  column b is M e_b; phi and A follow this index convention;
* the Gauss equation is written once, in curvature_operator, as the frame
  entries g(R(e_i, e_j) e_k, e_l) =
      (c/4)(d_jk d_li - d_ik d_lj + phi_kj phi_li - phi_ki phi_lj
            - 2 phi_ji phi_lk) + A_kj A_li - A_ki A_lj
  (d the Kronecker delta); curvature, ricci and star_ricci_trace contract
  the three operators R(e_i, e_j), i < j, extended by antisymmetry;
* Gamma_ijk = g(nabla_{e_i} e_j, e_k) = ctx.connection.entries[i][j][k];
  both connections follow from one rule, written once, in _frame_context:
  nabla_X xi = phi A X gives Gamma_i3k = g(phi A e_i, e_k), metric
  compatibility gives Gamma_ijk = -Gamma_ikj, and the free coefficients
  Gamma_i12 = g(nabla_{e_i} e1, e2) are fresh function symbols;
* (nabla_X T) Y = nabla_X (T Y) - T (nabla_X Y), written once, in
  covariant_derivative_entry, as the frame entries
      g((nabla_{e_X} T) e_Y, e_P) = e_X(T_PY) + sum_k Gamma_XkP T_kY
                                    - sum_k Gamma_XYk T_Pk;
* the star-Ricci trace form contracts the operator Z -> phi(R(X, phi Y) Z),
  i.e. g(S* X, Y) = (1/2) * trace(Z -> phi(R(X, phi Y) Z)), which agrees
  exactly with the closed form S* = -[(c n / 2) phi^2 + (phi A)^2] at n = 2;
* a sum of products is one accumulation, rational.dot, which builds one
  Polynomial per polynomial entry rather than one per product and partial
  sum: an entry of a matrix product, of T v, of the Leibniz rule (the
  derivative term included), of the contractions in curvature and
  star_ricci_trace and of a derivation op T - T op (conditions), and the
  inner product of two fields.

Sharing (fixed here as well):

* each context is built once per process: build_nonhopf_context and
  build_hopf_context return one shared context each;
* the tensors derived from a context -- the three operators R(e_i, e_j),
  i < j, the Ricci tensor and the closed-form S* -- are computed once per
  context and kept on it; a context made by with_shape_operator starts
  without them and computes its own;
* a context's symbol table is frozen once built, so no command writes a
  shared table: names a command defines go in a scope() of the table.

Note the closed form makes S* symmetric in the Hopf context but *not* in the
non-Hopf one (S* xi = beta mu U - beta delta phiU has no counterpart in
S* U); the asymmetry is genuine and is never silently symmetrized.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Union

from .parsing import parse_expr
from .rational import Expr, dot
from .symbols import DIRECTIONS, Symbol, SymbolTable


class FrameIndex(Enum):
    E1 = 0
    E2 = 1
    E3 = 2

    @property
    def direction(self) -> str:
        return DIRECTIONS[self._value_]  # an attribute; .value is a Python-level property


FRAME_INDICES = (FrameIndex.E1, FrameIndex.E2, FrameIndex.E3)

_Scalar = Union[int, Fraction, Expr]


def _expr(v: _Scalar) -> Expr:
    return v if isinstance(v, Expr) else Expr.const(v)


class VectorField:
    """Components over the orthonormal frame; the metric is the identity."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[_Scalar]):
        comps = tuple(_expr(c) for c in components)
        if len(comps) != 3:
            raise ValueError("a frame vector field has exactly 3 components")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):
        raise AttributeError("VectorField is immutable")

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(a + b for a, b in zip(self, other))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(a - b for a, b in zip(self, other))

    def __neg__(self) -> "VectorField":
        return VectorField(-a for a in self)

    def scale(self, k: _Scalar) -> "VectorField":
        ke = _expr(k)
        return VectorField(ke * a for a in self)

    def dot(self, other: "VectorField") -> Expr:
        return dot((1, a, b) for a, b in zip(self, other))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorField) and other.components == self.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "VectorField(" + ", ".join(c.to_text() for c in self) + ")"

    @staticmethod
    def basis(i: FrameIndex | int) -> "VectorField":
        idx = i.value if isinstance(i, FrameIndex) else i
        return VectorField(1 if j == idx else 0 for j in range(3))


XI = VectorField.basis(2)


def eta(v: VectorField) -> Expr:
    """The dual 1-form of xi: the third frame component."""
    return v[2]


class Tensor11:
    """Type-(1,1) tensor field: 3x3 matrix of Expr; column j is the image of e_j."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[_Scalar]]):
        mat = tuple(tuple(_expr(x) for x in row) for row in rows)
        if len(mat) != 3 or any(len(r) != 3 for r in mat):
            raise ValueError("Tensor11 is a 3x3 matrix")
        object.__setattr__(self, "rows", mat)

    def __setattr__(self, *a):
        raise AttributeError("Tensor11 is immutable")

    def entry(self, i: int, j: int) -> Expr:
        """Component i of the image of e_j, i.e. g(T e_j, e_i)."""
        return self.rows[i][j]

    def column(self, j: FrameIndex | int) -> VectorField:
        idx = j.value if isinstance(j, FrameIndex) else j
        return VectorField(self.rows[i][idx] for i in range(3))

    def apply(self, v: VectorField) -> VectorField:
        x, y, z = v
        return VectorField(dot(((1, a, x), (1, b, y), (1, c, z))) for a, b, c in self.rows)

    def __matmul__(self, other: "Tensor11") -> "Tensor11":
        columns = tuple(zip(*other.rows))
        return Tensor11(
            tuple(dot(((1, x, p), (1, y, q), (1, z, r))) for p, q, r in columns)
            for x, y, z in self.rows
        )

    def __add__(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Tensor11":
        return Tensor11(tuple(-a for a in row) for row in self.rows)

    def scale(self, k: _Scalar) -> "Tensor11":
        ke = _expr(k)
        return Tensor11(tuple(ke * a for a in row) for row in self.rows)

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i] for i in range(3) for j in range(i))

    def trace(self) -> Expr:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def symbols(self) -> frozenset:
        out: set = set()
        for row in self.rows:
            for e in row:
                out |= e.symbols()
        return frozenset(out)

    def substitute(self, bindings) -> "Tensor11":
        return Tensor11(tuple(e.substitute(bindings) for e in row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tensor11) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(e.to_text() for e in row) for row in self.rows)
        return f"Tensor11({body})"

    @staticmethod
    def identity() -> "Tensor11":
        return Tensor11(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))

    @staticmethod
    def zero() -> "Tensor11":
        return Tensor11(tuple(0 for _ in range(3)) for _ in range(3))


class ConnectionTable:
    """entries[i][j][k] = g(nabla_{e_i} e_j, e_k), antisymmetric in (j, k)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        table = tuple(
            tuple(tuple(_expr(x) for x in row) for row in slice_) for slice_ in entries
        )
        object.__setattr__(self, "entries", table)

    def __setattr__(self, *a):
        raise AttributeError("ConnectionTable is immutable")

    def coefficient(self, i: FrameIndex, j: FrameIndex, k: FrameIndex) -> Expr:
        return self.entries[i.value][j.value][k.value]

    def nabla(self, i: FrameIndex, j: FrameIndex | int) -> VectorField:
        """nabla_{e_i} e_j as a vector field."""
        jv = j.value if isinstance(j, FrameIndex) else j
        return VectorField(self.entries[i.value][jv])

    def is_metric_compatible(self) -> bool:
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if not (self.entries[i][j][k] + self.entries[i][k][j]).is_zero:
                        return False
        return True


class FrameContext:
    """A frozen frame: structure tensor, shape operator, connection, curvature c.

    c is the symbol c of the context's table.  The ambient complex dimension
    is 2 throughout (real hypersurface dimension 3).  The table is frozen
    with the context: names a caller adds go in a scope() of it.

    _derived holds the tensors computed from this context, by function (see
    _once_per_context).  A new context, and so one made by
    with_shape_operator, starts without them.
    """

    __slots__ = ("kind", "table", "c", "A", "phi", "connection", "_derived")

    def __init__(self, kind: str, table: SymbolTable, c: Expr, A: Tensor11, phi: Tensor11,
                 connection: ConnectionTable):
        # kind is "non-hopf" | "hopf"
        for name, value in zip(self.__slots__, (kind, table, c, A, phi, connection, {})):
            object.__setattr__(self, name, value)
        table.frozen = True

    def __setattr__(self, *a):
        raise AttributeError("FrameContext is immutable")

    def sym(self, name: str) -> Expr:
        return Expr.from_symbol(self.symbol(name))

    def symbol(self, name: str) -> Symbol:
        s = self.table.get(name)
        if s is None:
            raise KeyError(f"no symbol {name!r} in this context")
        return s

    def parse(self, text: str) -> Expr:
        """text parsed in a scope of the table: a cot(...) it holds is interned
        there, not in the shared table; a D(...) is the table's own symbol."""
        return parse_expr(text, self.table.scope())


def _once_per_context(fn):
    """fn(ctx), computed on the first call for a context and then kept on it."""
    @wraps(fn)
    def once(ctx: FrameContext):
        derived = ctx._derived
        value = derived.get(fn)
        if value is None:
            value = derived[fn] = fn(ctx)
        return value
    return once


def _structure_tensor() -> Tensor11:
    # phi e1 = e2, phi e2 = -e1, phi e3 = 0
    return Tensor11(((0, -1, 0), (1, 0, 0), (0, 0, 0)))


def _frame_context(kind: str, table: SymbolTable, A: Tensor11,
                   free: Iterable[str]) -> FrameContext:
    """The context of shape operator A on the frame {e1, e2 = phi e1, xi}.

    Mints the free coefficients Gamma_i12 = free[i] as function symbols, then
    the curvature constant c, and derives every other connection entry from
    nabla_X xi = phi A X: Gamma_i3k = g(phi A e_i, e_k), Gamma_ijk = -Gamma_ikj.
    """
    hs = [Expr.from_symbol(table.function(name)) for name in free]
    ce = Expr.from_symbol(table.constant("c"))
    phi = _structure_tensor()
    phiA = phi @ A
    zero = Expr.zero()
    slices = []
    for i, h in enumerate(hs):
        xi = phiA.column(i)  # nabla_{e_i} xi
        slices.append(((zero, h, -xi[0]), (-h, zero, -xi[1]), tuple(xi)))
    return FrameContext(kind, table, ce, A, phi, ConnectionTable(slices))


@lru_cache(maxsize=None)
def build_nonhopf_context() -> FrameContext:
    """Frame {U, phiU, xi} with A xi = alpha xi + beta U, beta != 0 locally.

    alpha, beta, gamma, delta, mu and the connection coefficients kappa1..3
    are function symbols; the curvature constant c is a constant symbol.
    Built once per process: every call returns the same context.
    """
    table = SymbolTable()
    al, be, ga, de, mu = (
        Expr.from_symbol(table.function(name))
        for name in ("alpha", "beta", "gamma", "delta", "mu")
    )
    A = Tensor11(((ga, de, be), (de, mu, 0), (be, 0, al)))
    return _frame_context("non-hopf", table, A, ("kappa1", "kappa2", "kappa3"))


@lru_cache(maxsize=None)
def build_hopf_context() -> FrameContext:
    """Principal frame {W, phiW, xi} at a point: A = diag(lambda, nu, alpha).

    alpha, lambda, nu and the curvature constant c are derivative-free
    symbols; the connection coefficients g(nabla_{e_i} W, phi W) are
    unconstrained function symbols h1, h2, h3.  Built once per process:
    every call returns the same context.
    """
    table = SymbolTable()
    al, lam, nu = (Expr.from_symbol(table.constant(name)) for name in ("alpha", "lambda", "nu"))
    A = Tensor11(((lam, 0, 0), (0, nu, 0), (0, 0, al)))
    return _frame_context("hopf", table, A, ("h1", "h2", "h3"))


# -- covariant differentiation ---------------------------------------------

def covariant_derivative_vf(ctx: FrameContext, X: FrameIndex, Y: VectorField) -> VectorField:
    """nabla_X Y by the Leibniz rule over the connection table.

    Scalar components differentiate to formal derivative symbols.
    """
    gamma = ctx.connection.entries[X.value]
    one = Expr.one()
    return VectorField(
        dot(((1, Y[k].derivative(X.direction), one),
             (1, Y[0], gamma[0][k]), (1, Y[1], gamma[1][k]), (1, Y[2], gamma[2][k])))
        for k in range(3)
    )


def covariant_derivative_entry(
    ctx: FrameContext, X: FrameIndex, T: Tensor11, Y: FrameIndex, P: FrameIndex
) -> Expr:
    """g((nabla_{e_X} T) e_Y, e_P), the only place the tensor Leibniz rule is written:

        e_X(T_PY) + sum_k Gamma_XkP T_kY - sum_k Gamma_XYk T_Pk,

    with Gamma_ijk = g(nabla_{e_i} e_j, e_k) and T_ab = T.entry(a, b), as one
    accumulation: dot adds the derivative e_X(T_PY) to the six products.
    """
    x, y, p = X._value_, Y._value_, P._value_  # .value is a Python-level property
    gamma, rows = ctx.connection.entries[x], T.rows
    gy = gamma[y]
    return dot((
        (1, gamma[0][p], rows[0][y]), (1, gamma[1][p], rows[1][y]), (1, gamma[2][p], rows[2][y]),
        (-1, gy[0], rows[p][0]), (-1, gy[1], rows[p][1]), (-1, gy[2], rows[p][2]),
    ), (rows[p][y], DIRECTIONS[x]))


def covariant_derivative_t11(ctx: FrameContext, X: FrameIndex, T: Tensor11) -> Tensor11:
    """(nabla_X T) as a matrix: entry (P, Y) is covariant_derivative_entry(ctx, X, T, Y, P)."""
    return Tensor11(
        tuple(covariant_derivative_entry(ctx, X, T, Y, P) for Y in FRAME_INDICES)
        for P in FRAME_INDICES
    )


# -- curvature and the Ricci tensors ---------------------------------------

def curvature_operator(ctx: FrameContext, X: FrameIndex, Y: FrameIndex) -> Tensor11:
    """R(e_X, e_Y) as a (1,1) tensor (column k is R(e_X, e_Y) e_k).

    The only place the Gauss equation for constant holomorphic curvature c
    is written.  With i = X, j = Y and M_ab = M.entry(a, b) = g(M e_b, e_a),
    entry (l, k) is

        (c/4)(d_jk d_li - d_ik d_lj + phi_kj phi_li - phi_ki phi_lj
              - 2 phi_ji phi_lk) + A_kj A_li - A_ki A_lj,

    with d the Kronecker delta.  Purely algebraic: the result carries no
    formal derivative symbols.
    """
    i, j = X.value, Y.value
    phi, A = ctx.phi.entry, ctx.A.entry
    c4 = ctx.c / 4

    def entry(l: int, k: int) -> Expr:
        delta = (j == k and l == i) - (i == k and l == j)
        gauss = phi(k, j) * phi(l, i) - phi(k, i) * phi(l, j) - 2 * phi(j, i) * phi(l, k)
        return c4 * (gauss + delta) + A(k, j) * A(l, i) - A(k, i) * A(l, j)

    return Tensor11(tuple(entry(l, k) for k in range(3)) for l in range(3))


@_once_per_context
def _curvature_operators(ctx: FrameContext) -> tuple:
    """R[i][j] = R(e_i, e_j) for all i, j, from the three operators with i < j:
    R(e_j, e_i) = -R(e_i, e_j) and R(e_i, e_i) = 0.  Computed once per context."""
    R = [[Tensor11.zero()] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            R[i][j] = curvature_operator(ctx, FRAME_INDICES[i], FRAME_INDICES[j])
            R[j][i] = -R[i][j]
    return tuple(map(tuple, R))


def curvature(ctx: FrameContext, X: VectorField, Y: VectorField, Z: VectorField) -> VectorField:
    """R(X, Y) Z = sum_{i,j} X_i Y_j R(e_i, e_j) Z, contracting curvature_operator.

    With M_ab = M.entry(a, b) for phi and A, the operator R(e_i, e_j) has
    entry (l, k) = g(R(e_i, e_j) e_k, e_l) =
    (c/4)(d_jk d_li - d_ik d_lj + phi_kj phi_li - phi_ki phi_lj
    - 2 phi_ji phi_lk) + A_kj A_li - A_ki A_lj.
    """
    R = _curvature_operators(ctx)
    weights = [(X[i] * Y[j], R[i][j].rows) for i in range(3) for j in range(3)]
    op = Tensor11(
        tuple(dot((1, w, rows[l][k]) for w, rows in weights) for k in range(3))
        for l in range(3)
    )
    return op.apply(Z)


@_once_per_context
def ricci(ctx: FrameContext) -> Tensor11:
    """Ricci tensor: g(S e_j, e_k) = sum_i g(R(e_i, e_j) e_k, e_i).  Computed
    once per context."""
    R = _curvature_operators(ctx)
    return Tensor11(
        tuple(sum((R[i][j].entry(i, k) for i in range(3)), Expr.zero()) for j in range(3))
        for k in range(3)
    )


@_once_per_context
def star_ricci_closed(ctx: FrameContext) -> Tensor11:
    """Closed form S* = -[(c n / 2) phi^2 + (phi A)^2], at n = 2 (c n / 2 = c).
    Computed once per context."""
    phi, A = ctx.phi, ctx.A
    phiA = phi @ A
    return -((phi @ phi).scale(ctx.c) + (phiA @ phiA))


def star_ricci_trace(ctx: FrameContext) -> Tensor11:
    """Trace form: g(S* X, Y) = (1/2) trace(Z -> phi(R(X, phi Y) Z)).

    R(e_j, phi e_k) = sum_m phi_mk R(e_j, e_m) comes from the frame operators,
    and the trace is linear, so g(S* e_j, e_k) = (1/2) sum_m phi_mk t_jm with
    t_jm = trace(phi R(e_j, e_m)).  The contraction convention is fixed by
    exact agreement with star_ricci_closed; both are computed independently
    and compared in the test suite.
    """
    phi = ctx.phi.rows
    R = _curvature_operators(ctx)
    t = [[dot((1, phi[i][l], R[j][m].rows[l][i]) for i in range(3) for l in range(3))
          for m in range(3)] for j in range(3)]
    half_phi = ctx.phi.scale(Fraction(1, 2)).rows
    return Tensor11(
        tuple(dot((1, half_phi[m][k], t[j][m]) for m in range(3)) for j in range(3))
        for k in range(3)
    )


def codazzi_residual(ctx: FrameContext, X: FrameIndex, Y: FrameIndex) -> VectorField:
    """(nabla_X A)Y - (nabla_Y A)X - (c/4)[eta(X) phi Y - eta(Y) phi X - 2 g(phi X, Y) xi].

    Vanishing of this field is the Codazzi constraint; it is exposed as
    equations, never assumed.  Only the two columns read are computed:
    column Y of nabla_X A and column X of nabla_Y A.
    """
    A = ctx.A
    out = VectorField(
        covariant_derivative_entry(ctx, X, A, Y, P) - covariant_derivative_entry(ctx, Y, A, X, P)
        for P in FRAME_INDICES
    )
    c4 = ctx.c / 4
    eta_x = Expr.one() if X is FrameIndex.E3 else Expr.zero()
    eta_y = Expr.one() if Y is FrameIndex.E3 else Expr.zero()
    phiX = ctx.phi.column(X)
    phiY = ctx.phi.column(Y)
    g_phiX_Y = ctx.phi.entry(Y.value, X.value)
    correction = phiY.scale(c4 * eta_x) - phiX.scale(c4 * eta_y) - XI.scale(2 * c4 * g_phiX_Y)
    return out - correction


def with_shape_operator(ctx: FrameContext, A: Tensor11) -> FrameContext:
    """Context with A replaced (testing hook for algebraic operations only;
    the connection is left untouched and no longer matches nabla xi = phi A)."""
    return FrameContext(ctx.kind, ctx.table, ctx.c, A, ctx.phi, ctx.connection)
