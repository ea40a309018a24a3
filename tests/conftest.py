import pytest

from starricci.frames import Tensor11, build_nonhopf_context, with_shape_operator
from starricci.rational import Expr


@pytest.fixture(scope="module")
def generic():
    """The non-Hopf frame with a symmetric shape operator of six free symbols."""
    ctx = build_nonhopf_context()
    scope = ctx.table.scope()
    a11, a12, a13, a22, a23, a33 = (
        Expr.from_symbol(scope.constant(name))
        for name in ("a11", "a12", "a13", "a22", "a23", "a33")
    )
    A = Tensor11(((a11, a12, a13), (a12, a22, a23), (a13, a23, a33)))
    return with_shape_operator(ctx, A)
