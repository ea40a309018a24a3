#!/usr/bin/env python3
"""Condition reports: how a tensor equation becomes scalar projections.

A parallelism-type condition on a (1,1) tensor is flattened into the
exhaustive list of its scalar frame projections.  Only a handful of the 27
parallel-condition projections carry the proof; this demo shows which.
"""

from starricci import (
    Expr,
    build_hopf_context,
    build_nonhopf_context,
    parallel_equations,
    pseudo_parallel_equations,
    semi_parallel_equations,
    star_ricci_closed,
    xi_parallel_equations,
)

print("== parallel condition on S*, non-Hopf frame ==")
ctx = build_nonhopf_context()
report = parallel_equations(ctx, star_ricci_closed(ctx))
nonzero = [e for e in report.entries if not e.equation.is_zero]
print(f"{len(report)} projections, {len(nonzero)} not identically zero:")
for e in nonzero:
    print(f"  {e.label()} : {e.equation}")

print()
print("the xi-slice alone (xi-parallel condition) already contains the")
print("projection that starts the contradiction chain:")
xi_rep = xi_parallel_equations(ctx, star_ricci_closed(ctx))
for e in xi_rep.entries:
    if not e.equation.is_zero:
        print(f"  {e.label()} : {e.equation}")

print()
print("== parallel condition on S*, Hopf frame ==")
hopf = build_hopf_context()
h_rep = parallel_equations(hopf, star_ricci_closed(hopf))
for e in h_rep.entries:
    if not e.equation.is_zero:
        print(f"  {e.label()} : {e.equation}")
print("every surviving projection is a multiple of lambda or nu times")
print("(c + lambda*nu); that product is the entire Hopf-side argument.")

print()
print("the xi-slice, by contrast, is empty of content in the Hopf frame with")
print("derivative-free eigenvalues: on the homogeneous model families the")
print("*-Ricci tensor is xi-parallel even though it is never parallel.")
h_xi = xi_parallel_equations(hopf, star_ricci_closed(hopf))
print("nonzero xi-slice equations in the Hopf frame:",
      sum(1 for e in h_xi.entries if not e.equation.is_zero))

print()
print("== algebraic conditions ==")
semi = semi_parallel_equations(hopf, star_ricci_closed(hopf))
print(f"semi-parallel report: {len(semi)} equations, e.g.")
for e in semi.entries:
    if not e.equation.is_zero:
        print(f"  {e.label()} : {e.equation}")
        break
pseudo = pseudo_parallel_equations(hopf, star_ricci_closed(hopf), Expr.zero())
print("pseudo-parallel with L = 0 equals semi-parallel:",
      pseudo.equations() == semi.equations())
