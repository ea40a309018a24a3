#!/usr/bin/env python3
"""End-to-end replay of the non-existence argument.

The chain: (1) on the open set where the structure vector field is not
principal, three projections of the parallel condition force delta = mu = 0
and then c = 0, a contradiction, so the hypersurface is Hopf; (2) in a
principal frame the condition forces c + lambda*nu = 0 with lambda*nu != 0;
(3) eliminating lambda yields a quadratic whose solutions make the principal
curvatures constant, pointing at the type-B tube families; (4) those
families keep lambda*nu + c = +-3, never 0.  Hence no such hypersurface
exists in either plane.
"""

from starricci import (
    CH2,
    CP2,
    hopf_branch,
    nonhopf_contradiction,
    quadratic_analysis,
    quadratic_elimination,
    type_b_exclusion,
    verify_all,
)
from starricci.proofs import verdict

print(nonhopf_contradiction().to_text())
print()
print(hopf_branch().to_text())
print()
elimination = quadratic_elimination()
for space in (CP2, CH2):
    print(quadratic_analysis(space, elimination).to_text())
    print()
for space in (CP2, CH2):
    print(type_b_exclusion(space).to_text())

print()
summary = verify_all()
print(f"witness: min over families of the max parallel residual "
      f"= {summary.witness_min_residual:.4e} (> {summary.witness_tol:g})")
print(verdict(summary.ok))
