"""Scaling behavior: relaxation times and mixing times across sizes.

The uniform adjacent-transposition chain has relaxation time growing like
n^3 (log-log slope near 3); the constant-bias exclusion chain mixes on
the order of the area of its region.  Both are measured here at small
sizes with exact eigensolves and exact total-variation scans.
"""

from biasedperm import (
    AdjacentTranspositionChain,
    GeneralizedExclusionChain,
    constant_bias,
    fit_loglog,
    gap_scaling,
    scaling_values,
    uniform_set,
)

sizes = [3, 4, 5, 6]
fit = gap_scaling(lambda n: AdjacentTranspositionChain(uniform_set(n)), sizes)
print("uniform adjacent-transposition relaxation times:")
for n, value in zip(fit.sizes, fit.values):
    print(f"  n={n}: 1/gap = {value:.2f}")
print(f"log-log slope: {fit.slope:.3f} (n^3 scaling shows as ~3)")

print("\nconstant-bias exclusion, p = 0.75, exact mixing times tau(1/4):")
totals = [6, 8, 10]
taus = list(scaling_values(
    lambda total: GeneralizedExclusionChain(constant_bias(0.75), total // 2,
                                            total - total // 2), totals, eps=0.25))
for total, tau in zip(totals, taus):
    print(f"  total={total}: tau = {tau}")
print(f"log-log slope: {fit_loglog(totals, taus).slope:.3f}")
