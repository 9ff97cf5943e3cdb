#!/usr/bin/env python3
"""Marcinkiewicz-Zygmund frame bounds, measured and refined.

For a fixed polynomial degree, the weighted sampling matrix over a partition
family has extreme squared singular values (A, B); the family is MZ when
0 < A <= 1 <= B.  Doubling the region count drives epsilon = max(1-A, B-1)
toward 0, and noiseless bandlimited signals are then recovered exactly.
"""

import numpy as np

from spheredecon import (
    CoefficientVector,
    build_partition,
    filtered_singular_values,
    find_family_size,
    identity_multipliers,
    lsq_solve,
    mz_constants,
    pick_nodes,
    random_poly,
    sample_at,
    simulate,
)
from spheredecon.harmonics import num_coeffs

m = 6
print(f"Frame bounds for polynomial degree m = {m} (dimension {num_coeffs(m)})")
print("=" * 60)

print(f"\n{'N':>6} {'A':>8} {'B':>8} {'epsilon':>9}")
for mult in (2, 4, 8, 16, 32):
    n = mult * num_coeffs(m)
    fam = pick_nodes(build_partition(n))
    c = mz_constants(fam, m)
    print(f"{n:6d} {c.A:8.4f} {c.B:8.4f} {c.epsilon:9.4f}")

partition, fam, const, history = find_family_size(m, eps_target=0.25)
print(f"\ndoubling search for epsilon <= 0.25: history {history}")
print(f"certified family: N = {partition.N}, A = {const.A:.4f}, B = {const.B:.4f}")

rng = np.random.default_rng(12)
ratios = []
for _ in range(300):
    coeffs = rng.standard_normal(num_coeffs(m))
    coeffs /= np.linalg.norm(coeffs)
    q = CoefficientVector(m, coeffs)
    ratios.append(float(np.sum(fam.weights * sample_at(q, fam.nodes) ** 2)))
print(f"300 random unit polynomials: sampled energy in "
      f"[{min(ratios):.4f}, {max(ratios):.4f}] within [A, B]")

truth = random_poly(m, sigma=0.0, seed=4)
ms = simulate(truth, identity_multipliers(m), fam, beta=0.0)
report = lsq_solve(identity_multipliers(m), fam, m, ms.y)
rel = np.linalg.norm(report.solution.coeffs - truth.coeffs) / truth.l2_norm()
print(f"\nnoiseless recovery of a degree-{m} polynomial from {partition.N} samples:")
print(f"  relative coefficient error = {rel:.2e}")
sigma_max, sigma_min = filtered_singular_values(identity_multipliers(m), fam, m)
print(f"  sampling-matrix frame bounds sigma_min^2 = {sigma_min ** 2:.4f}, "
      f"sigma_max^2 = {sigma_max ** 2:.4f}")
