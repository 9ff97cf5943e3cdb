#!/usr/bin/env python3
"""Equal-area partitions of the sphere and sampling nodes.

Builds the band-and-wedge partition for a few region counts, checks its
defining properties (equal measures, symmetric wedge counts, cap-radius
scaling), and exports the JSON/CSV artifacts.
"""

import math

import numpy as np

from spheredecon import SpherePoint, build_partition, pick_nodes, region_measure
from spheredecon.sphere_geometry import write_nodes_csv, write_partition_json

print("Equal-area partition of S^2")
print("=" * 60)

for n in (50, 100, 500, 2000):
    p = build_partition(n)
    measures = np.array([region_measure(r) for r in p.regions])
    print(f"\nN = {n}")
    print(f"  polar cap angle theta0      : {p.theta0:.6f} rad")
    print(f"  latitude bands s            : {p.s}")
    print(f"  wedge counts ell            : {p.ell if n <= 100 else '(25, ..., 25)'}")
    print(f"  max |measure - 1/N| * N     : {np.max(np.abs(measures * n - 1)):.2e}")
    print(f"  enclosing cap radius * N^1/2: {p.max_cap_radius * math.sqrt(n):.3f}")
    print(f"  inscribed cap radius * N^1/2: {p.min_inscribed_radius * math.sqrt(n):.3f}")

print("\nEvery region has measure exactly 1/N and shrinks like N^{-1/2},")
print("so one point per region forms a Marcinkiewicz-Zygmund family.")

p = build_partition(400)
fam = pick_nodes(p)  # deterministic area-center nodes
write_partition_json("partition_400.json", p)
write_nodes_csv("nodes_400.csv", fam)
print("\nwrote partition_400.json and nodes_400.csv")

fam_rand = pick_nodes(p, rule="random_in_region", seed=7)
inside = all(
    r.contains(SpherePoint(t, f)) for r, (t, f) in zip(p.regions, fam_rand.nodes.tolist())
)
print(f"random-in-region nodes stay inside their regions: {inside}")
