"""Points, regions and the explicit equal-area partition of the 2-sphere.

The sphere carries the probability measure (total mass 1) and the angular
distance, so the diameter is pi.  ``build_partition`` implements the
band-and-wedge construction that splits S^2 into N regions of measure
exactly 1/N: a polar cap of 25 wedges at each pole and s latitude bands in
between, each band cut into an integer number of equal wedges by a rounding
sequence.  Placing one node in each region (any interior point) yields a
Marcinkiewicz-Zygmund family with weights 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SpherePoint",
    "Region",
    "EqualAreaPartition",
    "MzFamily",
    "geodesic_distance",
    "build_rounding_sequence",
    "build_partition",
    "region_measure",
    "pick_nodes",
    "nodes_to_arrays",
    "write_nodes_csv",
    "partition_to_json",
    "write_partition_json",
]


@dataclass(frozen=True)
class SpherePoint:
    """Point on S^2: colatitude theta in [0, pi], longitude phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def geodesic_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Angular distance arccos(<u_p, u_q>) in [0, pi].

    The inner product is clamped to [-1, 1] to absorb rounding.
    """
    dot = float(np.dot(p.unit_vector(), q.unit_vector()))
    return math.acos(max(-1.0, min(1.0, dot)))


@dataclass(frozen=True)
class Region:
    """Colatitude band x longitude wedge [theta_lo, theta_hi] x [phi_lo, phi_hi]."""

    theta_lo: float
    theta_hi: float
    phi_lo: float
    phi_hi: float
    band_index: int
    wedge_index: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_lo < self.theta_hi <= math.pi):
            raise ValueError("need 0 <= theta_lo < theta_hi <= pi")
        if not (0.0 <= self.phi_lo < self.phi_hi <= 2.0 * math.pi + 1e-15):
            raise ValueError("need 0 <= phi_lo < phi_hi <= 2*pi")

    def contains(self, p: SpherePoint) -> bool:
        """Membership with closed theta bounds and half-open [phi_lo, phi_hi).

        Since phi < 2*pi by the SpherePoint invariant, the half-open rule
        tiles the sphere without gaps or double counting of wedge seams.
        """
        return (
            self.theta_lo <= p.theta <= self.theta_hi
            and self.phi_lo <= p.phi < self.phi_hi
        )

    def area_center(self) -> SpherePoint:
        """Node at the area-median colatitude and mid longitude."""
        ct = 0.5 * (math.cos(self.theta_lo) + math.cos(self.theta_hi))
        phi = 0.5 * (self.phi_lo + self.phi_hi)
        return SpherePoint(math.acos(max(-1.0, min(1.0, ct))), phi % (2.0 * math.pi))


def region_measure(r: Region) -> float:
    """Probability measure (cos theta_lo - cos theta_hi)(phi_hi - phi_lo) / (4*pi)."""
    return (
        (math.cos(r.theta_lo) - math.cos(r.theta_hi))
        * (r.phi_hi - r.phi_lo)
        / (4.0 * math.pi)
    )


def _enclosing_cap_radius(r: Region) -> float:
    """Radius of a small spherical cap containing the region.

    Polar regions are covered by the cap around their pole; other regions by
    the cap centered at the box midpoint, whose farthest region point is a
    corner or a critical point on a meridian edge.
    """
    if r.theta_lo == 0.0:
        return r.theta_hi
    if r.theta_hi == math.pi:
        return math.pi - r.theta_lo
    tc = 0.5 * (r.theta_lo + r.theta_hi)
    pc = 0.5 * (r.phi_lo + r.phi_hi)
    center = SpherePoint(tc, pc % (2.0 * math.pi))
    best = 0.0
    for phi in (r.phi_lo, r.phi_hi):
        dphi = abs(phi - pc)
        for theta in (r.theta_lo, r.theta_hi):
            cosd = math.cos(tc) * math.cos(theta) + math.sin(tc) * math.sin(
                theta
            ) * math.cos(dphi)
            best = max(best, math.acos(max(-1.0, min(1.0, cosd))))
        # critical colatitude on the meridian edge (only matters for very
        # wide wedges where cos(dphi) < 0)
        psi = math.atan2(math.sin(tc) * math.cos(dphi), math.cos(tc))
        tstar = psi + math.pi
        if r.theta_lo < tstar < r.theta_hi:
            q = SpherePoint(tstar, phi % (2.0 * math.pi))
            best = max(best, geodesic_distance(center, q))
    return best


def _inscribed_cap_radius(r: Region) -> float:
    """Radius of a spherical cap centered at the area center inside the region."""
    c = r.area_center()
    rad = min(c.theta - r.theta_lo, r.theta_hi - c.theta)
    half_wedge = 0.5 * (r.phi_hi - r.phi_lo)
    if half_wedge < math.pi / 2:
        rad = min(rad, math.asin(math.sin(c.theta) * math.sin(half_wedge)))
    if r.theta_lo == 0.0:
        rad = min(rad, r.theta_hi - c.theta)
    if r.theta_hi == math.pi:
        rad = min(rad, c.theta - r.theta_lo)
    return max(rad, 0.0)


@dataclass(frozen=True)
class EqualAreaPartition:
    """The N-region equal-area partition with its construction parameters.

    ``ell`` holds the wedge counts ell_0 .. ell_{s+1} (ell_0 = ell_{s+1} = 25)
    and ``theta_bounds`` the band boundaries theta_{-1} = 0 .. theta_{s+1} = pi.
    """

    N: int
    theta0: float
    s: int
    delta_theta: float
    ell: tuple
    theta_bounds: tuple
    regions: tuple
    max_cap_radius: float
    min_inscribed_radius: float


def build_rounding_sequence(y: Sequence[float], symmetric: bool = True) -> list[int]:
    """Integer sequence ell tracking y with half-integer prefix control.

    Requires odd length and an integer total.  Guarantees:
    sum(ell) == sum(y); |y_1-ell_1| = |y_s-ell_s| <= 1/2; |y_i-ell_i| <= 1
    for interior i; every prefix sum of y-ell lies in [-1/2, 1/2]; and ell
    is symmetric whenever y is and the flag is set.

    Construction: cumulative rounding ell_k = round(S_k) - round(S_{k-1})
    (round half to even) on the first half, mirrored to the second half,
    middle entry fixed by the exact total.
    """
    y = [float(v) for v in y]
    s = len(y)
    if s % 2 == 0 or s == 0:
        raise ValueError(f"length must be odd and positive, got {s}")
    total_f = math.fsum(y)
    total = round(total_f)
    if abs(total_f - total) > 1e-9 * max(1.0, abs(total_f)):
        raise ValueError(f"sum of y must be an integer, got {total_f!r}")
    if symmetric:
        for i in range(s // 2):
            if abs(y[i] - y[s - 1 - i]) > 1e-9 * max(1.0, abs(y[i])):
                raise ValueError("symmetric rounding requested but y is not symmetric")
    if s == 1:
        return [total]
    if not symmetric:
        prefixes = np.round(np.cumsum(y)).astype(int)
        ell = np.diff(np.concatenate([[0], prefixes]))
        ell[-1] = total - int(prefixes[-2])
        return [int(v) for v in ell]
    half = s // 2
    prefix = 0.0
    ell = [0] * s
    rounded_prev = 0
    for i in range(half):
        prefix += y[i]
        rounded = round(prefix)
        ell[i] = rounded - rounded_prev
        ell[s - 1 - i] = ell[i]
        rounded_prev = rounded
    ell[half] = total - 2 * rounded_prev
    return ell


def _largest_odd_leq(x: float) -> int:
    s = math.floor(x)
    return s if s % 2 == 1 else s - 1


def build_partition(N: int) -> EqualAreaPartition:
    """Equal-area partition of S^2 into N regions of measure 1/N each.

    Needs N >= 50: each polar cap [0, theta0] with theta0 = arccos(1 - 50/N)
    has measure 25/N and is split into 25 wedges; the remaining collar is cut
    into s bands (s the largest odd integer <= sqrt(pi*N)/2) of nominal area
    y_k, realized with integer wedge counts from the rounding sequence.
    """
    if N < 50:
        raise ValueError(f"partition requires N >= 50, got {N}")
    theta0 = math.acos(1.0 - 50.0 / N)
    s = _largest_odd_leq(math.sqrt(math.pi * N) / 2.0)
    delta_theta = (math.pi - 2.0 * theta0) / s
    theta_p = [theta0 + k * delta_theta for k in range(s + 1)]  # theta'_0 .. theta'_s
    y = [N * (math.cos(theta_p[k - 1]) - math.cos(theta_p[k])) / 2.0 for k in range(1, s + 1)]
    ell_mid = build_rounding_sequence(y, symmetric=True)
    if sum(ell_mid) != N - 50:
        raise ValueError(f"rounding sequence sums to {sum(ell_mid)}, expected {N - 50}")
    ell = [25] + ell_mid + [25]

    # theta_k = arccos(1 - (2/N) * sum_{i<=k} ell_i); cosines are exact rationals
    cum = np.concatenate([[0], np.cumsum(ell)])
    cos_bounds = 1.0 - 2.0 * cum / N  # cos(theta_{-1}) .. cos(theta_{s+1})
    theta_bounds = [0.0] + [
        math.acos(max(-1.0, min(1.0, c))) for c in cos_bounds[1:-1]
    ] + [math.pi]

    regions = []
    for k in range(s + 2):
        nw = ell[k]
        if nw == 0:
            continue
        t_lo, t_hi = theta_bounds[k], theta_bounds[k + 1]
        for j in range(1, nw + 1):
            regions.append(
                Region(
                    theta_lo=t_lo,
                    theta_hi=t_hi,
                    phi_lo=2.0 * math.pi * (j - 1) / nw,
                    phi_hi=2.0 * math.pi * j / nw,
                    band_index=k,
                    wedge_index=j,
                )
            )
    if len(regions) != N:
        raise ValueError(f"constructed {len(regions)} regions, expected {N}")

    max_cap = max(_enclosing_cap_radius(r) for r in regions)
    min_inscribed = min(_inscribed_cap_radius(r) for r in regions)
    return EqualAreaPartition(
        N=N,
        theta0=theta0,
        s=s,
        delta_theta=delta_theta,
        ell=tuple(ell),
        theta_bounds=tuple(theta_bounds),
        regions=tuple(regions),
        max_cap_radius=max_cap,
        min_inscribed_radius=min_inscribed,
    )


@dataclass(frozen=True)
class MzFamily:
    """Sampling nodes and weights, one node per partition region.

    Frame constants are measured, not stored: see certify.mz_constants.
    Nodes and weights are immutable (a tuple and a read-only copy), so the
    sampling operator that reconstruct builds for one degree can be kept on
    the family without going stale.
    """

    nodes: tuple
    weights: np.ndarray
    _operator: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "weights", w)
        if len(self.nodes) != w.size:
            raise ValueError("nodes and weights must have the same length")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")


def pick_nodes(
    partition: EqualAreaPartition,
    rule: str = "area_center",
    seed: Optional[int] = None,
) -> MzFamily:
    """One node inside each region, weights mu(R_j) = 1/N.

    rule "area_center": deterministic node at the area-median colatitude and
    mid longitude.  rule "random_in_region": area-uniform draw inside each
    region from the seeded generator (seed required, runs are reproducible).
    """
    if rule == "area_center":
        nodes = [r.area_center() for r in partition.regions]
    elif rule == "random_in_region":
        if seed is None:
            raise ValueError("random_in_region requires a seed")
        rng = np.random.default_rng(seed)
        nodes = []
        for r in partition.regions:
            u = rng.uniform(math.cos(r.theta_hi), math.cos(r.theta_lo))
            phi = rng.uniform(r.phi_lo, r.phi_hi)
            nodes.append(SpherePoint(math.acos(max(-1.0, min(1.0, u))), phi % (2 * math.pi)))
    else:
        raise ValueError(f"unknown node rule {rule!r}")
    weights = np.full(partition.N, 1.0 / partition.N)
    return MzFamily(nodes=tuple(nodes), weights=weights)


def nodes_to_arrays(nodes: Iterable[SpherePoint]) -> tuple[np.ndarray, np.ndarray]:
    """Split a node list into (theta, phi) arrays."""
    thetas = np.array([p.theta for p in nodes])
    phis = np.array([p.phi for p in nodes])
    return thetas, phis


def write_nodes_csv(path, fam: MzFamily) -> None:
    """Node CSV with header theta,phi,weight, 17 significant digits."""
    from .artifacts import atomic_write_text

    lines = ["theta,phi,weight"]
    for p, w in zip(fam.nodes, fam.weights):
        lines.append(f"{p.theta:.17g},{p.phi:.17g},{w:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def partition_to_json(p: EqualAreaPartition) -> dict:
    return {
        "N": p.N,
        "theta0": p.theta0,
        "s": p.s,
        "delta_theta": p.delta_theta,
        "ell": list(p.ell),
        "theta_bounds": list(p.theta_bounds),
        "max_cap_radius": p.max_cap_radius,
        "min_inscribed_radius": p.min_inscribed_radius,
    }


def write_partition_json(path, p: EqualAreaPartition) -> None:
    from .artifacts import write_json

    write_json(path, partition_to_json(p))
