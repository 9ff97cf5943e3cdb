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
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # reconstruct imports this module
    from .reconstruct import _Operator

__all__ = [
    "SpherePoint",
    "Region",
    "EqualAreaPartition",
    "MzFamily",
    "build_rounding_sequence",
    "build_partition",
    "region_measure",
    "pick_nodes",
    "check_nodes",
    "check_weights",
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
        phi = 0.5 * (self.phi_lo + self.phi_hi)
        return SpherePoint(_area_median(self.theta_lo, self.theta_hi), phi % (2.0 * math.pi))


def _area_median(theta_lo: float, theta_hi: float) -> float:
    """Colatitude that halves the area of the band [theta_lo, theta_hi]."""
    ct = 0.5 * (math.cos(theta_lo) + math.cos(theta_hi))
    return math.acos(max(-1.0, min(1.0, ct)))


def region_measure(r: Region) -> float:
    """Probability measure (cos theta_lo - cos theta_hi)(phi_hi - phi_lo) / (4*pi)."""
    return (
        (math.cos(r.theta_lo) - math.cos(r.theta_hi))
        * (r.phi_hi - r.phi_lo)
        / (4.0 * math.pi)
    )


def _enclosing_cap_radius(t_lo: float, t_hi: float, p_lo: float, p_hi: float) -> float:
    """Radius of a small spherical cap containing the box [t_lo, t_hi] x [p_lo, p_hi].

    Polar regions are covered by the cap around their pole; other regions by
    the cap centered at the box midpoint, whose farthest region point is a
    corner or a critical point on a meridian edge.
    """
    if t_lo == 0.0:
        return t_hi
    if t_hi == math.pi:
        return math.pi - t_lo
    tc = 0.5 * (t_lo + t_hi)
    pc = 0.5 * (p_lo + p_hi)
    best = 0.0
    for phi in (p_lo, p_hi):
        dphi = abs(phi - pc)
        # the corners, and the critical colatitude on the meridian edge
        # (inside the box only for wedges wider than pi, where cos(dphi) < 0)
        tstar = math.atan2(math.sin(tc) * math.cos(dphi), math.cos(tc)) + math.pi
        for theta in (t_lo, t_hi, tstar) if t_lo < tstar < t_hi else (t_lo, t_hi):
            cosd = math.cos(tc) * math.cos(theta) + math.sin(tc) * math.sin(
                theta
            ) * math.cos(dphi)
            best = max(best, math.acos(max(-1.0, min(1.0, cosd))))
    return best


def _inscribed_cap_radius(t_lo: float, t_hi: float, p_lo: float, p_hi: float) -> float:
    """Radius of a spherical cap centered at the area center inside the box."""
    tc = _area_median(t_lo, t_hi)
    rad = min(tc - t_lo, t_hi - tc)
    half_wedge = 0.5 * (p_hi - p_lo)
    if half_wedge < math.pi / 2:
        rad = min(rad, math.asin(math.sin(tc) * math.sin(half_wedge)))
    return max(rad, 0.0)


def _wedge_bounds(nw: int) -> tuple[np.ndarray, np.ndarray]:
    """Longitude bounds of the nw wedges of a band: [2 pi (j-1)/nw, 2 pi j/nw], j = 1..nw."""
    j = np.arange(1, nw + 1)
    return 2.0 * math.pi * (j - 1) / nw, 2.0 * math.pi * j / nw


@dataclass(frozen=True)
class EqualAreaPartition:
    """The N-region equal-area partition with its construction parameters.

    ``ell`` holds the wedge counts ell_0 .. ell_{s+1} (ell_0 = ell_{s+1} = 25)
    and ``theta_bounds`` the band boundaries theta_{-1} = 0 .. theta_{s+1} = pi.
    Band k is cut into ell_k congruent wedges (see ``_wedge_bounds``); the
    bands describe every region, so neither the regions nor their cap radii
    are stored.
    """

    N: int
    theta0: float
    s: int
    delta_theta: float
    ell: tuple
    theta_bounds: tuple

    def _extreme_boxes(self) -> list:
        """(theta_lo, theta_hi, phi_lo, phi_hi) of the wedges that attain the
        band radii.

        The wedges of a band differ only by the rounding of their bounds.
        The enclosing radius grows with the half-widths |phi - pc| (pc the
        mid longitude) and the inscribed one with the width, so the wedges
        with the largest half-widths and the narrowest one attain the band's
        radii (bitwise, as the per-region oracle in the tests checks).
        """
        boxes = []
        for nw, t_lo, t_hi in zip(self.ell, self.theta_bounds, self.theta_bounds[1:]):
            if nw:
                lo, hi = _wedge_bounds(nw)
                pc = 0.5 * (lo + hi)
                picks = {np.argmax(pc - lo), np.argmax(hi - pc), np.argmin(hi - lo)}
                boxes += [(t_lo, t_hi, lo[j].item(), hi[j].item()) for j in picks]
        return boxes

    @property
    def max_cap_radius(self) -> float:
        """Largest radius of a cap about a region's center enclosing it,
        computed on each access."""
        return max(_enclosing_cap_radius(*b) for b in self._extreme_boxes())

    @property
    def min_inscribed_radius(self) -> float:
        """Smallest radius of a cap about a region's center inside it,
        computed on each access."""
        return min(_inscribed_cap_radius(*b) for b in self._extreme_boxes())

    @property
    def regions(self) -> tuple:
        """The N regions, band by band and by wedge, built on each access."""
        tb = self.theta_bounds
        regions = []
        for k, nw in enumerate(self.ell):
            bounds = zip(*(b.tolist() for b in _wedge_bounds(nw)))
            regions += [Region(tb[k], tb[k + 1], lo, hi, k, j) for j, (lo, hi) in enumerate(bounds, 1)]
        return tuple(regions)


def build_rounding_sequence(y: Sequence[float]) -> list[int]:
    """Symmetric integer sequence ell tracking a symmetric y with half-integer
    prefix control.

    Requires odd length, an integer total and y symmetric (to 1e-9).
    Guarantees: sum(ell) == sum(y); |y_1-ell_1| = |y_s-ell_s| <= 1/2;
    |y_i-ell_i| <= 1 for interior i; every prefix sum of y-ell lies in
    [-1/2, 1/2]; and ell is symmetric.

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
    for i in range(s // 2):
        if abs(y[i] - y[s - 1 - i]) > 1e-9 * max(1.0, abs(y[i])):
            raise ValueError("y is not symmetric")
    if s == 1:
        return [total]
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
    ell_mid = build_rounding_sequence(y)
    if sum(ell_mid) != N - 50:
        raise ValueError(f"rounding sequence sums to {sum(ell_mid)}, expected {N - 50}")
    ell = [25] + ell_mid + [25]

    # theta_k = arccos(1 - (2/N) * sum_{i<=k} ell_i); cosines are exact rationals
    cum = np.concatenate([[0], np.cumsum(ell)])
    cos_bounds = 1.0 - 2.0 * cum / N  # cos(theta_{-1}) .. cos(theta_{s+1})
    theta_bounds = [0.0] + [
        math.acos(max(-1.0, min(1.0, c))) for c in cos_bounds[1:-1]
    ] + [math.pi]

    return EqualAreaPartition(
        N=N,
        theta0=theta0,
        s=s,
        delta_theta=delta_theta,
        ell=tuple(ell),
        theta_bounds=tuple(theta_bounds),
    )


@dataclass(frozen=True)
class MzFamily:
    """Sampling nodes and weights, one node per partition region.

    Frame constants are measured, not stored: see certify.mz_constants.
    ``nodes`` is an (N, 2) array of (theta, phi) rows.  Nodes and weights
    are immutable (read-only copies), so the sampling operator that
    reconstruct builds for one degree can be kept on the family without
    going stale.
    """

    nodes: np.ndarray
    weights: np.ndarray
    _operator: Optional[_Operator] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        w = np.array(self.weights, dtype=float)
        check_nodes(nodes)
        for arr in (nodes, w):
            arr.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)
        if len(nodes) != w.size:
            raise ValueError("nodes and weights must have the same length")
        check_weights(w)


def check_weights(w: np.ndarray, what: str = "weights") -> None:
    """ValueError unless the weights are positive and sum to 1 (to 1e-12);
    the message names them as what."""
    if np.any(w <= 0):
        raise ValueError(f"{what} must be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"{what} must sum to 1, got {float(w.sum())!r}")


def check_nodes(nodes: np.ndarray, where=lambda i: f"node {i}") -> None:
    """ValueError unless nodes is an (N, 2) array of (theta, phi) rows in
    [0, pi] x [0, 2*pi); the message names row i as where(i)."""
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise ValueError(f"nodes must be an (N, 2) array of (theta, phi), got shape {nodes.shape}")
    theta, phi = nodes[:, 0], nodes[:, 1]
    bad = np.flatnonzero(~((0.0 <= theta) & (theta <= math.pi) & (0.0 <= phi) & (phi < 2.0 * math.pi)))
    if bad.size:
        raise ValueError(
            f"{where(bad[0])}: (theta, phi) = {tuple(nodes[bad[0]].tolist())} is outside "
            "[0, pi] x [0, 2*pi)"
        )


def pick_nodes(
    partition: EqualAreaPartition,
    rule: str = "area_center",
    seed: Optional[int] = None,
) -> MzFamily:
    """One node inside each region, weights mu(R_j) = 1/N.

    rule "area_center": deterministic node at the area-median colatitude and
    mid longitude.  rule "random_in_region": area-uniform draw inside each
    region from the seeded generator (seed required, runs are reproducible),
    drawn region by region, cos(theta) before phi.
    """
    ell, tb = partition.ell, partition.theta_bounds
    phi_lo, phi_hi = (np.concatenate(b) for b in zip(*map(_wedge_bounds, ell)))
    if rule == "area_center":
        theta = np.repeat([_area_median(lo, hi) for lo, hi in zip(tb, tb[1:])], ell)
        phi = 0.5 * (phi_lo + phi_hi)
    elif rule == "random_in_region":
        if seed is None:
            raise ValueError("random_in_region requires a seed")
        cos_b = [math.cos(t) for t in tb]
        draw = np.random.default_rng(seed).uniform(
            np.column_stack([np.repeat(cos_b[1:], ell), phi_lo]),
            np.column_stack([np.repeat(cos_b[:-1], ell), phi_hi]),
        )
        theta = np.array(list(map(math.acos, np.clip(draw[:, 0], -1.0, 1.0).tolist())))
        phi = draw[:, 1]
    else:
        raise ValueError(f"unknown node rule {rule!r}")
    nodes = np.column_stack([theta, phi % (2 * math.pi)])
    return MzFamily(nodes=nodes, weights=np.full(partition.N, 1.0 / partition.N))


def nodes_to_arrays(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (theta, phi) columns of an (N, 2) node array."""
    return nodes[:, 0], nodes[:, 1]


def write_nodes_csv(path, fam: MzFamily) -> None:
    """Node CSV with header theta,phi,weight, 17 significant digits."""
    from .artifacts import write_csv

    write_csv(path, "theta,phi,weight", fam.nodes[:, 0], fam.nodes[:, 1], fam.weights)


def partition_to_json(p: EqualAreaPartition) -> dict:
    return {
        **asdict(p),
        "max_cap_radius": p.max_cap_radius,
        "min_inscribed_radius": p.min_inscribed_radius,
    }


def write_partition_json(path, p: EqualAreaPartition) -> None:
    from .artifacts import write_json

    write_json(path, partition_to_json(p))
