"""m-fold illumination of convex polygons and smooth 2D bodies.

The polygon side is exact: vertex illumination regions are open circular
arcs with rational endpoints (rotations of edge vectors), and the
optimal direction multiset comes from the piercing solver.  The smooth
side builds the equiangular circumscribed polygon from the support
function and extracts one direction per window of tangent lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DomainError, GeometryInternalError
from .geometry import (
    ConvexPolygon,
    DirectionMultiset,
    SupportFunctionBody,
    cross2,
)
from .piercing import Arc, ArcSystem, PiercingSolution, min_mfold_pierce


def lower_bound(m: int, d: int) -> int:
    """Universal lower bound 2m + d - 1 for d-dimensional convex bodies."""
    if m < 1 or d < 2:
        raise DomainError("need m >= 1 and d >= 2")
    return 2 * m + d - 1


def regular_polygon_number(n: int, m: int) -> int:
    """Closed form ceil(m*n / floor((n-1)/2)) for the regular n-gon."""
    if n < 3:
        raise DomainError("polygon needs n >= 3")
    if m < 1:
        raise DomainError("m must be >= 1")
    return -(-m * n // ((n - 1) // 2))


def vertex_arcs(polygon: ConvexPolygon) -> ArcSystem:
    """Arc of directions illuminating each vertex, in vertex order.

    The vertex between edges e_{i-1} and e_i is illuminated exactly by the
    open arc from e_i CCW to -e_{i-1} (length pi minus the exterior angle).
    Its integer ends and rays are the polygon's own: (int_edges[i],
    -int_edges[i-1]) and (rays[i], -rays[i-1]).
    """
    edges, rays = polygon.int_edges, polygon.rays
    arcs = []
    for i in range(polygon.n):
        (ex, ey, d), (rx, ry) = edges[i - 1], rays[i - 1]
        arcs.append(Arc._on_rays(edges[i], (-ex, -ey, d), (rays[i], (-rx, -ry))))
    return ArcSystem(arcs=arcs)


def polygon_piercing_solution(polygon: ConvexPolygon, m: int) -> PiercingSolution:
    return min_mfold_pierce(vertex_arcs(polygon), m)


def illumination_number_polygon(polygon: ConvexPolygon, m: int) -> int:
    """Exact I^m of a convex polygon via optimal m-fold arc piercing."""
    return polygon_piercing_solution(polygon, m).size


def check_consecutive_angle_condition(polygon: ConvexPolygon, m: int) -> bool:
    """For a (2m+1)-gon, m >= 2: is every sum of m consecutive exterior
    angles strictly below pi?  The grouped condition with singleton groups,
    cuts 1..2m."""
    if m < 2:
        raise DomainError("consecutive angle condition is defined for m >= 2")
    n = polygon.n
    if n != 2 * m + 1:
        raise DomainError(f"polygon must have {2 * m + 1} vertices, has {n}")
    return check_grouped_angle_condition(polygon, m, range(1, 2 * m + 1))


def _check_grouping_size(n: int, m: int):
    if m < 1:
        raise DomainError("m must be >= 1")
    if n < 2 * m + 1:
        raise DomainError("polygon needs at least 2m+1 vertices")


def check_grouped_angle_condition(
    polygon: ConvexPolygon, m: int, cuts
) -> bool:
    """Grouped variant: exterior angles are grouped by cut indices
    0 = n_0 < n_1 < ... < n_2m < n (``cuts`` lists n_1..n_2m, extended
    periodically by n); every window of m consecutive group sums must stay
    strictly below pi.

    A window spans the turn from one edge to a later one, which stays below
    pi exactly when the two edge rays still make a CCW turn: a single
    cross-product sign, no floating angles.
    """
    n = polygon.n
    _check_grouping_size(n, m)
    cuts = list(cuts)
    if len(cuts) != 2 * m:
        raise DomainError(f"grouping needs exactly {2 * m} cuts")
    if any(int(c) != c for c in cuts):
        raise DomainError("cuts must be integers")
    bounds = [0] + [int(c) for c in cuts]
    if any(bounds[i] >= bounds[i + 1] for i in range(2 * m)) or bounds[-1] >= n:
        raise DomainError("cuts must satisfy 0 < n_1 < ... < n_2m < n")

    def cut(j: int) -> int:
        q, r = divmod(j, 2 * m + 1)
        return bounds[r] + q * n

    # window k spans group sums beta_k..beta_{k+m-1}, i.e. the turn from
    # edge n_{k-1} to edge n_{k+m-1}
    rays = polygon.rays
    return all(
        cross2(rays[cut(k - 1) % n], rays[cut(k + m - 1) % n]) > 0
        for k in range(1, 2 * m + 2)
    )


def find_valid_grouping(polygon: ConvexPolygon, m: int):
    """Exhaustive search for cuts satisfying the grouped condition.

    Returns the first valid cut list or None; guarded to n <= 12.
    """
    n = polygon.n
    if n > 12:
        raise DomainError("grouping search is guarded to n <= 12")
    _check_grouping_size(n, m)
    for cuts in combinations(range(1, n), 2 * m):
        if check_grouped_angle_condition(polygon, m, cuts):
            return list(cuts)
    return None


# --------------------------------------------------------------------------
# tangent polygons of smooth bodies
# --------------------------------------------------------------------------

@dataclass
class TangentPolygon:
    """Circumscribed polygon given by tangent lines <x, n(theta_i)> = h_i.

    Vertex i is the intersection of lines i-1 and i, so side i runs from
    vertex i to vertex i+1 along line i.
    """

    vertices: np.ndarray
    normal_angles: np.ndarray
    support_values: np.ndarray

    @property
    def k(self) -> int:
        return len(self.vertices)


def _line_intersection(theta_a, h_a, theta_b, h_b) -> np.ndarray:
    det = math.sin(theta_b - theta_a)
    if abs(det) < 1e-12:
        raise GeometryInternalError("tangent lines are (nearly) parallel")
    x = (h_a * math.sin(theta_b) - h_b * math.sin(theta_a)) / det
    y = (h_b * math.cos(theta_a) - h_a * math.cos(theta_b)) / det
    return np.array([x, y])


def tangent_polygon(normal_angles, support_values) -> TangentPolygon:
    angles = np.asarray(normal_angles, dtype=np.float64)
    support = np.asarray(support_values, dtype=np.float64)
    k = len(angles)
    if k < 3:
        raise DomainError("tangent polygon needs at least 3 sides")
    verts = np.stack(
        [
            _line_intersection(
                angles[(i - 1) % k], support[(i - 1) % k], angles[i], support[i]
            )
            for i in range(k)
        ]
    )
    return TangentPolygon(vertices=verts, normal_angles=angles, support_values=support)


def equiangular_tangent_polygon(body: SupportFunctionBody, m: int) -> TangentPolygon:
    """Circumscribed (2m+1)-gon with outward normals at equal angle steps."""
    if m < 1:
        raise DomainError("m must be >= 1")
    k = 2 * m + 1
    angles = 2 * np.pi * np.arange(k) / k
    return tangent_polygon(angles, body._h(angles))


def tangent_window_directions(tp: TangentPolygon, m: int) -> DirectionMultiset:
    """One direction per window: aim from the apex of sides i and i+m back
    at a fixed interior point (the vertex centroid)."""
    k = tp.k
    interior = tp.vertices.mean(axis=0)
    dirs = []
    for i in range(k):
        j = (i + m) % k
        apex = _line_intersection(
            tp.normal_angles[i], tp.support_values[i],
            tp.normal_angles[j], tp.support_values[j],
        )
        dirs.append(tuple(interior - apex))
    return DirectionMultiset.from_vectors(dirs)


def smooth_2d_directions(body: SupportFunctionBody, m: int) -> DirectionMultiset:
    """2m+1 directions m-fold illuminating a smooth 2D body."""
    return tangent_window_directions(equiangular_tangent_polygon(body, m), m)


# --------------------------------------------------------------------------
# rational stand-ins for regular polygons
# --------------------------------------------------------------------------

_PHASE = 0.1234567


def regular_polygon_rational(n: int) -> ConvexPolygon:
    """Rational polygon with the exact vertex-arc combinatorics of the
    regular n-gon.

    Regular vertices are irrational for most n, but the piercing optimum
    depends only on the cyclic slot pattern of the vertex arcs: arc i holds
    the slots i..i+h-1, h = floor((n-1)/2), exactly when every edge ray
    turns strictly left to the ray h edges on and not to the one h+1 on.
    The vertices at angles 2*pi*i/n + _PHASE are rounded to the common
    denominator D, the least power of ten above 10^4 n^2, which moves every
    edge direction by far less than pi/n; for even n the second half is the
    negated first, so the polygon is exactly centrally symmetric.  The
    pattern is then checked exactly.
    """
    if n < 3:
        raise DomainError("polygon needs n >= 3")
    den = 10 ** len(str(10 ** 4 * n * n))
    verts = []
    for i in range(n // 2 if n % 2 == 0 else n):
        ang = 2 * math.pi * i / n + _PHASE
        verts.append(
            (Fraction(round(den * math.cos(ang)), den),
             Fraction(round(den * math.sin(ang)), den))
        )
    if n % 2 == 0:
        verts += [(-x, -y) for x, y in verts]
    poly = ConvexPolygon(verts)
    h, rays = (n - 1) // 2, poly.rays
    if not all(
        cross2(rays[i], rays[(i + h) % n]) > 0 >= cross2(rays[i], rays[(i + h + 1) % n])
        for i in range(n)
    ):
        raise GeometryInternalError(
            f"could not reproduce the regular {n}-gon arc pattern rationally"
        )
    return poly
