"""Geometric primitives and the two illumination predicates.

Arithmetic policy: everything 2D that feeds exact verdicts (polygons,
piercing arcs) runs on ``fractions.Fraction``; ball and smooth-body
verdicts run on integer multiples of the float unit directions; cap bodies
are sampled on binary floats with an explicit strictness margin.
Inequalities are strict throughout: a direction tangent to the body at a
boundary point does not illuminate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    PreconditionViolation,
    UnsupportedBody,
)

Scalar = Fraction | int | float


# --------------------------------------------------------------------------
# exact rational vector helpers (2D)
# --------------------------------------------------------------------------

def as_fraction(x) -> Fraction:
    """Exact conversion; floats are converted via their binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def frac_vec(coords) -> tuple[Fraction, ...]:
    return tuple(as_fraction(c) for c in coords)


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _half_plane(v) -> int:
    """0 for angle in [0, pi), 1 for [pi, 2pi); v must be nonzero."""
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def angle_cmp(a, b) -> int:
    """Exact comparison of 2D vectors by angle in [0, 2pi)."""
    ha, hb = _half_plane(a), _half_plane(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross2(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


angle_sort_key = cmp_to_key(angle_cmp)


def _rel_class(base, z) -> int:
    """Coarse CCW offset of z from base: 0 at 0, 1 in (0,pi), 2 at pi, 3 in (pi,2pi)."""
    c = cross2(base, z)
    if c > 0:
        return 1
    if c < 0:
        return 3
    return 0 if dot(base, z) > 0 else 2


def ccw_rel_lt(base, a, b) -> bool:
    """True iff the CCW offset of a from base is strictly less than that of b."""
    ca, cb = _rel_class(base, a), _rel_class(base, b)
    if ca != cb:
        return ca < cb
    if ca in (0, 2):
        return False
    return cross2(a, b) > 0


def in_halfopen_arc(start, end, x) -> bool:
    """x in the CCW arc [start, end), endpoints as exact vectors."""
    return ccw_rel_lt(start, x, end)


def in_open_arc(start, end, x) -> bool:
    """x in the CCW arc (start, end)."""
    return _rel_class(start, x) != 0 and ccw_rel_lt(start, x, end)


def is_exact_coords(coords) -> bool:
    return all(isinstance(c, (Fraction, int)) for c in coords)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class Direction:
    """A nonzero d-vector naming a point of the unit sphere.

    Stored unnormalized; two directions are equal iff one is a positive
    scalar multiple of the other (exact, also for float coordinates via
    their binary rational values).
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        coords = tuple(coords)
        if len(coords) < 2:
            raise DomainError("directions need dimension >= 2")
        if all(c == 0 for c in coords):
            raise DomainError("zero vector is not a direction")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return is_exact_coords(self.coords)

    def unit(self) -> np.ndarray:
        v = np.asarray([float(c) for c in self.coords], dtype=np.float64)
        return v / np.linalg.norm(v)

    def _canonical(self) -> tuple[int, ...]:
        fracs = [as_fraction(c) for c in self.coords]
        from math import gcd, lcm
        den = lcm(*(f.denominator for f in fracs))
        ints = [int(f * den) for f in fracs]
        g = gcd(*(abs(i) for i in ints))
        return tuple(i // g for i in ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"Direction({list(self.coords)!r})"


class DirectionMultiset:
    """Directions with positive integer multiplicities."""

    def __init__(self, entries: Sequence[tuple[Direction, int]]):
        entries = [(d, int(m)) for d, m in entries]
        if not entries:
            raise DomainError("direction multiset must be nonempty")
        if any(m < 1 for _, m in entries):
            raise DomainError("multiplicities must be >= 1")
        dims = {d.dim for d, _ in entries}
        if len(dims) != 1:
            raise DomainError("mixed dimensions in direction multiset")
        self.entries = entries

    @classmethod
    def from_vectors(cls, vectors, mults=None) -> "DirectionMultiset":
        vectors = list(vectors)
        if mults is None:
            mults = [1] * len(vectors)
        return cls([(Direction(v), m) for v, m in zip(vectors, mults)])

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        units = np.stack([d.unit() for d, _ in self.entries])
        mults = np.asarray([m for _, m in self.entries], dtype=np.int64)
        return units, mults

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"DirectionMultiset({self.entries!r})"


@dataclass(frozen=True)
class Ball:
    """Origin-centered unit ball of dimension d >= 2."""

    dim: int = 2

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError("ball dimension must be >= 2")


@dataclass(frozen=True)
class Tolerance:
    """Strictness margin of verification; sample budget of cap bodies."""

    margin: float = 1e-6
    samples: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise DomainError("margin must be a finite number >= 0")
        if self.samples is not None and self.samples < 1:
            raise DomainError("sample count must be >= 1")


#: per-dimension default sample counts for cap-body verification
DEFAULT_SAMPLES = {2: 100_000, 3: 200_000}


def resolve_samples(tol: Tolerance, dim: int) -> int:
    if tol.samples is not None:
        return tol.samples
    try:
        return DEFAULT_SAMPLES[dim]
    except KeyError:
        raise DomainError(
            f"no default sample count for dimension {dim}; pass Tolerance(samples=...)"
        ) from None


class ConvexPolygon:
    """Strictly convex polygon, CCW vertex order, exact rational coordinates."""

    def __init__(self, vertices):
        verts = tuple(frac_vec(v) for v in vertices)
        if len(verts) < 3:
            raise DomainError("polygon needs at least 3 vertices")
        if len(set(verts)) != len(verts):
            raise DomainError("repeated vertex")
        n = len(verts)
        edges = tuple(
            (verts[(i + 1) % n][0] - verts[i][0], verts[(i + 1) % n][1] - verts[i][1])
            for i in range(n)
        )
        for i in range(n):
            if cross2(edges[i], edges[(i + 1) % n]) <= 0:
                raise DomainError(
                    "polygon must be strictly convex with CCW vertex order"
                )
        # all turns positive still admits multiple windings; a simple convex
        # cycle descends through angle zero exactly once
        descents = sum(
            1 for i in range(n) if angle_cmp(edges[i], edges[(i + 1) % n]) > 0
        )
        if descents != 1:
            raise DomainError("vertex cycle winds more than once")
        self.vertices = verts
        self.edges = edges

    @property
    def n(self) -> int:
        return len(self.vertices)

    def outward_normal(self, i: int) -> tuple[Fraction, Fraction]:
        """Outward normal of the edge from vertex i to vertex i+1 (unnormalized)."""
        e = self.edges[i % self.n]
        return (e[1], -e[0])

    def vertex_array(self) -> np.ndarray:
        return np.asarray([[float(x), float(y)] for x, y in self.vertices])

    def locate_boundary_point(self, p) -> tuple[str, int]:
        """Exact location of p on the boundary: ("vertex", i) or ("edge", i).

        Raises PreconditionViolation when p is not on the boundary.
        """
        p = frac_vec(p)
        n = self.n
        for i, v in enumerate(self.vertices):
            if v == p:
                return ("vertex", i)
        for i in range(n):
            a = self.vertices[i]
            d = (p[0] - a[0], p[1] - a[1])
            e = self.edges[i]
            if cross2(e, d) == 0:
                t_num = dot(e, d)
                if 0 < t_num < dot(e, e):
                    return ("edge", i)
        raise PreconditionViolation("point is not on the polygon boundary")

    def __repr__(self) -> str:
        return f"ConvexPolygon({[tuple(map(str, v)) for v in self.vertices]})"


@dataclass
class SupportFunctionBody:
    """Smooth 2D convex body given by its support function h(theta).

    ``support`` maps an outward normal angle to the support value and must
    accept numpy arrays.  ``support_prime`` is the derivative; when omitted
    it is estimated by central differences.
    """

    support: Callable
    support_prime: Optional[Callable] = None

    def _h(self, thetas: np.ndarray) -> np.ndarray:
        return np.asarray(self.support(thetas), dtype=np.float64)

    def _hp(self, thetas: np.ndarray) -> np.ndarray:
        if self.support_prime is not None:
            return np.asarray(self.support_prime(thetas), dtype=np.float64)
        step = 1e-6
        return (self._h(thetas + step) - self._h(thetas - step)) / (2 * step)

    def boundary_points(self, thetas: np.ndarray) -> np.ndarray:
        h = self._h(thetas)
        hp = self._hp(thetas)
        cos, sin = np.cos(thetas), np.sin(thetas)
        return np.stack([h * cos - hp * sin, h * sin + hp * cos], axis=1)


def unit_circle_body() -> SupportFunctionBody:
    return SupportFunctionBody(
        support=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        support_prime=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
    )


def ellipse_body(a: float, b: float) -> SupportFunctionBody:
    """Axis-aligned ellipse with semi-axes (a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError("semi-axes must be positive")

    def h(t):
        t = np.asarray(t, dtype=np.float64)
        return np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)

    def hp(t):
        t = np.asarray(t, dtype=np.float64)
        return (b * b - a * a) * np.sin(t) * np.cos(t) / h(t)

    return SupportFunctionBody(support=h, support_prime=hp)


@dataclass
class IlluminationReport:
    """Verification verdict with the least-covered witness point."""

    passed: bool
    m: int
    worst_point: tuple
    worst_count: int
    worst_margin: float
    samples: int

    def __bool__(self) -> bool:
        return self.passed


# --------------------------------------------------------------------------
# illumination predicates
# --------------------------------------------------------------------------

def _check_on_sphere(p, margin: float):
    norm_sq = float(sum(float(c) * float(c) for c in p))
    if abs(math.sqrt(norm_sq) - 1.0) > max(margin, 1e-9):
        raise PreconditionViolation("point is not on the unit sphere")


def illuminates_by_direction(body, p, u, tol: Tolerance = Tolerance()) -> bool:
    """Does moving from boundary point p along u enter the interior of body?

    Ball: strict <u, p> < 0 (exact for rational inputs, margin ``tol.margin``
    in float mode).  Polygon: exact sign tests against the outward normals
    adjacent to p.
    """
    if isinstance(u, Direction):
        u = u.coords
    if isinstance(body, Ball):
        if len(p) != body.dim or len(u) != body.dim:
            raise DomainError("dimension mismatch")
        if is_exact_coords(p) and is_exact_coords(u):
            if dot(frac_vec(p), frac_vec(p)) != 1:
                raise PreconditionViolation("point is not on the unit sphere")
            return dot(frac_vec(u), frac_vec(p)) < 0
        _check_on_sphere(p, tol.margin)
        uv = np.asarray([float(c) for c in u])
        pv = np.asarray([float(c) for c in p])
        return float(uv @ pv) / float(np.linalg.norm(uv)) < -tol.margin
    if isinstance(body, ConvexPolygon):
        kind, i = body.locate_boundary_point(p)
        uf = frac_vec(u)
        if kind == "edge":
            return dot(uf, body.outward_normal(i)) < 0
        return (
            dot(uf, body.outward_normal(i - 1)) < 0
            and dot(uf, body.outward_normal(i)) < 0
        )
    raise UnsupportedBody(f"unsupported body kind {type(body).__name__}")


def _segment_meets_polygon_interior(poly: ConvexPolygon, a, b) -> bool:
    """Does the closed segment a-b meet Int(poly)?  Exact rational clipping."""
    a, b = frac_vec(a), frac_vec(b)
    d = (b[0] - a[0], b[1] - a[1])
    lo, hi = Fraction(0), Fraction(1)
    for i in range(poly.n):
        nrm = poly.outward_normal(i)
        # interior side: <a + t d - v_i, nrm> < 0
        coeff = dot(d, nrm)
        rhs = dot(nrm, poly.vertices[i]) - dot(a, nrm)
        if coeff == 0:
            if rhs <= 0:
                return False
        elif coeff > 0:
            hi = min(hi, Fraction(rhs, coeff))
        else:
            lo = max(lo, Fraction(rhs, coeff))
        if lo >= hi:
            return False
    return True


def _segment_origin_distance_sq(a, b):
    """Squared distance from the origin to the closed segment a-b.

    Exact (a ``Fraction``) for rational endpoints, a float otherwise.
    """
    if is_exact_coords(a) and is_exact_coords(b):
        a, b = frac_vec(a), frac_vec(b)
        d = tuple(y - x for x, y in zip(a, b))
        dd = dot(d, d)
        if dd == 0:
            return dot(a, a)
        t = -Fraction(dot(a, d), dd)
        t = min(max(t, Fraction(0)), Fraction(1))
        closest = tuple(x + t * y for x, y in zip(a, d))
        return dot(closest, closest)
    av = np.asarray([float(c) for c in a])
    bv = np.asarray([float(c) for c in b])
    d = bv - av
    dd = float(d @ d)
    t = 0.0 if dd == 0 else min(max(-float(av @ d) / dd, 0.0), 1.0)
    # endpoints taken verbatim when the clamp binds: a + t*d cancels badly
    # for far sources, and on-sphere endpoints must stay out of the verdict
    if t <= 0.0:
        closest = av
    elif t >= 1.0:
        closest = bv
    else:
        closest = av + t * d
    return float(closest @ closest)


def _segment_meets_ball_interior(a, b) -> bool:
    """Does the closed segment a-b meet the open unit ball?"""
    dist_sq = _segment_origin_distance_sq(a, b)
    if isinstance(dist_sq, Fraction):
        return dist_sq < 1
    return math.sqrt(dist_sq) < 1.0 - 1e-12


def illuminates_by_point(body, source, p, tol: Tolerance = Tolerance()) -> bool:
    """Point-source illumination of boundary point p from source.

    True iff the ray from source through p enters the interior while the
    closed segment source-p stays out of it.
    """
    if isinstance(body, Ball):
        src_norm = sum(float(c) ** 2 for c in source)
        if src_norm <= 1:
            raise PreconditionViolation("source must be strictly outside the body")
        direction = tuple(as_fraction(y) - as_fraction(x) for x, y in zip(source, p)) \
            if is_exact_coords(source) and is_exact_coords(p) \
            else tuple(float(y) - float(x) for x, y in zip(source, p))
        if not illuminates_by_direction(body, p, direction, tol):
            return False
        return not _segment_meets_ball_interior(source, p)
    if isinstance(body, ConvexPolygon):
        src = frac_vec(source)
        if _point_in_polygon_interior(body, src):
            raise PreconditionViolation("source must be strictly outside the body")
        pf = frac_vec(p)
        direction = (pf[0] - src[0], pf[1] - src[1])
        if direction == (Fraction(0), Fraction(0)):
            raise PreconditionViolation("source coincides with boundary point")
        if not illuminates_by_direction(body, pf, direction):
            return False
        return not _segment_meets_polygon_interior(body, src, pf)
    raise UnsupportedBody(f"unsupported body kind {type(body).__name__}")


def _point_in_polygon_interior(poly: ConvexPolygon, p) -> bool:
    p = frac_vec(p)
    return all(
        dot(p, poly.outward_normal(i)) < dot(poly.vertices[i], poly.outward_normal(i))
        for i in range(poly.n)
    )


# --------------------------------------------------------------------------
# deterministic boundary sampling
# --------------------------------------------------------------------------

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _sphere_s2(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * _GOLDEN_ANGLE
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sphere_sample(dim: int, n: int) -> np.ndarray:
    """Deterministic quasi-uniform points on S^(dim-1); no RNG involved."""
    if n < 1:
        raise DomainError("sample count must be >= 1")
    if dim == 2:
        t = 2 * np.pi * np.arange(n, dtype=np.float64) / n
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if dim == 3:
        return _sphere_s2(n)
    raise DomainError(f"sphere sampling not implemented for dimension {dim}")


def boundary_sample(body, n: int) -> np.ndarray:
    """Deterministic quasi-uniform boundary sample; identical bytes per input."""
    if n < 1:
        raise DomainError("sample count must be >= 1")
    if isinstance(body, Ball):
        return sphere_sample(body.dim, n)
    if isinstance(body, ConvexPolygon):
        verts = body.vertex_array()
        edge_vecs = np.roll(verts, -1, axis=0) - verts
        lengths = np.linalg.norm(edge_vecs, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        perimeter = cum[-1]
        s = perimeter * np.arange(n, dtype=np.float64) / n
        idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(lengths) - 1)
        local = (s - cum[idx]) / lengths[idx]
        return verts[idx] + local[:, None] * edge_vecs[idx]
    raise UnsupportedBody(f"no boundary sampler for {type(body).__name__}")


# --------------------------------------------------------------------------
# m-fold verification
# --------------------------------------------------------------------------

@dataclass
class SampleSet:
    """Boundary samples prepared for the counting kernel.

    ``normals`` are unit vectors, ``offsets`` shift the strictness
    threshold per point (0 for smooth boundary samples; cos of the
    tangent-cone half-angle for cap-body apexes).
    """

    points: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray


def _worst_index(points: np.ndarray, counts: np.ndarray) -> int:
    """First index of the lexicographically least point among the minimum
    counts: the first row of a stable ``lexsort``, found without sorting."""
    candidates = np.flatnonzero(counts == counts.min())
    for column in range(points.shape[1]):
        vals = points[candidates, column]
        candidates = candidates[vals == vals.min()]
    return int(candidates[0])


def _report(
    m: int, point, count: int, margins: np.ndarray, mults: np.ndarray, samples: int
) -> IlluminationReport:
    """Verdict at the worst point, with the m-th largest margin there."""
    expanded = np.sort(np.repeat(margins, mults))
    return IlluminationReport(
        passed=bool(count >= m),
        m=m,
        worst_point=tuple(point),
        worst_count=int(count),
        worst_margin=float(expanded[-min(m, len(expanded))]),
        samples=samples,
    )


def verify_samples(
    samples: SampleSet,
    multiset: DirectionMultiset,
    m: int,
    tol: Tolerance,
) -> IlluminationReport:
    """Count robustly illuminating directions per sample and report the worst."""
    units, mults = multiset.as_arrays()
    pts, normals, offsets = samples.points, samples.normals, samples.offsets
    counts = _kernels.count_illuminating(normals, offsets, units, mults, tol.margin)
    wi = _worst_index(pts, counts)
    margins = -(units @ normals[wi]) - offsets[wi]
    return _report(m, pts[wi].tolist(), counts[wi], margins, mults, len(pts))


def _verify_polygon_exact(
    poly: ConvexPolygon, multiset: DirectionMultiset, m: int
) -> IlluminationReport:
    """Exact verdict: a vertex is illuminated by u iff both adjacent outward
    normals have strictly negative dot with u.  Vertex coverage implies edge
    coverage, so vertices decide the verdict."""
    n = poly.n
    counts = []
    margins_per_vertex = []
    for i in range(n):
        n_prev = poly.outward_normal(i - 1)
        n_cur = poly.outward_normal(i)
        np_f = np.asarray([float(n_prev[0]), float(n_prev[1])])
        nc_f = np.asarray([float(n_cur[0]), float(n_cur[1])])
        np_f /= np.linalg.norm(np_f)
        nc_f /= np.linalg.norm(nc_f)
        count = 0
        vertex_margins = []
        for d, mult in multiset.entries:
            uf = frac_vec(d.coords)
            if dot(uf, n_prev) < 0 and dot(uf, n_cur) < 0:
                count += mult
            u = d.unit()
            vertex_margins.append(min(-float(u @ np_f), -float(u @ nc_f)))
        counts.append(count)
        margins_per_vertex.append(np.asarray(vertex_margins))
    counts = np.asarray(counts, dtype=np.int64)
    pts = poly.vertex_array()
    wi = _worst_index(pts, counts)
    _, mults = multiset.as_arrays()
    return _report(m, poly.vertices[wi], counts[wi], margins_per_vertex[wi], mults, n)


def _det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination: every
    division is exact, so all entries stay integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _exact_sphere_minimum(
    units: np.ndarray, mults: np.ndarray, tau: float
) -> tuple[int, np.ndarray, int]:
    """Exact minimum over the unit sphere of c(p) = #{j : <u_j, p> < -tau},
    with multiplicity, for the rational values of the float rows u_j.

    c is constant on the faces of the arrangement of the hyperplanes
    <u_j, x> = -tau, only drops on their closures, and never drops along a
    ray leaving the sphere.  So its minimum is attained (a) far out along
    an extreme ray, where d-1 hyperplanes u_j^perp meet, or (b) if tau > 0,
    at a vertex v with |v| >= 1, where d hyperplanes meet.  In homogeneous
    coordinates X = (x, 1) both are cross products of d rows (u_j, tau),
    the plane at infinity among them for (a); for (b) this is Cramer's
    rule.  Directions spanning at most d-2 dimensions give neither, and a
    point orthogonal to them all counts 0.

    Returns the minimum, a float unit point attaining it, and the number of
    subsets evaluated: C(k, d-1) + C(k, d) for k distinct rows, the second
    term only when tau > 0.
    """
    d = units.shape[1]
    merged = {}
    for row, mult in zip(units.tolist(), mults.tolist()):
        # the primitive integer row h ~ (u, tau): <u, x> < -tau iff <h, X> < 0
        key = Direction((*row, tau))._canonical()
        merged[key] = merged.get(key, 0) + mult
    at_infinity = (0,) * d + (1,)
    points = []
    for subset in combinations([at_infinity, *merged], d):
        if not tau and subset[0] != at_infinity:
            break  # with tau = 0 every vertex is the origin
        # signed minors, <point, X> = det(subset, X); the last one is 0 for (a)
        point = [
            (-1) ** (d + i) * _det([h[:i] + h[i + 1:] for h in subset])
            for i in range(d + 1)
        ]
        if point[-1] < 0:
            point = [-c for c in point]
        if point[-1] and dot(point[:-1], point[:-1]) >= point[-1] ** 2:
            points.append(point)
        elif not point[-1] and any(point):
            points += [point, [-c for c in point]]
    k = len(merged)
    evaluated = math.comb(k, d - 1) + (math.comb(k, d) if tau else 0)
    if not points:
        return 0, np.linalg.svd(units)[2][-1], evaluated
    counts = [sum(mult for h, mult in merged.items() if dot(h, p) < 0) for p in points]
    best = min(counts)
    x = points[counts.index(best)][:-1]
    scale = max(abs(c) for c in x)
    x = np.asarray([c / scale for c in x])
    return best, x / np.linalg.norm(x), evaluated


def verify_mfold(
    body,
    multiset: DirectionMultiset,
    m: int,
    tol: Tolerance = Tolerance(),
) -> IlluminationReport:
    """m-fold illumination verdict: exact for a polygon, a ball and a smooth
    2D body (the latter two for the rational values of the float unit
    directions), sampled with strictness margin for a cap body of a ball."""
    if m < 1:
        raise DomainError("m must be >= 1")
    body_dim = getattr(body, "dim", 2)
    if multiset.dim != body_dim:
        raise DomainError(
            f"direction dimension {multiset.dim} != body dimension {body_dim}"
        )
    if isinstance(body, ConvexPolygon):
        return _verify_polygon_exact(body, multiset, m)
    if isinstance(body, (Ball, SupportFunctionBody)):
        units, mults = multiset.as_arrays()
        count, normal, evaluated = _exact_sphere_minimum(units, mults, tol.margin)
        point = normal
        if isinstance(body, SupportFunctionBody):
            # u lights the one boundary point with outward normal n iff
            # <u, n> < 0, so the body is lit exactly as its circle of normals
            theta = math.atan2(normal[1], normal[0])
            point = body.boundary_points(np.asarray([theta]))[0]
        return _report(m, point.tolist(), count, -(units @ normal), mults, evaluated)
    from .capbody import CapBodySpec, validate_cap_body  # deferred: capbody builds on this module

    if isinstance(body, CapBodySpec):
        if not validate_cap_body(body):
            raise PreconditionViolation(
                "cap body is invalid: an apex pair's segment misses the ball"
            )
        samples = body.boundary_sample_set(resolve_samples(tol, body.dim))
        return verify_samples(samples, multiset, m, tol)
    raise UnsupportedBody(f"cannot verify body of kind {type(body).__name__}")
