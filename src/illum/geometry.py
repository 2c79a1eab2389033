"""Geometric primitives and the illumination predicate.

Arithmetic policy: polygons and piercing arcs hold exact rational
coordinates as integers over a positive denominator and build their
``fractions.Fraction`` values only when read, and every 2D orientation test
that feeds an exact verdict runs on their primitive integer rays
(``_primitive_ray``), computed once per vector; ball, smooth-body and
cap-body verdicts are exact for the rational values of the float unit
directions (and apexes), on integer multiples of them.  Their signs come
from floats with proven running error bounds (``_Bounded``,
``_filtered_sign``) wherever a bound decides them; zeros known by
construction are set without arithmetic, and integer arithmetic decides
only the signs the bounds leave open.  Ball and cap-body checks merge
rows by ray (``_merged_rows``) and share one sign stage (``_row_signs``):
cofactor vectors, and circle vertices (x, 1) with a 4 _EPS bound.
Inequalities are strict throughout: a direction tangent to the body at a
boundary point does not illuminate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key, lru_cache
from itertools import combinations, islice, pairwise
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    PreconditionViolation,
    UnsupportedBody,
)

Scalar = Fraction | int | float


# --------------------------------------------------------------------------
# exact rational vector helpers (2D)
# --------------------------------------------------------------------------

def frac_vec(coords) -> tuple[Fraction, ...]:
    return tuple(Fraction(*_ratio(c)) for c in coords)


def _ratio(c) -> tuple[int, int]:
    """A Python-int ratio (p, q), q > 0, of ``Fraction(c)``, or its error
    (floats read as their binary values): "p" and "p/q" in ASCII digits (p
    may be negative) by int(), unreduced."""
    if isinstance(c, (float, int)):  # isinstance of Fraction, an ABC, is slow
        return c.as_integer_ratio()
    if isinstance(c, str) and c.isascii():
        num, slash, den = c.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            q = int(den) if slash else 1
            if q:  # Fraction(c) raises the error of a zero denominator
                return int(num), q
    # Fraction keeps a numpy integer as its numerator, where products wrap
    return tuple(map(int, Fraction(c).as_integer_ratio()))


def _integer_vector(coords) -> tuple[int, ...]:
    """(x d, y d, ..., d): a rational vector as integers over the lcm d of
    its denominators."""
    ratios = [_ratio(c) for c in coords]
    d = math.lcm(*(q for _, q in ratios))
    return (*[p * (d // q) for p, q in ratios], d)


def _over(v) -> tuple[Fraction, ...]:
    """The ``Fraction`` vector (x/d, y/d, ...) of integers (x, y, ..., d), d > 0."""
    *ints, d = v
    return tuple(Fraction(c, d) for c in ints)


def _primitive_ray(coords) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero rational vector
    (floats read as their exact binary values), in any dimension.

    Positive scaling changes no orientation or sign test, so exact tests
    can run on these ints instead of on ``Fraction``s, and two vectors name
    the same ray iff their primitive rays are equal.
    """
    ints = _integer_vector(coords)[:-1]
    g = math.gcd(*ints)
    if not g:
        raise DomainError("zero vector has no ray")
    return tuple(i // g for i in ints)


def _binary_exponent(x) -> int:
    """e with 2^(e-1) <= |x| < 2^(e+1) for a nonzero float or rational x."""
    if isinstance(x, float):
        return math.frexp(x)[1]
    x = Fraction(x)
    return x.numerator.bit_length() - x.denominator.bit_length()


def _scaled_float(x, shift: int) -> float:
    """x 2^shift rounded to a float; exact scaling before the one rounding."""
    if isinstance(x, float):
        return math.ldexp(x, shift)
    return float(Fraction(x) * Fraction(2) ** shift)


def _ray_unit(ray) -> np.ndarray:
    """Float unit vector on an integer ray; dividing by the largest entry
    first keeps rays of any size inside float range."""
    scale = max(abs(c) for c in ray)
    v = np.asarray([c / scale for c in ray])
    return v / np.linalg.norm(v)


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def angle_cmp(a, b) -> int:
    """Exact comparison of nonzero 2D vectors by angle in [0, 2pi)."""
    (ax, ay), (bx, by) = a, b  # ha, hb: angle in [pi, 2pi)
    ha, hb = ay < 0 or (ay == 0 and ax <= 0), by < 0 or (by == 0 and bx <= 0)
    if ha != hb:
        return 1 if ha else -1
    c = ax * by - ay * bx
    return (c < 0) - (c > 0)


angle_sort_key = cmp_to_key(angle_cmp)


def _rel_class(base, z) -> int:
    """Coarse CCW offset of z from base: 0 at 0, 1 in (0,pi), 2 at pi, 3 in (pi,2pi)."""
    (bx, by), (zx, zy) = base, z
    c = bx * zy - by * zx
    if c > 0:
        return 1
    if c < 0:
        return 3
    return 0 if bx * zx + by * zy > 0 else 2


def ccw_rel_lt(base, a, b) -> bool:
    """True iff the CCW offset of a from base is strictly less than that of b."""
    ca, cb = _rel_class(base, a), _rel_class(base, b)
    if ca != cb:
        return ca < cb
    if ca in (0, 2):
        return False
    return a[0] * b[1] - a[1] * b[0] > 0


def in_halfopen_arc(start, end, x) -> bool:
    """x in the CCW arc [start, end), endpoints as exact vectors."""
    return ccw_rel_lt(start, x, end)


def in_open_arc(start, end, x) -> bool:
    """x in the CCW arc (start, end): ``ccw_rel_lt(start, x, end)`` off start."""
    cx, ce = _rel_class(start, x), _rel_class(start, end)
    return 0 < cx < ce or (0 < cx == ce and x[0] * end[1] - x[1] * end[0] > 0)


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
        if any(isinstance(c, float) and not math.isfinite(c) for c in coords):
            raise DomainError("direction coordinates must be finite")
        if all(c == 0 for c in coords):
            raise DomainError("zero vector is not a direction")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def unit(self) -> np.ndarray:
        """Float unit vector.  The coordinates are first scaled by the power
        of two that brings the largest near 1: exact, so the result is the
        same bits wherever the unscaled floats and their squares neither
        overflow nor underflow, and coordinates of any size stay in range."""
        shift = -max(_binary_exponent(c) for c in self.coords if c)
        v = np.asarray([_scaled_float(c, shift) for c in self.coords])
        return v / np.linalg.norm(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        return _primitive_ray(self.coords) == _primitive_ray(other.coords)

    def __hash__(self) -> int:
        return hash(_primitive_ray(self.coords))

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
        # counts sum multiplicities in float64, exact on integers below 2^53
        if sum(m for _, m in entries) >= 2**53:
            raise DomainError("total multiplicity must be below 2^53")
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
    """Strictness margin of verification: a direction counts at a normal
    only when its inequality holds by more than ``margin``."""

    margin: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise DomainError("margin must be a finite number >= 0")


class ConvexPolygon:
    """Strictly convex polygon, CCW vertex order, exact rational coordinates.

    It is held on integers: ``int_vertices[i]`` is vertex i as integer
    ratios ((x, q), (y, r)) with q, r > 0; ``int_edges[i]`` is the edge from
    vertex i to vertex i+1 as (x, y, d) for (x/d, y/d) with the least d > 0;
    and ``rays[i]`` is the edge's primitive integer ray, on which every
    orientation test runs.  ``vertices`` and ``edges`` are their
    ``Fraction`` values, built when first read.
    """

    def __init__(self, vertices):
        ratios = tuple(tuple(map(_ratio, v)) for v in vertices)
        if any(len(v) != 2 for v in ratios):
            raise DomainError("polygon vertices need exactly two coordinates")
        if len(ratios) < 3:
            raise DomainError("polygon needs at least 3 vertices")
        n = len(ratios)
        # integer edges, streamed: each vertex over the lcm of its two
        # denominators, each edge over the lcm of its two vertices' (one lcm
        # of all grows with n if they differ), then cut to its least one
        points = ((xn * (d // xd), yn * (d // yd), d)
                  for (xn, xd), (yn, yd) in ratios + ratios[:1] for d in (math.lcm(xd, yd),))
        edges, rays = [], []
        for (ax, ay, da), (bx, by, db) in pairwise(points):
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            dx, dy = bx * fb - ax * fa, by * fb - ay * fa
            g = math.gcd(dx, dy)
            h = math.gcd(g, den)
            edges.append((dx // h, dy // h, den // h))
            rays.append(g and (dx // g, dy // g))  # 0 for a zero edge
        self.int_vertices, self.int_edges = ratios, tuple(edges)
        self.rays = tuple(rays)
        try:
            if not all(rays):
                raise DomainError("zero vector has no ray")
            if not all(cross2(rays[i - 1], rays[i]) > 0 for i in range(n)):
                raise DomainError("polygon must be strictly convex with CCW vertex order")
            # all turns positive still admits multiple windings; a simple
            # convex cycle descends through angle zero exactly once
            descents = sum(1 for i in range(n) if angle_cmp(rays[i - 1], rays[i]) > 0)
            if descents != 1:
                raise DomainError("vertex cycle winds more than once")
        except DomainError:
            # a repeated vertex always fails above (an adjacent one as a zero
            # edge; a strictly convex cycle winding once has no other), so
            # the set is built only here, where it still takes precedence
            if len(set(self.vertices)) != n:
                raise DomainError("repeated vertex") from None
            raise

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(*x), Fraction(*y)) for x, y in self.int_vertices)

    @cached_property
    def edges(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(map(_over, self.int_edges))

    @property
    def n(self) -> int:
        return len(self.rays)

    def outward_normal(self, i: int) -> tuple[Fraction, Fraction]:
        """Outward normal of the edge from vertex i to vertex i+1 (unnormalized)."""
        e = self.edges[i % self.n]
        return (e[1], -e[0])

    def lights_vertex(self, i: int, u) -> bool:
        """Does direction u (any positive multiple) enter the interior at
        vertex i?  Iff u lies in the open arc (rays[i], -rays[i-1]), i.e.
        both edges at the vertex turn strictly left to u."""
        return cross2(self.rays[i - 1], u) > 0 and cross2(self.rays[i], u) > 0

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
    accept numpy arrays.  ``support_prime`` is its derivative.
    """

    support: Callable
    support_prime: Callable

    def _h(self, thetas: np.ndarray) -> np.ndarray:
        return np.asarray(self.support(thetas), dtype=np.float64)

    def _hp(self, thetas: np.ndarray) -> np.ndarray:
        return np.asarray(self.support_prime(thetas), dtype=np.float64)

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
    a, b = float(a), float(b)  # numpy scalars would warn as a * a overflows
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError("semi-axes must be positive and finite")
    if not math.isfinite(a * a + b * b):
        raise DomainError("semi-axes too large: a^2 + b^2 must be finite")

    def h(t):
        t = np.asarray(t, dtype=np.float64)
        return np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)

    def hp(t):
        t = np.asarray(t, dtype=np.float64)
        return (b * b - a * a) * np.sin(t) * np.cos(t) / h(t)

    return SupportFunctionBody(support=h, support_prime=hp)


@dataclass
class IlluminationReport:
    """Verification verdict with the least-covered witness point.

    ``recomputed`` counts the signs the float filter of an exact verifier
    left open and integer arithmetic decided; it is not part of the JSON
    report."""

    passed: bool
    m: int
    worst_point: tuple
    worst_count: int
    worst_margin: float
    samples: int
    recomputed: int = 0

    def __bool__(self) -> bool:
        return self.passed


# --------------------------------------------------------------------------
# illumination predicate
# --------------------------------------------------------------------------

def _check_on_sphere(p, margin: float):
    norm_sq = float(sum(float(c) * float(c) for c in p))
    if abs(math.sqrt(norm_sq) - 1.0) > max(margin, 1e-9):
        raise PreconditionViolation("point is not on the unit sphere")


def illuminates_by_direction(body, p, u, tol: Tolerance = Tolerance()) -> bool:
    """Does moving from boundary point p along u enter the interior of body?

    Ball: strict <u, p> < 0 (exact for rational inputs, margin ``tol.margin``
    in float mode).  Polygon: exact orientation tests against the edge rays
    at p (``ConvexPolygon.lights_vertex`` at a vertex).
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
            return cross2(body.rays[i], uf) > 0
        return body.lights_vertex(i, uf)
    raise UnsupportedBody(f"unsupported body kind {type(body).__name__}")


def _segment_origin_distance_sq(a, b):
    """Squared distance from the origin to the closed segment a-b.

    Exact (a ``Fraction``) for rational endpoints.  Otherwise a float, or
    one float per row when a and b are (N, d) arrays of rows, N = 0 too.
    """
    # rows take the float path even when there are none, which
    # is_exact_coords would pass vacuously
    if not isinstance(a, np.ndarray) and is_exact_coords(a) and is_exact_coords(b):
        a, b = frac_vec(a), frac_vec(b)
        d = tuple(y - x for x, y in zip(a, b))
        dd = dot(d, d)
        if dd == 0:
            return dot(a, a)
        t = -Fraction(dot(a, d), dd)
        t = min(max(t, Fraction(0)), Fraction(1))
        closest = tuple(x + t * y for x, y in zip(a, d))
        return dot(closest, closest)
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    d = bv - av
    dd = _column_dots(d, d)[..., None]
    with np.errstate(all="ignore"):  # dd = 0 takes the endpoint a
        t = -_column_dots(av, d)[..., None] / dd
    # endpoints taken verbatim when the clamp binds: a + t*d cancels badly
    # for far sources, and on-sphere endpoints must stay out of the verdict
    closest = np.where((dd == 0) | (t <= 0.0), av, np.where(t >= 1.0, bv, av + t * d))
    return _column_dots(closest, closest)


def _column_dots(x, y) -> np.ndarray:
    """<x, y> over the last axis, one column at a time: rounded exactly as
    ``(x * y).sum(axis=-1)``, its root as ``np.linalg.norm(x, axis=-1)``,
    and much faster on few columns."""
    prod = np.multiply(x, y)
    out = prod[..., 0].copy()
    for j in range(1, prod.shape[-1]):
        out += prod[..., j]
    return out


# --------------------------------------------------------------------------
# deterministic boundary sampling: no verdict uses it; tests compare the
# exact verifiers against it
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


# --------------------------------------------------------------------------
# m-fold verification
# --------------------------------------------------------------------------

def _worst_index(points: np.ndarray, counts: np.ndarray) -> int:
    """First index of the lexicographically least point among the minimum
    counts: the first row of a stable ``lexsort``, found without sorting."""
    candidates = np.flatnonzero(counts == counts.min())
    for column in range(points.shape[1]):
        vals = points[candidates, column]
        candidates = candidates[vals == vals.min()]
    return int(candidates[0])


def _report(
    m: int,
    point,
    count: int,
    margins: np.ndarray,
    mults: np.ndarray,
    samples: int,
    recomputed: int = 0,
) -> IlluminationReport:
    """Verdict at the worst point, with the m-th largest margin there,
    counted with multiplicity (the least one when m exceeds the total): the
    margins sorted stably from the largest, and the first whose running sum
    of multiplicities reaches m, so no array grows with a multiplicity."""
    order = (-margins).argsort(kind="stable")
    reach = np.asarray(mults)[order].cumsum()
    return IlluminationReport(
        passed=bool(count >= m),
        m=m,
        worst_point=tuple(point),
        worst_count=int(count),
        worst_margin=float(margins[order[reach.searchsorted(min(m, reach[-1]))]]),
        samples=samples,
        recomputed=recomputed,
    )


def _verify_polygon_exact(
    poly: ConvexPolygon, multiset: DirectionMultiset, m: int
) -> IlluminationReport:
    """Exact verdict on the vertices, by ``ConvexPolygon.lights_vertex`` on
    the primitive rays of the directions; vertex coverage implies edge
    coverage, so vertices decide the verdict.  The worst vertex is the
    lexicographically least of the least lit, compared exactly; the float
    margins, against its two unit outward normals, are taken there only."""
    rays = [_primitive_ray(d.coords) for d, _ in multiset.entries]
    mults = [mult for _, mult in multiset.entries]
    counts = [
        sum(mult for u, mult in zip(rays, mults) if poly.lights_vertex(i, u))
        for i in range(poly.n)
    ]
    least = min(counts)
    wi = min(
        (i for i, c in enumerate(counts) if c == least),
        key=poly.vertices.__getitem__,
    )
    units = np.stack([_ray_unit(u) for u in rays])
    normals = np.stack(
        [_ray_unit((r[1], -r[0])) for r in (poly.rays[wi - 1], poly.rays[wi])]
    )
    margins = (-(units @ normals.T)).min(axis=1)
    return _report(m, poly.vertices[wi], least, margins, mults, poly.n)


# --------------------------------------------------------------------------
# float filter: running error bounds in front of exact integer signs
# --------------------------------------------------------------------------

#: bound on the rounding error of one float64 operation relative to its
#: rounded result: twice the unit roundoff 2^-53
_EPS = 2.0 ** -52
#: bound on the absolute rounding error of an operation that underflows
_ETA = 2.0 ** -1074
#: signs per numpy pass; bounds the scratch matrices
_SIGN_CHUNK = 1 << 18


class _Bounded:
    """Float64 array with a bound on each entry's distance from the real
    number it stands for: running error analysis (N. Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., section 3.3).

    Inputs are exact floats, with bound 0.  Let x and y carry bounds e and
    f on their distance from the reals X and Y.  An operation rounds its
    exact result r on x and y to r~ with |r~ - r| <= _EPS |r~| + _ETA, and
    r lies within

    - e + f of X + Y and of X - Y;
    - |x| f + |y| e + e f of X Y;
    - (e + |x / y| f) / (|y| - f) of X / Y when |y| > f (no bound, inf,
      otherwise);
    - min(sqrt(e), e / sqrt(x)) of sqrt(X) for sqrt(max(x, 0)) when X >= 0,
      since |sqrt(X) - sqrt(x)| <= sqrt(|X - x|) and it equals
      |X - x| / (sqrt(X) + sqrt(x)).

    A sum of n terms rounds n - 1 times, each time by at most _EPS times
    the sum of their absolute values.  Each result's bound adds its
    rounding to the propagated bound.

    The root is where a vertex near a tangency loses accuracy: a radicand
    known to e gives a root known only to about sqrt(e), so such a vertex
    is known to about sqrt(_EPS) = 1.5e-8, and its sign band widens to
    match.
    """

    __slots__ = ("val", "err")

    def __init__(self, val, err=None):
        self.val = np.asarray(val, dtype=np.float64)
        self.err = np.zeros_like(self.val) if err is None else err

    @staticmethod
    def _rounded(val, err) -> "_Bounded":
        return _Bounded(val, err + _EPS * np.abs(val) + _ETA)

    def __getitem__(self, key) -> "_Bounded":
        return _Bounded(self.val[key], self.err[key])

    def __neg__(self) -> "_Bounded":
        return _Bounded(-self.val, self.err)

    def __add__(self, other) -> "_Bounded":
        return self._rounded(self.val + other.val, self.err + other.err)

    def __sub__(self, other) -> "_Bounded":
        return self._rounded(self.val - other.val, self.err + other.err)

    def __mul__(self, other) -> "_Bounded":
        return self._rounded(
            self.val * other.val,
            np.abs(self.val) * other.err
            + np.abs(other.val) * self.err
            + self.err * other.err,
        )

    def __truediv__(self, other) -> "_Bounded":
        quotient = self.val / other.val
        slack = np.abs(other.val) - other.err
        err = (self.err + np.abs(quotient) * other.err) / slack
        return self._rounded(quotient, np.where(slack > 0, err, np.inf))

    def sum(self) -> "_Bounded":
        """Sum over the last axis, kept as an axis of length 1."""
        terms = self.val.shape[-1]
        return self._rounded(
            self.val.sum(axis=-1, keepdims=True),
            self.err.sum(axis=-1, keepdims=True)
            + (terms - 2) * _EPS * np.abs(self.val).sum(axis=-1, keepdims=True),
        )

    @staticmethod
    def combination(pairs) -> "_Bounded":
        """Sum of the products c_i x_i over the pairs (c_i, x_i) of exact
        float arrays and ``_Bounded`` arrays, accumulated in order: t
        products and t - 1 additions, so by the rules above it is within
        sum |c_i| e_i + (t - 1) _EPS sum |c_i x_i| + _EPS |s| + (t + 1) _ETA.
        One pair is held at a time."""
        val = size = spread = 0.0
        terms = 0
        for coeff, term in pairs:
            product = coeff * term.val
            val = val + product
            size = size + np.abs(product)
            spread = spread + np.abs(coeff) * term.err
            terms += 1
        err = spread + (terms - 1) * _EPS * size + _EPS * np.abs(val)
        return _Bounded(val, err + (terms + 1) * _ETA)

    def sqrt(self) -> "_Bounded":
        """Root of max(x, 0), for a radicand whose exact value is >= 0."""
        root = np.sqrt(np.maximum(self.val, 0.0))
        return self._rounded(root, np.fmin(np.sqrt(self.err), self.err / root))


def _filtered_sign(value: np.ndarray, bound: np.ndarray):
    """Signs of the exact numbers within ``bound`` of ``value`` where the
    bound decides them (0 elsewhere), and the mask of the undecided ones.

    A bound is itself a float sum, product, quotient and root of
    nonnegative floats, dozens of operations deep, each of relative error
    below _EPS; its own rounding is far below a factor 2, so doubling it
    makes it safe.  NaN and inf values stay undecided."""
    band = 2.0 * bound
    sign = np.where(value > band, 1, np.where(value < -band, -1, 0)).astype(np.int8)
    return sign, ~(np.abs(value) > band)


def _row_signs(val: np.ndarray, err: np.ndarray, frows: np.ndarray, own: np.ndarray):
    """Filtered signs of <h, X> (see ``_filtered_sign``) and the mask of
    the open ones, for each homogeneous float point X~ (a row of ``val``,
    within ``err`` of the exact X in each of its D coordinates) and each
    float row h of ``frows``.  In any summation order <h, X~> is within
    sum |h_i| e_i + D (_EPS sum |h_i X~_i| + _ETA) of <h, X>; a second
    D _ETA covers the underflow of the bound's own products.  The rows
    ``own[s]`` pass through point s by construction: sign 0, not open.
    Indices past the last row (helper planes) are ignored.  ``einsum``
    keeps BLAS out: a BLAS product is faster, but its work buffers raise
    the process's peak memory."""
    terms, habs = val.shape[1], abs(frows)
    value = np.einsum("sd,kd->sk", val, frows)
    bound = np.einsum("sd,kd->sk", err, habs)
    bound += terms * _EPS * np.einsum("sd,kd->sk", abs(val), habs)
    sign, open_ = _filtered_sign(value, bound + 2 * terms * _ETA)
    s, j = np.nonzero(own < len(frows))
    sign[s, own[s, j]], open_[s, own[s, j]] = 0, False
    return sign, open_


def _merged_rows(frows, weights):
    """Rows on one ray merged into the first, their weights summed: the
    primitive integer rows, the float rows (positive multiples of them, so
    every sign agrees) and the weights."""
    merged = {}
    for frow, weight in zip(frows, weights):
        merged.setdefault(_primitive_ray(frow), [frow, 0])[1] += weight
    frows, weights = zip(*merged.values())
    return list(merged), np.asarray(frows), np.asarray(weights)


# --------------------------------------------------------------------------
# exact sphere minimum: bounded float cofactors of all subsets at once
# --------------------------------------------------------------------------

@cache
def _laplace_plan(d: int) -> tuple:
    """Index arrays of a Laplace expansion of the d x d minors of a
    d x (d+1) matrix, one level per row r = 1..d-1: the column sets of size
    r + 1 in lexicographic order, for each of them its columns, the index
    of each set with one column left out among the sets of size r, and the
    cofactor signs (-1)^(r + i) of expanding along row r."""
    levels = []
    index = {(col,): col for col in range(d + 1)}
    for r in range(1, d):
        sets = list(combinations(range(d + 1), r + 1))
        minors = [[index[s[:i] + s[i + 1:]] for i in range(r + 1)] for s in sets]
        signs = [(-1.0) ** (r + i) for i in range(r + 1)]
        levels.append((np.asarray(sets), np.asarray(minors), signs))
        index = {s: i for i, s in enumerate(sets)}
    return tuple(levels)


def _bounded_cofactors(a: np.ndarray) -> _Bounded:
    """The signed cofactors c_i = (-1)^(d+i) det(M without column i) of each
    exact float d x (d+1) matrix M of the stack ``a`` (shape (S, d, d+1)),
    so that <c, X> = det(M, X), with ``_Bounded`` bounds: the minors of the
    first r + 1 rows on every column set from those of the first r rows.
    Only +, - and x of floats, about (d+1) 2^d products per matrix."""
    d = a.shape[1]
    minors = _Bounded(a[:, 0, :])
    for r, (sets, smaller, signs) in enumerate(_laplace_plan(d), start=1):
        minors = _Bounded.combination(
            (a[:, r, sets[:, i]] * sign, minors[:, smaller[:, i]])
            for i, sign in enumerate(signs)
        )
    # the set without column i is the (d - i)-th of size d
    signs = [(-1.0) ** (d + i) for i in range(d + 1)]
    return _Bounded(minors.val[:, ::-1] * signs, minors.err[:, ::-1])


def _cofactor_vector(rows) -> list[int]:
    """The signed cofactors c_i = (-1)^(d+i) det(rows without column i) of
    d integer rows of length d+1, so that <c, X> = det(rows, X); all 0 when
    the rows have rank < d.

    One fraction-free Gauss-Jordan elimination (Bareiss: every division is
    exact): with rank d it leaves D I on the pivot columns, D the determinant
    of the pivot columns times the sign s of the row swaps, and D y on the
    one other column q, where y solves the pivot columns against column q.
    The kernel vector is D on q and -D y on the pivot columns; by Cramer's
    rule c is that vector times s (-1)^(d+q).  Columns already pivoted are
    not read again, so they are not updated."""
    a = [list(r) for r in rows]
    d = len(a)
    sign, prev, pivots, free = 1, 1, [], None
    for col in range(d + 1):
        r = len(pivots)
        pivot = next((i for i in range(r, d) if a[i][col]), None)
        if pivot is None:
            if free is not None:
                return [0] * (d + 1)
            free = col
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        top, p = a[r], a[r][col]
        live = list(range(col + 1, d + 1)) + ([] if free is None else [free])
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                for j in live:
                    row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        pivots.append(col)
    sign *= (-1) ** (d + free)
    point = [0] * (d + 1)
    point[free] = sign * prev
    for row, col in zip(a, pivots):
        point[col] = -sign * row[free]
    return point


@np.errstate(all="ignore")  # overflowing bounds are infinite: undecided
def _subset_minimum(rows, frows, weights, subsets, cutoff):
    """The least count below ``cutoff`` among the candidates of these
    subsets (see ``_exact_sphere_minimum``), at the first candidate in
    enumeration order that has it: returns (count, orientation of its
    cofactor vector, subset, that vector if it was computed) or None, the
    new cutoff and the number of signs decided in integers.

    ``rows`` are the integer rows, the row at infinity first, ``frows`` the
    float rows (positive multiples, so every sign agrees) and ``weights``
    their multiplicities, 0 for the row at infinity.  The float stage
    bounds the d+1 cofactors c of every subset and decides from them w's
    sign, whether |x|^2 >= w^2 and whether any cofactor is nonzero, and
    the sign of <h, c> for every row h (``_row_signs``).  Zeros known
    by construction are set, not computed: w for a subset with the row at
    infinity, and <h, c> for the subset's own rows.

    A candidate's count then lies in [lo, lo + slack]: lo weighs its
    decided negative rows, slack its open ones.  One whose lo is not below
    the least count before it (nor below the least lo + slack, plus 1)
    cannot come first at the minimum and is skipped.  Every other open
    question is settled in integers, in enumeration order: the subset's
    exact cofactors once by ``_cofactor_vector``, then one integer dot
    product per open sign."""
    d = subsets.shape[1]
    c = _bounded_cofactors(frows[subsets])
    w_sign, w_open = _filtered_sign(c.val[:, d], c.err[:, d])
    at_infinity = subsets[:, 0] == 0
    w_sign[at_infinity], w_open[at_infinity] = 0, False
    gap = (c[:, :d] * c[:, :d]).sum() - c[:, d:] * c[:, d:]
    gap_sign, gap_open = _filtered_sign(gap.val[:, 0], gap.err[:, 0])
    nonzero = (_filtered_sign(c.val, c.err)[0] != 0).any(axis=1)
    finite = w_sign != 0
    unknown = w_open | np.where(finite, gap_open, ~nonzero)
    # slot 0: c turned to w >= 0; slot 1: its negation, a candidate iff w = 0
    orient = np.where(w_sign < 0, -1.0, 1.0)
    valid = np.stack(
        [np.where(finite, gap_sign > 0, nonzero), ~finite & nonzero], axis=1
    ) & ~unknown[:, None]

    sign, undecided = _row_signs(c.val, c.err, frows, subsets)
    undecided[:, 0] = False  # the row at infinity weighs 0
    # counts are float64, exact below 2^53: the counting then runs on the
    # float kernels the filter loads anyway
    signed = np.stack(
        [np.where(test, weights, 0.0).sum(1) for test in (sign < 0, sign > 0)], axis=1
    )
    slack = np.where(undecided, weights, 0.0).sum(1)
    lo = np.where(orient[:, None] > 0, signed, signed[:, ::-1])
    none = weights.sum() + 1  # above every count
    if valid.any():
        hi = np.where(valid, lo + slack[:, None], none)
        cutoff = min(cutoff, int(hi.min()) + 1)

    # slots with no open sign have their exact count; the others that may
    # come in below the cutoff are resolved in order, against the least
    # count before them
    counts = np.where(valid & (lo < cutoff), lo, none)
    known = np.where(slack[:, None] == 0, counts, none).ravel()
    before = np.minimum.accumulate(np.concatenate([[none], known[:-1]]))
    work = (unknown & (signed.min(axis=1) < cutoff)) | (
        (counts < none) & (slack[:, None] > 0)
    ).any(axis=1)
    recomputed, exact, least = 0, {}, cutoff
    for s in np.flatnonzero(work).tolist():
        limit = min(least, int(before[2 * s]))
        if unknown[s]:
            if signed[s].min() >= limit:
                continue
            point = exact[s] = _cofactor_vector([rows[t] for t in subsets[s].tolist()])
            recomputed += 1
            w = point[-1]
            orient[s] = -1 if w < 0 else 1
            lo[s] = signed[s] if w >= 0 else signed[s, ::-1]
            valid[s] = (dot(point[:-1], point[:-1]) >= w * w if w else any(point),
                        not w and any(point))
        for slot in (0, 1):
            counts[s, slot] = none
            if not valid[s, slot] or lo[s, slot] >= limit:
                continue
            count, o = int(lo[s, slot]), int(orient[s]) * (1 - 2 * slot)
            if slack[s]:
                if s not in exact:
                    exact[s] = _cofactor_vector([rows[t] for t in subsets[s].tolist()])
                for j in np.flatnonzero(undecided[s]).tolist():
                    recomputed += 1
                    if o * dot(rows[j], exact[s]) < 0:
                        count += int(weights[j])
            if count < limit:
                counts[s, slot] = limit = least = count
    flat = counts.ravel().tolist()
    count = int(min(flat))
    s, slot = divmod(flat.index(count), 2)
    if count == none:
        return None, cutoff, recomputed
    o = int(orient[s]) * (1 - 2 * slot)
    return (count, o, subsets[s].tolist(), exact.get(s)), count, recomputed


def _exact_sphere_minimum(
    units: np.ndarray, mults: np.ndarray, tau: float
) -> tuple[int, np.ndarray, int, int]:
    """Exact minimum over the unit sphere of c(p) = #{j : <u_j, p> < -tau},
    with multiplicity, for the rational values of the float rows u_j.

    c is constant on the faces of the arrangement of the hyperplanes
    <u_j, x> = -tau, only drops on their closures, and never drops along a
    ray leaving the sphere.  So its minimum is attained (a) far out along
    an extreme ray, where d-1 hyperplanes u_j^perp meet, or (b) if tau > 0,
    at a vertex v with |v| >= 1, where d hyperplanes meet.  In homogeneous
    coordinates X = (x, w) both are the cofactor vectors of d rows
    (u_j, tau), the row at infinity (0, ..., 0, 1) among them for (a); for
    (b) this is Cramer's rule.  A vertex, turned to w > 0, is a candidate
    when |x|^2 >= w^2; a point at infinity (w = 0, some cofactor nonzero)
    gives two, X and then -X.  Directions spanning at most d-2 dimensions
    give neither, and a point orthogonal to them all counts 0.

    Subsets are taken in lexicographic order, chunk by chunk, and the
    first candidate at the least count wins; its exact integer point gives
    the float unit point (``_subset_minimum`` decides the signs).  Returns
    the minimum, that unit point, the number of subsets evaluated,
    C(k, d-1) + C(k, d) for k distinct rows (the second term only when
    tau > 0), and the number of signs decided in integers.
    """
    d = units.shape[1]
    # the row at infinity, then rows h ~ (u, tau): <u, x> < -tau iff <h, X> < 0
    homogeneous = [(0.0,) * d + (1.0,), *((*u, tau) for u in units.tolist())]
    rows, frows, weights = _merged_rows(homogeneous, [0, *mults.tolist()])
    k = len(rows) - 1
    if tau:
        subsets = combinations(range(k + 1), d)
    else:  # with tau = 0 every vertex is the origin
        subsets = ((0, *s) for s in combinations(range(1, k + 1), d - 1))
    widest = max(sets.size for sets, _, _ in _laplace_plan(d))
    step = max(1, _SIGN_CHUNK // max(widest, k))
    best, cutoff, recomputed = None, math.inf, 0
    while chunk := list(islice(subsets, step)):
        found, cutoff, r = _subset_minimum(
            rows, frows, weights, np.asarray(chunk, dtype=np.intp), cutoff
        )
        best, recomputed = found or best, recomputed + r
    evaluated = math.comb(k, d - 1) + (math.comb(k, d) if tau else 0)
    if best is None:
        return 0, np.linalg.svd(units)[2][-1], evaluated, recomputed
    count, orient, subset, point = best
    point = point or _cofactor_vector([rows[i] for i in subset])
    return count, _ray_unit([orient * c for c in point[:-1]]), evaluated, recomputed


# --------------------------------------------------------------------------
# exact cap-body verification: arrangement vertices behind a float filter
# --------------------------------------------------------------------------

def _cross(a, b):
    """Row-wise cross products of (n, 3) arrays or ``_Bounded`` arrays."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[:, i] * b[:, j] - a[:, j] * b[:, i]


def _cross3(a, b) -> tuple:
    """Cross product of two integer 3-vectors."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _sign_with_root(alpha: int, beta: int, e: int) -> int:
    """Sign of alpha + beta sqrt(e) for integers alpha, beta and e >= 0."""
    sa = (alpha > 0) - (alpha < 0)
    sb = (beta > 0) - (beta < 0) if e else 0
    if sa * sb >= 0:
        return sa or sb
    gap = alpha * alpha - beta * beta * e
    return sa if gap > 0 else sb if gap < 0 else 0


def _exact_pair(h1, h2):
    """The points where the planes <a, x> + b = 0 of the integer rows h1
    and h2 meet the unit sphere, as (P, Q, D, E): the points are
    (P +- sqrt(E) Q) / D, one when E = 0; None when they do not meet.

    With c = a1 x a2 and C = |c|^2 > 0, the point
    x0 = -(b1 (a2 x c) + b2 (c x a1)) / C lies on both planes (since
    <a1, a2 x c> = <a2, c x a1> = C) and is orthogonal to c.  The line
    x0 + t c meets the sphere where |x0|^2 + t^2 C = 1.  With the integer
    vector X0 = C x0 that is x = (C X0 +- sqrt(E) c) / C^2 with
    E = C (C^2 - |X0|^2).  Parallel planes (c = 0) and E < 0 give none."""
    a1, b1, a2, b2 = h1[:3], h1[3], h2[:3], h2[3]
    c = _cross3(a1, a2)
    cc = dot(c, c)
    if not cc:
        return None
    x0 = tuple(
        -(b1 * p + b2 * q) for p, q in zip(_cross3(a2, c), _cross3(c, a1))
    )
    e = cc * (cc * cc - dot(x0, x0))
    if e < 0:
        return None
    return tuple(cc * x for x in x0), c, cc * cc, e


def _pair_points(exact: dict, rows, i: int, j: int):
    """``_exact_pair`` of rows i and j, computed once in ``exact``."""
    if (i, j) not in exact:
        exact[i, j] = _exact_pair(rows[i], rows[j])
    return exact[i, j]


def _cap_body_planes(units: np.ndarray, mults: np.ndarray, apexes: np.ndarray, tau):
    """The planes <a, x> + b = 0 of a cap-body check, in R^3 (a planar
    body lies in x3 = 0): first each direction u as (u, tau), since u
    counts at the normal n when <u, n> + tau < 0; then each apex v as
    (v, -1), since n lies in the open cap of v when <v, n> - 1 > 0.
    Returns the integer rows, float rows and weights (0 for apexes) of
    ``_merged_rows``; tau >= 0 keeps directions and apexes apart."""
    pad = (0.0,) * (3 - units.shape[1])
    planes = [(*u, *pad, tau) for u in units.tolist()]
    planes += [(*v, *pad, -1.0) for v in apexes.tolist()]
    return _merged_rows(planes, [*mults.tolist(), *[0] * len(apexes)])


@lru_cache(maxsize=16)
def _circle_pairs(n: int) -> np.ndarray:
    """The index pairs (i, j), i < j, of n circles, then each circle i with
    its helper plane n + i."""
    first, second = np.triu_indices(n, 1)
    return np.r_[np.c_[first, second], np.c_[np.arange(n), n + np.arange(n)]]


@np.errstate(all="ignore")  # parallel planes give inf and nan: undecided
def _cap_body_vertices(rows, frows: np.ndarray, dim: int, exact: dict):
    """Candidate normals of a cap-body check: the vertices of the
    arrangement of circles where the planes meet the sphere.

    In R^3: every pairwise meeting point, tangencies included; for a
    circle that meets no other, the two points where a plane through its
    axis cuts it; with no circle at all, the poles.  A planar body is the
    equator x3 = 0 of the same arrangement, so its candidates are the
    points where each line meets that circle, or (0, +-1, 0) with no line.

    Each pair of planes is framed once, in float with bounds: c = a1 x a2,
    |c|^2, x0 and 1 - |x0|^2 (see ``_exact_pair``).  It meets the sphere
    when 1 - |x0|^2 >= 0, decided from the bound where it can be and from
    the exact E elsewhere (a helper pair always meets), in x0 +- t c,
    t = sqrt((1 - |x0|^2) / |c|^2).  Returns the points, their bounds, the
    pair of rows and the sign of t of each (all points x0 + t c first), and
    the rows with the helper planes appended."""
    k = len(rows)
    circles = np.flatnonzero([h[3] * h[3] <= dot(h[:3], h[:3]) for h in rows])
    if dim == 2:  # the equator, and with no line a line through the origin
        helpers = [(0, 0, 1, 0)] if len(circles) else [(0, 0, 1, 0), (1, 0, 0, 0)]
        fhelpers, pairs = helpers, [(i, k) for i in circles] or [(k + 1, k)]
    elif len(circles):
        # the circle pairs, then each circle with the plane a x e_j through the
        # origin and its axis a, e_j the axis least aligned with a (exact in float)
        j = np.argmin(np.abs(frows[circles, :3]), axis=1)
        fhelpers = np.zeros((len(circles), 4))
        fhelpers[:, :3] = _cross(frows[circles, :3], np.eye(3)[j])
        eye = np.eye(3, dtype=np.int64).tolist()  # Python ints keep the rows exact
        helpers = [(*_cross3(rows[i][:3], eye[n]), 0) for i, n in zip(circles, j)]
        ends = np.concatenate([circles, k + np.arange(len(circles))])
        pairs = ends[_circle_pairs(len(circles))]
    else:
        helpers = fhelpers = [(1, 0, 0, 0), (0, 1, 0, 0)]
        pairs = [(k, k + 1)]
    rows = [*rows, *helpers]
    frows = np.vstack([frows, np.reshape(fhelpers, (-1, 4))])
    pairs = np.asarray(pairs, dtype=np.intp)
    first, second = _Bounded(frows[pairs[:, 0]]), _Bounded(frows[pairs[:, 1]])
    a1, b1, a2, b2 = first[:, :3], first[:, 3:], second[:, :3], second[:, 3:]
    c = _cross(a1, a2)
    cc = (c * c).sum()
    x0 = -(_cross(a2, c) * b1 + _cross(c, a1) * b2) / cc
    gap = _Bounded(np.ones_like(cc.val)) - (x0 * x0).sum()
    sign, undecided = _filtered_sign(gap.val[:, 0], gap.err[:, 0])
    # a helper plane passes through the centre of its circle
    helper = pairs[:, 1] >= k
    keep = (sign > 0) | helper
    for p in np.flatnonzero(undecided & ~helper):
        keep[p] = _pair_points(exact, rows, *pairs[p].tolist()) is not None
    # a pair with a helper plane counts only for a circle that meets no other
    met = np.zeros(len(rows), dtype=bool)
    met[pairs[keep & ~helper]] = True
    keep[helper] = ~met[pairs[helper, 0]]
    c, cc, x0, gap, pairs = c[keep], cc[keep], x0[keep], gap[keep], pairs[keep]
    step = c * (gap / cc).sqrt()
    upper, lower = x0 + step, x0 - step
    return (
        np.concatenate([upper.val, lower.val]),
        np.concatenate([upper.err, lower.err]),
        np.concatenate([pairs, pairs]),
        np.repeat([1, -1], len(pairs)),
    ), rows


@np.errstate(all="ignore")  # unbounded vertices give inf and nan: open
def _vertex_counts(rows, frows: np.ndarray, weights: np.ndarray, vertices, exact: dict):
    """For every candidate: does it lie in the closed region R (no apex
    plane positive there), and the weighted count of direction planes
    negative there, over the k weighted rows of ``frows`` (``rows`` goes on
    with helper planes).  Returns them and the count of exact signs.

    The signs come from ``_row_signs`` on the points (x~, 1) with bounds
    (e, 0), a vertex's two planes being its own rows.  Those it leaves
    open are recomputed exactly, as the sign of <a, P> + b D +-
    sqrt(E) <a, Q>: apex planes first and only where no decided apex sign
    already puts the point outside R, then direction planes only inside R."""
    points, errors, pairs, sigma = vertices
    k = len(weights)
    is_apex = weights == 0
    homogeneous = np.c_[points, np.ones(len(points))]
    bounds = np.c_[errors, np.zeros(len(points))]
    inside, counts, recomputed = [], [], 0
    step = max(1, _SIGN_CHUNK // k)
    for lo in range(0, len(points), step):
        hi = min(lo + step, len(points))
        sign, open_ = _row_signs(homogeneous[lo:hi], bounds[lo:hi], frows, pairs[lo:hi])
        outside = ((sign > 0) & is_apex).any(axis=1)
        for cols in (is_apex, ~is_apex):
            todo = open_ & cols & ~outside[:, None]
            for r, col in zip(*np.nonzero(todo)):
                p, q, d, e = _pair_points(exact, rows, *pairs[lo + r].tolist())
                a, b = rows[col][:3], rows[col][3]
                sign[r, col] = _sign_with_root(
                    dot(a, p) + b * d, int(sigma[lo + r]) * dot(a, q), e
                )
            recomputed += int(todo.sum())
            outside = ((sign > 0) & is_apex).any(axis=1)
        inside.append(~outside)
        counts.append((sign < 0) @ weights)
    return np.concatenate(inside), np.concatenate(counts), recomputed


def _apex_lit_exact(u, v, tau) -> bool:
    """-<u, v> - tau |u| |v| > |u| sqrt(|v|^2 - 1) for the rational values
    of the floats, decided by squaring twice; u need not be a unit vector.
    With a = -<u, v>, s = |u|^2 and r2 = |v|^2 the left side is positive
    iff a > 0 and a^2 > tau^2 s r2; then the inequality squares to
    l > 2 a tau sqrt(s r2) with l = a^2 + tau^2 s r2 - s r2 + s, whose right
    side is >= 0, so it holds iff l > 0 and l^2 > 4 a^2 tau^2 s r2."""
    u, v, t = frac_vec(u), frac_vec(v), Fraction(tau)
    a, s, r2 = -dot(u, v), dot(u, u), dot(v, v)
    if a <= 0 or a * a <= t * t * s * r2:
        return False
    lhs = a * a + t * t * s * r2 - s * r2 + s
    return lhs > 0 and lhs * lhs > 4 * a * a * t * t * s * r2


@np.errstate(all="ignore")
def _apex_counts(
    apexes: np.ndarray, units: np.ndarray, mults: np.ndarray, tau: float
):
    """Weighted count per apex v of the directions u lighting it with
    margin tau: -<u/|u|, v/|v|> - cos(beta) > tau with cos(beta) =
    sqrt(|v|^2 - 1) / |v|, the spike-cone test, i.e. (times |u| |v|)
    -<u, v> - tau |u| |v| > |u| sqrt(|v|^2 - 1): scaling u, whose exact
    rational is a unit vector only to a few ulps, moves no verdict.  Float
    with bounds, and ``_apex_lit_exact`` where the bound leaves it open."""
    v = _Bounded(apexes[:, None, :])
    u = _Bounded(units[None, :, :])
    r2 = (v * v).sum()
    reach = _Bounded(tau) * r2.sqrt() + (r2 - _Bounded(1.0)).sqrt()
    value = -(u * v).sum() - (u * u).sum().sqrt() * reach
    sign, open_ = _filtered_sign(value.val[..., 0], value.err[..., 0])
    lit = sign > 0
    for i, j in zip(*np.nonzero(open_)):
        lit[i, j] = _apex_lit_exact(units[j].tolist(), apexes[i].tolist(), tau)
    return lit.astype(np.int64) @ mults


def _verify_cap_body(spec, multiset: DirectionMultiset, m: int, tau: float):
    """Exact m-fold verdict on a cap body of the unit ball, d = 2 or 3, for
    the rational values of the float unit directions and apexes.

    Its boundary points are the sphere points whose normal n lies in the
    closed region R = {n : <v_i, n> <= 1 for every apex v_i}, the spike
    surfaces, whose normals are the points of R on the circles
    <v_i, n> = 1, and the apexes.  A direction u counts at normal n when
    <u, n> < -tau, and at apex v by the spike-cone test.  The count on R
    is constant on the faces of the arrangement of the circles
    <u_j, n> = -tau and <v_i, n> = 1, and it can only drop on their
    closures.  R is closed and made of such faces, so its minimum is taken
    on the closure of a face inside R, which holds a vertex of the
    arrangement, or is a whole circle that meets no other, or is the whole
    sphere when there is no circle: ``_cap_body_vertices``.  Apexes are
    checked one by one.  ``samples`` counts the points evaluated: the
    candidates in R and the apexes."""
    dim = spec.dim
    if dim not in (2, 3):
        raise UnsupportedBody(
            "exact cap-body verification is implemented for d in {2, 3}"
        )
    units, mults = multiset.as_arrays()
    apexes = spec.apex_array().reshape(-1, dim)
    rows, frows, weights = _cap_body_planes(units, mults, apexes, tau)
    exact = {}  # the exact points of each pair of rows, once per check
    vertices, rows = _cap_body_vertices(rows, frows, dim, exact)
    inside, counts, recomputed = _vertex_counts(rows, frows, weights, vertices, exact)
    apex_counts = _apex_counts(apexes, units, mults, tau)
    normals = vertices[0][inside, :dim]
    points = np.concatenate([normals, apexes])
    counts = np.concatenate([counts[inside], apex_counts])
    wi = _worst_index(points, counts)
    if wi < len(normals):
        margins = -(units @ normals[wi])
    else:
        v = points[wi]
        r = float(np.linalg.norm(v))
        margins = -(units @ v) / r - math.sqrt(r * r - 1.0) / r
    return _report(
        m, points[wi].tolist(), counts[wi], margins, mults, len(points), recomputed
    )


def verify_mfold(
    body,
    multiset: DirectionMultiset,
    m: int,
    tol: Tolerance = Tolerance(),
) -> IlluminationReport:
    """m-fold illumination verdict, exact for a polygon, a ball, a smooth 2D
    body and a cap body of the 2- or 3-ball (all but the polygon for the
    rational values of the float unit directions), with strictness margin
    ``tol.margin``."""
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
        count, normal, evaluated, recomputed = _exact_sphere_minimum(
            units, mults, tol.margin
        )
        point = normal
        if isinstance(body, SupportFunctionBody):
            # u lights the one boundary point with outward normal n iff
            # <u, n> < 0, so the body is lit exactly as its circle of normals
            theta = math.atan2(normal[1], normal[0])
            point = body.boundary_points(np.asarray([theta]))[0]
        margins = -(units @ normal)
        return _report(m, point.tolist(), count, margins, mults, evaluated, recomputed)
    from .capbody import CapBodySpec, validate_cap_body  # deferred: capbody builds on this module

    if isinstance(body, CapBodySpec):
        if not validate_cap_body(body):
            raise PreconditionViolation(
                "cap body is invalid: an apex pair's segment misses the ball"
            )
        return _verify_cap_body(body, multiset, m, tol.margin)
    raise UnsupportedBody(f"cannot verify body of kind {type(body).__name__}")
