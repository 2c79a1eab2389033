import math
import os
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import illum
from illum import _kernels
from illum.errors import DomainError
from illum.geometry import (
    ConvexPolygon,
    DirectionMultiset,
    _primitive_ray,
    _report,
    _worst_index,
    angle_sort_key,
    dot,
)


def random_convex_polygon(rng, n: int, coord_range: int = 12) -> ConvexPolygon:
    """Random strictly convex lattice polygon with exactly n vertices.

    Samples n-1 integer edge vectors, closes the cycle with their negated
    sum, sorts all edges CCW by exact angle, and retries until the vertex
    cycle validates (distinct directions, every turn below pi).
    """
    for _ in range(5000):
        vecs = rng.integers(-coord_range, coord_range + 1, size=(n - 1, 2))
        edges = [tuple(int(c) for c in v) for v in vecs]
        closer = (-sum(e[0] for e in edges), -sum(e[1] for e in edges))
        edges.append(closer)
        if any(e == (0, 0) for e in edges):
            continue
        edges.sort(key=angle_sort_key)
        verts = []
        x = y = 0
        for ex, ey in edges[:-1]:
            verts.append((x, y))
            x, y = x + ex, y + ey
        verts.append((x, y))
        try:
            return ConvexPolygon(verts)
        except DomainError:
            continue
    raise RuntimeError(f"failed to sample a convex {n}-gon")


def limit_denominator_polygon(n: int) -> ConvexPolygon:
    """Centrally symmetric n-gon, n even, with the vertex-arc pattern of the
    regular n-gon: edges 2 sin(pi/n) (cos, sin)(2 pi i/n + 0.1234567) for
    i < n/2, each coordinate rounded by ``limit_denominator(10**6)``, then
    the same edges negated.  The vertices are their partial sums, so the
    denominators grow with n (422 digits at n = 200).  This is the input of
    the pinned 200-gon solve."""
    edge_len = 2 * math.sin(math.pi / n)
    half = []
    for i in range(n // 2):
        ang = 2 * math.pi * i / n + 0.1234567
        half.append((
            Fraction(edge_len * math.cos(ang)).limit_denominator(10 ** 6),
            Fraction(edge_len * math.sin(ang)).limit_denominator(10 ** 6),
        ))
    verts, x, y = [], Fraction(0), Fraction(0)
    for ex, ey in half + [(-ex, -ey) for ex, ey in half]:
        verts.append((x, y))
        x, y = x + ex, y + ey
    return ConvexPolygon(verts)


def reference_polygon_edges(vertices):
    """Vertices, edges and rays of a polygon as the constructor built them
    with ``Fraction`` subtraction per edge and ``_primitive_ray`` per edge,
    before it worked on integer vertices (no validation)."""
    verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    n = len(verts)
    edges = tuple(
        (verts[(i + 1) % n][0] - verts[i][0], verts[(i + 1) % n][1] - verts[i][1])
        for i in range(n)
    )
    return verts, edges, tuple(_primitive_ray(e) for e in edges)


def random_direction_2d(rng, coord_range: int = 40):
    while True:
        v = (int(rng.integers(-coord_range, coord_range + 1)),
             int(rng.integers(-coord_range, coord_range + 1)))
        if v != (0, 0):
            return v


@pytest.fixture
def child_env():
    """Build the environment for a child interpreter that imports ``illum``.

    The child gets ``PATH``, the directory that holds the ``illum`` package
    this session imported (a source tree or site-packages) on
    ``PYTHONPATH``, and the given overrides, e.g. ``child_env(ILLUM_LOG="quiet")``.
    Nothing else of the parent's environment is passed on, so ``ILLUM_*``
    settings of the calling shell cannot leak into the child.
    """
    package_root = os.path.dirname(os.path.dirname(illum.__file__))

    def build(**overrides):
        return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, **overrides}

    return build


def sampled_report(samples, multiset, m: int, tau: float = 1e-6):
    """Reference verdict over a ``SampleSet``: count the directions whose
    margin exceeds ``tau`` at every sample with the numpy kernel and report
    the least-counted sample.  No counterexample among the samples is no
    proof; the exact verifiers are compared against it."""
    units, mults = multiset.as_arrays()
    counts = _kernels.count_illuminating(
        samples.normals, samples.offsets, units, mults, tau
    )
    wi = _worst_index(samples.points, counts)
    margins = -(units @ samples.normals[wi]) - samples.offsets[wi]
    return _report(
        m, samples.points[wi].tolist(), counts[wi], margins, mults, len(samples.points)
    )


def isolated_circle_cap_body():
    """A 3-D cap body whose one apex circle meets no direction circle: the
    apex (0, 0, 1.05) and six directions 30 degrees off the vertical axis,
    whose circles stay within 30 degrees of the equator.  Returns the apex
    coordinates and the multiset."""
    tilt = math.radians(30)
    vectors = [
        (math.sin(tilt) * math.cos(a), math.sin(tilt) * math.sin(a), s * math.cos(tilt))
        for s in (1, -1)
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ]
    return [(0.0, 0.0, 1.05)], DirectionMultiset.from_vectors(vectors)


def bareiss_det(rows) -> int:
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


def reference_cofactors(subset) -> list[int]:
    """Signed minors of d integer rows of length d+1: <c, X> = det(rows, X)."""
    d = len(subset)
    return [
        (-1) ** (d + i) * bareiss_det([h[:i] + h[i + 1:] for h in subset])
        for i in range(d + 1)
    ]


def reference_sphere_minimum(units, mults, tau: float):
    """All-integer reference for ``geometry._exact_sphere_minimum``: every
    candidate of every subset from its d+1 Bareiss minors, then the counts
    in Python.  Returns the minimum, its float unit point and the number of
    subsets evaluated."""
    d = units.shape[1]
    merged = {}
    for row, mult in zip(units.tolist(), mults.tolist()):
        key = _primitive_ray((*row, tau))
        merged[key] = merged.get(key, 0) + mult
    at_infinity = (0,) * d + (1,)
    points = []
    for subset in combinations([at_infinity, *merged], d):
        if not tau and subset[0] != at_infinity:
            break
        point = reference_cofactors(subset)
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
