import math
import os
from fractions import Fraction

import pytest

import illum
from illum import _kernels
from illum.errors import DomainError
from illum.geometry import ConvexPolygon, _report, _worst_index, angle_sort_key


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
