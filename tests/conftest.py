import os

import pytest

import illum
from illum.errors import DomainError
from illum.geometry import ConvexPolygon, angle_sort_key


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
