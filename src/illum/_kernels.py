"""Hot numeric kernels: the two counting loops of the sampled verifiers.

Both are plain numpy and work in bounded chunks or per center, so memory
stays linear in the number of points.  ``perfbench/`` measures them.
"""

from __future__ import annotations

import numpy as np

# Chunk size bounds the (points x directions) scratch matrix to ~tens of MB.
_CHUNK = 1 << 18


def count_illuminating(normals, offsets, dirs, mults, tau):
    """Per-point weighted count of directions with margin above ``tau``.

    A direction ``u`` (unit row of ``dirs``) counts at point ``i`` when
    ``-<u, normals[i]> - offsets[i] > tau``.  ``mults`` carries multiset
    multiplicities.
    """
    normals = np.ascontiguousarray(normals, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    mults = np.ascontiguousarray(mults, dtype=np.int64)
    tau = float(tau)
    n = normals.shape[0]
    counts = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        margins = -(normals[lo:hi] @ dirs.T) - offsets[lo:hi, None]
        counts[lo:hi] = (margins > tau) @ mults
    return counts


def count_covering(points, centers, tau):
    """Per-point count of open unit balls (centers given) containing the point
    with radial margin ``tau``."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    limit = (1.0 - float(tau)) ** 2
    counts = np.zeros(points.shape[0], dtype=np.int64)
    pt_sq = np.einsum("ij,ij->i", points, points)
    for c in centers:
        d_sq = pt_sq - 2.0 * (points @ c) + c @ c
        counts += d_sq < limit
    return counts
