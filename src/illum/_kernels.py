"""Hot numeric kernels: the two counting loops of the sampled verifiers.

Both are plain numpy and work in bounded chunks, so memory stays linear in
the number of points.  ``perfbench/`` measures them.
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
    with radial margin ``tau``.

    With R the largest center norm, a point with ``|p| < 1 - tau - R - 1e-9``
    lies in every ball by the triangle inequality, so it gets
    ``len(centers)`` without arithmetic.  The slack dwarfs float error, so
    such a point would also pass the float test below: only the shell rows
    run the per-center loop, and the counts equal a full pass.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    counts = np.zeros(points.shape[0], dtype=np.int64)
    if len(centers) == 0:
        return counts
    tau = float(tau)
    limit = (1.0 - tau) ** 2
    pt_sq = np.einsum("ij,ij->i", points, points)
    reach = 1.0 - tau - np.sqrt(np.einsum("ij,ij->i", centers, centers).max()) - 1e-9
    deep = pt_sq < reach * reach if reach > 0 else np.zeros(len(points), dtype=bool)
    counts[deep] = len(centers)
    shell = np.flatnonzero(~deep)
    for lo in range(0, len(shell), _CHUNK):
        rows = shell[lo:lo + _CHUNK]
        p, p_sq = np.take(points, rows, axis=0), pt_sq[rows]
        d_sq = np.empty(len(rows))
        hit = np.empty(len(rows), dtype=bool)
        part = np.zeros(len(rows), dtype=np.int64)
        for c in centers:
            # pt_sq - 2.0 * (p @ c) + c @ c, operation for operation, so a
            # shell count is bit for bit that of a pass over every point
            np.matmul(p, c, out=d_sq)
            d_sq *= 2.0
            np.subtract(p_sq, d_sq, out=d_sq)
            d_sq += c @ c
            np.less(d_sq, limit, out=hit)
            part += hit
        counts[rows] = part
    return counts
