"""The counting loop of the sampled reference verifier.

No verdict runs it: the tests compare the exact verifiers against it, and
``perfbench/`` still imports and traces this module.  Plain numpy in
bounded chunks, so memory stays linear in the number of points.
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

