"""Unit-ball constructions: explicit 3D multiset and the lift that adds
one dimension per m extra directions.

The 3D family places 2m+1 directions on a slightly tilted equatorial fan
(alternating small positive and tiny negative vertical components) plus
ceil(m/2) copies of straight down.  Higher dimensions tilt every direction
of a verified multiset toward the pole and add m copies of straight down.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PreconditionViolation
from .geometry import (
    Ball,
    Direction,
    DirectionMultiset,
    Tolerance,
    verify_mfold,
)


def ball_upper_bound(m: int, d: int) -> int:
    """(d-1)m + 1 + ceil(m/2), valid for d >= 3."""
    if m < 1:
        raise DomainError("m must be >= 1")
    if d < 3:
        raise DomainError("the ball upper bound needs d >= 3")
    return (d - 1) * m + 1 + -(-m // 2)


def b3_eps_bound(m: int) -> float:
    return math.cos(m * math.pi / (2 * m + 1))


def b3_direction_multiset(m: int, eps: float | None = None) -> DirectionMultiset:
    """2m+1 fan directions plus ceil(m/2) copies of (0,0,-1) for the 3-ball.

    The fan direction at slot i has vertical component eps for odd i and
    -eps**2 for even i (i = 0..2m); eps must lie in (0, cos(m*pi/(2m+1))).
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    bound = b3_eps_bound(m)
    if eps is None:
        eps = bound / 2
    if not 0 < eps < bound:
        raise DomainError(f"eps must lie in (0, {bound})")
    entries = []
    k = 2 * m + 1
    for i in range(k):
        eps_i = eps if i % 2 == 1 else -eps * eps
        horiz = math.sqrt(1.0 - eps_i * eps_i)
        ang = 2 * math.pi * i / k
        entries.append(
            (Direction((-horiz * math.cos(ang), -horiz * math.sin(ang), eps_i)), 1)
        )
    entries.append((Direction((0.0, 0.0, -1.0)), -(-m // 2)))
    return DirectionMultiset(entries)


def inverse_stereographic(x) -> np.ndarray:
    """Map a point of the equatorial hyperplane (d coordinates) to the unit
    d-sphere in d+1 coordinates, projecting from the north pole."""
    x = np.asarray(x, dtype=np.float64)
    nsq = float(x @ x)
    return np.concatenate([2.0 * x, [nsq - 1.0]]) / (nsq + 1.0)


def lift_directions(
    multiset: DirectionMultiset, m: int, tol: Tolerance = Tolerance()
) -> DirectionMultiset:
    """Lift an m-fold illuminating multiset of the d-ball to one of the
    (d+1)-ball: each direction w tilted toward the pole as (w, 1), plus m
    copies of straight down.

    At a point y = (y', t) of the d-sphere with t > 0 the m down copies
    work.  With t <= 0 every w with <w, y'> < 0 gives <(w, 1), y> < 0, and
    at least m do; at y = -e_{d+1} every tilted direction works.  The tilt
    is the paper's lift of the disk at -delta*w, for delta = sqrt(3) - 1:
    :func:`inverse_stereographic` maps that disk onto the cap
    <(w, 1), y> < (1 - sqrt(3)) / 2, which (w, 1) lights.
    """
    d = multiset.dim
    report = verify_mfold(Ball(d), multiset, m, tol)
    if not report.passed:
        raise PreconditionViolation(
            f"multiset does not m-fold illuminate the {d}-ball "
            f"(worst count {report.worst_count})"
        )
    units, mults = multiset.as_arrays()
    entries = [
        (Direction((*w, 1.0)), k) for w, k in zip(units.tolist(), mults.tolist())
    ]
    entries.append((Direction((0.0,) * d + (-1.0,)), m))
    return DirectionMultiset(entries)


def recursive_ball_construction(m: int, d: int) -> DirectionMultiset:
    """(d-1)m + 1 + ceil(m/2) directions for the d-ball, built from the
    3-ball fan by repeated lift steps."""
    if d < 3:
        raise DomainError("the recursive construction needs d >= 3")
    multiset = b3_direction_multiset(m)
    for _ in range(3, d):
        multiset = lift_directions(multiset, m)
    return multiset

