"""Unit-ball constructions: explicit 3D multiset, covering conversion,
and the stereographic lift that adds one dimension per m extra directions.

The 3D family places 2m+1 directions on a slightly tilted equatorial fan
(alternating small positive and tiny negative vertical components) plus
ceil(m/2) copies of straight down.  Higher dimensions convert a verified
multiset into an m-fold cover of the ball by translated open balls, lift
the covering disks through the inverse stereographic projection to
spherical caps, and aim one direction against each cap center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    CoverConversionFailure,
    DomainError,
    GeometryInternalError,
    PreconditionViolation,
)
from .geometry import (
    Ball,
    Direction,
    DirectionMultiset,
    IlluminationReport,
    Tolerance,
    verify_mfold,
)

#: grid spacings for solid-ball covering verification, per dimension
COVER_GRID_SPACING = {2: 0.005, 3: 0.01, 4: 0.08}

#: sampled verification is supported up to this dimension; beyond it the
#: construction is emitted formula-trusted
VERIFY_DIM_CAP = 5


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


@dataclass
class CoverSpec:
    """m-fold cover of the unit ball by open unit balls at the translates."""

    dim: int
    translates: np.ndarray
    demand: int

    def __post_init__(self):
        self.translates = np.asarray(self.translates, dtype=np.float64)
        if self.translates.ndim != 2 or self.translates.shape[1] != self.dim:
            raise DomainError("translates must be an (n, dim) array")
        if len(self.translates) == 0:
            raise DomainError("cover needs at least one translate")
        if self.demand < 1:
            raise DomainError("demand must be >= 1")


def ball_grid(dim: int, spacing: float | None = None) -> np.ndarray:
    """Deterministic axis-aligned grid sample of the closed unit ball."""
    if spacing is None:
        try:
            spacing = COVER_GRID_SPACING[dim]
        except KeyError:
            raise DomainError(
                f"no default covering grid for dimension {dim}"
            ) from None
    per_axis = round(2.0 / spacing) + 1
    axis = np.linspace(-1.0, 1.0, per_axis)
    slabs = []
    # slab by slab along the first axis, so the whole cube (twice the ball's
    # points at d=3) is never held in memory
    for x in axis:
        mesh = np.meshgrid([x], *([axis] * (dim - 1)), indexing="ij")
        points = np.stack(mesh, axis=-1).reshape(-1, dim)
        slabs.append(points[np.einsum("ij,ij->i", points, points) <= 1.0])
    return np.concatenate(slabs)


def cover_min_count(grid: np.ndarray, centers: np.ndarray, margin: float):
    """Minimum m-fold coverage over the grid and its worst point."""
    counts = _kernels.count_covering(grid, centers, margin)
    worst = int(counts.argmin())
    return int(counts[worst]), grid[worst]


def illumination_to_cover(
    multiset: DirectionMultiset,
    m: int,
    d: int,
    tol: Tolerance = Tolerance(),
    spacing: float | None = None,
) -> CoverSpec:
    """Turn a verified m-fold illuminating multiset into an m-fold cover.

    Translates are -delta * u for a halving-searched step delta; the
    candidate cover is accepted once a solid-ball grid is m-fold covered
    with radial margin ``tol.margin``.
    """
    report = verify_mfold(Ball(d), multiset, m, tol)
    if not report.passed:
        raise PreconditionViolation(
            f"multiset does not m-fold illuminate the {d}-ball "
            f"(worst count {report.worst_count})"
        )
    units, mults = multiset.as_arrays()
    expanded = np.repeat(units, mults, axis=0)
    grid = ball_grid(d, spacing)
    delta = 0.5
    while delta >= 1e-9:
        centers = -delta * expanded
        lowest, _ = cover_min_count(grid, centers, tol.margin)
        if lowest >= m:
            return CoverSpec(dim=d, translates=centers, demand=m)
        delta /= 2
    raise CoverConversionFailure("translate step search exhausted below 1e-9")


# --------------------------------------------------------------------------
# stereographic lift
# --------------------------------------------------------------------------

def inverse_stereographic(x) -> np.ndarray:
    """Map a point of the equatorial hyperplane (d coordinates) to the unit
    d-sphere in d+1 coordinates, projecting from the north pole."""
    x = np.asarray(x, dtype=np.float64)
    nsq = float(x @ x)
    return np.concatenate([2.0 * x, [nsq - 1.0]]) / (nsq + 1.0)


def forward_stereographic(y) -> np.ndarray:
    """Inverse of :func:`inverse_stereographic` (undefined at the pole)."""
    y = np.asarray(y, dtype=np.float64)
    if abs(1.0 - y[-1]) < 1e-15:
        raise DomainError("the projection center has no image")
    return y[:-1] / (1.0 - y[-1])


def cap_center_from_disk(u) -> tuple[np.ndarray, float]:
    """Spherical-cap image of the open unit disk centered at u.

    Lifts the +-axis boundary offsets of the disk, fits the hyperplane
    through the images (SVD null vector), and orients the unit normal away
    from the projection pole.  Returns (center, cos of angular radius).
    """
    u = np.asarray(u, dtype=np.float64)
    d = len(u)
    offsets = np.concatenate([np.eye(d), -np.eye(d)])
    images = np.stack([inverse_stereographic(u + o) for o in offsets])
    centered = images - images.mean(axis=0)
    svals, vecs = np.linalg.svd(centered, full_matrices=True)[1:]
    if svals[-2] < 1e-9:
        raise GeometryInternalError("degenerate hyperplane fit for cap center")
    normal = vecs[-1]
    level = float(np.mean(images @ normal))
    north = np.zeros(d + 1)
    north[-1] = 1.0
    if float(north @ normal) > level:
        normal, level = -normal, -level
    return normal, level


def lift_cover_to_directions(cover: CoverSpec, tol: Tolerance = Tolerance()) -> DirectionMultiset:
    """Lift an m-fold cover of the d-ball to an m-fold illuminating multiset
    for the (d+1)-ball: oppose each covering disk's cap center, plus m
    copies of straight down."""
    grid = ball_grid(cover.dim)
    lowest, worst = cover_min_count(grid, cover.translates, tol.margin)
    if lowest < cover.demand:
        raise PreconditionViolation(
            f"cover is not {cover.demand}-fold at grid point {worst}"
        )
    entries = []
    for u in cover.translates:
        center, _ = cap_center_from_disk(u)
        entries.append((Direction(tuple(-center)), 1))
    down = np.zeros(cover.dim + 1)
    down[-1] = -1.0
    entries.append((Direction(tuple(down)), cover.demand))
    return DirectionMultiset(entries)


def recursive_ball_construction(
    m: int, d: int, tol: Tolerance = Tolerance()
) -> DirectionMultiset:
    """(d-1)m + 1 + ceil(m/2) directions for the d-ball, built from the
    3-ball fan by repeated cover-and-lift steps."""
    if d < 3:
        raise DomainError("the recursive construction needs d >= 3")
    multiset = b3_direction_multiset(m)
    for dim in range(3, d):
        cover = illumination_to_cover(multiset, m, dim, tol)
        multiset = lift_cover_to_directions(cover, tol)
    return multiset


def verify_ball_construction(
    multiset: DirectionMultiset, m: int, d: int, tol: Tolerance = Tolerance()
) -> IlluminationReport | None:
    """Sampled verification up to the dimension cap; None means the result
    is emitted formula-trusted (d above the cap)."""
    if d > VERIFY_DIM_CAP:
        return None
    return verify_mfold(Ball(d), multiset, m, tol)


# --------------------------------------------------------------------------
# analytic three-band mirror of the 3-ball construction
# --------------------------------------------------------------------------

def b3_band_report(m: int, eps: float | None = None, n_samples: int = 20_000):
    """Per-band illumination counts following the construction's own case
    analysis, independent of the generic verifier.

    Bands partition the sphere by height: below -sqrt(1-eps^2) the m odd
    fan directions work; the middle band uses the m fan slots whose azimuth
    is within m*pi/(2m+1) of the point; above 1/2 the even slots of that
    window and the down copies take over.  Returns the minimum count seen
    per band, each of which must be >= m.
    """
    if eps is None:
        eps = b3_eps_bound(m) / 2
    multiset = b3_direction_multiset(m, eps)
    units = [d.unit() for d, _ in multiset.entries[:-1]]
    k = 2 * m + 1
    from .geometry import sphere_sample

    pts = sphere_sample(3, n_samples)
    z = pts[:, 2]
    theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    band_mins = {"low": math.inf, "mid": math.inf, "high": math.inf}
    z_split = math.sqrt(1.0 - eps * eps)
    for p, zz, th in zip(pts, z, theta):
        if zz < -z_split:
            idx = [i for i in range(k) if i % 2 == 1]
            band = "low"
        else:
            lo = (-m + k * th / math.pi) / 2
            hi = (m + k * th / math.pi) / 2
            window = [i for i in range(math.ceil(lo), math.floor(hi) + 1)]
            if zz <= 0.5:
                idx = [i % k for i in window]
                band = "mid"
            else:
                idx = [i % k for i in window if (i % k) % 2 == 0]
                band = "high"
        count = sum(1 for i in idx if float(units[i] @ p) < 0)
        if band == "high":
            count += -(-m // 2)
        band_mins[band] = min(band_mins[band], count)
    return band_mins
