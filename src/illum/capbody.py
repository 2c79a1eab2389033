"""Cap bodies of the unit ball: spikes, caps, validity, constructions.

A cap body here is the union of convex hulls of the unit ball with each
apex; validity (every apex pair's segment meets the ball) makes it
convex.  Membership tests use the exact tangent-cone characterization of
a spike: p belongs to the hull of ball and apex v, off the ball, iff
p is between the tangency hyperplane and the apex and inside the cone of
tangent lines through v (one sign condition plus one quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionFailure,
    DomainError,
    PreconditionViolation,
    UnsupportedBody,
)
from .geometry import (
    Direction,
    DirectionMultiset,
    SampleSet,
    Tolerance,
    _column_dots,
    _segment_origin_distance_sq,
    dot,
    frac_vec,
    is_exact_coords,
    sphere_sample,
)
from .polygons import (
    regular_polygon_number,
    tangent_polygon,
    tangent_window_directions,
)


def _orthonormal_pair(vhat):
    """Two unit vectors spanning the plane orthogonal to the unit 3-vector
    ``vhat``, so that (vhat, b1, b2) is an orthonormal frame.  ``vhat`` may
    be an (N, 3) array of rows; b1 and b2 are then (N, 3) as well."""
    vhat = np.asarray(vhat, dtype=float)
    helper = np.where(np.abs(vhat[..., 2:]) > 0.9, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    b1 = np.cross(vhat, helper)
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(vhat, b1)
    return b1, b2


class CapBodySpec:
    """Unit ball of dimension ``dim`` with finitely many outside apexes."""

    def __init__(self, dim: int, apexes):
        if dim < 2:
            raise DomainError("cap body base dimension must be >= 2")
        apexes = [tuple(a) for a in apexes]
        for a in apexes:
            if len(a) != dim:
                raise DomainError("apex dimension mismatch")
            norm_sq = sum(float(c) ** 2 for c in a)
            # NaN fails both comparisons and inf the second, but so does a
            # finite apex whose squares overflow, so only the coordinates decide
            if not 1.0 < norm_sq < math.inf:
                if not all(map(math.isfinite, a)):
                    raise DomainError("apex coordinates must be finite")
                if norm_sq <= 1.0:
                    raise PreconditionViolation("apexes must be strictly outside the ball")
        self.dim = dim
        self.apexes = apexes

    def apex_array(self) -> np.ndarray:
        return np.asarray([[float(c) for c in a] for a in self.apexes])

    # -- boundary sampling, the reference the exact verifier is tested on --

    def boundary_sample_set(self, n_sphere: int) -> SampleSet:
        """Sphere part outside all open caps, spike lateral surfaces with
        their tangency normals, and the apexes themselves.  No verdict uses
        it: ``verify_mfold`` is exact on cap bodies."""
        d = self.dim
        if d not in (2, 3):
            raise UnsupportedBody("cap-body sampling is implemented for d in {2, 3}")
        apexes = self.apex_array()
        pts = sphere_sample(d, n_sphere)
        if len(apexes):
            keep = (pts @ apexes.T <= 1.0).all(axis=1)
            pts = pts[keep]
        parts_p = [pts]
        parts_n = [pts]
        parts_o = [np.zeros(len(pts))]
        n_rings = 2 if d == 2 else 64
        n_axial = 200 if d == 2 else 24
        s_grid = np.arange(n_axial) / n_axial
        for v in apexes:
            r = float(np.linalg.norm(v))
            vhat = v / r
            tangency = np.sqrt(1.0 - 1.0 / (r * r))
            if d == 2:
                perp = np.array([-vhat[1], vhat[0]])
                omegas = np.stack([perp, -perp])
            else:
                b1, b2 = _orthonormal_pair(vhat)
                ring = 2 * np.pi * np.arange(n_rings) / n_rings
                omegas = np.cos(ring)[:, None] * b1 + np.sin(ring)[:, None] * b2
            touch = vhat / r + tangency * omegas
            lateral = (1.0 - s_grid)[None, :, None] * touch[:, None, :] + s_grid[
                None, :, None
            ] * v[None, None, :]
            parts_p.append(lateral.reshape(-1, d))
            parts_n.append(np.repeat(touch, n_axial, axis=0))
            parts_o.append(np.zeros(len(omegas) * n_axial))
            parts_p.append(v[None, :])
            parts_n.append(vhat[None, :])
            parts_o.append(np.array([np.sqrt(r * r - 1.0) / r]))
        return SampleSet(
            points=np.concatenate(parts_p),
            normals=np.concatenate(parts_n),
            offsets=np.concatenate(parts_o),
        )

    def __repr__(self) -> str:
        return f"CapBodySpec(dim={self.dim}, apexes={self.apexes!r})"


@dataclass(frozen=True)
class SphericalCap:
    """Closed spherical cap: unit center direction, angular radius.  The
    caps of N apexes hold an (N, d) array of centers and N radii."""

    center: tuple | np.ndarray
    radius: float | np.ndarray

    def __post_init__(self):
        if not np.all((0 <= self.radius) & (self.radius < math.pi / 2)):
            raise DomainError("cap radius must lie in [0, pi/2)")
        center = np.asarray(self.center, dtype=float)
        if np.any(np.abs(np.sqrt(_column_dots(center, center)) - 1.0) > 1e-9):
            raise DomainError("cap center must be a unit vector")


def validate_cap_body(spec: CapBodySpec) -> bool:
    """Every pair of distinct apexes must connect through the closed ball
    (tangency counts).  Exact for pairs of rational apexes; the other pairs
    are checked in float, all at once, with a tiny slack so analytically
    tangent configurations validate."""
    apexes = spec.apexes
    first, second = np.triu_indices(len(apexes), 1)
    exact = np.asarray([is_exact_coords(a) for a in apexes], dtype=bool)
    rational = exact[first] & exact[second]
    pairs = zip(first[rational].tolist(), second[rational].tolist())
    if any(_segment_origin_distance_sq(apexes[i], apexes[j]) > 1 for i, j in pairs):
        return False
    rows = spec.apex_array().reshape(len(apexes), spec.dim)
    a, b = rows[first[~rational]], rows[second[~rational]]
    return not (_segment_origin_distance_sq(a, b) > 1.0 + 1e-9).any()


# --------------------------------------------------------------------------
# spike / cap membership
# --------------------------------------------------------------------------

def _rows_or_bool(mask):
    """A bool array for rows of points, a plain bool for one point."""
    return mask if mask.ndim else bool(mask)


def _point_in_spike(v, p):
    """p in the spike of apex v: off the ball, on the apex side of the
    tangency plane and inside the cone of tangent lines through v.

    Exact when both are rational.  Float input may give v, p or both as an
    (N, d) array of rows; the answer is then one bool per row."""
    if is_exact_coords(v) and is_exact_coords(p):
        v, p = frac_vec(v), frac_vec(p)
        if dot(p, p) <= 1:
            return False
        if dot(p, v) < 1:
            return False
        w = tuple(x - y for x, y in zip(v, p))
        axial = dot(w, v)
        if axial < 0:
            return False
        return axial * axial >= dot(w, w) * (dot(v, v) - 1)
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    w = v - p
    axial = _column_dots(w, v)
    inside = (
        (_column_dots(p, p) > 1.0)
        & (_column_dots(p, v) >= 1.0)
        & (axial >= 0)
        & (axial * axial >= _column_dots(w, w) * (_column_dots(v, v) - 1.0))
    )
    return _rows_or_bool(inside)


def _point_in_spiky_hull(v, p):
    """p in conv(ball + apex v); float rows as in ``_point_in_spike``."""
    if is_exact_coords(v) and is_exact_coords(p):
        if dot(frac_vec(p), frac_vec(p)) <= 1:
            return True
        return _point_in_spike(v, p)
    p = np.asarray(p, dtype=float)
    return _rows_or_bool((_column_dots(p, p) <= 1.0) | _point_in_spike(v, p))


def _point_in_cone_interior(v, p):
    """p strictly inside the tangent-cone part of conv(ball + apex v), i.e.
    on the apex side of the tangency plane and strictly within the cone of
    tangent lines.  For points on the sphere this is exactly interiority of
    the spiky body off the ball.  Float rows as in ``_point_in_spike``."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    w = v - p
    axial = _column_dots(w, v)
    inside = (
        (_column_dots(p, v) >= 1.0)
        & (axial > 0)
        & (axial * axial > _column_dots(w, w) * (_column_dots(v, v) - 1.0))
    )
    return _rows_or_bool(inside)


def _require_single_apex(spec: CapBodySpec):
    if len(spec.apexes) != 1:
        raise PreconditionViolation("operation takes a single-apex cap body")
    return spec.apexes[0]


def in_spike(spec: CapBodySpec, p) -> bool:
    """Is p in the spike (hull of ball and apex, minus the ball)?"""
    return _point_in_spike(_require_single_apex(spec), p)


def _point_in_open_cap(v, p):
    """p, within 1e-6 of the unit sphere, in the open cap lit by apex v: for
    the ball base the strict support-plane test <p, v> > 1.  Exact when
    both are rational; float rows as in ``_point_in_spike``."""
    pf = np.asarray(p, dtype=float)
    if np.any(np.abs(np.sqrt(_column_dots(pf, pf)) - 1.0) > 1e-6):
        raise PreconditionViolation("point is not on the unit sphere")
    if is_exact_coords(v) and is_exact_coords(p):
        return dot(frac_vec(p), frac_vec(v)) > 1
    return _rows_or_bool(_column_dots(pf, np.asarray(v, dtype=float)) > 1.0)


def in_open_cap(spec: CapBodySpec, p) -> bool:
    """Is the boundary point p, within 1e-6 of the unit sphere, inside the
    open cap lit by the apex?"""
    return _point_in_open_cap(_require_single_apex(spec), p)


def closed_cap_of_ball(v) -> SphericalCap:
    """Closed cap of the ball seen from apex v: center v/|v|, radius
    arccos(1/|v|).  v may be an (N, d) array of rows; the cap then holds
    one center and one radius per row."""
    v = np.asarray(v, dtype=float)
    r = np.sqrt(_column_dots(v, v))
    if np.any(r <= 1.0):
        raise DomainError("apex must be strictly outside the ball")
    # libm's acos row by row: numpy's arccos rounds by CPU, and radii print in full
    radius = np.reshape(list(map(math.acos, np.ravel(1.0 / r).tolist())), r.shape)
    center = v / r[..., None]
    if v.ndim == 1:
        return SphericalCap(center=tuple(center.tolist()), radius=float(radius))
    return SphericalCap(center=center, radius=radius)


def apex_illuminates(v, u):
    """Does direction u illuminate the apex v with respect to the hull of
    ball and v?  True iff u points strictly into the tangent cone.

    v, u or both may be an (N, d) array of rows; the answer is then one
    bool per row."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.sqrt(_column_dots(v, v))
    if np.any(r <= 1.0):
        raise DomainError("apex must be strictly outside the ball")
    cos_beta = np.sqrt(r * r - 1.0) / r
    toward = -_column_dots(u, v) / r
    return _rows_or_bool(toward / np.sqrt(_column_dots(u, u)) > cos_beta)


def incompatible_apexes(v, v_prime) -> bool:
    """Can no single direction illuminate both apexes (equivalently both
    closed caps) with respect to the ball?

    A direction lighting the whole closed cap of v lies within
    pi/2 - radius(v) of -v; two such angular balls are disjoint exactly
    when the apex separation is at least pi minus the radius sum.
    """
    cap_a, cap_b = closed_cap_of_ball(v), closed_cap_of_ball(v_prime)
    ca = np.asarray(cap_a.center)
    cb = np.asarray(cap_b.center)
    angle = math.acos(min(1.0, max(-1.0, float(ca @ cb))))
    return angle >= math.pi - (cap_a.radius + cap_b.radius) - 1e-9


# --------------------------------------------------------------------------
# explicit constructions
# --------------------------------------------------------------------------

def cap_body_number_top_only(n: int, m: int) -> int:
    """I^m of the prism cap body with equatorial ring and top apex."""
    return m + regular_polygon_number(n, m)


def cap_body_number_top_bottom(n: int, m: int) -> int:
    """I^m of the prism cap body with equatorial ring and both poles."""
    return 2 * m + regular_polygon_number(n, m)


def b3_prism_apexes(n: int, with_bottom: bool = False):
    """Ring of n apexes tangent along the equator plus the top apex (and
    the bottom one when requested); always a valid cap body."""
    if n < 3:
        raise DomainError("prism construction needs n >= 3")
    ring_r = 1.0 / math.cos(math.pi / n)
    pole_z = 1.0 / math.cos((n - 2) * math.pi / (2 * n))
    apexes = [
        (
            ring_r * math.cos(2 * math.pi * i / n),
            ring_r * math.sin(2 * math.pi * i / n),
            0.0,
        )
        for i in range(1, n + 1)
    ]
    apexes.append((0.0, 0.0, pole_z))
    if with_bottom:
        apexes.append((0.0, 0.0, -pole_z))
    return apexes


def b2_single_spike_directions(v, m: int) -> DirectionMultiset:
    """2m+1 directions m-fold illuminating the single-spike cap body of the
    disk with apex v.

    Builds the circumscribed (2m+1)-gon with first vertex at the apex whose
    exterior angles keep every m-window strictly below pi, then aims one
    direction per tangent-line window at the polygon centroid.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    vx, vy = (float(v[0]), float(v[1]))
    r = math.hypot(vx, vy)
    if r <= 1.0:
        raise DomainError("apex must be strictly outside the disk")
    alpha = math.pi - 2 * math.asin(1.0 / r)
    if m == 1:
        angles = [alpha, math.pi - alpha / 2, math.pi - alpha / 2]
    else:
        eps = (math.pi - alpha) / (2 * m)
        flat = (math.pi - alpha - eps) / (m - 1)
        angles = (
            [alpha]
            + [flat] * (m - 1)
            + [alpha / 2 + eps] * 2
            + [flat] * (m - 1)
        )
    theta_v = math.atan2(vy, vx)
    normals = [theta_v + alpha / 2]
    for a in angles[1:]:
        normals.append(normals[-1] + a)
    tp = tangent_polygon(normals, np.ones(len(normals)))
    return tangent_window_directions(tp, m)


def _slot_multiplicities(n: int, m: int) -> list[int]:
    """x_k = ceil((k+1)T/n) - ceil(kT/n) for k = 0..n-1, with T the regular
    n-gon value: they sum to T, and any h = floor((n-1)/2) cyclically
    consecutive ones sum to at least floor(hT/n) >= m."""
    total = regular_polygon_number(n, m)
    ceilings = [-(-k * total // n) for k in range(n + 1)]
    return [b - a for a, b in zip(ceilings, ceilings[1:])]


def b3_capbody_directions(
    n: int,
    m: int,
    with_bottom: bool = False,
    tol: Tolerance = Tolerance(),
) -> DirectionMultiset:
    """Direction multiset matching the prism cap-body formulas: the regular
    n-gon value T = I^m(P_n) of directions at the ring's slots, tilted up
    by 0.1, plus m copies of straight down (and m of straight up when the
    bottom apex is present).

    Ring apex i, at angle a_i = 2 pi i / n, has cone half-angle
    pi/2 - pi/n, so a horizontal direction lights it exactly on the open
    arc of length pi - 2pi/n that starts at s_i = a_i + pi/2 + pi/n.  The
    slot theta_k = s_k + pi/(2n) lies in the h = floor((n-1)/2) arcs
    i = k-h+1..k, at least pi/(2n) from each end, and slot k carries the
    x_k of :func:`_slot_multiplicities`, so every ring apex gets at least
    m.  The tilt keeps these apex tests, since sin(3pi/(2n)) exceeds
    sqrt(1.01) sin(pi/n) for all n >= 3.  Straight down lights the top
    apex m times, straight up the bottom one.  The result gets one
    :func:`verify_mfold` check; a failure raises ConstructionFailure.
    """
    from .geometry import verify_mfold  # deferred: geometry dispatches back here

    spec = CapBodySpec(dim=3, apexes=b3_prism_apexes(n, with_bottom))
    entries = []
    for k, mult in enumerate(_slot_multiplicities(n, m)):
        if mult:
            theta = 2 * math.pi * k / n + math.pi / 2 + 3 * math.pi / (2 * n)
            entries.append((Direction((math.cos(theta), math.sin(theta), 0.1)), mult))
    entries.append((Direction((0.0, 0.0, -1.0)), m))
    if with_bottom:
        entries.append((Direction((0.0, 0.0, 1.0)), m))
    multiset = DirectionMultiset(entries)
    report = verify_mfold(spec, multiset, m, tol)
    if not report.passed:
        raise ConstructionFailure("prism multiset failed its check", report=report)
    return multiset
