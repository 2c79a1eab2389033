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
from fractions import Fraction

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
    _segment_origin_distance_sq,
    dot,
    frac_vec,
    is_exact_coords,
    sphere_sample,
)
from .polygons import (
    polygon_piercing_solution,
    regular_polygon_number,
    regular_polygon_rational,
    tangent_polygon,
    tangent_window_directions,
)


def _orthonormal_pair(vhat):
    """Two unit vectors spanning the plane orthogonal to the unit 3-vector
    ``vhat``, so that (vhat, b1, b2) is an orthonormal frame."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(vhat @ helper) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    b1 = np.cross(vhat, helper)
    b1 /= np.linalg.norm(b1)
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
            if sum(float(c) ** 2 for c in a) <= 1.0:
                raise PreconditionViolation("apexes must be strictly outside the ball")
        self.dim = dim
        self.apexes = apexes

    def apex_array(self) -> np.ndarray:
        return np.asarray([[float(c) for c in a] for a in self.apexes])

    # -- boundary sampling for the verification engine ---------------------

    def boundary_sample_set(self, n_sphere: int) -> SampleSet:
        """Sphere part outside all open caps, spike lateral surfaces with
        their tangency normals, and the apexes themselves."""
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
    """Closed spherical cap: unit center direction, angular radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not 0 <= self.radius < math.pi / 2:
            raise DomainError("cap radius must lie in [0, pi/2)")
        norm = math.sqrt(sum(float(c) ** 2 for c in self.center))
        if abs(norm - 1.0) > 1e-9:
            raise DomainError("cap center must be a unit vector")


def validate_cap_body(spec: CapBodySpec) -> bool:
    """Every pair of distinct apexes must connect through the closed ball
    (tangency counts).  Exact for rational apexes; float apexes get a tiny
    slack so analytically tangent configurations validate."""
    apexes = spec.apexes
    for i in range(len(apexes)):
        for j in range(i + 1, len(apexes)):
            dist_sq = _segment_origin_distance_sq(apexes[i], apexes[j])
            if isinstance(dist_sq, Fraction):
                if dist_sq > 1:
                    return False
            elif dist_sq > 1.0 + 1e-9:
                return False
    return True


# --------------------------------------------------------------------------
# spike / cap membership
# --------------------------------------------------------------------------

def _point_in_spike(v, p) -> bool:
    if is_exact_coords(v) and is_exact_coords(p):
        v, p = frac_vec(v), frac_vec(p)
        one = 1
    else:
        v = tuple(float(c) for c in v)
        p = tuple(float(c) for c in p)
        one = 1.0
    pp = dot(p, p)
    if pp <= one:
        return False
    if dot(p, v) < one:
        return False
    w = tuple(x - y for x, y in zip(v, p))
    axial = dot(w, v)
    if axial < 0:
        return False
    return axial * axial >= dot(w, w) * (dot(v, v) - one)


def _point_in_spiky_hull(v, p) -> bool:
    """p in conv(ball + apex v)."""
    if is_exact_coords(v) and is_exact_coords(p):
        if dot(frac_vec(p), frac_vec(p)) <= 1:
            return True
    elif sum(float(c) ** 2 for c in p) <= 1.0:
        return True
    return _point_in_spike(v, p)


def _point_in_cone_interior(v, p) -> bool:
    """p strictly inside the tangent-cone part of conv(ball + apex v), i.e.
    on the apex side of the tangency plane and strictly within the cone of
    tangent lines.  For points on the sphere this is exactly interiority of
    the spiky body off the ball."""
    vf = tuple(float(c) for c in v)
    pf = tuple(float(c) for c in p)
    if tuple(pf) == tuple(vf):
        return False
    if dot(pf, vf) < 1.0:
        return False
    w = tuple(x - y for x, y in zip(vf, pf))
    axial = dot(w, vf)
    return axial > 0 and axial * axial > dot(w, w) * (dot(vf, vf) - 1.0)


def _require_single_apex(spec: CapBodySpec):
    if len(spec.apexes) != 1:
        raise PreconditionViolation("operation takes a single-apex cap body")
    return spec.apexes[0]


def in_spike(spec: CapBodySpec, p) -> bool:
    """Is p in the spike (hull of ball and apex, minus the ball)?"""
    return _point_in_spike(_require_single_apex(spec), p)


def in_open_cap(spec: CapBodySpec, p, tol: Tolerance = Tolerance()) -> bool:
    """Is the boundary point p inside the open cap lit by the apex?

    For the ball base this is the strict support-plane test <p, v> > 1.
    """
    v = _require_single_apex(spec)
    norm = math.sqrt(sum(float(c) ** 2 for c in p))
    if abs(norm - 1.0) > max(tol.margin, 1e-9):
        raise PreconditionViolation("point is not on the unit sphere")
    if is_exact_coords(v) and is_exact_coords(p):
        return dot(frac_vec(p), frac_vec(v)) > 1
    return dot(tuple(float(c) for c in p), tuple(float(c) for c in v)) > 1.0


def closed_cap_of_ball(v) -> SphericalCap:
    """Closed cap of the ball seen from apex v: center v/|v|, radius
    arccos(1/|v|)."""
    r = math.sqrt(sum(float(c) ** 2 for c in v))
    if r <= 1.0:
        raise DomainError("apex must be strictly outside the ball")
    center = tuple(float(c) / r for c in v)
    return SphericalCap(center=center, radius=math.acos(1.0 / r))


def apex_illuminates(v, u) -> bool:
    """Does direction u illuminate the apex v with respect to the hull of
    ball and v?  True iff u points strictly into the tangent cone."""
    v = np.asarray([float(c) for c in v])
    u = np.asarray([float(c) for c in u])
    r = float(np.linalg.norm(v))
    if r <= 1.0:
        raise DomainError("apex must be strictly outside the ball")
    cos_beta = math.sqrt(r * r - 1.0) / r
    return float(u @ (-v / r)) / float(np.linalg.norm(u)) > cos_beta


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


def b3_capbody_directions(
    n: int,
    m: int,
    with_bottom: bool = False,
    tol: Tolerance = Tolerance(),
) -> DirectionMultiset:
    """Direction multiset matching the prism cap-body formulas.

    Takes the optimal equatorial multiset of the regular n-gon, tips it
    upward by a verified halving search over the tilt, and adds m copies
    of straight down (and straight up when the bottom apex is present).
    """
    spec = CapBodySpec(dim=3, apexes=b3_prism_apexes(n, with_bottom))
    solution = polygon_piercing_solution(regular_polygon_rational(n), m)
    planar = []
    for d, (_, mult) in zip(solution.directions, solution.slots):
        ux, uy = float(d[0]), float(d[1])
        norm = math.hypot(ux, uy)
        planar.append((ux / norm, uy / norm, mult))

    from .geometry import verify_mfold  # deferred: geometry dispatches back here

    eps_hat = 0.1
    report = None
    while eps_hat >= 1e-9:
        entries = [
            (Direction((ux, uy, eps_hat)), mult) for ux, uy, mult in planar
        ]
        entries.append((Direction((0.0, 0.0, -1.0)), m))
        if with_bottom:
            entries.append((Direction((0.0, 0.0, 1.0)), m))
        candidate = DirectionMultiset(entries)
        report = verify_mfold(spec, candidate, m, tol)
        if report.passed:
            return candidate
        eps_hat /= 2
    raise ConstructionFailure(
        "tilt search exhausted without a verified multiset", report=report
    )
