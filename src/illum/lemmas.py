"""Executable ledger of the cap-body structure lemmas.

Each entry turns one structural fact about spikes, caps, and cap bodies
into a seeded randomized check: hull decomposition, spike and cap
monotonicity, transfer of apex illumination to caps and spikes, closed-cap
transfer, sub-cap-body monotonicity of verified multisets, and apex-pair
incompatibility.  The suite is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capbody import (
    CapBodySpec,
    _orthonormal_pair,
    _point_in_cone_interior,
    _point_in_spike,
    _point_in_spiky_hull,
    apex_illuminates,
    b3_capbody_directions,
    b3_prism_apexes,
    closed_cap_of_ball,
    in_open_cap,
    incompatible_apexes,
    validate_cap_body,
)
from .geometry import Ball, Tolerance, verify_mfold


@dataclass
class LemmaResult:
    name: str
    passed: bool
    detail: str = ""


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _interior_ball_point(rng, d, rmax=0.98):
    return _unit(rng, d) * rmax * rng.uniform() ** (1.0 / d)


def _random_apex(rng, d, rmin=1.05, rmax=3.0):
    return _unit(rng, d) * rng.uniform(rmin, rmax)


def _random_spike_point(rng, v, beta_min=0.0):
    """Point of the spike of apex v (rejection on staying outside the ball)."""
    for _ in range(10_000):
        b = _interior_ball_point(rng, len(v))
        beta = rng.uniform(beta_min, 1.0)
        s = (1 - beta) * b + beta * v
        if s @ s > 1.0 + 1e-9:
            return s
    raise RuntimeError("spike sampling failed")


def _random_cap_point(rng, v):
    """Sphere point strictly inside the open cap of apex v."""
    r = float(np.linalg.norm(v))
    cap_r = math.acos(1.0 / r)
    vhat = v / r
    for _ in range(10_000):
        ang = rng.uniform(0.0, cap_r * 0.999)
        w = rng.normal(size=len(v))
        w -= (w @ vhat) * vhat
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            continue
        p = math.cos(ang) * vhat + math.sin(ang) * (w / nw)
        if p @ v > 1.0 + 1e-9:
            return p
    raise RuntimeError("cap sampling failed")


def _valid_random_pair(rng, d):
    """Two apexes whose connecting segment passes through the ball."""
    for _ in range(10_000):
        v1 = _random_apex(rng, d)
        v2 = -rng.uniform(1.1, 2.5) * (v1 / np.linalg.norm(v1))
        v2 = v2 + 0.2 * rng.normal(size=d)
        if v2 @ v2 > 1.02:
            spec = CapBodySpec(dim=d, apexes=[tuple(v1), tuple(v2)])
            if validate_cap_body(spec):
                return v1, v2
    raise RuntimeError("pair sampling failed")


def lemma_hull_union_equality(rng, samples=10_000) -> LemmaResult:
    """Convex combinations of ball points and apexes of a valid cap body
    always land in some single-apex hull."""
    apex_sets = [
        b3_prism_apexes(3),
        b3_prism_apexes(4, with_bottom=True),
        [tuple(v) for v in _valid_random_pair(rng, 3)],
        [tuple(v) for v in _valid_random_pair(rng, 2)],
    ]
    per_set = samples // len(apex_sets)
    for apexes in apex_sets:
        d = len(apexes[0])
        spec = CapBodySpec(dim=d, apexes=apexes)
        if not validate_cap_body(spec):
            return LemmaResult("hull_union_equality", False, "invalid test spec")
        arr = spec.apex_array()
        for _ in range(per_set):
            weights = rng.dirichlet(np.ones(len(arr) + 1))
            x = weights[0] * _interior_ball_point(rng, d)
            x = x + weights[1:] @ arr
            if not (x @ x <= 1.0 or any(_point_in_spike(v, x) for v in arr)):
                return LemmaResult(
                    "hull_union_equality", False, f"point {x} escaped all spikes"
                )
    return LemmaResult("hull_union_equality", True)


def lemma_spike_containment(rng, samples=1_000) -> LemmaResult:
    """An apex inside a spike spans a smaller spiky body."""
    for _ in range(40):
        v = _random_apex(rng, 3, rmin=1.3)
        v_prime = _random_spike_point(rng, v, beta_min=0.2)
        for _ in range(samples // 40):
            b = _interior_ball_point(rng, 3)
            beta = rng.uniform()
            y = (1 - beta) * b + beta * v_prime
            if not _point_in_spiky_hull(v, y):
                return LemmaResult(
                    "spike_containment", False, f"{y} left the outer spiky body"
                )
    return LemmaResult("spike_containment", True)


def lemma_cap_interior_identity(rng, samples=1_000) -> LemmaResult:
    """Open cap membership, the support test <p,v> > 1, and interior
    membership off the ball agree on sphere points."""
    for _ in range(samples):
        d = 3 if rng.uniform() < 0.7 else 2
        v = _random_apex(rng, d)
        p = _unit(rng, d)
        margin = abs(p @ v - 1.0)
        if margin < 1e-9:
            continue
        spec = CapBodySpec(dim=d, apexes=[tuple(v)])
        a = in_open_cap(spec, tuple(p))
        b = bool(p @ v > 1.0)
        c = _point_in_cone_interior(v, p)
        if not (a == b == c):
            return LemmaResult(
                "cap_interior_identity", False, f"disagreement at {p} apex {v}"
            )
    return LemmaResult("cap_interior_identity", True)


def lemma_apex_transfer_to_cap(rng, trials=1_000, cap_samples=20) -> LemmaResult:
    """A direction illuminating the apex (aimed at an interior point) also
    illuminates every open-cap point with respect to the ball."""
    for _ in range(trials):
        v = _random_apex(rng, 3)
        u = _interior_ball_point(rng, 3) - v
        u /= np.linalg.norm(u)
        for _ in range(cap_samples):
            p = _random_cap_point(rng, v)
            if not u @ p < 0:
                return LemmaResult(
                    "apex_transfer_to_cap", False, f"cap point {p} not lit"
                )
    return LemmaResult("apex_transfer_to_cap", True)


def lemma_closed_cap_transfer(rng, trials=500, ring_samples=24) -> LemmaResult:
    """Same transfer including the tangency circle (closed cap)."""
    for _ in range(trials):
        v = _random_apex(rng, 3)
        r = float(np.linalg.norm(v))
        vhat = v / r
        u = _interior_ball_point(rng, 3) - v
        u /= np.linalg.norm(u)
        b1, b2 = _orthonormal_pair(vhat)
        radial = math.sqrt(1.0 - 1.0 / (r * r))
        for k in range(ring_samples):
            ang = 2 * math.pi * k / ring_samples
            p = vhat / r + radial * (math.cos(ang) * b1 + math.sin(ang) * b2)
            if not u @ p < 0:
                return LemmaResult(
                    "closed_cap_transfer", False, f"tangency point {p} not lit"
                )
    return LemmaResult("closed_cap_transfer", True)


def lemma_spike_to_spike_transfer(rng, trials=1_000) -> LemmaResult:
    """A direction illuminating apex v transfers to every spike point s as
    an illuminating direction of the spiky body with apex s."""
    for _ in range(trials):
        v = _random_apex(rng, 3, rmin=1.2)
        u = _interior_ball_point(rng, 3) - v
        s = _random_spike_point(rng, v)
        if not apex_illuminates(s, u):
            return LemmaResult(
                "spike_to_spike_transfer", False, f"spike point {s} not lit"
            )
    return LemmaResult("spike_to_spike_transfer", True)


def lemma_cap_containment(rng, trials=400, sphere_samples=50) -> LemmaResult:
    """An apex inside a spike has a smaller cap, both pointwise and as a
    spherical cap (center offset plus radius)."""
    for _ in range(trials):
        v = _random_apex(rng, 3, rmin=1.3)
        v_prime = _random_spike_point(rng, v, beta_min=0.3)
        cap_outer = closed_cap_of_ball(v)
        cap_inner = closed_cap_of_ball(v_prime)
        offset = math.acos(
            min(1.0, max(-1.0, float(np.asarray(cap_outer.center) @ cap_inner.center)))
        )
        if offset + cap_inner.radius > cap_outer.radius + 1e-9:
            return LemmaResult(
                "cap_containment", False, f"cap of {v_prime} exceeds cap of {v}"
            )
        for _ in range(sphere_samples):
            p = _unit(rng, 3)
            if p @ v_prime > 1.0 and not p @ v > 1.0:
                return LemmaResult(
                    "cap_containment", False, f"point {p} only in the inner cap"
                )
    return LemmaResult("cap_containment", True)


def lemma_submultiset_monotonicity(rng, m: int = 1) -> LemmaResult:
    """A multiset verified on a cap body also verifies on any cap body built
    from a subset of its apexes, including the bare ball."""
    tol = Tolerance(samples=20_000)
    apexes = b3_prism_apexes(4, with_bottom=True)
    multiset = b3_capbody_directions(4, m, with_bottom=True, tol=tol)
    subsets = [apexes[:4], [apexes[4]], apexes[:5]]
    for sub in subsets:
        spec = CapBodySpec(dim=3, apexes=sub)
        if not validate_cap_body(spec):
            return LemmaResult("submultiset_monotonicity", False, "invalid subset")
        if not verify_mfold(spec, multiset, m, tol).passed:
            return LemmaResult(
                "submultiset_monotonicity", False, f"failed on subset of {len(sub)}"
            )
    if not verify_mfold(Ball(3), multiset, m, tol).passed:
        return LemmaResult("submultiset_monotonicity", False, "failed on the ball")
    return LemmaResult("submultiset_monotonicity", True)


def lemma_incompatible_pairs(rng, samples=100_000) -> LemmaResult:
    """Apexes whose closed caps have radius sum >= pi/2 (here: prism ring
    and pole, radius sum exactly pi/2) are never lit by one direction."""
    apexes = b3_prism_apexes(5)
    top = np.asarray(apexes[-1])
    ring = [np.asarray(a) for a in apexes[:-1]]
    for q in ring:
        if not incompatible_apexes(top, q):
            return LemmaResult(
                "incompatible_pairs", False, "criterion rejected a prism pair"
            )
    dirs = rng.normal(size=(samples, 3))
    for q in ring[:2]:
        both = [
            u
            for u in dirs[: samples // 2]
            if apex_illuminates(top, u) and apex_illuminates(q, u)
        ]
        if both:
            return LemmaResult(
                "incompatible_pairs", False, f"direction {both[0]} lights both"
            )
    return LemmaResult("incompatible_pairs", True)


def lemma_apex_cap_equivalence(rng, trials=2_000) -> LemmaResult:
    """Illuminating the apex of a single-spike body is the same as
    illuminating its whole closed cap with respect to the ball."""
    for _ in range(trials):
        v = _random_apex(rng, 3)
        u = _unit(rng, 3)
        cap = closed_cap_of_ball(v)
        ang = math.acos(min(1.0, max(-1.0, float(u @ np.asarray(cap.center)))))
        # max of <u, p> over the closed cap
        worst = math.cos(max(ang - cap.radius, 0.0))
        slack = math.asin(1.0 / float(np.linalg.norm(v))) - math.acos(
            min(1.0, max(-1.0, float(u @ (-v / np.linalg.norm(v)))))
        )
        if abs(slack) < 1e-6:
            continue
        if apex_illuminates(v, u) != (worst < 0):
            return LemmaResult(
                "apex_cap_equivalence", False, f"apex {v} direction {u}"
            )
    return LemmaResult("apex_cap_equivalence", True)


_SUITE = [
    ("hull_union_equality", lemma_hull_union_equality),
    ("spike_containment", lemma_spike_containment),
    ("cap_interior_identity", lemma_cap_interior_identity),
    ("apex_transfer_to_cap", lemma_apex_transfer_to_cap),
    ("spike_to_spike_transfer", lemma_spike_to_spike_transfer),
    ("cap_containment", lemma_cap_containment),
    ("closed_cap_transfer", lemma_closed_cap_transfer),
    ("submultiset_monotonicity", lemma_submultiset_monotonicity),
    ("incompatible_pairs", lemma_incompatible_pairs),
    ("apex_cap_equivalence", lemma_apex_cap_equivalence),
]


def run_lemma_suite(seed: int) -> list[LemmaResult]:
    """Run every ledger entry with an independent child seed."""
    results = []
    root = np.random.SeedSequence(seed)
    for child, (name, fn) in zip(root.spawn(len(_SUITE)), _SUITE):
        rng = np.random.default_rng(child)
        try:
            results.append(fn(rng))
        except Exception as exc:  # a crashed lemma counts as a failure
            results.append(LemmaResult(name, False, f"error: {exc}"))
    return results
