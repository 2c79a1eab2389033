"""Executable ledger of the cap-body structure lemmas.

Each entry turns one structural fact about spikes, caps, and cap bodies
into a seeded randomized check: hull decomposition, spike and cap
monotonicity, transfer of apex illumination to caps and spikes, closed-cap
transfer, sub-cap-body monotonicity of verified multisets, and apex-pair
incompatibility.  Entries draw their samples as numpy arrays and test
each array at once; a failure names the first offending sample.  The
suite is deterministic given the seed.
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
from .errors import DomainError
from .geometry import Ball, verify_mfold


@dataclass
class LemmaResult:
    name: str
    passed: bool
    detail: str = ""


def _unit(rng, n, d):
    """n independent uniform unit vectors of R^d, as rows."""
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _interior_ball_point(rng, n, d, rmax=0.98):
    return _unit(rng, n, d) * rmax * rng.uniform(size=(n, 1)) ** (1.0 / d)


def _random_apex(rng, n, d, rmin=1.05, rmax=3.0):
    return _unit(rng, n, d) * rng.uniform(rmin, rmax, size=(n, 1))


def _random_spike_point(rng, v, beta_min=0.0):
    """One point of the spike of each apex row of v (rejection on staying
    outside the ball; only the rejected rows are drawn again)."""
    out = np.empty_like(v)
    todo = np.arange(len(v))
    for _ in range(10_000):
        b = _interior_ball_point(rng, len(todo), v.shape[1])
        beta = rng.uniform(beta_min, 1.0, size=(len(todo), 1))
        s = (1 - beta) * b + beta * v[todo]
        kept = (s * s).sum(axis=1) > 1.0 + 1e-9
        out[todo[kept]] = s[kept]
        todo = todo[~kept]
        if not len(todo):
            return out
    raise RuntimeError("spike sampling failed")


def _random_cap_point(rng, v):
    """One sphere point strictly inside the open cap of each apex row of v
    (only the rejected rows are drawn again)."""
    r = np.linalg.norm(v, axis=1, keepdims=True)
    cap_r = np.arccos(1.0 / r)
    vhat = v / r
    out = np.empty_like(v)
    todo = np.arange(len(v))
    for _ in range(10_000):
        ang = rng.uniform(0.0, cap_r[todo] * 0.999)
        w = rng.normal(size=(len(todo), v.shape[1]))
        axis = vhat[todo]
        w -= (w * axis).sum(axis=1, keepdims=True) * axis
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        p = np.cos(ang) * axis + np.sin(ang) * (w / np.maximum(nw, 1e-12))
        kept = (nw[:, 0] >= 1e-12) & ((p * v[todo]).sum(axis=1) > 1.0 + 1e-9)
        out[todo[kept]] = p[kept]
        todo = todo[~kept]
        if not len(todo):
            return out
    raise RuntimeError("cap sampling failed")


def _valid_random_pair(rng, d):
    """Two apexes whose connecting segment passes through the ball."""
    for _ in range(10_000):
        v1 = _random_apex(rng, 1, d)[0]
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
        weights = rng.dirichlet(np.ones(len(arr) + 1), size=per_set)
        x = weights[:, :1] * _interior_ball_point(rng, per_set, d)
        x = x + weights[:, 1:] @ arr
        covered = (x * x).sum(axis=1) <= 1.0
        for v in arr:
            covered |= _point_in_spike(v, x)
        if not covered.all():
            bad = x[~covered][0]
            return LemmaResult(
                "hull_union_equality", False, f"point {bad} escaped all spikes"
            )
    return LemmaResult("hull_union_equality", True)


def lemma_spike_containment(rng, samples=1_000) -> LemmaResult:
    """An apex inside a spike spans a smaller spiky body."""
    v = _random_apex(rng, 40, 3, rmin=1.3)
    v_prime = _random_spike_point(rng, v, beta_min=0.2)
    v = np.repeat(v, samples // 40, axis=0)
    v_prime = np.repeat(v_prime, samples // 40, axis=0)
    b = _interior_ball_point(rng, len(v), 3)
    beta = rng.uniform(size=(len(v), 1))
    y = (1 - beta) * b + beta * v_prime
    inside = _point_in_spiky_hull(v, y)
    if not inside.all():
        return LemmaResult(
            "spike_containment", False, f"{y[~inside][0]} left the outer spiky body"
        )
    return LemmaResult("spike_containment", True)


def lemma_cap_interior_identity(rng, samples=1_000) -> LemmaResult:
    """Open cap membership, the support test <p,v> > 1, and interior
    membership off the ball agree on sphere points."""
    for _ in range(samples):
        d = 3 if rng.uniform() < 0.7 else 2
        v = _random_apex(rng, 1, d)[0]
        p = _unit(rng, 1, d)[0]
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
    v = _random_apex(rng, trials, 3)
    u = _interior_ball_point(rng, trials, 3) - v
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = _random_cap_point(rng, np.repeat(v, cap_samples, axis=0))
    lit = (np.repeat(u, cap_samples, axis=0) * p).sum(axis=1) < 0
    if not lit.all():
        return LemmaResult(
            "apex_transfer_to_cap", False, f"cap point {p[~lit][0]} not lit"
        )
    return LemmaResult("apex_transfer_to_cap", True)


def lemma_closed_cap_transfer(rng, trials=500, ring_samples=24) -> LemmaResult:
    """Same transfer including the tangency circle (closed cap)."""
    ang = 2 * np.pi * np.arange(ring_samples) / ring_samples
    for _ in range(trials):
        v = _random_apex(rng, 1, 3)[0]
        r = float(np.linalg.norm(v))
        vhat = v / r
        u = _interior_ball_point(rng, 1, 3)[0] - v
        u /= np.linalg.norm(u)
        b1, b2 = _orthonormal_pair(vhat)
        radial = math.sqrt(1.0 - 1.0 / (r * r))
        p = vhat / r + radial * (np.cos(ang)[:, None] * b1 + np.sin(ang)[:, None] * b2)
        lit = p @ u < 0
        if not lit.all():
            return LemmaResult(
                "closed_cap_transfer", False, f"tangency point {p[~lit][0]} not lit"
            )
    return LemmaResult("closed_cap_transfer", True)


def lemma_spike_to_spike_transfer(rng, trials=1_000) -> LemmaResult:
    """A direction illuminating apex v transfers to every spike point s as
    an illuminating direction of the spiky body with apex s."""
    v = _random_apex(rng, trials, 3, rmin=1.2)
    u = _interior_ball_point(rng, trials, 3) - v
    s = _random_spike_point(rng, v)
    lit = apex_illuminates(s, u)
    if not lit.all():
        return LemmaResult(
            "spike_to_spike_transfer", False, f"spike point {s[~lit][0]} not lit"
        )
    return LemmaResult("spike_to_spike_transfer", True)


def lemma_cap_containment(rng, trials=400, sphere_samples=50) -> LemmaResult:
    """An apex inside a spike has a smaller cap, both pointwise and as a
    spherical cap (center offset plus radius)."""
    for _ in range(trials):
        v = _random_apex(rng, 1, 3, rmin=1.3)[0]
        v_prime = _random_spike_point(rng, v[None], beta_min=0.3)[0]
        cap_outer = closed_cap_of_ball(v)
        cap_inner = closed_cap_of_ball(v_prime)
        offset = math.acos(
            min(1.0, max(-1.0, float(np.asarray(cap_outer.center) @ cap_inner.center)))
        )
        if offset + cap_inner.radius > cap_outer.radius + 1e-9:
            return LemmaResult(
                "cap_containment", False, f"cap of {v_prime} exceeds cap of {v}"
            )
        p = _unit(rng, sphere_samples, 3)
        only_inner = (p @ v_prime > 1.0) & ~(p @ v > 1.0)
        if only_inner.any():
            bad = p[only_inner][0]
            return LemmaResult(
                "cap_containment", False, f"point {bad} only in the inner cap"
            )
    return LemmaResult("cap_containment", True)


def lemma_submultiset_monotonicity(rng, m: int = 1) -> LemmaResult:
    """A multiset verified on a cap body also verifies on any cap body built
    from a subset of its apexes, including the bare ball."""
    apexes = b3_prism_apexes(4, with_bottom=True)
    multiset = b3_capbody_directions(4, m, with_bottom=True)
    subsets = [apexes[:4], [apexes[4]], apexes[:5]]
    for sub in subsets:
        spec = CapBodySpec(dim=3, apexes=sub)
        if not validate_cap_body(spec):
            return LemmaResult("submultiset_monotonicity", False, "invalid subset")
        if not verify_mfold(spec, multiset, m).passed:
            return LemmaResult(
                "submultiset_monotonicity", False, f"failed on subset of {len(sub)}"
            )
    if not verify_mfold(Ball(3), multiset, m).passed:
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
    dirs = rng.normal(size=(samples, 3))[: samples // 2]
    lit_top = apex_illuminates(top, dirs)
    for q in ring[:2]:
        both = lit_top & apex_illuminates(q, dirs)
        if both.any():
            return LemmaResult(
                "incompatible_pairs", False, f"direction {dirs[both][0]} lights both"
            )
    return LemmaResult("incompatible_pairs", True)


def lemma_apex_cap_equivalence(rng, trials=2_000) -> LemmaResult:
    """Illuminating the apex of a single-spike body is the same as
    illuminating its whole closed cap with respect to the ball."""
    v = _random_apex(rng, trials, 3)
    u = _unit(rng, trials, 3)
    caps = [closed_cap_of_ball(a) for a in v]
    center = np.array([cap.center for cap in caps])
    radius = np.array([cap.radius for cap in caps])
    ang = np.arccos(np.clip((u * center).sum(axis=1), -1.0, 1.0))
    # max of <u, p> over the closed cap
    worst = np.cos(np.maximum(ang - radius, 0.0))
    r = np.linalg.norm(v, axis=1)
    slack = np.arcsin(1.0 / r) - np.arccos(
        np.clip((u * (-v / r[:, None])).sum(axis=1), -1.0, 1.0)
    )
    wrong = (np.abs(slack) >= 1e-6) & (apex_illuminates(v, u) != (worst < 0))
    if wrong.any():
        i = np.flatnonzero(wrong)[0]
        return LemmaResult(
            "apex_cap_equivalence", False, f"apex {v[i]} direction {u[i]}"
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
    if seed < 0:
        raise DomainError("seed must be >= 0")
    results = []
    root = np.random.SeedSequence(seed)
    for child, (name, fn) in zip(root.spawn(len(_SUITE)), _SUITE):
        rng = np.random.default_rng(child)
        try:
            results.append(fn(rng))
        except Exception as exc:  # a crashed lemma counts as a failure
            results.append(LemmaResult(name, False, f"error: {exc}"))
    return results
