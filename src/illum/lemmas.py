"""Executable ledger of the cap-body structure lemmas.

Each entry turns one structural fact about spikes, caps, and cap bodies
into a seeded randomized check: hull decomposition, spike and cap
monotonicity, transfer of apex illumination to caps and spikes, closed-cap
transfer, sub-cap-body monotonicity of verified multisets, and apex-pair
incompatibility.  Each entry draws all of its samples as numpy arrays at
once.  ``apex_illuminates``, the float spike and cone tests and
``_orthonormal_pair`` run on whole arrays of rows; ``in_open_cap`` and
``closed_cap_of_ball`` take one apex, so they run once per row.  An entry
returns the detail of its failure, naming the first offending sample, or
None when the lemma holds.  The suite is deterministic given the seed.
"""

from __future__ import annotations

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


def _interior_ball_point(rng, n, d):
    return _unit(rng, n, d) * 0.98 * rng.uniform(size=(n, 1)) ** (1.0 / d)


def _random_apex(rng, n, d, rmin=1.05):
    return _unit(rng, n, d) * rng.uniform(rmin, 3.0, size=(n, 1))


def _redraw(v, draw):
    """One row per apex row of v: ``draw(todo)`` proposes rows for the apex
    indices ``todo`` with a mask of those to keep, and only the rejected
    rows are drawn again."""
    out = np.empty_like(v)
    todo = np.arange(len(v))
    for _ in range(10_000):
        rows, kept = draw(todo)
        out[todo[kept]] = rows[kept]
        todo = todo[~kept]
        if not len(todo):
            return out
    raise RuntimeError("rejection sampling failed")


def _random_spike_point(rng, v, beta_min=0.0):
    """One point of the spike of each apex row of v, off the ball."""

    def draw(todo):
        b = _interior_ball_point(rng, len(todo), v.shape[1])
        beta = rng.uniform(beta_min, 1.0, size=(len(todo), 1))
        s = (1 - beta) * b + beta * v[todo]
        return s, (s * s).sum(axis=1) > 1.0 + 1e-9

    return _redraw(v, draw)


def _random_cap_point(rng, v):
    """One sphere point strictly inside the open cap of each apex row of v."""
    r = np.linalg.norm(v, axis=1, keepdims=True)
    cap_r = np.arccos(1.0 / r)
    vhat = v / r

    def draw(todo):
        ang = rng.uniform(0.0, cap_r[todo] * 0.999)
        w = rng.normal(size=(len(todo), v.shape[1]))
        axis = vhat[todo]
        w -= (w * axis).sum(axis=1, keepdims=True) * axis
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        p = np.cos(ang) * axis + np.sin(ang) * (w / np.maximum(nw, 1e-12))
        return p, (nw[:, 0] >= 1e-12) & ((p * v[todo]).sum(axis=1) > 1.0 + 1e-9)

    return _redraw(v, draw)


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


def lemma_hull_union_equality(rng):
    """Convex combinations of ball points and apexes of a valid cap body
    always land in some single-apex hull."""
    apex_sets = [
        b3_prism_apexes(3),
        b3_prism_apexes(4, with_bottom=True),
        [tuple(v) for v in _valid_random_pair(rng, 3)],
        [tuple(v) for v in _valid_random_pair(rng, 2)],
    ]
    for apexes in apex_sets:
        d = len(apexes[0])
        spec = CapBodySpec(dim=d, apexes=apexes)
        if not validate_cap_body(spec):
            return "invalid test spec"
        arr = spec.apex_array()
        weights = rng.dirichlet(np.ones(len(arr) + 1), size=2_500)
        x = weights[:, :1] * _interior_ball_point(rng, 2_500, d) + weights[:, 1:] @ arr
        covered = (x * x).sum(axis=1) <= 1.0
        for v in arr:
            covered |= _point_in_spike(v, x)
        if not covered.all():
            return f"point {x[~covered][0]} escaped all spikes"
    return None


def lemma_spike_containment(rng):
    """An apex inside a spike spans a smaller spiky body."""
    v = _random_apex(rng, 40, 3, rmin=1.3)
    v_prime = np.repeat(_random_spike_point(rng, v, beta_min=0.2), 25, axis=0)
    v = np.repeat(v, 25, axis=0)
    b = _interior_ball_point(rng, 1_000, 3)
    beta = rng.uniform(size=(1_000, 1))
    y = (1 - beta) * b + beta * v_prime
    inside = _point_in_spiky_hull(v, y)
    if not inside.all():
        return f"{y[~inside][0]} left the outer spiky body"
    return None


def lemma_cap_interior_identity(rng):
    """Open cap membership, the support test <p,v> > 1, and interior
    membership off the ball agree on sphere points (70% of them in 3-D)."""
    n3 = rng.binomial(1_000, 0.7)
    for d, n in ((3, n3), (2, 1_000 - n3)):
        v = _random_apex(rng, n, d)
        p = _unit(rng, n, d)
        support = (p * v).sum(axis=1)
        clear = np.abs(support - 1.0) >= 1e-9
        v, p, lit = v[clear], p[clear], support[clear] > 1.0
        cap = [in_open_cap(CapBodySpec(d, [tuple(a)]), tuple(q)) for a, q in zip(v, p)]
        cone = _point_in_cone_interior(v, p)
        wrong = (np.array(cap, dtype=bool) != lit) | (cone != lit)
        if wrong.any():
            i = np.flatnonzero(wrong)[0]
            return f"disagreement at {p[i]} apex {v[i]}"
    return None


def lemma_apex_transfer_to_cap(rng):
    """A direction illuminating the apex (aimed at an interior point) also
    illuminates every open-cap point with respect to the ball."""
    v = _random_apex(rng, 1_000, 3)
    u = _interior_ball_point(rng, 1_000, 3) - v
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = _random_cap_point(rng, np.repeat(v, 20, axis=0))
    lit = (np.repeat(u, 20, axis=0) * p).sum(axis=1) < 0
    if not lit.all():
        return f"cap point {p[~lit][0]} not lit"
    return None


def lemma_closed_cap_transfer(rng):
    """Same transfer including the tangency circle (closed cap), checked at
    24 points of each circle."""
    v = _random_apex(rng, 500, 3)
    u = _interior_ball_point(rng, 500, 3) - v
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = np.linalg.norm(v, axis=1)[:, None, None]
    vhat = v[:, None, :] / r
    b1, b2 = _orthonormal_pair(vhat[:, 0])
    ang = 2 * np.pi * np.arange(24)[:, None] / 24
    ring = np.cos(ang) * b1[:, None, :] + np.sin(ang) * b2[:, None, :]
    p = vhat / r + np.sqrt(1.0 - 1.0 / (r * r)) * ring
    lit = (p * u[:, None, :]).sum(axis=2) < 0
    if not lit.all():
        return f"tangency point {p[~lit][0]} not lit"
    return None


def lemma_spike_to_spike_transfer(rng):
    """A direction illuminating apex v transfers to every spike point s as
    an illuminating direction of the spiky body with apex s."""
    v = _random_apex(rng, 1_000, 3, rmin=1.2)
    u = _interior_ball_point(rng, 1_000, 3) - v
    s = _random_spike_point(rng, v)
    lit = apex_illuminates(s, u)
    if not lit.all():
        return f"spike point {s[~lit][0]} not lit"
    return None


def lemma_cap_containment(rng):
    """An apex inside a spike has a smaller cap, both as a spherical cap
    (center offset plus radius) and pointwise at 50 sphere points each."""
    v = _random_apex(rng, 400, 3, rmin=1.3)
    v_prime = _random_spike_point(rng, v, beta_min=0.3)
    outer = [closed_cap_of_ball(a) for a in v]
    inner = [closed_cap_of_ball(a) for a in v_prime]
    cos_offset = [np.asarray(a.center) @ b.center for a, b in zip(outer, inner)]
    offset = np.arccos(np.clip(cos_offset, -1.0, 1.0))
    radii = np.array([(a.radius, b.radius) for a, b in zip(outer, inner)])
    exceeds = offset + radii[:, 1] > radii[:, 0] + 1e-9
    if exceeds.any():
        i = np.flatnonzero(exceeds)[0]
        return f"cap of {v_prime[i]} exceeds cap of {v[i]}"
    p = _unit(rng, 400 * 50, 3).reshape(400, 50, 3)
    only_inner = ((p * v_prime[:, None]).sum(axis=2) > 1.0) & ~(
        (p * v[:, None]).sum(axis=2) > 1.0
    )
    if only_inner.any():
        return f"point {p[only_inner][0]} only in the inner cap"
    return None


def lemma_submultiset_monotonicity(rng):
    """A multiset verified on a cap body also verifies (m = 1) on any cap
    body built from a subset of its apexes, including the bare ball."""
    apexes = b3_prism_apexes(4, with_bottom=True)
    multiset = b3_capbody_directions(4, 1, with_bottom=True)
    for sub in (apexes[:4], [apexes[4]], apexes[:5]):
        spec = CapBodySpec(dim=3, apexes=sub)
        if not validate_cap_body(spec):
            return "invalid subset"
        if not verify_mfold(spec, multiset, 1).passed:
            return f"failed on subset of {len(sub)}"
    if not verify_mfold(Ball(3), multiset, 1).passed:
        return "failed on the ball"
    return None


def lemma_incompatible_pairs(rng):
    """Apexes whose closed caps have radius sum >= pi/2 (here: prism ring
    and pole, radius sum exactly pi/2) are never lit by one direction."""
    apexes = [np.asarray(a) for a in b3_prism_apexes(5)]
    top, ring = apexes[-1], apexes[:-1]
    if not all(incompatible_apexes(top, q) for q in ring):
        return "criterion rejected a prism pair"
    dirs = rng.normal(size=(50_000, 3))
    lit_top = apex_illuminates(top, dirs)
    for q in ring[:2]:
        both = lit_top & apex_illuminates(q, dirs)
        if both.any():
            return f"direction {dirs[both][0]} lights both"
    return None


def lemma_apex_cap_equivalence(rng):
    """Illuminating the apex of a single-spike body is the same as
    illuminating its whole closed cap with respect to the ball."""
    v = _random_apex(rng, 2_000, 3)
    u = _unit(rng, 2_000, 3)
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
        return f"apex {v[i]} direction {u[i]}"
    return None


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
    """Run every ledger entry with an independent child seed; an entry
    returns its failure detail, or None when the lemma holds."""
    if seed < 0:
        raise DomainError("seed must be >= 0")
    results = []
    root = np.random.SeedSequence(seed)
    for child, (name, fn) in zip(root.spawn(len(_SUITE)), _SUITE):
        try:
            detail = fn(np.random.default_rng(child))
        except Exception as exc:  # a crashed lemma counts as a failure
            detail = f"error: {exc}"
        results.append(LemmaResult(name, detail is None, detail or ""))
    return results
