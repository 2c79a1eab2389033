"""Executable ledger of the cap-body structure lemmas.

Each entry turns one structural fact about spikes, caps, and cap bodies
into a seeded randomized check: hull decomposition, spike and cap
monotonicity, transfer of apex illumination to caps and spikes, closed-cap
transfer, sub-cap-body monotonicity of verified multisets, and apex-pair
incompatibility.  Each entry draws all of its samples as numpy arrays at
once, and every test it applies runs once on whole arrays of rows:
``apex_illuminates``, ``closed_cap_of_ball``, the float spike, cone and
open-cap tests and ``_orthonormal_pair``.  Row sums and norms go through
``_column_dots``, which rounds as ``(x * y).sum(axis=-1)``.  An entry
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
    _point_in_open_cap,
    _point_in_spike,
    _point_in_spiky_hull,
    apex_illuminates,
    b3_capbody_directions,
    b3_prism_apexes,
    closed_cap_of_ball,
    incompatible_apexes,
    validate_cap_body,
)
from .errors import DomainError
from .geometry import Ball, _column_dots, verify_mfold


@dataclass
class LemmaResult:
    name: str
    passed: bool
    detail: str = ""


def _unit(rng, n, d):
    """n independent uniform unit vectors of R^d, as rows."""
    v = rng.standard_normal((n, d))
    return v / np.sqrt(_column_dots(v, v))[:, None]


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
        return s, _column_dots(s, s) > 1.0 + 1e-9

    return _redraw(v, draw)


def _random_cap_point(rng, v):
    """One sphere point strictly inside the open cap of each apex row of v."""
    r = np.sqrt(_column_dots(v, v))[:, None]
    cap_r = np.arccos(1.0 / r)
    vhat = v / r

    def draw(todo):
        ang = rng.random((len(todo), 1)) * (cap_r[todo] * 0.999)  # = uniform(0, high)
        w = rng.standard_normal((len(todo), v.shape[1]))
        axis = vhat[todo]
        w -= _column_dots(w, axis)[:, None] * axis
        nw = np.sqrt(_column_dots(w, w))[:, None]
        p = np.cos(ang) * axis + np.sin(ang) * (w / np.maximum(nw, 1e-12))
        return p, (nw[:, 0] >= 1e-12) & (_column_dots(p, v[todo]) > 1.0 + 1e-9)

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
        covered = _column_dots(x, x) <= 1.0
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
        support = _column_dots(p, v)
        clear = np.abs(support - 1.0) >= 1e-9
        v, p, lit = v[clear], p[clear], support[clear] > 1.0
        cap = _point_in_open_cap(v, p)
        cone = _point_in_cone_interior(v, p)
        wrong = (cap != lit) | (cone != lit)
        if wrong.any():
            i = np.flatnonzero(wrong)[0]
            return f"disagreement at {p[i]} apex {v[i]}"
    return None


def lemma_apex_transfer_to_cap(rng):
    """A direction illuminating the apex (aimed at an interior point) also
    illuminates every open-cap point with respect to the ball."""
    v = _random_apex(rng, 1_000, 3)
    u = _interior_ball_point(rng, 1_000, 3) - v
    u /= np.sqrt(_column_dots(u, u))[:, None]
    p = _random_cap_point(rng, np.repeat(v, 20, axis=0))
    lit = _column_dots(np.repeat(u, 20, axis=0), p) < 0
    if not lit.all():
        return f"cap point {p[~lit][0]} not lit"
    return None


def lemma_closed_cap_transfer(rng):
    """Same transfer including the tangency circle (closed cap), checked at
    24 points of each circle."""
    v = _random_apex(rng, 500, 3)
    u = _interior_ball_point(rng, 500, 3) - v
    u /= np.sqrt(_column_dots(u, u))[:, None]
    r = np.sqrt(_column_dots(v, v))[:, None, None]
    vhat = v[:, None, :] / r
    b1, b2 = _orthonormal_pair(vhat[:, 0])
    ang = 2 * np.pi * np.arange(24)[:, None] / 24
    ring = np.cos(ang) * b1[:, None, :] + np.sin(ang) * b2[:, None, :]
    p = vhat / r + np.sqrt(1.0 - 1.0 / (r * r)) * ring
    lit = _column_dots(p, u[:, None, :]) < 0
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
    outer, inner = closed_cap_of_ball(v), closed_cap_of_ball(v_prime)
    offset = np.arccos(np.clip(_column_dots(outer.center, inner.center), -1.0, 1.0))
    exceeds = offset + inner.radius > outer.radius + 1e-9
    if exceeds.any():
        i = np.flatnonzero(exceeds)[0]
        return f"cap of {v_prime[i]} exceeds cap of {v[i]}"
    p = _unit(rng, 400 * 50, 3).reshape(400, 50, 3)
    only_inner = (_column_dots(p, v_prime[:, None]) > 1.0) & ~(
        _column_dots(p, v[:, None]) > 1.0
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
    dirs = rng.standard_normal((50_000, 3))
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
    cap = closed_cap_of_ball(v)
    ang = np.arccos(np.clip(_column_dots(u, cap.center), -1.0, 1.0))
    # max of <u, p> over the closed cap
    worst = np.cos(np.maximum(ang - cap.radius, 0.0))
    r = np.sqrt(_column_dots(v, v))
    slack = np.arcsin(1.0 / r) - np.arccos(
        np.clip(_column_dots(u, -v / r[:, None]), -1.0, 1.0)
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
