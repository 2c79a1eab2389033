import math

import numpy as np
import pytest

from illum import capbody, lemmas
from illum.capbody import SphericalCap, _orthonormal_pair, b3_prism_apexes
from illum.lemmas import run_lemma_suite

EXPECTED = {
    "hull_union_equality",
    "spike_containment",
    "cap_interior_identity",
    "apex_transfer_to_cap",
    "spike_to_spike_transfer",
    "cap_containment",
    "closed_cap_transfer",
    "submultiset_monotonicity",
    "incompatible_pairs",
    "apex_cap_equivalence",
}


@pytest.mark.parametrize("seed", [0, 1, 7, 99, 20250810])
def test_suite_passes_at_fixed_seed(seed):
    results = run_lemma_suite(seed)
    assert {r.name for r in results} == EXPECTED
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_every_entry_passes_for_seeds_0_to_19():
    failed = [
        (seed, r.name, r.detail)
        for seed in range(20)
        for r in run_lemma_suite(seed)
        if not r.passed
    ]
    assert not failed


def test_suite_is_seed_deterministic():
    a = run_lemma_suite(99)
    b = run_lemma_suite(99)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def _replace(monkeypatch, name, replacement):
    """Swap ``lemmas.<name>`` for ``replacement(original, *args)`` and return
    the list of (args, result) pairs the swapped-in function saw."""
    original = getattr(lemmas, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = replacement(original, *args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(lemmas, name, wrapper)
    return calls


def _record(monkeypatch, name):
    return _replace(monkeypatch, name, lambda f, *a, **k: f(*a, **k))


def _run_entry(name):
    """The failure detail of one entry at a fixed seed; it must fail."""
    detail = dict(lemmas._SUITE)[name](np.random.default_rng(3))
    assert isinstance(detail, str) and detail
    return detail


def test_results_take_their_names_from_the_suite(monkeypatch):
    def crash(rng):
        raise ValueError("boom")

    suite = [
        ("holds", lambda rng: None), ("fails", lambda rng: "why"), ("crashes", crash)
    ]
    monkeypatch.setattr(lemmas, "_SUITE", suite)
    got = [(r.name, r.passed, r.detail) for r in run_lemma_suite(0)]
    assert got == [("holds", True, ""), ("fails", False, "why"),
                   ("crashes", False, "error: boom")]


class TestBatchedEntriesCatchFailures:
    """Each entry evaluated on sample arrays still fails, and names the first
    offending sample, when the test it relies on is made wrong."""

    def test_hull_union_with_empty_spikes(self, monkeypatch):
        calls = _replace(
            monkeypatch, "_point_in_spike", lambda f, v, p: np.zeros(len(p), dtype=bool)
        )
        detail = _run_entry("hull_union_equality")
        x = calls[0][0][1]
        first = x[(x * x).sum(axis=1) > 1.0][0]
        assert detail == f"point {first} escaped all spikes"

    def test_spike_containment_with_the_bare_ball(self, monkeypatch):
        calls = _replace(
            monkeypatch, "_point_in_spiky_hull",
            lambda f, v, p: (p * p).sum(axis=1) <= 1.0,
        )
        detail = _run_entry("spike_containment")
        y = calls[0][0][1]
        first = y[(y * y).sum(axis=1) > 1.0][0]
        assert detail == f"{first} left the outer spiky body"

    def test_apex_transfer_with_antipodal_cap_points(self, monkeypatch):
        calls = _replace(monkeypatch, "_random_cap_point", lambda f, rng, v: -f(rng, v))
        detail = _run_entry("apex_transfer_to_cap")
        # every true cap point is lit, so every antipode is not
        assert detail == f"cap point {calls[0][1][0]} not lit"

    def test_spike_to_spike_with_flipped_apex_test(self, monkeypatch):
        calls = _replace(monkeypatch, "apex_illuminates", lambda f, v, u: ~f(v, u))
        detail = _run_entry("spike_to_spike_transfer")
        s, u = calls[0][0]
        first = s[capbody.apex_illuminates(s, u)][0]
        assert detail == f"spike point {first} not lit"

    def test_cap_interior_identity_with_negated_cone_test(self, monkeypatch):
        calls = _replace(
            monkeypatch, "_point_in_cone_interior", lambda f, v, p: ~f(v, p)
        )
        detail = _run_entry("cap_interior_identity")
        # the true test agrees with <p, v> > 1 on every row, so row 0 offends
        v, p = calls[0][0]
        assert detail == f"disagreement at {p[0]} apex {v[0]}"

    def test_cap_interior_identity_with_negated_open_cap(self, monkeypatch):
        calls = _replace(monkeypatch, "_point_in_open_cap", lambda f, v, p: ~f(v, p))
        detail = _run_entry("cap_interior_identity")
        # one row call per dimension; every row disagrees, so row 0 offends
        (v, p), cap = calls[0]
        assert v.shape == p.shape and v.shape[0] > 1 and cap.shape == v.shape[:1]
        assert detail == f"disagreement at {p[0]} apex {v[0]}"

    def test_cap_containment_with_apex_beyond_the_spike(self, monkeypatch):
        apexes = _record(monkeypatch, "_random_apex")
        units = _record(monkeypatch, "_unit")
        _replace(monkeypatch, "_random_spike_point",
                 lambda f, rng, v, beta_min=0.0: 1.5 * v)
        # point caps pass the radius comparison, leaving the sphere check
        caps = _replace(
            monkeypatch, "closed_cap_of_ball",
            lambda f, v: SphericalCap(np.tile((0.0, 0.0, 1.0), (len(v), 1)),
                                      np.zeros(len(v))),
        )
        detail = _run_entry("cap_containment")
        [(_, v)] = apexes
        # one row call for the outer caps and one for the inner ones
        assert [args[0].shape for args, _ in caps] == [v.shape, v.shape]
        spheres = units[-1][1]
        assert spheres.shape == (len(v) * 50, 3)
        for a, p in zip(v, spheres.reshape(len(v), 50, 3)):
            band = (p @ (1.5 * a) > 1.0) & ~(p @ a > 1.0)
            if band.any():
                break
        assert band.any()
        assert detail == f"point {p[band][0]} only in the inner cap"

    def test_closed_cap_transfer_with_direction_away_from_ball(self, monkeypatch):
        apexes = _record(monkeypatch, "_random_apex")
        # u = 2v - v points away from the ball, so no tangency point is lit
        _replace(monkeypatch, "_interior_ball_point",
                 lambda f, rng, n, d: 2 * apexes[-1][1])
        detail = _run_entry("closed_cap_transfer")
        v = apexes[0][1][0]
        r = float(np.linalg.norm(v))
        b1, _ = _orthonormal_pair(v / r)
        first = v / r / r + math.sqrt(1.0 - 1.0 / (r * r)) * b1
        assert detail == f"tangency point {first} not lit"

    def test_incompatible_pairs_with_half_space_test(self, monkeypatch):
        calls = _replace(
            monkeypatch, "apex_illuminates",
            lambda f, v, u: u @ -np.asarray(v, dtype=float) > 0,
        )
        detail = _run_entry("incompatible_pairs")
        dirs = calls[0][0][1]
        apexes = b3_prism_apexes(5)
        top, ring0 = np.asarray(apexes[-1]), np.asarray(apexes[0])
        both = (dirs @ -top > 0) & (dirs @ -ring0 > 0)
        assert detail == f"direction {dirs[both][0]} lights both"

    def test_apex_cap_equivalence_with_flipped_apex_test(self, monkeypatch):
        calls = _replace(monkeypatch, "apex_illuminates", lambda f, v, u: ~f(v, u))
        detail = _run_entry("apex_cap_equivalence")
        v, u = calls[0][0]
        # the entry skips pairs within 1e-6 of the cone boundary
        r = np.linalg.norm(v, axis=1)
        to_axis = np.arccos(np.clip((u * -v).sum(axis=1) / r, -1.0, 1.0))
        i = np.flatnonzero(np.abs(np.arcsin(1.0 / r) - to_axis) >= 1e-6)[0]
        assert detail == f"apex {v[i]} direction {u[i]}"
