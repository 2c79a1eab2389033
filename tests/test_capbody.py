import math
from fractions import Fraction

import numpy as np
import pytest

from illum.capbody import (
    CapBodySpec,
    SphericalCap,
    _point_in_spike,
    _point_in_spiky_hull,
    _slot_multiplicities,
    apex_illuminates,
    b2_single_spike_directions,
    b3_capbody_directions,
    b3_prism_apexes,
    cap_body_number_top_bottom,
    cap_body_number_top_only,
    closed_cap_of_ball,
    in_open_cap,
    in_spike,
    incompatible_apexes,
    validate_cap_body,
)
from illum.errors import ConstructionFailure, DomainError, PreconditionViolation
from illum.geometry import Tolerance, verify_mfold
from illum.polygons import regular_polygon_number

SQRT2 = math.sqrt(2)


def hull_membership_oracle(v, p, steps=4001):
    """Is p in conv(ball + v)?  Scan the mixing weight directly."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    betas = np.linspace(0.0, 1.0, steps)[:-1]
    # p = (1-b) t + b v with |t| <= 1  <=>  |p - b v| <= 1 - b
    return bool(
        (np.linalg.norm(p[None, :] - betas[:, None] * v[None, :], axis=1)
         <= 1.0 - betas + 1e-12).any()
    ) or bool(np.allclose(p, v))


class TestValidity:
    def test_octahedron_apexes_valid(self):
        spec = CapBodySpec(
            3,
            [
                (SQRT2, 0, 0), (-SQRT2, 0, 0),
                (0, SQRT2, 0), (0, -SQRT2, 0),
                (0, 0, SQRT2), (0, 0, -SQRT2),
            ],
        )
        assert validate_cap_body(spec)

    def test_two_nearby_apexes_invalid(self):
        assert not validate_cap_body(CapBodySpec(2, [(2, 0), (2.1, 0.01)]))

    def test_single_apex_valid(self):
        assert validate_cap_body(CapBodySpec(2, [(2, 0)]))

    def test_exact_rational_pair(self):
        assert validate_cap_body(CapBodySpec(2, [(2, 0), (-2, 0)]))
        assert not validate_cap_body(CapBodySpec(2, [(2, 0), (2, 1)]))

    def test_apex_inside_rejected(self):
        with pytest.raises(PreconditionViolation):
            CapBodySpec(2, [(Fraction(1, 2), 0)])


class TestSpike:
    def test_point_on_axis_segment(self):
        spec = CapBodySpec(2, [(2, 0)])
        assert in_spike(spec, (1.5, 0))
        assert in_spike(spec, (Fraction(3, 2), 0))

    def test_ball_point_not_in_spike(self):
        assert not in_spike(CapBodySpec(2, [(2, 0)]), (0, 0))

    def test_outside_cone(self):
        spec = CapBodySpec(2, [(2, 0)])
        assert not in_spike(spec, (1.5, 0.6))
        # independent hull-scan oracle agrees on both verdicts
        assert not hull_membership_oracle((2, 0), (1.5, 0.6))
        assert hull_membership_oracle((2, 0), (1.5, 0.0))

    def test_spike_matches_oracle_on_random_points(self):
        rng = np.random.default_rng(31)
        v = np.array([1.7, -0.6, 0.4])
        for _ in range(300):
            p = rng.uniform(-1.2, 2.0, size=3)
            got = in_spike(CapBodySpec(3, [tuple(v)]), tuple(p))
            want = hull_membership_oracle(v, p) and p @ p > 1.0
            if abs(np.linalg.norm(p) - 1.0) < 1e-6:
                continue
            assert got == want, p

    def test_multi_apex_rejected(self):
        with pytest.raises(PreconditionViolation):
            in_spike(CapBodySpec(2, [(2, 0), (-2, 0)]), (1.5, 0))


class TestRowPredicates:
    """On (N, d) rows, apex_illuminates and the float spike tests give row by
    row the answer of the one-point call; random rows also match the exact
    rational spike test."""

    N = 200

    @classmethod
    def rows(cls):
        rng = np.random.default_rng(12)
        n = cls.N
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= rng.uniform(1.05, 3.0, size=(n, 1))
        r = np.linalg.norm(v, axis=1, keepdims=True)
        vhat = v / r
        w = rng.normal(size=(n, 3))
        w -= (w * vhat).sum(axis=1, keepdims=True) * vhat
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        touch = vhat / r + np.sqrt(1.0 - 1.0 / (r * r)) * w
        t = rng.uniform(size=(n, 1))
        sphere = rng.normal(size=(n, 3))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        points = np.concatenate([
            v * t + 0.5 * rng.normal(size=(n, 3)),  # random, near the spike
            touch + t * (v - touch),               # on the tangent cone
            sphere,                                # on the sphere
            vhat / r + 2 * t * w,                  # on the tangency plane
            v,                                     # the apex itself
        ])
        dirs = np.concatenate([
            rng.normal(size=(n, 3)),               # random
            touch - v,                             # along the cone boundary
            -v,                                    # along the axis
            v - touch,                             # out of the cone
            sphere,
        ])
        return np.tile(v, (5, 1)), points, dirs

    def test_apex_illuminates_rows(self):
        apexes, _, dirs = self.rows()
        got = apex_illuminates(apexes, dirs)
        assert got.dtype == bool and got.shape == (len(dirs),)
        assert got.tolist() == [apex_illuminates(a, u) for a, u in zip(apexes, dirs)]
        assert 0 < got.sum() < len(got)
        one = apex_illuminates(apexes[0], dirs)
        assert one.tolist() == [apex_illuminates(apexes[0], u) for u in dirs]
        assert type(apex_illuminates(apexes[0], dirs[0])) is bool

    @pytest.mark.parametrize("test", [_point_in_spike, _point_in_spiky_hull])
    def test_spike_rows(self, test):
        apexes, points, _ = self.rows()
        got = test(apexes, points)
        assert got.dtype == bool and got.shape == (len(points),)
        assert got.tolist() == [test(a, p) for a, p in zip(apexes, points)]
        assert 0 < got.sum() < len(got)
        one = test(apexes[0], points)
        assert one.tolist() == [test(apexes[0], p) for p in points]
        assert type(test(apexes[0], points[0])) is bool

    @pytest.mark.parametrize("test", [_point_in_spike, _point_in_spiky_hull])
    def test_random_rows_match_exact_test(self, test):
        apexes, points, _ = self.rows()
        apexes, points = apexes[: self.N], points[: self.N]
        exact = [
            test(tuple(map(Fraction, a)), tuple(map(Fraction, p)))
            for a, p in zip(apexes, points)
        ]
        assert test(apexes, points).tolist() == exact


class TestOpenCap:
    def test_deepest_point(self):
        assert in_open_cap(CapBodySpec(3, [(SQRT2, 0, 0)]), (1, 0, 0))

    def test_tangency_circle_excluded(self):
        p = (1 / SQRT2, 1 / SQRT2, 0)
        assert not in_open_cap(CapBodySpec(3, [(SQRT2, 0, 0)]), p)

    def test_antipode_excluded(self):
        assert not in_open_cap(CapBodySpec(3, [(SQRT2, 0, 0)]), (-1, 0, 0))

    def test_off_sphere_rejected(self):
        with pytest.raises(PreconditionViolation):
            in_open_cap(CapBodySpec(3, [(SQRT2, 0, 0)]), (0.5, 0, 0))


class TestClosedCap:
    def test_sqrt2_apex_radius_quarter_pi(self):
        cap = closed_cap_of_ball((SQRT2, 0, 0))
        assert abs(cap.radius - math.pi / 4) < 1e-12

    def test_radius_matches_tangency_oracle(self):
        # tangent point of the apex at distance 2 satisfies <p, v> = 1,
        # giving polar angle arccos(1/2)
        cap = closed_cap_of_ball((2, 0, 0))
        assert abs(cap.radius - math.acos(1 / 2)) < 1e-12

    def test_radius_shrinks_to_zero(self):
        cap = closed_cap_of_ball((1 + 1e-9, 0, 0))
        assert cap.radius < 1e-4

    def test_inside_apex_rejected(self):
        with pytest.raises(DomainError):
            closed_cap_of_ball((0.5, 0, 0))

    def test_cap_type_invariants(self):
        with pytest.raises(DomainError):
            SphericalCap(center=(1, 0, 0), radius=math.pi / 2)
        with pytest.raises(DomainError):
            SphericalCap(center=(2, 0, 0), radius=0.3)


class TestIncompatibility:
    def test_orthogonal_sqrt2_apexes(self):
        assert incompatible_apexes((SQRT2, 0, 0), (0, SQRT2, 0))

    def test_tiny_caps_compatible(self):
        assert not incompatible_apexes((1.01, 0, 0), (0, 1.01, 0))

    def test_prism_pole_against_ring(self):
        for n in (4, 5, 6):
            apexes = b3_prism_apexes(n)
            top, ring0 = apexes[-1], apexes[0]
            assert incompatible_apexes(top, ring0)

    def test_antipodal_always_incompatible(self):
        assert incompatible_apexes((1.05, 0, 0), (-1.05, 0, 0))


class TestPrismApexes:
    def test_n4_with_bottom_is_octahedron(self):
        apexes = b3_prism_apexes(4, with_bottom=True)
        assert len(apexes) == 6
        for a in apexes:
            assert abs(math.sqrt(sum(c * c for c in a)) - SQRT2) < 1e-12

    def test_n3_top_only(self):
        apexes = b3_prism_apexes(3)
        assert len(apexes) == 4
        assert validate_cap_body(CapBodySpec(3, apexes))
        assert abs(apexes[-1][2] - 1 / math.cos(math.pi / 6)) < 1e-12

    def test_n5_pole_height(self):
        apexes = b3_prism_apexes(5)
        assert abs(apexes[-1][2] - 1 / math.cos(3 * math.pi / 10)) < 1e-12

    def test_validity_all_n(self):
        for n in range(3, 9):
            assert validate_cap_body(CapBodySpec(3, b3_prism_apexes(n, True)))

    def test_domain(self):
        with pytest.raises(DomainError):
            b3_prism_apexes(2)


class TestFormulas:
    def test_top_only_values(self):
        assert cap_body_number_top_only(4, 1) == 5
        assert cap_body_number_top_only(5, 2) == 7
        assert cap_body_number_top_only(3, 1) == 4

    def test_top_bottom_values(self):
        for m in (1, 2, 3):
            assert cap_body_number_top_bottom(4, m) == 6 * m
        assert cap_body_number_top_bottom(5, 2) == 9
        assert cap_body_number_top_bottom(3, 1) == 5


class TestSingleSpikeDirections:
    @pytest.mark.parametrize(
        "v,m",
        [((SQRT2, 0), 2), ((10, 0), 2), ((SQRT2, 0), 1), ((1.3, 0.8), 3)],
    )
    def test_verified(self, v, m):
        multiset = b2_single_spike_directions(v, m)
        assert multiset.total == 2 * m + 1
        spec = CapBodySpec(2, [v])
        assert verify_mfold(spec, multiset, m, Tolerance(samples=20_000)).passed

    def test_apex_inside_rejected(self):
        with pytest.raises(DomainError):
            b2_single_spike_directions((0.5, 0), 2)


class TestCapBodyDirections:
    @pytest.mark.parametrize(
        "n,m,with_bottom",
        [(4, 1, True), (5, 2, False), (3, 1, False)]
        + [(n, m, b) for n in (9, 11, 13) for m in (1, 2, 3) for b in (False, True)],
    )
    def test_construction_verifies_and_matches_formula(self, n, m, with_bottom):
        tol = Tolerance(samples=50_000)
        multiset = b3_capbody_directions(n, m, with_bottom=with_bottom, tol=tol)
        want = (
            cap_body_number_top_bottom(n, m)
            if with_bottom
            else cap_body_number_top_only(n, m)
        )
        assert multiset.total == want
        spec = CapBodySpec(3, apexes=b3_prism_apexes(n, with_bottom))
        assert verify_mfold(spec, multiset, m, tol).passed

    def test_slot_multiplicities_cover_every_window(self):
        for n in range(3, 41):
            h = (n - 1) // 2
            for m in range(1, 7):
                mults = _slot_multiplicities(n, m)
                assert len(mults) == n and min(mults) >= 0
                assert sum(mults) == regular_polygon_number(n, m)
                windows = [
                    sum(mults[(k + j) % n] for j in range(h)) for k in range(n)
                ]
                assert min(windows) >= m, (n, m)

    @pytest.mark.parametrize(
        "n,m,with_bottom", [(4, 1, True), (5, 2, False), (9, 3, True), (12, 2, False)]
    )
    def test_one_planar_copy_fewer_fails(self, n, m, with_bottom):
        from illum.geometry import DirectionMultiset

        entries = list(b3_capbody_directions(n, m, with_bottom=with_bottom))
        first, mult = entries[0]
        assert first.unit()[2] > 0  # a tilted ring slot, not a pole direction
        short = DirectionMultiset(
            entries[1:] if mult == 1 else [(first, mult - 1)] + entries[1:]
        )
        spec = CapBodySpec(3, apexes=b3_prism_apexes(n, with_bottom))
        assert not verify_mfold(spec, short, m).passed

    def test_failed_check_raises(self, monkeypatch):
        from illum import capbody

        monkeypatch.setattr(capbody, "_slot_multiplicities", lambda n, m: [0] * n)
        with pytest.raises(ConstructionFailure) as info:
            b3_capbody_directions(5, 1)
        assert not info.value.report.passed

    def test_invalid_cap_body_rejected_by_verifier(self):
        from illum.geometry import DirectionMultiset

        spec = CapBodySpec(2, [(2, 0), (2.1, 0.01)])
        dirs = DirectionMultiset.from_vectors([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(PreconditionViolation):
            verify_mfold(spec, dirs, 1, Tolerance(samples=1000))

    def test_apex_predicate_consistency(self):
        # straight down lights the top apex, not the ring
        apexes = b3_prism_apexes(4)
        assert apex_illuminates(apexes[-1], (0, 0, -1))
        assert not apex_illuminates(apexes[0], (0, 0, -1))


class TestMultiApexDisk:
    """Two opposite spikes on the disk: verification works beyond the
    single-spike constructions (no optimality claim, just verdicts)."""

    SPEC = CapBodySpec(2, [(2, 0), (-2, 0)])

    def test_valid_and_incompatible_pair(self):
        assert validate_cap_body(self.SPEC)
        assert incompatible_apexes((2, 0), (-2, 0))

    def test_three_directions_suffice_for_onefold(self):
        from illum.geometry import DirectionMultiset

        dirs = DirectionMultiset.from_vectors(
            [(-1.0, 0.05), (1.0, 0.05), (0.0, -1.0)]
        )
        report = verify_mfold(self.SPEC, dirs, 1, Tolerance(samples=20_000))
        assert report.passed

    def test_axis_pairs_fail_each_apex_needs_its_own(self):
        from illum.geometry import DirectionMultiset

        # both horizontal directions light one apex each, but nothing covers
        # the poles twice for m=2
        dirs = DirectionMultiset.from_vectors(
            [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)]
        )
        assert verify_mfold(self.SPEC, dirs, 1, Tolerance(samples=20_000)).passed
        assert not verify_mfold(self.SPEC, dirs, 2, Tolerance(samples=20_000)).passed
