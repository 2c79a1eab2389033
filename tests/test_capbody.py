import json
import math
from fractions import Fraction

import numpy as np
import pytest

from illum.capbody import (
    CapBodySpec,
    SphericalCap,
    _orthonormal_pair,
    _point_in_cone_interior,
    _point_in_open_cap,
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
from illum.geometry import (
    DirectionMultiset,
    SampleSet,
    Tolerance,
    _apex_counts,
    _apex_lit_exact,
    _cap_body_planes,
    _cap_body_vertices,
    _exact_pair,
    dot,
    frac_vec,
    _row_signs,
    _vertex_counts,
    sphere_sample,
    verify_mfold,
)
from illum.jsonio import capbody_from_json, multiset_from_json
from illum.polygons import regular_polygon_number

from conftest import isolated_circle_cap_body, sampled_report

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

    def test_mixed_rational_and_float_apexes(self):
        # the rational pair is checked exactly, the pairs with a float apex
        # in float: (2, 0) to (0, 1.5) passes at distance 1.2
        assert not validate_cap_body(CapBodySpec(2, [(2, 0), (-2, 0), (0.0, 1.5)]))
        assert validate_cap_body(CapBodySpec(2, [(2, 0), (-2, 0), (0.0, -1.1)]))

    def test_float_rows_match_one_pair_at_a_time(self):
        from illum.geometry import _segment_origin_distance_sq

        rng = np.random.default_rng(9)
        for dim in (2, 3):
            a, b = rng.normal(size=(2, 300, dim)) * 3
            b[::7] = a[::7]  # degenerate segments
            b[1::5] = 40 * a[1::5]  # far sources: the clamp binds
            rows = _segment_origin_distance_sq(a, b)
            assert rows.tolist() == [
                float(_segment_origin_distance_sq(tuple(x), tuple(y)))
                for x, y in zip(a.tolist(), b.tolist())
            ]

    def test_apex_inside_rejected(self):
        with pytest.raises(PreconditionViolation):
            CapBodySpec(2, [(Fraction(1, 2), 0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_apex_rejected(self, value):
        # NaN passed the outside-the-ball test and failed later in the
        # exact verifier with a bare ValueError
        with pytest.raises(DomainError, match="finite"):
            CapBodySpec(3, [(2.0, 0.0, 0.0), (0.0, np.float64(value), 0.0)])

    def test_finite_apex_with_overflowing_norm_accepted(self):
        # each square is finite, their sum is inf: the apex is far outside
        apex = (1e154, 1e154, 1e154)
        assert CapBodySpec(3, [apex]).apexes == [apex]

    def test_no_float_pairs_give_no_rows(self):
        from illum.geometry import _segment_origin_distance_sq

        rows = _segment_origin_distance_sq(np.zeros((0, 3)), np.zeros((0, 3)))
        assert isinstance(rows, np.ndarray) and rows.shape == (0,)
        assert rows.dtype == np.float64
        assert validate_cap_body(CapBodySpec(3, [(2, 0, 0), (-2, 0, 0)]))


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

    @pytest.mark.parametrize(
        "test", [_point_in_spike, _point_in_spiky_hull, _point_in_cone_interior]
    )
    def test_spike_rows(self, test):
        apexes, points, _ = self.rows()
        got = test(apexes, points)
        assert got.dtype == bool and got.shape == (len(points),)
        assert got.tolist() == [test(a, p) for a, p in zip(apexes, points)]
        assert 0 < got.sum() < len(got)
        one = test(apexes[0], points)
        assert one.tolist() == [test(apexes[0], p) for p in points]
        assert type(test(apexes[0], points[0])) is bool

    def test_orthonormal_pair_rows(self):
        apexes, _, _ = self.rows()
        poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.6, 0.8]]
        vhat = np.concatenate([apexes / np.linalg.norm(apexes, axis=1)[:, None], poles])
        b1, b2 = _orthonormal_pair(vhat)
        assert b1.shape == b2.shape == vhat.shape
        for row, a, b in zip(vhat, b1, b2):
            one = _orthonormal_pair(row)
            assert (a.tolist(), b.tolist()) == (one[0].tolist(), one[1].tolist())
        frames = np.stack([vhat, b1, b2], axis=1)
        gram = frames @ frames.transpose(0, 2, 1)
        assert np.abs(gram - np.eye(3)).max() < 1e-12

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


class TestCapRows:
    """closed_cap_of_ball and the open-cap test on (N, d) rows give row by
    row the bits and verdicts of the one-apex calls."""

    @staticmethod
    def rows(d, n=300):
        rng = np.random.default_rng(40 + d)
        v = rng.normal(size=(n, d))
        v *= rng.uniform(1.001, 4.0, size=(n, 1)) / np.linalg.norm(v, axis=1)[:, None]
        # sphere points near each cap's boundary circle, on both sides
        vhat = v / np.linalg.norm(v, axis=1)[:, None]
        p = vhat / np.linalg.norm(v, axis=1)[:, None] + 0.3 * rng.normal(size=(n, d))
        p /= np.linalg.norm(p, axis=1)[:, None]
        return v, p

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_cap_rows_match_one_apex(self, d):
        v, _ = self.rows(d)
        caps = closed_cap_of_ball(v)
        assert caps.center.shape == v.shape and caps.radius.shape == (len(v),)
        for a, center, radius in zip(v.tolist(), caps.center.tolist(), caps.radius):
            one = closed_cap_of_ball(a)
            assert (list(one.center), one.radius) == (center, radius)
            # libm's acos of 1/|v| with |v| summed in column order
            r = math.sqrt(sum(c * c for c in a))
            assert (one.center, one.radius) == (tuple(c / r for c in a), math.acos(1 / r))

    @pytest.mark.parametrize("d", [2, 3])
    def test_open_cap_rows_match_one_apex(self, d):
        v, p = self.rows(d)
        got = _point_in_open_cap(v, p)
        assert got.dtype == bool and got.shape == (len(v),)
        assert 0 < got.sum() < len(got)
        one = [in_open_cap(CapBodySpec(d, [tuple(a)]), tuple(q)) for a, q in zip(v, p)]
        assert got.tolist() == one
        exact = [dot(frac_vec(q), frac_vec(a)) > 1 for a, q in zip(v, p)]
        assert got.tolist() == exact

    def test_one_bad_row_raises(self):
        v, p = self.rows(3)
        inside = v.copy()
        inside[7] = (0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            closed_cap_of_ball(inside)
        off = p.copy()
        off[3] *= 1.01
        with pytest.raises(PreconditionViolation):
            _point_in_open_cap(v, off)


class TestApexTestNonUnitDirections:
    """The apex test reads a float direction as its exact rational, whose
    |u| is 1 only to a few ulps; its verdict must not depend on |u|."""

    V = (0.0, 0.0, 2.0)

    @staticmethod
    def lit_reference(u, v):
        """-<u, v> > |u| sqrt(|v|^2 - 1) in exact arithmetic."""
        u, v = frac_vec(u), frac_vec(v)
        a = -dot(u, v)
        return a > 0 and a * a > dot(u, u) * (dot(v, v) - 1)

    def test_rows_a_few_ulps_off_the_unit_sphere(self):
        s, c = math.sin(math.radians(30)), math.cos(math.radians(30))
        units = [(s + k * 2.0**-53, 0.0, -c) for k in range(-40, 41)]
        want = [self.lit_reference(u, self.V) for u in units]
        # |u|^2 - 1 >= 3.3e-16 from k = 2 on tips these rows out of the cone
        assert want == [k < 2 for k in range(-40, 41)]
        assert [_apex_lit_exact(u, self.V, 0.0) for u in units] == want
        apexes, one = np.asarray([self.V]), np.ones(1, dtype=np.int64)
        counts = [_apex_counts(apexes, np.asarray([u]), one, 0.0)[0] for u in units]
        assert counts == [int(w) for w in want]

    def test_margin_is_taken_on_the_angle(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(400, 3)) * 1.5
        v = v[np.linalg.norm(v, axis=1) > 1.05]
        u = rng.normal(size=(len(v), 3)) - v  # aimed near the ball
        tau = 0.05
        r = np.linalg.norm(v, axis=1)
        margin = (-(u * v).sum(axis=1) / np.linalg.norm(u, axis=1) / r
                  - np.sqrt(r * r - 1.0) / r - tau)
        clear = np.abs(margin) > 1e-9
        assert 0 < (margin[clear] > 0).sum() < clear.sum()
        one = np.ones(1, dtype=np.int64)
        for a, w, m in zip(v[clear], u[clear], margin[clear]):
            lit = _apex_lit_exact(w.tolist(), a.tolist(), tau)
            assert lit == (m > 0)
            assert lit == _apex_lit_exact((4 * w).tolist(), a.tolist(), tau)
            assert _apex_counts(a[None], w[None], one, tau)[0] == int(lit)


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
        assert verify_mfold(spec, multiset, m).passed

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
        multiset = b3_capbody_directions(n, m, with_bottom=with_bottom)
        want = (
            cap_body_number_top_bottom(n, m)
            if with_bottom
            else cap_body_number_top_only(n, m)
        )
        assert multiset.total == want
        spec = CapBodySpec(3, apexes=b3_prism_apexes(n, with_bottom))
        assert verify_mfold(spec, multiset, m).passed

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

    @pytest.mark.parametrize("with_bottom", [False, True])
    def test_n100_constructs_and_verifies(self, with_bottom):
        multiset = b3_capbody_directions(100, 1, with_bottom=with_bottom)
        assert multiset.total == (
            cap_body_number_top_bottom(100, 1)
            if with_bottom
            else cap_body_number_top_only(100, 1)
        )
        spec = CapBodySpec(3, apexes=b3_prism_apexes(100, with_bottom))
        assert verify_mfold(spec, multiset, 1).passed

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
            verify_mfold(spec, dirs, 1)

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
        report = verify_mfold(self.SPEC, dirs, 1)
        assert report.passed

    def test_axis_pairs_fail_each_apex_needs_its_own(self):
        from illum.geometry import DirectionMultiset

        # both horizontal directions light one apex each, but nothing covers
        # the poles twice for m=2
        dirs = DirectionMultiset.from_vectors(
            [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)]
        )
        assert verify_mfold(self.SPEC, dirs, 1).passed
        assert not verify_mfold(self.SPEC, dirs, 2).passed


def _random_apexes(rng, count):
    """``count`` random apexes at distance 1.05..2.5 forming a valid body."""
    while True:
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        v *= rng.uniform(1.05, 2.5, size=(count, 1))
        spec = CapBodySpec(3, [tuple(float(c) for c in a) for a in v])
        if validate_cap_body(spec):
            return spec


def _region_samples(spec, n_sphere):
    """Sphere samples in the closed region R outside every open cap, and
    the apexes with their spike-cone offsets: the boundary the exact
    verifier checks, without the spike surfaces outside R."""
    apexes = spec.apex_array()
    pts = sphere_sample(spec.dim, n_sphere)
    pts = pts[(pts @ apexes.T <= 1.0).all(axis=1)]
    r = np.linalg.norm(apexes, axis=1)
    return SampleSet(
        points=np.concatenate([pts, apexes]),
        normals=np.concatenate([pts, apexes / r[:, None]]),
        offsets=np.concatenate([np.zeros(len(pts)), np.sqrt(r * r - 1.0) / r]),
    )


def _sign_with_root_reference(p, q, t):
    """Sign of p + q sqrt(t) for rationals p, q and t >= 0."""
    if t == 0 or q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if (p > 0 or (p == 0 and q > 0)) else -1
    gap = p * p - q * q * t
    return ((p > 0) - (p < 0)) if gap > 0 else ((q > 0) - (q < 0)) if gap < 0 else 0


def _exact_signs_reference(rows, pair, s, k):
    """Signs of the first k rows at a vertex from rational arithmetic: the
    vertex of planes (a1, b1), (a2, b2) is x0 + s sqrt(t) c with x0 in the
    span of a1, a2 solving the 2 x 2 Gram system, c = a1 x a2 and
    t = (1 - |x0|^2) / |c|^2."""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    (i, j) = pair
    a1, b1, a2, b2 = rows[i][:3], rows[i][3], rows[j][:3], rows[j][3]
    g11, g12, g22 = (
        sum(x * y for x, y in zip(a1, a1)),
        sum(x * y for x, y in zip(a1, a2)),
        sum(x * y for x, y in zip(a2, a2)),
    )
    det = g11 * g22 - g12 * g12
    alpha = (-b1 * g22 + b2 * g12) / det
    beta = (-b2 * g11 + b1 * g12) / det
    x0 = [alpha * x + beta * y for x, y in zip(a1, a2)]
    c = (a1[1] * a2[2] - a1[2] * a2[1], a1[2] * a2[0] - a1[0] * a2[2],
         a1[0] * a2[1] - a1[1] * a2[0])
    t = (1 - sum(x * x for x in x0)) / det
    return [
        _sign_with_root_reference(
            sum(x * y for x, y in zip(h[:3], x0)) + h[3],
            s * sum(x * y for x, y in zip(h[:3], c)),
            t,
        )
        for h in rows[:k]
    ]


def _exact_counts_reference(rows, vertices, weights):
    """In-region mask and counts of every vertex from rational arithmetic."""
    inside, counts = [], []
    for pair, s in zip(vertices[2].tolist(), vertices[3].tolist()):
        signs = _exact_signs_reference(rows, pair, s, len(weights))
        inside.append(all(g <= 0 for g, w in zip(signs, weights) if w == 0))
        counts.append(sum(int(w) for g, w in zip(signs, weights) if g < 0))
    return inside, counts


def _cap_body_check(units, mults, apexes, tau, dim=3):
    """The stages of the exact cap-body check: the integer rows (helper
    planes appended), the weights, the vertices, and the in-region mask,
    counts and recomputed signs of every vertex."""
    rows, frows, weights = _cap_body_planes(
        np.asarray(units, dtype=float).reshape(-1, dim), np.asarray(mults),
        np.asarray(apexes, dtype=float).reshape(-1, dim), tau,
    )
    exact = {}
    vertices, rows = _cap_body_vertices(rows, frows, dim, exact)
    inside, counts, recomputed = _vertex_counts(rows, frows, weights, vertices, exact)
    return rows, frows, weights, vertices, inside, counts, recomputed


#: rational unit vectors (x, y, z) / q with a coordinate that is a power of
#: two, so that rows through them can be solved in binary floats
RATIONAL_POINTS = [
    (3, 4, 0, 5), (3, 0, 4, 5), (2, 1, 2, 3), (1, 2, 2, 3),
    (2, 3, 6, 7), (6, 2, 3, 7), (1, 4, 8, 9), (4, 4, 7, 9),
]


def _row_through(rng, point, value):
    """A dyadic row a with <a, p> = value exactly at p = point[:3] / point[3]."""
    *p, q = point
    k = next(i for i in range(3) if p[i] and p[i] & (p[i] - 1) == 0)
    a = [Fraction(int(rng.integers(-24, 25)), 8) for _ in range(3)]
    a[k] = (value * q - sum(a[i] * p[i] for i in range(3) if i != k)) / p[k]
    return [float(x) for x in a]


def _near_degenerate_checks(seed):
    """``_cap_body_check`` at margin 0 on rows through a common rational
    point, one apex row and one direction row moved by one ulp, plus a
    generic row of each kind, for every point of ``RATIONAL_POINTS``."""
    rng = np.random.default_rng(seed)
    for point in RATIONAL_POINTS:
        apexes = [_row_through(rng, point, 1) for _ in range(3)]
        units = [_row_through(rng, point, 0) for _ in range(3)]
        for rows in (apexes, units):
            nudged = list(rows[-1])
            nudged[0] = float(np.nextafter(nudged[0], np.inf * (-1) ** seed))
            rows.append(nudged)
        apexes.append((rng.normal(size=3) * 2).tolist())
        units.append(rng.normal(size=3).tolist())
        yield _cap_body_check(units, rng.integers(1, 3, size=len(units)), apexes, 0.0)


class TestExactCapBodyVerifier:
    @pytest.mark.parametrize("n", range(3, 14))
    def test_construction_worst_count_matches_sampler(self, n):
        for m in (1, 2, 3):
            for with_bottom in (False, True):
                multiset = b3_capbody_directions(n, m, with_bottom=with_bottom)
                spec = CapBodySpec(3, apexes=b3_prism_apexes(n, with_bottom))
                exact = verify_mfold(spec, multiset, m)
                sampled = sampled_report(spec.boundary_sample_set(200_000), multiset, m)
                assert exact.passed and exact.worst_count == sampled.worst_count

    def test_never_above_the_sampled_count_on_random_specs(self):
        rng = np.random.default_rng(2026)
        for trial in range(300):
            spec = _random_apexes(rng, 1 + trial % 2)
            k = int(rng.integers(3, 9))
            multiset = DirectionMultiset.from_vectors(
                [tuple(float(c) for c in u) for u in rng.normal(size=(k, 3))],
                [int(c) for c in rng.integers(1, 3, size=k)],
            )
            exact = verify_mfold(spec, multiset, 1)
            sampled = sampled_report(_region_samples(spec, 20_000), multiset, 1)
            assert exact.worst_count <= sampled.worst_count, trial

    @pytest.mark.parametrize(
        "v,m", [((SQRT2, 0), 2), ((10, 0), 2), ((SQRT2, 0), 1), ((1.3, 0.8), 3)]
    )
    def test_planar_route_matches_sampler(self, v, m):
        spec = CapBodySpec(2, [v])
        full = b2_single_spike_directions(v, m)
        first, _ = full.entries[0]
        for multiset in (full, DirectionMultiset(full.entries[1:])):
            exact = verify_mfold(spec, multiset, m)
            sampled = sampled_report(spec.boundary_sample_set(100_000), multiset, m)
            assert (exact.passed, exact.worst_count) == (
                sampled.passed, sampled.worst_count
            )
        assert verify_mfold(spec, full, m).passed
        assert not verify_mfold(spec, DirectionMultiset(full.entries[1:]), m).passed

    def test_pinned_instance_a_sample_misses(self):
        from pathlib import Path

        path = Path(__file__).parent / "data" / "capbody_sampling_miss.json"
        doc = json.loads(path.read_text())
        spec = capbody_from_json(doc["spec"])
        multiset = multiset_from_json(doc["directions"])
        sampled = sampled_report(spec.boundary_sample_set(200_000), multiset, doc["m"])
        assert sampled.passed and sampled.worst_count == 2
        exact = verify_mfold(spec, multiset, doc["m"])
        assert not exact.passed and exact.worst_count == 0
        point = np.asarray(exact.worst_point)
        assert abs(np.linalg.norm(point) - 1.0) < 1e-12
        assert (spec.apex_array() @ point <= 1.0).all()
        units, _ = multiset.as_arrays()
        assert (units @ point >= -1e-6 - 1e-12).all()  # no direction clears the margin

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_apexes_is_the_ball(self, dim):
        from illum.geometry import Ball

        rng = np.random.default_rng(dim)
        for _ in range(10):
            k = int(rng.integers(dim, dim + 5))
            multiset = DirectionMultiset.from_vectors(
                [tuple(float(c) for c in u) for u in rng.normal(size=(k, dim))]
            )
            ball = verify_mfold(Ball(dim), multiset, 1)
            bare = verify_mfold(CapBodySpec(dim, []), multiset, 1)
            assert (bare.passed, bare.worst_count) == (ball.passed, ball.worst_count)
        # a margin of 2 leaves no circle at all: one candidate pair, count 0
        beyond = verify_mfold(CapBodySpec(dim, []), multiset, 1, Tolerance(margin=2.0))
        assert beyond.worst_count == 0 and beyond.samples == 2

    def test_report_carries_the_exact_recomputations(self):
        # the axis directions at margin 0 meet in vertices where many signs
        # are exactly 0; the report counts what the filter left open
        axes = DirectionMultiset.from_vectors(
            [tuple(float(s * (i == j)) for j in range(3))
             for i in range(3) for s in (1, -1)]
        )
        spec = CapBodySpec(3, [(2.0, 0.0, 0.0)])
        units, mults = axes.as_arrays()
        recomputed = _cap_body_check(units, mults, spec.apex_array(), 0.0)[-1]
        report = verify_mfold(spec, axes, 1, Tolerance(margin=0.0))
        assert report.recomputed == recomputed > 0

    def test_apex_on_the_cone_is_not_lit(self):
        # (-1, 0, 0) and (0, 0, -1) make exactly the cone half-angle pi/4
        # with -(1, 0, 1); the six axis directions light every sphere point
        axes = DirectionMultiset.from_vectors(
            [tuple(float(s * (i == j)) for j in range(3))
             for i in range(3) for s in (1, -1)]
        )
        on_cone = CapBodySpec(3, [(1.0, 0.0, 1.0)])
        report = verify_mfold(on_cone, axes, 1, Tolerance(margin=0.0))
        assert not report.passed and report.worst_count == 0
        assert report.worst_point == (1.0, 0.0, 1.0)
        # one ulp lower the apex's cone opens past (-1, 0, 0), by far less
        # than a float test resolves
        inside_cone = CapBodySpec(3, [(1.0, 0.0, 1.0 - 2.0 ** -52)])
        assert verify_mfold(inside_cone, axes, 1, Tolerance(margin=0.0)).passed

    def test_isolated_circle_is_cut_by_a_plane_through_its_axis(self):
        # the apex circle meets no direction circle: its candidates are the
        # two points where one helper plane through its axis cuts it
        apexes, multiset = isolated_circle_cap_body()
        units, mults = multiset.as_arrays()
        rows, _, weights, vertices, inside, *_ = _cap_body_check(units, mults, apexes, 1e-6)
        points, _, pairs, _ = vertices
        helper = pairs[:, 1] >= len(weights)
        assert helper.sum() == 2 and (pairs[helper, 0] == len(weights) - 1).all()
        plane = rows[pairs[helper][0, 1]]
        assert plane[3] == 0 and plane[2] == 0  # through the origin and the z axis
        assert np.allclose(points[helper] @ np.asarray(apexes[0]), 1.0)
        assert inside[helper].all()

    def test_helper_rows_are_python_ints(self):
        # exact signs at helper vertices are settled in integer arithmetic:
        # the axis planes of circles (one with a 1e-300 coordinate), the
        # 2-D equator, and the planes used when there is no circle
        _, multiset = isolated_circle_cap_body()
        units, mults = multiset.as_arrays()
        axes = np.eye(2), np.ones(2, dtype=np.int64)
        cases = [  # a margin of 2 leaves no circle
            (units, mults, [(1e-300, 0.0, 1.05)], 1e-6, 3),
            (units, mults, [], 2.0, 3),
            (*axes, [], 1e-6, 2),
            (*axes, [], 2.0, 2),
        ]
        for case in cases:
            rows, _, weights, *_ = _cap_body_check(*case)
            helpers = rows[len(weights):]
            assert helpers and all(
                isinstance(h, tuple) and all(type(x) is int for x in h) for h in helpers
            )

    def test_tiny_coordinate_keeps_the_result(self):
        # a coordinate of 1e-300 gives primitive rows beyond the float range;
        # the helper planes built from them must stay exact integers
        apexes, multiset = isolated_circle_cap_body()
        units = multiset.as_arrays()[0].tolist()

        def outcome(apex, extra):
            spec = CapBodySpec(3, [apex])
            report = verify_mfold(spec, DirectionMultiset.from_vectors([extra, *units]), 1)
            return report.passed, report.worst_count

        for apex, extra in [((1e-300, 0.0, 1.05), (0.0, 0.6, 0.8)),
                            ((0.0, 0.0, 1.05), (1e-300, 0.6, 0.8))]:
            assert outcome(apex, extra) == outcome((0.0, 0.0, 1.05), (0.0, 0.6, 0.8))

    def test_tangent_caps_meet_in_a_vertex(self):
        # the planes x + y = 1 and x - y = 1 touch the sphere at (1, 0, 0)
        points = _cap_body_check(
            np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
            np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), 1e-6,
        )[3][0]
        assert np.abs(points - [1.0, 0.0, 0.0]).max(axis=1).min() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_filtered_signs_match_rational_signs(self, seed):
        # the float filter must hand every close call to the exact test and
        # decide the rest correctly
        recomputed = 0
        for rows, _, weights, vertices, inside, counts, fallbacks in _near_degenerate_checks(
            seed
        ):
            want_inside, want_counts = _exact_counts_reference(rows, vertices, weights)
            assert inside.tolist() == want_inside
            assert counts[inside].tolist() == [
                c for c, keep in zip(want_counts, want_inside) if keep
            ]
            recomputed += fallbacks
        assert recomputed > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_row_signs_match_rational_signs_at_vertices(self, seed):
        # the shared sign stage on the points (x, 1) with bounds (e, 0):
        # every sign it decides is the rational sign, the two rows of a
        # vertex are 0, and the close calls stay open
        opened = 0
        for rows, frows, weights, vertices, *_ in _near_degenerate_checks(seed):
            points, errors, pairs, sigma = vertices
            ones = np.ones((len(points), 1))
            with np.errstate(all="ignore"):  # bounds near a tangency may be inf
                sign, open_ = _row_signs(
                    np.hstack([points, ones]), np.hstack([errors, 0 * ones]), frows, pairs
                )
            for s, (pair, sig) in enumerate(zip(pairs.tolist(), sigma.tolist())):
                exact = np.asarray(_exact_signs_reference(rows, pair, sig, len(weights)))
                own = [i for i in pair if i < len(weights)]
                assert (sign[s, own] == 0).all() and not open_[s, own].any()
                decided = ~open_[s]
                assert (sign[s, decided] == exact[decided]).all()
            opened += int(open_.sum())
        assert opened > 0

    def test_generic_signs_need_no_exact_recomputation(self):
        # the two planes that define a vertex are 0 there by construction;
        # on generic data every other sign is far outside the band
        rng = np.random.default_rng(77)
        for _ in range(20):
            units = rng.normal(size=(int(rng.integers(3, 9)), 3))
            units /= np.linalg.norm(units, axis=1)[:, None]
            apexes = _random_apexes(rng, int(rng.integers(1, 4))).apex_array()
            *_, inside, _, recomputed = _cap_body_check(
                units, np.ones(len(units), dtype=np.int64), apexes, 1e-6
            )
            assert inside.any() and recomputed == 0

    def test_vertex_bounds_hold_near_tangency(self):
        # the planes x + y + s z = 1 and x - y + t z = 1 meet the sphere at
        # (1, 0, 0) and at a point about |s + t| away: near s = t = 0 the
        # float vertices are known to about sqrt(eps) only, and their
        # bounds must say so
        from decimal import Decimal, getcontext

        getcontext().prec = 80
        rng = np.random.default_rng(5)
        for _ in range(60):
            s, t = rng.uniform(-1, 1, size=2) * 10.0 ** -rng.uniform(1, 9)
            rows, _, _, vertices, *_ = _cap_body_check(
                np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                np.array([[1.0, 1.0, s], [1.0, -1.0, t]]), 0.0,
            )
            points, errors, pairs, sigma = vertices
            assert errors.max() > 1e-12 or abs(s + t) > 1e-4
            for x, e, (i, j), sign in zip(points, errors, pairs.tolist(), sigma.tolist()):
                p, q, d, root = _exact_pair(rows[i], rows[j])
                for c in range(3):
                    value = (
                        Decimal(p[c]) + sign * Decimal(root).sqrt() * Decimal(q[c])
                    ) / Decimal(d)
                    assert abs(Decimal(float(x[c])) - value) <= Decimal(float(e[c]))
