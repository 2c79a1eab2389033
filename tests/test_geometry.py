import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illum.errors import DomainError, PreconditionViolation, UnsupportedBody
from illum.geometry import (
    Ball,
    ConvexPolygon,
    Direction,
    DirectionMultiset,
    SampleSet,
    Tolerance,
    _worst_index,
    boundary_sample,
    ellipse_body,
    illuminates_by_direction,
    illuminates_by_point,
    sphere_sample,
    verify_mfold,
    verify_samples,
)
from illum.balls import b3_direction_multiset
from illum.polygons import polygon_piercing_solution, smooth_2d_directions

from conftest import random_convex_polygon, random_direction_2d

SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


class TestDirection:
    def test_positive_multiples_compare_equal(self):
        assert Direction((1, 2)) == Direction((2, 4))
        assert Direction((Fraction(1, 3), Fraction(2, 3))) == Direction((1, 2))
        assert hash(Direction((1, 2))) == hash(Direction((3, 6)))

    def test_opposite_not_equal(self):
        assert Direction((1, 2)) != Direction((-1, -2))

    def test_float_coords_compare_by_exact_ratio(self):
        assert Direction((0.5, 0.25)) == Direction((2.0, 1.0))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Direction((0, 0))

    def test_multiset_requires_positive_mults(self):
        with pytest.raises(DomainError):
            DirectionMultiset([(Direction((1, 0)), 0)])


class TestConvexPolygon:
    def test_rejects_collinear(self):
        with pytest.raises(DomainError):
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_rejects_clockwise(self):
        with pytest.raises(DomainError):
            ConvexPolygon([(-1, -1), (-1, 1), (1, 1), (1, -1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(DomainError):
            ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_rejects_double_winding(self):
        # all turns positive but the edge cycle winds around twice
        edges = [(5, 0), (-4, 3), (1, -5), (3, 4), (-5, -2)]
        verts, x, y = [], 0, 0
        for ex, ey in edges[:-1]:
            verts.append((x, y))
            x, y = x + ex, y + ey
        verts.append((x, y))
        with pytest.raises(DomainError):
            ConvexPolygon(verts)


class TestDirectionPredicate:
    def test_ball_inward_direction(self):
        assert illuminates_by_direction(Ball(2), (1, 0), (-1, 0))

    def test_ball_tangent_is_not_illuminating(self):
        assert not illuminates_by_direction(Ball(2), (1, 0), (0, 1))

    def test_square_vertex_diagonal(self):
        assert illuminates_by_direction(SQUARE, (1, 1), (-1, -1))
        # oracle: (1,1) + s*(-1,-1) lands in the open square for small s > 0
        for s in (1e-1, 1e-3, 1e-6):
            x, y = 1 - s, 1 - s
            assert -1 < x < 1 and -1 < y < 1

    def test_square_vertex_needs_both_normals(self):
        assert not illuminates_by_direction(SQUARE, (1, 1), (-1, 1))
        assert illuminates_by_direction(SQUARE, (1, 0), (-1, 1))

    def test_off_boundary_point_rejected(self):
        with pytest.raises(PreconditionViolation):
            illuminates_by_direction(SQUARE, (2, 2), (-1, -1))
        with pytest.raises(PreconditionViolation):
            illuminates_by_direction(Ball(2), (0.5, 0.0), (1.0, 0.0))

    def test_unsupported_body(self):
        with pytest.raises(UnsupportedBody):
            illuminates_by_direction(object(), (1, 0), (-1, 0))

    def test_ball_predicate_matches_step_oracle(self):
        # brute force: does |p + lam*u| < 1 for some lam in 1e-1..1e-8
        rng = np.random.default_rng(42)
        lams = 10.0 ** -np.arange(1, 9)
        for _ in range(10_000):
            ang_p, ang_u = rng.uniform(0, 2 * math.pi, 2)
            p = np.array([math.cos(ang_p), math.sin(ang_p)])
            u = np.array([math.cos(ang_u), math.sin(ang_u)])
            brute = any(np.linalg.norm(p + lam * u) < 1 for lam in lams)
            pred = illuminates_by_direction(Ball(2), tuple(p), tuple(u), Tolerance(margin=0.0))
            assert pred == brute, (p, u)

    @given(
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_scaling_invariance_exact(self, num, den):
        c = Fraction(num, den)
        u = (Fraction(-3), Fraction(1))
        scaled = (c * u[0], c * u[1])
        assert illuminates_by_direction(SQUARE, (1, 1), u) == illuminates_by_direction(
            SQUARE, (1, 1), scaled
        )
        p = (Fraction(3, 5), Fraction(4, 5))
        assert illuminates_by_direction(Ball(2), p, u) == illuminates_by_direction(
            Ball(2), p, scaled
        )


class TestPointPredicate:
    def test_square_corner_source(self):
        assert illuminates_by_point(SQUARE, (2, 2), (1, 1))

    def test_segment_through_interior_blocks(self):
        assert not illuminates_by_point(SQUARE, (0, 2), (0, -1))

    def test_ball_ray_misses_interior(self):
        assert not illuminates_by_point(Ball(2), (2, 0), (0, 1))

    def test_source_inside_rejected(self):
        with pytest.raises(PreconditionViolation):
            illuminates_by_point(SQUARE, (0, 0), (1, 1))
        with pytest.raises(PreconditionViolation):
            illuminates_by_point(Ball(2), (0.5, 0), (1, 0))

    def test_far_source_agrees_with_direction_predicate(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(300):
                p = rng.normal(size=d)
                p /= np.linalg.norm(p)
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                if abs(u @ p) < 1e-4:
                    continue  # finite-source boundary effects are O(1/|v|)
                source = tuple(1e6 * u)
                want = illuminates_by_direction(Ball(d), tuple(p), tuple(-u), Tolerance(margin=0.0))
                assert illuminates_by_point(Ball(d), source, tuple(p)) == want


class TestBoundarySample:
    def test_circle_four_points(self):
        pts = boundary_sample(Ball(2), 4)
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(pts, want, atol=1e-12)

    def test_square_eight_points_hit_vertices(self):
        pts = boundary_sample(SQUARE, 8)
        assert len(pts) == 8
        for v in [(-1, -1), (1, -1), (1, 1), (-1, 1)]:
            assert min(np.linalg.norm(pts - np.array(v, dtype=float), axis=1)) < 1e-12

    def test_sphere_norms(self):
        for d, n in [(3, 1000)]:
            pts = sphere_sample(d, n)
            assert pts.shape == (n, d)
            assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_deterministic_bytes(self):
        a = boundary_sample(Ball(3), 2_000)
        b = boundary_sample(Ball(3), 2_000)
        assert a.tobytes() == b.tobytes()


class TestVerifyPolygon:
    def test_square_diagonals_pass(self):
        diags = DirectionMultiset.from_vectors([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        report = verify_mfold(SQUARE, diags, 1)
        assert report.passed and report.worst_count == 1

    def test_square_three_directions_always_fail(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vecs = []
            while len(vecs) < 3:
                v = (int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
                if v != (0, 0):
                    vecs.append(v)
            report = verify_mfold(SQUARE, DirectionMultiset.from_vectors(vecs), 1)
            assert not report.passed

    def test_report_fields(self):
        diags = DirectionMultiset.from_vectors([(1, 1), (-1, -1)])
        report = verify_mfold(SQUARE, diags, 1)
        assert not report.passed
        assert report.samples == 4
        assert report.worst_count == 0


class TestEdgeDomination:
    def test_vertex_coverage_implies_edge_coverage(self):
        # m-fold coverage of every vertex arc forces m-fold coverage of
        # every edge-interior point; checked on solver outputs
        rng = np.random.default_rng(2024)
        ts = [Fraction(k, 11) for k in range(1, 11)]
        for _ in range(150):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, 4))
            poly = random_convex_polygon(rng, n)
            multiset = polygon_piercing_solution(poly, m).as_direction_multiset()
            assert verify_mfold(poly, multiset, m).passed
            for i in range(poly.n):
                a = poly.vertices[i]
                e = poly.edges[i]
                normal = poly.outward_normal(i)
                for t in ts:
                    p = (a[0] + t * e[0], a[1] + t * e[1])
                    count = sum(
                        mult
                        for d, mult in multiset.entries
                        if illuminates_by_direction(poly, p, d.coords)
                    )
                    assert count >= m


class TestArcOrderPrimitives:
    def test_halfcircle_boundaries(self):
        from illum.geometry import in_halfopen_arc

        start, end = (1, 0), (-1, 0)
        assert in_halfopen_arc(start, end, (1, 0))      # closed at start
        assert in_halfopen_arc(start, end, (0, 1))
        assert not in_halfopen_arc(start, end, (-1, 0))  # open at end
        assert not in_halfopen_arc(start, end, (0, -1))
        assert in_halfopen_arc(start, end, (5, 0))       # scale-free

    def test_every_direction_lights_some_boundary_point(self):
        # vertex arcs alone need not cover the circle (a triangle's three
        # arcs only total pi), but every direction strictly enters through
        # some edge: at least one outward normal has negative dot
        from illum.geometry import cross2, dot, frac_vec

        rng = np.random.default_rng(1717)
        for _ in range(30):
            poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
            normals = [poly.outward_normal(i) for i in range(poly.n)]
            for _ in range(60):
                u = frac_vec(random_direction_2d(rng))
                tangent = any(
                    cross2(u, n) == 0 for n in normals
                )
                lit_edges = sum(1 for n in normals if dot(u, n) < 0)
                assert lit_edges >= 1 or tangent

    def test_triangle_arcs_do_not_cover_the_circle(self):
        # frozen counterexample to closed-arc coverage: a direction into an
        # edge of the equilateral-like triangle misses every vertex arc
        from illum.polygons import regular_polygon_rational, vertex_arcs

        system = vertex_arcs(regular_polygon_rational(3))
        total = sum(a.length() for a in system.arcs)
        assert total < 2 * math.pi / 1.9
        # midpoint of the gap between arc 0's end and arc 1's start sits
        # strictly outside even the closed arcs
        end0, start1 = system.arcs[0].end, system.arcs[1].start
        gap_direction = (end0[0] + start1[0], end0[1] + start1[1])
        assert all(not a.contains_slot(gap_direction) for a in system.arcs)
        assert all(not a.contains_direction(gap_direction) for a in system.arcs)


class TestWorstPointTieBreak:
    def test_lexicographic_among_equal_counts(self):
        # one diagonal lights only vertex (-1,-1); the three dark vertices
        # tie at count 0 and the report must pick the lexicographic least
        single = DirectionMultiset.from_vectors([(1, 1)])
        report = verify_mfold(SQUARE, single, 1)
        assert not report.passed
        assert report.worst_point == (-1, 1)


class TestWorstIndex:
    @staticmethod
    def _lexsort_reference(points, counts):
        candidates = np.flatnonzero(counts == counts.min())
        order = np.lexsort(points[candidates].T[::-1])
        return int(candidates[order[0]])

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_lexsort_under_heavy_ties(self, dim):
        rng = np.random.default_rng(59)
        # few distinct values, both zeros, so rows tie and repeat often
        values = np.array([-1.0, -0.0, 0.0, 0.25, 1.0])
        for _ in range(300):
            n = int(rng.integers(1, 80))
            points = rng.choice(values, size=(n, dim))
            counts = rng.integers(0, 3, size=n)
            assert _worst_index(points, counts) == self._lexsort_reference(
                points, counts
            )

    def test_signed_zero_ties_keep_first_index(self):
        points = np.array([[1.0, 0.0], [0.0, 2.0], [-0.0, 2.0], [0.0, -1.0]])
        counts = np.array([0, 0, 0, 0])
        assert _worst_index(points, counts) == 3
        points[3] = [5.0, -1.0]
        assert _worst_index(points, counts) == 1 == self._lexsort_reference(
            points, counts
        )


class TestDimensionMismatch:
    def test_rejected(self):
        three_d = DirectionMultiset.from_vectors([(0.0, 0.0, -1.0)])
        with pytest.raises(DomainError):
            verify_mfold(Ball(2), three_d, 1, Tolerance(samples=100))
        with pytest.raises(DomainError):
            verify_mfold(SQUARE, three_d, 1)


def _count_at(multiset, point, tau):
    """c(p) = #{j : <u_j, p> < -tau} in exact rationals, over the float unit
    directions the verifier reads."""
    units, mults = multiset.as_arrays()
    p = [Fraction(c) for c in point]
    return sum(
        mult
        for u, mult in zip(units.tolist(), mults.tolist())
        if sum(Fraction(a) * b for a, b in zip(u, p)) < -Fraction(tau)
    )


def _cross_polytope(d):
    return DirectionMultiset.from_vectors(
        [tuple(float(s * (i == j)) for j in range(d)) for i in range(d) for s in (1, -1)]
    )


class TestExactBallVerifier:
    # eleven directions of S^2 whose least-lit region is smaller than the
    # spacing of a 200,000-point quasi-uniform sample
    SAMPLING_MISSES = [
        (-1.189, 0.775, -0.275), (1.003, 0.122, -0.513), (0.201, 0.983, -1.178),
        (-0.108, -1.86, -0.443), (-0.426, -1.163, 1.383), (1.249, -0.084, -0.117),
        (0.341, -1.168, 1.192), (-0.858, -1.493, 0.091), (1.364, -0.767, 0.899),
        (-0.506, -0.697, 0.275), (0.88, -0.058, 0.095),
    ]

    def test_finds_the_minimum_a_sample_misses(self):
        multiset = DirectionMultiset.from_vectors(self.SAMPLING_MISSES)
        pts = sphere_sample(3, 200_000)
        sampled = verify_samples(
            SampleSet(pts, pts, np.zeros(len(pts))), multiset, 2, Tolerance()
        )
        assert sampled.passed and sampled.worst_count == 2
        report = verify_mfold(Ball(3), multiset, 2)
        assert not report.passed and report.worst_count == 1
        assert abs(np.linalg.norm(report.worst_point) - 1.0) < 1e-12
        assert _count_at(multiset, report.worst_point, 1e-6) == 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_never_above_a_gaussian_sample(self, d):
        rng = np.random.default_rng(100 + d)
        pts = rng.normal(size=(20_000, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        for _ in range(8):
            k = int(rng.integers(d, d + 5))
            vecs = [tuple(float(c) for c in v) for v in rng.normal(size=(k, d))]
            mults = [int(c) for c in rng.integers(1, 3, size=k)]
            multiset = DirectionMultiset.from_vectors(vecs, mults)
            units, weights = multiset.as_arrays()
            for tau in (0.0, 1e-6):
                sampled = int(((pts @ units.T < -tau) @ weights).min())
                tol = Tolerance(margin=tau)
                exact = verify_mfold(Ball(d), multiset, 1, tol).worst_count
                assert exact <= sampled
                # the sample fails from m = sampled + 1 on; so does the exact route
                assert not verify_mfold(Ball(d), multiset, sampled + 1, tol).passed

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_negating_every_direction_keeps_the_minimum(self, d):
        # c(p) for the directions -u_j is c(-p) for the u_j
        rng = np.random.default_rng(200 + d)
        for _ in range(6):
            vecs = rng.normal(size=(int(rng.integers(d + 1, d + 5)), d))
            for tau in (0.0, 1e-6):
                tol = Tolerance(margin=tau)
                counts = [
                    verify_mfold(Ball(d), DirectionMultiset.from_vectors(v), 1, tol)
                    .worst_count
                    for v in (vecs.tolist(), (-vecs).tolist())
                ]
                assert counts[0] == counts[1]

    SIMPLEX = {
        2: [(1.0,), (-1.0,)],
        3: [(1.0, 0.0), (-0.5, 0.75 ** 0.5), (-0.5, -(0.75 ** 0.5))],
        4: [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)],
    }

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_margin_is_decided_at_vertices_outside_the_sphere(self, d):
        # straight up, and d directions spread as a regular simplex and tilted
        # below the horizon by about `tilt`: every point is lit at margin 0,
        # but straight up only by directions within the margin when tilt < tau
        def tilted(tilt):
            low = [(*s, -tilt * math.hypot(*s)) for s in self.SIMPLEX[d]]
            return DirectionMultiset.from_vectors(low + [(0.0,) * (d - 1) + (1.0,)])

        assert verify_mfold(Ball(d), tilted(5e-7), 1, Tolerance(margin=0.0)).passed
        report = verify_mfold(Ball(d), tilted(5e-7), 1)
        assert not report.passed and report.worst_count == 0
        assert report.worst_point[-1] > 1 - 1e-9
        assert _count_at(tilted(5e-7), report.worst_point, 1e-6) == 0
        assert verify_mfold(Ball(d), tilted(2e-6), 1).passed

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_b3_fan_is_tight(self, m):
        multiset = b3_direction_multiset(m)
        report = verify_mfold(Ball(3), multiset, m)
        assert report.passed and report.worst_count == m
        for i in range(len(multiset.entries)):
            entries = [
                (d, mult - (j == i))
                for j, (d, mult) in enumerate(multiset.entries)
                if mult - (j == i) > 0
            ]
            assert not verify_mfold(Ball(3), DirectionMultiset(entries), m).passed

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("tau", [0.0, 1e-6])
    def test_cross_polytope_gives_exactly_one(self, d, tau):
        report = verify_mfold(Ball(d), _cross_polytope(d), 1, Tolerance(margin=tau))
        assert report.passed and report.worst_count == 1
        assert _count_at(_cross_polytope(d), report.worst_point, tau) == 1
        assert not verify_mfold(Ball(d), _cross_polytope(d), 2, Tolerance(margin=tau))

    def test_samples_count_direction_subsets(self):
        # 8 distinct directions: C(8, 3) rays, plus C(8, 4) vertices if tau > 0
        cross = _cross_polytope(4)
        assert verify_mfold(Ball(4), cross, 1, Tolerance(margin=0.0)).samples == 56
        assert verify_mfold(Ball(4), cross, 1).samples == 56 + 70

    def test_equal_directions_merge(self):
        up = [(0.0, 1.0, 1.0), (0.0, 2.0, 2.0)]
        for vecs, mults in ((up, [2, 1]), (up[:1], [3])):
            multiset = DirectionMultiset.from_vectors(vecs + [(1.0, 0.0, 0.0)], mults + [1])
            assert verify_mfold(Ball(3), multiset, 1).samples == 1

    @pytest.mark.parametrize(
        "vecs",
        [
            [(0.0, 0.0, 0.0, 1.0)],
            [(1.0, 0.0, 0.0, 0.0), (-2.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)],
        ],
    )
    def test_directions_in_a_low_subspace_count_zero(self, vecs):
        multiset = DirectionMultiset.from_vectors(vecs)
        for tau in (0.0, 1e-6):
            report = verify_mfold(Ball(4), multiset, 1, Tolerance(margin=tau))
            assert not report.passed and report.worst_count == 0
            units, _ = multiset.as_arrays()
            assert np.abs(units @ np.asarray(report.worst_point)).max() < 1e-12


class TestExactSmoothVerifier:
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (1.0, 5.0), (0.3, 0.2)])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_tangent_window_directions_are_tight(self, a, b, m):
        body = ellipse_body(a, b)
        multiset = smooth_2d_directions(body, m)
        report = verify_mfold(body, multiset, m)
        assert report.passed and report.worst_count == m
        # the witness is the boundary point whose outward normal is lit least
        x, y = report.worst_point
        assert abs((x / a) ** 2 + (y / b) ** 2 - 1.0) < 1e-9
        short = DirectionMultiset(multiset.entries[1:])
        assert not verify_mfold(body, short, m).passed
