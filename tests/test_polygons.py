import json
import math
from fractions import Fraction

import numpy as np
import pytest

from illum.errors import DomainError, GeometryInternalError
from illum.geometry import (
    ConvexPolygon,
    _primitive_ray,
    ellipse_body,
    unit_circle_body,
    verify_mfold,
)
from illum.piercing import Arc
from illum.polygons import (
    check_consecutive_angle_condition,
    check_grouped_angle_condition,
    equiangular_tangent_polygon,
    find_valid_grouping,
    illumination_number_polygon,
    lower_bound,
    regular_polygon_number,
    regular_polygon_rational,
    smooth_2d_directions,
    vertex_arcs,
)

from conftest import random_convex_polygon

SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])

# integer pentagon with exterior angle multiset {pi/2, pi/2, pi/2, pi/4, pi/4}
FLAT_PENTAGON = ConvexPolygon([(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)])


class TestFormulas:
    def test_regular_polygon_number_values(self):
        assert regular_polygon_number(5, 1) == 3
        assert regular_polygon_number(4, 1) == 4
        assert regular_polygon_number(3, 2) == 6
        assert regular_polygon_number(7, 3) == 7
        assert regular_polygon_number(6, 1) == 3

    def test_regular_polygon_number_domain(self):
        with pytest.raises(DomainError):
            regular_polygon_number(2, 1)

    def test_lower_bound_values(self):
        assert lower_bound(1, 2) == 3
        assert lower_bound(2, 3) == 6
        assert lower_bound(1, 3) == 4

    def test_lower_bound_domain(self):
        with pytest.raises(DomainError):
            lower_bound(0, 2)
        with pytest.raises(DomainError):
            lower_bound(1, 1)


class TestVertexArcs:
    def test_square_vertex_arc_is_opposite_quadrant(self):
        system = vertex_arcs(SQUARE)
        # vertex (1,1) has index 2 in the CCW list
        arc = system.arcs[2]
        assert arc.contains_direction((-1, -1))
        assert not arc.contains_direction((1, 1))
        assert not arc.contains_direction((-1, 0))  # boundary of the open arc
        assert not arc.contains_direction((0, -1))

    def test_arc_lengths_triangle_and_pentagon(self):
        for n, want in [(3, math.pi / 3), (5, 3 * math.pi / 5)]:
            system = vertex_arcs(regular_polygon_rational(n))
            for arc in system.arcs:
                assert abs(arc.length() - want) < 1e-4
        # coordinates far beyond float range: the vertex arcs still sum to pi
        huge = vertex_arcs(ConvexPolygon([(0, 0), (10**400, 0), (0, 1)]))
        assert abs(sum(arc.length() for arc in huge.arcs) - math.pi) < 1e-12

    def test_arc_count_matches_vertices(self):
        rng = np.random.default_rng(5)
        poly = random_convex_polygon(rng, 7)
        assert vertex_arcs(poly).n == 7

    def test_rays_are_those_of_the_endpoints(self):
        # the arcs reuse the polygon's rays; they must be exactly what an arc
        # built from its endpoints alone derives
        rng = np.random.default_rng(17)
        polygons = [random_convex_polygon(rng, int(rng.integers(3, 40)))
                    for _ in range(40)]
        polygons += [regular_polygon_rational(n) for n in (3, 4, 7, 10, 201)]
        polygons.append(ConvexPolygon([(0, 0), (10**400, 0), (0, 1)]))
        for poly in polygons:
            for i, arc in enumerate(vertex_arcs(poly).arcs):
                e_prev = poly.edges[i - 1]
                assert arc == Arc(start=poly.edges[i], end=(-e_prev[0], -e_prev[1]))
                assert arc.rays == (_primitive_ray(arc.start), _primitive_ray(arc.end))


class TestAngleConditions:
    def test_equiangular_pentagon_m2(self):
        assert check_consecutive_angle_condition(regular_polygon_rational(5), 2)

    def test_flat_pentagon_m2_fails(self):
        # two right exterior angles in a row sum to exactly pi
        assert not check_consecutive_angle_condition(FLAT_PENTAGON, 2)

    def test_equiangular_heptagon_m3(self):
        assert check_consecutive_angle_condition(regular_polygon_rational(7), 3)

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(DomainError):
            check_consecutive_angle_condition(SQUARE, 2)

    def test_m1_rejected(self):
        with pytest.raises(DomainError):
            check_consecutive_angle_condition(regular_polygon_rational(3), 1)

    def test_grouped_regular_10gon_pairs(self):
        poly = regular_polygon_rational(10)
        assert check_grouped_angle_condition(poly, 2, cuts=[2, 4, 6, 8])

    def test_grouped_square_m1_fails(self):
        # the grouped angle {a_3 + a_4} sums to exactly pi
        assert not check_grouped_angle_condition(SQUARE, 1, cuts=[1, 2])

    def test_grouped_singletons_match_consecutive(self):
        poly = regular_polygon_rational(7)
        assert check_grouped_angle_condition(poly, 3, cuts=[1, 2, 3, 4, 5, 6]) == \
            check_consecutive_angle_condition(poly, 3)

    def test_grouped_invalid_cuts(self):
        poly = regular_polygon_rational(10)
        with pytest.raises(DomainError):
            check_grouped_angle_condition(poly, 2, cuts=[2, 2, 6, 8])
        with pytest.raises(DomainError):
            check_grouped_angle_condition(poly, 2, cuts=[2, 4, 6])
        with pytest.raises(DomainError):
            check_grouped_angle_condition(poly, 2, cuts=[2, 4, 6, 10])

    def test_find_valid_grouping(self):
        assert find_valid_grouping(regular_polygon_rational(10), 2) is not None
        assert find_valid_grouping(FLAT_PENTAGON, 2) is None

    @pytest.mark.parametrize("poly, m", [(SQUARE, 2), (FLAT_PENTAGON, 3), (SQUARE, -1)])
    def test_grouping_search_rejects_m_as_the_check_does(self, poly, m):
        # the search over no cut list returned None (n < 2m+1) or raised a
        # bare ValueError (m < 0); it now raises the check's DomainError
        with pytest.raises(DomainError) as searched:
            find_valid_grouping(poly, m)
        with pytest.raises(DomainError) as checked:
            check_grouped_angle_condition(poly, m, range(1, 2 * m + 1))
        assert str(searched.value) == str(checked.value)

    def test_condition_implies_2m_plus_1(self):
        # perturbed equiangular (2m+1)-gons that keep the window condition
        # must solve to exactly 2m+1
        rng = np.random.default_rng(77)
        for m in (2, 3):
            n = 2 * m + 1
            found = 0
            while found < 12:
                base = regular_polygon_rational(n)
                verts = [
                    (
                        x + Fraction(int(rng.integers(-40, 41)), 1000),
                        y + Fraction(int(rng.integers(-40, 41)), 1000),
                    )
                    for x, y in base.vertices
                ]
                try:
                    poly = ConvexPolygon(verts)
                except DomainError:
                    continue
                if not check_consecutive_angle_condition(poly, m):
                    continue
                found += 1
                assert illumination_number_polygon(poly, m) == n


class TestTangentPolygon:
    def test_circle_m1_is_circumscribed_triangle(self):
        tp = equiangular_tangent_polygon(unit_circle_body(), 1)
        assert tp.vertices.shape == (3, 2)
        assert np.allclose(np.linalg.norm(tp.vertices, axis=1), 2.0, atol=1e-12)

    def test_circle_m2_vertex_distance(self):
        tp = equiangular_tangent_polygon(unit_circle_body(), 2)
        want = 1.0 / math.cos(math.pi / 5)
        assert np.allclose(np.linalg.norm(tp.vertices, axis=1), want, atol=1e-12)

    def test_ellipse_sides_touch_body(self):
        body = ellipse_body(2, 1)
        tp = equiangular_tangent_polygon(body, 1)
        thetas = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        boundary = body.boundary_points(thetas)
        for i in range(tp.k):
            normal = np.array(
                [math.cos(tp.normal_angles[i]), math.sin(tp.normal_angles[i])]
            )
            support = boundary @ normal
            # the side's line really is the support line: touched, not crossed
            assert support.max() <= tp.support_values[i] + 1e-12
            assert abs(support.max() - tp.support_values[i]) < 1e-6
            for j in (i, (i + 1) % tp.k):
                assert abs(tp.vertices[j] @ normal - tp.support_values[i]) < 1e-12


class TestSmoothDirections:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_circle(self, m):
        multiset = smooth_2d_directions(unit_circle_body(), m)
        assert multiset.total == 2 * m + 1
        assert verify_mfold(unit_circle_body(), multiset, m).passed

    @pytest.mark.parametrize("m", [1, 2])
    def test_ellipse(self, m):
        body = ellipse_body(2, 1)
        multiset = smooth_2d_directions(body, m)
        assert multiset.total == 2 * m + 1
        assert verify_mfold(body, multiset, m).passed


class TestRationalRegularSurrogates:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_produces_valid_polygon(self, n):
        poly = regular_polygon_rational(n)
        assert poly.n == n
        # close to the unit-circle regular polygon: every edge length near
        # 2 sin(pi/n)
        verts = np.asarray([[float(x), float(y)] for x, y in poly.vertices])
        lengths = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        assert np.allclose(lengths, 2 * math.sin(math.pi / n), atol=1e-4)

    @pytest.mark.parametrize("n", [3200, 10**4])
    def test_large_n_has_bounded_denominators(self, n):
        # the least power of ten above 10^4 n^2 bounds every denominator, so
        # the polygon serializes and parses back unchanged
        from illum.jsonio import dump_json, polygon_from_json, polygon_to_json

        poly = regular_polygon_rational(n)
        bound = 10 ** len(str(10**4 * n * n))
        assert all(c.denominator <= bound for v in poly.vertices for c in v)
        doc = json.loads(dump_json(polygon_to_json(poly)))
        assert polygon_from_json(doc).vertices == poly.vertices

    def test_rounded_polygon_without_the_regular_pattern_is_rejected(
        self, monkeypatch
    ):
        # a trapezoid in place of the rounded square: each edge turns left
        # to the next, but two opposite edges are not antiparallel
        from illum import polygons

        trapezoid = ConvexPolygon([(0, 0), (2, 0), (1, 1), (0, 1)])
        monkeypatch.setattr(polygons, "ConvexPolygon", lambda verts: trapezoid)
        with pytest.raises(GeometryInternalError):
            regular_polygon_rational(4)

    def test_even_case_is_centrally_symmetric(self):
        poly = regular_polygon_rational(8)
        for i in range(4):
            ei = poly.edges[i]
            ej = poly.edges[i + 4]
            assert ej == (-ei[0], -ei[1])
