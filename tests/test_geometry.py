import math
import warnings
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
    _bounded_cofactors,
    _cofactor_vector,
    _column_dots,
    _exact_sphere_minimum,
    _merged_rows,
    _report,
    _row_signs,
    _worst_index,
    ellipse_body,
    illuminates_by_direction,
    sphere_sample,
    verify_mfold,
)
from illum.balls import b3_direction_multiset, lift_directions
from illum.jsonio import polygon_from_json
from illum.piercing import Arc
from illum.polygons import polygon_piercing_solution, smooth_2d_directions, vertex_arcs

from conftest import (
    limit_denominator_polygon,
    random_convex_polygon,
    random_direction_2d,
    reference_cofactors,
    reference_polygon_edges,
    reference_sphere_minimum,
    sampled_report,
)

SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


class TestColumnDots:
    """_column_dots rounds exactly as the numpy row sum, and its root as the
    row norm, so it can replace them without moving a bit."""

    @pytest.mark.parametrize("shape", [(500, 2), (500, 3), (40, 50, 3)])
    def test_bitwise_sum_and_norm(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        y = rng.normal(size=shape)
        assert _column_dots(x, y).shape == shape[:-1]
        assert _column_dots(x, y).tobytes() == (x * y).sum(axis=-1).tobytes()
        root = np.sqrt(_column_dots(x, x))
        assert root.tobytes() == np.linalg.norm(x, axis=-1).tobytes()

    def test_bitwise_with_a_broadcast_vector(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(500, 3)), rng.normal(size=3)
        assert _column_dots(x, y).tobytes() == (x * y).sum(axis=-1).tobytes()
        assert _column_dots(y, y) == (y * y).sum()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(DomainError):
            Direction((bad, 0))
        with pytest.raises(DomainError):
            Direction((1.0, bad))

    def test_multiset_requires_positive_mults(self):
        with pytest.raises(DomainError):
            DirectionMultiset([(Direction((1, 0)), 0)])

    def test_multiset_total_stays_below_2_53(self):
        # counts sum multiplicities in float64, exact below 2^53
        DirectionMultiset([(Direction((1, 0)), 2**52), (Direction((0, 1)), 2**52 - 1)])
        for mults in ([2**53], [2**52, 2**52], [10**29]):
            with pytest.raises(DomainError, match="below 2\\^53"):
                DirectionMultiset.from_vectors([(1, 0)] * len(mults), mults)

    TETRAHEDRON = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]

    @pytest.mark.parametrize(
        "scale", [1e200, 1e-200, 1e-320, 10 ** 400, Fraction(1, 10 ** 400)]
    )
    def test_unit_of_huge_and_tiny_coordinates(self, scale):
        # the plain float norm overflows (1e200), underflows to 0 (1e-200,
        # 1e-320) or cannot convert (10^400)
        vecs = [tuple(c * scale for c in v) for v in self.TETRAHEDRON]
        units = DirectionMultiset.from_vectors(vecs).as_arrays()[0]
        plain = DirectionMultiset.from_vectors(self.TETRAHEDRON).as_arrays()[0]
        assert np.abs(units - plain).max() < 1e-15
        report = verify_mfold(Ball(3), DirectionMultiset.from_vectors(vecs), 1)
        assert report.passed and report.worst_count == 1

    def test_unit_keeps_its_bits_where_floats_stay_in_range(self):
        # the power-of-two scaling is exact: the same bits as normalizing the
        # plain floats, on the inputs of the tests and constructions
        def plain(coords):
            v = np.asarray([float(c) for c in coords])
            return v / np.linalg.norm(v)

        rng = np.random.default_rng(11)
        vectors = [d.coords for m in (1, 2, 3, 4) for d, _ in b3_direction_multiset(m)]
        vectors += [d.coords for d, _ in lift_directions(b3_direction_multiset(3), 3)]
        vectors += TestExactBallVerifier.SAMPLING_MISSES + self.TETRAHEDRON
        scales = 10.0 ** rng.integers(-60, 60, size=(300, 1))
        vectors += [tuple(v) for v in (rng.normal(size=(300, 4)) * scales).tolist()]
        vectors += [
            tuple(Fraction(int(a), int(b)) for a, b in rng.integers(1, 10 ** 9, size=(3, 2)))
            for _ in range(100)
        ]
        for coords in vectors:
            assert Direction(coords).unit().tobytes() == plain(coords).tobytes()


def _double_winding():
    # all turns positive but the edge cycle winds around twice
    edges = [(5, 0), (-4, 3), (1, -5), (3, 4), (-5, -2)]
    verts, x, y = [], 0, 0
    for ex, ey in edges[:-1]:
        verts.append((x, y))
        x, y = x + ex, y + ey
    verts.append((x, y))
    return verts


DOUBLE_WINDING = _double_winding()


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
        with pytest.raises(DomainError):
            ConvexPolygon(DOUBLE_WINDING)

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([(0, 0), (1, 0), (1, 0), (0, 1)], "repeated vertex"),
            ([(0, 0), (2, 0), (2, 2), (0, 0)], "repeated vertex"),
            ([(0, 0), (2, 0), (1, 1), (0, 0), (0, 2), (-1, 1)], "repeated vertex"),
            ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)],
             "polygon must be strictly convex with CCW vertex order"),
            (DOUBLE_WINDING, "vertex cycle winds more than once"),
            ([(0, 0), (0, 0)], "polygon needs at least 3 vertices"),
        ],
        ids=["adjacent-repeat", "wrap-repeat", "non-adjacent-repeat", "reflex",
             "double-winding", "two-vertices"],
    )
    def test_error_messages(self, vertices, message):
        # recorded from the constructor that hashed every vertex list first;
        # it now builds the set only once a check has failed
        with pytest.raises(DomainError) as err:
            ConvexPolygon(vertices)
        assert str(err.value) == message


    @staticmethod
    def _build_cases():
        rng = np.random.default_rng(2024)
        cases = [random_convex_polygon(rng, n).vertices for n in (3, 4, 7, 12, 30)]
        for scale in (1, 7, 10 ** 6):
            # points of a circle, each over its own random denominator times a
            # common scale; the rounding is far below the vertex spacing
            for n in (5, 9, 40):
                dens = rng.integers(1, 10 ** 6, size=n)
                cases.append([
                    (Fraction(round(10 ** 12 * math.cos(2 * math.pi * i / n) * int(d)),
                              int(d) * scale),
                     Fraction(round(10 ** 12 * math.sin(2 * math.pi * i / n) * int(d)),
                              int(d) * scale))
                    for i, d in enumerate(dens)
                ])
        cases.append(limit_denominator_polygon(40).vertices)
        cases.append([(math.cos(t), math.sin(t)) for t in np.linspace(0, 6, 9)])
        cases.append([(0.0, 0.0), (1e300, 0.0), (0.5, 1e-300)])
        cases.append([(0, 0), (10 ** 400, 0), (0, 1)])
        cases.append([(Fraction(1, 3), 0), (1, Fraction(-2, 7)), (Fraction(5, 4), 2)])
        return cases

    def test_edges_and_rays_match_fraction_reference(self):
        for vertices in self._build_cases():
            poly = ConvexPolygon(vertices)
            verts, edges, rays = reference_polygon_edges(vertices)
            assert poly.vertices == verts
            assert poly.edges == edges and poly.rays == rays
            assert all(type(c) is Fraction for e in poly.edges for c in e)
            assert all(type(c) is int for r in poly.rays for c in r)

    @classmethod
    def _json_cases(cls):
        """The cases above as JSON coordinate strings, plus unreduced and
        negative-zero spellings, which the parse keeps unreduced."""
        docs = [[[str(Fraction(c)) for c in v] for v in vertices]
                for vertices in cls._build_cases()]
        docs.append([["2/4", "-0"], ["3", "0"], ["0", "6/4"]])
        docs.append([["-0", "-0/7"], ["10/2", "000"], ["-6/4", "0010/4"]])
        return docs

    def test_parsed_attributes_match_fraction_reference(self):
        # the parse, the polygon and its vertex arcs hold integers; every
        # Fraction they show is built on read and equals the old value
        for doc in self._json_cases():
            poly = polygon_from_json({"vertices": doc})
            verts, edges, rays = reference_polygon_edges(doc)
            assert poly.n == len(verts)
            assert poly.vertices == verts and poly.edges == edges and poly.rays == rays
            assert all(type(c) is Fraction for v in poly.vertices + poly.edges for c in v)
            assert all(type(c) is int for r in poly.rays for c in r)
            for i, arc in enumerate(vertex_arcs(poly).arcs):
                start, end = edges[i], (-edges[i - 1][0], -edges[i - 1][1])
                assert arc.start == start and arc.end == end
                assert all(type(c) is Fraction for c in arc.start + arc.end)
                built = Arc(start=start, end=end)
                assert arc == built and hash(arc) == hash(built)
                assert repr(arc) == repr(built) and arc.rays == built.rays

    def test_coordinate_strings_build_the_polygon_of_their_fractions(self):
        # strings read by int(), unreduced; their Fractions reduced
        for doc in self._json_cases():
            parsed = ConvexPolygon(doc)
            exact = ConvexPolygon([tuple(map(Fraction, v)) for v in doc])
            assert parsed.vertices == exact.vertices
            assert parsed.edges == exact.edges and parsed.rays == exact.rays

    def test_numpy_integer_vertices(self):
        # read as Python ints: the first edge, 2^63, wraps in int64
        vertices = np.array([(-2 ** 62, -2 ** 62), (2 ** 62, -2 ** 62), (0, 2 ** 62)])
        poly = ConvexPolygon(vertices)
        plain = ConvexPolygon(vertices.tolist())
        assert poly.vertices == plain.vertices
        assert poly.edges == plain.edges and poly.rays == plain.rays
        assert all(type(c) is int for v in poly.int_vertices for r in v for c in r)
        assert poly.locate_boundary_point(vertices[1]) == ("vertex", 1)
        assert poly.locate_boundary_point(np.array([0, -2 ** 62])) == ("edge", 0)

    def test_arc_equality_is_that_of_its_endpoints(self):
        # as when Arc was a frozen dataclass comparing (start, end)
        arc = Arc(start=(1, 0), end=(0, 1))
        assert arc == Arc(start=(Fraction(2, 2), 0.0), end=(0, Fraction(1)))
        assert arc != Arc(start=(2, 0), end=(0, 1))  # same rays, another start
        assert arc != (arc.start, arc.end)
        assert hash(arc) == hash(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        assert repr(arc) == (
            "Arc(start=(Fraction(1, 1), Fraction(0, 1)), end=(Fraction(0, 1), Fraction(1, 1)))"
        )


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


class TestBoundarySample:
    def test_circle_four_points(self):
        pts = sphere_sample(2, 4)
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(pts, want, atol=1e-12)

    def test_sphere_norms(self):
        for d, n in [(3, 1000)]:
            pts = sphere_sample(d, n)
            assert pts.shape == (n, d)
            assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_deterministic_bytes(self):
        a = sphere_sample(3, 2_000)
        b = sphere_sample(3, 2_000)
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

    def test_huge_lattice_triangle(self):
        # coordinates far beyond float range: counts stay exact and the
        # margins finite
        poly = ConvexPolygon([(0, 0), (10**400, 0), (0, 1)])
        multiset = polygon_piercing_solution(poly, 1).as_direction_multiset()
        report = verify_mfold(poly, multiset, 1)
        assert report.passed and report.worst_count == 1
        assert math.isfinite(report.worst_margin) and report.worst_margin > 0

    def test_counts_match_a_step_into_the_interior(self):
        # random rational multisets, half of the directions parallel to an
        # edge (an endpoint of two vertex arcs); the oracle steps from each
        # vertex along u and asks whether the point is interior
        from illum.geometry import dot, frac_vec

        def _point_in_polygon_interior(poly: ConvexPolygon, p) -> bool:
            p = frac_vec(p)
            return all(
                dot(p, poly.outward_normal(i)) < dot(poly.vertices[i], poly.outward_normal(i))
                for i in range(poly.n)
            )

        rng = np.random.default_rng(1313)
        step = Fraction(1, 10**12)

        def ratio():
            return Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30)))

        for _ in range(80):
            poly = random_convex_polygon(rng, int(rng.integers(3, 10)))
            vectors, parallel = [], []
            for _ in range(int(rng.integers(1, 8))):
                if rng.integers(0, 2):
                    i = int(rng.integers(0, poly.n))
                    c = ratio() * (1 if rng.integers(0, 2) else -1)
                    vectors.append((c * poly.edges[i][0], c * poly.edges[i][1]))
                    parallel.append((i, vectors[-1]))
                else:
                    u = random_direction_2d(rng)
                    vectors.append((u[0] * ratio(), u[1] * ratio()))
            mults = [int(c) for c in rng.integers(1, 4, len(vectors))]
            multiset = DirectionMultiset.from_vectors(vectors, mults)
            counts = []
            for v in poly.vertices:
                lit = [
                    illuminates_by_direction(poly, v, d.coords)
                    for d, _ in multiset.entries
                ]
                stepped = [
                    _point_in_polygon_interior(
                        poly, (v[0] + step * d.coords[0], v[1] + step * d.coords[1])
                    )
                    for d, _ in multiset.entries
                ]
                assert lit == stepped
                counts.append(
                    sum(m for hit, (_, m) in zip(lit, multiset.entries) if hit)
                )
            worst = min(v for v, c in zip(poly.vertices, counts) if c == min(counts))
            # float margins at the worst vertex, against both unit outward
            # normals there, the m-th largest with multiplicity
            wi = poly.vertices.index(worst)
            normals = [
                np.asarray([float(c) for c in poly.outward_normal(j)])
                for j in (wi - 1, wi)
            ]
            margins = sorted(
                min(-float(d.unit() @ (nrm / np.linalg.norm(nrm))) for nrm in normals)
                for d, mult in multiset.entries
                for _ in range(mult)
            )
            for m in (1, 2, 3):
                report = verify_mfold(poly, multiset, m)
                assert report.worst_count == min(counts)
                assert report.passed == (min(counts) >= m)
                assert report.worst_point == worst
                want = margins[-min(m, len(margins))]
                assert report.worst_margin == pytest.approx(want, abs=1e-12)
            for i, u in parallel:
                for v in (poly.vertices[i], poly.vertices[(i + 1) % poly.n]):
                    assert not illuminates_by_direction(poly, v, u)


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

    def test_angle_order_matches_float_angles(self):
        # on small integer vectors distinct rays are far apart as floats;
        # vectors on one ray compare equal and have CCW offset 0, so an arc
        # from a ray to itself holds nothing
        from illum.geometry import _primitive_ray, angle_cmp, ccw_rel_lt, in_open_arc

        grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]

        def angle(v):
            return math.atan2(v[1], v[0]) % (2 * math.pi)

        def offset(base, v):
            same = _primitive_ray(base) == _primitive_ray(v)
            return 0.0 if same else (angle(v) - angle(base)) % (2 * math.pi)

        for a in grid:
            for b in grid:
                same = _primitive_ray(a) == _primitive_ray(b)
                want = 0 if same else (-1 if angle(a) < angle(b) else 1)
                assert angle_cmp(a, b) == want, (a, b)
                for base in grid[::5]:
                    lt = not same and offset(base, a) < offset(base, b)
                    assert ccw_rel_lt(base, a, b) == lt, (base, a, b)
                    inside = lt and offset(base, a) > 0
                    assert in_open_arc(base, b, a) == inside, (base, b, a)

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


class TestReport:
    def test_mth_largest_margin_matches_the_expansion(self):
        # distinct margins, so the expanded sort and the walk over the
        # cumulative multiplicities must pick the same value
        rng = np.random.default_rng(61)
        for _ in range(2000):
            k = int(rng.integers(1, 12))
            margins = rng.choice(np.arange(-500, 500), size=k, replace=False) / 500
            mults = rng.integers(1, 5, size=len(margins))
            m = int(rng.integers(1, 2 * mults.sum() + 2))
            expanded = np.sort(np.repeat(margins, mults))
            want = expanded[-min(m, len(expanded))]
            assert _report(m, (0.0, 0.0), 0, margins, mults, 1).worst_margin == want

    def test_huge_multiplicity_needs_no_memory(self):
        import tracemalloc

        margins = np.array([0.5, -0.25, 0.125])
        mults = np.array([2**40, 3, 2**40])
        tracemalloc.start()
        try:
            reports = [_report(m, (0.0,), 0, margins, mults, 1) for m in (1, 2**40 + 1, 2**42)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.worst_margin for r in reports] == [0.5, 0.125, -0.25]
        assert peak < 2**20


class TestDimensionMismatch:
    def test_rejected(self):
        three_d = DirectionMultiset.from_vectors([(0.0, 0.0, -1.0)])
        with pytest.raises(DomainError):
            verify_mfold(Ball(2), three_d, 1)
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
        sampled = sampled_report(SampleSet(pts, pts, np.zeros(len(pts))), multiset, 2)
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


def _lift_chain(m, top):
    """The unit rows of the 3-ball fan for m and of its lifts up to dimension
    ``top``, as the verifier reads them."""
    multiset, chain = b3_direction_multiset(m), []
    for _ in range(3, top + 1):
        chain.append(multiset.as_arrays())
        if len(chain) < top - 2:
            multiset = lift_directions(multiset, m)
    return chain


def _dyadic(rng, shape):
    """Floats with 20-bit numerators over 2^20: a difference of two of them
    is exact, a product of d of them rounds."""
    return rng.integers(-(2 ** 20), 2 ** 20, size=shape) / 2.0 ** 20


def _sphere_cases():
    """(name, rows, multiplicities, tau) for the exact sphere minimum: random
    and degenerate sets, and sets whose float cofactors are noise around
    exact zeros that no construction makes known."""
    rng = np.random.default_rng(20)
    cases = []
    for d in range(2, 7):
        for k in (d, d + 2, d + 4) if d < 6 else (d, d + 2):
            units = rng.normal(size=(k, d))
            units /= np.linalg.norm(units, axis=1)[:, None]
            cases.append((f"random d={d} k={k}", units, rng.integers(1, 3, size=k)))
        eye = np.eye(d)
        cases.append((f"+-e_i d={d}", np.vstack([eye, -eye]), np.ones(2 * d, np.int64)))
        repeated = np.repeat(rng.normal(size=(3, d)), 2, axis=0)
        repeated[1::2] *= 3.0  # the same rays at another length: they merge
        cases.append((f"repeated d={d}", repeated, rng.integers(1, 3, size=6)))
        if d >= 3:
            low = np.zeros((d + 3, d))
            low[:, : d - 2] = rng.normal(size=(d + 3, d - 2))
            low[-1, -1] = 1.0
            cases.append((f"low subspace d={d}", low, np.ones(d + 3, np.int64)))
        # rows u, v and 2u - v: exactly dependent as (u, tau) rows, with
        # cofactors of the dependent subsets that are nonzero in float
        u, v = _dyadic(rng, (2, d))
        noisy = np.vstack([u, v, 2 * u - v, _dyadic(rng, (d, d))])
        cases.append((f"dependent d={d}", noisy, np.ones(d + 3, np.int64)))
    for m, top in ((2, 5), (3, 4), (4, 5)):
        for units, mults in _lift_chain(m, top):
            cases.append((f"lift m={m} d={units.shape[1]}", units, mults))
    pinned = DirectionMultiset.from_vectors(TestExactBallVerifier.SAMPLING_MISSES)
    cases.append(("pinned 11", *pinned.as_arrays()))
    return [(name, u, w, tau) for name, u, w in cases for tau in (0.0, 1e-6)]


class TestExactSphereMinimum:
    @pytest.mark.parametrize(
        "name, units, mults, tau", _sphere_cases(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_matches_the_integer_reference(self, name, units, mults, tau):
        count, point, evaluated, _ = _exact_sphere_minimum(units, mults, tau)
        want_count, want_point, want_evaluated = reference_sphere_minimum(units, mults, tau)
        assert (count, evaluated) == (want_count, want_evaluated)
        assert point.tobytes() == want_point.tobytes()

    @pytest.mark.parametrize("chunk", [1, 200])
    def test_chunks_keep_the_first_least_candidate(self, monkeypatch, chunk):
        # subsets go through in chunks; a later chunk must not replace an
        # earlier candidate at the same count
        import illum.geometry as geometry

        monkeypatch.setattr(geometry, "_SIGN_CHUNK", chunk)
        for name, units, mults, tau in _sphere_cases():
            if name in ("+-e_i d=4", "lift m=2 d=5", "lift m=3 d=4", "dependent d=5"):
                count, point, evaluated, _ = _exact_sphere_minimum(units, mults, tau)
                want = reference_sphere_minimum(units, mults, tau)
                assert (count, point.tobytes(), evaluated) == (
                    want[0], want[1].tobytes(), want[2]
                ), name

    def test_cases_hit_every_exact_path(self):
        # the float filter leaves signs open, so the integer fallback runs
        for name, units, mults, tau in _sphere_cases():
            if name.startswith(("dependent d=5", "dependent d=6", "lift m=4 d=5")):
                assert _exact_sphere_minimum(units, mults, tau)[3] > 0, name

    def test_lift_chain_recomputes_few_signs(self):
        # known zeros (w at infinity, a candidate's own rows) are set, and
        # candidates that cannot be the first least one are not resolved
        total = sum(
            _exact_sphere_minimum(units, mults, 1e-6)[3]
            for m, top in ((2, 5), (3, 4))
            for units, mults in _lift_chain(m, top)
        )
        assert total <= 30  # 27 here; 34 or 57 with either kind of zero computed

    def test_row_signs_match_the_integer_signs(self):
        # on the cofactor vectors of every subset of the lift chains' rows,
        # and of rows with an exact dependence, each sign the filter decides
        # is the exact sign of <h, c>, and a subset's own rows are 0
        from itertools import combinations

        rng = np.random.default_rng(8)
        u, v = _dyadic(rng, (2, 4))
        dependent = np.vstack([u, v, 2 * u - v, _dyadic(rng, (3, 4))])
        cases = [*_lift_chain(2, 5), *_lift_chain(3, 4), (dependent, np.ones(6, np.int64))]
        opened = 0
        for units, mults in cases:
            d = units.shape[1]
            rows, frows, _ = _merged_rows(
                [(0.0,) * d + (1.0,), *((*u, 1e-6) for u in units.tolist())],
                [0, *mults.tolist()],
            )
            subsets = np.asarray(list(combinations(range(len(rows)), d)))
            c = _bounded_cofactors(frows[subsets])
            sign, open_ = _row_signs(c.val, c.err, frows, subsets)
            for s, subset in enumerate(subsets.tolist()):
                point = _cofactor_vector([rows[i] for i in subset])
                exact = np.sign([sum(x * y for x, y in zip(h, point)) for h in rows])
                assert (sign[s, subset] == 0).all() and not open_[s, subset].any()
                decided = ~open_[s]
                assert (sign[s, decided] == exact[decided]).all(), (d, subset)
            opened += int(open_.sum())
        assert opened > 0

    def test_row_signs_ignore_own_rows_past_the_last(self):
        # indices of helper planes past the weighted rows name no sign
        rng = np.random.default_rng(4)
        val, frows = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        err = np.full((5, 4), 1e-12)
        own = np.asarray([[0, 3], [4, 1], [5, 6], [2, 2], [9, 0]])
        sign, open_ = _row_signs(val, err, frows, own)
        want_sign, want_open = _row_signs(val, err, frows, own[:, :0])
        for s, row in enumerate(own.tolist()):
            for j in range(3):
                if j in row:
                    assert (sign[s, j], open_[s, j]) == (0, False)
                else:
                    assert (sign[s, j], open_[s, j]) == (want_sign[s, j], want_open[s, j])

    def test_cofactor_vector_matches_the_minors(self):
        rng = np.random.default_rng(3)
        for d in range(1, 7):
            for _ in range(40):
                rows = rng.integers(-3, 4, size=(d, d + 1))
                rows[:, rng.integers(0, d + 1)] *= rng.integers(0, 2)  # zero columns
                if d > 1 and rng.random() < 0.3:  # rank below d
                    rows[-1] = rows[0] * int(rng.integers(-2, 3))
                rows = [tuple(int(c) for c in r) for r in rows]
                assert _cofactor_vector(rows) == reference_cofactors(rows)


class TestExactSmoothVerifier:
    @pytest.mark.parametrize("axis", [1e308, np.float64(1e308), np.float64(1.4e154)])
    def test_overflowing_semi_axes_rejected_without_warning(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                ellipse_body(axis, 1.0)

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
