import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from illum import piercing
from illum.errors import DomainError, GeometryInternalError
from illum.geometry import (
    _primitive_ray,
    angle_sort_key,
    cross2,
    dot,
    in_open_arc,
    verify_mfold,
)
from illum.piercing import (
    Arc,
    ArcSystem,
    _concretize_slot,
    _membership,
    _nearest_covering,
    _slot_intervals,
    _slot_order,
    certificate_lower_bound,
    min_mfold_pierce,
    min_mfold_pierce_bruteforce,
    verify_piercing,
)
from illum.polygons import (
    illumination_number_polygon,
    polygon_piercing_solution,
    regular_polygon_number,
    regular_polygon_rational,
    vertex_arcs,
)

from conftest import limit_denominator_polygon, random_convex_polygon, random_direction_2d
from test_arc_systems import random_arc_system


class TestArc:
    def test_rejects_degenerate_endpoints(self):
        with pytest.raises(DomainError):
            Arc(start=(1, 0), end=(2, 0))
        with pytest.raises(DomainError):
            Arc(start=(1, 0), end=(0, 0))

    def test_slot_membership_is_halfopen(self):
        quarter = Arc(start=(1, 0), end=(0, 1))
        assert quarter.contains_slot((1, 0))  # own start
        assert quarter.contains_slot((2, 1))
        assert not quarter.contains_slot((0, 1))  # open at the end
        assert not quarter.contains_slot((-1, 0))

    def test_open_membership(self):
        quarter = Arc(start=(1, 0), end=(0, 1))
        assert quarter.contains_direction((1, 1))
        assert not quarter.contains_direction((1, 0))
        assert not quarter.contains_direction((0, 1))

    def test_long_arc_membership(self):
        # three-quarter arc from (1,0) CCW to (0,-1)
        arc = Arc(start=(1, 0), end=(0, -1))
        assert arc.contains_direction((-1, 0))
        assert arc.contains_direction((0, 1))
        assert not arc.contains_direction((1, -1))

    def test_length(self):
        assert abs(Arc(start=(1, 0), end=(0, 1)).length() - np.pi / 2) < 1e-12
        assert abs(Arc(start=(1, 0), end=(0, -1)).length() - 3 * np.pi / 2) < 1e-12


class TestSolverFrozenValues:
    def test_square_is_4m(self):
        square = regular_polygon_rational(4)
        for m in range(1, 5):
            assert illumination_number_polygon(square, m) == 4 * m

    def test_triangle_is_3m(self):
        triangle = regular_polygon_rational(3)
        for m in range(1, 5):
            assert illumination_number_polygon(triangle, m) == 3 * m

    def test_pentagon_m1_is_3(self):
        assert illumination_number_polygon(regular_polygon_rational(5), 1) == 3

    def test_hexagon_m1_is_3(self):
        assert illumination_number_polygon(regular_polygon_rational(6), 1) == 3

    def test_regular_7gon_m3_is_7(self):
        assert illumination_number_polygon(regular_polygon_rational(7), 3) == 7


class TestSolverOnRandomPolygons:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, 3))
            system = vertex_arcs(random_convex_polygon(rng, n))
            assert min_mfold_pierce(system, m).size == min_mfold_pierce_bruteforce(
                system, m
            )

    def test_solution_re_verifies_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, 4))
            poly = random_convex_polygon(rng, n)
            system = vertex_arcs(poly)
            solution = min_mfold_pierce(system, m)
            assert verify_piercing(system, solution, m)
            report = verify_mfold(poly, solution.as_direction_multiset(), m)
            assert report.passed

    def test_certificate_bound_matches_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, 4))
            system = vertex_arcs(random_convex_polygon(rng, n))
            solution = min_mfold_pierce(system, m)
            assert solution.certificate["bound"] == solution.size
            assert (
                certificate_lower_bound(system, solution.certificate, m)
                == solution.size
            )
            assert "anchor_arc" in solution.certificate

    def test_directions_are_exact_rationals(self):
        poly = regular_polygon_rational(5)
        solution = polygon_piercing_solution(poly, 2)
        for d in solution.directions:
            assert isinstance(d[0], Fraction) and isinstance(d[1], Fraction)

    def test_solver_never_below_universal_bound(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            poly = random_convex_polygon(rng, n)
            for m in (1, 2, 3):
                assert illumination_number_polygon(poly, m) >= 2 * m + 1


class TestGreedyChain:
    @pytest.mark.parametrize("n", [*range(3, 61), 200, 499, 1000])
    def test_regular_density_is_the_formula(self, n):
        system = vertex_arcs(regular_polygon_rational(n))
        for m in (1, 3) if n <= 60 else (3,):
            solution = min_mfold_pierce(system, m)
            chain, wraps = solution.certificate["chain"], solution.certificate["wraps"]
            assert Fraction(len(chain), wraps) == Fraction(n, (n - 1) // 2)
            assert solution.size == regular_polygon_number(n, m)

    def test_one_feasibility_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return feasible(*args)

        feasible = piercing._feasible
        monkeypatch.setattr(piercing, "_feasible", counting)
        rng = np.random.default_rng(8)
        for _ in range(20):
            system = vertex_arcs(random_convex_polygon(rng, int(rng.integers(3, 11))))
            calls.clear()
            solution = min_mfold_pierce(system, 2)
            assert len(calls) == 1 and calls[0][-1] == solution.size

    def test_total_below_the_bound_is_an_internal_error(self):
        system = vertex_arcs(regular_polygon_rational(7))
        _, intervals = _slot_intervals(system.arcs)
        assert sum(piercing._feasible(intervals, 7, 3, 7)) == 7
        with pytest.raises(GeometryInternalError):
            piercing._feasible(intervals, 7, 3, 6)


class TestBruteForceGuard:
    def test_guard(self):
        system = vertex_arcs(regular_polygon_rational(10))
        with pytest.raises(DomainError):
            min_mfold_pierce_bruteforce(system, 1)


class TestRegularTableAgainstFormula:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_all_m(self, n):
        poly = regular_polygon_rational(n)
        for m in range(1, 5):
            assert illumination_number_polygon(poly, m) == regular_polygon_number(n, m)


# --------------------------------------------------------------------------
# integer slot intervals and slot concretization against the Fraction
# membership table they replace
# --------------------------------------------------------------------------

def reference_intervals(member):
    """Cyclic slot interval of every arc from the full membership table."""
    n = len(member[0])
    out = []
    for row in member:
        count = sum(row)
        if count == 0:
            raise GeometryInternalError("arc contains no canonical slot")
        if count == n:
            out.append((0, n - 1))
            continue
        l = next(k for k in range(n) if row[k] and not row[(k - 1) % n])
        if not all(row[(l + j) % n] for j in range(count)):
            raise GeometryInternalError("arc slot membership is not contiguous")
        out.append((l, (l + count - 1) % n))
    return out


def reference_slot_intervals(arcs):
    """The binary-search form of ``_slot_intervals``: each arc's first slot
    and the starts before its end by ``bisect_left`` over the sorted starts."""
    n = len(arcs)
    keys = [angle_sort_key(arc.rays[0]) for arc in arcs]
    order = sorted(range(n), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in order]
    intervals = []
    for i, arc in enumerate(arcs):
        l = bisect_left(sorted_keys, keys[i])
        count = (bisect_left(sorted_keys, angle_sort_key(arc.rays[1])) - l) % n or n
        intervals.append((0, n - 1) if count == n else (l, (l + count - 1) % n))
    return order, intervals


def shared_ray_system(rng):
    """Arcs on a pool of a few directions, each endpoint a random positive
    multiple of one, so starts repeat, ends repeat and ends land on starts;
    some arcs end just clockwise of their own start and hold every slot."""
    pool = list({_primitive_ray(random_direction_2d(rng, 5)) for _ in range(6)})
    arcs, n = [], int(rng.integers(1, 13))
    while len(arcs) < n:
        (sx, sy), (ex, ey) = (pool[int(i)] for i in rng.integers(0, len(pool), 2))
        if rng.integers(0, 4) == 0:
            ex, ey = 60 * sx + sy, 60 * sy - sx  # just clockwise of the start
        a, b = (int(c) for c in rng.integers(1, 5, 2))
        try:
            arcs.append(Arc(start=(a * sx, a * sy), end=(b * ex, b * ey)))
        except DomainError:
            continue
    return ArcSystem(arcs=arcs)


def reference_concretize(system, arc_idx, covering):
    """Fraction rotation loop: halve t until every strict membership holds."""
    x, y = system.arcs[arc_idx].start
    t = Fraction(1, 4)
    for _ in range(256):
        w = ((1 - t * t) * x - 2 * t * y, 2 * t * x + (1 - t * t) * y)
        if all(system.arcs[i].contains_direction(w) for i in covering):
            return w
        t /= 2
    raise GeometryInternalError("failed to concretize a piercing slot")


def reference_certificate_lower_bound(system, certificate, m):
    """Chain coverage probed just past every arc endpoint of the system."""
    chain = [system.arcs[i] for i in certificate["chain"]]
    probes = [ray for arc in system.arcs for ray in arc.rays]
    cover = max(sum(1 for arc in chain if arc.contains_slot(p)) for p in probes)
    if cover == 0:
        raise GeometryInternalError("certificate chain covers nothing")
    return math.ceil(len(chain) * m / cover)


def nearest_covering_end(system, arc_idx, covering):
    """The covering end ray at the smallest CCW offset from the slot's start,
    by float angle (the rays here are far apart in float terms)."""
    s = system.arcs[arc_idx].rays[0]

    def offset(ray):
        return (math.atan2(cross2(s, ray), dot(s, ray))) % (2 * math.pi)

    return min((system.arcs[i].rays[1] for i in covering), key=offset)


def random_rational_direction(rng):
    while True:
        v = tuple(
            Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 50)))
            for _ in range(2)
        )
        if v != (0, 0):
            return v


def random_rational_system(rng, n):
    arcs = []
    while len(arcs) < n:
        try:
            arcs.append(
                Arc(start=random_rational_direction(rng),
                    end=random_rational_direction(rng))
            )
        except DomainError:
            continue
    return ArcSystem(arcs=arcs)


def with_shared_directions(rng, system):
    """Copy of ``system`` where some starts repeat another arc's start
    direction and some ends hit another arc's start direction, each as a
    different positive multiple."""
    arcs = list(system.arcs)
    n = len(arcs)
    for _ in range(n):
        i, j = (int(c) for c in rng.integers(0, n, 2))
        factor = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        start, end = arcs[i].start, arcs[i].end
        shared = (arcs[j].start[0] * factor, arcs[j].start[1] * factor)
        if rng.integers(0, 2):
            start = shared
        else:
            end = shared
        try:
            arcs[i] = Arc(start=start, end=end)
        except DomainError:
            continue
    return ArcSystem(arcs=arcs)


# [start, end) holds every slot: without wrap (first start to past the last)
# and with wrap (the end just before the own start)
FULL_CIRCLE = ArcSystem(
    arcs=[Arc(start=(1, 0), end=(1, -1)),
          Arc(start=(0, 1), end=(1, 1)),
          Arc(start=(-1, 0), end=(-1, 1))]
)


def edge_case_systems():
    rng = np.random.default_rng(2718)
    systems = [random_arc_system(rng, int(rng.integers(1, 12))) for _ in range(60)]
    systems += [random_rational_system(rng, int(rng.integers(2, 12))) for _ in range(30)]
    systems += [with_shared_directions(rng, s) for s in list(systems)]
    systems += [
        # duplicate start directions, one arc longer than pi
        ArcSystem(arcs=[Arc(start=(1, 0), end=(0, 1)),
                        Arc(start=(2, 0), end=(-1, -1)),
                        Arc(start=(Fraction(1, 3), 0), end=(0, -1)),
                        Arc(start=(-1, -1), end=(1, -1))]),
        # every end is another arc's start direction
        ArcSystem(arcs=[Arc(start=(1, 0), end=(0, 2)),
                        Arc(start=(0, 1), end=(-3, 0)),
                        Arc(start=(-1, 0), end=(0, -1)),
                        Arc(start=(0, -1), end=(5, 0))]),
        FULL_CIRCLE,
        # a single arc, and two arcs on one start direction
        ArcSystem(arcs=[Arc(start=(1, 0), end=(0, 1))]),
        ArcSystem(arcs=[Arc(start=(0, 1), end=(1, 0)), Arc(start=(0, 7), end=(-1, 0))]),
        # large-denominator endpoints
        vertex_arcs(limit_denominator_polygon(200)),
        vertex_arcs(regular_polygon_rational(201)),
    ]
    return systems


@pytest.fixture(scope="module")
def edge_cases():
    """(system, slot order, Fraction membership table) per edge-case system."""
    cases = []
    for system in edge_case_systems():
        order = _slot_order(system)
        cases.append((system, order, _membership(system, order)))
    return cases


class TestPrimitiveRay:
    def test_positive_primitive_multiple(self):
        rng = np.random.default_rng(5)
        vectors = [random_rational_direction(rng) for _ in range(300)]
        vectors += [(Fraction(-4), Fraction(0)), (Fraction(0), Fraction(-3, 7))]
        for v in vectors:
            iv = _primitive_ray(v)
            assert all(type(c) is int for c in iv)
            assert cross2(v, iv) == 0 and dot(v, iv) > 0
            assert math.gcd(*iv) == 1

    def test_float_rows_in_three_dimensions(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(200, 3))
        rows[::7, 1] = 0.0
        for row in rows.tolist():
            ray = _primitive_ray(row)
            assert _primitive_ray(tuple(np.asarray(row))) == ray  # numpy scalars
            assert all(type(c) is int for c in ray) and math.gcd(*ray) == 1
            exact = [Fraction(c) for c in row]
            # a positive multiple: all 2x2 minors vanish, positive dot
            assert all(
                exact[i] * ray[j] == exact[j] * ray[i]
                for i in range(3) for j in range(i + 1, 3)
            )
            assert dot(exact, ray) > 0
        scaled = (rows[0] * 0.5).tolist()
        assert _primitive_ray(scaled) == _primitive_ray(rows[0].tolist())

    def test_zero_vector_is_rejected(self):
        for zero in [(0, 0), (Fraction(0), 0.0, 0), [0.0, -0.0, 0.0, 0.0]]:
            with pytest.raises(DomainError):
                _primitive_ray(zero)


class TestSlotIntervals:
    def test_systems_cover_the_edge_cases(self, edge_cases):
        has_dup_start = has_end_on_start = has_long = has_full = has_wrap = False
        for system, _, member in edge_cases:
            starts = [a.rays[0] for a in system.arcs]
            ends = [a.rays[1] for a in system.arcs]
            has_dup_start |= len(set(starts)) < len(starts)
            has_end_on_start |= bool(set(starts) & set(ends))
            has_long |= any(a.length() > math.pi for a in system.arcs)
            has_full |= any(all(row) for row in member) and system.n > 1
            has_wrap |= any(l > r for l, r in reference_intervals(member))
        assert has_dup_start and has_end_on_start and has_long
        assert has_full and has_wrap

    def test_matches_membership_table(self, edge_cases):
        for system, order, member in edge_cases:
            assert _slot_intervals(system.arcs) == (
                order, reference_intervals(member)
            )

    def test_full_circle_intervals(self):
        assert _slot_intervals(FULL_CIRCLE.arcs)[1] == [(0, 2)] * 3


    def test_merge_matches_binary_search(self, edge_cases):
        for system, _, _ in edge_cases:
            assert _slot_intervals(system.arcs) == reference_slot_intervals(system.arcs)

    def test_merge_matches_binary_search_on_shared_rays(self):
        rng = np.random.default_rng(4242)
        dup_start = dup_end = end_on_start = full = 0
        for _ in range(100):
            system = shared_ray_system(rng)
            order, intervals = reference_slot_intervals(system.arcs)
            assert _slot_intervals(system.arcs) == (order, intervals)
            starts = [a.rays[0] for a in system.arcs]
            ends = [a.rays[1] for a in system.arcs]
            dup_start += len(set(starts)) < len(starts)
            dup_end += len(set(ends)) < len(ends)
            end_on_start += bool(set(starts) & set(ends))
            full += system.n > 1 and (0, system.n - 1) in intervals
        assert min(dup_start, dup_end, end_on_start, full) >= 10


def swept_nearest(system, slots=None):
    """The sweep's nearest covering arc of every slot (or of ``slots``)."""
    order, intervals = _slot_intervals(system.arcs)
    slots = range(system.n) if slots is None else slots
    return list(_nearest_covering(system.arcs, order, intervals, slots))


def assert_sweep_matches_scan(system, order, member):
    nearest = swept_nearest(system)
    for k, (arc_idx, near) in enumerate(zip(order, nearest)):
        covering = [i for i in range(system.n) if member[i][k]]
        assert member[near][k]
        assert system.arcs[near].rays[1] == nearest_covering_end(system, arc_idx, covering)


class TestNearestCoveringSweep:
    def test_matches_scan_on_edge_cases(self, edge_cases):
        for system, order, member in edge_cases:
            assert_sweep_matches_scan(system, order, member)

    def test_matches_scan_on_random_systems(self):
        # long, wrapping and duplicate-start arcs, and full-circle arcs whose
        # first slot is not 0 (stored as (0, n - 1) all the same)
        rng = np.random.default_rng(8128)
        long = wrap = dup_start = full_late = 0
        for _ in range(300):
            if rng.integers(0, 2):
                system = shared_ray_system(rng)
            else:
                system = random_arc_system(rng, int(rng.integers(1, 14)))
            order = _slot_order(system)
            member = _membership(system, order)
            assert_sweep_matches_scan(system, order, member)
            slots = sorted(set(rng.integers(0, system.n, system.n).tolist()))
            every = swept_nearest(system)
            assert swept_nearest(system, slots) == [every[k] for k in slots]
            n, intervals = system.n, _slot_intervals(system.arcs)[1]
            starts = [a.rays[0] for a in system.arcs]
            long += any(a.length() > math.pi for a in system.arcs)
            wrap += any(l > r for l, r in intervals)
            dup_start += len(set(starts)) < n
            full_late += any(
                all(member[i]) and starts[i] != starts[order[0]] for i in range(n)
            )
        assert min(long, wrap, dup_start, full_late) >= 10


class TestConcretizeSlot:
    def test_matches_fraction_rotation(self, edge_cases):
        for system, order, member in edge_cases:
            if system.n > 60:
                continue
            intervals, nearest = _slot_intervals(system.arcs)[1], swept_nearest(system)
            for k, arc_idx in enumerate(order):
                covering = [i for i in range(system.n) if member[i][k]]
                got = _concretize_slot(system, k, order, intervals, nearest[k])
                assert got == reference_concretize(system, arc_idx, covering)
                assert all(type(c) is Fraction for c in got)

    def test_edge_cases_reach_the_wrap_fallback(self, edge_cases):
        # a slot whose first accepted rotation lies past the nearest covering
        # end, back inside that end's arc: only testing every covering arc
        # accepts it there
        wraps = 0
        for system, order, member in edge_cases:
            if system.n > 60:
                continue
            for k, arc_idx in enumerate(order):
                covering = [i for i in range(system.n) if member[i][k]]
                s = system.arcs[arc_idx].rays[0]
                end = nearest_covering_end(system, arc_idx, covering)
                w = reference_concretize(system, arc_idx, covering)
                wraps += not in_open_arc(s, end, w)
        assert wraps > 0

    def test_solution_slots_match_reference(self, edge_cases):
        for system, order, member in edge_cases:
            for m in (1, 3):
                solution = min_mfold_pierce(system, m)
                assert verify_piercing(system, solution, m)
                for d, (arc_idx, _) in zip(solution.directions, solution.slots):
                    k = order.index(arc_idx)
                    covering = [i for i in range(system.n) if member[i][k]]
                    assert d == reference_concretize(system, arc_idx, covering)


class TestCertificateSweep:
    """The endpoint sweep against the probe-every-endpoint reference, on the
    solver's chains and on arbitrary chains (repeats and arcs that share
    endpoints included), where the maximum coverage is rarely 1."""

    def systems(self, edge_cases):
        rng = np.random.default_rng(99)
        systems = [system for system, _, _ in edge_cases if system.n <= 60]
        systems += [random_arc_system(rng, int(rng.integers(1, 14))) for _ in range(60)]
        systems += [vertex_arcs(random_convex_polygon(rng, int(rng.integers(3, 30))))
                    for _ in range(40)]
        systems += [vertex_arcs(regular_polygon_rational(n)) for n in (4, 9, 10, 40)]
        return rng, systems

    def test_solver_chains_match_reference(self, edge_cases):
        _, systems = self.systems(edge_cases)
        for system in systems:
            for m in (1, 2, 5):
                certificate = min_mfold_pierce(system, m).certificate
                assert certificate_lower_bound(system, certificate, m) == (
                    reference_certificate_lower_bound(system, certificate, m)
                )

    def test_arbitrary_chains_match_reference(self, edge_cases):
        rng, systems = self.systems(edge_cases)
        for system in systems:
            for _ in range(5):
                chain = rng.integers(0, system.n, int(rng.integers(1, 2 * system.n + 1)))
                certificate = {"chain": chain.tolist()}
                for m in (1, 3):
                    assert certificate_lower_bound(system, certificate, m) == (
                        reference_certificate_lower_bound(system, certificate, m)
                    )
