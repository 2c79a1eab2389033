"""Solver stress tests on arc systems that do not come from polygons:
wild lengths, wrap-around coverage runs, duplicate start directions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from illum.geometry import verify_mfold
from illum.piercing import (
    Arc,
    ArcSystem,
    certificate_lower_bound,
    min_mfold_pierce,
    min_mfold_pierce_bruteforce,
    verify_piercing,
)

from conftest import random_direction_2d


def random_arc_system(rng, n):
    arcs = []
    while len(arcs) < n:
        start = random_direction_2d(rng)
        end = random_direction_2d(rng)
        try:
            arcs.append(Arc(start=start, end=end))
        except Exception:
            continue
    return ArcSystem(arcs=arcs)


class TestGenericArcSystems:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(314)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 4))
            system = random_arc_system(rng, n)
            solution = min_mfold_pierce(system, m)
            assert solution.size == min_mfold_pierce_bruteforce(system, m)
            assert verify_piercing(system, solution, m)
            assert certificate_lower_bound(
                system, solution.certificate, m
            ) == solution.size

    def test_one_chain_for_every_m(self):
        # the greedy chain does not depend on m, and its density k/w gives
        # the optimum ceil(m*k/w) for every m
        rng = np.random.default_rng(1618)
        for _ in range(150):
            system = random_arc_system(rng, int(rng.integers(1, 14)))
            first = min_mfold_pierce(system, 1).certificate
            chain, wraps = first["chain"], first["wraps"]
            for m in range(1, 9):
                solution = min_mfold_pierce(system, m)
                assert solution.certificate["chain"] == chain
                assert solution.certificate["wraps"] == wraps
                assert solution.size == math.ceil(Fraction(m * len(chain), wraps))
                assert verify_piercing(system, solution, m)

    def test_duplicate_start_directions(self):
        # two arcs share a start, one much longer than the other
        system = ArcSystem(
            arcs=[
                Arc(start=(1, 0), end=(0, 1)),
                Arc(start=(2, 0), end=(-1, 1)),
                Arc(start=(-1, -1), end=(1, -1)),
            ]
        )
        solution = min_mfold_pierce(system, 2)
        assert verify_piercing(system, solution, 2)
        assert solution.size == min_mfold_pierce_bruteforce(system, 2)

    def test_near_full_circle_arcs(self):
        # every arc sees every slot: m points anywhere suffice
        system = ArcSystem(
            arcs=[
                Arc(start=(1, 0), end=(1, -1)),
                Arc(start=(0, 1), end=(1, 1)),
                Arc(start=(-1, 0), end=(-1, 1)),
            ]
        )
        for m in (1, 2, 3):
            assert min_mfold_pierce(system, m).size == m

    def test_disjoint_arcs_need_separate_points(self):
        quadrants = [
            Arc(start=(1, 1), end=(-1, 1)),
            Arc(start=(-1, 1), end=(-1, -1)),
            Arc(start=(-1, -1), end=(1, -1)),
            Arc(start=(1, -1), end=(1, 1)),
        ]
        system = ArcSystem(arcs=quadrants)
        for m in (1, 2):
            assert min_mfold_pierce(system, m).size == 4 * m

    def test_single_arc(self):
        system = ArcSystem(arcs=[Arc(start=(1, 0), end=(0, 1))])
        solution = min_mfold_pierce(system, 3)
        assert solution.size == 3
        assert solution.certificate["bound"] == 3

    def test_concrete_directions_stay_rational(self):
        rng = np.random.default_rng(271)
        system = random_arc_system(rng, 5)
        solution = min_mfold_pierce(system, 2)
        for d in solution.directions:
            assert isinstance(d[0], Fraction) and isinstance(d[1], Fraction)


class TestSkewedPolygons:
    def test_thin_sliver_triangles(self):
        from illum.geometry import ConvexPolygon
        from illum.polygons import illumination_number_polygon, vertex_arcs

        for height in (Fraction(1, 10**6), Fraction(1, 10**12)):
            sliver = ConvexPolygon([(0, 0), (10**6, height), (0, 1)])
            for m in (1, 2, 3):
                assert illumination_number_polygon(sliver, m) == 3 * m
            system = vertex_arcs(sliver)
            solution = min_mfold_pierce(system, 2)
            assert verify_piercing(system, solution, 2)
            assert verify_mfold(sliver, solution.as_direction_multiset(), 2).passed

    @pytest.mark.parametrize("exponent", [100, 400])
    def test_huge_lattice_slivers(self, exponent):
        # arcs of angle about 10**-exponent at the long vertex; the slot
        # rotation needs as many doublings as the endpoints have bits
        from illum.geometry import ConvexPolygon
        from illum.polygons import vertex_arcs

        system = vertex_arcs(ConvexPolygon([(0, 0), (10**exponent, 0), (0, 1)]))
        for m in (1, 2):
            solution = min_mfold_pierce(system, m)
            assert solution.size == 3 * m
            assert verify_piercing(system, solution, m)
