"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -v -s`` to see
them live) and enforces the stated tolerance and time budget.
"""

import math
import time

import numpy as np

from illum.balls import b3_direction_multiset, recursive_ball_construction
from illum.capbody import (
    CapBodySpec,
    b3_capbody_directions,
    b3_prism_apexes,
    cap_body_number_top_bottom,
    cap_body_number_top_only,
)
from illum.geometry import (
    Ball,
    ConvexPolygon,
    Tolerance,
    ellipse_body,
    unit_circle_body,
    verify_mfold,
)
from illum.lemmas import run_lemma_suite
from illum.piercing import min_mfold_pierce_bruteforce
from illum.polygons import (
    illumination_number_polygon,
    lower_bound,
    regular_polygon_number,
    regular_polygon_rational,
    smooth_2d_directions,
    vertex_arcs,
)

from conftest import random_convex_polygon


def _conclude(num, desc, ok, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    budget_txt = f" / budget {budget:.0f}s" if budget else ""
    line = f"[{verdict}] criterion {num}: {desc} ({elapsed:.2f}s{budget_txt})"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, line


def test_criterion_01_regular_polygon_table():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 13):
        poly = regular_polygon_rational(n)
        for m in range(1, 5):
            if illumination_number_polygon(poly, m) != regular_polygon_number(n, m):
                ok = False
    _conclude(1, "regular polygon table n in [3,12], m in [1,4]",
              ok, time.perf_counter() - t0, 10)


def test_criterion_02_triangle_and_square():
    t0 = time.perf_counter()
    triangle = ConvexPolygon([(0, 0), (3, 0), (1, 2)])
    square = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    ok = all(
        illumination_number_polygon(triangle, m) == 3 * m
        and illumination_number_polygon(square, m) == 4 * m
        for m in range(1, 5)
    )
    _conclude(2, "triangle gives 3m, square gives 4m for m in [1,4]",
              ok, time.perf_counter() - t0, 1)


def test_criterion_03_smooth_bodies():
    t0 = time.perf_counter()
    tol = Tolerance(margin=1e-6)
    ok = True
    for body in (unit_circle_body(), ellipse_body(2, 1)):
        for m in range(1, 5):
            multiset = smooth_2d_directions(body, m)
            if multiset.total != 2 * m + 1:
                ok = False
            if not verify_mfold(body, multiset, m, tol).passed:
                ok = False
    _conclude(3, "smooth 2D bodies: 2m+1 directions verify exactly at tau=1e-6",
              ok, time.perf_counter() - t0, 5)


def test_criterion_04_b3_construction():
    t0 = time.perf_counter()
    tol = Tolerance(margin=1e-8)
    ok = True
    for m in range(1, 5):
        multiset = b3_direction_multiset(m)
        if multiset.total != 2 * m + 1 + math.ceil(m / 2):
            ok = False
        if not verify_mfold(Ball(3), multiset, m, tol).passed:
            ok = False
    _conclude(4, "3-ball construction sizes and exact verification at tau=1e-8",
              ok, time.perf_counter() - t0, 10)


def test_criterion_05_m2_ball3_pinch():
    t0 = time.perf_counter()
    multiset = b3_direction_multiset(2)
    verified = verify_mfold(
        Ball(3), multiset, 2, Tolerance(margin=1e-8)
    ).passed
    ok = lower_bound(2, 3) == 6 and multiset.total == 6 and verified
    _conclude(5, "two-fold number of the 3-ball pinched to exactly 6",
              ok, time.perf_counter() - t0)


def test_criterion_06_stereographic_lift():
    t0 = time.perf_counter()
    tol = Tolerance(margin=1e-8)
    ok = True
    for m, want in ((1, 5), (2, 8)):
        multiset = recursive_ball_construction(m, 4)
        if multiset.total != want:
            ok = False
        if not verify_mfold(Ball(4), multiset, m, tol).passed:
            ok = False
    _conclude(6, "lifted 4-ball multisets (sizes 5 and 8) verify exactly at tau=1e-8",
              ok, time.perf_counter() - t0, 120)


def test_criterion_07_cap_body_formulas():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5, 6):
        for m in (1, 2):
            for with_bottom in (False, True):
                want = (
                    cap_body_number_top_bottom(n, m)
                    if with_bottom
                    else cap_body_number_top_only(n, m)
                )
                multiset = b3_capbody_directions(n, m, with_bottom=with_bottom)
                if multiset.total != want:
                    ok = False
                spec = CapBodySpec(3, b3_prism_apexes(n, with_bottom))
                if not verify_mfold(spec, multiset, m).passed:
                    ok = False
                if with_bottom and n == 4 and multiset.total != 6 * m:
                    ok = False
    _conclude(7, "prism cap-body multisets match the formulas (bipyramid = 6m)",
              ok, time.perf_counter() - t0, 60)


def test_criterion_08_lemma_ledger():
    t0 = time.perf_counter()
    results = run_lemma_suite(20250810)
    failures = [r.name for r in results if not r.passed]
    _conclude(8, f"structure-lemma ledger at fixed seed ({len(results)} checks)",
              not failures, time.perf_counter() - t0, 60)


def test_criterion_09_random_polygon_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250810)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        poly = random_convex_polygon(rng, n)
        values = {m: illumination_number_polygon(poly, m) for m in (1, 2, 3)}
        if any(values[m] < 2 * m + 1 for m in (1, 2, 3)):
            ok = False
        if values[3] > values[1] + values[2] or values[2] > 2 * values[1]:
            ok = False
        if values[2] > 2 * values[1] or values[3] > 3 * values[1]:
            ok = False
    _conclude(9, "1000 random polygons: lower bound, sub-additivity, m-scaling",
              ok, time.perf_counter() - t0, 120)


def test_criterion_10_solver_vs_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 3))
        system = vertex_arcs(random_convex_polygon(rng, n))
        from illum.piercing import min_mfold_pierce

        if min_mfold_pierce(system, m).size != min_mfold_pierce_bruteforce(system, m):
            ok = False
    _conclude(10, "solver optimum equals brute force on 100 random polygons",
              ok, time.perf_counter() - t0, 120)
