import math

import numpy as np
import pytest

from illum.balls import (
    b3_direction_multiset,
    b3_eps_bound,
    ball_upper_bound,
    inverse_stereographic,
    lift_directions,
    recursive_ball_construction,
)
from illum.errors import DomainError, PreconditionViolation
from illum.geometry import (
    Ball,
    Direction,
    DirectionMultiset,
    Tolerance,
    verify_mfold,
)
from illum.geometry import unit_circle_body
from illum.polygons import lower_bound, smooth_2d_directions


class TestUpperBoundFormula:
    def test_values(self):
        assert ball_upper_bound(1, 3) == 4
        assert ball_upper_bound(2, 3) == 6
        assert ball_upper_bound(2, 4) == 8

    def test_domain(self):
        with pytest.raises(DomainError):
            ball_upper_bound(1, 2)
        with pytest.raises(DomainError):
            ball_upper_bound(0, 3)

    def test_pinch_at_m2_d3(self):
        assert ball_upper_bound(2, 3) == lower_bound(2, 3) == 6


class TestB3Construction:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_size_and_verification(self, m):
        multiset = b3_direction_multiset(m)
        assert multiset.total == 2 * m + 1 + -(-m // 2)
        report = verify_mfold(
            Ball(3), multiset, m, Tolerance(margin=1e-8)
        )
        assert report.passed

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            b3_direction_multiset(2, eps=b3_eps_bound(2))
        with pytest.raises(DomainError):
            b3_direction_multiset(2, eps=0.0)

    def test_vertical_components_alternate(self):
        eps = 0.2
        multiset = b3_direction_multiset(2, eps=eps)
        vertical = [d.coords[2] for d, _ in multiset.entries[:-1]]
        assert vertical == [
            -eps * eps, eps, -eps * eps, eps, -eps * eps
        ]


class TestStereographic:
    def test_origin_maps_to_south_pole(self):
        assert np.allclose(inverse_stereographic([0, 0, 0]), [0, 0, 0, -1])

    def test_unit_circle_fixed(self):
        y = inverse_stereographic([1, 0])
        assert np.allclose(y, [1, 0, 0])

    def test_frozen_example(self):
        assert np.allclose(inverse_stereographic([3, 0, 0]), [0.6, 0, 0, 0.8])
        assert abs(np.linalg.norm(inverse_stereographic([3, 0, 0])) - 1) < 1e-12


def _cross_polytope(d):
    return DirectionMultiset.from_vectors(
        [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    )


def _regular_fan(m):
    k = 2 * m + 1
    angles = [2 * math.pi * i / k for i in range(k)]
    return DirectionMultiset.from_vectors([(math.cos(a), math.sin(a)) for a in angles])


LIFT_CASES = (
    [(b3_direction_multiset(m), m) for m in (1, 2, 3, 4)]
    + [(_cross_polytope(d), 1) for d in (2, 3, 4, 5)]
    + [(_regular_fan(m), m) for m in (1, 2, 3, 4)]
)
LIFT_IDS = (
    [f"b3-m{m}" for m in (1, 2, 3, 4)]
    + [f"cross-d{d}" for d in (2, 3, 4, 5)]
    + [f"fan-m{m}" for m in (1, 2, 3, 4)]
)


def _lower_hemisphere(d, rng, n=20_000):
    """Sampled points (y', t) of the d-sphere with t <= 0, plus the south
    pole and points on the equator."""
    y = rng.normal(size=(n, d + 1))
    y[: n // 4, -1] = 0.0
    y[-1] = 0.0
    y[-1, -1] = -1.0
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    y[:, -1] = -np.abs(y[:, -1])
    return y


class TestCovering:
    """The tilted directions (w, 1) are the lifts of the translates at
    -delta*w of the paper's m-fold cover: without the down copies they
    light every point of the closed lower hemisphere m times."""

    def test_b3_m1_gives_four_translates(self):
        lifted = lift_directions(b3_direction_multiset(1), 1)
        units, mults = lifted.as_arrays()
        up = units[:, -1] > 0
        assert int(mults[up].sum()) == 4
        y = _lower_hemisphere(3, np.random.default_rng(3))
        counts = ((y @ units[up].T) < -1e-9) @ mults[up]
        assert counts.min() >= 1

    def test_planar_three_translates(self):
        multiset = smooth_2d_directions(unit_circle_body(), 1)
        lifted = lift_directions(multiset, 1)
        units, mults = lifted.as_arrays()
        up = units[:, -1] > 0
        assert int(mults[up].sum()) == 3 and lifted.total == 4
        y = _lower_hemisphere(2, np.random.default_rng(4))
        counts = ((y @ units[up].T) < -1e-9) @ mults[up]
        assert counts.min() >= 1

    def test_unverified_multiset_rejected(self):
        two = DirectionMultiset.from_vectors([(1.0, 0.0), (-1.0, 0.0)])
        with pytest.raises(PreconditionViolation):
            lift_directions(two, 1)


class TestLift:
    def test_lift_of_b3_m1(self):
        lifted = lift_directions(b3_direction_multiset(1), 1)
        assert lifted.dim == 4 and lifted.total == 5
        report = verify_mfold(Ball(4), lifted, 1, Tolerance(margin=1e-8))
        assert report.passed

    def test_bad_cover_rejected(self):
        # the regular 3-fan lights the disk once, not twice
        with pytest.raises(PreconditionViolation):
            lift_directions(_regular_fan(1), 2)

    def test_tilt_is_the_stereographic_lift(self):
        # the disk at -delta*w, delta = sqrt(3) - 1, lifts onto the cap
        # <(w, 1), y> < (1 - sqrt(3)) / 2, which (w, 1) lights
        rng = np.random.default_rng(12)
        delta = math.sqrt(3) - 1
        for _ in range(20):
            d = int(rng.integers(2, 6))
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            multiset = DirectionMultiset(
                [(Direction(tuple(w)), 1), *_cross_polytope(d).entries]
            )
            v = np.asarray(lift_directions(multiset, 1).entries[0][0].coords)
            for _ in range(10):
                e = rng.normal(size=d)
                e /= np.linalg.norm(e)
                level = inverse_stereographic(-delta * w + e) @ v
                assert abs(level - (1 - math.sqrt(3)) / 2) < 1e-12
                inner = inverse_stereographic(-delta * w + rng.uniform(0, 1) * e)
                assert inner @ v < (1 - math.sqrt(3)) / 2 + 1e-12

    @pytest.mark.parametrize("multiset, m", LIFT_CASES, ids=LIFT_IDS)
    def test_exact_at_zero_margin_and_tight_at_the_pole(self, multiset, m):
        d = multiset.dim
        lifted = lift_directions(multiset, m, Tolerance(margin=0.0))
        assert lifted.dim == d + 1 and lifted.total == multiset.total + m
        report = verify_mfold(Ball(d + 1), lifted, m, Tolerance(margin=0.0))
        assert report.passed and report.worst_count == m
        # the tilted directions all point up, so m - 1 down copies leave the
        # north pole lit m - 1 times
        *tilted, (down, copies) = lifted.entries
        assert down.coords == (0.0,) * d + (-1.0,) and copies == m
        fewer = DirectionMultiset(tilted + ([(down, m - 1)] if m > 1 else []))
        short = verify_mfold(Ball(d + 1), fewer, m, Tolerance(margin=0.0))
        assert short.worst_count == m - 1
        units, mults = fewer.as_arrays()
        assert int(mults[units[:, -1] < 0].sum()) == m - 1

    def test_tilt_keeps_multiplicities(self):
        multiset = b3_direction_multiset(3)
        lifted = lift_directions(multiset, 3)
        for (w, k), (v, j) in zip(multiset.entries, lifted.entries):
            assert v.coords == (*w.unit().tolist(), 1.0) and j == k


class TestRecursiveConstruction:
    def test_sizes_match_formula(self):
        for m, d in [(1, 4), (2, 4)]:
            multiset = recursive_ball_construction(m, d)
            assert multiset.total == ball_upper_bound(m, d)

    def test_monotone_step_is_m(self):
        for m in (1, 2):
            small = recursive_ball_construction(m, 3).total
            big = recursive_ball_construction(m, 4).total
            assert big - small == m

    def test_domain(self):
        with pytest.raises(DomainError):
            recursive_ball_construction(1, 2)

    def test_d5_construction(self):
        multiset = recursive_ball_construction(1, 5)
        assert multiset.total == ball_upper_bound(1, 5) == 6
        assert verify_mfold(Ball(5), multiset, 1, Tolerance(margin=1e-8)).passed
