import math

import numpy as np
import pytest

from illum.balls import (
    COVER_GRID_SPACING,
    b3_band_report,
    b3_direction_multiset,
    b3_eps_bound,
    ball_grid,
    ball_upper_bound,
    cap_center_from_disk,
    cover_min_count,
    forward_stereographic,
    illumination_to_cover,
    inverse_stereographic,
    lift_cover_to_directions,
    recursive_ball_construction,
    verify_ball_construction,
)
from illum.errors import DomainError, PreconditionViolation
from illum.geometry import Ball, DirectionMultiset, Tolerance, verify_mfold
from illum.polygons import lower_bound, smooth_2d_directions
from illum.geometry import unit_circle_body


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
            Ball(3), multiset, m, Tolerance(margin=1e-8, samples=50_000)
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_band_mirror(self, m):
        mins = b3_band_report(m, n_samples=4000)
        assert all(v >= m for v in mins.values()), mins


class TestStereographic:
    def test_origin_maps_to_south_pole(self):
        assert np.allclose(inverse_stereographic([0, 0, 0]), [0, 0, 0, -1])

    def test_unit_circle_fixed(self):
        y = inverse_stereographic([1, 0])
        assert np.allclose(y, [1, 0, 0])

    def test_frozen_example(self):
        assert np.allclose(inverse_stereographic([3, 0, 0]), [0.6, 0, 0, 0.8])
        assert abs(np.linalg.norm(inverse_stereographic([3, 0, 0])) - 1) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            d = int(rng.integers(2, 5))
            x = rng.uniform(-1, 1, size=d) * rng.uniform(0, 100)
            err = np.abs(forward_stereographic(inverse_stereographic(x)) - x).max()
            assert err < 1e-10


class TestCapCenter:
    def test_hemisphere_for_centered_disk(self):
        center, level = cap_center_from_disk(np.zeros(3))
        assert np.allclose(center, [0, 0, 0, -1])
        assert abs(level) < 1e-12

    def test_boundary_maps_onto_cap_circle(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            u = rng.normal(size=d)
            u *= rng.uniform(0, 3) / np.linalg.norm(u)
            center, level = cap_center_from_disk(u)
            radius = math.acos(min(1.0, max(-1.0, level)))
            for _ in range(25):
                w = rng.normal(size=d)
                w /= np.linalg.norm(w)
                y = inverse_stereographic(u + w)
                ang = math.acos(min(1.0, max(-1.0, float(y @ center))))
                assert abs(ang - radius) < 1e-8

    def test_matches_closed_form(self):
        # the disk |x - u| < 1 lifts to the cap with (unnormalized) center
        # (2u, |u|^2 - 2); the hyperplane fit must reproduce it
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            u = rng.normal(size=d) * rng.uniform(0, 3)
            center, _ = cap_center_from_disk(u)
            closed_form = np.concatenate([2 * u, [u @ u - 2.0]])
            closed_form /= np.linalg.norm(closed_form)
            assert np.abs(center - closed_form).max() < 1e-9


class TestCovering:
    def test_grid_is_deterministic_and_inside(self):
        g1 = ball_grid(3, 0.2)
        g2 = ball_grid(3, 0.2)
        assert g1.tobytes() == g2.tobytes()
        assert (np.linalg.norm(g1, axis=1) <= 1 + 1e-12).all()

    @pytest.mark.parametrize(
        "dim, spacing",
        [(d, s) for d in (2, 3, 4) for s in (None, 0.2, 0.1, 0.07)],
    )
    def test_grid_bytes_equal_full_cube_filter(self, dim, spacing):
        # the whole-cube build the slab build replaced, kept as the reference
        step = COVER_GRID_SPACING[dim] if spacing is None else spacing
        axis = np.linspace(-1.0, 1.0, round(2.0 / step) + 1)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        cube = np.stack(mesh, axis=-1).reshape(-1, dim)
        expected = cube[np.einsum("ij,ij->i", cube, cube) <= 1.0]
        got = ball_grid(dim, spacing)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_b3_m1_gives_four_translates(self):
        cover = illumination_to_cover(b3_direction_multiset(1), 1, 3)
        assert len(cover.translates) == 4
        lowest, _ = cover_min_count(ball_grid(3), cover.translates, 1e-6)
        assert lowest >= 1

    def test_planar_three_translates(self):
        multiset = smooth_2d_directions(unit_circle_body(), 1)
        cover = illumination_to_cover(multiset, 1, 2)
        assert len(cover.translates) == 3

    def test_unverified_multiset_rejected(self):
        two = DirectionMultiset.from_vectors([(1.0, 0.0), (-1.0, 0.0)])
        with pytest.raises(PreconditionViolation):
            illumination_to_cover(two, 1, 2)


class TestLift:
    def test_lift_of_b3_m1(self):
        cover = illumination_to_cover(b3_direction_multiset(1), 1, 3)
        lifted = lift_cover_to_directions(cover)
        assert lifted.dim == 4 and lifted.total == 5
        report = verify_mfold(
            Ball(4), lifted, 1, Tolerance(margin=1e-8, samples=100_000)
        )
        assert report.passed

    def test_bad_cover_rejected(self):
        from illum.balls import CoverSpec

        bad = CoverSpec(dim=2, translates=np.array([[0.0, 0.9]]), demand=1)
        with pytest.raises(PreconditionViolation):
            lift_cover_to_directions(bad)


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

    def test_verify_helper_formula_trusted_above_cap(self):
        multiset = b3_direction_multiset(1)
        assert verify_ball_construction(multiset, 1, 6) is None


@pytest.mark.slow
class TestSlowTier:
    def test_d5_construction(self):
        multiset = recursive_ball_construction(1, 5)
        assert multiset.total == ball_upper_bound(1, 5) == 6
        report = verify_mfold(
            Ball(5), multiset, 1, Tolerance(margin=1e-8, samples=2_000_000)
        )
        assert report.passed
