import numpy as np
import pytest

from illum import _kernels


def _random_margin_inputs(rng, n_pts=2_000, n_dirs=7, dim=3):
    normals = rng.normal(size=(n_pts, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.where(rng.uniform(size=n_pts) < 0.1, rng.uniform(0, 0.5, n_pts), 0.0)
    dirs = rng.normal(size=(n_dirs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mults = rng.integers(1, 4, size=n_dirs)
    return normals, offsets, dirs, mults


class TestCountIlluminating:
    @pytest.mark.parametrize("n_pts", [1, 2_000, _kernels._CHUNK + 17])
    def test_matches_definition(self, n_pts):
        rng = np.random.default_rng(55)
        normals, offsets, dirs, mults = _random_margin_inputs(rng, n_pts=n_pts)
        tau = 1e-6
        expected = sum(
            mults[j] * (-(normals @ dirs[j]) - offsets > tau) for j in range(len(dirs))
        )
        got = _kernels.count_illuminating(normals, offsets, dirs, mults, tau)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_margin_threshold_is_strict(self):
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        dirs = np.array([[0.0, 0.0, -1.0]])
        counts = _kernels.count_illuminating(normals, np.zeros(2), dirs, [3], 1.0)
        assert counts.tolist() == [0, 0]
        counts = _kernels.count_illuminating(normals, np.zeros(2), dirs, [3], 0.5)
        assert counts.tolist() == [3, 0]


class TestCountCovering:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_definition(self, dim):
        rng = np.random.default_rng(56)
        points = rng.uniform(-1, 1, size=(3_000, dim))
        centers = rng.uniform(-0.5, 0.5, size=(6, dim))
        tau = 1e-6
        dist = np.sqrt(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        expected = (dist < 1.0 - tau).sum(axis=1)
        got = _kernels.count_covering(points, centers, tau)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


def _full_loop_covering(points, centers, tau):
    """The per-center loop over every point, as it ran before the shell skip."""
    limit = (1.0 - tau) ** 2
    counts = np.zeros(points.shape[0], dtype=np.int64)
    pt_sq = np.einsum("ij,ij->i", points, points)
    for c in centers:
        d_sq = pt_sq - 2.0 * (points @ c) + c @ c
        counts += d_sq < limit
    return counts


@pytest.fixture(scope="module")
def grid3():
    from illum.balls import ball_grid

    return ball_grid(3)


class TestCountCoveringShell:
    @pytest.mark.parametrize("halvings", range(1, 7))
    def test_equals_full_loop_on_ball_grid(self, grid3, halvings):
        from illum.balls import b3_direction_multiset

        units, mults = b3_direction_multiset(2).as_arrays()
        centers = -(2.0 ** -halvings) * np.repeat(units, mults, axis=0)
        expected = _full_loop_covering(grid3, centers, 1e-6)
        got = _kernels.count_covering(grid3, centers, 1e-6)
        assert np.array_equal(got, expected)
        assert got.argmin() == expected.argmin()

    @pytest.mark.parametrize(
        "tau, scale", [(1.0, 0.3), (1.5, 0.3), (1e-6, 1.0), (1e-6, 1.7)],
        ids=["tau=1", "tau>1", "R=1", "R>1"],
    )
    def test_nothing_skipped_cases(self, tau, scale):
        rng = np.random.default_rng(57)
        points = rng.uniform(-1, 1, size=(4_000, 3))
        centers = rng.normal(size=(5, 3))
        centers *= scale / np.linalg.norm(centers, axis=1).max()
        got = _kernels.count_covering(points, centers, tau)
        assert np.array_equal(got, _full_loop_covering(points, centers, tau))

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_CHUNK", 64)
        rng = np.random.default_rng(58)
        points = rng.uniform(-1, 1, size=(1_001, 3))
        centers = rng.uniform(-0.2, 0.2, size=(4, 3))
        got = _kernels.count_covering(points, centers, 1e-6)
        assert np.array_equal(got, _full_loop_covering(points, centers, 1e-6))

    def test_empty_centers_count_zero(self):
        points = np.zeros((5, 3))
        got = _kernels.count_covering(points, np.empty((0, 3)), 1e-6)
        assert got.dtype == np.int64 and got.tolist() == [0] * 5
