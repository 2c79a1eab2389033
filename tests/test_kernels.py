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
