import math

import numpy as np
import pytest

import gradjump as gj
from gradjump.tensors import as_unit_vector


class TestFrobenius:
    def test_identity(self):
        assert gj.frobenius(np.eye(2), np.eye(2)) == 2.0

    def test_zero_annihilates(self, rng):
        a = rng.normal(size=(3, 2))
        assert gj.frobenius(a, np.zeros((3, 2))) == 0.0

    def test_hand_expansion(self):
        assert gj.frobenius([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == 70.0

    def test_symmetric_bilinear(self, rng):
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 2, 3))
            s, t = rng.normal(size=2)
            assert gj.frobenius(a, b) == pytest.approx(gj.frobenius(b, a))
            assert gj.frobenius(s * a + t * b, c) == pytest.approx(
                s * gj.frobenius(a, c) + t * gj.frobenius(b, c)
            )

    def test_shape_mismatch(self):
        with pytest.raises(gj.DimensionError):
            gj.frobenius(np.eye(2), np.zeros((3, 2)))

    def test_pairs_with_outer(self, rng):
        # (A, u (x) v) = (A v) . u, the surface-term identity
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            u = rng.normal(size=3)
            v = rng.normal(size=4)
            assert gj.frobenius(a, gj.outer(u, v)) == pytest.approx((a @ v) @ u)


class TestRankOneDecompose:
    def test_scalar_row_example(self):
        a, n = gj.rank_one_decompose([[1.0, 0.0]], [[2.0, 0.0]])
        np.testing.assert_allclose(a, [-1.0])
        np.testing.assert_allclose(n, [1.0, 0.0])

    def test_degenerate(self):
        with pytest.raises(gj.DegeneratePairError):
            gj.rank_one_decompose([[1.0, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize(
        "fp, fm",
        [
            # both norms overflow, so 1e-15 |F| is no scale for the jump
            ([[1e200, 0.0]], [[-1e200, 0.0]]),
            ([[1e200, 0.0]], [[1e200, 0.0]]),
            # finite norms, a jump whose norm overflows
            ([[1e154, 0.0]], [[-1e154, 0.0]]),
        ],
    )
    def test_overflow_is_not_degenerate(self, fp, fm):
        with pytest.raises(ValueError, match="overflow double precision"):
            gj.rank_one_decompose(fp, fm)

    def test_incompatible(self):
        with pytest.raises(gj.IncompatiblePairError):
            gj.rank_one_decompose(np.eye(2), np.zeros((2, 2)))

    def test_round_trip(self, rng):
        for _ in range(50):
            m, d = rng.integers(1, 4, size=2)
            f = rng.normal(size=(m, d))
            a = rng.normal(size=m)
            n = rng.normal(size=d)
            n /= np.linalg.norm(n)
            ar, nr = gj.rank_one_decompose(f + np.outer(a, n), f)
            np.testing.assert_allclose(np.outer(ar, nr), np.outer(a, n), atol=1e-10)

    def test_sign_convention_idempotent(self, rng):
        for _ in range(20):
            f = rng.normal(size=(2, 3))
            a = rng.normal(size=2)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a1, n1 = gj.rank_one_decompose(f + np.outer(a, n), f)
            assert n1[np.flatnonzero(np.abs(n1) > 1e-12)[0]] > 0
            a2, n2 = gj.rank_one_decompose(f + np.outer(a1, n1), f)
            np.testing.assert_allclose(a2, a1, atol=1e-12)
            np.testing.assert_allclose(n2, n1, atol=1e-12)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            gj.rank_one_decompose([[1.0, 0.0]], [[0.0, 0.0]], tol=0.0)


class TestSphereGrid:
    def test_zero_sphere(self):
        np.testing.assert_array_equal(gj.sphere_grid(1, 7), [[1.0], [-1.0]])

    def test_circle_resolution_four(self):
        pts = gj.sphere_grid(2, 4)
        assert pts.shape == (4, 2)
        np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            np.sort(np.arctan2(pts[:, 1], pts[:, 0])),
            [-np.pi / 2, 0.0, np.pi / 2, np.pi],
            atol=1e-12,
        )

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_sphere_count_and_neighbor_angle(self, k):
        pts = gj.sphere_grid(3, k)
        assert k**2 <= len(pts) <= 2 * k**2
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        # brute-force nearest-neighbor angles
        cosines = np.clip(pts @ pts.T, -1.0, 1.0)
        np.fill_diagonal(cosines, -1.0)
        nn_angle = np.arccos(np.max(cosines, axis=1))
        assert np.max(nn_angle) <= 2.0 * math.pi / k

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mesh_norm_decreases(self, dim):
        # covering radius against a fine reference cloud
        ref = gj.sphere_grid(dim, 64 if dim == 2 else 40)
        prev = np.inf
        for k in (4, 8, 16):
            pts = gj.sphere_grid(dim, k)
            cover = np.max(np.arccos(np.clip(np.max(ref @ pts.T, axis=1), -1, 1)))
            assert cover < prev
            prev = cover

    def test_bad_inputs(self):
        with pytest.raises(gj.DimensionError):
            gj.sphere_grid(4, 8)
        with pytest.raises(ValueError):
            gj.sphere_grid(2, 1)


class TestPerpAndVolumes:
    @pytest.mark.parametrize(
        "n", [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]
    )
    def test_perp_unit(self, n):
        t = gj.perp_unit(n)
        assert abs(np.dot(t, n)) < 1e-12
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert t[np.flatnonzero(np.abs(t) > 1e-12)[0]] > 0

    def test_perp_matches_convention(self):
        np.testing.assert_allclose(gj.perp_unit([0.0, 1.0]), [1.0, 0.0], atol=1e-15)

    def test_unit_ball_volumes(self):
        assert gj.unit_ball_volume(0) == 1.0
        assert gj.unit_ball_volume(1) == pytest.approx(2.0)
        assert gj.unit_ball_volume(2) == pytest.approx(math.pi)
        assert gj.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_unit_vector_check(self):
        with pytest.raises(gj.DimensionError):
            as_unit_vector([1.0, 1.0])
