import numpy as np
import pytest
from scipy import integrate

import gradjump as gj
from gradjump.interchange import (
    REGION_NAMES,
    InterchangeField,
    _mirrored_gradient,
    classify_codes,
)

from conftest import small_quad
from sign_fold import two_term_gradient, two_term_profile


def profile(h, *frame_point):
    """The field's scalar profile at one frame point (s_n, s_nu[, w]),
    divided by h."""
    d = len(frame_point)
    pair = gj.InterfacePair.from_jump(np.zeros((1, d)), [1.0], np.eye(d)[0])
    scalar, _ = InterchangeField(pair, gj.InterchangeParams(h=h)).scalar_gradient(frame_point)
    return scalar[0] / h


def value_gradient(fld, z):
    """Field value (R^m) and gradient (m x d matrix) at a world point."""
    scalar, g = fld.scalar_gradient(np.asarray(z, dtype=float) @ fld.frame.T)
    return scalar[0] * fld.pair.a, np.outer(fld.pair.a, (g @ fld.frame)[0])


def region(fld, z) -> str:
    """Name of the region holding a world point."""
    return REGION_NAMES[int(classify_codes(np.asarray(z, dtype=float) @ fld.frame.T, fld.h)[0])]


class TestCutoffs:
    # each cutoff is read off the mirrored profile at s_nu > 0, where it is
    # the + term's, with the other two saturated at 1 where they can be:
    # s_n <= 0 for phi, s_nu >= sqrt(h) for rho, r <= 1 - sqrt(h) for zeta
    def test_slab_profile(self):
        h = 0.04
        assert profile(h, -h, 0.5) == 1.0
        assert profile(h, 0.5 * h, 0.5) == 0.5
        assert profile(h, 2.0 * h, 0.5) == 0.0
        assert profile(h, 0.5 * h, 0.5, 0.3) == 0.5

    def test_radial_profile_endpoints(self):
        # along the s_nu axis, where phi = 1 and r = s_nu: rho = 1 from
        # sqrt(h) on, so zeta reads alone between sqrt(h) and 1
        for h in (0.04, 0.25, 0.9):
            sh = np.sqrt(h)
            assert profile(h, 0.0, 1.0) == 0.0
            assert profile(h, 0.0, 0.6, 0.8) == pytest.approx(0.0, abs=1e-15)
            assert profile(h, 0.0, 1.0 - sh) == pytest.approx(min(1.0, (1.0 - sh) / sh))
            r = 0.5 * (1.0 + max(sh, 1.0 - sh))
            assert profile(h, 0.0, r) == pytest.approx(min(1.0, (1.0 - r) / sh))
        assert profile(0.04, -0.04, 0.5, 0.0) == 1.0

    def test_tangent_ramp_linear(self):
        h = 0.04
        sh = np.sqrt(h)
        assert profile(h, -h, 0.5 * sh) == 0.5
        assert profile(h, -h, 1.3 * sh) == 1.0
        # the mirror term at s_nu < 0: the + term at -z, whose phi(h) = 0
        assert profile(h, -h, -0.2 * sh) == 0.0
        assert profile(h, h, -0.5 * sh) == 0.5


class TestParams:
    def test_h_range(self):
        with pytest.raises(ValueError):
            gj.InterchangeParams(h=0.0)
        with pytest.raises(ValueError):
            gj.InterchangeParams(h=1.0)

    def test_t_range(self):
        with pytest.raises(ValueError):
            gj.InterchangeParams(h=0.1, t=1.5)

    def test_nu_orthogonality_enforced(self, eq_pair):
        params = gj.InterchangeParams(h=0.1, nu=[1.0, 0.0])  # parallel to n
        with pytest.raises(gj.DimensionError):
            InterchangeField(eq_pair, params)

    def test_quad_config_validation(self):
        with pytest.raises(ValueError):
            gj.QuadratureConfig(samples_bulk=10)
        with pytest.raises(ValueError):
            gj.QuadratureConfig(sampler="qmc2")
        with pytest.raises(ValueError):
            gj.QuadratureConfig(stratification=("slab", "blob"))


class TestField:
    def test_saturated_value(self):
        # all three cutoffs saturate for the + term; the mirror term vanishes
        pair = gj.InterfacePair.from_jump(np.zeros((1, 2)), [1.0], [0.0, 1.0])
        params = gj.InterchangeParams(h=0.04, nu=[1.0, 0.0])
        value, _ = value_gradient(InterchangeField(pair, params), [0.5, -0.01])
        np.testing.assert_allclose(value, 0.04 * pair.a, atol=1e-15)

    def test_compact_support(self, eq_pair, rng):
        fld = InterchangeField(eq_pair, gj.InterchangeParams(h=0.09))
        for _ in range(50):
            z = rng.normal(size=2)
            z = z / np.linalg.norm(z) * rng.uniform(1.0, 2.0)
            value, gradient = value_gradient(fld, z)
            assert np.all(value == 0.0)
            assert np.all(gradient == 0.0)

    def test_gradient_flip_on_slab_regions(self, eq_pair):
        fld = InterchangeField(eq_pair, gj.InterchangeParams(h=0.01))
        # n = (1, 0), nu = (0, 1): R+ needs z.nu > sqrt(h), 0 < z.n < h
        _, grad_plus = value_gradient(fld, [0.005, 0.5])
        np.testing.assert_allclose(grad_plus, -eq_pair.jump, atol=1e-14)
        _, grad_minus = value_gradient(fld, [-0.005, -0.5])
        np.testing.assert_allclose(grad_minus, eq_pair.jump, atol=1e-14)

    def test_value_bound(self, eq_pair, rng):
        params = gj.InterchangeParams(h=0.04)
        fld = InterchangeField(eq_pair, params)
        coords = rng.uniform(-1, 1, size=(4000, 2))
        scalar, _ = fld.scalar_gradient(coords)
        assert np.max(np.abs(scalar)) <= params.h * (1 + 1e-12)

    def test_gradient_matches_finite_differences(self, noneq_pair, rng):
        params = gj.InterchangeParams(h=0.09)
        fld = InterchangeField(noneq_pair, params)
        step = 1e-7
        checked = 0
        while checked < 30:
            z = rng.uniform(-0.9, 0.9, size=2)
            _, grad = value_gradient(fld, z)
            fd = np.zeros((1, 2))
            for j in range(2):
                bump = np.zeros(2)
                bump[j] = step
                vp, _ = value_gradient(fld, z + bump)
                vm, _ = value_gradient(fld, z - bump)
                fd[:, j] = (vp - vm) / (2 * step)
            # skip the measure-zero kink sets where one-sided slopes differ
            if np.max(np.abs(fd - grad)) > 1e-5:
                zr = z @ fld.frame.T
                near_kink = min(
                    abs(zr[0]), abs(abs(zr[0]) - params.h),
                    abs(zr[1]), abs(abs(zr[1]) - np.sqrt(params.h)),
                    abs(np.linalg.norm(zr) - (1 - np.sqrt(params.h))),
                    abs(np.linalg.norm(zr) - 1.0),
                )
                assert near_kink < 10 * step
                continue
            checked += 1


class TestRegions:
    def test_named_examples(self, eq_pair):
        fld = InterchangeField(eq_pair, gj.InterchangeParams(h=0.01))
        # frame: n = (1,0), nu = (0,1); points given in world coordinates
        assert region(fld, [0.005, 0.5]) == "R_plus"
        assert region(fld, [-0.005, -0.5]) == "R_minus"
        # core strip with opposite signs, and the outer ring with opposite signs
        assert region(fld, [-0.5, 0.05]) == "Q"
        assert region(fld, [-0.65, 0.65]) == "Q"
        assert region(fld, [0.005, 0.05]) == "Q_prime"
        assert region(fld, [0.5, 0.5]) == "support_complement"

    def test_regions_pairwise_disjoint(self, rng):
        h = 0.04
        sh = np.sqrt(h)
        coords = rng.uniform(-1, 1, size=(50000, 2))
        s_n, s_nu = coords[:, 0], coords[:, 1]
        r = np.linalg.norm(coords, axis=1)
        inside = r < 1.0
        core = inside & (r < 1 - sh)
        ring = inside & (r >= 1 - sh)
        prod = s_nu * s_n
        masks = [
            (s_nu > sh) & (0 < s_n) & (s_n < h) & core,
            (s_nu < -sh) & (-h < s_n) & (s_n < 0) & core,
            (ring & (prod < 0)) | ((np.abs(s_nu) < sh) & (prod < 0) & core),
            ((np.abs(s_nu) < sh) & (np.abs(s_n) < h) & (prod > 0) & inside)
            | (ring & (np.abs(s_n) < h) & (prod > 0)),
        ]
        assert np.max(sum(m.astype(int) for m in masks)) <= 1

    def test_regions_cover_gradient_support(self, noneq_pair, rng):
        params = gj.InterchangeParams(h=0.04)
        fld = InterchangeField(noneq_pair, params)
        coords = rng.uniform(-1, 1, size=(20000, 2))
        coords = coords[np.linalg.norm(coords, axis=1) < 1.0]
        _, g = fld.scalar_gradient(coords)
        codes = classify_codes(coords, params.h)
        active = np.linalg.norm(g, axis=1) > 1e-13
        assert np.all(codes[active] != 0)

    def test_gradient_small_on_q(self, noneq_pair, rng):
        params = gj.InterchangeParams(h=0.04)
        fld = InterchangeField(noneq_pair, params)
        coords = rng.uniform(-1, 1, size=(20000, 2))
        codes = classify_codes(coords, params.h)
        _, g = fld.scalar_gradient(coords)
        norms = np.linalg.norm(g, axis=1)
        assert np.max(norms[codes == 3]) <= 2.0 * np.sqrt(params.h) + 1e-12
        assert np.max(norms) <= 1.0 + 2.0 * np.sqrt(params.h) + 1e-12

    def test_r_plus_measure_against_quadrature(self, eq_pair):
        # independent oracle: exact area of the R+ slab slice for d = 2
        h = 0.01
        params = gj.InterchangeParams(
            h=h, quad=small_quad(seed=11, bulk=4096, slab=32768)
        )
        sh = np.sqrt(h)
        exact, _ = integrate.quad(
            lambda y: max(0.0, np.sqrt((1 - sh) ** 2 - y * y) - sh), 0.0, h
        )
        measures = gj.estimate_region_measures(eq_pair, params)
        est, err = measures["R_plus"]
        assert est == pytest.approx(exact, abs=max(5 * err, 1e-4))


def mirror_test_points(h, d, rng):
    """Random frame points plus points on the kink sets of the cutoffs:
    s_n in {0, +-h}, s_nu in {0, +-sqrt(h)}, r = 1 - sqrt(h) and r = 0."""
    sh = np.sqrt(h)
    random = rng.uniform(-1.0, 1.0, size=(20000, d))
    on_slab = rng.uniform(-1.0, 1.0, size=(300, d))
    on_slab[:, 0] = rng.choice([0.0, h, -h], size=300)
    on_strip = rng.uniform(-1.0, 1.0, size=(300, d))
    on_strip[:, 1] = rng.choice([sh, -sh, 0.0], size=300)
    corners = np.zeros((7, d))
    corners[:, 0] = [0.0, h, -h, h, -h, 0.0, h]
    corners[:, 1] = [sh, sh, -sh, -sh, sh, 0.0, 0.0]
    on_sphere = np.vstack([np.eye(d), -np.eye(d)]) * (1.0 - sh)
    tilted = rng.normal(size=(200, d))
    tilted *= (1.0 - sh) / np.linalg.norm(tilted, axis=1)[:, None]
    return np.vstack([random, on_slab, on_strip, corners, on_sphere, tilted, np.zeros((1, d))])


class TestMirrorIdentities:
    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_odd_profile_even(self, rng, d):
        h = 0.04
        pair = gj.InterfacePair.from_jump(np.zeros((1, d)), [1.0], np.eye(d)[0])
        fld = InterchangeField(pair, gj.InterchangeParams(h=h))
        coords = mirror_test_points(h, d, rng)
        scalar, g = fld.scalar_gradient(coords)
        scalar_m, g_m = fld.scalar_gradient(-coords)
        assert np.array_equal(scalar_m, scalar)
        assert np.array_equal(g_m, -g)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.0125])
    @pytest.mark.parametrize("d", [2, 3])
    def test_folded_gradient_is_two_term_sum(self, rng, d, h):
        # rho(s_nu) and rho(-s_nu) have disjoint supports: one term is always
        # 0, so the fold factors give the two-term sum's gradient and profile
        pair = gj.InterfacePair.from_jump(np.zeros((1, d)), [1.0], np.eye(d)[0])
        fld = InterchangeField(pair, gj.InterchangeParams(h=h))
        coords = mirror_test_points(h, d, rng)
        r = np.linalg.norm(coords, axis=1)
        scalar, g = fld.scalar_gradient(coords)
        assert np.array_equal(g, two_term_gradient(coords, r, h))
        assert np.array_equal(scalar, two_term_profile(coords, r, h))

    @pytest.mark.parametrize("d", [2, 3])
    def test_radius_that_rounds_to_zero(self, d):
        # every square underflows, so r = 0 off the origin too: zeta = 1 and
        # the radial part 0 there, as at the origin, with no division by 0
        h = 0.04
        coords = np.zeros((6, d))
        coords[:, :2] = [[0.0, 1e-200], [1e-200, 1e-200], [-1e-200, 1e-200],
                         [1e-200, -5e-324], [0.0, 0.0], [-0.0, -0.0]]
        r = np.linalg.norm(coords, axis=1)
        assert np.all(r == 0.0)
        g, scalar = _mirrored_gradient(coords, r, h)
        assert np.array_equal(g, two_term_gradient(coords, r, h))
        assert np.array_equal(scalar, two_term_profile(coords, r, h))
        assert g[0, 1] == np.sqrt(h)

    @pytest.mark.parametrize("d", [2, 3])
    def test_regions_swap_r_plus_and_r_minus(self, rng, d):
        h = 0.04
        coords = mirror_test_points(h, d, rng)
        codes = classify_codes(coords, h)
        assert set(codes.tolist()) == {0, 1, 2, 3, 4}
        swap = np.array([0, 2, 1, 3, 4], dtype=codes.dtype)
        assert np.array_equal(classify_codes(-coords, h), swap[codes])


class TestDPath:
    def test_zero_at_origin(self, antiplane, noneq_pair):
        assert gj.d_path(antiplane, noneq_pair, [0.0])[0] == 0.0

    def test_equilibrium_endpoint(self, antiplane, eq_pair):
        d = gj.d_path(antiplane, eq_pair, [0.0, 0.5, 1.0])
        assert d[0] == pytest.approx(0.0, abs=1e-14)
        assert d[2] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_double_well_closed_form(self):
        params = gj.IsotropicParams(d=1, mu=0.0, f_coeffs=(1, 0, -2, 0, 1))
        model = gj.IsotropicThetaEnergy(params)
        pair = gj.InterfacePair.from_gradients([[1.0]], [[-1.0]])
        ts = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(
            gj.d_path(model, pair, ts), 32 * ts**2 * (1 - ts) ** 2, atol=1e-12
        )
        np.testing.assert_allclose(
            gj.d_path_isotropic(params, 1.0, -1.0, ts),
            32 * ts**2 * (1 - ts) ** 2,
            atol=1e-12,
        )

    def test_general_matches_closed_form_d2(self):
        # normal pair for the planar volumetric model: theta+ = 0.5, theta- = -1,
        # shear a = 1.5 n makes the interchange force vanish exactly
        params = gj.IsotropicParams(d=2, mu=1.0, f_coeffs=(1, 0, -2, 0, 1))
        model = gj.IsotropicThetaEnergy(params)
        pair = gj.InterfacePair.from_jump(-0.5 * np.eye(2), [1.5, 0.0], [1.0, 0.0])
        assert abs(gj.interchange_force(model, pair)) < 1e-12
        ts = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(
            gj.d_path(model, pair, ts),
            gj.d_path_isotropic(params, 0.5, -1.0, ts),
            atol=1e-10,
        )

    def test_symmetric_wells_give_symmetric_landscape(self):
        params = gj.IsotropicParams(d=2, mu=1.0, f_coeffs=(1, 0, -2, 0, 1))
        ts = np.linspace(0.0, 1.0, 41)
        d = gj.d_path_isotropic(params, 0.5, -0.5, ts)
        np.testing.assert_allclose(d, d[::-1], atol=1e-13)

    def test_degenerate_wells(self):
        params = gj.IsotropicParams(d=2, mu=1.0, f_coeffs=(0, 0, 1))
        np.testing.assert_allclose(
            gj.d_path_isotropic(params, 0.7, 0.7, np.linspace(0, 1, 5)), 0.0, atol=1e-14
        )

    def test_warns_without_compatible_normal_pair(self):
        params = gj.IsotropicParams(d=2, mu=1.0, f_coeffs=(1, 0, -2, 0, 1))
        with pytest.warns(UserWarning):
            gj.d_path_isotropic(params, 1.2, -0.8, [0.5])
