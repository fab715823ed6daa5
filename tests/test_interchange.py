import numpy as np
import pytest
from scipy import integrate

import gradjump as gj
from gradjump.interchange import (
    InterchangeField,
    _mirrored_gradient,
    _plus_parts,
    classify_codes,
)

from conftest import small_quad


def plus_value(h, s_n, s_nu, r):
    """Scalar value of the + term at one frame point, divided by h."""
    val, _, _, _ = _plus_parts(np.array([s_n]), np.array([s_nu]), np.array([r]), h)
    return val[0] / h


class TestCutoffs:
    # each profile is read off the + term with the other two saturated at 1:
    # s_n <= 0 for phi, s_nu >= sqrt(h) for rho, r <= 1 - sqrt(h) for zeta
    def test_slab_profile(self):
        h = 0.04
        assert plus_value(h, -h, 1.0, 0.0) == 1.0
        assert plus_value(h, 0.5 * h, 1.0, 0.0) == 0.5
        assert plus_value(h, 2.0 * h, 1.0, 0.0) == 0.0

    def test_radial_profile_endpoints(self):
        for h in (0.04, 0.25, 0.9):
            assert plus_value(h, -h, 1.0, 0.0) == 1.0
            assert plus_value(h, -h, 1.0, 1.0) == 0.0
            assert plus_value(h, -h, 1.0, 1.0 - np.sqrt(h)) == pytest.approx(1.0)

    def test_tangent_ramp_linear(self):
        h = 0.04
        sh = np.sqrt(h)
        assert plus_value(h, -h, 0.5 * sh, 0.0) == 0.5
        assert plus_value(h, -h, -0.2 * sh, 0.0) == 0.0
        assert plus_value(h, -h, 1.3 * sh, 0.0) == 1.0


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
        value, _ = InterchangeField(pair, params).value_gradient([0.5, -0.01])
        np.testing.assert_allclose(value, 0.04 * pair.a, atol=1e-15)

    def test_compact_support(self, eq_pair, rng):
        fld = InterchangeField(eq_pair, gj.InterchangeParams(h=0.09))
        for _ in range(50):
            z = rng.normal(size=2)
            z = z / np.linalg.norm(z) * rng.uniform(1.0, 2.0)
            value, gradient = fld.value_gradient(z)
            assert np.all(value == 0.0)
            assert np.all(gradient == 0.0)

    def test_gradient_flip_on_slab_regions(self, eq_pair):
        fld = InterchangeField(eq_pair, gj.InterchangeParams(h=0.01))
        # n = (1, 0), nu = (0, 1): R+ needs z.nu > sqrt(h), 0 < z.n < h
        _, grad_plus = fld.value_gradient([0.005, 0.5])
        np.testing.assert_allclose(grad_plus, -eq_pair.jump, atol=1e-14)
        _, grad_minus = fld.value_gradient([-0.005, -0.5])
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
            _, grad = fld.value_gradient(z)
            fd = np.zeros((1, 2))
            for j in range(2):
                bump = np.zeros(2)
                bump[j] = step
                vp, _ = fld.value_gradient(z + bump)
                vm, _ = fld.value_gradient(z - bump)
                fd[:, j] = (vp - vm) / (2 * step)
            # skip the measure-zero kink sets where one-sided slopes differ
            if np.max(np.abs(fd - grad)) > 1e-5:
                zr = fld.to_frame(z)[0]
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
        assert fld.classify([0.005, 0.5]) == "R_plus"
        assert fld.classify([-0.005, -0.5]) == "R_minus"
        # core strip with opposite signs, and the outer ring with opposite signs
        assert fld.classify([-0.5, 0.05]) == "Q"
        assert fld.classify([-0.65, 0.65]) == "Q"
        assert fld.classify([0.005, 0.05]) == "Q_prime"
        assert fld.classify([0.5, 0.5]) == "support_complement"

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


def two_term_gradient(coords, r, h):
    """The mirrored gradient as the sum of the + term and its mirror image."""
    s_n, s_nu = coords[:, 0], coords[:, 1]
    _, gn_p, gnu_p, cr_p = _plus_parts(s_n, s_nu, r, h)
    _, gn_m, gnu_m, cr_m = _plus_parts(-s_n, -s_nu, r, h)
    g = np.zeros_like(coords)
    g[:, 0] = gn_p - gn_m
    g[:, 1] = gnu_p - gnu_m
    radial = np.divide(cr_p + cr_m, r, out=np.zeros_like(r), where=r > 0.0)
    return g + radial[:, None] * coords


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
        # rho(s_nu) and rho(-s_nu) have disjoint supports: one term is always 0
        coords = mirror_test_points(h, d, rng)
        r = np.linalg.norm(coords, axis=1)
        assert np.array_equal(_mirrored_gradient(coords, r, h), two_term_gradient(coords, r, h))

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
