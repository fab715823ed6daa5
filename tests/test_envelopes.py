import decimal

import numpy as np
import pytest

import gradjump as gj

from conftest import REF_PARAMS
from test_jumps import random_antiplane_pair


@pytest.fixture
def analysis():
    return gj.antiplane_analyze(gj.AntiplaneParams(**REF_PARAMS))


class TestLowerConvexHull:
    def test_convex_data_untouched(self):
        x = np.linspace(0, 1, 51)
        y = (x - 0.3) ** 2
        _, hull = gj.lower_convex_hull(x, y)
        np.testing.assert_allclose(hull, y, atol=1e-14)

    def test_concave_data_collapses_to_chord(self):
        x = np.linspace(0, 1, 51)
        y = -((x - 0.5) ** 2)
        _, hull = gj.lower_convex_hull(x, y)
        np.testing.assert_allclose(hull, y[0] + (y[-1] - y[0]) * x, atol=1e-14)

    def test_hull_below_and_convex(self, rng):
        x = np.linspace(0, 2, 201)
        y = rng.normal(size=201)
        _, hull = gj.lower_convex_hull(x, y)
        assert np.all(hull <= y + 1e-12)
        second = np.diff(hull, 2)
        assert np.min(second) >= -1e-10

    def test_idempotent(self, rng):
        x = np.linspace(0, 1, 101)
        y = np.cos(5 * x) + rng.normal(size=101) * 0.1
        _, hull = gj.lower_convex_hull(x, y)
        _, hull2 = gj.lower_convex_hull(x, hull)
        np.testing.assert_allclose(hull2, hull, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gj.lower_convex_hull([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


class TestRankOneRestriction:
    def test_equilibrium_segment_is_affine(self, antiplane, eq_pair):
        curve = gj.rank_one_restriction(antiplane, eq_pair, np.linspace(0, 1, 101))
        chord = 3.0 - 2.0 * curve.t_grid
        np.testing.assert_allclose(curve.hull_values, chord, atol=1e-12)
        assert curve.hull_values[50] == pytest.approx(2.0, abs=1e-12)
        assert len(curve.affine_segments) == 1
        t0, t1, slope = curve.affine_segments[0]
        assert (t0, t1) == (0.0, 1.0)
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_convex_model_has_no_affine_run(self, quadratic, eq_pair):
        curve = gj.rank_one_restriction(quadratic, eq_pair, np.linspace(0, 1, 101))
        np.testing.assert_allclose(curve.hull_values, curve.w_values, atol=1e-12)
        assert curve.affine_segments == ()

    def test_chord_touch_implies_affine(self, antiplane, rng):
        # interior contact of the hull with the endpoint chord forces the
        # whole hull onto the chord (discrete convexity argument)
        pairs = [random_antiplane_pair(rng) for _ in range(25)]
        pairs.append(gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]]))
        for pair in pairs:
            t = np.linspace(0, 1, 201)
            curve = gj.rank_one_restriction(antiplane, pair, t)
            chord = t * curve.w_values[-1] + (1 - t) * curve.w_values[0]
            gap = chord - curve.hull_values
            interior = slice(1, -1)
            if np.min(gap[interior]) <= 1e-12:
                assert np.max(np.abs(gap)) <= 1e-10 * (1 + np.abs(chord).max())


def hull_slope_reference(model, pair, at, rtol=1e-7, base_points=64, max_levels=14):
    """The endpoint slope read off the full lower hull at every level, with
    the same Richardson loop as directional_derivative."""
    prev_q = prev_rich = None
    for level in range(max_levels):
        npts = base_points * 2**level + 1
        hull = gj.rank_one_restriction(model, pair, np.linspace(0.0, 1.0, npts)).hull_values
        delta = 1.0 / (npts - 1)
        quotient = (hull[1] - hull[0]) / delta if at == 0 else (hull[-1] - hull[-2]) / delta
        if prev_q is not None:
            rich = 2.0 * quotient - prev_q
            if prev_rich is not None and abs(rich - prev_rich) <= rtol * (1.0 + abs(rich)):
                return float(rich)
            prev_rich = rich
        prev_q = quotient
    raise gj.NonconvergenceError("hull slope did not converge under grid refinement")


def quadratic_case(rng):
    model = gj.QuadraticEnergy(1, 2, mu=1.4)
    return model, gj.InterfacePair.from_jump(rng.normal(size=(1, 2)), [0.8], [0.6, 0.8])


class TestDirectionalDerivative:
    def test_matches_hull_reference(self, antiplane, eq_pair, rng):
        # the hull's first edge is the smallest chord slope from t = 0 (the
        # largest into t = 1), so the chord reduction reproduces the hull
        # quotients up to rounding
        cases = [quadratic_case(rng), (antiplane, eq_pair)]
        cases += [(antiplane, random_antiplane_pair(rng)) for _ in range(25)]
        for model, pair in cases:
            for at in (0, 1):
                assert gj.directional_derivative(model, pair, at) == pytest.approx(
                    hull_slope_reference(model, pair, at), rel=1e-9
                )

    def test_huge_jump_still_fails_at_one(self, antiplane):
        # |F-| = 2**20 + 1: the two-phase stretch 1 <= |F| <= 2 spans 2**-20 of
        # the segment at t = 1, finer than the finest grid (2**-19), so the
        # slopes there never settle; the smooth end t = 0 gives (P-, [F]) exactly
        pair = gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0**20 + 1, 0.0]])
        assert gj.directional_derivative(antiplane, pair, at=0) == -(2.0**20 + 1) * 2.0**20
        with pytest.raises(gj.NonconvergenceError):
            gj.directional_derivative(antiplane, pair, at=1)

    def test_equilibrium_slopes(self, antiplane, eq_pair):
        d0 = gj.directional_derivative(antiplane, eq_pair, at=0)
        d1 = gj.directional_derivative(antiplane, eq_pair, at=1)
        assert d0 == pytest.approx(-2.0, abs=1e-6)
        assert d1 == pytest.approx(-2.0, abs=1e-6)
        # slope difference reproduces the (vanishing) interchange force
        assert d1 - d0 == pytest.approx(0.0, abs=1e-6)

    def test_quadratic_matches_analytic_slope(self, rng):
        model, pair = quadratic_case(rng)
        d0 = gj.directional_derivative(model, pair, at=0)
        d1 = gj.directional_derivative(model, pair, at=1)
        assert d0 == pytest.approx(
            gj.frobenius(model.gradient(pair.fm), pair.jump), abs=1e-6
        )
        assert d1 == pytest.approx(
            gj.frobenius(model.gradient(pair.fp), pair.jump), abs=1e-6
        )
        assert d1 - d0 == pytest.approx(
            gj.interchange_force(model, pair), abs=1e-6
        )

    def test_bad_endpoint(self, antiplane, eq_pair):
        with pytest.raises(ValueError):
            gj.directional_derivative(antiplane, eq_pair, at=2)


class TestAffineFormula:
    def test_equilibrium_passes(self, antiplane, eq_pair):
        report = gj.check_affine_formula(antiplane, eq_pair, tol=1e-10)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_off_equilibrium_fails_by_maxwell_scale(self, antiplane, noneq_pair):
        report = gj.check_affine_formula(antiplane, noneq_pair, tol=1e-10)
        assert not report.passed
        # deviation is of the order of the Maxwell force (0.10 here)
        assert 0.01 <= report.max_deviation <= 0.05
        assert report.p_star == pytest.approx(0.10)

    def test_endpoints_exact(self, antiplane, noneq_pair):
        t = np.linspace(0, 1, 101)
        curve = gj.rank_one_restriction(antiplane, noneq_pair, t)
        chord = t * curve.w_values[-1] + (1 - t) * curve.w_values[0]
        assert curve.hull_values[0] == chord[0]
        assert curve.hull_values[-1] == chord[-1]


class TestAntiplaneAnalyze:
    def test_reference_closed_forms(self, analysis):
        assert analysis.eps_plus == pytest.approx(1.0)
        assert analysis.eps_minus == pytest.approx(2.0)
        assert analysis.yield_radius == pytest.approx(2.0)
        assert analysis.sigma_star == pytest.approx(2.0)
        assert analysis.qw_radial(1.5) == pytest.approx(2.0)  # 2|F| - 1

    def test_envelope_continuity(self, analysis, antiplane):
        assert analysis.qw_radial(1.0) == pytest.approx(antiplane.value([[1.0, 0.0]]))
        assert analysis.qw_radial(2.0) == pytest.approx(antiplane.value([[2.0, 0.0]]))

    def test_phase_swap_symmetry(self, analysis):
        swapped = gj.antiplane_analyze(
            gj.AntiplaneParams(mu_plus=1.0, mu_minus=2.0, w_plus=1.0, w_minus=0.0)
        )
        for attr in ("eps_plus", "eps_minus", "yield_radius", "sigma_star", "offset"):
            assert getattr(swapped, attr) == pytest.approx(getattr(analysis, attr))
        rs = np.linspace(0, 3, 301)
        np.testing.assert_allclose(swapped.qw_radial(rs), analysis.qw_radial(rs), atol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            REF_PARAMS,
            dict(mu_plus=3.7, mu_minus=0.3, w_plus=-0.4, w_minus=1.1),
            # the ratio under the outer root, 2e-462, underflows to 0
            dict(mu_plus=1e-154, mu_minus=1e154, w_plus=1e-154, w_minus=-1.0),
            # the ratios 2e600 and 4e-620 overflow and underflow
            dict(mu_plus=1e-300, mu_minus=1e10, w_plus=1e300, w_minus=0.0),
        ],
    )
    def test_radii_are_the_exact_roots(self, params):
        # against the roots in 40-digit decimal arithmetic of the same [w]
        # and [mu]; the stress sigma* too
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            p = gj.AntiplaneParams(**params)
            jw, jmu = (decimal.Decimal(v) for v in (p.jump_w, p.jump_mu))
            mu_p, mu_m = decimal.Decimal(p.mu_plus), decimal.Decimal(p.mu_minus)
            radii = sorted(float((-2 * jw * a / (jmu * b)).sqrt())
                           for a, b in ((mu_m, mu_p), (mu_p, mu_m)))
            sigma = float((-2 * jw * mu_p * mu_m / jmu).sqrt())
        analysis = gj.antiplane_analyze(p)
        got = (analysis.eps_plus, analysis.eps_minus, analysis.sigma_star)
        assert all(g > 0.0 for g in got)
        np.testing.assert_allclose(got, [*radii, sigma], rtol=4e-16, atol=0.0)

    def test_radii_are_the_direct_roots_where_those_are_normal(self, rng):
        # so every output of the bench's antiplane config keeps its bits
        for _ in range(200):
            mu_p, mu_m = rng.uniform(0.1, 10.0, 2)
            w_p, w_m = rng.uniform(-5.0, 5.0, 2)
            if (w_p - w_m) * (mu_p - mu_m) >= 0.0:
                w_p, w_m = w_m, w_p
            p = gj.AntiplaneParams(mu_plus=mu_p, mu_minus=mu_m, w_plus=w_p, w_minus=w_m)
            jw, jmu = np.float64(p.jump_w), np.float64(p.jump_mu)
            direct = sorted([np.sqrt(-2.0 * jw * mu_m / (jmu * mu_p)),
                             np.sqrt(-2.0 * jw * mu_p / (jmu * mu_m))])
            analysis = gj.antiplane_analyze(p)
            assert [analysis.eps_plus, analysis.eps_minus] == direct
            assert analysis.sigma_star == np.sqrt(-2.0 * jw * mu_p * mu_m / jmu)

    def test_empty_binodal_rejected(self):
        with pytest.raises(gj.EmptyBinodalError):
            gj.antiplane_analyze(
                gj.AntiplaneParams(mu_plus=2.0, mu_minus=1.0, w_plus=1.0, w_minus=0.0)
            )

    def test_small_jumps_compare_signs_not_their_product(self):
        # [w] [mu] = -1e-400 underflows to -0.0; the reference pair's jumps
        # scaled by 1e-200 keep its radii 1 and 2
        analysis = gj.antiplane_analyze(gj.AntiplaneParams(2e-200, 1e-200, 0.0, 1e-200))
        assert analysis.eps_plus == pytest.approx(1.0, rel=1e-15)
        assert analysis.eps_minus == pytest.approx(2.0, rel=1e-15)
        # a zero [w], and small jumps of the same sign, are still refused
        for w_plus, w_minus in ((1e-200, 1e-200), (1e-200, 0.0), (0.0, -5e-324)):
            with pytest.raises(gj.EmptyBinodalError):
                gj.AntiplaneParams(2e-200, 1e-200, w_plus, w_minus).require_binodal()

    def test_against_dense_radial_convexification(self, analysis, antiplane):
        rs = np.linspace(0.0, 3.0, 6001)
        w = antiplane.value_many(np.stack([rs, np.zeros_like(rs)], axis=1)[:, None, :])
        _, hull = gj.lower_convex_hull(rs, w)
        assert np.max(np.abs(hull - analysis.qw_radial(rs))) <= 1e-6

    def test_hull_matches_analytic_along_radial_segment(self, analysis, antiplane, rng):
        # the sampled hull of W along an equilibrium radial segment reproduces
        # the closed-form relaxed energy pointwise
        for _ in range(5):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            pair = gj.mechanism_pair(analysis, direction)
            t = np.linspace(0.0, 1.0, 256)
            curve = gj.rank_one_restriction(antiplane, pair, t)
            segment = t[:, None] * pair.fp[0] + (1 - t)[:, None] * pair.fm[0]
            qw = analysis.qw_radial(np.linalg.norm(segment, axis=1))
            assert np.max(np.abs(curve.hull_values - qw)) <= 1e-8

    def test_stress_continuity_at_binodal_radii(self, analysis):
        assert analysis.mu_inner * analysis.eps_plus == pytest.approx(
            analysis.sigma_star, abs=1e-12
        )
        assert analysis.mu_outer * analysis.eps_minus == pytest.approx(
            analysis.sigma_star, abs=1e-12
        )


class TestLaminate:
    def test_reference_macro(self, analysis):
        state = gj.laminate_from_macro(analysis, [[1.5, 0.0]])
        assert state.theta == pytest.approx(0.5)
        np.testing.assert_allclose(state.fp, [[1.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(state.fm, [[2.0, 0.0]], atol=1e-14)
        assert state.energy == pytest.approx(2.0)

    def test_boundaries(self, analysis):
        assert gj.laminate_from_macro(analysis, [[1.0, 0.0]]).theta == pytest.approx(1.0)
        assert gj.laminate_from_macro(analysis, [[0.0, 2.0]]).theta == pytest.approx(0.0)

    def test_outside_rejected(self, analysis):
        with pytest.raises(gj.OutOfRegionError):
            gj.laminate_from_macro(analysis, [[0.5, 0.0]])
        with pytest.raises(gj.OutOfRegionError):
            gj.laminate_from_macro(analysis, [[2.5, 0.0]])

    def test_energy_equals_relaxed_value(self, analysis, rng):
        for _ in range(20):
            r = rng.uniform(analysis.eps_plus, analysis.eps_minus)
            angle = rng.uniform(0, 2 * np.pi)
            f0 = r * np.array([[np.cos(angle), np.sin(angle)]])
            state = gj.laminate_from_macro(analysis, f0)
            assert state.energy == pytest.approx(analysis.qw_radial(r), abs=1e-12)
            np.testing.assert_allclose(
                state.theta * state.fp + (1 - state.theta) * state.fm, f0, atol=1e-12
            )

    def test_laminate_pair_is_marginal(self, analysis, antiplane, rng):
        # the optimal pair carries equal phase stresses and zero driving forces
        state = gj.laminate_from_macro(analysis, [[1.2, 0.9]])
        pair = gj.InterfacePair.from_gradients(state.fp, state.fm)
        assert abs(gj.interchange_force(antiplane, pair)) < 1e-12
        assert abs(gj.maxwell_force(antiplane, pair)) < 1e-12


class TestYieldGeometry:
    def test_equilibrium_plane(self, antiplane, eq_pair):
        mech = gj.yield_plane(antiplane, eq_pair)
        np.testing.assert_allclose(mech.yield_normal, [[-1.0, 0.0]])
        assert mech.yield_offset == pytest.approx(-2.0)
        assert mech.normality_ok
        assert mech.origin_distance() == pytest.approx(2.0)

    def test_signed_gap_identities(self, antiplane, rng):
        for _ in range(20):
            pair = random_antiplane_pair(rng)
            mech = gj.yield_plane(antiplane, pair)
            frak_n = gj.interchange_force(antiplane, pair)
            p_star = gj.maxwell_force(antiplane, pair)
            assert mech.gap_plus - mech.gap_minus == pytest.approx(frak_n, abs=1e-10)
            assert mech.gap_plus + mech.gap_minus == pytest.approx(-2 * p_star, abs=1e-10)

    def test_off_equilibrium_straddles_plane(self, antiplane, noneq_pair):
        mech = gj.yield_plane(antiplane, noneq_pair)
        assert not mech.normality_ok
        assert mech.gap_plus * mech.gap_minus < 0.0

    def test_tangency_over_mechanisms(self, analysis, antiplane):
        for angle in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            pair = gj.mechanism_pair(analysis, [np.cos(angle), np.sin(angle)])
            mech = gj.yield_plane(antiplane, pair)
            assert gj.tangency_gap(analysis, mech) <= 1e-10
            assert mech.normality_ok


class TestStrainRateSplit:
    def test_pure_mixture_rate(self, analysis):
        state = gj.laminate_from_macro(analysis, [[1.5, 0.0]])
        zero = np.zeros((1, 2))
        elastic, plastic = gj.strain_rate_split(state, 0.3, zero, zero)
        np.testing.assert_allclose(elastic, zero)
        np.testing.assert_allclose(plastic, 0.3 * (state.fp - state.fm), atol=1e-14)

    def test_pure_elastic_rate(self, analysis, rng):
        state = gj.laminate_from_macro(analysis, [[1.5, 0.0]])
        dfp = rng.normal(size=(1, 2))
        dfm = rng.normal(size=(1, 2))
        elastic, plastic = gj.strain_rate_split(state, 0.0, dfp, dfm)
        np.testing.assert_allclose(plastic, 0.0, atol=1e-15)
        np.testing.assert_allclose(
            elastic, state.theta * dfp + (1 - state.theta) * dfm, atol=1e-14
        )

    def test_mixture_rate_projects_onto_jump(self, analysis, rng):
        state = gj.laminate_from_macro(analysis, [[1.1, 1.1]])
        jump = state.fp - state.fm
        for _ in range(10):
            dtheta = rng.normal()
            _, plastic = gj.strain_rate_split(
                state, dtheta, rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
            )
            proj = gj.frobenius(plastic, jump) / np.linalg.norm(jump)
            assert proj == pytest.approx(dtheta * np.linalg.norm(jump), abs=1e-12)


class TestLoadingProgram:
    def test_radial_path_stress_plateau(self, analysis):
        rs = np.linspace(0.5, 2.5, 41)
        path = [[[r, 0.0]] for r in rs]
        steps = gj.loading_program(analysis, path)
        for step in steps:
            norm_p = np.linalg.norm(step.p_total)
            if 1.0 <= step.f_norm <= 2.0:
                assert step.on_yield
                assert norm_p == pytest.approx(2.0, abs=1e-12)
            elif step.f_norm < 1.0:
                assert not step.on_yield
                assert norm_p == pytest.approx(2.0 * step.f_norm, abs=1e-12)
            else:
                assert not step.on_yield
                assert norm_p == pytest.approx(step.f_norm, abs=1e-12)

    def test_single_phase_path(self, analysis):
        path = [[[0.1 * k, 0.05]] for k in range(1, 6)]
        steps = gj.loading_program(analysis, path)
        assert all(not s.on_yield for s in steps)
        for s in steps:
            np.testing.assert_allclose(s.p_total, 2.0 * s.f, atol=1e-14)
            assert s.theta == 1.0

    def test_rotating_path_follows_direction(self, analysis):
        angles = np.linspace(0, np.pi, 13)
        path = [[[1.5 * np.cos(a), 1.5 * np.sin(a)]] for a in angles]
        for step, a in zip(gj.loading_program(analysis, path), angles):
            assert np.linalg.norm(step.p_total) == pytest.approx(2.0, abs=1e-12)
            direction = np.array([np.cos(a), np.sin(a)])
            np.testing.assert_allclose(step.p_total[0], 2.0 * direction, atol=1e-12)
            assert step.theta == pytest.approx(0.5)
