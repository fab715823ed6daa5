import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradjump as gj
from gradjump.config import RunConfig

from conftest import REF_PARAMS, ValueOnlyQuadratic

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


def random_antiplane_pair(rng, smooth_guard=0.05):
    """Compatible scalar pair with both endpoints away from the branch tie."""
    tie = np.sqrt(2.0)
    while True:
        fm = rng.normal(size=(1, 2)) * 1.5
        a = rng.normal(size=1)
        angle = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(angle), np.sin(angle)])
        fp = fm + np.outer(a, n)
        radii = np.linalg.norm([fp[0], fm[0]], axis=1)
        if np.linalg.norm(a) > 1e-3 and np.all(np.abs(radii - tie) > smooth_guard):
            return gj.InterfacePair.from_gradients(fp, fm)


class TestInterfacePair:
    def test_from_gradients(self, eq_pair):
        np.testing.assert_allclose(eq_pair.a, [-1.0])
        np.testing.assert_allclose(eq_pair.n, [1.0, 0.0])
        np.testing.assert_allclose(eq_pair.jump, [[-1.0, 0.0]])

    def test_from_jump(self):
        pair = gj.InterfacePair.from_jump([[2.0, 0.0]], [-1.0], [1.0, 0.0])
        np.testing.assert_allclose(pair.fp, [[1.0, 0.0]])

    def test_invariant_enforced(self):
        with pytest.raises(gj.DimensionError):
            gj.InterfacePair(
                fp=np.array([[1.0, 1.0]]),
                fm=np.array([[0.0, 0.0]]),
                a=np.array([1.0]),
                n=np.array([1.0, 0.0]),
            )

    def test_incompatible_gradients(self):
        with pytest.raises(gj.IncompatiblePairError):
            gj.InterfacePair.from_gradients(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gj.InterfacePair.from_jump([[1.0, 0.0]], [1e200], [1.0, 0.0]),
            lambda: gj.InterfacePair.from_jump([[1e308, 0.0]], [1e308], [1.0, 0.0]),
            lambda: gj.InterfacePair([[1e200, 0.0]], [[0.0, 0.0]], [1e200], [1.0, 0.0]),
            lambda: gj.InterfacePair([[1e154, 1e154]], [[1e154, 0.0]], [1e154], [0.0, 1.0]),
        ],
    )
    def test_overflowing_norms_are_refused_without_a_warning(self, build):
        # from_jump used to print numpy's overflow warning and return the pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double precision"):
                build()


class TestDrivingForces:
    def test_equilibrium_pair_all_zero(self, antiplane, eq_pair):
        assert abs(gj.interchange_force(antiplane, eq_pair)) < 1e-12
        assert abs(gj.maxwell_force(antiplane, eq_pair)) < 1e-12
        assert np.linalg.norm(gj.traction_residual(antiplane, eq_pair)) < 1e-12
        assert np.linalg.norm(gj.roughening_residual(antiplane, eq_pair)) < 1e-12

    def test_off_equilibrium_values(self, antiplane, noneq_pair):
        assert gj.interchange_force(antiplane, noneq_pair) == pytest.approx(0.24)
        assert gj.maxwell_force(antiplane, noneq_pair) == pytest.approx(0.10)
        np.testing.assert_allclose(
            gj.roughening_residual(antiplane, noneq_pair), [0.24, 0.0], atol=1e-12
        )
        assert gj.normality_gap(antiplane, noneq_pair) == pytest.approx(0.04)

    def test_quadratic_pair(self, rng):
        model = gj.QuadraticEnergy(1, 2, mu=1.0)
        pair = gj.InterfacePair.from_jump(rng.normal(size=(1, 2)), [1.0], [1.0, 0.0])
        # [P] = [F] for the identity-modulus quadratic
        assert gj.interchange_force(model, pair) == pytest.approx(1.0)
        assert abs(gj.maxwell_force(model, pair)) < 1e-12
        np.testing.assert_allclose(gj.traction_residual(model, pair), [1.0], atol=1e-12)

    def test_scalar_roughening_proportional_to_traction(self, antiplane, rng):
        # m = 1: [P]^T a is the scalar a times the row [P]
        for _ in range(20):
            pair = random_antiplane_pair(rng)
            pp = antiplane.gradient(pair.fp)
            pm = antiplane.gradient(pair.fm)
            np.testing.assert_allclose(
                gj.roughening_residual(antiplane, pair),
                pair.a[0] * (pp - pm)[0],
                atol=1e-12,
            )

    def test_master_identity(self, antiplane, rng):
        # excess at the jump increments reproduces -/+ p* + N/2 exactly
        models = [antiplane, gj.QuadraticEnergy(1, 2, mu=1.3)]
        for model in models:
            for _ in range(50):
                pair = random_antiplane_pair(rng)
                p_star = gj.maxwell_force(model, pair)
                frak_n = gj.interchange_force(model, pair)
                lhs_p = model.excess(pair.fp, -pair.jump)
                lhs_m = model.excess(pair.fm, pair.jump)
                assert lhs_p == pytest.approx(-p_star + frak_n / 2, abs=1e-10)
                assert lhs_m == pytest.approx(p_star + frak_n / 2, abs=1e-10)


class TestWeierstrassScan:
    def test_quadratic_minimum_is_smallest_radius(self):
        model = gj.QuadraticEnergy(1, 2, mu=1.0)
        radii = np.array([0.5, 1.0, 2.0])
        scan = gj.weierstrass_scan(model, [[0.3, 0.1]], radii, resolution=8)
        assert scan.min_value == pytest.approx(0.5 * 0.5**2)

    def test_stable_point(self, antiplane):
        scan = gj.weierstrass_scan(
            antiplane, [[0.5, 0.0]], gj.default_radii(1.0), resolution=32
        )
        assert scan.min_value >= -1e-12

    def test_binodal_point_detected(self, antiplane):
        witness = antiplane.excess([[1.5, 0.0]], [[-0.5, 0.0]])
        assert witness == pytest.approx(-0.375)
        scan = gj.weierstrass_scan(
            antiplane, [[1.5, 0.0]], gj.default_radii(1.0), resolution=64
        )
        assert scan.min_value < -0.1

    def test_matches_bruteforce_loop(self, antiplane):
        # the base-class grid search, which value-only subclasses get
        radii = gj.default_radii(1.0, num=9)
        us = gj.sphere_grid(1, 8)
        vs = gj.sphere_grid(2, 8)
        best = np.inf
        for u in us:
            for v in vs:
                for r in radii:
                    best = min(best, antiplane.excess([[1.5, 0.0]], r * np.outer(u, v)))
        grid = gj.EnergyModel.rank_one_minimum(antiplane, np.array([[1.5, 0.0]]), radii, 8)
        assert grid[0] == pytest.approx(best, abs=1e-14)
        assert grid[-1] == "grid"

    def test_monotone_in_resolution(self, antiplane):
        radii = gj.default_radii(1.2)
        f = np.array([[1.3, 0.4]])
        prev = np.inf
        for res in (8, 16, 32):  # nested circle grids under doubling
            value = gj.EnergyModel.rank_one_minimum(antiplane, f, radii, res)[0]
            assert value <= prev + 1e-15
            prev = value
        assert gj.weierstrass_scan(antiplane, f, radii, 8).min_value <= prev

    def test_deterministic(self, antiplane):
        radii = gj.default_radii(1.0)
        s1 = gj.weierstrass_scan(antiplane, [[1.5, 0.0]], radii, 16)
        s2 = gj.weierstrass_scan(antiplane, [[1.5, 0.0]], radii, 16)
        assert s1.min_value == s2.min_value
        np.testing.assert_array_equal(s1.v, s2.v)
        assert s1.r == s2.r

    def test_empty_radii(self, antiplane):
        with pytest.raises(ValueError):
            gj.weierstrass_scan(antiplane, [[0.5, 0.0]], [], 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_radii_not_finite_and_positive(self, monkeypatch, antiplane, bad):
        # a NaN radius used to pass and leave min_value = inf, r = nan; the
        # radii are refused before the closed form sees them
        def closed_form(*args):
            raise AssertionError("rank_one_minimum called")

        monkeypatch.setattr(antiplane, "rank_one_minimum", closed_form)
        with pytest.raises(ValueError, match="finite and positive"):
            gj.weierstrass_scan(antiplane, [[1.0, 0.0]], [bad, 1.0], 8)
        with pytest.raises(ValueError, match="finite and positive"):
            gj.diagnose(antiplane, gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]]),
                        scan_radii=[1.0, bad], scan_resolution=8)

    def test_matrix_valued_models(self):
        # m = d = 2: scans must handle full matrix batches
        iso = gj.IsotropicThetaEnergy(gj.IsotropicParams(2, 1.0, (1, 0, -2, 0, 1)))
        scan = gj.weierstrass_scan(iso, 0.05 * np.eye(2), gj.default_radii(1.0), 8)
        assert np.isfinite(scan.min_value)
        assert scan.u.shape == (2,) and scan.v.shape == (2,)
        assert scan.method == "exact"
        # the base-class grid on a 2 x 2 model that defines only value()
        value_only = ValueOnlyQuadratic(2, 2)
        scan_value_only = gj.weierstrass_scan(value_only, np.eye(2), [0.1, 1.0], 8)
        assert scan_value_only.min_value >= -1e-10  # convex
        assert scan_value_only.method == "grid"
        grid = gj.sphere_grid(2, 8)
        reference = _grid_minimum(value_only, np.eye(2), grid, grid, [0.1, 1.0])
        bits = np.float64([scan_value_only.min_value, reference]).view(np.int64)
        assert bits[0] == bits[1]

    def test_diagnose_matrix_valued_model(self):
        iso = gj.IsotropicThetaEnergy(gj.IsotropicParams(2, 1.0, (1, 0, -2, 0, 1)))
        pair = gj.InterfacePair.from_jump(-0.5 * np.eye(2), [1.5, 0.0], [1.0, 0.0])
        diag = gj.diagnose(iso, pair, scan_resolution=8)
        assert np.isfinite(diag.p_star) and np.isfinite(diag.frak_n)
        assert diag.traction_residual.shape == (2,)
        assert diag.roughening_residual.shape == (2,)
        assert abs(diag.frak_n) < 1e-12  # constructed normal pair

    def test_default_radii_contains_scale(self):
        radii = gj.default_radii(1.7)
        assert np.min(np.abs(radii - 1.7)) < 1e-12


def _iso(d, mu, coeffs=(1.0, 0.0, -2.0, 0.0, 1.0)):
    return gj.IsotropicThetaEnergy(gj.IsotropicParams(d, mu, coeffs))


#: (model, point) cases of every closed-form kind, stable and unstable
#: points alike: 2-D, 3-D, m = 1, d = 1, mu = 0 and a 3 x 3 three-branch model
EXACT_CASES = {
    "antiplane-binodal": (gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)),
                          [[1.3, 0.4]]),
    "antiplane-stable": (gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)),
                         [[0.0, -2.5]]),
    "antiplane-m1-d3": (gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS), d=3),
                        [[1.2, -0.5, 0.3]]),
    "quadratic-2x2": (gj.QuadraticEnergy(2, 2, mu=1.3), [[0.3, -1.0], [0.2, 0.5]]),
    "min-quad-d1": (gj.MinQuadraticsEnergy(2, 1, [(2.0, 0.0), (1.0, 1.0)]), [[1.1], [0.6]]),
    "min-quad-3x3-three-branch": (
        gj.MinQuadraticsEnergy(3, 3, [(1.0, 0.0), (2.5, -1.2), (0.6, 0.4)]),
        [[0.4, -0.3, 0.2], [0.1, 0.5, -0.6], [0.3, 0.2, 0.4]],
    ),
    "isotropic-2d": (_iso(2, 1.0), [[0.2, 0.1], [-0.3, 0.1]]),
    "isotropic-3d-bench-plus": (_iso(3, 1.0), [[0.6, 0.0, 0.0], [0.2, 0.1, 0.0],
                                                [0.1, 0.0, 0.1]]),
    "isotropic-3d-bench-minus": (_iso(3, 1.0), 0.1 * np.eye(3)),
    "isotropic-d1": (_iso(1, 0.0), [[0.3]]),
    "isotropic-mu0": (_iso(2, 0.0, (0.5, -1.0, 0.3, 0.8, -0.2, 0.1)), [[0.4, 0.2], [0.0, 0.9]]),
    "isotropic-convex": (_iso(3, 2.0, (0.0, 1.0, 1.5)), np.eye(3)),
}


def _scale(model, f, scan):
    """The size of the terms that the excess at f sums near the argmin."""
    stress = float(np.linalg.norm(model.gradient(f)))
    return 1.0 + abs(model.value(f)) + stress * scan.r + abs(scan.min_value)


def _grid_minimum(model, f, us, vs, radii):
    """Least excess over us x vs x radii on (N, m, d) stacks of
    ``value_many``, the reference that no closed form takes part in."""
    world = (np.asarray(radii)[None, :, None] * np.asarray(vs)[:, None, :]).reshape(-1, model.d)
    wbar, stress = model.value(f), model.gradient(f)
    best = np.inf
    for u in us:
        lin = stress.T @ u
        # (P, u (x) w) column by column, as the base-class grid forms it
        dot = world[:, 0] * lin[0]
        for k in range(1, model.d):
            dot += world[:, k] * lin[k]
        vals = model.value_many(f + u[None, :, None] * world[:, None, :]) - wbar - dot
        best = min(best, float(np.min(vals)))
    return best


def _kernel_grid_minimum(model, f, radii, resolution):
    """Least excess over the base-class grid sphere_grid(m) x
    sphere_grid(d) x radii and its mirror image at -u, from the model's
    closed-form kernel on both sides of F, which in 3-D costs a tenth of
    the base class's (N, m, d) stacks."""
    vs = gj.sphere_grid(model.d, resolution)
    world = (radii[None, :, None] * vs[:, None, :]).reshape(-1, model.d)
    return min(
        float(np.min(side))
        for u in gj.sphere_grid(model.m, resolution)
        for side in model.rank_one_excess(f, f, u, 1.0)(world)
    )


def _around(w, delta):
    """Unit vectors w + delta c, normalized, for c in {-1, 0, 1}^k."""
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(w))))
    near = w[None, :] + delta * shifts
    return near / np.linalg.norm(near, axis=1, keepdims=True)


class TestExactMinimum:
    """The built-in kinds' closed-form minima over every r u (x) v."""

    @pytest.fixture(params=sorted(EXACT_CASES))
    def case(self, request):
        model, f = EXACT_CASES[request.param]
        f = np.asarray(f, dtype=float)
        radii = gj.default_radii(1.0 + float(np.linalg.norm(f)))
        return model, f, radii, gj.weierstrass_scan(model, f, radii, 8)

    def test_at_or_below_every_grid(self, case):
        model, f, radii, scan = case
        assert scan.method == "exact"
        # a 3-D grid at resolution 64 has 688 million increments
        for res in (8, 16, 32, 64) if model.d < 3 else (8, 16, 32):
            grid = _kernel_grid_minimum(model, f, radii, res)
            assert scan.min_value <= grid + 1e-12 * _scale(model, f, scan)

    def test_a_refined_grid_around_the_argmin_agrees(self, case):
        model, f, radii, scan = case
        rs = np.clip(scan.r * (1.0 + 1e-5 * np.arange(-2, 3)), radii[0], radii[-1])
        refined = _grid_minimum(model, f, _around(scan.u, 1e-5), _around(scan.v, 1e-5), rs)
        assert refined >= scan.min_value - 1e-12 * _scale(model, f, scan)
        assert refined <= scan.min_value + 1e-9

    def test_the_argmin_reproduces_the_value(self, case):
        model, f, radii, scan = case
        assert np.linalg.norm(scan.u) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(scan.v) == pytest.approx(1.0, abs=1e-15)
        assert radii[0] <= scan.r <= radii[-1]
        assert type(scan.r) is float and type(scan.min_value) is float
        excess = model.excess(f, scan.r * np.outer(scan.u, scan.v))
        scale = _scale(model, f, scan)
        assert excess == pytest.approx(scan.min_value, rel=1e-12, abs=1e-15 * scale)

    def test_the_window_is_min_to_max_radius(self, case):
        model, f, radii, scan = case
        shuffled = np.concatenate([radii[::-2], radii[1::2]])
        again = gj.weierstrass_scan(model, f, shuffled, 64)
        assert repr(again.to_dict()) == repr(scan.to_dict())

    @pytest.mark.parametrize("d", [2, 3])
    def test_trailing_zero_coefficients_change_nothing(self, d):
        # an identically zero derivative, kept in the chain, would double the
        # points that bracket roots at each level: 60 zeros, about 2^59
        f = 0.1 * np.eye(d)
        radii = gj.default_radii(2.0)
        base = gj.weierstrass_scan(_iso(d, 1.0), f, radii)
        padded = gj.weierstrass_scan(_iso(d, 1.0, (1.0, 0.0, -2.0, 0.0, 1.0) + (0.0,) * 60),
                                     f, radii)
        assert repr(padded.to_dict()) == repr(base.to_dict())

    def test_bench_3d_minima(self):
        # bench/configs/scan_3d.json at its default radii
        model = _iso(3, 1.0)
        pair = gj.InterfacePair.from_jump(0.1 * np.eye(3), [0.5, 0.2, 0.1], [1.0, 0.0, 0.0])
        diag = gj.diagnose(model, pair, scan_resolution=16)
        assert diag.weierstrass_min_plus == pytest.approx(-0.139321940701043, rel=1e-13)
        assert diag.weierstrass_min_minus == pytest.approx(-1.14454255482365, rel=1e-13)
        assert diag.weierstrass_method == "exact"

    @pytest.mark.parametrize("d, mu", [(1, 0.0), (1, 1.0), (2, 0.0), (2, 0.7), (3, 1.5)])
    def test_isotropic_matches_a_dense_p_r_grid(self, rng, d, mu):
        # the excess at r u (x) v depends on u, v only through p = u.v:
        # T(r p) + mu r^2 (1/2 + p^2 (1/2 - 1/d)), with p = +-1 when d = 1
        poly = np.polynomial.polynomial
        ps = np.array([-1.0, 1.0]) if d == 1 else np.linspace(-1.0, 1.0, 801)
        for _ in range(20):
            coeffs = rng.normal(size=rng.integers(1, 8))
            model = _iso(d, mu, coeffs)
            f = rng.normal(size=(d, d)) * 0.5
            radii = np.sort(rng.uniform(0.05, 3.0, size=2))
            rs = np.linspace(radii[0], radii[1], 801)
            tail = model.params.taylor(float(np.trace(f)))
            tail[:2] = 0.0
            x = rs[:, None] * ps[None, :]
            dense = poly.polyval(x, tail) + mu * rs[:, None] ** 2 * (
                0.5 + ps[None, :] ** 2 * (0.5 - 1.0 / d))
            scan = gj.weierstrass_scan(model, f, radii)
            scale = 1.0 + float(np.max(np.abs(dense)))
            assert scan.min_value <= dense.min() + 1e-12 * scale
            # and an increment of the window attains it
            assert radii[0] <= scan.r <= radii[1]
            assert np.linalg.norm(scan.u) == pytest.approx(1.0, abs=1e-15)
            excess = model.excess(f, scan.r * np.outer(scan.u, scan.v))
            assert excess == pytest.approx(scan.min_value, abs=1e-12 * scale)

    def test_isotropic_calls_no_lapack(self, monkeypatch):
        def lapack(*args, **kwargs):
            raise AssertionError("a LAPACK routine was called")

        for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "lstsq", "solve"):
            monkeypatch.setattr(np.linalg, name, lapack)
        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", lapack)
        monkeypatch.setattr(np, "roots", lapack)
        for key in ("isotropic-3d-bench-plus", "isotropic-d1", "isotropic-mu0"):
            model, f = EXACT_CASES[key]
            assert gj.weierstrass_scan(model, f, [0.01, 3.0]).method == "exact"

    def test_zero_slope_rule(self):
        # at the centre of a single well every u, v ties: u = e_1, v = e_1
        scan = gj.weierstrass_scan(gj.QuadraticEnergy(2, 3, mu=2.0), np.zeros((2, 3)), [0.5, 4.0])
        assert scan.min_value == 0.25
        assert scan.u.tolist() == [1.0, 0.0] and scan.v.tolist() == [1.0, 0.0, 0.0]
        assert scan.r == 0.5

    def test_overflowing_stress_gives_nan_not_a_traceback(self):
        # every branch overflows at F, so no branch has a value
        model = gj.MinQuadraticsEnergy(2, 2, [(1e300, 0.0), (1e300, 1.0)])
        f = np.array([[1e10, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            scan = gj.weierstrass_scan(model, f, [0.5, 1.0])
        assert not np.isfinite(scan.min_value)

    @pytest.mark.parametrize("branches, r_lo, value", [
        ([(1e300, 0.0), (1.0, 0.5)], 1e-3, 5e-7),
        ([(1.0, 0.5), (1e300, 0.0)], 1e-3, 5e-7),
        ([(1e300, 0.0), (1.0, 1e300)], 0.5, 0.125),
    ])
    def test_a_branch_that_overflows_does_not_decide(self, branches, r_lo, value):
        # W(F) is finite on the mu = 1 branch, whose excess 0.5 r^2 is least
        # at r_lo; the mu = 1e300 branch's value at F is NaN, first or second
        model = gj.MinQuadraticsEnergy(2, 2, branches)
        f = np.array([[1e10, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = gj.weierstrass_scan(model, f, [r_lo, 1.0])
        assert (scan.min_value, scan.r) == (value, r_lo)


class TestNormalityGap:
    def test_equilibrium_zero(self, antiplane, eq_pair):
        assert gj.normality_gap(antiplane, eq_pair) == pytest.approx(0.0, abs=1e-12)

    def test_unstable_endpoints_flagged_not_errored(self, antiplane):
        # both endpoints sit inside the two-phase region on opposite branches:
        # the interchange force turns negative and is simply reported
        pair = gj.InterfacePair.from_gradients([[1.5, 0.0]], [[1.2, 0.0]])
        gap = gj.normality_gap(antiplane, pair)
        assert gap < 0.0
        assert gj.interchange_force(antiplane, pair) == pytest.approx(-0.27)

    def test_stable_endpoints_nonnegative(self, antiplane, rng):
        checked = 0
        while checked < 100:
            pair = random_antiplane_pair(rng)
            radii = gj.default_radii(max(np.linalg.norm(pair.jump), 0.1))
            if (
                gj.weierstrass_scan(antiplane, pair.fp, radii, 32).min_value < -1e-12
                or gj.weierstrass_scan(antiplane, pair.fm, radii, 32).min_value < -1e-12
            ):
                continue
            assert gj.normality_gap(antiplane, pair) >= -1e-8
            checked += 1


class TestTaylorResidual:
    def test_zero_increment_is_exact(self, antiplane, noneq_pair):
        for side in (+1, -1):
            lhs, rhs = gj.taylor_residual(antiplane, noneq_pair, [0.0], [0.0, 0.0], side)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_equilibrium_zero_both_sides(self, antiplane, eq_pair):
        for side in (+1, -1):
            lhs, _ = gj.taylor_residual(antiplane, eq_pair, [0.0], [0.0, 0.0], side)
            assert lhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("side", [+1, -1])
    def test_second_order_decay(self, antiplane, noneq_pair, side):
        xi = np.array([0.02])
        eta = np.array([0.01, -0.015])
        l1, r1 = gj.taylor_residual(antiplane, noneq_pair, xi, eta, side)
        l2, r2 = gj.taylor_residual(antiplane, noneq_pair, xi / 2, eta / 2, side)
        assert abs(l2 - r2) <= 0.3 * abs(l1 - r1)

    def test_bad_side(self, antiplane, eq_pair):
        with pytest.raises(ValueError):
            gj.taylor_residual(antiplane, eq_pair, [0.0], [0.0, 0.0], side=2)


class TestDiagnose:
    def test_equilibrium_all_ok(self, antiplane, eq_pair):
        diag = gj.diagnose(antiplane, eq_pair)
        assert diag.all_ok
        assert diag.maxwell_ok and diag.traction_ok
        assert diag.roughening_ok and diag.interchange_ok and diag.weierstrass_ok

    def test_off_equilibrium_flags(self, antiplane, noneq_pair):
        diag = gj.diagnose(antiplane, noneq_pair)
        assert not diag.maxwell_ok
        assert not diag.interchange_ok
        assert not diag.all_ok

    def test_json_round_trip(self, antiplane, eq_pair):
        diag = gj.diagnose(antiplane, eq_pair)
        parsed = json.loads(json.dumps(diag.to_dict()))
        assert parsed["verdicts"]["all_ok"] is True
        assert parsed["tolerances"]["tol_abs"] == diag.tol_abs
        assert parsed["p_star"] == diag.p_star
        assert parsed["weierstrass_method"] == "exact"
        scan = gj.weierstrass_scan(antiplane, eq_pair.fp, gj.default_radii(1.0))
        assert json.loads(json.dumps(scan.to_dict())) == scan.to_dict()
        assert scan.to_dict()["method"] == "exact"

    def test_value_only_model_reports_the_grid(self):
        model = ValueOnlyQuadratic(1, 2)
        pair = gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]])
        diag = gj.diagnose(model, pair, scan_resolution=8).to_dict()
        assert diag["weierstrass_method"] == "grid"
        assert diag["weierstrass_min_plus"] >= -1e-10


def bench_case(name):
    cfg = RunConfig.from_file("check", BENCH_CONFIGS / f"{name}.json")
    model = cfg.model()
    return model, cfg.pair(model)


#: (model, pair) builders: the two bench check pairs, then the conftest pairs
#: and a value-only model, whose stress is a central difference
STRESS_CASES = {
    "scan_3d": lambda: bench_case("scan_3d"),
    "check_maxwell": lambda: bench_case("check_maxwell"),
    "antiplane_eq": lambda: (gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)),
                             gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]])),
    "antiplane_noneq": lambda: (gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)),
                                gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.0]])),
    "value_only": lambda: (ValueOnlyQuadratic(1, 2),
                           gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.5]])),
}


class TestOneStressPerEndpoint:
    """The jump code computes P+ and P- once per call, and its quantities
    equal the public functions' bit for bit."""

    @pytest.fixture(params=sorted(STRESS_CASES))
    def case(self, request):
        return STRESS_CASES[request.param]()

    @staticmethod
    def count_gradient_calls(model, monkeypatch):
        """Record, per model.gradient call, whether a model method that takes
        its own stress (``rank_one_minimum``, ``excess``) made it."""
        calls, inside = [], []
        gradient = model.gradient

        def counted(f):
            calls.append(bool(inside))
            return gradient(f)

        def own_stress(method):
            def wrapped(*args):
                inside.append(method)
                try:
                    return method(*args)
                finally:
                    inside.pop()
            return wrapped

        monkeypatch.setattr(model, "gradient", counted)
        for name in ("rank_one_minimum", "excess"):
            monkeypatch.setattr(model, name, own_stress(getattr(model, name)))
        return calls

    @pytest.mark.parametrize("name, total", [("scan_3d", 2), ("check_maxwell", 4)])
    def test_diagnose_computes_two_stresses(self, monkeypatch, name, total):
        # the min-of-quadratics exact minimum takes the stress at its F itself
        model, pair = bench_case(name)
        calls = self.count_gradient_calls(model, monkeypatch)
        gj.diagnose(model, pair)
        assert calls.count(False) == 2
        assert len(calls) == total

    def test_each_caller_computes_two_stresses(self, case, monkeypatch):
        model, pair = case
        calls = self.count_gradient_calls(model, monkeypatch)
        for run in (
            lambda: gj.diagnose(model, pair, scan_resolution=8),
            lambda: gj.taylor_residual(model, pair, np.full(pair.m, 0.01), np.zeros(pair.d)),
            lambda: gj.normality_gap(model, pair),
            lambda: gj.check_affine_formula(model, pair, grid_size=11),
        ):
            calls.clear()
            run()
            assert calls.count(False) == 2

    def test_bitwise_equal_to_the_public_functions(self, case):
        model, pair = case
        p_star = gj.maxwell_force(model, pair)
        frak_n = gj.interchange_force(model, pair)
        traction = gj.traction_residual(model, pair)
        roughening = gj.roughening_residual(model, pair)

        diag = gj.diagnose(model, pair, scan_resolution=8)
        assert (diag.p_star, diag.frak_n) == (p_star, frak_n)
        assert np.array_equal(diag.traction_residual, traction)
        assert np.array_equal(diag.roughening_residual, roughening)

        assert gj.normality_gap(model, pair) == frak_n - 2.0 * abs(p_star)

        xi, eta = np.linspace(0.01, 0.02, pair.m), np.linspace(-0.01, 0.01, pair.d)
        for side in (+1, -1):
            _, rhs = gj.taylor_residual(model, pair, xi, eta, side)
            assert rhs == (-side * p_star + 0.5 * frak_n
                           + float(traction @ xi) + float(roughening @ eta))

        report = gj.check_affine_formula(model, pair, grid_size=11)
        assert (report.p_star, report.frak_n) == (p_star, frak_n)
