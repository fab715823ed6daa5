import json
import os

import numpy as np
import pytest

import gradjump as gj
from gradjump import forking, jumps

from conftest import ValueOnlyQuadratic


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
        radii = gj.default_radii(1.0, num=9)
        us = gj.sphere_grid(1, 8)
        vs = gj.sphere_grid(2, 8)
        best = np.inf
        for u in us:
            for v in vs:
                for r in radii:
                    best = min(best, antiplane.excess([[1.5, 0.0]], r * np.outer(u, v)))
        scan = gj.weierstrass_scan(antiplane, [[1.5, 0.0]], radii, resolution=8)
        assert scan.min_value == pytest.approx(best, abs=1e-14)

    def test_monotone_in_resolution(self, antiplane):
        radii = gj.default_radii(1.2)
        prev = np.inf
        for res in (8, 16, 32):  # nested circle grids under doubling
            scan = gj.weierstrass_scan(antiplane, [[1.3, 0.4]], radii, res)
            assert scan.min_value <= prev + 1e-15
            prev = scan.min_value

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
    def test_radii_not_finite_and_positive(self, antiplane, bad):
        # a NaN radius used to pass and leave min_value = inf, r = nan
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
        # the base-class stack form on a 2 x 2 model that defines only value()
        scan_value_only = gj.weierstrass_scan(ValueOnlyQuadratic(2, 2), np.eye(2), [0.1, 1.0], 8)
        assert scan_value_only.min_value >= -1e-10  # convex

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


def _no_fork():
    raise AssertionError("os.fork called")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPhaseScans:
    """``diagnose`` scans F- in a forked child beside the scan of F+ when a
    scan covers at least PARALLEL_SCAN_INCREMENTS increments."""

    @staticmethod
    def scan3d():
        # the bench's scan-3d pair: 256 x 256 x 41 = 2,686,976 increments at
        # resolution 16, above the threshold
        model = gj.IsotropicThetaEnergy(gj.IsotropicParams(3, 1.0, (1.0, 0.0, -2.0, 0.0, 1.0)))
        pair = gj.InterfacePair.from_jump(0.1 * np.eye(3), [0.5, 0.2, 0.1], [1.0, 0.0, 0.0])
        return model, pair

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made in this process, with 2 usable CPUs."""
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return calls

    def test_forked_and_serial_reports_are_identical(self, monkeypatch, forks):
        model, pair = self.scan3d()
        assert 16**4 * 41 >= jumps.PARALLEL_SCAN_INCREMENTS
        forked = gj.diagnose(model, pair, scan_resolution=16).to_dict()
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        serial = gj.diagnose(model, pair, scan_resolution=16).to_dict()
        assert repr(forked) == repr(serial)
        assert forked["weierstrass_min_plus"] != forked["weierstrass_min_minus"]

    def test_serial_when_fork_fails(self, monkeypatch):
        model, pair = self.scan3d()
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
        forked = gj.diagnose(model, pair, scan_resolution=16).to_dict()

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        assert repr(gj.diagnose(model, pair, scan_resolution=16).to_dict()) == repr(forked)

    def test_small_scans_fork_no_child(self, antiplane, eq_pair, forks):
        # the Maxwell 2-D pair at the default resolution: 2 x 32 x 41 increments
        diag = gj.diagnose(antiplane, eq_pair)
        assert diag.all_ok
        assert forks == []

    def test_threshold_is_inclusive(self, monkeypatch, antiplane, eq_pair, forks):
        increments = 2 * 8 * 3  # |U| |V| |radii|
        monkeypatch.setattr(jumps, "PARALLEL_SCAN_INCREMENTS", increments + 1)
        serial = gj.diagnose(antiplane, eq_pair, scan_radii=[0.5, 1.0, 2.0], scan_resolution=8)
        assert forks == []
        monkeypatch.setattr(jumps, "PARALLEL_SCAN_INCREMENTS", increments)
        forked = gj.diagnose(antiplane, eq_pair, scan_radii=[0.5, 1.0, 2.0], scan_resolution=8)
        assert len(forks) == 1
        assert repr(forked.to_dict()) == repr(serial.to_dict())

    @pytest.mark.parametrize("failing", ["minus", "plus"])
    def test_scan_exception_arrives_and_child_is_reaped(self, monkeypatch, antiplane,
                                                        noneq_pair, forks, failing):
        # the child scans F-, this process F+; either failure arrives with
        # its type and message, and the child is reaped in both cases
        monkeypatch.setattr(jumps, "PARALLEL_SCAN_INCREMENTS", 1)
        real_scan = jumps.weierstrass_scan
        bad = noneq_pair.fm if failing == "minus" else noneq_pair.fp

        def weierstrass_scan(model, f, radii, resolution):
            if np.array_equal(f, bad):
                raise gj.NonconvergenceError(f"scan at {failing} failed")
            return real_scan(model, f, radii, resolution)

        monkeypatch.setattr(jumps, "weierstrass_scan", weierstrass_scan)
        with pytest.raises(gj.NonconvergenceError, match=f"scan at {failing} failed"):
            gj.diagnose(antiplane, noneq_pair, scan_resolution=8)
        assert len(forks) == 1
        assert_no_child_left()
