import dataclasses
import functools
import json
import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.stats import qmc
from scipy.stats._sobol import _initialize_v

import gradjump as gj
from gradjump import cli, forking, quadrature
from gradjump.errors import NonconvergenceError
from gradjump.interchange import InterchangeField, classify_codes
from gradjump.quadrature import REGION_KEYS, interface_profile

from conftest import REF_PARAMS, ValueOnlyQuadratic, small_quad


class TestInterfaceProfile:
    def test_d2_against_quadrature(self):
        for h in (0.25, 0.04, 0.01):
            sh = np.sqrt(h)
            ref, _ = integrate.quad(
                lambda u: 2 * min(u / sh, 1.0) * min(1.0, max(0.0, (1 - u) / sh)),
                0.0, 1.0, points=(sh, 1 - sh), limit=100,
            )
            assert interface_profile(h, 2) == pytest.approx(ref, abs=1e-10)

    def test_d3_against_2d_grid(self):
        h = 0.04
        sh = np.sqrt(h)
        n = 2001
        xs = (np.arange(n) + 0.5) / n * 2 - 1
        u, w = np.meshgrid(xs, xs, indexing="ij")
        r = np.hypot(u, w)
        prof = np.minimum(np.abs(u) / sh, 1.0) * np.clip((1 - r) / sh, 0.0, 1.0)
        ref = prof[r < 1].sum() * (2.0 / n) ** 2
        assert interface_profile(h, 3) == pytest.approx(ref, abs=2e-3)

    def test_small_h_limits(self):
        # tends to the volume of the unit interface disk
        assert interface_profile(1e-8, 2) == pytest.approx(2.0, abs=1e-3)
        assert interface_profile(1e-8, 3) == pytest.approx(np.pi, abs=1e-3)

    @pytest.mark.parametrize(
        "h", [*np.geomspace(1e-6, 0.99, 13), 0.01, 0.0125, 0.05, 0.1, 0.25, 0.3, 0.5]
    )
    def test_d3_against_adaptive_quadrature(self, h):
        # the radial integral as quadpack takes it, kinks at sqrt(h) and 1 - sqrt(h)
        sh = math.sqrt(h)

        def integrand(r):
            if r <= sh:
                angular = 4.0 * r / sh
            else:
                theta = math.acos(sh / r)
                angular = 4.0 * (theta + (r / sh) * (1.0 - math.sin(theta)))
            return min(1.0, max(0.0, (1.0 - r) / sh)) * angular * r

        ref, _ = integrate.quad(integrand, 0.0, 1.0, points=(sh, 1.0 - sh), limit=200)
        assert interface_profile(h, 3) == pytest.approx(ref, rel=1e-9, abs=0.0)


class TestSobol:
    """The in-house scrambled Sobol sampler is scipy's, bit for bit."""

    def test_direction_numbers_are_scipys(self):
        v = np.zeros((3, quadrature._SOBOL_BITS), dtype=np.uint32)
        _initialize_v(v, dim=3, bits=quadrature._SOBOL_BITS)
        assert np.array_equal(quadrature._SOBOL_V, v)

    @pytest.mark.parametrize("n", [64, 2048, 16384])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_scipy_engine(self, d, n):
        for seed in (0, 7, 900):
            for sid in quadrature._STRATUM_IDS.values():
                for j in (0, 7):
                    ours = quadrature._sobol(d, n, seed, sid, j)
                    engine = qmc.Sobol(d, scramble=True, seed=quadrature._stream(seed, sid, j))
                    assert np.array_equal(ours, engine.random(n)), (seed, sid, j)


class TestScrambleCache:
    """Each Sobol scramble is built once per (d, seed, stratum id, scramble
    id) and reused by every h of a sweep."""

    KEYS = [(2, 3, 1, 4), (3, 3, 1, 4), (2, 4, 1, 4), (2, 3, 2, 4), (2, 3, 1, 5)]

    def test_cold_and_warm_cache_give_the_same_bits(self):
        quadrature._sobol_scramble.cache_clear()
        cold = quadrature._sobol(2, 512, 3, 1, 4)
        warm = quadrature._sobol(2, 512, 3, 1, 4)
        assert quadrature._sobol_scramble.cache_info().hits == 1
        assert np.array_equal(cold, warm)
        assert np.array_equal(warm, quadrature._sobol(2, 2048, 3, 1, 4)[:512])

    def test_keys_differing_in_one_part_do_not_collide(self):
        # (d, seed, stratum id, scramble id) of the first key, each changed once
        quadrature._sobol_scramble.cache_clear()
        cached = [quadrature._sobol_scramble(*key) for key in self.KEYS]
        assert quadrature._sobol_scramble.cache_info().currsize == len(self.KEYS)
        for key, (shift, directions) in zip(self.KEYS, cached):
            fresh_shift, fresh_directions = quadrature._sobol_scramble.__wrapped__(*key)
            assert shift.shape == (key[0],)
            assert np.array_equal(shift, fresh_shift)
            assert np.array_equal(directions, fresh_directions)

    def test_cached_arrays_are_read_only(self):
        for arr in quadrature._sobol_scramble(2, 0, 0, 0):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        points = quadrature._sobol(2, 64, 0, 0, 0)
        points[:] = 0.5  # the points are the caller's own
        assert np.array_equal(quadrature._sobol(2, 64, 0, 0, 0)[0],
                              quadrature._sobol_scramble(2, 0, 0, 0)[0] * 2.0**-30)

    def test_forked_estimate_leaves_every_scramble_in_the_parent(self, monkeypatch):
        # the parent estimates the sweep's first h whole, so it builds and
        # keeps every stratum's scrambles, as the child does its own
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
        model, pair, params, _, _ = TestFusedPass.case(2, "rqmc")
        quadrature._sobol_scramble.cache_clear()
        gj.limit_sweep(model, pair, params, [0.1, 0.05, 0.025, 0.0125])
        info = quadrature._sobol_scramble.cache_info()
        assert info.currsize == len(quadrature._STRATUM_IDS) * quadrature.N_SCRAMBLES
        for sid in quadrature._STRATUM_IDS.values():
            for j in range(quadrature.N_SCRAMBLES):
                quadrature._sobol_scramble(2, params.quad.seed, sid, j)
        assert quadrature._sobol_scramble.cache_info().misses == info.misses

    def test_cli_sweep_cold_then_warm(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "model": {"kind": "antiplane_double_well", "m": 1, "d": 2, "params": REF_PARAMS},
            "pair": {"f_plus": [[1.0, 0.0]], "f_minus": [[2.2, 0.0]]},
            "h_grid": [0.1, 0.05, 0.025, 0.0125],
            "quadrature": {"samples_bulk": 2048, "samples_slab": 8192},
        }))
        runs = []
        quadrature._sobol_scramble.cache_clear()
        for name in ("cold", "warm"):
            code = cli.main(["sweep-h", "--config", str(config), "--out", str(tmp_path / name)])
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2]
        # the cold run built each scramble once for its four h, the warm one none
        info = quadrature._sobol_scramble.cache_info()
        assert info.misses == len(quadrature._STRATUM_IDS) * quadrature.N_SCRAMBLES


def energy_pass(fld, quad, integrand):
    """(mean, error, n_evals) of the energy pass with the given integrand."""
    return quadrature._energy_estimate(fld, quad, integrand).total()


def reference_residual(model, pair, fld, t):
    """Pointwise excess at one point set, gradient evaluated there, from the
    (N, m, d) stacks and value_many."""
    a = pair.a
    w_plus, w_minus = model.value(pair.fp), model.value(pair.fm)
    c_plus = fld.frame @ (model.gradient(pair.fp).T @ a)
    c_minus = fld.frame @ (model.gradient(pair.fm).T @ a)

    def residual(coords):
        _, g_frame = fld.scalar_gradient(coords)
        plus_side = coords[:, 0] > 0.0
        g_world = g_frame @ fld.frame
        base = np.where(plus_side[:, None, None], pair.fp, pair.fm)
        vals = model.value_many(base + t * a[None, :, None] * g_world[:, None, :])
        wbar = np.where(plus_side, w_plus, w_minus)
        cvec = np.where(plus_side[:, None], c_plus, c_minus)
        return vals - wbar - t * np.einsum("nd,nd->n", cvec, g_frame)

    return residual


def pointwise_residual(fld, integrand):
    """The estimator's integrand at one point set, gradient evaluated there."""

    def residual(coords):
        _, g = fld.scalar_gradient(coords)
        return integrand(coords, g)[0]

    return residual


def reference_mixture_pass(fld, quad, residual_fn):
    """The two-evaluation estimator: every output is computed at z and at -z
    separately and each pair contributes 0.5 (out(z) + out(-z)) / q(z)."""
    h, d = fld.h, fld.pair.d
    n_scr = quadrature.N_SCRAMBLES
    strata, budgets = quadrature._build_strata(h, d, quad)
    per_scramble = [quadrature._pairs_per_scramble(b) for b in budgets]
    weights = np.array([n_scr * p for p in per_scramble], dtype=float)
    weights /= weights.sum()

    def mixture_pdf(coords):
        r = np.linalg.norm(coords, axis=1)
        q = np.zeros(coords.shape[0])
        for stratum, c in zip(strata, weights):
            if stratum.name in ("bulk", "shell"):
                inside = (r >= stratum.r_lo) & (r <= 1.0)
            else:
                inside = np.all(np.abs(coords) <= stratum.hw, axis=1)
            q += (c / stratum.measure) * inside
        return q

    def outputs(coords):
        out = np.zeros((coords.shape[0], 5))
        if residual_fn is not None:
            out[:, 0] = residual_fn(coords)
        codes = classify_codes(coords, h)
        for j in range(4):
            out[:, 1 + j] = codes == j + 1
        return out

    def pair_values(coords):
        return 0.5 * (outputs(coords) + outputs(-coords)) / mixture_pdf(coords)[:, None]

    def stream(sid, j):
        seq = np.random.SeedSequence(entropy=quad.seed, spawn_key=(sid, j))
        return np.random.Generator(np.random.PCG64(seq))

    mean, var, n_evals = np.zeros(5), np.zeros(5), 0
    for stratum, pairs, c in zip(strata, per_scramble, weights):
        sid = quadrature._STRATUM_IDS[stratum.name]
        if quad.sampler == "rqmc":
            means = np.array([
                pair_values(stratum.map_unit(
                    qmc.Sobol(d, scramble=True, seed=stream(sid, j)).random(pairs)
                )).mean(axis=0)
                for j in range(n_scr)
            ])
            mean += c * means.mean(axis=0)
            var += c * c * means.var(axis=0, ddof=1) / n_scr
            n_evals += 2 * pairs * n_scr
        else:
            n_pairs = n_scr * pairs
            vals = pair_values(stratum.map_unit(stream(sid, 0).random((n_pairs, d))))
            mean += c * vals.mean(axis=0)
            var += c * c * vals.var(axis=0, ddof=1) / n_pairs
            n_evals += 2 * n_pairs
    return mean, np.sqrt(var), n_evals


class TestFusedPass:
    """The one-pass-per-pair estimator reproduces the two-evaluation one bit for bit."""

    @staticmethod
    def case(d, sampler="rqmc"):
        if d == 2:
            model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(2.0, 1.0, 0.0, 1.0))
            pair = gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.0]])
            t = 1.0
        else:
            model = gj.IsotropicThetaEnergy(
                gj.IsotropicParams(d=3, mu=1.0, f_coeffs=(1.0, 0.0, -2.0, 0.0, 1.0))
            )
            pair = gj.InterfacePair.from_jump(0.1 * np.eye(3), [0.5, 0.2, 0.1], [1.0, 0.0, 0.0])
            t = 0.7
        params = gj.InterchangeParams(h=0.05, t=t, quad=small_quad(seed=5, sampler=sampler))
        fld = InterchangeField(pair, params)
        integrand = quadrature._excess_integrand(model, pair, fld, t)
        return model, pair, params, fld, integrand

    @pytest.mark.parametrize("d", [2, 3])
    def test_integrand_pair_matches_pointwise_reference(self, rng, d):
        model, pair, params, fld, integrand = self.case(d)
        coords = rng.uniform(-1.0, 1.0, size=(3000, d))
        # include the interface s_n = 0, which belongs to neither side's "+"
        coords[:1000, 0] = rng.choice([0.0, params.h, -params.h], size=1000)
        _, g = fld.scalar_gradient(coords)
        f_z, f_mirror = integrand(coords, g)
        # the mirror value is the integrand at -z with gradient -g, bit for bit
        assert np.array_equal(f_mirror, integrand(-coords, -g)[0])
        # the closed-form kernel against the stack form, to a tolerance fixed from eps
        residual = reference_residual(model, pair, fld, params.t)
        np.testing.assert_allclose(f_z, residual(coords), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(f_mirror, residual(-coords), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_two_evaluation_reference(self, d, sampler):
        model, pair, params, fld, integrand = self.case(d, sampler)
        h, t = params.h, params.t
        p_plus, p_minus = model.gradient(pair.fp), model.gradient(pair.fm)

        # the pass evaluates only the rows where g != 0, the reference every row
        mean, err, n = energy_pass(fld, params.quad, integrand)
        ref_mean, ref_err, ref_n = reference_mixture_pass(
            fld, params.quad, pointwise_residual(fld, integrand)
        )
        assert mean == ref_mean[0]
        assert err == ref_err[0]
        assert n == ref_n

        # energy_increment adds the exact interface term to the same mean
        res = gj.energy_increment(model, pair, params)
        frak_n = gj.frobenius(p_plus - p_minus, np.outer(pair.a, pair.n))
        ff_exact = -frak_n * h * interface_profile(h, d)
        assert res.delta_e == t * ff_exact + float(ref_mean[0])
        assert res.mc_error == float(ref_err[0])

        # region measures come from their own pass over the same points
        measures = gj.estimate_region_measures(pair, params)
        assert measures == {
            k: (float(ref_mean[1 + j]), float(ref_err[1 + j])) for j, k in enumerate(REGION_KEYS)
        }

    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_row_blocks_do_not_change_bits(self, monkeypatch, d, sampler):
        # 96-pair blocks split every batch (128 and 512 pairs) into full
        # blocks and a partial one
        model, pair, params, fld, integrand = self.case(d, sampler)
        monkeypatch.setattr(quadrature, "_BLOCK_ROWS", 96)
        mean, err, n = energy_pass(fld, params.quad, integrand)
        ref_mean, ref_err, ref_n = reference_mixture_pass(
            fld, params.quad, pointwise_residual(fld, integrand)
        )
        assert (mean, err, n) == (ref_mean[0], ref_err[0], ref_n)
        measures = gj.estimate_region_measures(pair, params)
        assert measures == {
            k: (float(ref_mean[1 + j]), float(ref_err[1 + j])) for j, k in enumerate(REGION_KEYS)
        }

    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_wider_candidate_masks_do_not_change_bits(self, monkeypatch, d, sampler):
        # with every row a candidate, the rows whose gradient is 0 are
        # dropped by the second compaction instead, with the same bits
        model, pair, params, fld, integrand = self.case(d, sampler)
        exact = energy_pass(fld, params.quad, integrand)
        monkeypatch.setattr(
            quadrature, "_moving_candidates", lambda coords, r, h: np.ones(len(r), dtype=bool)
        )
        assert repr(energy_pass(fld, params.quad, integrand)) == repr(exact)

    @pytest.mark.parametrize("kind", ["antiplane-2", "antiplane-3", "isotropic-3"])
    def test_excess_vanishes_where_field_does_not_move(self, rng, kind):
        if kind == "isotropic-3":
            model, pair, params, fld, integrand = self.case(3)
        else:
            d = int(kind[-1])
            model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(2.0, 1.0, 0.0, 1.0), d=d)
            pair = gj.InterfacePair.from_gradients([[1.0] + [0.0] * (d - 1)],
                                                   [[2.2] + [0.0] * (d - 1)])
            params = gj.InterchangeParams(h=0.05)
            fld = InterchangeField(pair, params)
            integrand = quadrature._excess_integrand(model, pair, fld, 1.0)
        coords = rng.uniform(-1.0, 1.0, size=(4000, pair.d))
        coords[:500, 0] = 0.0  # on the interface
        _, g = fld.scalar_gradient(coords)
        still = ~np.any(g != 0.0, axis=1)
        assert 0 < still.sum() < coords.shape[0]
        for f in integrand(coords[still], g[still]):
            assert np.all(f == 0.0)
        # signed zeros, as the mirror step -g produces
        g0 = np.zeros_like(coords)
        g0[::2] = -0.0
        for f in integrand(coords, g0):
            assert np.all(f == 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radius_is_bitwise_norm(self, rng, d):
        coords = rng.uniform(-1.0, 1.0, size=(5000, d))
        coords[:100] = 0.0
        coords[100:200, 0] = 1e-160
        assert np.array_equal(quadrature._radius(coords), np.linalg.norm(coords, axis=1))


class TestEnergyIncrement:
    def test_against_divergence_identity(self, antiplane, noneq_pair):
        # the interface-linear integrand alone must integrate to the exact
        # surface value; estimate it with the generic mixture machinery
        h = 0.04
        params = gj.InterchangeParams(h=h, quad=small_quad(seed=2))
        fld = InterchangeField(noneq_pair, params)
        pp = antiplane.gradient(noneq_pair.fp)
        pm = antiplane.gradient(noneq_pair.fm)
        c_plus = fld.frame @ (pp.T @ noneq_pair.a)
        c_minus = fld.frame @ (pm.T @ noneq_pair.a)

        def linear_term(coords, g):
            return [
                np.einsum("nd,nd->n", np.where(side, c_plus, c_minus), sign * g)
                for sign, side in ((1.0, coords[:, 0:1] > 0), (-1.0, coords[:, 0:1] < 0))
            ]

        mean, err, _ = energy_pass(fld, params.quad, linear_term)
        frak_n = gj.interchange_force(antiplane, noneq_pair)
        exact = -frak_n * h * interface_profile(h, 2)
        assert mean == pytest.approx(exact, abs=max(5 * err, 1e-5))

    def test_divergence_identity_d3(self):
        model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(2, 1, 0, 1), d=3)
        pair = gj.InterfacePair.from_gradients([[1, 0, 0]], [[2.2, 0, 0]])
        h = 0.04
        params = gj.InterchangeParams(
            h=h, quad=gj.QuadratureConfig(seed=12, samples_bulk=8192, samples_slab=65536)
        )
        fld = InterchangeField(pair, params)
        c_plus = fld.frame @ (model.gradient(pair.fp).T @ pair.a)
        c_minus = fld.frame @ (model.gradient(pair.fm).T @ pair.a)

        def linear_term(coords, g):
            return [
                np.einsum("nd,nd->n", np.where(side, c_plus, c_minus), sign * g)
                for sign, side in ((1.0, coords[:, 0:1] > 0), (-1.0, coords[:, 0:1] < 0))
            ]

        mean, err, _ = energy_pass(fld, params.quad, linear_term)
        exact = -gj.interchange_force(model, pair) * h * interface_profile(h, 3)
        assert mean == pytest.approx(exact, abs=max(5 * err, 1e-6))

    def test_against_tensor_grid(self, antiplane, noneq_pair):
        h = 0.1
        params = gj.InterchangeParams(h=h, quad=small_quad(seed=4, slab=16384))
        res = gj.energy_increment(antiplane, noneq_pair, params)

        fld = InterchangeField(noneq_pair, params)
        n = 1601
        xs = (np.arange(n) + 0.5) / n * 2 - 1
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        coords = grid @ fld.frame.T
        _, g = fld.scalar_gradient(coords)
        g_world = g @ fld.frame
        plus = coords[:, 0] > 0
        base = np.where(plus[:, None, None], noneq_pair.fp, noneq_pair.fm)
        pert = base + noneq_pair.a[None, :, None] * g_world[:, None, :]
        vals = antiplane.value_many(pert)
        wbar = np.where(plus, antiplane.value(noneq_pair.fp), antiplane.value(noneq_pair.fm))
        inside = np.linalg.norm(grid, axis=1) < 1.0
        brute = float(np.sum((vals - wbar)[inside])) * (2.0 / n) ** 2
        assert res.delta_e == pytest.approx(brute, abs=5 * res.mc_error + 5e-4)

    def test_value_only_model_runs_on_stack_form(self):
        # a subclass that defines only value() has no closed-form kernel:
        # the base-class stack form serves the estimator and the scan
        model = ValueOnlyQuadratic(1, 2)
        assert type(model).rank_one_excess is gj.EnergyModel.rank_one_excess
        quadratic = gj.QuadraticEnergy(1, 2, mu=1.0)
        pair = gj.InterfacePair.from_jump([[0.4, -0.2]], [1.0], [1.0, 0.0])
        params = gj.InterchangeParams(h=0.05, quad=small_quad(seed=3))
        res = gj.energy_increment(model, pair, params)
        ref = gj.energy_increment(quadratic, pair, params)
        # the central-difference stress of a quadratic is exact up to rounding
        assert res.delta_e == pytest.approx(ref.delta_e, rel=1e-6)
        scan = gj.weierstrass_scan(model, [[0.3, 0.1]], [0.5, 1.0, 2.0], resolution=8)
        assert scan.min_value == pytest.approx(0.5 * 0.5**2, abs=1e-8)

    def test_zero_jump_gives_zero(self, antiplane):
        pair = gj.InterfacePair(
            fp=np.array([[1.5, 0.0]]),
            fm=np.array([[1.5, 0.0]]),
            a=np.array([0.0]),
            n=np.array([1.0, 0.0]),
        )
        res = gj.energy_increment(
            antiplane, pair, gj.InterchangeParams(h=0.05, quad=small_quad())
        )
        assert res.delta_e == 0.0
        assert res.mc_error == 0.0

    def test_reproducible_and_order_independent(self, antiplane, noneq_pair):
        base = small_quad(seed=9)
        params = gj.InterchangeParams(h=0.05, quad=base)
        r1 = gj.energy_increment(antiplane, noneq_pair, params)
        r2 = gj.energy_increment(antiplane, noneq_pair, params)
        assert r1.delta_e == r2.delta_e and r1.mc_error == r2.mc_error
        shuffled = gj.QuadratureConfig(
            seed=9, samples_bulk=base.samples_bulk, samples_slab=base.samples_slab,
            stratification=("shell", "corner", "strip", "slab"),
        )
        r3 = gj.energy_increment(
            antiplane, noneq_pair, gj.InterchangeParams(h=0.05, quad=shuffled)
        )
        assert r3.delta_e == r1.delta_e

    def test_seed_changes_within_error_bars(self, antiplane, noneq_pair):
        rs = [
            gj.energy_increment(
                antiplane, noneq_pair,
                gj.InterchangeParams(h=0.05, quad=small_quad(seed=s)),
            )
            for s in (1, 2)
        ]
        assert rs[0].delta_e != rs[1].delta_e
        spread = abs(rs[0].delta_e - rs[1].delta_e)
        assert spread <= 6 * np.hypot(rs[0].mc_error, rs[1].mc_error)

    def test_region_measures_nonnegative_and_mirror_equal(self, noneq_pair):
        measures = gj.estimate_region_measures(
            noneq_pair, gj.InterchangeParams(h=0.02, quad=small_quad())
        )
        for est, err in measures.values():
            assert est >= 0.0 and err >= 0.0
        # antithetic pairing makes the mirrored slab regions exactly equal
        assert measures["R_plus"][0] == measures["R_minus"][0]

    def test_error_cap(self, antiplane, noneq_pair):
        quad = gj.QuadratureConfig(
            seed=0, samples_bulk=2048, samples_slab=2048, max_error=1e-12
        )
        with pytest.raises(gj.QuadratureError):
            gj.energy_increment(antiplane, noneq_pair, gj.InterchangeParams(h=0.05, quad=quad))

    def test_small_t_slope_is_interface_term(self, antiplane, noneq_pair):
        # Delta E(t, h)/t - (interface term) shrinks linearly in t
        h = 0.05
        ff = -gj.interchange_force(antiplane, noneq_pair) * h * interface_profile(h, 2)
        gaps = []
        for t in (0.02, 0.01):
            params = gj.InterchangeParams(h=h, t=t, quad=small_quad(seed=3))
            res = gj.energy_increment(antiplane, noneq_pair, params)
            gaps.append(res.delta_e / t - ff)
        assert abs(gaps[0]) <= 0.2 * abs(ff)
        assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=0.2)


class TestRateFit:
    """The three-parameter fallback of the rate fit, taken when at most two
    remainders stand clear of the noise."""

    H_GRID = np.array([0.1, 0.05, 0.025, 0.0125])

    def test_fallback_recovers_the_exponent(self):
        values = -0.24 + 0.3 * np.sqrt(self.H_GRID)
        sigma = np.full(4, 0.02)
        # remainders 0.095, 0.067, 0.047, 0.034: two beyond 3 sigma
        assert int(np.sum(np.abs(values + 0.24) > 3.0 * sigma)) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate, rate_error = quadrature._rate_fit(self.H_GRID, values, sigma, -0.24, 0.3)
        assert math.isfinite(rate) and 0.05 <= rate <= 1.5
        assert rate == pytest.approx(0.5, abs=1e-6)
        assert math.isfinite(rate_error)

    @pytest.mark.parametrize("values", [np.zeros(4), np.full(4, 0.3)])
    def test_no_rate_when_no_remainder_stands_clear(self, values):
        # the fallback would return its starting guess 0.5 with error 0
        sigma = np.full(4, 1e-14)
        assert quadrature._rate_fit(self.H_GRID, values, sigma, values[0], 0.0) == (None, None)

    def test_fit_failure_is_nonconvergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(optimize, "curve_fit", fail)
        values = -0.24 + 0.3 * np.sqrt(self.H_GRID)
        with pytest.raises(NonconvergenceError, match="rate fit failed"):
            quadrature._rate_fit(self.H_GRID, values, np.full(4, 0.02), -0.24, 0.3)


class TestLimitSweep:
    def test_quadratic_pair_limit(self, rng):
        model = gj.QuadraticEnergy(1, 2, mu=1.0)
        pair = gj.InterfacePair.from_jump([[0.4, -0.2]], [1.0], [1.0, 0.0])
        params = gj.InterchangeParams(h=0.1, quad=small_quad(seed=5, slab=16384))
        sweep = gj.limit_sweep(model, pair, params, [0.08, 0.04, 0.02, 0.01, 0.005])
        target = gj.interchange_limit_target(model, pair)
        assert target == pytest.approx(-1.0)
        assert sweep.limit == pytest.approx(target, abs=max(5 * sweep.limit_error, 0.02))
        assert 0.25 <= sweep.rate <= 0.75

    def test_equilibrium_limit_zero(self, antiplane, eq_pair):
        params = gj.InterchangeParams(h=0.1, quad=small_quad(seed=6, slab=16384))
        sweep = gj.limit_sweep(antiplane, eq_pair, params, [0.02, 0.01, 0.005, 0.0025])
        assert abs(sweep.limit) <= max(3 * sweep.limit_error, 5e-4)

    def test_d3_limit(self):
        model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(2, 1, 0, 1), d=3)
        pair = gj.InterfacePair.from_gradients([[1, 0, 0]], [[2.2, 0, 0]])
        params = gj.InterchangeParams(
            h=0.1, quad=gj.QuadratureConfig(seed=0, samples_bulk=8192, samples_slab=32768)
        )
        sweep = gj.limit_sweep(model, pair, params, [0.08, 0.04, 0.02, 0.01, 0.005])
        target = gj.interchange_limit_target(model, pair)
        assert target == pytest.approx(-np.pi / 2 * 0.24)
        assert sweep.limit == pytest.approx(target, rel=0.10)

    def test_grid_validation(self, antiplane, eq_pair):
        params = gj.InterchangeParams(h=0.1, quad=small_quad())
        with pytest.raises(ValueError):
            gj.limit_sweep(antiplane, eq_pair, params, [0.1, 0.05, 0.025])
        with pytest.raises(ValueError):
            gj.limit_sweep(antiplane, eq_pair, params, [0.05, 0.1, 0.025, 0.0125])

    def test_zero_jump_sweep(self, antiplane):
        pair = gj.InterfacePair(
            fp=np.array([[0.5, 0.0]]),
            fm=np.array([[0.5, 0.0]]),
            a=np.array([0.0]),
            n=np.array([1.0, 0.0]),
        )
        params = gj.InterchangeParams(h=0.1, quad=small_quad())
        sweep = gj.limit_sweep(antiplane, pair, params, [0.08, 0.04, 0.02, 0.01])
        assert sweep.limit == 0.0
        assert sweep.limit_error <= 1e-12

    def test_d3_region_measure_leading_order(self, rng):
        pair = gj.InterfacePair.from_gradients([[1, 0, 0]], [[2, 0, 0]])
        h = 0.01
        quad = gj.QuadratureConfig(seed=1, samples_bulk=8192, samples_slab=65536)
        measures = gj.estimate_region_measures(pair, gj.InterchangeParams(h=h, quad=quad))
        est, err = measures["R_plus"]
        # leading order h * omega_2 / 2 with O(h^{3/2}) relative-sqrt(h) defect
        assert est == pytest.approx(h * np.pi / 2.0, rel=0.35)
        assert est == pytest.approx(measures["R_minus"][0])

    def test_rows_and_dict(self, antiplane, noneq_pair):
        params = gj.InterchangeParams(h=0.1, quad=small_quad(seed=8))
        sweep = gj.limit_sweep(antiplane, noneq_pair, params, [0.1, 0.05, 0.025, 0.0125])
        rows = sweep.rows()
        assert len(rows) == 4 and rows[0][0] == 0.1
        d = sweep.to_dict()
        assert set(d) >= {"limit", "limit_error", "rate", "chi2_red", "fit_order", "n_evals"}
        per_h = gj.energy_increment(antiplane, noneq_pair, params).n_evals
        assert d["n_evals"] == sweep.n_evals == 4 * per_h


def _no_fork():
    raise AssertionError("os.fork called")


class TestForkMap:
    """``_fork_stream``: one forked child computes fn(x) for every item, in
    order, and sends each result as soon as it has it."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # fork on any host, also one pinned to a single CPU
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_results_in_item_order(self, n):
        with forking._fork_stream(lambda x: (x * x, os.getpid()), range(n)) as stream:
            out = [stream.take() for _ in range(n)]
        assert [v for v, _ in out] == [x * x for x in range(n)]
        # every item, a single one too, runs in the one child
        pids = {pid for _, pid in out}
        assert len(pids) == 1 and os.getpid() not in pids
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "exc", [gj.QuadratureError("error cap exceeded"), ValueError("bad item")]
    )
    def test_child_exception_arrives_with_type_and_message(self, exc):
        def fn(x):
            if x == 3:
                raise exc
            return x

        with forking._fork_stream(fn, range(5)) as stream:
            assert [stream.take() for _ in range(3)] == [0, 1, 2]
            with pytest.raises(type(exc), match=str(exc)):
                stream.take()
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "odd_item, code", [(lambda: os._exit(3), 3), (lambda: lambda: None, 0)]  # unpicklable
    )
    def test_child_ending_without_result(self, odd_item, code):
        fn = lambda x: odd_item() if x == 1 else x
        with forking._fork_stream(fn, range(3)) as stream:
            assert stream.take() == 0
            with pytest.raises(gj.GradJumpError, match=f"exit code {code} and no result"):
                stream.take()
        self.assert_no_child_left()

    def test_parent_exception_reaps_a_child_blocked_on_the_pipe(self):
        # the child's results are larger than a pipe buffer and the parent,
        # which raises, never reads them: closing the stream stops the child
        with pytest.raises(ValueError, match="parent share"):
            with forking._fork_stream(lambda x: bytes(1 << 22), range(2)):
                raise ValueError("parent share")
        self.assert_no_child_left()

    def test_serial_when_fork_fails(self, monkeypatch):
        model, pair, params, _, _ = TestFusedPass.case(2)
        grid = [0.1, 0.05, 0.025, 0.0125]
        forked = (gj.energy_increment(model, pair, params).to_dict(),
                  gj.limit_sweep(model, pair, params, grid).to_dict())

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        assert forking._fork_stream(lambda x: x + 1, range(5)) is None
        # every stratum then runs in this process, with the same bits
        serial = (gj.energy_increment(model, pair, params).to_dict(),
                  gj.limit_sweep(model, pair, params, grid).to_dict())
        assert repr(serial) == repr(forked)

    def test_serial_without_a_second_item_or_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        model, pair, params, _, _ = TestFusedPass.case(2)
        # an estimate outside a sweep is a single item: it runs here
        gj.energy_increment(model, pair, params)
        gj.estimate_region_measures(pair, params)
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 1)
        assert forking._fork_stream(lambda x: x + 1, range(5)) is None
        gj.energy_increment(model, pair, params)
        gj.limit_sweep(model, pair, params, [0.1, 0.05, 0.025, 0.0125])


class TestSweepStream:
    """A sweep forks one child, which streams the estimates of every other h."""

    GRID = [0.1, 0.05, 0.025, 0.0125]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made in this process."""
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return calls

    def test_a_sweep_forks_once_and_a_lone_estimate_never(self, monkeypatch, forks):
        model, pair, params, _, _ = TestFusedPass.case(2)
        gj.limit_sweep(model, pair, params, self.GRID)
        assert len(forks) == 1
        monkeypatch.setattr(os, "fork", _no_fork)
        gj.energy_increment(model, pair, params)
        gj.estimate_region_measures(pair, params)

    @pytest.mark.parametrize("n", [4, 5])
    def test_the_child_estimates_every_other_h(self, monkeypatch, n):
        # the parent hands the stream over at grid[1::2] and estimates the
        # rest itself; a grid of odd length leaves it the extra h
        model, pair, params, _, _ = TestFusedPass.case(2)
        grid = [0.1 * 2.0**-k for k in range(n)]
        real = quadrature.energy_increment
        parent, taken = os.getpid(), []

        def energy_increment(model, pair, params_h, **kwargs):
            if os.getpid() == parent:
                taken.append(kwargs.get("_stream") is not None)
            return real(model, pair, params_h, **kwargs)

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        quadrature.limit_sweep(model, pair, params, grid)
        assert taken == [k % 2 == 1 for k in range(n)]

    def test_a_result_for_another_h_is_an_error(self):
        model, pair, params, _, _ = TestFusedPass.case(2)
        child = functools.partial(quadrature.energy_increment, model, pair)
        with forking._fork_stream(child, [params.with_h(0.1)]) as stream:
            with pytest.raises(gj.GradJumpError, match="sent h = 0.1 for h = 0.05"):
                quadrature.energy_increment(model, pair, params.with_h(0.05), _stream=stream)
        TestForkMap.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_energy_increment_once_per_h_through_the_module_global(self, monkeypatch, cpus):
        # the contract the bench tracer reads: one call per h, in grid
        # order, whose n_evals add up to the sweep's
        monkeypatch.setattr(forking, "_usable_cpus", lambda: cpus)
        model, pair, params, _, _ = TestFusedPass.case(2)
        real = quadrature.energy_increment
        calls = []

        def energy_increment(model, pair, params_h, **kwargs):
            res = real(model, pair, params_h, **kwargs)
            calls.append((params_h.h, res.n_evals))
            return res

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        sweep = quadrature.limit_sweep(model, pair, params, self.GRID)
        assert [h for h, _ in calls] == self.GRID
        assert sum(n for _, n in calls) == sweep.n_evals

    def test_other_estimates_during_a_sweep_run_here(self, monkeypatch, forks):
        # an estimate called without the sweep's stream neither forks nor
        # takes the sweep's results
        model, pair, params, _, _ = TestFusedPass.case(2)
        real = quadrature.energy_increment
        parent, lone = os.getpid(), []

        def energy_increment(model, pair, params_h, **kwargs):
            if os.getpid() == parent:
                lone.append(real(model, pair, params_h).to_dict())
            return real(model, pair, params_h, **kwargs)

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        sweep = quadrature.limit_sweep(model, pair, params, self.GRID)
        assert len(forks) == 1
        monkeypatch.setattr(quadrature, "energy_increment", real)
        serial = gj.limit_sweep(model, pair, params, self.GRID)
        assert repr(sweep.to_dict()) == repr(serial.to_dict())
        alone = [real(model, pair, params.with_h(h)).to_dict() for h in self.GRID]
        assert repr(lone) == repr(alone)

    def test_error_cap_at_the_first_h_kills_the_child(self, monkeypatch):
        # the child would take a minute over the second h: the parent must
        # not wait for it once the first h has failed
        real = quadrature.energy_increment
        parent = os.getpid()

        def slow(model, pair, params_h, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            return real(model, pair, params_h, **kwargs)

        monkeypatch.setattr(quadrature, "energy_increment", slow)
        model, pair, params, _, _ = TestFusedPass.case(2)
        quad = dataclasses.replace(params.quad, max_error=1e-30)
        params = dataclasses.replace(params, quad=quad)
        start = time.monotonic()
        with pytest.raises(gj.QuadratureError, match="exceeds cap"):
            gj.limit_sweep(model, pair, params, self.GRID)
        assert time.monotonic() - start < 30.0
        TestForkMap.assert_no_child_left()

    def test_interrupt_kills_the_child(self, monkeypatch):
        model, pair, params, _, _ = TestFusedPass.case(2)
        real = quadrature.energy_increment

        def energy_increment(model, pair, params_h, **kwargs):
            if params_h.h == self.GRID[1]:
                raise KeyboardInterrupt
            return real(model, pair, params_h, **kwargs)

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        with pytest.raises(KeyboardInterrupt):
            quadrature.limit_sweep(model, pair, params, self.GRID)
        TestForkMap.assert_no_child_left()

    def test_child_exception_at_a_later_h(self, monkeypatch):
        real = quadrature.energy_increment
        parent = os.getpid()

        def failing(model, pair, params_h, **kwargs):
            if os.getpid() != parent and params_h.h == self.GRID[3]:
                raise ValueError(f"child failed at h = {params_h.h}")
            return real(model, pair, params_h, **kwargs)

        monkeypatch.setattr(quadrature, "energy_increment", failing)
        model, pair, params, _, _ = TestFusedPass.case(2)
        with pytest.raises(ValueError, match="child failed at h = 0.0125"):
            gj.limit_sweep(model, pair, params, self.GRID)
        TestForkMap.assert_no_child_left()

    @pytest.mark.parametrize("h", [1e-100, 1e-200])
    def test_too_small_h_is_a_quadrature_error(self, h):
        # the shell's measure 1 - (1 - sqrt(h))^d rounds to 0 below h ~ 3e-33
        model, pair, params, _, _ = TestFusedPass.case(2)
        grid = [h, h / 2, h / 4, h / 8]
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.limit_sweep(model, pair, params, grid)
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.estimate_region_measures(pair, params.with_h(h))
        TestForkMap.assert_no_child_left()


class TestForkedMatchesSerial:
    """Forked and serial estimates carry the same bits."""

    @staticmethod
    def both(monkeypatch, run):
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
        forked = run()
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        return forked, run()

    @staticmethod
    def quad(sampler, strata):
        return gj.QuadratureConfig(
            seed=5, samples_bulk=2048, samples_slab=8192, stratification=strata, sampler=sampler
        )

    @pytest.mark.parametrize(
        "strata", [(), ("slab",), ("slab", "strip", "corner", "shell")]
    )
    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_energy_increment(self, monkeypatch, d, sampler, strata):
        # an estimate a forked child computes and the parent takes from its
        # stream, as a sweep does at grid[1::2], against a lone one
        model, pair, params, _, _ = TestFusedPass.case(d, sampler)
        params = gj.InterchangeParams(h=params.h, t=params.t, quad=self.quad(sampler, strata))
        monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
        child = functools.partial(gj.energy_increment, model, pair)
        with forking._fork_stream(child, [params]) as stream:
            forked = gj.energy_increment(model, pair, params, _stream=stream).to_dict()
        monkeypatch.setattr(os, "fork", _no_fork)
        serial = gj.energy_increment(model, pair, params).to_dict()
        # repr tells the bits of every float apart, -0.0 from 0.0 too
        assert repr(forked) == repr(serial)

    @pytest.mark.parametrize(
        "d, sampler, strata, n",
        [
            # all five strata on 4 points keep the bare id "d-sampler"
            pytest.param(d, sampler, strata, n, id="-".join(
                [str(d), sampler] + ([label] if label else []) + ([] if n == 4 else [f"{n}pts"])
            ))
            for d in (2, 3)
            for sampler in ("rqmc", "mc")
            for label, strata in (("", ("slab", "strip", "corner", "shell")),
                                  ("bulk", ()), ("slab", ("slab",)))
            for n in (4, 5)
        ],
    )
    def test_limit_sweep(self, monkeypatch, d, sampler, strata, n):
        model, pair, params, _, _ = TestFusedPass.case(d, sampler)
        params = gj.InterchangeParams(h=params.h, t=params.t, quad=self.quad(sampler, strata))
        grid = [0.1 * 2.0**-k for k in range(n)]
        forked, serial = self.both(
            monkeypatch, lambda: gj.limit_sweep(model, pair, params, grid).to_dict()
        )
        assert repr(forked) == repr(serial)

    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    def test_region_measures(self, monkeypatch, eq_pair, sampler):
        params = gj.InterchangeParams(h=0.05, quad=small_quad(seed=9, sampler=sampler))
        forked, serial = self.both(
            monkeypatch, lambda: gj.estimate_region_measures(eq_pair, params)
        )
        assert repr(forked) == repr(serial)
