import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import qmc
from scipy.stats._sobol import _initialize_v

import gradjump as gj
from gradjump import cli, quadrature
from gradjump.errors import NonconvergenceError
from gradjump.interchange import InterchangeField, _mirrored_gradient, classify_codes
from gradjump.quadrature import REGION_KEYS, interface_profile

from conftest import REF_PARAMS, ValueOnlyQuadratic, small_quad
from sign_fold import sign_fold_gradient
from test_interchange import mirror_test_points


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

    def test_d3_finite_as_h_tends_to_1(self):
        # r^2 - h, taken as r * r - h, rounded below 0 at the first nodes
        # above r = sqrt(h) for h within about 6e-11 of 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [interface_profile(1.0 - gap, 3) for gap in np.geomspace(1e-16, 0.5, 400)]
        assert np.all(np.isfinite(values)) and min(values) > 0.0
        assert interface_profile(0.9999999999999999, 3) == pytest.approx(1.0 / 3.0, rel=1e-6)


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

    def test_a_sweep_leaves_every_scramble_in_this_process(self):
        # the sweep estimates every h here, so it builds each stratum's
        # scrambles at its first h, reuses them at the others and keeps them
        model, pair, params = TestSweepStream.case()
        quadrature._sobol_scramble.cache_clear()
        sweep = gj.limit_sweep(model, pair, params, TestSweepStream.GRID)
        assert sweep.method == "rqmc"
        info = quadrature._sobol_scramble.cache_info()
        per_h = len(quadrature._STRATUM_IDS) * quadrature.N_SCRAMBLES
        assert (info.currsize, info.misses, info.hits) == (per_h, per_h, 3 * per_h)
        for sid in quadrature._STRATUM_IDS.values():
            for j in range(quadrature.N_SCRAMBLES):
                quadrature._sobol_scramble(3, params.quad.seed, sid, j)
        assert quadrature._sobol_scramble.cache_info().misses == info.misses

    def test_cli_sweep_cold_then_warm(self, tmp_path, capsys):
        # the two-well kinds are sampled in d = 3
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "model": {"kind": "antiplane_double_well", "m": 1, "d": 3, "params": REF_PARAMS},
            "pair": {"f_plus": [[1.0, 0.0, 0.0]], "f_minus": [[2.2, 0.0, 0.0]]},
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
    return quadrature._energy_estimate(fld.h, fld.pair.d, quad, integrand).total()


def cubature(fld, integrand, n, n_w=quadrature._SHELL_NODES):
    """(integral, evaluations) of the excess over the ball by the whole rule:
    every piece of ``_piece_integrals`` at n nodes per axis in s_n and s_nu
    and, in d = 3, n_w per part in u, summed."""
    layout = quadrature._half_disk_layout(fld.h)
    integrals, n_evals = quadrature._piece_integrals(
        fld.pair.d, integrand, layout, (n,), np.arange(layout.flat.size), n_w)
    return float(integrals.sum()), n_evals


def reference_residual(model, pair, fld, t):
    """Pointwise excess at one point set, gradient evaluated there, from the
    (N, m, d) stacks and value_many, on the + side where ``plus_side``
    (by default where s_n > 0)."""
    a = pair.a
    w_plus, w_minus = model.value(pair.fp), model.value(pair.fm)
    c_plus = fld.frame @ (model.gradient(pair.fp).T @ a)
    c_minus = fld.frame @ (model.gradient(pair.fm).T @ a)

    def residual(coords, plus_side=None):
        _, g_frame = fld.scalar_gradient(coords)
        if plus_side is None:
            plus_side = coords[:, 0] > 0.0
        g_world = g_frame @ fld.frame
        base = np.where(plus_side[:, None, None], pair.fp, pair.fm)
        vals = model.value_many(base + t * a[None, :, None] * g_world[:, None, :])
        wbar = np.where(plus_side, w_plus, w_minus)
        cvec = np.where(plus_side[:, None], c_plus, c_minus)
        return vals - wbar - t * np.einsum("nd,nd->n", cvec, g_frame)

    return residual


def pointwise_residual(fld, integrand):
    """The estimator's integrand at one point set, gradient evaluated there:
    f(z) from the pair folded onto s_n >= 0 as the sampler folds it, the
    second value of the pair (-z, -g) where s_n < 0."""

    def residual(coords):
        _, g = fld.scalar_gradient(coords)
        below = coords[:, 0] < 0.0
        sign = np.where(below, -1.0, 1.0)[:, None]
        f_z, f_mirror = integrand((sign * g).T)
        return np.where(below, f_mirror, f_z)

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
        # the rows the integrand is given, s_n >= 0, among them the
        # interface s_n = 0, where z takes F+ and -z (at s_n = -0) F-
        coords = rng.uniform(-1.0, 1.0, size=(3000, d))
        coords[:, 0] = np.abs(coords[:, 0])
        coords[:1000, 0] = rng.choice([0.0, params.h], size=1000)
        _, g = fld.scalar_gradient(coords)
        f_z, f_mirror = integrand(g.T)
        # the closed-form kernel against the stack form, to a tolerance fixed from eps
        residual = reference_residual(model, pair, fld, params.t)
        np.testing.assert_allclose(
            f_z, residual(coords, coords[:, 0] >= 0.0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(f_mirror, residual(-coords), rtol=1e-12, atol=1e-12)
        # on the interface z and -z take different bases, so their values differ
        on_interface = (coords[:, 0] == 0.0) & np.any(g != 0.0, axis=1)
        assert on_interface.sum() > 100
        assert np.all(f_z[on_interface] != f_mirror[on_interface])

    @pytest.mark.parametrize("kind", ["antiplane-2", "stack-form-2", "isotropic-3"])
    def test_folded_pair_swaps_the_pair_bit_for_bit(self, rng, kind):
        # a pair drawn at s_n < 0 and passed as (-z, -g) gives the values
        # its own sides give: z on F- at step +t, -z on F+ at -t
        model, pair, params, fld, integrand = self.case(int(kind[-1]))
        if kind == "stack-form-2":
            model = StackFormTwoWell(model.params)
            integrand = quadrature._excess_integrand(model, pair, fld, params.t)
        coords = rng.uniform(-1.0, 1.0, size=(3000, pair.d))
        coords[:, 0] = -np.abs(coords[:, 0])
        coords[:1000, 0] = -params.h
        _, g = fld.scalar_gradient(coords)
        f_minus_z, f_z = integrand(-g.T)
        ref_z, ref_minus_z = model.rank_one_excess(pair.fm, pair.fp, pair.a, params.t)(
            g @ fld.frame)
        assert np.array_equal(f_z.view(np.int64), ref_z.view(np.int64))
        assert np.array_equal(f_minus_z.view(np.int64), ref_minus_z.view(np.int64))

    @pytest.mark.parametrize("sampler", ["rqmc", "mc"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_two_evaluation_reference(self, monkeypatch, d, sampler):
        # energy_increment takes the isotropic kind of d = 3 by cubature;
        # sampling it here keeps the sampled path under this reference
        monkeypatch.setattr(quadrature, "_takes_cubature", lambda model: False)
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
    def test_integrand_sees_only_folded_rows(self, d, sampler):
        # every pair reaches the integrand folded onto s_n >= 0, with the
        # field's gradient at the folded point, bit for bit
        model, pair, params, fld, integrand = self.case(d, sampler)
        seen, gradients = [], []

        def recording(g):
            gradients.append(g.T.copy())
            return integrand(g)

        # the folded rows reach the mixture pdf right after the integrand
        estimate = quadrature._energy_estimate(fld.h, fld.pair.d, params.quad, recording)
        pdf = estimate.pdf

        def recording_pdf(z, r):
            seen.append(z.copy())
            return pdf(z, r)

        estimate.pdf = recording_pdf
        assert estimate.total() == energy_pass(fld, params.quad, integrand)
        coords, g = np.concatenate(seen), np.concatenate(gradients)
        assert np.all(coords[:, 0] >= 0.0)
        assert np.array_equal(g, fld.scalar_gradient(coords)[1])
        assert np.all(np.any(g != 0.0, axis=1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_fold_negates_exactly_the_rows_below_the_interface(self, rng, d):
        # a drawn row at s_n = 0 is passed as drawn, so z takes F+ and -z F-
        model, pair, params, fld, integrand = self.case(d)
        coords = rng.uniform(-1.0, 1.0, size=(400, d))
        coords[:200, 0] = 0.0
        seen = []
        estimate = quadrature._energy_estimate(fld.h, fld.pair.d, params.quad, integrand)

        def recording_pdf(z, r):
            seen.append(z.copy())
            return estimate.pdf(z, r)

        estimate.pair_estimates(coords, recording_pdf)
        moving = coords[np.any(fld.scalar_gradient(coords)[1] != 0.0, axis=1)]
        assert np.sum(moving[:, 0] == 0.0) > 50
        folded = moving * np.where(moving[:, :1] < 0.0, -1.0, 1.0)
        assert np.array_equal(seen[0].view(np.int64), folded.view(np.int64))

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

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.0125])
    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_pass_evaluates_exactly_the_moving_rows(self, rng, d, h):
        # on the kink sets of the cutoffs a row's gradient can round to 0:
        # the integrand and the pdf see each row with g != 0 once, folded
        # onto s_n >= 0, and every other row is an exact 0
        coords = mirror_test_points(h, d, rng)
        r = quadrature._radius(coords)
        g, _ = _mirrored_gradient(coords, r, h)
        moved = np.any(g != 0.0, axis=1)
        assert moved.any() and not moved.all()
        seen = {}

        def integrand(g_t):
            seen["g"] = g_t.T.copy()
            return np.full(g_t.shape[1], 1.0), np.full(g_t.shape[1], 3.0)

        def pdf(z, r_z):
            seen["z"], seen["r"] = z.copy(), r_z.copy()
            return 1.0 + r_z

        estimate = quadrature._energy_estimate(h, d, small_quad(), integrand)
        out = estimate.pair_estimates(coords, pdf)
        side = np.where(coords[:, 0] < 0.0, -1.0, 1.0)[moved, None]
        assert np.array_equal(seen["z"], side * coords[moved])
        assert np.array_equal(seen["g"], side * g[moved])
        assert np.array_equal(seen["r"], r[moved])
        assert np.array_equal(out[moved], 2.0 / (1.0 + r[moved]))
        assert np.all(out[~moved] == 0.0)

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
        coords[:, 0] = np.abs(coords[:, 0])  # the integrand's rows have s_n >= 0
        coords[:500, 0] = 0.0  # on the interface
        _, g = fld.scalar_gradient(coords)
        still = ~np.any(g != 0.0, axis=1)
        assert 0 < still.sum() < coords.shape[0]
        for f in integrand(g[still].T):
            assert np.all(f == 0.0)
        # signed zeros, as the mirror step -g produces
        g0 = np.zeros_like(coords)
        g0[::2] = -0.0
        for f in integrand(g0.T):
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

        def linear_term(g):
            # every row reaches the integrand folded onto s_n >= 0: z takes
            # F+ and -z, whose gradient is -g, F-
            return c_plus @ g, c_minus @ -g

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

        def linear_term(g):
            # every row reaches the integrand folded onto s_n >= 0: z takes
            # F+ and -z, whose gradient is -g, F-
            return c_plus @ g, c_minus @ -g

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
        # in d = 2 both take the cubature; the central-difference
        # stress of a quadratic is exact up to rounding
        for h in (0.05, 0.0125):
            res, ref = (gj.energy_increment(m, pair, gj.InterchangeParams(h=h))
                        for m in (model, quadratic))
            assert (res.method, ref.method) == ("cubature", "cubature")
            assert res.delta_e == pytest.approx(ref.delta_e, rel=1e-12, abs=0.0), h
        # in d = 3 both are sampled, on the same points
        pair = gj.InterfacePair.from_jump([[0.4, -0.2, 0.1]], [1.0], [1.0, 0.0, 0.0])
        params = gj.InterchangeParams(h=0.05, quad=small_quad(seed=3))
        res, ref = (gj.energy_increment(m, pair, params)
                    for m in (ValueOnlyQuadratic(1, 3), gj.QuadraticEnergy(1, 3, mu=1.0)))
        assert (res.method, ref.method) == ("rqmc", "rqmc")
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

    def test_seed_changes_within_error_bars(self, monkeypatch, antiplane, noneq_pair):
        # the 2-D two-well pair, sampled as it is not by default
        monkeypatch.setattr(quadrature, "_takes_cubature", lambda model: False)
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


class TestCubature:
    """The isotropic kind's Delta E by the deterministic piecewise Gauss rule."""

    #: the bench's sweep_3d pair
    SWEEP_3D = dict(
        model=gj.IsotropicThetaEnergy(gj.IsotropicParams(3, 1.0, (1.0, 0.0, -2.0, 0.0, 1.0))),
        pair=gj.InterfacePair.from_jump(0.1 * np.eye(3), [0.5, 0.2, 0.1], [1.0, 0.0, 0.0]),
    )
    #: the finest rule in d = 3: nodes per axis in s_n and s_nu, and per part in u
    FINEST_3D = (quadrature._PIECE_RULES[3][1][0], quadrature._SHELL_NODES)
    #: the h grid of the bench's sweeps
    PINNED = [0.1, 0.05, 0.025, 0.0125]

    @staticmethod
    def general(d):
        """An isotropic pair whose normal is no axis, with an explicit tangent
        nu and every component of a nonzero."""
        if d == 2:
            n, nu, a = [0.6, 0.8], [-0.8, 0.6], [0.4, -0.3]
            fm = 0.2 * np.eye(2) + [[0.0, 0.1], [0.05, 0.0]]
        else:
            n = np.array([0.48, -0.6, 0.64])
            nu = np.cross(n, [0.3, 0.9, 0.1])
            nu /= np.linalg.norm(nu)
            a, fm = [0.5, -0.2, 0.3], 0.1 * np.eye(3) + np.arange(9).reshape(3, 3) / 180.0
        model = gj.IsotropicThetaEnergy(gj.IsotropicParams(d, 0.8, (1.0, 0.3, -2.0, 0.1, 1.0)))
        return model, gj.InterfacePair.from_jump(fm, a, n), nu

    @pytest.mark.parametrize("t", [0.7, 1.0])
    @pytest.mark.parametrize("h", [0.9, 0.5, 0.1, 0.0125, 1e-4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_against_a_finer_rule(self, d, h, t):
        # 1.5 times the rule's finest nodes per axis at every piece: 96 in
        # d = 2; 24 in s_n and s_nu and 9 per part in u in d = 3
        model, pair, nu = self.general(d)
        params = gj.InterchangeParams(h=h, t=t, nu=nu)
        res = gj.energy_increment(model, pair, params)
        assert res.method == "cubature"
        fld = InterchangeField(pair, params)
        integrand = quadrature._excess_integrand(model, pair, fld, t)
        nodes, n_w = quadrature._PIECE_RULES[d][1][0], quadrature._SHELL_NODES if d == 3 else 0
        exact_part = t * (-gj.interchange_force(model, pair) * h * interface_profile(h, d))
        finer = exact_part + cubature(fld, integrand, 3 * nodes // 2, 3 * n_w // 2)[0]
        assert abs(res.delta_e - finer) <= 1e-8 * abs(finer)
        assert res.mc_error >= abs(res.delta_e - finer)

    @pytest.mark.parametrize(
        "case, h, t, budget",
        # 16 times the default budgets on the sweep_3d pair (about 1.7 s per
        # estimate), 4 times on the general pairs; h = 0.5 splits the shell
        [("sweep-3d", 0.1, 1.0, 16), ("sweep-3d", 0.0125, 1.0, 16),
         (2, 0.05, 0.7, 4), (3, 0.5, 0.7, 4)],
    )
    def test_within_three_sigma_of_rqmc(self, monkeypatch, case, h, t, budget):
        if case == "sweep-3d":
            model, pair, nu = *self.SWEEP_3D.values(), None
        else:
            model, pair, nu = self.general(case)
        quad = gj.QuadratureConfig(
            seed=0, samples_bulk=budget * 32_768, samples_slab=budget * 262_144
        )
        params = gj.InterchangeParams(h=h, t=t, nu=nu, quad=quad)
        cubature = gj.energy_increment(model, pair, params)
        monkeypatch.setattr(quadrature, "_takes_cubature", lambda model: False)
        rqmc = gj.energy_increment(model, pair, params)
        assert rqmc.method == "rqmc"
        assert abs(cubature.delta_e - rqmc.delta_e) <= 3.0 * rqmc.mc_error

    def test_seed_sampler_and_budgets_change_nothing(self):
        for case in (self.SWEEP_3D, TestTwoWellCubature.CRITERION_1):
            base = gj.energy_increment(**case, params=gj.InterchangeParams(h=0.05))
            quad = gj.QuadratureConfig(seed=7, samples_bulk=2048, samples_slab=4096,
                                       stratification=("slab",), sampler="mc")
            other = gj.energy_increment(**case, params=gj.InterchangeParams(h=0.05, quad=quad))
            assert base.method == "cubature"
            assert repr(other.to_dict()) == repr(base.to_dict())

    def test_blocks_stay_within_the_block_rows(self, monkeypatch):
        blocks = watch_rows(monkeypatch)
        for case in (self.SWEEP_3D, TestTwoWellCubature.CRITERION_1):
            blocks.clear()
            res = gj.energy_increment(**case, params=gj.InterchangeParams(h=0.05))
            rows = [block.size for block in blocks]
            assert max(rows) <= quadrature._BLOCK_ROWS
            assert 2 * sum(rows) == res.n_evals

    def test_a_new_h_makes_no_cache_misses(self):
        # the unit rules of both cubatures, every node count of them, stay
        # cached from one h to the next
        caches = (quadrature._sine_gauss, quadrature._gauss_legendre)
        for h in (0.1, 0.05):
            misses = [cache.cache_info().misses for cache in caches]
            for case in (self.SWEEP_3D, TestTwoWellCubature.CRITERION_1):
                gj.energy_increment(**case, params=gj.InterchangeParams(h=h))
        assert [cache.cache_info().misses for cache in caches] == misses

    @pytest.mark.parametrize("d", [2, 3])
    def test_too_small_h_is_a_quadrature_error(self, d):
        model, pair, nu = self.general(d)
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.energy_increment(model, pair, gj.InterchangeParams(h=1e-100, nu=nu))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_sweep_runs_in_one_process(self, monkeypatch, cpus):
        # one energy_increment call per h, in grid order, whose n_evals add
        # up to the sweep's, as the bench tracer reads them; no fork, on one
        # usable CPU as on two
        _report_cpus(monkeypatch, cpus)
        monkeypatch.setattr(os, "fork", _no_fork)
        real = quadrature.energy_increment
        calls = []

        def energy_increment(model, pair, params_h, **kwargs):
            res = real(model, pair, params_h, **kwargs)
            calls.append((params_h.h, res.n_evals, res.method))
            return res

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        grid = [0.1, 0.05, 0.025, 0.0125]
        for case in (self.SWEEP_3D, TestTwoWellCubature.CRITERION_1):
            calls.clear()
            sweep = quadrature.limit_sweep(**case, params=gj.InterchangeParams(h=0.1),
                                           h_grid=grid)
            assert [h for h, _, _ in calls] == grid
            assert sum(n for _, n, _ in calls) == sweep.n_evals
            assert {m for _, _, m in calls} == {"cubature"} and sweep.method == "cubature"

    def test_evaluations_per_h_in_d3(self):
        # no piece takes the finer rules on the bench's sweep_3d pair at the
        # pinned h: 55,344 evaluations per h
        for h in self.PINNED:
            res = gj.energy_increment(**self.SWEEP_3D, params=gj.InterchangeParams(h=h))
            assert res.n_evals <= 60_000, h

    @pytest.mark.parametrize("t", [0.7, 1.0])
    @pytest.mark.parametrize("case", ["sweep-3d", "general"])
    def test_bar_bounds_a_finer_rule_on_the_pinned_grid_in_d3(self, case, t):
        # 1.5 times the finest rule, 24 nodes in s_n and s_nu and 9 per part
        # in u.  At h = 0.025 the slab piece sqrt(h) < s_nu < the core's
        # chord at s_n = h converges only algebraically (the core's chord
        # vanishes at its corner), and the bar is closest to the distance
        model, pair, nu = (*self.SWEEP_3D.values(), None) if case == "sweep-3d" else self.general(3)
        nodes, n_w = self.FINEST_3D
        for h in self.PINNED:
            params = gj.InterchangeParams(h=h, t=t, nu=nu)
            res = gj.energy_increment(model, pair, params)
            fld = InterchangeField(pair, params)
            integrand = quadrature._excess_integrand(model, pair, fld, t)
            exact_part = t * (-gj.interchange_force(model, pair) * h * interface_profile(h, 3))
            finer = exact_part + cubature(
                fld, integrand, 3 * nodes // 2, 3 * n_w // 2)[0]
            assert res.mc_error >= abs(res.delta_e - finer), h

    @pytest.mark.parametrize("h", [0.5, 1e-4])
    def test_estimate_and_bar_are_sums_over_the_pieces_in_d3(self, h):
        # on the general pair some pieces' 12- and 8-node values differ by
        # more than the tolerance (4 pieces at both h; at h = 0.5 the shell
        # takes two parts in u); those take the 16- and 12-node rules, and
        # each piece's finest value and its own bar add up as in d = 2
        model, pair, nu = self.general(3)
        params = gj.InterchangeParams(h=h, t=1.0, nu=nu)
        res = gj.energy_increment(model, pair, params)
        fld = InterchangeField(pair, params)
        integrand = quadrature._excess_integrand(model, pair, fld, 1.0)
        layout = quadrature._half_disk_layout(h)
        every = np.arange(layout.flat.size)
        coarse, fine = quadrature._PIECE_RULES[3]
        (i12, i8), coarse_evals = quadrature._piece_integrals(
            pair.d, integrand, layout, coarse, every)
        switch = np.abs(i12 - i8) > quadrature._ESCALATION_TOL * np.abs(i12)
        assert switch.any() and not switch.all()
        (i16, i12_again), fine_evals = quadrature._piece_integrals(
            pair.d, integrand, layout, fine, np.flatnonzero(switch))
        np.testing.assert_array_equal(i12_again, i12[switch])
        value, bar = i12.copy(), np.abs(i12 - i8)
        value[switch], bar[switch] = i16, np.abs(i16 - i12_again)
        ff_exact = -gj.interchange_force(model, pair) * h * interface_profile(h, 3)
        assert res.delta_e - ff_exact == pytest.approx(value.sum(), rel=1e-13)
        assert res.mc_error == pytest.approx(bar.sum(), rel=1e-13)
        assert res.n_evals == coarse_evals + fine_evals

    def test_no_chi2_cap_on_exact_values(self):
        # the residual of exact values is truncation, which the cap would
        # reject as a misfit on every grid of five or more points
        grid = [0.1 * 2.0**-k for k in range(6)]
        sweep = gj.limit_sweep(**self.SWEEP_3D, params=gj.InterchangeParams(h=0.1), h_grid=grid)
        assert sweep.chi2_red > 25.0
        target = gj.interchange_limit_target(**self.SWEEP_3D)
        assert abs(sweep.limit - target) <= 2.0 * sweep.limit_total_error


class StackFormTwoWell(gj.AntiplaneDoubleWell):
    """The anti-plane two-well kind on the base-class stack-form kernel."""

    rank_one_excess = gj.EnergyModel.rank_one_excess


def watch_rows(monkeypatch):
    """The s_n of each block of cubature rows, recorded as its gradient is
    formed, so in the order in which the blocks reach the integrand: the
    rows at w = 0 through ``_node_gradient``, each shell row through
    ``_shell_blocks`` (its node's s_n)."""
    blocks = []
    node_gradient, shell_blocks = quadrature._node_gradient, quadrature._shell_blocks

    def watched_node_gradient(layout, piece, s_n, s_nu, d):
        blocks.append(s_n.copy())
        return node_gradient(layout, piece, s_n, s_nu, d)

    def watched_shell_blocks(layout, s_n, s_nu, weight, piece, n_w):
        for part, g, wts in shell_blocks(layout, s_n, s_nu, weight, piece, n_w):
            blocks.append(np.repeat(s_n[part], wts.shape[1]))
            yield part, g, wts

    monkeypatch.setattr(quadrature, "_node_gradient", watched_node_gradient)
    monkeypatch.setattr(quadrature, "_shell_blocks", watched_shell_blocks)
    return blocks


def _no_fork():
    raise AssertionError("os.fork called")


def _report_cpus(monkeypatch, cpus):
    """Make os report `cpus` usable CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestTwoWellCubature:
    """The min-of-quadratics kinds' Delta E in d = 2 by the same rule: each
    piece at 16 and 12 nodes per axis, and the pieces where the wells
    switch at 64, with the larger distance to the 48- and 32-node rules as
    their error bar."""

    CRITERION_1 = dict(
        model=gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)),
        pair=gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.2, 0.0]]),
    )
    H_GRID = [0.1, 0.05, 0.02, 0.0125, 0.005, 0.0025]

    @staticmethod
    def pairs():
        """The Maxwell pair, the criterion-1 pair and four random two-well
        pairs, F+ inside the stiff well and F- in the soft one."""
        antiplane = TestTwoWellCubature.CRITERION_1["model"]
        out = {
            "maxwell": (antiplane, gj.InterfacePair.from_gradients([[1.0, 0.0]], [[2.0, 0.0]])),
            "criterion-1": tuple(TestTwoWellCubature.CRITERION_1.values()),
        }
        rng = np.random.default_rng(18)
        for k in range(4):
            model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(
                rng.uniform(1.5, 3.0), rng.uniform(0.5, 1.2), 0.0, rng.uniform(0.5, 1.5)))
            angles = rng.uniform(0.0, 2.0 * np.pi, 2)
            f_plus, f_minus = (radius * np.array([np.cos(a), np.sin(a)]) for radius, a in
                               zip((rng.uniform(0.3, 1.0), rng.uniform(1.5, 2.5)), angles))
            out[f"random-{k}"] = (model, gj.InterfacePair.from_gradients([f_plus], [f_minus]))
        return out

    @pytest.mark.parametrize("t", [1.0, 0.7])
    @pytest.mark.parametrize("name", ["maxwell", "criterion-1", *(f"random-{k}" for k in range(4))])
    def test_error_bar_bounds_a_512_node_rule(self, name, t):
        # where the wells switch the rule converges only algebraically, so
        # the bar must bound its error, not just the step to a coarser rule
        model, pair = self.pairs()[name]
        for h in self.H_GRID:
            params = gj.InterchangeParams(h=h, t=t)
            res = gj.energy_increment(model, pair, params)
            assert res.method == "cubature"
            fld = InterchangeField(pair, params)
            integrand = quadrature._excess_integrand(model, pair, fld, t)
            exact_part = res.delta_e - cubature(fld, integrand, 64)[0]
            finer = exact_part + cubature(fld, integrand, 512)[0]
            assert res.mc_error >= abs(res.delta_e - finer), h

    @pytest.mark.parametrize(
        "h, t, budget",
        # 16 times the default budgets at the larger h (about 1.5 s each)
        [(0.1, 1.0, 16), (0.0125, 1.0, 4), (0.05, 0.1, 16), (0.0125, 0.1, 4)],
    )
    def test_within_three_sigma_of_rqmc(self, monkeypatch, h, t, budget):
        # at t = 1 the rule's own error is not negligible against the
        # sampler's, so both bars count; at t = 0.1 no well switches and
        # the rule's bar is at rounding level
        quad = gj.QuadratureConfig(
            seed=0, samples_bulk=budget * 32_768, samples_slab=budget * 262_144
        )
        params = gj.InterchangeParams(h=h, t=t, quad=quad)
        cubature = gj.energy_increment(**self.CRITERION_1, params=params)
        monkeypatch.setattr(quadrature, "_takes_cubature", lambda model: False)
        rqmc = gj.energy_increment(**self.CRITERION_1, params=params)
        assert (cubature.method, rqmc.method) == ("cubature", "rqmc")
        assert abs(cubature.delta_e - rqmc.delta_e) <= 3.0 * math.hypot(
            rqmc.mc_error, cubature.mc_error)

    def test_too_small_h_is_a_quadrature_error(self):
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.energy_increment(**self.CRITERION_1, params=gj.InterchangeParams(h=1e-100))

    @pytest.mark.parametrize("t", [1.0, 0.1])
    def test_only_the_pieces_where_the_wells_switch_take_the_finer_rules(self, monkeypatch, t):
        # on the criterion-1 pair at t = 1: the corner 0 < s_nu < sqrt(h),
        # 0 < s_n < h and the slab ring 1 - sqrt(h) < s_nu < sqrt(1 - h^2),
        # 0 < s_n < h; at t = 0.1 no well switches
        real = quadrature._piece_integrals
        finer = []

        def piece_integrals(d, integrand, layout, nodes, pieces):
            if nodes == quadrature._PIECE_RULES[2][1]:
                finer.append(np.stack([layout.a[pieces], layout.b[pieces],
                                       layout.lo_knot[pieces], layout.hi_knot[pieces]], axis=1))
            return real(d, integrand, layout, nodes, pieces)

        monkeypatch.setattr(quadrature, "_piece_integrals", piece_integrals)
        for h in self.H_GRID:
            finer.clear()
            gj.energy_increment(**self.CRITERION_1, params=gj.InterchangeParams(h=h, t=t))
            sh = math.sqrt(h)
            switching = [(0.0, sh, 0, 3), (1.0 - sh, math.sqrt(1.0 - h * h), 0, 3)]
            assert len(finer) == (t == 1.0), h
            assert all(np.allclose(pieces, switching, rtol=1e-15, atol=0.0) for pieces in finer), h

    @pytest.mark.parametrize("t", [1.0, 0.7, 0.1])
    @pytest.mark.parametrize("name", ["maxwell", "criterion-1", *(f"random-{k}" for k in range(4))])
    def test_evaluations_per_h(self, name, t):
        model, pair = self.pairs()[name]
        cap = 40_000 if name == "criterion-1" else 110_000
        for h in self.H_GRID:
            res = gj.energy_increment(model, pair, gj.InterchangeParams(h=h, t=t))
            assert res.n_evals <= cap, h

    @pytest.mark.parametrize("h, t", [(0.1, 1.0), (0.0125, 0.7), (0.05, 0.1)])
    @pytest.mark.parametrize("name", ["criterion-1", "random-1"])
    def test_estimate_and_bar_are_sums_over_the_pieces(self, name, h, t):
        # each piece's finest value and its own bar: the larger distance to
        # the 48- and 32-node values where its 16- and 12-node values differ
        # by more than the tolerance, else the distance between those two
        model, pair = self.pairs()[name]
        params = gj.InterchangeParams(h=h, t=t)
        res = gj.energy_increment(model, pair, params)
        fld = InterchangeField(pair, params)
        integrand = quadrature._excess_integrand(model, pair, fld, t)
        layout = quadrature._half_disk_layout(h)
        every = np.arange(layout.flat.size)
        (i16, i12), _ = quadrature._piece_integrals(pair.d, integrand, layout, (16, 12), every)
        (i64, i48, i32), _ = quadrature._piece_integrals(
            pair.d, integrand, layout, (64, 48, 32), every)
        switch = np.abs(i16 - i12) > quadrature._ESCALATION_TOL * np.abs(i16)
        value = np.where(switch, i64, i16).sum()
        bar = np.where(switch, np.maximum(np.abs(i64 - i48), np.abs(i64 - i32)),
                       np.abs(i16 - i12)).sum()
        ff_exact = -gj.interchange_force(model, pair) * h * interface_profile(h, 2)
        assert res.delta_e - t * ff_exact == pytest.approx(value, rel=1e-13)
        assert res.mc_error == pytest.approx(bar, rel=1e-13)
        rows = 16 * 16 + 12 * 12
        assert res.n_evals == 2 * (rows * (~layout.flat).sum() + 2 * layout.flat.sum()
                                   + (64 * 64 + 48 * 48 + 32 * 32) * switch.sum())
        # never below the whole rule's bar on the same pieces
        whole = np.where(switch, i64, i16)
        assert res.mc_error >= max(abs(whole.sum() - np.where(switch, i48, i12).sum()),
                                   abs(whole.sum() - np.where(switch, i32, i12).sum()))

    def test_routing_follows_the_kernel_that_runs(self):
        # every model in d = 2 takes the rule, whatever its kernel; in
        # d = 3 only the isotropic kind does
        class ValueOverride(gj.MinQuadraticsEnergy):
            def value(self, f):
                return super().value(f)

        takes = {
            gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS)): True,
            gj.QuadraticEnergy(2, 2): True,
            gj.MinQuadraticsEnergy(2, 2, [(1.0, 0.0), (2.0, -1.0)]): True,
            ValueOverride(1, 2, [(1.0, 0.0)]): True,
            StackFormTwoWell(gj.AntiplaneParams(**REF_PARAMS)): True,
            ValueOnlyQuadratic(1, 2): True,
            gj.IsotropicThetaEnergy(gj.IsotropicParams(3, 1.0, (1.0, 0.0, -2.0, 0.0, 1.0))): True,
            gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS), d=3): False,
            gj.QuadraticEnergy(1, 3): False,
            ValueOnlyQuadratic(1, 3): False,
        }
        assert {m: quadrature._takes_cubature(m) for m in takes} == takes

    def test_stack_form_matches_the_closed_kernel(self):
        # the same two wells on the base-class stack form take the same
        # rule, and each h agrees with the closed kernel's to rounding
        model, pair = self.CRITERION_1.values()
        stack_form = StackFormTwoWell(model.params)
        params = gj.InterchangeParams(h=0.1)
        closed, stacked = (gj.limit_sweep(m, pair, params, self.H_GRID) for m in (model, stack_form))
        assert (closed.method, stacked.method) == ("cubature", "cubature")
        np.testing.assert_allclose(stacked.values, closed.values, rtol=1e-12, atol=0.0)


class TestHalfDiskRule:
    """The nodes of the piecewise rule, and the one row that each of its
    flat pieces (constant field gradient) takes."""

    #: the h grid of the bench's sweeps
    PINNED = [0.1, 0.05, 0.025, 0.0125]

    @staticmethod
    def nodes(h, n):
        """(s_n, s_nu, weights, flat): every node of every piece at h, each of
        shape (pieces, n, n), indexed by piece, s_nu node and s_n node."""
        layout = quadrature._half_disk_layout(h)
        nu, centre, half_n, weight_nu = quadrature._half_disk_pieces(
            layout, n, np.arange(layout.flat.size))
        x, wx = quadrature._sine_gauss(n)
        s_n = half_n[:, :, None] * x + centre[:, :, None]
        return s_n, np.broadcast_to(nu[:, :, None], s_n.shape), weight_nu[:, :, None] * wx, layout.flat

    @staticmethod
    def rows(h, n, pieces=None):
        """(coords, weights, piece) of the rows the cubature in d = 2 forms
        for the chosen pieces at h, every piece by default."""
        layout = quadrature._half_disk_layout(h)
        if pieces is None:
            pieces = np.arange(layout.flat.size)
        coords, weights, piece, shell = quadrature._half_disk_rows(layout, n, np.asarray(pieces))
        assert shell is None
        return coords, weights, piece

    @pytest.mark.parametrize("h", PINNED + [0.25, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n", [32, 64])
    def test_weights_sum_to_the_area_where_the_field_moves(self, n, h):
        # the quarter disk s_nu < 0 and the slab 0 < s_n < h of the half
        # disk, by every node and by the rows the cubature evaluates
        area = 0.25 * math.pi + 0.5 * (h * math.sqrt(1.0 - h * h) + math.asin(h))
        for weights in (self.nodes(h, n)[2], self.rows(h, n)[1]):
            assert abs(weights.sum() - area) <= 1e-14 * area

    @pytest.mark.parametrize("h", PINNED + [0.25, 0.9, 1e-4, 1e-6])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_flat_pieces_have_the_analytic_constant_gradient(self, n, h):
        s_n, s_nu, _, flat = self.nodes(h, n)
        sh, r1 = math.sqrt(h), 1.0 - math.sqrt(h)
        assert flat.any()
        for p in np.flatnonzero(flat):
            coords = np.stack([s_n[p].ravel(), s_nu[p].ravel()], axis=1)
            r = np.linalg.norm(coords, axis=1)
            g = sign_fold_gradient(coords, r, h)
            nu = s_nu[p, 0, 0]
            assert nu < 0.0 or nu > sh  # off the corner
            assert np.all(r < r1 + 1e-15)  # in the core
            constant = (-1.0, 0.0) if nu > 0.0 else (0.0, -sh) if nu > -sh else (0.0, 0.0)
            # a node off the constant lies on the piece's edge to rounding
            off = np.any(g != constant, axis=1)
            margin = np.minimum.reduce([
                coords[off, 0], np.abs(h - coords[off, 0]), np.abs(r[off] - r1),
                np.abs(np.abs(coords[off, 1]) - sh),
            ])
            assert np.all(margin <= 1e-15), (p, coords[off][:4])

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 48, 64])
    def test_rows_are_the_gathered_nodes_bit_for_bit(self, n):
        # the rows the rule forms for any set of pieces are those that
        # boolean masks gather from every node of those pieces: each node
        # of weight > 0 of a piece that is not flat, in node order, then
        # the middle node of each flat one, with the piece's summed weight
        for h in self.PINNED + [1e-12, 1e-6, 0.25, 0.38, 0.6, 0.9]:
            s_n, s_nu, weights, flat = self.nodes(h, n)
            mid = n // 2
            every = np.arange(flat.size)
            for pieces in (every, every[::2], every[~flat], every[flat], every[::-3]):
                coords, row_weights, piece = self.rows(h, n, pieces)
                keep = ~flat[pieces, None, None] & (weights[pieces] > 0.0)
                is_flat = flat[pieces]
                want = [np.concatenate([a[pieces][keep], a[pieces][is_flat, mid, mid]])
                        for a in (s_n, s_nu)]
                want.append(np.concatenate([weights[pieces][keep],
                                            weights[pieces][is_flat].sum(axis=(1, 2))]))
                assert coords.shape == (want[0].size, 2)
                assert np.array_equal(piece, np.concatenate([np.nonzero(keep)[0],
                                                             np.flatnonzero(is_flat)]))
                for got, expected in zip((coords[:, 0], coords[:, 1], row_weights), want):
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), h

    @pytest.mark.parametrize("n, dropped", [(4, 0), (8, 0), (12, 0), (16, 16), (32, 32),
                                            (48, 96), (64, 192)])
    def test_no_row_of_weight_zero(self, n, dropped):
        # at h = 1e-6 the s_nu nodes next to 1 - sqrt(h) that round onto
        # that circle give the sliver piece there an s_n interval of length
        # 0: n rows at n = 16, 2 n at n = 32 and 48, 3 n at n = 64; the
        # rule forms no row at them
        for h in self.PINNED + [1e-12, 1e-6, 0.38, 0.6, 0.9]:
            coords, weights, _ = self.rows(h, n)
            assert np.all(weights > 0.0) and np.all(coords[:, 0] > 0.0), h
            flat = quadrature._half_disk_layout(h).flat
            assert n * n * (~flat).sum() + flat.sum() - weights.size == (dropped if h == 1e-6 else 0)

    @staticmethod
    def cases():
        """The closed two-well kernel, its stack form, a value-only model in
        d = 2 and the isotropic kind in d = 2 and 3."""
        model, pair = TestTwoWellCubature.CRITERION_1.values()
        value_only = gj.InterfacePair.from_jump([[2.2, 0.3]], [-1.2], [1.0, 0.0])
        return {
            "two-well": (model, pair, 64, None),
            "stack-form": (StackFormTwoWell(model.params), pair, 48, None),
            "value-only": (ValueOnlyQuadratic(1, 2), value_only, 16, None),
            "isotropic-2d": (*TestCubature.general(2)[:2], *TestCubature.FINEST_3D),
            "isotropic-3d": (*TestCubature.SWEEP_3D.values(), *TestCubature.FINEST_3D),
        }

    @pytest.mark.parametrize("h", [0.1, 0.0125, 0.6])
    @pytest.mark.parametrize("name", ["two-well", "stack-form", "value-only", "isotropic-3d"])
    def test_one_row_per_flat_piece_matches_the_full_rule(self, monkeypatch, name, h):
        model, pair, n, n_w = self.cases()[name]
        params = gj.InterchangeParams(h=h)
        fld = InterchangeField(pair, params)
        integrand = quadrature._excess_integrand(model, pair, fld, 1.0)
        collapsed, collapsed_evals = cubature(fld, integrand, n, n_w)
        real = quadrature._half_disk_layout

        def no_flat_piece(h):
            layout = real(h)
            return layout._replace(flat=np.zeros_like(layout.flat))

        monkeypatch.setattr(quadrature, "_half_disk_layout", no_flat_piece)
        full, full_evals = cubature(fld, integrand, n, n_w)
        assert abs(collapsed - full) <= 1e-13 * abs(full)
        assert collapsed_evals < full_evals

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 48, 64])
    def test_every_row_with_weight_has_positive_s_n(self, monkeypatch, n, d):
        # what lets each block take F+ for z and F- for -z in one kernel
        # call: every row, at w = 0 and in d = 3 in the shell, lies at
        # s_n > 0.  No row carries weight 0 either: none sits at
        # s_n = 0 where a piece's s_n interval has length 0 (at the s_nu
        # nodes that round onto 1 - sqrt(h) = 0.999 for h = 1e-6 and
        # n >= 16), nor, in d = 3, at w = 0 outside the core, where the
        # core's chord is 0.  The integrand is 1 at z on every row at
        # s_n <= 0 and 0 elsewhere, so the total is their summed weight.
        s_n = watch_rows(monkeypatch)

        def integrand(g):
            rows = s_n[-1]  # the block whose gradient g is
            assert rows.size == g.shape[1]
            return (rows <= 0.0).astype(float), np.zeros(rows.size)

        pair = (TestCubature.SWEEP_3D if d == 3 else TestTwoWellCubature.CRITERION_1)["pair"]
        for h in (1e-12, 1e-6, 0.0125, 0.1, 0.38, 0.6, 0.9):
            s_n.clear()
            fld = InterchangeField(pair, gj.InterchangeParams(h=h))
            total, evals = cubature(fld, integrand, n, 6 if d == 3 else None)
            rows = np.concatenate(s_n)
            assert 2 * rows.size == evals
            assert np.all(rows > 0.0) and total == 0.0, (h, np.sum(rows == 0.0))
            layout = quadrature._half_disk_layout(h)
            _, weights, _, shell = quadrature._half_disk_rows(
                layout, n, np.arange(layout.flat.size), d)
            if d == 3:
                blocks = quadrature._shell_blocks(layout, *shell, 6)
                weights = np.concatenate([weights, *(w.ravel() for _, _, w in blocks)])
            assert 2 * weights.size == evals and np.all(weights > 0.0), h

    @pytest.mark.parametrize("t", [1.0, 0.7])
    @pytest.mark.parametrize("h", [0.1, 0.0125, 0.6, 1e-6])
    @pytest.mark.parametrize(
        "name", ["two-well", "stack-form", "value-only", "isotropic-2d", "isotropic-3d"])
    def test_one_kernel_call_equals_per_row_sides(self, monkeypatch, name, h, t):
        # each point's side read off its s_n, from the pair's kernel and
        # the swapped pair's, gives the cubature's total bit for bit
        model, pair, n, n_w = self.cases()[name]
        fld = InterchangeField(pair, gj.InterchangeParams(h=h, t=t))
        kernel = model.rank_one_excess(pair.fp, pair.fm, pair.a, t)
        swapped = model.rank_one_excess(pair.fm, pair.fp, pair.a, t)
        blocks = watch_rows(monkeypatch)

        def per_row_sides(g):
            world = g.T @ fld.frame
            # z on F+ or F- at +t; -z, whose gradient is -g, on either at -t
            z_on_plus, mirror_on_minus = kernel(world)
            z_on_minus, mirror_on_plus = swapped(world)
            s_n = blocks[-1]  # the s_n of the block whose gradient g is
            return (np.where(s_n > 0.0, z_on_plus, z_on_minus),
                    np.where(s_n < 0.0, mirror_on_plus, mirror_on_minus))

        integrand = quadrature._excess_integrand(model, pair, fld, t)
        one_call = cubature(fld, integrand, n, n_w)
        assert one_call == cubature(fld, per_row_sides, n, n_w)


def reference_shell_blocks(h, s_n, s_nu, weight, n_w):
    """(nodes, coords, weights) of the shell rows of the given nodes, d = 3:
    ``_shell_blocks`` with each row's coordinates (rows, 3) in place of its
    gradient, the same nodes in u and the same blocks."""
    r1 = 1.0 - math.sqrt(h)
    parts = max(1, math.ceil(math.acosh(1.0 / r1)))
    t, wt = quadrature._gauss_legendre(n_w)
    u_unit = ((np.arange(parts)[:, None] + 0.5 * (1.0 + t)) / parts).ravel()
    u_weights = np.tile(0.5 * wt / parts, parts)
    k = u_unit.size
    rho2 = s_n * s_n + s_nu * s_nu
    rho = np.sqrt(rho2)
    sphere = quadrature._chord(1.0, s_nu)
    u_lo = np.arcsinh(np.sqrt(np.maximum(r1 * r1 - rho2, 0.0)) / rho)
    u_span = np.arcsinh(np.sqrt(np.maximum((sphere - s_n) * (sphere + s_n), 0.0)) / rho) - u_lo
    shell = weight * u_span * rho
    step = quadrature._BLOCK_ROWS // (2 * k)
    for i in range(0, s_n.size, step):
        part = slice(i, i + step)
        u = u_lo[part, None] + u_span[part, None] * u_unit
        w = rho[part, None] * np.sinh(u)
        coords = np.empty((3, w.shape[0], 2, k))
        coords[0] = s_n[part, None, None]
        coords[1] = s_nu[part, None, None]
        coords[2] = np.stack([w, -w], axis=1)
        wts = np.tile(shell[part, None] * u_weights * np.cosh(u), 2)
        yield part, coords.reshape(3, -1).T, wts


def reference_piece_integrals(fld, kernel, layout, nodes, pieces, n_w=quadrature._SHELL_NODES):
    """``_piece_integrals`` by the sign-fold path: each row's coordinates,
    their radius, the sign-fold gradient (``sign_fold.sign_fold_gradient``)
    and G = g @ frame for the pair's kernel, block by block."""
    h, d = fld.h, fld.pair.d

    def pair_values(coords):
        g = sign_fold_gradient(coords, quadrature._radius(coords), h)
        return np.add(*kernel(g @ fld.frame))

    rules = [quadrature._half_disk_rows(layout, n, pieces, d) for n in nodes]
    columns = np.concatenate([coords.T for coords, *_ in rules], axis=1)
    columns = np.vstack([columns, np.zeros((d - 2, columns.shape[1]))])  # w = 0 in d = 3
    weights = np.concatenate([w for _, w, _, _ in rules])
    labels = [k * len(pieces) + piece for k, (_, _, piece, _) in enumerate(rules)]
    values = np.empty(weights.size)
    for i in range(0, weights.size, quadrature._BLOCK_ROWS):
        values[i:i + quadrature._BLOCK_ROWS] = pair_values(
            columns[:, i:i + quadrature._BLOCK_ROWS].T)
    values *= weights
    rows, sums = weights.size, [values]
    if d == 3:
        s_n, s_nu, weight, _ = (np.concatenate(a) for a in zip(*(s for *_, s in rules)))
        shell = np.empty(s_n.size)
        for part, coords, wts in reference_shell_blocks(h, s_n, s_nu, weight, n_w):
            shell[part] = (wts * pair_values(coords).reshape(wts.shape)).sum(axis=1)
            rows += wts.size
        sums.append(shell)
        labels += [k * len(pieces) + s[3] for k, (*_, s) in enumerate(rules)]
    integrals = np.bincount(np.concatenate(labels), weights=np.concatenate(sums),
                            minlength=len(nodes) * len(pieces))
    return integrals.reshape(len(nodes), len(pieces)), 2 * rows


def same_bits(a, b):
    """Whether two float arrays hold the same bits, signs of zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRowGradients:
    """The cubature forms each row's frame gradient from its piece's
    kinematics, with the bits of the sign fold at the row's coordinates."""

    @pytest.mark.parametrize("h", [0.9, 0.5, 0.1, 0.025, 0.0125, 1e-4, 1e-6])
    @pytest.mark.parametrize("n", [8, 12, 16, 32, 48, 64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_row_kind_is_the_sign_folds_gradient(self, d, n, h):
        # every row at w = 0 (in d = 2 on every piece, in d = 3 on the core
        # pieces and, at h = 1e-6, a ring piece's nodes whose core chord
        # rounds above 0) and every shell row of every piece, sign bits
        # included
        layout = quadrature._half_disk_layout(h)
        every = np.arange(layout.flat.size)
        coords, _, piece, shell = quadrature._half_disk_rows(layout, n, every, d)
        g = quadrature._node_gradient(layout, piece, coords[:, 0], coords[:, 1], d)
        at_w0 = np.column_stack([coords, np.zeros((coords.shape[0], d - 2))])
        assert same_bits(g.T, sign_fold_gradient(at_w0, quadrature._radius(at_w0), h))
        if d == 2:
            assert np.array_equal(np.unique(piece), every)
            return
        assert np.array_equal(np.unique(shell[3]), every)
        blocks = quadrature._shell_blocks(layout, *shell, quadrature._SHELL_NODES)
        reference = reference_shell_blocks(h, *shell[:3], quadrature._SHELL_NODES)
        for (part, g, wts), (ref_part, ref_coords, ref_wts) in zip(blocks, reference,
                                                                   strict=True):
            assert part == ref_part and same_bits(wts, ref_wts)
            assert same_bits(g.T, sign_fold_gradient(ref_coords, quadrature._radius(ref_coords), h))

    @staticmethod
    def pairs():
        """Both 3-D pairs of ``TestCubature`` and the six 2-D pairs of
        ``TestTwoWellCubature``: (model, pair, nu)."""
        out = {"sweep-3d": (*TestCubature.SWEEP_3D.values(), None),
               "general-3d": TestCubature.general(3)}
        out.update({name: (*case, None) for name, case in TestTwoWellCubature.pairs().items()})
        return out

    @pytest.mark.parametrize("t", [1.0, 0.7])
    @pytest.mark.parametrize("name", ["sweep-3d", "general-3d", "maxwell", "criterion-1",
                                      *(f"random-{k}" for k in range(4))])
    def test_piece_integrals_are_the_sign_fold_paths(self, name, t):
        # every piece at both rules of its d, bit for bit
        model, pair, nu = self.pairs()[name]
        kernel = model.rank_one_excess(pair.fp, pair.fm, pair.a, t)
        for h in [0.5, *TestCubature.PINNED]:
            fld = InterchangeField(pair, gj.InterchangeParams(h=h, t=t, nu=nu))
            integrand = quadrature._excess_integrand(model, pair, fld, t)
            layout = quadrature._half_disk_layout(h)
            every = np.arange(layout.flat.size)
            for nodes in quadrature._PIECE_RULES[pair.d]:
                got, evals = quadrature._piece_integrals(pair.d, integrand, layout, nodes, every)
                want, ref_evals = reference_piece_integrals(fld, kernel, layout, nodes, every)
                assert same_bits(got, want) and evals == ref_evals, (h, nodes)


class TestSeriesFit:
    """The weighted least-squares fit of the sqrt(h) series."""

    @pytest.mark.parametrize(
        "h_grid, sigma, coef",
        [
            # sweep_2d's grid and error bars, and its fit's coefficients
            ([0.1, 0.05, 0.025, 0.0125], [3.4e-5, 1.55e-4, 1.6e-4, 1.15e-4],
             [-0.2364483, 5.8704736, -4.0028241, 1.7]),
            # sweep_3d's grid with bars falling as fast as the cubature's
            ([0.1, 0.05, 0.025, 0.0125], [2.7e-6, 3e-7, 5e-8, 1e-8],
             [-0.5538657, 2.2023034, -2.6968087, 0.9]),
            (TestTwoWellCubature.H_GRID, [3.4e-5, 1.55e-4, 1.6e-4, 1.15e-4, 8e-5, 5e-5],
             [-0.2364483, 5.8704736, -4.0028241, 1.7]),
        ],
    )
    def test_an_exact_series_returns_its_coefficients(self, h_grid, sigma, coef):
        # the Gram matrix's condition number here is 1e8 and more, which
        # inverting it would square into the coefficients
        x, coef = np.sqrt(h_grid), np.array(coef)
        y = coef[0] + coef[1] * x + coef[2] * x**2 + coef[3] * x**3
        fit, cov, chi2 = quadrature._weighted_poly_fit(x, y, np.array(sigma), 4)
        np.testing.assert_allclose(fit, coef, rtol=1e-10, atol=0.0)
        assert chi2 <= 1e-12

    def test_covariance_is_the_inverse_gram(self, rng):
        x = np.linspace(0.1, 1.0, 7)
        sigma = rng.uniform(0.5, 2.0, 7)
        _, cov, _ = quadrature._weighted_poly_fit(x, rng.normal(size=7), sigma, 3)
        design = np.vander(x, 3, increasing=True)
        gram = design.T @ (design / sigma[:, None] ** 2)
        np.testing.assert_allclose(cov, np.linalg.inv(gram), rtol=1e-12)


class TestRateFit:
    """The log-log fit of the remainder, down to two points clear of the noise."""

    H_GRID = np.array([0.1, 0.05, 0.025, 0.0125])

    def test_two_clear_remainders_give_the_exponent(self):
        values = -0.24 + 0.3 * np.sqrt(self.H_GRID)
        sigma = np.full(4, 0.02)
        # remainders 0.095, 0.067, 0.047, 0.034: two beyond 3 sigma
        assert int(np.sum(np.abs(values + 0.24) > 3.0 * sigma)) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate, rate_error = quadrature._rate_fit(self.H_GRID, values, sigma, -0.24)
        assert rate == pytest.approx(0.5, abs=1e-12)
        assert math.isfinite(rate_error) and rate_error > 0.0

    @pytest.mark.parametrize("p, c", [(0.25, 0.3), (0.5, -0.3), (1.0, 0.3)])
    def test_power_law_remainder_gives_its_exponent(self, p, c):
        # every remainder clear of the noise, of either sign
        values = -0.24 + c * self.H_GRID**p
        sigma = np.full(4, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate, rate_error = quadrature._rate_fit(self.H_GRID, values, sigma, -0.24)
        assert rate == pytest.approx(p, abs=1e-9)
        assert math.isfinite(rate_error) and 0.0 < rate_error < 1e-3

    @pytest.mark.parametrize("values, sigma, clear", [
        (np.zeros(4), 1e-14, 0),
        (np.full(4, 0.3), 1e-14, 0),
        # only the remainder 0.095 lies beyond 3 sigma = 0.09
        (-0.24 + 0.3 * np.sqrt(H_GRID), 0.03, 1),
    ])
    def test_no_rate_below_two_clear_remainders(self, values, sigma, clear):
        limit = values[0] if clear == 0 else -0.24
        sigma = np.full(4, sigma)
        assert int(np.sum(np.abs(values - limit) > 3.0 * sigma)) == clear
        assert quadrature._rate_fit(self.H_GRID, values, sigma, limit) == (None, None)


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

    @pytest.mark.parametrize("case", ["criterion-1", "criterion-1-cubature", "sweep-3d"])
    def test_limit_total_error_covers_the_target(self, monkeypatch, antiplane, noneq_pair,
                                                 case):
        # the pinned grid's truncation, which limit_error alone leaves out:
        # on the sweep_3d pair the cubature's limit_error is below 1e-4
        # while the limit sits 1.1e-3 from the target.  "criterion-1"
        # samples the criterion-1 pair, which takes the cubature by default
        if case == "criterion-1":
            monkeypatch.setattr(quadrature, "_takes_cubature", lambda model: False)
        if case.startswith("criterion-1"):
            model, pair, quad = antiplane, noneq_pair, gj.QuadratureConfig(seed=0)
        else:
            model, pair, quad = *TestCubature.SWEEP_3D.values(), gj.QuadratureConfig(seed=0)
        params = gj.InterchangeParams(h=0.1, quad=quad)
        sweep = gj.limit_sweep(model, pair, params, [0.1, 0.05, 0.025, 0.0125])
        assert sweep.method == ("rqmc" if case == "criterion-1" else "cubature")
        target = gj.interchange_limit_target(model, pair)
        assert abs(sweep.limit - target) <= 2.0 * sweep.limit_total_error
        d = sweep.to_dict()
        assert d["limit_total_error"] == math.hypot(d["limit_error"], d["limit_model_error"])
        assert d["method"] == sweep.method
        if case == "sweep-3d":
            assert sweep.limit_error < 1e-4 < 1e-3 < abs(sweep.limit - target)

    def test_rows_and_dict(self, antiplane, noneq_pair):
        params = gj.InterchangeParams(h=0.1, quad=small_quad(seed=8))
        sweep = gj.limit_sweep(antiplane, noneq_pair, params, [0.1, 0.05, 0.025, 0.0125])
        rows = sweep.rows()
        assert len(rows) == 4 and rows[0][0] == 0.1
        d = sweep.to_dict()
        assert set(d) >= {"limit", "limit_error", "rate", "chi2_red", "fit_order", "n_evals"}
        per_h = gj.energy_increment(antiplane, noneq_pair, params).n_evals
        assert d["n_evals"] == sweep.n_evals == 4 * per_h




class TestSweepStream:
    """A sampled sweep, as of the criterion-1 pair in d = 3, estimates one h
    after the other, in grid order, in this process."""

    GRID = [0.1, 0.05, 0.025, 0.0125]

    @staticmethod
    def case():
        """(model, pair, params) of the criterion-1 pair in d = 3, sampled at small budgets."""
        model = gj.AntiplaneDoubleWell(gj.AntiplaneParams(**REF_PARAMS), d=3)
        pair = gj.InterfacePair.from_gradients([[1.0, 0.0, 0.0]], [[2.2, 0.0, 0.0]])
        return model, pair, gj.InterchangeParams(h=0.1, quad=small_quad(seed=5))

    def test_a_sweep_makes_no_fork(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        model, pair, params = self.case()
        assert gj.limit_sweep(model, pair, params, self.GRID).method == "rqmc"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_energy_increment_once_per_h_through_the_module_global(self, monkeypatch, cpus):
        # the contract the bench tracer reads: one call per h, in grid
        # order, whose n_evals add up to the sweep's, on one usable CPU as
        # on two
        _report_cpus(monkeypatch, cpus)
        model, pair, params = self.case()
        real = quadrature.energy_increment
        calls = []

        def energy_increment(model, pair, params_h):
            res = real(model, pair, params_h)
            calls.append((params_h.h, res.n_evals))
            return res

        monkeypatch.setattr(quadrature, "energy_increment", energy_increment)
        sweep = quadrature.limit_sweep(model, pair, params, self.GRID)
        assert [h for h, _ in calls] == self.GRID
        assert sum(n for _, n in calls) == sweep.n_evals

    def test_a_sweep_builds_its_pair_work_once(self, monkeypatch):
        # the frame, the rank-one kernel and the interface force serve every
        # h of a sweep, and each h keeps the bits of a call of its own
        built = []
        real = quadrature._PairWork.__init__

        def init(work, model, pair, params):
            built.append(params.h)
            real(work, model, pair, params)

        monkeypatch.setattr(quadrature._PairWork, "__init__", init)
        model_3d, pair_3d, nu = TestCubature.general(3)
        cases = [(*TestCubature.SWEEP_3D.values(), gj.InterchangeParams(h=0.1)),
                 (model_3d, pair_3d, gj.InterchangeParams(h=0.1, t=0.7, nu=nu)),
                 (*TestTwoWellCubature.CRITERION_1.values(), gj.InterchangeParams(h=0.1)),
                 self.case()]
        for model, pair, params in cases:
            built.clear()
            sweep = gj.limit_sweep(model, pair, params, self.GRID)
            assert len(built) == 1 and quadrature._sweep_work is None
            for h, value, error in sweep.rows():
                res = gj.energy_increment(model, pair, params.with_h(h))
                assert (res.delta_e / h, res.mc_error / h) == (value, error)
            assert len(built) == 1 + len(self.GRID)

    def test_chi2_cap_applies_to_sampled_sweeps_only(self, monkeypatch):
        # with a cap of 0 any residual is a misfit; five points leave the
        # fit a degree of freedom at every order
        monkeypatch.setattr(quadrature, "_CHI2_CAP", 0.0)
        grid = [0.1 * 2.0**-k for k in range(5)]
        with pytest.raises(NonconvergenceError, match="does not describe the data"):
            gj.limit_sweep(*self.case(), grid)
        sweep = gj.limit_sweep(**TestCubature.SWEEP_3D, params=gj.InterchangeParams(h=0.1),
                               h_grid=grid)
        assert sweep.method == "cubature" and sweep.chi2_red > 0.0

    @pytest.mark.parametrize("h", [1e-100, 1e-200])
    def test_too_small_h_is_a_quadrature_error(self, h):
        # the shell's measure 1 - (1 - sqrt(h))^d rounds to 0 below h ~ 3e-33
        model, pair, params = self.case()
        grid = [h, h / 2, h / 4, h / 8]
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.limit_sweep(model, pair, params, grid)
        with pytest.raises(gj.QuadratureError, match="too small"):
            gj.estimate_region_measures(pair, params.with_h(h))
