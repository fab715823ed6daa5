import numpy as np
import pytest

import gradjump as gj
from gradjump.energies import fd_gradient

from conftest import REF_PARAMS


class TestAntiplaneValues:
    def test_hand_values(self, antiplane):
        assert antiplane.value([[1.0, 0.0]]) == pytest.approx(1.0)
        assert antiplane.value([[2.0, 0.0]]) == pytest.approx(3.0)
        assert antiplane.value([[2.2, 0.0]]) == pytest.approx(3.42)

    def test_min_over_branches(self, antiplane, rng):
        for _ in range(50):
            f = rng.normal(size=(1, 2)) * 2.0
            assert antiplane.value(f) == pytest.approx(
                min(antiplane.branch_values(f)), abs=1e-14
            )

    def test_stress_by_phase(self, antiplane):
        np.testing.assert_allclose(antiplane.gradient([[1.0, 0.0]]), [[2.0, 0.0]])
        np.testing.assert_allclose(antiplane.gradient([[2.2, 0.0]]), [[2.2, 0.0]])

    def test_branch_tie_refuses(self, antiplane):
        tie = np.sqrt(2.0)  # branch values cross where mu+/2 r^2 = mu-/2 r^2 + 1
        with pytest.raises(gj.NonsmoothPointError) as err:
            antiplane.gradient([[tie, 0.0]])
        assert len(err.value.branch_gradients) == 2

    def test_params_validation(self):
        with pytest.raises(ValueError):
            gj.AntiplaneParams(mu_plus=-1.0, mu_minus=1.0, w_plus=0.0, w_minus=1.0)
        with pytest.raises(ValueError):
            gj.AntiplaneParams(mu_plus=1.0, mu_minus=1.0, w_plus=0.0, w_minus=1.0)
        bad = gj.AntiplaneParams(mu_plus=2.0, mu_minus=1.0, w_plus=1.0, w_minus=0.0)
        with pytest.raises(gj.EmptyBinodalError):
            bad.require_binodal()


class TestQuadratic:
    def test_zero(self, quadratic):
        assert quadratic.value(np.zeros((1, 2))) == 0.0

    def test_stress_is_gradient(self):
        model = gj.QuadraticEnergy(1, 2, mu=1.0)
        np.testing.assert_allclose(model.gradient([[3.0, 4.0]]), [[3.0, 4.0]])

    def test_excess_nonnegative(self, quadratic, rng):
        for _ in range(100):
            f = rng.normal(size=(1, 2))
            h = rng.normal(size=(1, 2))
            assert quadratic.excess(f, h) >= -1e-12

    def test_excess_half_square(self, quadratic, rng):
        f = rng.normal(size=(1, 2))
        assert quadratic.excess(f, [[1.0, 0.0]]) == pytest.approx(0.5)

    @pytest.mark.parametrize("m, d, mu", [(1, 2, 1.3), (2, 3, 0.7)])
    def test_one_branch_is_bitwise_the_quadratic(self, rng, m, d, mu):
        # as the one-branch (mu, 0) minimum, value and stress are still
        # 0.5 mu |F|^2 and mu F bit for bit: halving is exact
        model = gj.QuadraticEnergy(m, d, mu=mu)
        fs = rng.normal(size=(200, m, d)) * np.exp(rng.uniform(-20, 20, size=(200, 1, 1)))
        assert np.array_equal(model.value_many(fs), 0.5 * mu * np.sum(fs * fs, axis=(-2, -1)))
        for f in fs[:50]:
            assert model.value(f) == 0.5 * mu * float(np.sum(f * f))
            assert np.array_equal(model.gradient(f), mu * f)
        with pytest.raises(ValueError, match="mu must be positive"):
            gj.QuadraticEnergy(m, d, mu=0.0)


class TestExcess:
    def test_zero_increment(self, antiplane, quadratic):
        for model, f in [(antiplane, [[0.7, 0.2]]), (quadratic, [[1.0, -2.0]])]:
            assert model.excess(f, np.zeros((1, 2))) == pytest.approx(0.0, abs=1e-15)

    def test_antiplane_cross_well(self, antiplane):
        # crossing from the bottom of one well to the other costs nothing extra
        assert antiplane.excess([[1.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(0.0)

    def test_single_branch_increment(self, antiplane):
        # F and F + H both lie on the mu = 2 branch: the excess is mu/2 |H|^2
        val = antiplane.excess([[0.5, 0.0]], [[0.1, 0.0]])
        assert val == pytest.approx(0.5 * 2.0 * 0.1**2)


class TestIsotropic:
    def setup_method(self):
        self.params = gj.IsotropicParams(d=2, mu=1.0, f_coeffs=(1, 0, -2, 0, 1))
        self.model = gj.IsotropicThetaEnergy(self.params)

    def test_hand_value(self):
        # theta = 0, dev sym F = [[1,1],[1,-1]], f(0) = 1
        f = np.array([[1.0, 2.0], [0.0, -1.0]])
        assert self.model.value(f) == pytest.approx(1.0 + 4.0)

    def test_gradient_formula(self, rng):
        for _ in range(20):
            f = rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                self.model.gradient(f), fd_gradient(self.model.value, f, 1e-5),
                atol=1e-8,
            )

    def test_fd_error_second_order(self, rng):
        f = rng.normal(size=(2, 2))
        exact = self.model.gradient(f)
        e1 = np.linalg.norm(fd_gradient(self.model.value, f, 2e-3) - exact)
        e2 = np.linalg.norm(fd_gradient(self.model.value, f, 1e-3) - exact)
        assert e2 <= 0.4 * e1 + 1e-13


class TestGradientChecks:
    def test_analytic_matches_fd_everywhere_smooth(self, antiplane, quadratic, rng):
        models = [antiplane, quadratic, gj.QuadraticEnergy(2, 3, mu=0.7)]
        for model in models:
            checked = 0
            while checked < 100:
                f = rng.normal(size=(model.m, model.d))
                try:
                    g = model.gradient(f)
                except gj.NonsmoothPointError:
                    continue
                fd = fd_gradient(model.value, f, 1e-5)
                np.testing.assert_allclose(g, fd, atol=1e-7 * (1 + np.abs(g).max()))
                checked += 1


class TestValueMany:
    def test_matches_scalar_loop(self, antiplane, quadratic, rng):
        iso = gj.IsotropicThetaEnergy(gj.IsotropicParams(2, 0.5, (0, 1, 3)))
        for model in (antiplane, quadratic, iso):
            fs = rng.normal(size=(40, model.m, model.d))
            np.testing.assert_allclose(
                model.value_many(fs), [model.value(f) for f in fs], atol=1e-13
            )

    @pytest.mark.parametrize(
        "branches",
        [[(2.0, 0.0)], [(2.0, 0.0), (1.0, 1.0)], [(3.0, -0.5), (2.0, 0.0), (1.0, 1.0)]],
    )
    def test_branch_fold_matches_min_formula(self, rng, branches):
        model = gj.MinQuadraticsEnergy(1, 2, branches)
        fs = rng.normal(size=(2000, 1, 2)) * 2.0
        # |F|^2 = 2 ties the branches (2, 0) and (1, 1) exactly: both give 2
        fs[:100] = [[1.0, 1.0]]
        fs[100:200] = [[-1.0, 1.0]]
        s = np.sum(fs * fs, axis=(-2, -1))
        ref = np.min(0.5 * np.multiply.outer(s, model._mus) + model._ws, axis=-1)
        assert np.array_equal(model.value_many(fs), ref)
        assert model.value_many(fs[0]) == ref[0]


#: kinds with a closed-form rank-one kernel, each checked against the stack form
CLOSED_FORMS = {
    "quadratic-1x2": lambda: gj.QuadraticEnergy(1, 2, mu=1.3),
    "quadratic-2x3": lambda: gj.QuadraticEnergy(2, 3, mu=0.7),
    "min_of_quadratics-1x2": lambda: gj.MinQuadraticsEnergy(1, 2, [(2.0, 0.0), (1.0, 1.0)]),
    "min_of_quadratics-2x3": lambda: gj.MinQuadraticsEnergy(
        2, 3, [(3.0, -0.5), (2.0, 0.0), (1.0, 1.0)]
    ),
    "isotropic-2": lambda: gj.IsotropicThetaEnergy(gj.IsotropicParams(2, 1.0, (1, 0, -2, 0, 1))),
    "isotropic-3": lambda: gj.IsotropicThetaEnergy(
        gj.IsotropicParams(3, 0.8, (0.5, -1.0, -2.0, 0.3, 1.0))
    ),
}


class TestRankOneExcess:
    """Closed-form kernels against the base-class (N, m, d) stack form.

    The arithmetic differs, so they agree to a tolerance fixed from float64
    eps; where the increment vanishes both are exactly zero.  Bases of
    moderate size keep the stack form's own cancellation, about eps |W(F)|,
    well inside that tolerance.
    """

    @staticmethod
    def kernels(model, bases):
        return model.rank_one_excess(bases), gj.EnergyModel.rank_one_excess(model, bases)

    @pytest.mark.parametrize("kind", CLOSED_FORMS)
    def test_closed_form_matches_stack_form(self, rng, kind):
        model = CLOSED_FORMS[kind]()
        assert type(model).rank_one_excess is not gj.EnergyModel.rank_one_excess
        bases = 0.5 * rng.normal(size=(3, model.m, model.d))
        kernel, stack = self.kernels(model, bases)
        for _ in range(4):
            a = rng.normal(size=model.m)
            g = rng.normal(size=(500, model.d))
            s = rng.uniform(-1.5, 1.5)
            index = rng.integers(0, 3, size=500)
            np.testing.assert_allclose(
                kernel(a, g, s, index), stack(a, g, s, index), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(kernel(a, g, s), stack(a, g, s), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", CLOSED_FORMS)
    def test_exact_zero_where_g_vanishes(self, rng, kind):
        model = CLOSED_FORMS[kind]()
        bases = rng.normal(size=(2, model.m, model.d))
        kernel, _ = self.kernels(model, bases)
        g = np.zeros((60, model.d))
        g[::2, 0] = -0.0
        g[::3, -1] = -0.0
        index = rng.integers(0, 2, size=60)
        for s in (0.7, -1.3):
            a = rng.normal(size=model.m)
            assert np.all(kernel(a, g, s, index) == 0.0)
            assert np.all(kernel(a, g, s) == 0.0)

    def test_branch_switch_is_seen(self):
        # from the stiff well at |F| = 1 a step to |F| = 3 ends on the soft well
        model = gj.MinQuadraticsEnergy(1, 2, [(2.0, 0.0), (1.0, 1.0)])
        base = np.array([[[1.0, 0.0]]])
        kernel = model.rank_one_excess(base)
        val = kernel([1.0], np.array([[2.0, 0.0]]), 1.0)
        assert val[0] == pytest.approx(model.excess(base[0], [[2.0, 0.0]]), abs=1e-14)
        assert val[0] == pytest.approx(5.5 - 1.0 - 4.0)


class TestBoundedBelow:
    def test_values_finite_and_above_well_floor(self, antiplane, rng):
        fs = rng.normal(size=(500, 1, 2)) * 3.0
        vals = antiplane.value_many(fs)
        assert np.all(np.isfinite(vals))
        assert np.min(vals) >= min(antiplane._ws) - 1e-12


class TestModelFromConfig:
    def test_antiplane(self):
        model = gj.model_from_config(
            {"kind": "antiplane_double_well", "m": 1, "d": 2, "params": REF_PARAMS}
        )
        assert isinstance(model, gj.AntiplaneDoubleWell)
        assert model.value([[2.0, 0.0]]) == pytest.approx(3.0)

    def test_each_kind(self):
        configs = [
            {"kind": "quadratic", "m": 1, "d": 2, "params": {"mu": 2.0}},
            {
                "kind": "min_of_quadratics",
                "m": 1,
                "d": 2,
                "params": {"branches": [[1.0, 0.0], [2.0, -1.0]]},
            },
            {
                "kind": "isotropic_theta_model",
                "m": 2,
                "d": 2,
                "params": {"mu": 1.0, "f_coeffs": [1, 0, -2, 0, 1]},
            },
        ]
        for cfg in configs:
            model = gj.model_from_config(cfg)
            assert model.kind == cfg["kind"]

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "quadratic", "bogus": 1},
            {"kind": "quadratic", "params": {"nope": 2.0}},
            {"kind": "does_not_exist"},
            {"m": 1, "d": 2},
            {"kind": "quadratic", "gradient_mode": "numeric"},
            {"kind": "antiplane_double_well", "params": {"mu_plus": 2.0}},
        ],
    )
    def test_rejects_bad_configs(self, cfg):
        with pytest.raises(gj.ConfigError):
            gj.model_from_config(cfg)
