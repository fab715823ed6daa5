import functools
import itertools
import math

import numpy as np
import pytest

import gradjump as gj
from gradjump.energies import fd_gradient
from gradjump.tensors import row_sq_norms

from conftest import REF_PARAMS, ValueOnlyQuadratic


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

    def test_taylor_builds_the_derivatives_once(self, rng):
        poly = np.polynomial.polynomial
        params = gj.IsotropicParams(3, 0.8, (0.5, -1.0, -2.0, 0.3, 1.0))
        thetas = rng.normal(size=5)
        # c_j = f^(j)(theta) / j!, with each derivative formed at every call
        expected = [
            [float(poly.polyval(th, poly.polyder(params.f_coeffs, j))) / math.factorial(j)
             for j in range(5)]
            for th in thetas
        ]
        assert "_derivatives" not in vars(params)
        built = []
        for th, coeffs in zip(thetas, expected):
            assert params.taylor(th).tolist() == coeffs
            built.append(vars(params)["_derivatives"])
        # built at the first call, and the same tuple read at every later one
        assert all(b is built[0] for b in built) and len(built[0]) == 5

    @pytest.mark.parametrize("degree", range(9))
    def test_derivatives_equal_polyder_bit_for_bit(self, rng, degree):
        poly = np.polynomial.polynomial
        for _ in range(20):
            coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 4, size=degree + 1)
            zeros = rng.random(degree + 1) < 0.2
            coeffs[zeros] = np.copysign(0.0, coeffs[zeros])  # zeros of either sign
            params = gj.IsotropicParams(3, 0.8, tuple(coeffs))
            derivatives = params._derivatives
            assert len(derivatives) == max(len(params.f_coeffs), 2)
            for j, dcoef in enumerate(derivatives):
                reference = poly.polyder(params.f_coeffs, j)
                assert (dcoef.dtype, dcoef.shape) == (reference.dtype, reference.shape)
                assert dcoef.tobytes() == reference.tobytes(), (j, params.f_coeffs)

    def test_gradient_reads_the_cached_derivative(self, monkeypatch, rng):
        poly = np.polynomial.polynomial
        params = gj.IsotropicParams(3, 0.8, (0.5, -1.0, -2.0, 0.3, 1.0))
        model = gj.IsotropicThetaEnergy(params)
        fs = rng.normal(size=(4, 3, 3))
        # f'(theta) as it was formed at every call, bit for bit
        expected = [
            float(poly.polyval(np.trace(f), poly.polyder(params.f_coeffs))) * np.eye(3)
            + 2.0 * params.mu * (0.5 * (f + f.T) - np.trace(f) / 3.0 * np.eye(3))
            for f in fs
        ]
        model.gradient(fs[0])  # builds the derivatives
        calls = []
        real = poly.polyder
        monkeypatch.setattr(poly, "polyder", lambda *a: calls.append(a) or real(*a))
        for f, grad in zip(fs, expected):
            assert np.array_equal(model.gradient(f), grad)
        assert calls == []
        # a constant f has f' = 0 too
        assert gj.IsotropicParams(2, 1.0, (3.0,)).f_prime(0.7) == 0.0

    def test_trailing_zero_coefficients_are_dropped(self):
        coeffs = (1.0, 0.0, -2.0, 0.0, 1.0)
        assert gj.IsotropicParams(2, 1.0, coeffs + (0.0,) * 180).f_coeffs == coeffs
        assert gj.IsotropicParams(2, 1.0, (0.0, -0.0)).f_coeffs == (0.0,)

    def test_taylor_coefficients_up_to_degree_170(self):
        # 170! is the largest factorial a float holds
        taylor = gj.IsotropicParams(2, 1.0, [0.0] * 170 + [1.0]).taylor(1.0)
        assert taylor[-1] == pytest.approx(1.0, rel=1e-12) and np.all(np.isfinite(taylor))
        with pytest.raises(ValueError, match="f_coeffs"):
            gj.IsotropicParams(2, 1.0, [0.0] * 171 + [1.0])


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
    eps; where the increment vanishes both are exactly zero.  Gradients of
    moderate size keep the stack form's own cancellation, about eps |W(F)|,
    well inside that tolerance.  Each kernel returns the + side, F+ at
    step +t, and the - side, F- at -t.
    """

    #: the closed forms, an isotropic model whose f has no Taylor tail (f
    #: linear, so the kernel is the mu t^2 terms alone) and the stack form
    KERNEL_KINDS = {
        **CLOSED_FORMS,
        "isotropic-linear-f": lambda: gj.IsotropicThetaEnergy(
            gj.IsotropicParams(2, 0.6, (0.5, -1.0))
        ),
        "value-only-1x2": lambda: ValueOnlyQuadratic(1, 2),
    }

    #: every kernel as (make model, kernel of model): the kinds above, the
    #: base-class stack form on a closed-form model and on a subclass that
    #: defines only value() with m = d = 2
    EVERY_KERNEL = {
        **{
            kind: (make, lambda model: model.rank_one_excess)
            for kind, make in KERNEL_KINDS.items()
        },
        "stack-form-isotropic-3": (
            CLOSED_FORMS["isotropic-3"],
            lambda model: functools.partial(gj.EnergyModel.rank_one_excess, model),
        ),
        "value-only-2x2": (lambda: ValueOnlyQuadratic(2, 2), lambda model: model.rank_one_excess),
    }

    @staticmethod
    def three_wells(rng, model):
        """Three gradients at |F|^2 of 0.1, 1.5 and 4, which puts them on
        different wells of the min-of-quadratics models."""
        dirs = rng.normal(size=(3, model.m, model.d))
        return dirs * np.sqrt([0.1, 1.5, 4.0] / np.sum(dirs**2, axis=(1, 2)))[:, None, None]

    @staticmethod
    def block(rng, model, n):
        """n vectors g with steps up to |g| ~ 6, which cross the wells of
        ``three_wells``; the first tenth are zero, some of them signed."""
        g = rng.normal(size=(n, model.d)) * rng.uniform(0.0, 3.0, size=(n, 1))
        zero = n // 10
        g[:zero] = 0.0
        g[:zero:2, 0] = -0.0
        g[:zero:3, -1] = -0.0
        return g, zero

    @staticmethod
    def assert_same_bits(x, y):
        """Equal bit for bit, so -0.0 and 0.0 differ."""
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64))

    @pytest.mark.parametrize("kind", CLOSED_FORMS)
    def test_closed_form_matches_stack_form(self, rng, kind):
        model = CLOSED_FORMS[kind]()
        assert type(model).rank_one_excess is not gj.EnergyModel.rank_one_excess
        for _ in range(4):
            fp, fm = 0.5 * rng.normal(size=(2, model.m, model.d))
            a = rng.normal(size=model.m)
            g = rng.normal(size=(500, model.d))
            t = rng.uniform(-1.5, 1.5)
            kernel = model.rank_one_excess(fp, fm, a, t)
            stack = gj.EnergyModel.rank_one_excess(model, fp, fm, a, t)
            for got, want in zip(kernel(g), stack(g), strict=True):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_exact_zero_where_g_vanishes(self, rng, kind):
        model = self.KERNEL_KINDS[kind]()
        g = np.zeros((60, model.d))
        g[::2, 0] = -0.0
        g[::3, -1] = -0.0
        for t in (1.0, 0.7, -1.3):
            fp, fm = rng.normal(size=(2, model.m, model.d))
            plus, minus = model.rank_one_excess(fp, fm, rng.normal(size=model.m), t)(g)
            assert not np.shares_memory(plus, minus)
            assert np.all(plus == 0.0) and np.all(minus == 0.0)

    @staticmethod
    def every_term_kernel(model, fp, fm, a, t):
        """The closed-form kernel with every term written out, one fresh
        array per operation, as ``excess(g) -> (plus, minus)``.

        Min-of-quadratics: no zero offset skipped; every branch's value
        starts from its offset e_b and adds mu_b quad, then its linear term
        where that is nonzero on either side.  Isotropic: each side forms
        every term itself.
        """
        bases, steps = np.array([fp, fm], dtype=float), (t, -t)
        if isinstance(model, gj.IsotropicThetaEnergy):
            mu, d = model.params.mu, model.d
            tails = [model.params.taylor(np.trace(f))[2:] for f in bases]

            def isotropic(g):
                p = g[:, 0] * a[0]
                for c in range(1, d):
                    p = p + g[:, c] * a[c]
                sides = []
                for tail, s in zip(tails, steps):
                    x = s * p
                    out = (0.5 * mu * s * s * float(a @ a)) * row_sq_norms(g)
                    out = out + (mu * s * s * (0.5 - 1.0 / d)) * (p * p)
                    if tail.size:
                        poly = tail[-1]
                        for j in range(tail.size - 2, -1, -1):
                            poly = poly * x + tail[j]
                        out = out + (x * x) * poly
                    sides.append(out)
                return tuple(sides)

            return isotropic
        mus = np.array([mu for mu, _ in model.branches])
        bvals = np.stack([model.branch_values(f) for f in bases])
        offsets = bvals - bvals.min(axis=1, keepdims=True)
        stresses = np.stack([model.gradient(f) for f in bases])
        slopes = mus[None, :, None, None] * bases[:, None] - stresses[:, None]
        lin = np.einsum("kbmd,m->kbd", slopes, a)

        def excess(g):
            quad = (0.5 * t * t * float(a @ a)) * row_sq_norms(g)
            sides = []
            for k, s in enumerate(steps):
                out = None
                for b, mu in enumerate(mus):
                    val = offsets[k, b] + mu * quad
                    if np.any(lin[:, b]):
                        dot = g[:, 0] * lin[k, b, 0]
                        for c in range(1, g.shape[1]):
                            dot += g[:, c] * lin[k, b, c]
                        val += s * dot
                    out = val if out is None else np.minimum(out, val)
                sides.append(out)
            return tuple(sides)

        return excess

    def assert_every_term_bits(self, model, fp, fm, a, t, g):
        got = model.rank_one_excess(fp, fm, a, t)(g)
        assert not np.shares_memory(*got)
        for side, want in zip(got, self.every_term_kernel(model, fp, fm, a, t)(g), strict=True):
            self.assert_same_bits(side, want)

    @pytest.mark.parametrize("kind", [k for k in CLOSED_FORMS if not k.startswith("isotropic")])
    @pytest.mark.parametrize("wells", ["mixed", "shared", "on-axis"])
    def test_zero_term_skips_are_bitwise(self, rng, kind, wells):
        model = CLOSED_FORMS[kind]()
        # |F|^2 of 0.1, 1.5 and 4 puts the gradients of the three-branch
        # model on three different wells; "shared" keeps every gradient on
        # branch 0, so that branch's offsets are all zero; "on-axis" puts
        # every gradient on the first column, so the other columns of the
        # linear terms are zero, as on the criterion-1 pair
        sq = [0.1, 0.2, 0.3] if wells == "shared" else [0.1, 1.5, 4.0]
        dirs = rng.normal(size=(3, model.m, model.d))
        if wells == "on-axis":
            dirs[:, :, 1:] = 0.0
        fs = dirs * np.sqrt(sq / np.sum(dirs**2, axis=(1, 2)))[:, None, None]
        for t in (1.0, *rng.uniform(-1.5, 1.5, size=3)):
            a = rng.normal(size=model.m)
            # steps up to |g| ~ 6 cross from every well into the others
            g = rng.normal(size=(400, model.d)) * rng.uniform(0.0, 3.0, size=(400, 1))
            g[:20] = 0.0
            # every pair of gradients, one gradient on both sides among them
            for i, j in itertools.product(range(3), repeat=2):
                self.assert_every_term_bits(model, fs[i], fs[j], a, t, g)

    @pytest.mark.parametrize("t", [1.0, 0.5])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n_coeffs", range(1, 7))
    def test_isotropic_keeps_every_term_bits(self, rng, n_coeffs, d, t):
        # f with n_coeffs coefficients: no Taylor tail below 3, up to four
        # tail terms at 6
        model = gj.IsotropicThetaEnergy(gj.IsotropicParams(d, 0.7, rng.normal(size=n_coeffs)))
        n = 300
        g = rng.normal(size=(n, d)) * rng.uniform(0.0, 3.0, size=(n, 1))
        g[:20] = 0.0
        g[:20:2, 0] = -0.0
        for _ in range(5):
            fp, fm = 0.4 * rng.normal(size=(2, d, d))
            self.assert_every_term_bits(model, fp, fm, rng.normal(size=d), t, g)

    @pytest.mark.parametrize("kind", EVERY_KERNEL)
    def test_each_side_reads_its_own_gradient(self, rng, kind):
        # the + side depends on F+ alone and the - side on F- alone: the -
        # side at t is the + side of F- at -t, bit for bit, whatever F+ is
        make, kernel_of = self.EVERY_KERNEL[kind]
        model = make()
        kernel, fs = kernel_of(model), self.three_wells(rng, model)
        for t in (0.8, -1.3, rng.uniform(-1.5, 1.5)):
            a = rng.normal(size=model.m)
            g, zero = self.block(rng, model, 300)
            # every pair of gradients, one gradient on both sides among them
            for i, j in itertools.product(range(3), repeat=2):
                plus, minus = kernel(fs[i], fs[j], a, t)(g)
                assert not np.shares_memory(plus, minus)
                self.assert_same_bits(plus, kernel(fs[i], fs[i], a, t)(g)[0])
                self.assert_same_bits(minus, kernel(fs[j], fs[j], a, -t)(g)[0])
                assert np.all(plus[:zero] == 0.0) and np.all(minus[:zero] == 0.0)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", EVERY_KERNEL)
    def test_one_kernel_serves_many_blocks(self, rng, kind, layout):
        # energy_increment builds one kernel and calls it once per block of
        # rows: each call on a block of either layout gives the bits of a
        # fresh kernel on a row-major copy, and every result keeps them
        # while later calls run
        make, kernel_of = self.EVERY_KERNEL[kind]
        model = make()
        fs = self.three_wells(rng, model)
        for t in (1.0, -0.7, rng.uniform(-1.5, 1.5)):
            for i, j in itertools.product(range(3), repeat=2):
                a = rng.normal(size=model.m)
                kernel = kernel_of(model)(fs[i], fs[j], a, t)
                returned = []
                for n in (1, 200, 200):
                    g, _ = self.block(rng, model, n)
                    got = kernel(np.asarray(g, order=layout))
                    fresh = kernel_of(model)(fs[i].copy(), fs[j].copy(), a.copy(), t)
                    want = [side.copy() for side in fresh(g.copy())]
                    returned.extend(zip(got, want, strict=True))
                for got, want in returned:
                    self.assert_same_bits(got, want)

    def test_branch_switch_is_seen(self):
        # from the stiff well at |F| = 1 a step to |F| = 3 ends on the soft
        # well; the step back to |F| = 1 stays on the stiff one
        model = gj.MinQuadraticsEnergy(1, 2, [(2.0, 0.0), (1.0, 1.0)])
        f = np.array([[1.0, 0.0]])
        plus, minus = model.rank_one_excess(f, f, [1.0], 1.0)(np.array([[2.0, 0.0]]))
        assert plus[0] == pytest.approx(model.excess(f, [[2.0, 0.0]]), abs=1e-14)
        assert plus[0] == pytest.approx(5.5 - 1.0 - 4.0)
        assert minus[0] == pytest.approx(model.excess(f, [[-2.0, 0.0]]), abs=1e-14)
        assert minus[0] == pytest.approx(1.0 - 1.0 + 4.0)


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
