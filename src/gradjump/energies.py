"""Energy densities W(F) on m x d gradients with values and stress gradients.

The built-in kinds are a minimum of isotropic quadratic branches
(multi-well), the single isotropic quadratic as its one-branch case, and an
isotropic model f(tr F) + mu |dev sym F|^2.  Each has one closed-form
stress ``gradient``; central differences serve only subclasses that define
``value()`` alone.

The estimator and the Weierstrass scan only ever evaluate W along rank-one
lines F + s a (x) G.  ``EnergyModel.rank_one_excess`` serves both: its
base-class body forms the (N, m, d) stacks and calls ``value_many`` (the
path for user subclasses, and the test reference).  The min-of-quadratics
and isotropic kinds override it with closed forms in p = a.G, (F^T a).G and
|G|^2, since

    |F + s a (x) G|^2 = |F|^2 + 2 s (F^T a).G + s^2 |a|^2 |G|^2,
    tr(a (x) G) = a.G,
    |dev sym(a (x) G)|^2 = |a|^2 |G|^2 / 2 + (a.G)^2 (1/2 - 1/d).

Each closed form is exactly 0 where G = 0, as the stack form is.  The
estimator asks for both points of an antithetic pair, steps +s and -s, in
one call (the kernel's ``mirror`` index), so the closed forms compute the
parts that do not depend on the sign of s once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyBinodalError, NonsmoothPointError
from .tensors import as_matrix, frobenius, row_sq_norms

#: default central-difference step
FD_STEP = 1e-5

#: relative gap below which two branch values count as tied
TIE_RTOL = 1e-10


def fd_gradient(value_fn, f: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    f = as_matrix(f)
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        bump = np.zeros_like(f)
        bump[idx] = step
        grad[idx] = (value_fn(f + bump) - value_fn(f - bump)) / (2.0 * step)
    return grad


def _per_row(table: np.ndarray, index):
    """Entries of a per-base table for each row: table[index], or the only
    entry when index is None (a single base)."""
    return table[0] if index is None else table.take(index, axis=0)


def _dot_rows(g: np.ndarray, vecs: np.ndarray, index) -> np.ndarray:
    """Row dot products g_i . vecs[index_i] for a (K, d) table of vectors.

    Column by column, so each row's value does not depend on the rows
    evaluated with it.
    """
    out = g[:, 0] * _per_row(vecs[:, 0], index)
    for k in range(1, g.shape[1]):
        out += g[:, k] * _per_row(vecs[:, k], index)
    return out


class EnergyModel:
    """Base class: subclasses set kind/m/d and implement value()."""

    kind = "abstract"

    def __init__(self, m: int, d: int):
        if m < 1 or d < 1:
            raise DimensionError("m and d must be at least 1")
        self.m = int(m)
        self.d = int(d)

    # -- values ------------------------------------------------------------

    def value(self, f) -> float:
        raise NotImplementedError

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        """Vectorized value on a (..., m, d) stack; subclasses override for speed."""
        fs = np.asarray(fs, dtype=float)
        lead = fs.shape[:-2]
        flat = fs.reshape(-1, *fs.shape[-2:])
        return np.array([self.value(fi) for fi in flat]).reshape(lead)

    # -- gradients -----------------------------------------------------------

    def gradient(self, f) -> np.ndarray:
        """First Piola stress W_F(F) by central differences of ``value``;
        kinds with a closed form override it."""
        return fd_gradient(self.value, self._check(f))

    def excess(self, f, h) -> float:
        """Pointwise excess W(F+H) - W(F) - (W_F(F), H)."""
        f = self._check(f)
        h = self._check(h)
        return self.value(f + h) - self.value(f) - frobenius(self.gradient(f), h)

    def rank_one_excess(self, bases):
        """Kernel for the excess of W along rank-one lines from a few bases.

        ``bases`` is a (K, m, d) stack of gradients F_k, with stresses
        P_k = ``gradient(F_k)``.  Returns ``excess(a, g, s, index=None,
        mirror=None)``, which for N world vectors g_i (an (N, d) array) gives

            W(F_k + s a (x) g_i) - W(F_k) - s (P_k, a (x) g_i),  k = index[i],

        with every row on base 0 when index is None.  Given a second index
        array ``mirror`` it returns the pair (those values, the same at -s
        on the bases mirror[i]): both points of an antithetic pair in one
        call, each bit for bit what its one-sided call returns.  The
        closed forms share the work that does not depend on the sign of s
        between the two sides.  This body forms the (N, m, d) stacks and
        calls ``value_many``, one side at a time; kinds with a closed form
        override it.
        """
        bases = np.asarray(bases, dtype=float)
        wbars = np.array([self.value(f) for f in bases])
        stresses = np.stack([self.gradient(f) for f in bases])

        def excess(a, g, s, index=None, mirror=None):
            if mirror is not None:
                return excess(a, g, s, index), excess(a, g, -s, mirror)
            a = np.asarray(a, dtype=float)
            step = (s * a)[None, :, None] * g[:, None, :]
            vals = self.value_many(_per_row(bases, index) + step)
            lin = s * _dot_rows(g, np.einsum("kmd,m->kd", stresses, a), index)
            return vals - _per_row(wbars, index) - lin

        return excess

    def _check(self, f) -> np.ndarray:
        return as_matrix(f, self.m, self.d)


class MinQuadraticsEnergy(EnergyModel):
    """W(F) = min_k ( mu_k/2 |F|^2 + w_k ), the multi-well prototype.

    The energy is C^1 away from branch ties; ``gradient`` refuses to
    differentiate on the tie set and raises NonsmoothPointError carrying
    every competing branch gradient.
    """

    kind = "min_of_quadratics"

    def __init__(self, m: int, d: int, branches):
        super().__init__(m, d)
        br = [(float(mu), float(w)) for mu, w in branches]
        if len(br) < 1:
            raise ValueError("need at least one branch")
        if any(mu <= 0.0 for mu, _ in br):
            raise ValueError("branch moduli must be positive")
        self.branches = tuple(br)
        self._mus = np.array([mu for mu, _ in br])
        self._ws = np.array([w for _, w in br])

    def branch_values(self, f) -> np.ndarray:
        f = self._check(f)
        s = float(np.sum(f * f))
        return 0.5 * self._mus * s + self._ws

    def value(self, f) -> float:
        return float(np.min(self.branch_values(f)))

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        s = np.sum(fs * fs, axis=(-2, -1))
        # fold np.minimum over the branches: np.min over a short trailing axis is slow
        vals = 0.5 * (s * self._mus[0]) + self._ws[0]
        for mu, w in zip(self._mus[1:], self._ws[1:]):
            vals = np.minimum(vals, 0.5 * (s * mu) + w)
        return vals

    def rank_one_excess(self, bases):
        """Closed form over the branches b, with e_b = W_b(F) - W(F) >= 0:

            min_b ( e_b + s ((mu_b F - P)^T a).g + mu_b s^2 |a|^2 |g|^2 / 2 ).

        On a base's active branch e_b = 0 and P = mu_b F, so the linear term
        vanishes bit for bit, g = 0 gives exactly 0 and no cancellation is
        left in the increment.  A branch whose offset or linear term
        vanishes for every base skips that term (mu_b s^2 ... >= +0, so
        adding the zero offset would change no bit).  The two sides of a
        mirrored call share (F^T a) per branch and the s^2 term, whose
        bits are the same at -s.

        Given an index, the kernel evaluates every base on every row with
        scalar coefficients and then picks each row's base, which is
        cheaper than gathering per-row copies of the (K, branches) tables.
        The two sides also share each branch's s ((mu_b F - P)^T a).g: the
        -s side subtracts it, and (-s) x == -(s x) exactly.
        """
        bases = np.asarray(bases, dtype=float)
        bvals = np.stack([self.branch_values(f) for f in bases])  # (K, branches)
        offsets = bvals - bvals.min(axis=1, keepdims=True)
        # (mu_b, e_b per base, or None where e_b = 0 for every base)
        terms = [(float(mu), col if col.any() else None) for mu, col in zip(self._mus, offsets.T)]
        stresses = np.stack([self.gradient(f) for f in bases])
        slopes = self._mus[None, :, None, None] * bases[:, None] - stresses[:, None]

        def side(g, s, lin, live, quad):
            """The minimum over the branches at step s on base 0 (the scan)."""
            out = None
            for b, (mu, offset) in enumerate(terms):
                val = mu * quad
                if offset is not None:
                    val += offset[0]
                if live[b]:
                    val += s * _dot_rows(g, lin[:, b], None)
                out = val if out is None else np.minimum(out, val, out=out)
            return out

        def per_base(g, s, mirrored, lin, quad):
            """Per base, the minimum over the branches on every row at step
            s, and at -s when mirrored: (values at s, values at -s or Nones).

            Each base skips the offsets and linear terms that are zero for
            it, as the scan skips those zero for every base: every branch
            value starts from mu_b quad >= +0, so adding +-0 changes no bit.
            """
            cols = g.T.copy()  # contiguous columns, read by several branches
            mqs = [mu * quad for mu, _ in terms]
            plus, minus = [], []
            for k in range(len(bases)):
                at_plus = at_minus = None
                for b, (_, offset) in enumerate(terms):
                    val = mqs[b]
                    if offset is not None and offset[k] != 0.0:
                        val = val + offset[k]
                    val_plus, val_minus = val, (val if mirrored else None)
                    if lin[k, b].any():
                        step = cols[0] * lin[k, b, 0]
                        for c in range(1, len(cols)):
                            step += cols[c] * lin[k, b, c]
                        step *= s
                        val_plus = val + step
                        val_minus = val - step if mirrored else None
                    if at_plus is None:
                        at_plus, at_minus = val_plus, val_minus
                    else:
                        # out of place: a value may be shared by bases and sides
                        at_plus = np.minimum(at_plus, val_plus)
                        if mirrored:
                            at_minus = np.minimum(at_minus, val_minus)
                plus.append(at_plus)
                minus.append(at_minus)
            return plus, minus

        def pick(per_base_values, index):
            if index is None:
                return per_base_values[0]
            if len(per_base_values) == 2:
                return np.where(index, per_base_values[1], per_base_values[0])
            return np.choose(index, per_base_values)

        def excess(a, g, s, index=None, mirror=None):
            a = np.asarray(a, dtype=float)
            lin = np.einsum("kbmd,m->kbd", slopes, a)
            live = lin.any(axis=(0, 2))
            quad = (0.5 * s * s * float(a @ a)) * row_sq_norms(g)
            if index is None and mirror is None:
                return side(g, s, lin, live, quad)
            plus, minus = per_base(g, s, mirror is not None, lin, quad)
            if mirror is None:
                return pick(plus, index)
            return pick(plus, index), pick(minus, mirror)

        return excess

    def gradient(self, f) -> np.ndarray:
        f = self._check(f)
        vals = self.branch_values(f)
        order = np.argsort(vals)
        best = order[0]
        if len(vals) > 1:
            tie_tol = TIE_RTOL * (1.0 + abs(vals[best]))
            if vals[order[1]] - vals[best] < tie_tol:
                tied = [k for k in range(len(vals)) if vals[k] - vals[best] < tie_tol]
                raise NonsmoothPointError(
                    f"branch tie at |F|^2 = {float(np.sum(f * f)):.6g}: "
                    f"branches {tied} are within {tie_tol:.1e}",
                    branch_values=vals[tied],
                    branch_gradients=[self._mus[k] * f for k in tied],
                )
        return self._mus[best] * f


class QuadraticEnergy(MinQuadraticsEnergy):
    """W(F) = mu/2 |F|^2 (convex reference model), the one-branch (mu, 0)
    minimum of quadratics."""

    kind = "quadratic"

    def __init__(self, m: int, d: int, mu: float = 1.0):
        if mu <= 0.0:
            raise ValueError("mu must be positive")
        super().__init__(m, d, [(mu, 0.0)])
        self.mu = float(mu)


@dataclass(frozen=True)
class AntiplaneParams:
    """Two isotropic wells mu/2 |F|^2 + w for a scalar (m = 1) problem."""

    mu_plus: float
    mu_minus: float
    w_plus: float
    w_minus: float

    def __post_init__(self):
        if self.mu_plus <= 0.0 or self.mu_minus <= 0.0:
            raise ValueError("shear moduli must be positive")
        if self.mu_plus == self.mu_minus:
            raise ValueError("phases must have distinct moduli")

    @property
    def jump_w(self) -> float:
        return self.w_plus - self.w_minus

    @property
    def jump_mu(self) -> float:
        return self.mu_plus - self.mu_minus

    def require_binodal(self):
        """The two-phase region is nonempty iff [w] and [mu] have opposite signs."""
        if self.jump_w * self.jump_mu >= 0.0:
            raise EmptyBinodalError(
                "sign condition failed: (w+ - w-) (mu+ - mu-) must be negative"
            )


class AntiplaneDoubleWell(MinQuadraticsEnergy):
    """Scalar two-well energy min( mu+/2 |F|^2 + w+, mu-/2 |F|^2 + w- )."""

    kind = "antiplane_double_well"

    def __init__(self, params: AntiplaneParams, d: int = 2):
        super().__init__(
            1, d, [(params.mu_plus, params.w_plus), (params.mu_minus, params.w_minus)]
        )
        self.params = params


@dataclass(frozen=True)
class IsotropicParams:
    """Volumetric double well f(theta) plus a deviatoric quadratic penalty."""

    d: int
    mu: float
    f_coeffs: tuple  # ascending polynomial coefficients of f(theta)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        object.__setattr__(self, "f_coeffs", tuple(float(c) for c in self.f_coeffs))

    def f(self, theta):
        return np.polynomial.polynomial.polyval(theta, self.f_coeffs)

    def f_prime(self, theta):
        dcoef = np.polynomial.polynomial.polyder(self.f_coeffs)
        return np.polynomial.polynomial.polyval(theta, dcoef)

    def taylor(self, theta: float) -> np.ndarray:
        """Coefficients c_j = f^(j)(theta) / j! of f(theta + x) = sum_j c_j x^j."""
        poly = np.polynomial.polynomial
        return np.array(
            [
                float(poly.polyval(theta, poly.polyder(self.f_coeffs, j))) / math.factorial(j)
                for j in range(len(self.f_coeffs))
            ]
        )


class IsotropicThetaEnergy(EnergyModel):
    """W(F) = f(tr F) + mu |sym F - (tr F / d) I|^2 on square gradients.

    The stress is f'(theta) I + 2 mu dev(sym F).
    """

    kind = "isotropic_theta_model"

    def __init__(self, params: IsotropicParams):
        super().__init__(params.d, params.d)
        self.params = params

    def _theta_dev(self, f: np.ndarray):
        theta = float(np.trace(f))
        sym = 0.5 * (f + f.T)
        dev = sym - (theta / self.d) * np.eye(self.d)
        return theta, dev

    def value(self, f) -> float:
        f = self._check(f)
        theta, dev = self._theta_dev(f)
        return float(self.params.f(theta)) + self.params.mu * float(np.sum(dev * dev))

    def value_many(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        theta = np.trace(fs, axis1=-2, axis2=-1)
        sym = 0.5 * (fs + np.swapaxes(fs, -2, -1))
        eye = np.eye(self.d)
        dev = sym - (theta[..., None, None] / self.d) * eye
        return self.params.f(theta) + self.params.mu * np.sum(dev * dev, axis=(-2, -1))

    def gradient(self, f) -> np.ndarray:
        f = self._check(f)
        theta, dev = self._theta_dev(f)
        return float(self.params.f_prime(theta)) * np.eye(self.d) + 2.0 * self.params.mu * dev

    def rank_one_excess(self, bases):
        """Closed form in p = a.g and |g|^2, with x = s p:

            f(theta + x) - f(theta) - f'(theta) x
              + mu s^2 (|a|^2 |g|^2 / 2 + p^2 (1/2 - 1/d)),

        the first line summed as x^2 (c_2 + x (c_3 + ...)) from the Taylor
        coefficients c_j of f at each base's theta, which is exact for a
        polynomial and free of the cancellation of the difference.  The two
        sides of a mirrored call share p, |g|^2 and the mu s^2 terms, whose
        bits are the same at -s; x only flips its sign.
        """
        mu, d = self.params.mu, self.d
        # Taylor coefficients of f from the quadratic term up, one row per base
        tails = np.stack([self.params.taylor(np.trace(f))[2:] for f in bases])

        def add_tail(out, x, index):
            """out + x^2 (c_2 + x (c_3 + ...)) on the bases index, in place."""
            if tails.shape[1]:
                poly = _per_row(tails[:, -1], index)
                for j in range(tails.shape[1] - 2, -1, -1):
                    poly = poly * x + _per_row(tails[:, j], index)
                out += (x * x) * poly
            return out

        def excess(a, g, s, index=None, mirror=None):
            a = np.asarray(a, dtype=float)
            p = _dot_rows(g, a[None, :], None)
            x = s * p
            out = (0.5 * mu * s * s * float(a @ a)) * row_sq_norms(g)
            out += (mu * s * s * (0.5 - 1.0 / d)) * (p * p)
            if mirror is None:
                return add_tail(out, x, index)
            return add_tail(out.copy(), x, index), add_tail(out, -x, mirror)

        return excess
