"""Energy densities W(F) on m x d gradients with values and stress gradients.

The built-in kinds are a minimum of isotropic quadratic branches
(multi-well), the single isotropic quadratic as its one-branch case, and an
isotropic model f(tr F) + mu |dev sym F|^2.  Each has one closed-form
stress ``gradient``; central differences serve only subclasses that define
``value()`` alone.

The estimator evaluates W only along rank-one lines F + s a (x) G, on both
sides of an interface.  ``EnergyModel.rank_one_excess(fp, fm, a, t)``
returns the kernel ``excess(g)``, which gives the pointwise excess on
N world vectors G at once, at step +t from F+ and -t from F-; the work
that depends on the pair, a and t alone is done once, when the kernel is
built.  Its base-class body forms the (N, m, d) stacks and calls
``value_many`` (the path for user subclasses, and the test reference).
The min-of-quadratics and isotropic kinds override it with closed forms in
p = a.G, (F^T a).G and |G|^2, since

    |F + s a (x) G|^2 = |F|^2 + 2 s (F^T a).G + s^2 |a|^2 |G|^2,
    tr(a (x) G) = a.G,
    |dev sym(a (x) G)|^2 = |a|^2 |G|^2 / 2 + (a.G)^2 (1/2 - 1/d).

Each closed form is exactly 0 where G = 0, as the stack form is, and
computes the parts that do not depend on the sign of the step once for
both sides.

``EnergyModel.rank_one_minimum`` gives the least excess at F over every
rank-one increment r u (x) v, the Weierstrass condition that
``jumps.weierstrass_scan`` tests.  Its base-class body searches a finite
grid of u, v and r on (N, m, d) stacks; the built-in kinds
override it with the exact minimum over all unit u, v and every r in a
window [r_lo, r_hi]: one singular value per branch for the
min-of-quadratics kinds, and two polynomial pieces in x = r (u.v) for the
isotropic kind, minimized without any LAPACK routine (``_poly_candidates``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyBinodalError, NonsmoothPointError
from .tensors import as_matrix, frobenius, row_sq_norms, sphere_grid

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


def _horner(coeffs, x: float) -> float:
    """The polynomial with ascending ``coeffs`` at x, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bracket_roots(coeffs, knots) -> list:
    """Ascending distinct points bracketing the roots of a polynomial that
    is monotone between consecutive ``knots`` (ascending): each knot where
    it is 0, and around each sign change between two knots the adjacent
    floats that bisection ends on."""
    found = []
    for a, b in zip(knots, knots[1:]):
        fa, fb = _horner(coeffs, a), _horner(coeffs, b)
        if fa == 0.0 or fb == 0.0:
            found += [x for x, fx in ((a, fa), (b, fb)) if fx == 0.0]
        elif (fa < 0.0) != (fb < 0.0):
            while a < (mid := 0.5 * (a + b)) < b:
                fm = _horner(coeffs, mid)
                if fm == 0.0:
                    a = b = mid
                elif (fm < 0.0) == (fa < 0.0):
                    a = mid
                else:
                    b = mid
            found += [a, b]
    # a knot where it is 0 ends one interval and starts the next
    return sorted(set(found))


def _poly_candidates(coeffs, lo: float, hi: float) -> list:
    """Ascending points of [lo, hi] among which the polynomial with
    ascending ``coeffs`` takes its least value on [lo, hi]: the two ends and
    the floats that bracket each real root of its derivative.

    Each derivative is monotone between consecutive roots of the next one,
    so the roots are found from the linear derivative up to the first, by
    bisection on Python floats; no eigenvalue or SVD routine runs.  The
    trailing zero coefficients are dropped first, so that no derivative in
    the chain is identically 0 and each level has at most two points per
    root of a polynomial of its degree.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    chain = [coeffs]
    while len(chain[-1]) > 2:
        chain.append([k * c for k, c in enumerate(chain[-1])][1:])
    knots = []
    for poly in reversed(chain[1:]):
        knots = _bracket_roots(poly, [lo, *knots, hi])
    return [lo, *knots, hi]


def _top_singular(b: np.ndarray):
    """(sigma, u, v): the top singular value of the m x d matrix b and unit
    vectors with u^T b v = -sigma.

    v is the top right singular vector with its entry of largest magnitude
    positive (b / sigma for m = 1, with no SVD) and u = -b v / sigma, so
    the bits do not depend on the signs LAPACK picks.  For sigma = 0,
    u = e_1 and v = e_1; a b that is not finite gives sigma = NaN.
    """
    m, d = b.shape
    e1_m, e1_d = np.eye(m)[0], np.eye(d)[0]
    if not np.all(np.isfinite(b)):
        return math.nan, e1_m, e1_d
    if m == 1:
        sigma = float(np.linalg.norm(b))
        if sigma == 0.0:
            return 0.0, e1_m, e1_d
        return sigma, np.array([-1.0]), b[0] / sigma
    _, s, vt = np.linalg.svd(b)
    sigma = float(s[0])
    if sigma == 0.0:
        return 0.0, e1_m, e1_d
    v = vt[0] if vt[0, np.argmax(np.abs(vt[0]))] > 0.0 else -vt[0]
    return sigma, -(b @ v) / sigma, v


def _dot_rows(g: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Row dot products g_i . vec for a (d,) vector.

    Column by column, so each row's value does not depend on the rows
    evaluated with it.
    """
    out = g[:, 0] * vec[0]
    for k in range(1, g.shape[1]):
        out += g[:, k] * vec[k]
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

    def rank_one_excess(self, fp, fm, a, t):
        """Kernel for the excess of W on both sides of an interface.

        ``fp`` and ``fm`` are (m, d) gradients F+ and F-, with stresses
        P+- = ``gradient(F+-)``, ``a`` an (m,) vector and ``t`` a step.
        Returns ``excess(g)``, which for N world vectors g_i (an (N, d)
        array) gives the pair of rows

            W(F+ + t a (x) g_i) - W(F+) - t (P+, a (x) g_i),
            W(F- - t a (x) g_i) - W(F-) + t (P-, a (x) g_i),

        the two points of an antithetic pair of the estimator, as fresh
        arrays.  This body forms the (N, m, d) stacks and calls
        ``value_many``, one side at a time; kinds with a closed form
        override it.
        """
        a = np.asarray(a, dtype=float)
        sides = [
            (np.asarray(f, dtype=float), s, self.value(f), self.gradient(f).T @ a)
            for f, s in ((fp, t), (fm, -t))
        ]

        def excess(g):
            return tuple(
                self.value_many(f + (s * a)[None, :, None] * g[:, None, :])
                - wbar
                - s * _dot_rows(g, lin)
                for f, s, wbar, lin in sides
            )

        return excess

    def rank_one_minimum(self, f, radii, resolution: int):
        """Least excess at F over rank-one increments r u (x) v, |u| = |v| = 1.

        ``f`` is an (m, d) matrix and ``radii`` a nonempty 1-D array of
        finite positive radii.  Returns (value, u, v, r, method).  This body
        searches the grid sphere_grid(m, resolution) x sphere_grid(d,
        resolution) x radii, one (N, m, d) stack of ``value_many`` per u
        (method "grid"), so a nonnegative value certifies the rank-one
        condition on that grid only; ties resolve to the lexicographically
        first entry.  Kinds with a closed form override it with the minimum
        over every unit u, v and every r in the window [min radii,
        max radii] (method "exact"), where ``resolution`` plays no part.
        """
        us, vs = sphere_grid(self.m, resolution), sphere_grid(self.d, resolution)
        # row j * len(radii) + k holds radii[k] * vs[j]
        world = (radii[None, :, None] * vs[:, None, :]).reshape(-1, self.d)
        wbar, stress = self.value(f), self.gradient(f)

        best = (np.inf, 0, 0, 0)
        for iu, u in enumerate(us):
            vals = (
                self.value_many(f + u[None, :, None] * world[:, None, :])
                - wbar
                - _dot_rows(world, stress.T @ u)
            )
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (float(vals[i]), iu, i // radii.size, i % radii.size)
        val, iu, j, k = best
        return val, us[iu], vs[j], float(radii[k]), "grid"

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

    def rank_one_excess(self, fp, fm, a, t):
        """Closed form over the branches b, with e_b = W_b(F) - W(F) >= 0:

            min_b ( e_b + s ((mu_b F - P)^T a).g + mu_b s^2 |a|^2 |g|^2 / 2 ),

        s = t on F+ and -t on F-.  On a side's active branch e_b = 0 and
        P = mu_b F, so the linear term vanishes bit for bit, g = 0 gives
        exactly 0 and no cancellation is left in the increment.  The two
        sides share the s^2 term, whose bits are the same at -t.  Each side
        skips its zero offsets and the columns of its linear terms that are
        zero: every branch value starts from mu_b quad >= +0, so a skipped
        +-0, which can change at most the sign of a zero step, changes no
        bit of the value.
        """
        a = np.asarray(a, dtype=float)
        half = 0.5 * t * t * float(a @ a)
        sides = []
        for f, s in ((fp, t), (fm, -t)):
            f = self._check(f)
            vals = self.branch_values(f)
            lin = np.einsum("bmd,m->bd", self._mus[:, None, None] * f - self.gradient(f), a)
            # per branch: its offset e_b and the (column, coefficient) of
            # each nonzero linear term
            terms = [[(c, x) for c, x in enumerate(row) if x != 0.0] for row in lin.tolist()]
            sides.append((s, list(zip((vals - vals.min()).tolist(), terms))))

        def at_side(s, branches, cols, mqs):
            """The minimum over the branches on every row, out of place:
            mu_b quad is shared by both sides."""
            for b, ((offset, terms), val) in enumerate(zip(branches, mqs)):
                if offset != 0.0:
                    val = val + offset
                if terms:
                    (c, x), *rest = terms
                    step = cols[c] * x
                    for c, x in rest:
                        step += cols[c] * x
                    step *= s
                    val = val + step
                at = val if b == 0 else np.minimum(at, val)
            return at

        def excess(g):
            # contiguous columns, read by several branches
            cols, quad = np.ascontiguousarray(g.T), half * row_sq_norms(g)
            mqs = [mu * quad for mu in self._mus]
            plus, minus = (at_side(s, branches, cols, mqs) for s, branches in sides)
            # one branch with no offset or linear term on either side
            # leaves both sides mu quad itself
            return plus, (minus.copy() if minus is plus else minus)

        return excess

    def rank_one_minimum(self, f, radii, resolution: int):
        """Exact minimum over the radius window [r_lo, r_hi] = [min radii,
        max radii].  Branch b gives e_b + r u^T B_b v + mu_b r^2 / 2 with
        B_b = mu_b F - P and e_b = W_b(F) - W(F); it is least at the top
        singular pair of B_b (``_top_singular``), where u^T B_b v = -sigma_b,
        and at r = clip(sigma_b / mu_b, r_lo, r_hi).  The value is the least
        over the branches, the first on a tie; a branch whose value is NaN
        (one that overflows at F) decides it only if every branch's is.
        ``resolution`` plays no part.
        """
        r_lo, r_hi = float(np.min(radii)), float(np.max(radii))
        best = None
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.branch_values(f)
            offsets = (vals - vals.min()).tolist()
            stress = self.gradient(f)
            for mu, e_b in zip(self._mus.tolist(), offsets):
                sigma, u, v = _top_singular(mu * f - stress)
                r = min(max(sigma / mu, r_lo), r_hi)
                value = e_b - sigma * r + 0.5 * mu * r * r
                if best is None or value < best[0] or math.isnan(best[0]):
                    best = (value, u, v, r)
        return (*best, "exact")

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
        """The two-phase region is nonempty iff [w] and [mu] have opposite
        signs.  The signs are compared, not their product, which underflows
        for small jumps."""
        if self.jump_w == 0.0 or (self.jump_w > 0.0) == (self.jump_mu > 0.0):
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


#: the most coefficients f may have: its Taylor coefficients f^(j) / j!
#: divide by j!, which no float holds above j = 170
MAX_F_COEFFS = 171


@dataclass(frozen=True)
class IsotropicParams:
    """Volumetric double well f(theta) plus a deviatoric quadratic penalty.

    Trailing zero coefficients of f are dropped, so they change nothing.
    Raises ValueError when f has more than MAX_F_COEFFS coefficients after
    that, since its Taylor coefficients cannot be formed.
    """

    d: int
    mu: float
    f_coeffs: tuple  # ascending polynomial coefficients of f(theta)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        coeffs = [float(c) for c in self.f_coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) > MAX_F_COEFFS:
            raise ValueError(
                f"f_coeffs has degree {len(coeffs) - 1}, above {MAX_F_COEFFS - 1}: "
                "its Taylor coefficients f^(j) / j! cannot be formed in double precision"
            )
        object.__setattr__(self, "f_coeffs", tuple(coeffs))

    def f(self, theta):
        return np.polynomial.polynomial.polyval(theta, self.f_coeffs)

    @functools.cached_property
    def _derivatives(self) -> tuple:
        """Coefficients of f^(j) for j = 0 .. max(len(f_coeffs) - 1, 1),
        built once, each from the one before as polyder forms it: c_k k for
        k >= 1, and a single zero once the constant is differentiated."""
        derivatives = [np.array(self.f_coeffs)]
        while len(derivatives) < max(len(self.f_coeffs), 2):
            c = derivatives[-1]
            derivatives.append(c[1:] * np.arange(1, len(c)) if len(c) > 1 else c * 0)
        return tuple(derivatives)

    def f_prime(self, theta):
        return np.polynomial.polynomial.polyval(theta, self._derivatives[1])

    def taylor(self, theta: float) -> np.ndarray:
        """Coefficients c_j = f^(j)(theta) / j! of f(theta + x) = sum_j c_j x^j."""
        poly = np.polynomial.polynomial
        return np.array(
            [
                float(poly.polyval(theta, dcoef)) / math.factorial(j)
                for j, dcoef in enumerate(self._derivatives)
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

    def rank_one_minimum(self, f, radii, resolution: int):
        """Exact minimum over the radius window [r_lo, r_hi] = [min radii,
        max radii], in x = r (u.v).  The excess at r u (x) v is

            T(x) + mu r^2 / 2 + mu (1/2 - 1/d) x^2,

        T the Taylor tail of f at tr F, and |x| <= r.  It grows with r at
        fixed x, so it is least at r = max(|x|, r_lo), on two polynomial
        pieces:

        - r_lo <= |x| <= r_hi, r = |x|: T(x) + mu (1 - 1/d) x^2, with
          u = sign(x) v;
        - |x| < r_lo, r = r_lo (d >= 2 only, since u = +-v for d = 1):
          T(x) + mu (r_lo^2 / 2 + (1/2 - 1/d) x^2), with
          u = p e_1 + sqrt(1 - p^2) e_2, p = x / r_lo.

        v = e_1.  Each piece is minimized over its interval's ends and the
        real critical points (``_poly_candidates``, Horner on Python
        floats); ties resolve to the least x.  ``resolution`` plays no part.
        """
        r_lo, r_hi = float(np.min(radii)), float(np.max(radii))
        mu, d = self.params.mu, self.d
        with np.errstate(over="ignore", invalid="ignore"):
            tail = self.params.taylor(float(np.trace(f))).tolist()[2:]
        c2, higher = (tail[0], tail[1:]) if tail else (0.0, [])
        outer = [0.0, 0.0, c2 + mu * (1.0 - 1.0 / d), *higher]
        pieces = [(outer, -r_hi, -r_lo), (outer, r_lo, r_hi)]
        if d > 1:
            inner = [0.5 * mu * r_lo * r_lo, 0.0, c2 + mu * (0.5 - 1.0 / d), *higher]
            # split at x = 0, a root of the inner piece's derivative, so that
            # no bisection chases it through the subnormals
            pieces[1:1] = [(inner, -r_lo, 0.0), (inner, 0.0, r_lo)]
        best = None
        for poly, lo, hi in pieces:
            for x in _poly_candidates(poly, lo, hi):
                value = _horner(poly, x)
                if best is None or value < best[0]:
                    best = (value, x, poly is not outer)
        value, x, on_inner = best
        v = np.eye(d)[0]
        if on_inner:
            p = x / r_lo
            u = np.zeros(d)
            u[0], u[1] = p, math.sqrt(max(0.0, 1.0 - p * p))
            return value, u, v, r_lo, "exact"
        return value, math.copysign(1.0, x) * v, v, abs(x), "exact"

    def rank_one_excess(self, fp, fm, a, t):
        """Closed form in p = a.g and |g|^2, with x = s p, s = t on F+ and
        -t on F-:

            f(theta + x) - f(theta) - f'(theta) x
              + mu t^2 (|a|^2 |g|^2 / 2 + p^2 (1/2 - 1/d)),

        the first line summed as x^2 (c_2 + x (c_3 + ...)) from the Taylor
        coefficients c_j of f at each side's theta, which is exact for a
        polynomial and free of the cancellation of the difference.  The two
        sides share p, |g|^2 and the mu t^2 terms; x only flips its sign,
        and x^2 keeps its bits.
        """
        mu, d = self.params.mu, self.d
        a = np.asarray(a, dtype=float)
        # Taylor coefficients of f from the quadratic term up, one list per side
        tail_p, tail_m = (self.params.taylor(np.trace(f))[2:].tolist() for f in (fp, fm))
        quad = 0.5 * mu * t * t * float(a @ a)
        shear = mu * t * t * (0.5 - 1.0 / d)

        def with_tail(out, x, xx, tail):
            """out + x^2 (c_2 + x (c_3 + ...)), given xx = x^2."""
            if not tail:
                return out
            poly = tail[-1]
            for c in reversed(tail[:-1]):
                poly = poly * x + c
            return out + xx * poly

        def excess(g):
            p = g[:, 0] * a[0]
            for k in range(1, d):
                p = p + g[:, k] * a[k]
            pp = p * p
            x = p * t
            xx = x * x
            out = quad * row_sq_norms(g) + pp * shear
            plus, minus = with_tail(out, x, xx, tail_p), with_tail(out, -x, xx, tail_m)
            # a linear f leaves both sides the mu t^2 terms themselves
            return plus, (minus.copy() if minus is plus else minus)

        return excess
