"""Material-interchange test field and the weak/strong interpolation landscape.

The field flips the two gradients across an O(h) slab of the interface inside
the unit ball.  It is a product of three Lipschitz cutoffs acting on z.n, z.nu
and |z| (nu a unit tangent), mirrored through the origin:

    value+(z) = h phi(z.n / h) rho(z.nu / sqrt(h)) zeta_h(|z|) a,
    value-(z) = value+(-z),

with phi = 1 below the slab, 1 - s across it, 0 above; rho and zeta_h are
linear ramps (only their endpoint values matter for the h -> 0 limits, the
linear choice keeps gradients piecewise constant).  Since rho vanishes for
negative arguments, at most one term of the mirror pair is nonzero, so the
gradient is the + term's at the sign-folded point sign(z.nu) (z.n, z.nu),
its tangential parts times sign(z.nu).  That is the one formula for the
field's gradient (``_fold_factors``, then ``_radial_gradient``): the
cubature feeds it each piece's fold side and ramp flag, and
``InterchangeField.scalar_gradient`` each point's (``_mirrored_gradient``).
Everything here is exact pointwise kinematics; the integral of the energy
increment over the ball, and the measures of the regions that
``classify_codes`` labels, live in ``quadrature``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .energies import EnergyModel, IsotropicParams
from .errors import DimensionError
from .jumps import InterfacePair, interchange_force
from .tensors import as_unit_vector, as_vector, perp_unit

#: region labels in canonical order; code 0 is the complement of the support
REGION_NAMES = ("support_complement", "R_plus", "R_minus", "Q", "Q_prime")


@dataclass(frozen=True)
class QuadratureConfig:
    """The energy-increment estimator's settings.

    Every model takes a deterministic rule, which honours max_error alone:
    an estimate whose error bar exceeds it is refused.  seed, the sampling
    budgets samples_bulk and samples_slab, stratification and sampler
    ("rqmc" or "mc") configured the stratified sampler that the rule
    replaced; they are still accepted and validated, so that such configs
    still run, and act on nothing.
    """

    seed: int = 0
    samples_bulk: int = 32_768
    samples_slab: int = 262_144
    stratification: tuple = ("slab", "strip", "corner", "shell")
    sampler: str = "rqmc"
    max_error: float | None = None

    def __post_init__(self):
        if self.samples_bulk < 1000 or self.samples_slab < 1000:
            raise ValueError("sample counts must be at least 1000")
        if self.sampler not in ("rqmc", "mc"):
            raise ValueError("sampler must be 'rqmc' or 'mc'")
        known = {"slab", "strip", "corner", "shell"}
        bad = set(self.stratification) - known
        if bad:
            raise ValueError(f"unknown strata {sorted(bad)}; choose from {sorted(known)}")


@dataclass(frozen=True)
class InterchangeParams:
    """Slab width h, interpolation weight t, tangent nu, and quadrature budgets.

    t = 1 is the pure interchange variation; t -> 0 recovers the weak
    variation along the same shape.  nu = None picks a deterministic unit
    tangent orthogonal to the interface normal.
    """

    h: float
    t: float = 1.0
    nu: np.ndarray | None = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError("h must lie in (0, 1)")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        if self.nu is not None:
            object.__setattr__(self, "nu", as_vector(self.nu))

    def with_h(self, h: float) -> "InterchangeParams":
        return replace(self, h=h)


def _fold_factors(h: float, sigma, ramp, s_n, s_nu):
    """(gn, gnu, cr): the factors of the frame gradient at points whose
    (s_n, s_nu) lie on the fold side ``sigma`` = sign(s_nu), with ``ramp``
    true where the rho ramp acts, |s_nu| < sqrt(h).

    rho(s_nu) and rho(-s_nu) have disjoint supports, so of the two terms of
    the mirror pair only the one with sigma s_nu > 0 can be nonzero, and
    the gradient is sigma times the + term's tangential parts at the folded
    point sigma (s_n, s_nu), plus its radial part, which is even.  With
    zeta and dzeta the radial cutoff and its slope at r = |z|, it is

        (c_r / r) z + zeta (gn, gnu, 0),  c_r = cr dzeta,

    with gn = sigma dphi rho, gnu = sigma sqrt(h) phi drho and
    cr = h phi rho, whose product with zeta is the profile.  Where the ramp
    acts drho = 1, else 0; at sigma = 0 every factor is 0.  Derivatives at
    the kink sets are one-sided; they sit on sets of measure zero.
    """
    sh = math.sqrt(h)
    s_n = sigma * s_n
    # the method skips np.clip's dispatch, a third of its cost on a block
    phi = (1.0 - s_n / h).clip(0.0, 1.0)
    rho = (sigma * s_nu / sh).clip(0.0, 1.0)
    dphi = np.where((s_n > 0.0) & (s_n < h), -1.0, 0.0)
    return sigma * (dphi * rho), sigma * (sh * phi * ramp), h * phi * rho


def _radial_gradient(h: float, factors, s_n, s_nu, r, w):
    """The frame gradient (g_n, g_nu, g_w) and the radial cutoff zeta at
    points (s_n, s_nu, w) of radius r > 0 whose fold factors are
    ``factors`` (``_fold_factors``).  The point at -w has the same r, and
    its gradient differs only in g_w, which flips its sign.  Arguments
    broadcast.
    """
    gn, gnu, cr = factors
    sh = math.sqrt(h)
    zeta = ((1.0 - r) / sh).clip(0.0, 1.0)
    dzeta = np.where((r > 1.0 - sh) & (r < 1.0), -1.0 / sh, 0.0)
    radial = cr * dzeta / r
    return radial * s_n + gn * zeta, radial * s_nu + gnu * zeta, radial * w, zeta


def _mirrored_gradient(coords: np.ndarray, r: np.ndarray, h: float):
    """(g, profile): the frame gradient (N, d) and the scalar profile (N,) of
    the mirrored field at frame points ``coords`` of radii r = |coords|.

    Each point's fold side is sigma = sign(s_nu) and the rho ramp acts
    where |s_nu| < sqrt(h) (``_fold_factors``).  The gradient is odd under
    z -> -z, bitwise: z and -z fold to the same point and only sigma
    changes sign.  r is 0 only where every coordinate's square underflows,
    and there dzeta = 0: the smallest positive double stands in for it,
    which keeps zeta = 1 and the radial part 0 without a division by 0.
    """
    s_n, s_nu = coords[:, 0], coords[:, 1]
    sigma = np.sign(s_nu)
    factors = _fold_factors(h, sigma, np.abs(s_nu) < math.sqrt(h), s_n, s_nu)
    r = np.maximum(r, np.finfo(float).smallest_subnormal)
    w = coords[:, 2] if coords.shape[1] == 3 else 0.0
    *parts, zeta = _radial_gradient(h, factors, s_n, s_nu, r, w)
    g = np.empty(coords.shape)
    for k in range(coords.shape[1]):
        g[:, k] = parts[k]
    return g, factors[2] * zeta


def _region_codes(s_n: np.ndarray, s_nu: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """Region codes from the frame coordinates s_n, s_nu and the radius r.

    Under z -> -z, R_plus and R_minus (codes 1 and 2) swap and the other
    codes stay, exactly.
    """
    sh = np.sqrt(h)
    inside = r < 1.0
    core = inside & (r < 1.0 - sh)
    ring = inside & (r >= 1.0 - sh)
    prod = s_nu * s_n

    codes = np.zeros(s_n.shape[0], dtype=np.int8)
    r_plus = (s_nu > sh) & (s_n > 0.0) & (s_n < h) & core
    r_minus = (s_nu < -sh) & (s_n < 0.0) & (s_n > -h) & core
    q = (ring & (prod < 0.0)) | ((np.abs(s_nu) < sh) & (prod < 0.0) & core)
    q_prime = ((np.abs(s_nu) < sh) & (np.abs(s_n) < h) & (prod > 0.0) & inside) | (
        ring & (np.abs(s_n) < h) & (prod > 0.0)
    )
    codes[r_plus] = 1
    codes[r_minus] = 2
    codes[q] = 3
    codes[q_prime] = 4
    return codes


def classify_codes(coords: np.ndarray, h: float) -> np.ndarray:
    """Vectorized region classification of frame coordinates (s_n, s_nu, ...).

    Codes index into REGION_NAMES.  The four named regions partition the
    support of the field gradient (up to sets of measure zero): R+- carry
    the exact gradient flips, Q the O(sqrt(h)) tangential ramps, Q' the
    O(1) corner overlaps.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return _region_codes(coords[:, 0], coords[:, 1], np.linalg.norm(coords, axis=1), h)


class InterchangeField:
    """Evaluator for the mirrored interchange field of one compatible pair.

    Precomputes the orthonormal frame (n, nu[, w]) and exposes vectorized
    value/gradient evaluation in frame coordinates; world points z have
    frame coordinates z @ frame.T.
    """

    def __init__(self, pair: InterfacePair, params: InterchangeParams):
        self.pair = pair
        self.params = params
        self.h = params.h
        d = pair.d
        if d not in (2, 3):
            raise DimensionError("interchange construction supports d = 2 or 3")
        n = pair.n
        nu = perp_unit(n) if params.nu is None else as_unit_vector(params.nu, d)
        if abs(float(nu @ n)) > 1e-12:
            raise DimensionError("nu must be orthogonal to the interface normal")
        rows = [n, nu]
        if d == 3:
            w = np.cross(n, nu)
            rows.append(w / np.linalg.norm(w))
        self.frame = np.vstack(rows)  # rows are basis vectors
        self.nu = nu

    def scalar_gradient(self, coords: np.ndarray):
        """Scalar profile and frame-gradient vector at frame coordinates.

        The field value is scalar * a and its gradient is a (x) g where g
        is returned in frame components (shape (N, d)).
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        g, scalar = _mirrored_gradient(coords, np.linalg.norm(coords, axis=1), self.h)
        return scalar, g


# -- interpolation landscape -------------------------------------------------


def d_path(model: EnergyModel, pair: InterfacePair, t_grid) -> np.ndarray:
    """Normalized energy landscape along the weak/strong interpolation.

    D(t) = excess(F+, -t [F]) + excess(F-, t [F]) - 2 t ([P], [F]),
    evaluated exactly (no quadrature).  D(0) = 0 always; D(1) = 0 for a
    pair satisfying the Maxwell and normality conditions.
    """
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    frak_n = interchange_force(model, pair)
    jump = pair.jump
    out = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        out[i] = (
            model.excess(pair.fp, -t * jump)
            + model.excess(pair.fm, t * jump)
            - 2.0 * t * frak_n
        )
    return out


def d_path_isotropic(
    params: IsotropicParams, theta_plus: float, theta_minus: float, t_grid
) -> np.ndarray:
    """Closed form of the landscape for the isotropic volumetric model.

    With theta_t = t theta+ + (1-t) theta- and the mirrored combination,

        D(t) = f(theta_t) + f(theta~_t) - f(theta+) - f(theta-)
               + t (1 - t) [f'] [theta].

    Valid under kinematic compatibility and normality, which require
    [Phi'] [theta] <= 0 for Phi(theta) = f(theta) + mu (1 - 1/d) theta^2;
    a violation is reported as a warning, not an error.
    """
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    f = params.f
    jump_theta = theta_plus - theta_minus

    def phi_prime(theta):
        return params.f_prime(theta) + 2.0 * params.mu * (1.0 - 1.0 / params.d) * theta

    constraint = (phi_prime(theta_plus) - phi_prime(theta_minus)) * jump_theta
    if constraint > 1e-12 * (1.0 + abs(constraint)):
        warnings.warn(
            "no compatible normal pair exists for these wells: "
            f"[Phi'][theta] = {constraint:.3e} > 0",
            stacklevel=2,
        )

    theta_t = t_grid * theta_plus + (1.0 - t_grid) * theta_minus
    theta_mirror = (1.0 - t_grid) * theta_plus + t_grid * theta_minus
    jump_fprime = float(params.f_prime(theta_plus) - params.f_prime(theta_minus))
    return (
        f(theta_t)
        + f(theta_mirror)
        - f(theta_plus)
        - f(theta_minus)
        + t_grid * (1.0 - t_grid) * jump_fprime * jump_theta
    )
