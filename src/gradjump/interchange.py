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
gradient is one evaluation of the + term at the sign-folded point
sign(z.nu) (z.n, z.nu).  Everything here is exact pointwise kinematics; the
Monte Carlo integration lives in ``quadrature``.
"""

from __future__ import annotations

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
    """Sampling budgets and seeding for the energy-increment estimator.

    Counts are integrand evaluations (antithetic pairs use two each);
    samples_bulk budgets the whole-ball stratum, samples_slab each thin
    stratum.  Counts round to power-of-two pairs per scramble.  Every
    (stratum, scramble) pair draws from its own RNG stream keyed by
    (seed, stratum id, scramble id), so totals are bitwise-reproducible
    regardless of evaluation order.  sampler="rqmc" uses scrambled Sobol
    points (default); "mc" uses plain pseudo-random points, with error
    bars of classical 1/sqrt(N) size.
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


def _plus_parts(s_n, s_nu, r, h):
    """Scalar value and frame gradient pieces of the unmirrored (+) term.

    Returns (val, g_n, g_nu, c_r) where the gradient of the + term is
    a (x) (g_n n + g_nu nu + c_r z/|z|).  Derivatives at the kink sets are
    one-sided; they sit on measure-zero sets.
    """
    sh = np.sqrt(h)
    phi = np.clip(1.0 - s_n / h, 0.0, 1.0)
    dphi = np.where((s_n > 0.0) & (s_n < h), -1.0, 0.0)
    rho = np.clip(s_nu / sh, 0.0, 1.0)
    drho = np.where((s_nu > 0.0) & (s_nu < sh), 1.0, 0.0)
    zeta = np.clip((1.0 - r) / sh, 0.0, 1.0)
    dzeta = np.where((r > 1.0 - sh) & (r < 1.0), -1.0 / sh, 0.0)
    val = h * phi * rho * zeta
    g_n = dphi * rho * zeta
    g_nu = sh * phi * drho * zeta
    c_r = h * phi * rho * dzeta
    return val, g_n, g_nu, c_r


def _mirrored_gradient(coords: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """Frame gradient of the mirrored field at radii r = |coords|, by a sign fold.

    rho(s_nu) and rho(-s_nu) have disjoint supports, so of the two terms of
    the mirror pair only the one with sigma s_nu > 0, sigma = sign(s_nu),
    can be nonzero, and the gradient is sigma times the + term's tangential
    pieces (its radial piece is even) at the folded point sigma (s_n, s_nu).
    So _plus_parts runs once, and the result equals the two-term sum.  The
    gradient is odd under z -> -z, bitwise: the fold maps z and -z to the
    same point and only sigma changes sign.
    """
    s_n = coords[:, 0]
    s_nu = coords[:, 1]
    sigma = np.sign(s_nu)
    _, g_n, g_nu, c_r = _plus_parts(sigma * s_n, sigma * s_nu, r, h)
    radial = np.divide(c_r, r, out=np.zeros_like(r), where=r > 0.0)
    g = radial[:, None] * coords
    g[:, 0] += sigma * g_n
    g[:, 1] += sigma * g_nu
    return g


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
    value/gradient evaluation in frame coordinates, plus the world-space
    single-point API used by callers.
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

    def to_frame(self, z: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(z, dtype=float)) @ self.frame.T

    def scalar_gradient(self, coords: np.ndarray):
        """Scalar profile and frame-gradient vector at frame coordinates.

        The field value is scalar * a and its gradient is a (x) g where g
        is returned in frame components (shape (N, d)).
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        r = np.linalg.norm(coords, axis=1)
        s_n, s_nu = coords[:, 0], coords[:, 1]
        # the profile is the + term plus its mirror image
        scalar = _plus_parts(s_n, s_nu, r, self.h)[0] + _plus_parts(-s_n, -s_nu, r, self.h)[0]
        return scalar, _mirrored_gradient(coords, r, self.h)

    def value_gradient(self, z):
        """Field value (R^m) and gradient (m x d matrix) at a world point."""
        coords = self.to_frame(z)
        scalar, g = self.scalar_gradient(coords)
        g_world = g @ self.frame
        value = scalar[0] * self.pair.a
        gradient = np.outer(self.pair.a, g_world[0])
        return value, gradient

    def classify(self, z) -> str:
        return REGION_NAMES[int(classify_codes(self.to_frame(z), self.h)[0])]


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
